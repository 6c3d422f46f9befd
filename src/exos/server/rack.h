// A rack of exokernel machines behind one wire: the first distributed
// scenario the unified World event loop makes possible (SMP machines and
// Worlds now compose — see src/hw/world.h).
//
// Topology. Machine 0 is the client; machines 1..N each run the
// *unmodified* KvServer libOS (src/exos/server/server.h) on their own
// CPUs, NIC and disk. The client runs L "lane" environments; each lane is
// a plain httpkv client with one UDP socket, the same protocol loadgen
// speaks, and steers every request by consistent hashing over the key —
// sharding policy in library space, one more time: the kernels on either
// side know nothing about lanes, rings, or shards. A request frame goes
// straight to its server machine, whose DPF shard filters put it on the
// owning worker's ring; the worker replies to the frame's source. The
// httpkv envelope is the whole protocol: request-id matching, idempotent
// re-sends and an X-Sum on every reply.
//
// Failure model. A server machine can lose power mid-workload
// (hw::FaultPlan::PowerCutAt — machine-scoped under a World: the others
// keep running). A server that sends no reply within the 250 ms reply
// bound is marked down in the shared host-side RackState (there is no
// mark-up path), and lanes re-steer its keys to the next alive server on
// the ring. A 503 is not silence: the lane backs off 4 ms and asks again.
// After the run the victim's platter image is rebooted into a fresh
// machine and every worker extent is remounted: journal replay must leave
// Fsck-clean file systems holding every synced key.
#ifndef XOK_SRC_EXOS_SERVER_RACK_H_
#define XOK_SRC_EXOS_SERVER_RACK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/exos/server/server.h"

namespace xok::exos::server {

// Consistent-hash ring with virtual nodes. Placement depends only on
// (servers, vnodes), so every lane — and every run — agrees on it.
class HashRing {
 public:
  HashRing(uint32_t servers, uint32_t vnodes_per_server = 16);

  uint32_t servers() const { return servers_; }

  // First server at or clockwise after the key's point whose `alive` bit
  // is set; `servers()` when nothing is alive. With all servers alive this
  // is the key's home; with some down, their arcs fall to ring successors
  // (only the failed machines' keys move — the consistent-hashing point).
  uint32_t Owner(std::string_view key, const std::vector<uint8_t>& alive) const;

 private:
  struct Point {
    uint64_t hash;
    uint32_t server;
  };
  std::vector<Point> points_;  // Sorted by hash.
  uint32_t servers_;
};

// --- Address plan (static, like every exos experiment: no ARP) ---
// Machine m (0 = client, 1.. = servers): ip = m + 1, mac = 0xa + m.
inline constexpr uint16_t kRackKvPort = 7080;    // KvServer, per machine.
inline constexpr uint16_t kRackLaneBase = 8000;  // + lane: client lane socket.
inline constexpr uint32_t kRackMaxServers = 8;

uint64_t RackResolve(uint32_t ip);
NetIface RackIface(uint32_t machine);

// Shared host-side state every client lane reads and writes. Lanes are
// cooperative fibers of one machine, so plain fields need no locking.
struct RackState {
  std::vector<uint8_t> alive;     // Per server machine.
  std::vector<uint64_t> down_at;  // First failure-detection cycle (0 = up).
  uint32_t lanes_done = 0;

  uint64_t acked = 0;
  uint64_t corrupt = 0;    // Must stay 0: X-Sum / version check failed.
  uint64_t gave_up = 0;    // No alive server left for a request.
  uint64_t resteered = 0;  // Acks served by a non-home server.
  uint64_t first_resteer_ack = 0;  // Earliest re-steered ack cycle.
  std::vector<uint64_t> acked_by_server;
  std::vector<uint64_t> lane_done_cycle;
  uint64_t start_cycle = 0;  // First lane out of warmup.
};

struct RackConfig {
  uint32_t server_machines = 2;   // 1..kRackMaxServers.
  uint32_t cpus_per_server = 2;   // Also the per-machine worker count.
  uint32_t client_cpus = 2;
  uint32_t lanes = 6;             // Client lane environments.
  uint32_t requests_per_lane = 40;
  uint32_t keys = 16;
  uint32_t value_bytes = 64;
  uint32_t put_per_mille = 250;
  uint64_t seed = 1;
  uint32_t vnodes = 16;

  // Power-cut arm: cut this server machine (0-based index among servers,
  // -1 = no cut) at the given absolute cycle on that machine's clock. A
  // cut that fired is followed, after the run, by rebooting the victim's
  // platter image and verifying journal replay (Mount + Fsck per worker
  // extent).
  int power_cut_server = -1;
  uint64_t power_cut_cycle = 0;

  // Chaos arm: asynchronously kill environment `kill_env` on server
  // machine `kill_server` (0-based index among servers, -1 = off) at the
  // given cycle. When the victim env is a KvServer worker its supervisor
  // restarts it, so the run must still complete with clean audits — the
  // supervision tree exercised across the World.
  int kill_server = -1;
  uint32_t kill_env = 0;
  uint64_t kill_cycle = 0;

  bool trace_requests = false;  // Arm SysTraceMark request marks rack-wide.
};

struct RackResult {
  bool ok = false;
  std::string error;

  double aggregate_rps = 0.0;  // Acked / (last lane done - start).
  uint64_t elapsed_cycles = 0;
  uint64_t acked = 0;
  uint64_t corrupt = 0;
  uint64_t gave_up = 0;
  uint64_t resteered = 0;
  std::vector<uint64_t> acked_by_server;
  uint64_t retransmissions = 0;  // Re-sent data requests, all lanes.

  // Power-cut arm.
  bool cut_fired = false;
  uint64_t recovery_cycles = 0;  // Cut -> first re-steered ack.
  bool recovered_ok = false;     // Remount + Fsck clean on the victim image.
  std::string recovery_error;
  uint64_t txns_replayed = 0;    // Journal transactions replayed at remount.

  bool audits_ok = false;  // AuditInvariants clean on every surviving kernel.
  std::string audit_error;

  // Per server: summed worker incarnations (1 per worker that reached
  // WorkerMain, +1 per supervisor restart). > workers on some machine is
  // the witness that the chaos arm's kill landed and was repaired.
  std::vector<uint32_t> incarnations_by_server;

  // Order-insensitive FNV over every machine's final cycle counts and the
  // client-visible stats: two same-seed runs must produce the same value
  // (the cross-machine determinism contract, checkable in one word).
  uint64_t fingerprint = 0;
};

// Builds the whole rack (client + N servers on one wire, all in one
// World), runs the workload to completion, and tears it down.
RackResult RunRack(const RackConfig& config);

}  // namespace xok::exos::server

#endif  // XOK_SRC_EXOS_SERVER_RACK_H_
