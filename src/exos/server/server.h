// The Cheetah-style HTTP/KV server libOS (paper §6.3, and Cheetah in the
// exokernel retrospective): an end-to-end network service assembled
// *entirely* from exokernel primitives, with every layer that a monolithic
// kernel would own living here as untrusted library policy:
//
//   NIC --> DPF shard filters --> per-worker zero-copy packet rings
//        \-> per-worker ASH fast path (hot-key GETs answered at
//            interrupt level, worker never scheduled)
//   worker: parse (httpkv) -> KvStore (read cache) -> journaled LibFS
//        -> response built in a TX-ring slot -> one doorbell per batch
//
// Sharding is software RSS expressed in the filter language: requests
// carry a shard byte (FNV-1a of the key) and each worker's filter claims
// `shard == i` with a masked payload atom, so the *demultiplexer* spreads
// the key space across workers — no dispatcher process, no shared accept
// queue. Workers are shared-nothing: each owns a private disk extent,
// file system, and cache; DPF's most-specific-match policy layers the
// deeper ASH filter above the worker's ring filter for the same traffic.
//
// Workers run under a Supervisor (crash restart with backoff) and are
// scheduled by an application-level StrideScheduler; a restarted
// worker re-registers its stride slot (Retarget) and rebinds its filters
// under the fresh environment id. The kernel never learns what a
// "request", "worker", or "shard" is.
#ifndef XOK_SRC_EXOS_SERVER_SERVER_H_
#define XOK_SRC_EXOS_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/exos/server/httpkv.h"
#include "src/exos/stride.h"
#include "src/exos/supervisor.h"
#include "src/exos/udp.h"

namespace xok::exos::server {

// Blocks in each worker's private disk extent.
inline constexpr uint32_t kWorkerDiskBlocks = 48;

struct KvServerConfig {
  NetIface iface;              // The server's interface (loopback-capable).
  uint16_t port = 7080;
  uint32_t workers = 1;        // Shard count; must be a power of two.

  // Receive path: zero-copy packet rings (the Cheetah configuration) or
  // the legacy kernel-queue path (the copy-path ablation).
  bool use_rings = true;
  RingConfig ring;

  // ASH fast path: hot keys answered entirely at interrupt level. Each
  // key binds on the worker owning its shard; the filter matches the
  // canonical GET request text byte-for-byte (a matched ASH *consumes*
  // the frame, so only exact well-formed hot GETs may reach it — any
  // malformed lookalike falls through to the shallower ring filter).
  // The prebuilt reply carries the preloaded (version-0) value; X-Sum
  // keeps even the fast path end-to-end verifiable.
  bool use_ash = false;
  std::vector<std::string> hot_keys;
  uint32_t ash_peer_ip = 0;    // Reply template destination (the client).
  uint16_t ash_peer_port = 0;

  // Storage policy (per worker): journal size (0 = write-back ablation),
  // block-cache slots, in-library value-cache entries.
  uint32_t journal_blocks = LibFs::kDefaultJournalBlocks;
  size_t fs_cache_slots = 8;
  size_t kv_cache_entries = 32;
  uint32_t sync_every_puts = 8;  // Durability point cadence.

  // Keys written into every worker's store before it starts serving
  // (only those hashing to the worker's shard land in its store).
  std::vector<std::pair<std::string, std::string>> preload;

  // Emit kAppMark enter/exit records per request (SysTraceMark); xtop's
  // RPS column and the bench per-stage breakdown read these.
  bool trace_requests = true;

  // --- Overload control (all library policy; zeros disarm each knob) ---
  // Queue-depth admission: past this many requests in one drain batch the
  // rest of the batch is answered 503 + Retry-After before any parse cost
  // is paid — a bounded backlog keeps latency for admitted work sane.
  uint32_t admission_max_batch = 0;
  // Writes shed first: past this depth PUTs are refused (503) while GETs
  // keep flowing — journal appends are the expensive half of the mix.
  uint32_t admission_write_shed = 0;
  // Retry-After hint (simulated microseconds) on every 503 the overload
  // and degraded paths emit; clients use it to pace their retries.
  uint32_t retry_after_us = 200;
  // Shed deadline-expired requests before parse cost (the sender has
  // already abandoned them). Off, the server does full parse/store/reply
  // work for corpses — the overload-bench baseline showing why goodput
  // collapses without it.
  bool honor_ttl = true;

  // Supervision / scheduling.
  uint32_t max_restarts = 4;
  uint64_t restart_backoff = 50'000;
  uint64_t restart_backoff_cap = 800'000;  // Exponential doubling ceiling.
  uint32_t stride_slices_per_cpu = 0;  // 0: no stride scheduler envs.
};

// Per-worker counters, written by the worker fiber into host memory the
// test/bench reads after (or, cooperatively, during) the run.
struct WorkerStats {
  uint64_t requests = 0;      // Frames that reached the worker loop.
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t quits = 0;
  uint64_t bad_requests = 0;  // Answered 400.
  uint64_t not_found = 0;     // Answered 404.
  uint64_t drops = 0;         // Too broken to even echo a request id.
  uint64_t batches = 0;       // Recv drain batches (doorbells amortised).
  uint64_t ash_hits = 0;      // Fast-path replies (snapshotted at exit).
  uint64_t syncs = 0;         // Durability points taken.
  uint64_t send_errors = 0;
  uint64_t expired = 0;         // Deadline passed: shed before parse cost.
  uint64_t shed_busy = 0;       // 503: batch depth over admission_max_batch.
  uint64_t shed_writes = 0;     // 503: PUT refused (write shed / read-only).
  uint64_t stale_serves = 0;    // Degraded-mode cache GETs (X-Stale: 1).
  uint64_t degraded_entries = 0;  // Transitions into read-only mode.
  uint64_t degraded_exits = 0;    // Recoveries (probe Sync succeeded).
  uint64_t rescued_503 = 0;     // Down-sibling frames answered 503 here.
  uint64_t trace_mark_failures = 0;  // SysTraceMark returned non-kOk: the
                                     // request tracer has an attribution
                                     // gap here, so it is counted, never
                                     // silently discarded.
  uint64_t store_errors = 0;    // Requests answered 503 (store op failed).
  uint64_t store_crashes = 0;   // Incarnations that crashed on a dead store.
  uint64_t setup_failures = 0;  // Incarnations that died before serving.
  uint32_t incarnations = 0;  // 1 + restarts that reached WorkerMain.
  bool done = false;          // Exited cleanly after a QUIT.
  KvStore::Stats store;       // Snapshot at exit.
};

class KvServer {
 public:
  KvServer(aegis::Aegis& kernel, KvServerConfig config);

  bool ok() const { return supervisor_ != nullptr && supervisor_->ok(); }

  uint32_t workers() const { return config_.workers; }
  // The masked payload atom implementing the shard split (offset = the
  // envelope's shard byte; mask = workers-1). Exposed for tests that
  // build their own filters against the same key space.
  static dpf::Atom ShardAtom(uint32_t shard, uint32_t workers);

  Supervisor& supervisor() { return *supervisor_; }
  StrideScheduler* stride() { return stride_.get(); }
  const WorkerStats& worker_stats(uint32_t shard) const {
    return workers_[shard]->stats;
  }
  // Live fast-path hit count for a worker: the ASH region's counter word
  // while the incarnation is bound, plus hits snapshotted from previous
  // incarnations.
  uint64_t AshHits(uint32_t shard) const;
  uint64_t TotalAshHits() const;
  bool AllWorkersDone() const;

 private:
  struct WorkerState {
    size_t stride_slot = 0;
    WorkerStats stats;
    hw::PageId ash_page = 0;   // ASH region of the live incarnation.
    bool ash_bound = false;
  };

  // Cross-worker steering state for fail-fast re-steer. Written by the
  // Supervisor's fiber (via ChildSpec::on_state_change) and read by worker
  // fibers; cooperative scheduling makes the accesses race-free.
  struct SteerState {
    std::vector<bool> orphaned;  // Per shard: worker is not running.
    uint32_t orphans = 0;        // Count of true bits above.
    bool rescue_claimed = false; // A live worker holds the catch-all.
    int rescuer = -1;            // Which shard holds it (-1 none).
  };

  void WorkerMain(Process& proc, uint32_t shard);
  // Supervision-state observer: maintains steer_ as shards die/respawn.
  void OnChildState(uint32_t shard, ChildState state);
  // Binds the hot-key ASH for `key`/`value`: pins a region page, builds
  // the reply template + counter in it, and installs the exact-match
  // filter. On success records the region in `ws` for AshHits().
  Status BindHotKeyAsh(Process& proc, WorkerState& ws, uint32_t shard,
                       const std::string& key, const std::string& value);
  uint64_t ReadAshCounter(hw::PageId page) const;

  aegis::Aegis& kernel_;
  KvServerConfig config_;
  SteerState steer_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::unique_ptr<StrideScheduler> stride_;
  std::unique_ptr<Supervisor> supervisor_;  // Last: spawns at Run start.
};

}  // namespace xok::exos::server

#endif  // XOK_SRC_EXOS_SERVER_SERVER_H_
