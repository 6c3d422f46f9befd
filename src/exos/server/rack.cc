#include "src/exos/server/rack.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "src/base/rand.h"
#include "src/core/aegis.h"
#include "src/exos/fs.h"
#include "src/exos/process.h"
#include "src/exos/udp.h"
#include "src/exos/server/loadgen.h"
#include "src/hw/disk.h"
#include "src/hw/fault.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/hw/world.h"
#include "src/net/wire.h"

namespace xok::exos::server {

namespace {

// 64-bit FNV-1a; the ring needs a wider, better-mixed point space than the
// 32-bit request-steering hash (httpkv::KeyHash), and mixing differently
// also decorrelates ring placement from shard placement.
uint64_t RingHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  // Raw FNV-1a of short same-length strings keeps the high bits nearly
  // constant, which collapses the ring: every point clusters in one band
  // and all keys wrap to the lowest point. Finalize with an avalanche
  // (SplitMix64's mixer) so placement uses the full 64-bit order.
  return SplitMix64::Mix(h);
}

}  // namespace

HashRing::HashRing(uint32_t servers, uint32_t vnodes_per_server)
    : servers_(servers) {
  // Equally spaced vnode points (fixed-partition consistent hashing).
  // Hashing the vnode labels too would need hundreds of points per server
  // before arc lengths even out; with equal arcs the only variance left is
  // the keys' own hash spread, so small key sets still balance. Within
  // each row of `servers` consecutive arcs the servers are permuted by a
  // different affine map (a*j + r, with a co-prime to `servers`, cycling a
  // by row): every row holds each server exactly once (balance), and a
  // dead server's successor differs row to row, so its load spreads over
  // several survivors instead of dogpiling the round-robin neighbor.
  std::vector<uint32_t> coprimes;
  for (uint32_t a = 1; a < servers; ++a) {
    if (std::gcd(a, servers) == 1) {
      coprimes.push_back(a);
    }
  }
  if (coprimes.empty()) {
    coprimes.push_back(1);  // servers == 1.
  }
  const size_t n = static_cast<size_t>(servers) * vnodes_per_server;
  const uint64_t stride = ~0ULL / n;
  points_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = static_cast<uint32_t>(i) / servers;
    const uint32_t j = static_cast<uint32_t>(i) % servers;
    const uint32_t a = coprimes[row % coprimes.size()];
    points_.push_back(Point{stride * i, (a * j + row) % servers});
  }
}

uint32_t HashRing::Owner(std::string_view key,
                         const std::vector<uint8_t>& alive) const {
  if (points_.empty()) {
    return servers_;
  }
  const uint64_t h = RingHash(key);
  size_t start = std::lower_bound(points_.begin(), points_.end(), h,
                                  [](const Point& p, uint64_t v) {
                                    return p.hash < v;
                                  }) -
                 points_.begin();
  for (size_t i = 0; i < points_.size(); ++i) {
    const Point& p = points_[(start + i) % points_.size()];
    if (p.server < alive.size() && alive[p.server]) {
      return p.server;
    }
  }
  return servers_;
}

uint64_t RackResolve(uint32_t ip) { return 0xa + (ip - 1); }

NetIface RackIface(uint32_t machine) {
  return NetIface{0xa + machine, machine + 1, RackResolve};
}

namespace {

// One failure detector: a server that sends no reply within kReplyBound is
// marked down and its keys re-steered. A 503 means the worker is catching
// up (overload shed, store repair): back off kBusyBackoff and ask again.
constexpr uint64_t kReplyBound = hw::kClockHz / 4;     // 250 ms.
constexpr uint64_t kBusyBackoff = hw::kClockHz / 250;  // 4 ms.

struct LaneShared {
  const RackConfig* config = nullptr;
  const HashRing* ring = nullptr;
  RackState* state = nullptr;
  uint64_t resends = 0;  // Sends past each data request's first, all lanes.
  bool warm = false;     // Lane 0 sets after readiness probes.
  // Lanes 1.. block until lane 0, done warming, wakes them through these.
  std::vector<std::pair<aegis::EnvId, cap::Capability>> waiting_lanes;
};

void MarkDown(RackState& st, uint32_t server, uint64_t now) {
  if (server < st.alive.size() && st.alive[server]) {
    st.alive[server] = 0;
    st.down_at[server] = now;
  }
}

// One request/reply exchange with server machine index `s` (0-based):
// sends `payload` once to that machine's KvServer — whose DPF shard
// filters put the frame on the owning worker's ring — and waits until the
// server's reply carrying `req_id` arrives or `timeout` passes. Replies to
// other ids (late answers to earlier attempts) are dropped. Empty on
// timeout. A failed SendTo is a lost frame: the wait times out like any
// other loss.
std::vector<uint8_t> Exchange(Process& p, UdpSocket& sock, uint32_t s,
                              const std::vector<uint8_t>& payload,
                              uint32_t req_id, uint64_t timeout) {
  const uint32_t server_ip = RackIface(1 + s).ip;
  (void)sock.SendTo(server_ip, kRackKvPort, payload);
  const uint64_t deadline = p.machine().clock().now() + timeout;
  for (;;) {
    Result<Datagram> d = sock.Recv(/*blocking=*/false);
    if (!d.ok()) {
      if (!sock.WaitOrSleep(deadline)) {
        return {};
      }
      continue;
    }
    if (d->src_ip == server_ip && d->payload.size() >= kRespHeaderBytes &&
        net::GetBe32(d->payload, 0) == req_id) {
      return std::move(d->payload);
    }
  }
}

struct LaneReply {
  int status = 0;  // 0 = gave up (no alive server / retries exhausted).
  bool sum_ok = false;
  std::string body;
  bool resteered = false;
  uint32_t served_by = 0;
};

// One request round: send to the key's current owner and wait for the
// reply; on silence past the reply bound mark the machine down and
// re-steer to the ring successor.
LaneReply LaneRequest(Process& p, LaneShared& sh, UdpSocket& sock,
                      uint32_t req_id, const std::vector<uint8_t>& payload,
                      std::string_view key) {
  const RackConfig& cfg = *sh.config;
  RackState& st = *sh.state;
  LaneReply out;
  bool sent = false;
  for (uint32_t hops = 0; hops <= cfg.server_machines; ++hops) {
    const uint32_t s = sh.ring->Owner(key, st.alive);
    if (s >= cfg.server_machines) {
      return out;  // Nothing alive.
    }
    for (int retry = 0; retry < 3; ++retry) {
      if (sent) {
        ++sh.resends;
      }
      sent = true;
      const std::vector<uint8_t> resp =
          Exchange(p, sock, s, payload, req_id, kReplyBound);
      if (resp.empty()) {
        MarkDown(st, s, p.machine().clock().now());
        break;  // Re-steer.
      }
      HttpResponseView view;
      if (!ParseResponsePayload(resp, &view)) {
        continue;  // Damaged reply; ask again.
      }
      if (view.status == 503) {
        p.kernel().SysSleep(kBusyBackoff);
        continue;
      }
      out.status = view.status;
      out.sum_ok = view.sum_ok;
      out.body = std::string(view.body);
      out.served_by = s;
      return out;
    }
    if (st.alive[s]) {
      return out;  // Retries exhausted against a live server: give up.
    }
    out.resteered = true;
  }
  return out;
}

void RunRackLane(Process& p, uint32_t lane, LaneShared& sh) {
  const RackConfig& cfg = *sh.config;
  RackState& st = *sh.state;

  UdpSocket sock(p, RackIface(0));
  if (sock.Bind(static_cast<uint16_t>(kRackLaneBase + lane)) != Status::kOk) {
    return;
  }

  const uint32_t id_base = (lane + 1) * 1'000'000;
  if (lane == 0) {
    // Readiness: probe every (server, shard) until it answers, so the
    // measured phase starts against warmed-up machines. Worker storage
    // setup journals its whole Format + preload at 10 ms per disk access —
    // north of a simulated second — during which probes go unanswered or
    // come back 503; keep asking. The budget is generous: a probe loop
    // that gives up early starts the measured phase against cold workers
    // (everything marks down and the run melts).
    p.kernel().SysSleep(hw::kClockHz / 100);
    uint32_t probe_id = id_base + 900'000;
    for (uint32_t s = 0; s < cfg.server_machines; ++s) {
      for (uint32_t shard = 0; shard < cfg.cpus_per_server; ++shard) {
        std::string key;
        for (uint32_t k = 0; k < cfg.keys; ++k) {
          key = LoadKeyName(k);
          if (ShardOf(key, cfg.cpus_per_server) == shard) {
            break;
          }
        }
        const std::vector<uint8_t> probe = BuildRequestPayload(
            ++probe_id, BuildGetRequest(key), key,
            static_cast<int>(shard));
        for (int tries = 0; tries < 200; ++tries) {
          const std::vector<uint8_t> resp =
              Exchange(p, sock, s, probe, probe_id, kReplyBound);
          HttpResponseView view;
          if (ParseResponsePayload(resp, &view)) {
            if (view.status != 503) {
              break;
            }
            p.kernel().SysSleep(kBusyBackoff);
          }
        }
      }
    }
    st.start_cycle = p.machine().clock().now();
    sh.warm = true;
    for (const auto& [env, env_cap] : sh.waiting_lanes) {
      (void)p.kernel().SysWake(env, env_cap);
    }
  } else {
    while (!sh.warm) {
      p.kernel().SysBlock();
    }
  }

  SplitMix64 rng(cfg.seed ^ (0x5ac * (lane + 1)));
  std::vector<uint32_t> version(cfg.keys, 0);
  for (uint32_t r = 0; r < cfg.requests_per_lane; ++r) {
    const uint32_t req_id = id_base + r;
    const bool is_put = rng.NextBelow(1000) < cfg.put_per_mille;
    const uint32_t key_index = rng.NextBelow(cfg.keys);
    const std::string key = LoadKeyName(key_index);
    std::vector<uint8_t> payload;
    if (is_put) {
      payload = BuildRequestPayload(
          req_id, BuildPutRequest(key, MakeValue(key, ++version[key_index],
                                                 cfg.value_bytes)),
          key);
    } else {
      payload = BuildRequestPayload(req_id, BuildGetRequest(key), key);
    }
    const LaneReply rep = LaneRequest(p, sh, sock, req_id, payload, key);
    const uint64_t now = p.machine().clock().now();
    if (rep.status == 0) {
      ++st.gave_up;
      continue;
    }
    bool good = false;
    if (is_put) {
      good = rep.status == 201;
    } else if (rep.status == 200) {
      // Any valid MakeValue image is accepted: a re-steered GET legally
      // serves the successor's (possibly older) copy. Corruption — a bad
      // X-Sum or a non-image body — is what must never happen.
      good = rep.sum_ok &&
             ParseValueVersion(key, rep.body, cfg.value_bytes) >= 0;
    } else if (rep.status == 404) {
      good = rep.resteered;  // Only a failover gap may lose a key; never home.
    }
    if (good) {
      ++st.acked;
      if (rep.served_by < st.acked_by_server.size()) {
        ++st.acked_by_server[rep.served_by];
      }
      if (rep.resteered) {
        ++st.resteered;
        if (st.first_resteer_ack == 0 || now < st.first_resteer_ack) {
          st.first_resteer_ack = now;
        }
      }
    } else {
      ++st.corrupt;
    }
  }
  st.lane_done_cycle[lane] = p.machine().clock().now();
  ++st.lanes_done;

  if (st.lanes_done == cfg.lanes) {
    // Last lane out: drain every server's workers (QUIT per shard) so the
    // server kernels can finish. Even machines marked down get one — a
    // false-positive down-marking must not leave a live kernel spinning.
    // A worker that never hears QUIT never exits and its kernel never
    // returns, wedging the whole World — so confirm delivery (any reply
    // means the worker processed it) and re-send until confirmed. A
    // powered-off machine costs this loop a bounded 8 reply bounds per
    // shard, and so does a QUIT whose reply was lost: the re-send comes
    // after the worker's kQuitGraceCycles, but that worker has exited.
    uint32_t quit_id = 99'000'000;
    for (uint32_t s = 0; s < cfg.server_machines; ++s) {
      for (uint32_t shard = 0; shard < cfg.cpus_per_server; ++shard) {
        const std::vector<uint8_t> quit = BuildRequestPayload(
            ++quit_id, BuildQuitRequest(), LoadKeyName(0),
            static_cast<int>(shard));
        for (int attempt = 0; attempt < 8; ++attempt) {
          if (!Exchange(p, sock, s, quit, quit_id, kReplyBound).empty()) {
            break;
          }
        }
      }
    }
  }
  (void)sock.Close();
}

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

// Reboots the victim's platter image into a fresh standalone machine and
// remounts every worker extent: journal replay + Fsck is the recovery
// contract (PR 3 semantics — only barrier-ordered platter contents
// survive a power cut; the volatile write buffer is gone).
void VerifyRecovery(const std::vector<uint8_t>& image, uint32_t workers, RackResult* out) {
  struct Verify {
    uint32_t mounted = 0;
    uint32_t fsck_clean = 0;
    uint64_t replayed = 0;
    std::string error;
  } v;
  hw::Machine machine(hw::Machine::Config{.phys_pages = 1024, .name = "rkv"});
  aegis::Aegis kernel(machine);
  hw::Disk disk(machine, 1024);
  if (disk.RestoreImage(image) != Status::kOk) {
    out->recovery_error = "RestoreImage failed";
    return;
  }
  kernel.AttachDisk(&disk);
  Process proc(kernel, [&](Process& p) {
    for (uint32_t w = 0; w < workers; ++w) {
      Result<aegis::Aegis::DiskExtentGrant> extent =
          p.kernel().SysAllocDiskExtent(kWorkerDiskBlocks);
      if (!extent.ok()) {
        v.error = "extent alloc failed";
        return;
      }
      Result<std::unique_ptr<LibFs>> fs = LibFs::Mount(p, *extent, 8);
      if (!fs.ok()) {
        v.error = "mount failed for worker " + std::to_string(w);
        return;
      }
      ++v.mounted;
      v.replayed += (*fs)->txns_replayed();
      if ((*fs)->Fsck() == Status::kOk) {
        ++v.fsck_clean;
      } else {
        v.error = "fsck: " + (*fs)->fsck_error();
      }
    }
  });
  if (!proc.ok()) {
    out->recovery_error = "verify env creation failed";
    return;
  }
  kernel.Run();
  out->txns_replayed = v.replayed;
  if (v.mounted == workers && v.fsck_clean == workers) {
    out->recovered_ok = true;
  } else {
    out->recovery_error = v.error.empty() ? "incomplete remount" : v.error;
  }
}

}  // namespace

RackResult RunRack(const RackConfig& config) {
  RackResult result;
  if (config.server_machines == 0 ||
      config.server_machines > kRackMaxServers ||
      (config.cpus_per_server & (config.cpus_per_server - 1)) != 0) {
    result.error = "bad rack config";
    return result;
  }

  hw::World world;
  std::vector<std::unique_ptr<hw::Machine>> machines;
  std::vector<std::string> names;
  names.reserve(1 + config.server_machines);  // Machine keeps the name ptr.
  names.push_back("rk0");
  machines.push_back(std::make_unique<hw::Machine>(
      hw::Machine::Config{.phys_pages = 4096, .name = names.back().c_str(),
                          .cpus = config.client_cpus},
      &world));
  for (uint32_t s = 0; s < config.server_machines; ++s) {
    names.push_back("rk" + std::to_string(s + 1));
    machines.push_back(std::make_unique<hw::Machine>(
        hw::Machine::Config{.phys_pages = 4096, .name = names.back().c_str(),
                            .cpus = config.cpus_per_server},
        &world));
  }

  std::vector<std::unique_ptr<aegis::Aegis>> kernels;
  for (auto& m : machines) {
    kernels.push_back(std::make_unique<aegis::Aegis>(*m));
  }

  hw::Wire wire;
  std::vector<std::unique_ptr<hw::Nic>> nics;
  for (uint32_t m = 0; m < machines.size(); ++m) {
    nics.push_back(std::make_unique<hw::Nic>(*machines[m], 0xa + m));
    wire.Attach(nics.back().get());
    kernels[m]->AttachNic(nics.back().get());
  }
  std::vector<std::unique_ptr<hw::Disk>> disks;
  for (uint32_t s = 0; s < config.server_machines; ++s) {
    disks.push_back(std::make_unique<hw::Disk>(*machines[1 + s], 1024));
    kernels[1 + s]->AttachDisk(disks.back().get());
  }

  const int victim = config.power_cut_server;
  for (uint32_t s = 0; s < config.server_machines; ++s) {
    hw::FaultPlan plan;
    plan.seed = config.seed;
    bool armed = false;
    if (victim >= 0 && static_cast<uint32_t>(victim) == s) {
      plan.PowerCutAt(config.power_cut_cycle);
      armed = true;
    }
    if (config.kill_server >= 0 &&
        static_cast<uint32_t>(config.kill_server) == s) {
      plan.KillEnvAt(config.kill_cycle, config.kill_env);
      armed = true;
    }
    if (armed) {
      kernels[1 + s]->InstallFaultPlan(plan);
    }
  }

  const uint32_t workers = config.cpus_per_server;
  std::vector<std::unique_ptr<KvServer>> servers;
  for (uint32_t s = 0; s < config.server_machines; ++s) {
    KvServerConfig kv;
    kv.iface = RackIface(1 + s);
    kv.port = kRackKvPort;
    kv.workers = workers;
    kv.use_rings = true;
    kv.use_ash = false;  // Fast-path peers are per-lane; keep the worker path.
    kv.preload = MakePreload(config.keys, config.value_bytes);
    kv.stride_slices_per_cpu = 400;
    kv.trace_requests = config.trace_requests;
    servers.push_back(std::make_unique<KvServer>(*kernels[1 + s], kv));
    if (!servers.back()->ok()) {
      result.error = "KvServer setup failed";
      return result;
    }
  }

  HashRing ring(config.server_machines, config.vnodes);
  RackState state;
  state.alive.assign(config.server_machines, 1);
  state.down_at.assign(config.server_machines, 0);
  state.acked_by_server.assign(config.server_machines, 0);
  state.lane_done_cycle.assign(config.lanes, 0);
  LaneShared shared;
  shared.config = &config;
  shared.ring = &ring;
  shared.state = &state;

  std::vector<std::unique_ptr<Process>> lanes;
  for (uint32_t lane = 0; lane < config.lanes; ++lane) {
    lanes.push_back(std::make_unique<Process>(
        *kernels[0], [lane, &shared](Process& p) { RunRackLane(p, lane, shared); }));
    if (!lanes.back()->ok()) {
      result.error = "lane env creation failed";
      return result;
    }
    if (lane > 0) {
      shared.waiting_lanes.emplace_back(lanes.back()->id(), lanes.back()->env_cap());
    }
  }

  std::vector<std::function<void()>> bodies;
  for (auto& k : kernels) {
    aegis::Aegis* kp = k.get();
    bodies.push_back([kp] { kp->Run(); });
  }
  world.Run(std::move(bodies));

  result.acked = state.acked;
  result.corrupt = state.corrupt;
  result.gave_up = state.gave_up;
  result.resteered = state.resteered;
  result.acked_by_server = state.acked_by_server;
  result.retransmissions = shared.resends;

  uint64_t last_done = 0;
  for (const uint64_t c : state.lane_done_cycle) {
    last_done = std::max(last_done, c);
  }
  if (last_done > state.start_cycle) {
    result.elapsed_cycles = last_done - state.start_cycle;
    result.aggregate_rps = static_cast<double>(state.acked) *
                           static_cast<double>(hw::kClockHz) /
                           static_cast<double>(result.elapsed_cycles);
  }

  if (victim >= 0 && static_cast<uint32_t>(victim) < config.server_machines) {
    result.cut_fired = kernels[1 + victim]->powered_off();
    if (result.cut_fired && state.first_resteer_ack > config.power_cut_cycle) {
      result.recovery_cycles = state.first_resteer_ack - config.power_cut_cycle;
    }
    if (result.cut_fired) {
      VerifyRecovery(disks[static_cast<uint32_t>(victim)]->TakeImage(), workers, &result);
    }
  }

  result.incarnations_by_server.assign(config.server_machines, 0);
  for (uint32_t s = 0; s < config.server_machines; ++s) {
    for (uint32_t w = 0; w < workers; ++w) {
      result.incarnations_by_server[s] +=
          servers[s]->worker_stats(w).incarnations;
    }
  }

  result.audits_ok = true;
  for (uint32_t m = 0; m < kernels.size(); ++m) {
    if (victim >= 0 && m == 1 + static_cast<uint32_t>(victim)) {
      continue;  // Halted mid-charge by design; survivors must audit clean.
    }
    aegis::Aegis::AuditReport report = kernels[m]->AuditInvariants();
    if (!report.ok()) {
      result.audits_ok = false;
      result.audit_error = names[m] + ": " + report.violations.front();
      break;
    }
  }

  uint64_t fp = 0xcbf29ce484222325ull;
  for (auto& m : machines) {
    fp = FnvMix(fp, m->MaxCpuCycle());
  }
  fp = FnvMix(fp, state.acked);
  fp = FnvMix(fp, state.corrupt);
  fp = FnvMix(fp, state.resteered);
  fp = FnvMix(fp, shared.resends);
  for (const uint64_t a : state.acked_by_server) {
    fp = FnvMix(fp, a);
  }
  for (const uint64_t d : state.down_at) {
    fp = FnvMix(fp, d);
  }
  result.fingerprint = fp;

  result.ok = result.error.empty();
  return result;
}

}  // namespace xok::exos::server
