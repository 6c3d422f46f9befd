#include "src/exos/server/server.h"

#include <algorithm>
#include <cstring>

#include "src/ash/ash.h"
#include "src/exos/reqtrace.h"
#include "src/exos/revocation.h"
#include "src/net/wire.h"

namespace xok::exos::server {

using hw::Instr;

namespace {

constexpr uint32_t kWorkerSlices = 1;          // Kernel slice slots per worker env.
constexpr uint32_t kWorkerStrideTickets = 100;  // Per worker, when stride is on.
// Read-only degraded mode: once a persistent journal-disk error (kErrIo
// after BlockCache's bounded retries) flips a worker to read-only, it
// re-probes the disk with a Sync at this cadence and resumes journaling
// when one succeeds.
constexpr uint64_t kDegradedProbeCycles = 150'000;

}  // namespace

dpf::Atom KvServer::ShardAtom(uint32_t shard, uint32_t workers) {
  return dpf::Atom{.offset = net::kUdpPayloadOff,
                   .width = 1,
                   .mask = workers - 1,
                   .value = shard & (workers - 1)};
}

KvServer::KvServer(aegis::Aegis& kernel, KvServerConfig config)
    : kernel_(kernel), config_(std::move(config)) {
  const uint32_t n = config_.workers;
  if (n == 0 || (n & (n - 1)) != 0 || n > 256) {
    return;  // Shard mask needs a power of two; ok() stays false.
  }
  const uint32_t cpus = kernel_.machine().cpu_count();
  steer_.orphaned.assign(n, false);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  if (config_.stride_slices_per_cpu > 0) {
    // Placeholder slots now; each worker incarnation Retargets its slot
    // to its fresh environment id from inside WorkerMain.
    stride_ = std::make_unique<StrideScheduler>(kernel_);
    for (uint32_t i = 0; i < n; ++i) {
      workers_[i]->stride_slot =
          stride_->AddClient(aegis::kNoEnv, kWorkerStrideTickets, i % cpus);
    }
    if (!stride_->Start(config_.stride_slices_per_cpu)) {
      stride_.reset();
      return;
    }
  }
  std::vector<ChildSpec> specs;
  for (uint32_t i = 0; i < n; ++i) {
    ChildSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.body = [this, i](Process& p) { WorkerMain(p, i); };
    spec.options.slices = kWorkerSlices;
    spec.options.cpu_mask = 1ULL << (i % cpus);
    spec.policy = RestartPolicy::kOnFailure;
    spec.on_state_change = [this, i](ChildState s) { OnChildState(i, s); };
    spec.max_restarts = config_.max_restarts;
    spec.backoff_initial = config_.restart_backoff;
    spec.backoff_cap = config_.restart_backoff_cap;
    specs.push_back(std::move(spec));
  }
  supervisor_ = std::make_unique<Supervisor>(kernel_, std::move(specs));
}

void KvServer::OnChildState(uint32_t shard, ChildState state) {
  // kDone is a deliberate QUIT — clients stopped sending to that shard,
  // so there is nothing to rescue. kBackoff/kFailed leave live traffic
  // with no filter to land on: that is the orphan case.
  const bool orphan = state == ChildState::kBackoff || state == ChildState::kFailed;
  if (orphan == static_cast<bool>(steer_.orphaned[shard])) {
    return;
  }
  steer_.orphaned[shard] = orphan;
  if (orphan) {
    ++steer_.orphans;
    if (steer_.rescuer == static_cast<int>(shard)) {
      // The rescuer itself died; release the claim so a sibling takes over.
      steer_.rescue_claimed = false;
      steer_.rescuer = -1;
    }
  } else {
    --steer_.orphans;
  }
}

uint64_t KvServer::ReadAshCounter(hw::PageId page) const {
  auto bytes = kernel_.machine().mem().PageSpan(page);
  uint32_t v = 0;
  std::memcpy(&v, bytes.data(), sizeof(v));
  return v;
}

uint64_t KvServer::AshHits(uint32_t shard) const {
  const WorkerState& ws = *workers_[shard];
  uint64_t hits = ws.stats.ash_hits;
  if (ws.ash_bound) {
    hits += ReadAshCounter(ws.ash_page);
  }
  return hits;
}

uint64_t KvServer::TotalAshHits() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < config_.workers; ++i) {
    total += AshHits(i);
  }
  return total;
}

bool KvServer::AllWorkersDone() const {
  for (const auto& ws : workers_) {
    if (!ws->stats.done) {
      return false;
    }
  }
  return true;
}

Status KvServer::BindHotKeyAsh(Process& proc, WorkerState& ws, uint32_t shard,
                               const std::string& key, const std::string& value) {
  Result<aegis::PageGrant> region = proc.kernel().SysAllocPage();
  if (!region.ok()) {
    return region.status();
  }
  const std::string req_text = BuildGetRequest(key);

  // Prebuilt reply frame in the region: envelope (req id patched per
  // request) + the canonical 200 response for the preloaded value.
  const std::string resp_text = BuildHttpResponse(200, value);
  std::vector<uint8_t> resp_payload(kRespHeaderBytes + resp_text.size());
  std::copy(resp_text.begin(), resp_text.end(), resp_payload.begin() + kRespHeaderBytes);
  const uint64_t peer_mac = config_.iface.resolve
                                ? config_.iface.resolve(config_.ash_peer_ip)
                                : hw::kBroadcastMac;
  std::vector<uint8_t> frame = net::BuildUdpFrame(
      peer_mac, config_.iface.mac, config_.iface.ip, config_.ash_peer_ip,
      config_.port, config_.ash_peer_port, resp_payload);
  // The ASH patches the request id into the template without fixing up the
  // UDP checksum; zero it (RFC 768 "no checksum") so the patched frame
  // stays well-formed. X-Sum carries the end-to-end integrity instead.
  frame[net::kUdpCksumOff] = 0;
  frame[net::kUdpCksumOff + 1] = 0;

  constexpr uint32_t kReplyOff = 64;  // Counter word + checksum sink below.
  auto region_bytes = proc.machine().mem().PageSpan(region->page);
  if (kReplyOff + frame.size() > region_bytes.size()) {
    return Status::kErrOutOfRange;
  }
  std::fill(region_bytes.begin(), region_bytes.begin() + kReplyOff, 0);
  std::copy(frame.begin(), frame.end(), region_bytes.begin() + kReplyOff);

  Result<ash::AshProgram> handler = ash::BuildKvReplyAsh(ash::KvReplyAshSpec{
      .req_id_off = net::kUdpPayloadOff + 1,
      .reply_off = kReplyOff,
      .reply_len = static_cast<uint32_t>(frame.size()),
      .reply_req_id_off = net::kUdpPayloadOff,
      .cksum_off = net::kUdpPayloadOff,
      .cksum_len = static_cast<uint32_t>(kReqHeaderBytes + req_text.size()),
      .cksum_sum_off = 4,
      .count_off = 0,
  });
  if (!handler.ok()) {
    return handler.status();
  }

  // The filter is the port + shard atoms plus the *entire* canonical GET
  // text, byte for byte. It must be this exact: a matched ASH consumes
  // its frame, so anything that merely resembles the hot GET (bad
  // version, trailing garbage in the request line) has to miss here and
  // fall through to the shallower ring filter, where the worker's strict
  // parser answers 400. Depth is also what layers the paths: more atoms
  // than the ring filter means DPF's most-specific-match sends hot GETs
  // here and everything else below.
  aegis::FilterBindSpec spec;
  spec.filter = dpf::UdpPortFilter(config_.port);
  spec.filter.atoms.push_back(ShardAtom(shard, config_.workers));
  for (size_t i = 0; i < req_text.size(); ++i) {
    spec.filter.atoms.push_back(dpf::Atom{
        .offset = net::kUdpPayloadOff + static_cast<uint32_t>(kReqHeaderBytes + i),
        .width = 1,
        .mask = 0xff,
        .value = static_cast<uint8_t>(req_text[i]),
    });
  }
  spec.handler = std::move(*handler);
  spec.region_first_page = region->page;
  spec.region_pages = 1;
  if (config_.trace_requests) {
    // Hot-path answers never reach a worker, so the tagged kDpfMatch
    // record is the ONLY server-side event an ASH request leaves behind —
    // it is what lets the tracer classify those timelines at all.
    spec.trace_tag_off = net::kUdpPayloadOff + 1;
  }
  Result<dpf::FilterId> id = proc.kernel().SysBindFilter(std::move(spec), region->cap);
  if (!id.ok()) {
    return id.status();
  }
  ws.ash_page = region->page;
  ws.ash_bound = true;
  return Status::kOk;
}

void KvServer::WorkerMain(Process& proc, uint32_t shard) {
  WorkerState& ws = *workers_[shard];
  ++ws.stats.incarnations;
  ws.ash_bound = false;
  if (stride_) {
    stride_->Retarget(ws.stride_slot, proc.id());
  }
  // Setup failures crash the incarnation so the Supervisor retries with
  // backoff — by the next attempt a resource storm may have passed.
  auto fail = [&] {
    ++ws.stats.setup_failures;
    (void)proc.kernel().SysKillEnv(proc.id(), proc.env_cap());
  };

  // The receive path comes up FIRST: ring if configured (BindRing falls
  // back to the legacy queue when no contiguous page run exists), refined
  // to this worker's shard of the key space by the masked payload atom. Binding
  // before the (slow, journaled) storage setup means requests arriving
  // during format/preload queue in the ring instead of timing out against
  // an unbound port — exactly why Cheetah owned its own receive buffers.
  UdpSocket sock(proc, config_.iface);
  if (config_.trace_requests) {
    // Program the demux to tag this shard's kDpfMatch records with the
    // request id from the client envelope — the tracer's wire->demux join.
    sock.set_trace_tag_off(net::kUdpPayloadOff + 1);
  }
  std::vector<dpf::Atom> shard_atoms{ShardAtom(shard, config_.workers)};
  const Status bound = config_.use_rings
                           ? sock.BindRing(config_.port, config_.ring, std::move(shard_atoms))
                           : sock.Bind(config_.port, std::move(shard_atoms));
  if (bound != Status::kOk) {
    return fail();
  }

  // Shared-nothing storage: a private extent, freshly formatted. A
  // restarted incarnation starts from the preload image (version-0
  // values); the client's end-to-end check treats any acked version as
  // valid, so data loss across a crash is visible but never corrupt.
  Result<aegis::Aegis::DiskExtentGrant> extent =
      proc.kernel().SysAllocDiskExtent(kWorkerDiskBlocks);
  if (!extent.ok()) {
    return fail();
  }
  LibFs::Options fs_options;
  fs_options.cache_slots = config_.fs_cache_slots;
  fs_options.journal_blocks = config_.journal_blocks;
  Result<std::unique_ptr<LibFs>> fs = LibFs::Format(proc, *extent, fs_options);
  if (!fs.ok()) {
    return fail();
  }
  KvStore store(proc, fs->get(), config_.kv_cache_entries);
  for (const auto& [key, value] : config_.preload) {
    if (ShardOf(key, config_.workers) != shard) {
      continue;
    }
    if (store.Put(key, value) != Status::kOk) {
      return fail();
    }
  }
  if ((*fs)->Sync() != Status::kOk) {
    return fail();
  }

  if (config_.use_ash) {
    for (const std::string& key : config_.hot_keys) {
      if (ShardOf(key, config_.workers) != shard) {
        continue;
      }
      Result<const KvStore::Entry*> entry = store.Get(key);
      if (entry.ok()) {
        (void)BindHotKeyAsh(proc, ws, shard, key, (*entry)->value);
      }
    }
  }

  RevocationClient::Options rc_options;
  rc_options.fs = fs->get();
  rc_options.socket = &sock;
  rc_options.desired_slices = kWorkerSlices;
  RevocationClient rc(proc, rc_options);

  bool quit = false;
  uint32_t puts_since_sync = 0;
  // Consecutive store failures with a repair Poll between every batch: a
  // streak means the storm took pages the repair protocol could not
  // restore (dirty cache, journal), so the store can no longer be
  // trusted. Individual failures answer 503 — the client's retry path
  // re-asks once repair (or the crash-restart below) completes.
  uint32_t store_err_streak = 0;

  // Read-only degraded mode: a persistent journal-disk error (kErrIo that
  // survived BlockCache's bounded retries) means every further disk touch
  // costs eight timed-out transfers. The worker stops journaling, serves
  // GETs from the value cache (marked X-Stale), refuses PUTs with 503 +
  // Retry-After, and re-probes the disk with a Sync on a timer — when one
  // lands, journaling resumes. Deliberately NOT the crash path: restarting
  // cannot fix a broken disk, but stale reads keep the shard useful.
  bool degraded = false;
  uint64_t next_probe = 0;
  auto enter_degraded = [&] {
    if (degraded) {
      return;
    }
    degraded = true;
    ++ws.stats.degraded_entries;
    next_probe = proc.machine().clock().now() + kDegradedProbeCycles;
  };
  auto probe_degraded = [&] {
    if (!degraded) {
      return;
    }
    const uint64_t now = proc.machine().clock().now();
    if (now < next_probe) {
      return;
    }
    if ((*fs)->Sync() == Status::kOk) {
      degraded = false;
      ++ws.stats.degraded_exits;
      ++ws.stats.syncs;
      puts_since_sync = 0;
      store_err_streak = 0;
    } else {
      next_probe = proc.machine().clock().now() + kDegradedProbeCycles;
    }
  };

  // Fail-fast rescue of a down sibling's shard: while a shard's worker is
  // down (crash-looping in backoff, or failed for good) a live sibling
  // binds a shallower catch-all filter and answers that shard's traffic
  // 503 + Retry-After instead of letting it time out in the
  // demultiplexer. The 503 builder also serves the admission paths.
  UdpSocket rescue_sock(proc, config_.iface);
  if (config_.trace_requests) {
    rescue_sock.set_trace_tag_off(net::kUdpPayloadOff + 1);
  }
  bool rescuing = false;
  auto answer_503 = [&](UdpSocket& via, const Datagram& d, std::string_view why) {
    const uint32_t rid = net::GetBe32(d.payload, 1);
    ResponseOptions opts;
    opts.retry_after_us = config_.retry_after_us;
    const std::string text = BuildHttpResponse(503, why, BodySum(why), opts);
    proc.machine().Charge(BuildCost(text.size()));
    std::vector<uint8_t> resp(kRespHeaderBytes + text.size());
    net::PutBe32(resp, 0, rid);
    std::copy(text.begin(), text.end(), resp.begin() + kRespHeaderBytes);
    if (via.SendTo(d.src_ip, d.src_port, resp) != Status::kOk) {
      ++ws.stats.send_errors;
    }
  };
  auto rescue_poll = [&] {
    if (!rescuing && !quit && steer_.orphans > 0 && !steer_.rescue_claimed) {
      // Cooperative fibers: no window between the check and the claim.
      // The catch-all is one atom *shallower* than every worker's shard
      // filter, so DPF's most-specific-match policy hands it exactly the
      // orphaned shards' frames — and a respawned worker's deeper filter
      // reclaims its shard the instant it rebinds, with no unbind race.
      if (rescue_sock.Bind(config_.port, {}) == Status::kOk) {
        steer_.rescue_claimed = true;
        steer_.rescuer = static_cast<int>(shard);
        rescuing = true;
      }
    } else if (rescuing && (steer_.orphans == 0 || quit)) {
      (void)rescue_sock.Close();
      steer_.rescue_claimed = false;
      steer_.rescuer = -1;
      rescuing = false;
    }
    if (!rescuing) {
      return;
    }
    // Fail fast: an immediate 503 + Retry-After beats letting the client
    // burn its full RTO discovering the shard is down.
    for (;;) {
      Result<Datagram> d = rescue_sock.Recv(/*blocking=*/false);
      if (!d.ok()) {
        break;
      }
      if (d->payload.size() < kReqHeaderBytes) {
        ++ws.stats.drops;
        continue;
      }
      answer_503(rescue_sock, *d, "shard-down");
      ++ws.stats.rescued_503;
    }
  };

  auto handle = [&](const Datagram& dgram, uint32_t depth) {
    if (dgram.payload.size() < kReqHeaderBytes) {
      ++ws.stats.drops;  // No envelope: nothing to even echo an id into.
      return;
    }
    const uint32_t req_id = net::GetBe32(dgram.payload, 1);
    ++ws.stats.requests;
    // Deadline shed comes before the trace mark, the parse, everything:
    // the sender has already given up, so any cycle spent past this line
    // is pure waste under overload.
    proc.machine().Charge(Instr(8));  // Envelope decode + admission checks.
    const uint64_t deadline = RequestDeadline(dgram.payload);
    if (config_.honor_ttl && deadline != 0 &&
        proc.machine().clock().now() > deadline) {
      ++ws.stats.expired;
      return;
    }
    // Request marks are the tracer's join points; a mark the kernel
    // refused is an attribution gap, so failures are counted, not
    // discarded (WorkerStats::trace_mark_failures).
    auto mark = [&](uint32_t phase, uint32_t a2, uint32_t a3) {
      if (proc.kernel().SysTraceMark(req_id, phase, a2, a3) != Status::kOk) {
        ++ws.stats.trace_mark_failures;
      }
    };
    if (config_.trace_requests) {
      mark(reqtrace::kPhaseEnter, shard, static_cast<uint32_t>(dgram.payload.size()));
    }
    int status = 400;
    uint32_t cls = 0;  // reqtrace::kFlag* request-class bits for the exit mark.
    std::string body;
    uint16_t sum = 0;
    bool have_sum = false;
    ResponseOptions opts;
    const bool admitted =
        config_.admission_max_batch == 0 || depth < config_.admission_max_batch;
    if (!admitted) {
      // Queue-depth admission: the backlog is already past the point
      // where serving it helps anyone. 503 before paying the parse.
      status = 503;
      body = "busy";
      opts.retry_after_us = config_.retry_after_us;
      ++ws.stats.shed_busy;
    } else {
      const std::span<const uint8_t> text(dgram.payload.data() + kReqHeaderBytes,
                                          dgram.payload.size() - kReqHeaderBytes);
      proc.machine().Charge(ParseCost(text.size()));
      HttpRequest req;
      const ParseError err = ParseHttpRequest(text, &req);
      if (config_.trace_requests) {
        mark(reqtrace::kPhaseStage, reqtrace::kStageParsed, depth);
      }
      if (err != ParseError::kOk) {
        body = ParseErrorName(err);
        ++ws.stats.bad_requests;
      } else {
        switch (req.method) {
          case Method::kQuit:
            status = 200;
            body = "bye";
            if (!quit) {  // A retransmission answered in the exit grace.
              ++ws.stats.quits;
            }
            quit = true;
            break;
          case Method::kGet: {
            ++ws.stats.gets;
            if (std::find(config_.hot_keys.begin(), config_.hot_keys.end(),
                          req.key) != config_.hot_keys.end()) {
              // Hot-list GETs that miss the ASH (or run without one) are
              // still the hot class — tail comparisons need both sides.
              cls |= reqtrace::kFlagHot;
            }
            if (degraded) {
              // Read-only mode: cache or bust — never pay the failing
              // disk's retry latency on the request path.
              Result<const KvStore::Entry*> entry = store.GetCached(req.key);
              if (entry.ok()) {
                status = 200;
                body = (*entry)->value;
                sum = (*entry)->sum;
                have_sum = true;
                opts.stale = true;
                ++ws.stats.stale_serves;
              } else {
                // The key may well exist on the platter we cannot read:
                // 503 (come back later), not 404 (doesn't exist).
                status = 503;
                body = "degraded";
                opts.retry_after_us = config_.retry_after_us;
              }
              break;
            }
            Result<const KvStore::Entry*> entry = store.Get(req.key);
            if (entry.ok()) {
              status = 200;
              body = (*entry)->value;
              sum = (*entry)->sum;  // Precomputed at PUT — never per GET.
              have_sum = true;
              store_err_streak = 0;
            } else if (entry.status() == Status::kErrNotFound) {
              status = 404;
              ++ws.stats.not_found;
              store_err_streak = 0;
            } else if (entry.status() == Status::kErrIo) {
              enter_degraded();
              status = 503;
              body = "degraded";
              opts.retry_after_us = config_.retry_after_us;
              ++ws.stats.store_errors;
            } else {
              status = 503;
              body = "store-error";
              ++ws.stats.store_errors;
              ++store_err_streak;
            }
            break;
          }
          case Method::kPut: {
            ++ws.stats.puts;
            cls |= reqtrace::kFlagPut;
            if (degraded) {
              status = 503;
              body = "read-only";
              opts.retry_after_us = config_.retry_after_us;
              ++ws.stats.shed_writes;
              break;
            }
            if (config_.admission_write_shed != 0 &&
                depth >= config_.admission_write_shed) {
              // Writes shed before reads: a PUT costs a journal append
              // plus its share of the next Sync; under pressure the
              // cheap GETs are the goodput worth protecting.
              status = 503;
              body = "write-shed";
              opts.retry_after_us = config_.retry_after_us;
              ++ws.stats.shed_writes;
              break;
            }
            const Status put = store.Put(req.key, req.body);
            if (put == Status::kOk) {
              status = 201;
              ++puts_since_sync;
              store_err_streak = 0;
            } else if (put == Status::kErrIo) {
              enter_degraded();
              status = 503;
              body = "read-only";
              opts.retry_after_us = config_.retry_after_us;
              ++ws.stats.shed_writes;
            } else {
              status = 503;
              body = "put-failed";
              ++ws.stats.store_errors;
              ++store_err_streak;
            }
            break;
          }
        }
      }
      if (config_.trace_requests) {
        // Stage boundary: storage work (KV/journal, incl. disk waits) is
        // done; everything from here to the exit mark is response build +
        // TX. Shed (!admitted) requests skip both stage marks and their
        // whole service time telescopes into the tx span.
        mark(reqtrace::kPhaseStage, reqtrace::kStageStored, depth);
      }
    }
    const std::string resp_text =
        BuildHttpResponse(status, body, have_sum ? sum : BodySum(body), opts);
    proc.machine().Charge(BuildCost(resp_text.size()));
    std::vector<uint8_t> resp(kRespHeaderBytes + resp_text.size());
    net::PutBe32(resp, 0, req_id);
    std::copy(resp_text.begin(), resp_text.end(), resp.begin() + kRespHeaderBytes);
    if (sock.QueueTo(dgram.src_ip, dgram.src_port, resp) != Status::kOk) {
      ++ws.stats.send_errors;
    }
    if (config_.trace_requests) {
      if (opts.stale) {
        cls |= reqtrace::kFlagStale;
      }
      mark(reqtrace::kPhaseExit, static_cast<uint32_t>(status),
           (static_cast<uint32_t>(resp.size()) & 0xffffu) | cls);
    }
  };

  uint32_t recv_errors = 0;
  while (!quit) {
    rescue_poll();
    probe_degraded();
    // Rescue duty and degraded probing both need the loop to keep turning
    // without traffic on the main socket: one wake-or-deadline wait per
    // turn instead of a blocking Recv. The rescue socket's queue binding
    // wakes this env too, and the deadline is the next degraded probe.
    const bool block = !rescuing && !degraded;
    Result<Datagram> first = sock.Recv(block);
    if (!first.ok()) {
      if (!block && first.status() == Status::kErrWouldBlock &&
          sock.Wait(degraded ? next_probe : UdpSocket::kNoDeadline) != Status::kErrRevoked) {
        continue;  // Woken, or the probe is due: take another turn.
      }
      // A revoked binding surfaces here; Poll repairs it. A worker that
      // cannot be repaired crashes into the Supervisor's restart path
      // rather than spinning forever.
      (void)rc.Poll();
      if (block && ++recv_errors > 64) {
        return fail();
      }
      proc.kernel().SysSleep(1'000);
      continue;
    }
    recv_errors = 0;
    ++ws.stats.batches;
    // Drain-batch: process everything already delivered, then ring the
    // TX doorbell once for the whole batch. `depth` is the admission
    // controller's queue-length signal — how deep into the backlog this
    // request sat when the worker got to it.
    uint32_t depth = 0;
    Datagram dgram = std::move(*first);
    for (;;) {
      handle(dgram, depth++);
      Result<Datagram> next = sock.Recv(/*blocking=*/false);
      if (!next.ok()) {
        break;
      }
      dgram = std::move(*next);
    }
    (void)sock.FlushTx();
    (void)rc.Poll();
    if (store_err_streak > 16) {
      ++ws.stats.store_crashes;
      (void)proc.kernel().SysKillEnv(proc.id(), proc.env_cap());
      return;
    }
    if (!degraded && puts_since_sync >= config_.sync_every_puts) {
      const Status synced = (*fs)->Sync();
      if (synced == Status::kOk) {
        ++ws.stats.syncs;
      } else if (synced == Status::kErrIo) {
        enter_degraded();
      }
      puts_since_sync = 0;
    }
  }
  if (rescuing) {
    (void)rescue_sock.Close();
    steer_.rescue_claimed = false;
    steer_.rescuer = -1;
  }
  // Two-generals tail: the reply to the QUIT can be lost like any frame,
  // and a client that never hears it retransmits the QUIT to a shard that
  // nobody serves any more. Keep answering for a grace period first; a
  // degraded worker keeps probing its disk on the same timer meanwhile.
  const uint64_t grace_end = proc.machine().clock().now() + kQuitGraceCycles;
  for (;;) {
    probe_degraded();
    Result<Datagram> dgram = sock.Recv(/*blocking=*/false);
    if (dgram.ok()) {
      handle(*dgram, 0);
      (void)sock.FlushTx();
      continue;
    }
    if (dgram.status() != Status::kErrWouldBlock) {
      break;
    }
    const uint64_t wake_at = degraded ? std::min(next_probe, grace_end) : grace_end;
    if (!sock.WaitOrSleep(wake_at) && wake_at == grace_end) {
      break;
    }
  }

  // Clean exit: snapshot what the host reads after the run. A clean exit
  // retains the environment's pages, but the snapshot keeps AshHits()
  // correct across restarts (each incarnation's counter starts at zero).
  if (ws.ash_bound) {
    ws.stats.ash_hits += ReadAshCounter(ws.ash_page);
    ws.ash_bound = false;
  }
  (void)(*fs)->Sync();
  ws.stats.store = store.stats();
  ws.stats.done = true;
  (void)sock.Close();
}

}  // namespace xok::exos::server
