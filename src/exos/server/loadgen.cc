#include "src/exos/server/loadgen.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_map>

#include "src/exos/revocation.h"
#include "src/exos/tracelib.h"
#include "src/net/wire.h"


namespace xok::exos::server {

namespace {

enum class Kind : uint8_t { kGet, kPut, kMalformed, kOversized, kQuit };

// Readiness probes take ids from a range data requests never reach, so a
// probe's late duplicate reply is recognisable as one even by a later
// RunLoadGen on the same port (whose data ids restart at 1).
constexpr uint32_t kProbeIdBase = 0xfff00000u;
constexpr uint64_t kWarmupProbeCycles = 1'000'000;  // Probe retransmit interval.

struct Pending {
  Kind kind = Kind::kGet;
  int key_index = -1;
  int expect_status = 200;
  bool is_hot = false;
  uint32_t retries = 0;
  uint64_t first_send = 0;
  uint64_t last_send = 0;
  uint64_t deadline = 0;       // Absolute TTL (0 = none); also in payload.
  uint64_t backoff = 0;        // Next retransmit wait before jitter.
  uint64_t next_retry_at = 0;  // Earliest retransmit cycle.
  uint64_t not_before = 0;     // Retry-After pacing floor from a 503.
  std::vector<uint8_t> payload;  // Kept verbatim for retransmission.
};

// Garbage HTTP text variants for the malformed arm: every one has a valid
// envelope (so it reaches a worker) and must be answered 400 — none may
// ever equal a canonical request, and none may crash the parser.
std::string MalformedText(SplitMix64& rng, std::string_view key) {
  switch (rng.NextBelow(8)) {
    case 0: return "get /" + std::string(key) + " HTTP/1.0\r\n\r\n";   // Lowercase method.
    case 1: return "GET " + std::string(key) + " HTTP/1.0\r\n\r\n";    // No leading '/'.
    case 2: return "GET /" + std::string(key) + " HTTP/1.1\r\n\r\n";   // Wrong version.
    case 3: return "GET /" + std::string(key) + " HTTP/1.0\r\njunk\r\n\r\n";  // No ':' header.
    case 4: return "PUT /" + std::string(key) + " HTTP/1.0\r\n\r\nbody";      // No length.
    case 5: return "PUT /" + std::string(key) +
                   " HTTP/1.0\r\nContent-Length: 9999\r\n\r\nshort";   // Oversized length.
    case 6: return "GET /" + std::string(key) + " HTTP/1.0\r\nX: 1\r\n";  // No blank line.
    default: {
      std::string junk(24, '\0');
      for (char& c : junk) {
        c = static_cast<char>(1 + rng.NextBelow(255));  // Binary noise.
      }
      return junk;
    }
  }
}

// Pad byte i of the image for (key hash h, version) is
// 'a' + (h + version + i) % 26, with h + version wrapping at 32 bits.
uint32_t PadLetter(uint32_t h, uint32_t version, size_t i) {
  return static_cast<uint32_t>((static_cast<uint64_t>(h + version) + i) % 26);
}

}  // namespace

std::string LoadKeyName(uint32_t i) {
  // "k%03u": the index zero-padded to at least three digits.
  char digits[10];
  char* const end = std::to_chars(digits, digits + sizeof(digits), i).ptr;
  const size_t n = static_cast<size_t>(end - digits);
  std::string name(1 + std::max<size_t>(n, 3), '0');
  name[0] = 'k';
  std::copy(digits, end, name.end() - static_cast<ptrdiff_t>(n));
  return name;
}

ZipfKeys::ZipfKeys(uint32_t keys, double s) : cdf_(keys, 0.0) {
  double total_weight = 0.0;
  for (uint32_t i = 0; i < keys; ++i) {
    total_weight += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total_weight;
  }
  for (double& c : cdf_) {
    c /= total_weight;
  }
}

uint32_t ZipfKeys::Draw(SplitMix64& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
  return static_cast<uint32_t>(
      std::min<ptrdiff_t>(it - cdf_.begin(), static_cast<ptrdiff_t>(cdf_.size()) - 1));
}

std::string MakeValue(std::string_view key, uint32_t version, uint32_t value_bytes) {
  char digits[10];
  char* const digits_end = std::to_chars(digits, digits + sizeof(digits), version).ptr;
  const size_t head = key.size() + 2 + static_cast<size_t>(digits_end - digits);
  std::string value(std::max<size_t>(head, value_bytes), '#');
  char* out = std::copy(key.begin(), key.end(), value.data()) + 1;
  out = std::copy(digits, digits_end, out) + 1;
  uint32_t letter = PadLetter(KeyHash(key), version, head);
  for (char* const end = value.data() + value.size(); out != end; ++out) {
    *out = static_cast<char>('a' + letter);
    letter = letter == 25 ? 0 : letter + 1;
  }
  return value;
}

int ParseValueVersion(std::string_view key, std::string_view body, uint32_t value_bytes) {
  const size_t prefix = key.size() + 1;
  if (body.size() < prefix + 2 || body.substr(0, key.size()) != key || body[key.size()] != '#') {
    return -1;
  }
  const size_t end = body.find('#', prefix);
  if (end == std::string_view::npos || end == prefix || end - prefix > 9) {
    return -1;
  }
  if (body[prefix] == '0' && end - prefix > 1) {
    return -1;  // MakeValue never writes a leading zero.
  }
  uint32_t version = 0;
  for (size_t i = prefix; i < end; ++i) {
    if (body[i] < '0' || body[i] > '9') {
      return -1;
    }
    version = version * 10 + static_cast<uint32_t>(body[i] - '0');
  }
  // Every other byte must match the canonical image, padding included.
  if (body.size() != std::max<size_t>(end + 1, value_bytes)) {
    return -1;
  }
  uint32_t letter = PadLetter(KeyHash(key), version, end + 1);
  for (size_t i = end + 1; i < body.size(); ++i) {
    if (body[i] != static_cast<char>('a' + letter)) {
      return -1;
    }
    letter = letter == 25 ? 0 : letter + 1;
  }
  return static_cast<int>(version);
}

std::vector<std::pair<std::string, std::string>> MakePreload(uint32_t keys,
                                                             uint32_t value_bytes) {
  std::vector<std::pair<std::string, std::string>> preload;
  for (uint32_t i = 0; i < keys; ++i) {
    const std::string key = LoadKeyName(i);
    preload.emplace_back(key, MakeValue(key, 0, value_bytes));
  }
  return preload;
}

LatencySummary SummarizeLatencies(std::vector<uint64_t> samples) {
  LatencySummary summary;
  if (samples.empty()) {
    return summary;
  }
  std::sort(samples.begin(), samples.end());
  summary.count = samples.size();
  // Nearest-rank percentiles. A p99 needs a tail to stand on: below 100
  // samples the 99th and 99.9th ranks both degenerate to the max, so they
  // report 0 with the flag raised instead of a masquerading maximum.
  summary.p50 = reqtrace::Percentile(samples, 500);
  if (samples.size() >= 100) {
    summary.p99 = reqtrace::Percentile(samples, 990);
    summary.p999 = reqtrace::Percentile(samples, 999);
  } else {
    summary.samples_insufficient = true;
  }
  summary.max = samples.back();
  double total = 0;
  for (uint64_t s : samples) {
    total += static_cast<double>(s);
  }
  summary.mean = total / static_cast<double>(samples.size());
  return summary;
}

double LoadStats::Rps() const {
  if (elapsed_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(acked) * static_cast<double>(hw::kClockHz) /
         static_cast<double>(elapsed_cycles);
}

LoadStats RunLoadGen(Process& proc, const LoadGenTarget& target,
                     const WorkloadConfig& config) {
  LoadStats stats;
  // The stream is a pure function of the seed, so a failing chaos seed
  // replays exactly (print the seed, rerun with XOK_CHAOS_SEEDS).
  SplitMix64 rng(config.seed);
  const ZipfKeys zipf(config.keys, config.zipf_s);

  const std::string hot_key = target.hot_key.empty() ? LoadKeyName(0) : target.hot_key;
  std::vector<std::string> key_names(config.keys);
  for (uint32_t i = 0; i < config.keys; ++i) {
    key_names[i] = LoadKeyName(i);
  }

  UdpSocket sock(proc, target.iface);
  Status bound = sock.BindRing(config.client_port, config.ring);
  if (bound != Status::kOk) {
    bound = sock.Bind(config.client_port);
  }
  if (bound != Status::kOk) {
    stats.unexpected = ~0ull;  // Could not even bind; poison the stats.
    return stats;
  }

  std::optional<RevocationClient> rc;
  if (config.repair) {
    RevocationClient::Options rc_options;
    rc_options.socket = &sock;
    rc.emplace(proc, rc_options);
  }
  auto repair = [&] {
    if (rc) {
      (void)rc->Poll();
    }
  };

  std::optional<TraceSession> trace;
  if (config.trace) {
    trace.emplace(proc);
    TraceConfig trace_config;
    trace_config.pages = 8;
    trace_config.mask = xtrace::Bit(xtrace::Event::kDpfMatch) |
                        xtrace::Bit(xtrace::Event::kAppMark) |
                        xtrace::Bit(xtrace::Event::kDiskSubmit) |
                        xtrace::Bit(xtrace::Event::kDiskComplete);
    if (trace->Bind(trace_config) != Status::kOk) {
      trace.reset();
    }
  }
  std::vector<uint64_t> service_samples;
  std::unordered_map<uint32_t, uint64_t> service_enter;
  auto drain_trace = [&] {
    if (!trace) {
      return;
    }
    for (;;) {
      Result<xtrace::Record> record = trace->Next();
      if (!record.ok()) {
        break;
      }
      stats.trace_records.push_back(*record);  // For reqtrace assembly.
      const auto type = static_cast<xtrace::Event>(record->type);
      if (type == xtrace::Event::kDpfMatch) {
        // The client's own filter also logs matches (the replies coming
        // back); only count the server-side demux decisions.
        if (sock.filter_id().has_value() && record->arg0 == *sock.filter_id()) {
          continue;
        }
        if (record->arg2 == 0) {
          ++stats.stages.path_queue;
        } else if (record->arg2 == 1) {
          ++stats.stages.path_ring;
        } else {
          ++stats.stages.path_ash;
        }
      } else if (type == xtrace::Event::kAppMark) {
        if (record->arg1 == reqtrace::kPhaseEnter) {
          service_enter[record->arg0] = record->cycle;
        } else if (record->arg1 == reqtrace::kPhaseExit) {
          auto it = service_enter.find(record->arg0);
          if (it != service_enter.end()) {
            service_samples.push_back(record->cycle - it->second);
            service_enter.erase(it);
          }
        }
      }
    }
  };

  // Per-key highest version this client ever wrote (0 = the preload).
  std::vector<uint32_t> latest_version(config.keys, 0);

  std::unordered_map<uint32_t, Pending> outstanding;
  // Answered or TTL-abandoned requests, indexed by id: data and QUIT ids
  // run densely from 1 (probe ids are recognised by their range instead).
  std::vector<bool> done_ids;
  auto mark_done = [&](uint32_t id) {
    if (id >= done_ids.size()) {
      done_ids.resize(id + 1);
    }
    done_ids[id] = true;
  };
  std::vector<uint64_t> latencies;
  std::vector<uint64_t> hot_latencies;
  // (req id, first-send -> ack) per acked data request: the SLO ledger
  // and the join key into reqtrace timelines for late-request attribution.
  std::vector<std::pair<uint32_t, uint64_t>> acked_rtts;
  // Sized once for every data request. Grown by doubling, they raised the
  // host heap's high-water mark past what malloc keeps after a free, so
  // each run gave ~60 KB back to the host and faulted it in again.
  latencies.reserve(config.requests);
  acked_rtts.reserve(config.requests);

  uint32_t next_id = 1;
  uint32_t data_sent = 0;
  uint32_t in_burst = 0;
  bool quits_queued = false;
  const uint64_t run_start = proc.kernel().SysGetCycles();
  // First cycle past the whole-run fail-safe (the checks below fire on >).
  const uint64_t run_deadline = run_start + config.deadline_cycles + 1;
  uint64_t data_phase_end = 0;
  uint64_t next_send_at = 0;  // Open-loop pacing cursor (set post-warmup).

  auto transmit = [&](const std::vector<uint8_t>& payload) {
    if (sock.ring_bound()) {
      if (sock.QueueTo(target.server_ip, target.server_port, payload) != Status::kOk) {
        (void)sock.SendTo(target.server_ip, target.server_port, payload);
      }
    } else {
      (void)sock.SendTo(target.server_ip, target.server_port, payload);
    }
  };
  auto flush = [&] {
    if (sock.ring_bound()) {
      (void)sock.FlushTx();
    }
  };

  // Jitter draws come off their own stream so turning them on (or a
  // different retry history) never perturbs which requests the workload
  // sends — the data stream stays a pure function of the seed.
  SplitMix64 retry_rng(config.seed ^ 0x7265747279ull);  // "retry"
  auto retry_wait = [&](Pending& pending) {
    uint64_t wait = pending.backoff;
    // QUITs never back off: one per shard is no load, and a worker that
    // already quit answers retransmissions only for kQuitGraceCycles.
    if (config.retry_backoff_cap_cycles > 0 && pending.kind != Kind::kQuit) {
      pending.backoff = std::min(pending.backoff * 2, config.retry_backoff_cap_cycles);
    }
    if (config.retry_jitter && wait >= 2) {
      const uint64_t half = wait / 2;
      wait = half + retry_rng.Next() % (wait - half + 1);
    }
    return wait;
  };

  auto send_new = [&](Pending pending) {
    const uint32_t id = next_id++;
    pending.first_send = pending.last_send = proc.kernel().SysGetCycles();
    pending.backoff = pending.kind == Kind::kQuit
                          ? std::min(config.retry_timeout_cycles, kQuitGraceCycles / 4)
                          : config.retry_timeout_cycles;
    pending.next_retry_at = pending.first_send + retry_wait(pending);
    if ((trace || config.mark_requests) && pending.kind != Kind::kQuit) {
      // First-send boundary of this request's critical-path timeline
      // (retransmits deliberately unmarked: the timeline measures the
      // request, not each copy of it).
      (void)proc.kernel().SysTraceMark(id, reqtrace::kPhaseClientSend, 0, 0);
    }
    transmit(pending.payload);
    outstanding.emplace(id, std::move(pending));
    ++stats.sent;
  };

  auto make_data_request = [&](uint32_t id) {
    Pending pending;
    if (config.request_ttl_cycles > 0) {
      pending.deadline = proc.kernel().SysGetCycles() + config.request_ttl_cycles;
    }
    const uint64_t ttl = pending.deadline;  // Into the envelope (0 = none).
    const auto draw = static_cast<uint32_t>(rng.NextBelow(1000));
    const uint32_t key_index = zipf.Draw(rng);
    const std::string& key = key_names[key_index];
    if (draw < config.malformed_per_mille) {
      pending.kind = Kind::kMalformed;
      pending.expect_status = 400;
      pending.payload = BuildRequestPayload(id, MalformedText(rng, key), key, -1, ttl);
    } else if (draw < config.malformed_per_mille + config.oversized_per_mille) {
      pending.kind = Kind::kOversized;
      pending.expect_status = 400;
      const std::string big_key(kMaxKeyBytes + 13, 'x');
      pending.payload = BuildRequestPayload(id, BuildGetRequest(big_key), big_key, -1, ttl);
    } else if (draw <
               config.malformed_per_mille + config.oversized_per_mille + config.put_per_mille) {
      pending.kind = Kind::kPut;
      pending.key_index = static_cast<int>(key_index);
      pending.expect_status = 201;
      const uint32_t version = ++latest_version[key_index];
      pending.payload = BuildRequestPayload(
          id, BuildPutRequest(key, MakeValue(key, version, config.value_bytes)), key, -1, ttl);
    } else {
      pending.kind = Kind::kGet;
      pending.key_index = static_cast<int>(key_index);
      pending.expect_status = 200;
      pending.is_hot = key == hot_key;
      pending.payload = BuildRequestPayload(id, BuildGetRequest(key), key, -1, ttl);
    }
    return pending;
  };

  // Readiness warm-up: a booting worker (journaled format + preload) is
  // tens of millions of cycles away from serving; probe each shard with a
  // GET for a key that cannot exist (any parseable reply — 404 — counts as
  // ready) so the measured data phase and its retry budget start against a
  // live service. Late duplicate replies to retransmitted probes are
  // classified as dup_acks (kProbeIdBase), not "unexpected".
  if (config.warmup) {
    for (uint32_t shard = 0; shard < target.workers; ++shard) {
      const uint32_t id = kProbeIdBase + shard;
      const auto probe = BuildRequestPayload(
          id, BuildGetRequest("__warmup__"), "__warmup__", static_cast<int>(shard));
      uint64_t last_probe = 0;
      bool ready = false;
      while (!ready) {
        const uint64_t now = proc.kernel().SysGetCycles();
        if (now - run_start > config.deadline_cycles) {
          stats.deadline_hit = 1;
          stats.warmup_cycles = now - run_start;
          (void)sock.Close();
          return stats;
        }
        if (last_probe == 0 || now - last_probe >= kWarmupProbeCycles) {
          transmit(probe);
          flush();
          last_probe = now;
        }
        for (;;) {
          Result<Datagram> reply = sock.Recv(/*blocking=*/false);
          if (!reply.ok()) {
            break;
          }
          HttpResponseView view;
          if (ParseResponsePayload(reply->payload, &view) && view.req_id == id) {
            ready = true;
          }
        }
        if (!ready) {
          repair();
          (void)sock.WaitOrSleep(std::min(last_probe + kWarmupProbeCycles, run_deadline));
        }
      }
    }
  }

  // Warmup is unmeasured; its trace records (probe timelines riding the
  // server's multi-megacycle boot) would otherwise pollute the data-phase
  // stage percentiles, so drain and discard them before the clock starts.
  // The legacy path counters keep their whole-run semantics.
  drain_trace();
  stats.trace_records.clear();

  const uint64_t start = proc.kernel().SysGetCycles();
  stats.warmup_cycles = start - run_start;
  next_send_at = start;

  for (;;) {
    const uint64_t now = proc.kernel().SysGetCycles();
    if (now - run_start > config.deadline_cycles) {
      stats.deadline_hit = 1;
      break;
    }

    // Fill: open-loop pacing (arrivals indifferent to server state) or
    // the closed-loop window.
    bool queued = false;
    // Whether this iteration changed anything (sent, received, resent,
    // abandoned). Only an iteration that changed nothing may wait: a
    // change can make a duty due at once — the sweep abandoning the last
    // outstanding request leaves the QUITs to queue on the next pass, and
    // with nothing left in flight no timer would ever wake the loop.
    bool changed = false;
    if (config.open_loop_interval_cycles > 0) {
      while (data_sent < config.requests &&
             proc.kernel().SysGetCycles() >= next_send_at) {
        Pending pending = make_data_request(next_id);
        send_new(std::move(pending));
        ++data_sent;
        next_send_at += config.open_loop_interval_cycles;
        queued = true;
        changed = true;
      }
    } else {
      while (outstanding.size() < config.window && data_sent < config.requests) {
        // next_id is consumed inside send_new; build against its value.
        Pending pending = make_data_request(next_id);
        send_new(std::move(pending));
        ++data_sent;
        queued = true;
        changed = true;
        if (config.burst > 0 && ++in_burst >= config.burst) {
          in_burst = 0;
          flush();
          queued = false;
          if (config.burst_gap_cycles > 0) {
            proc.kernel().SysSleep(config.burst_gap_cycles);
          }
        }
      }
    }
    if (queued) {
      flush();
    }

    // Data phase complete: timestamp it once, then queue the QUITs.
    if (data_sent == config.requests && outstanding.empty() && !quits_queued) {
      if (data_phase_end == 0) {
        data_phase_end = proc.kernel().SysGetCycles();
      }
      quits_queued = true;
      if (config.quit_when_done) {
        for (uint32_t shard = 0; shard < target.workers; ++shard) {
          Pending pending;
          pending.kind = Kind::kQuit;
          pending.expect_status = 200;
          pending.payload = BuildRequestPayload(next_id, BuildQuitRequest(), "",
                                                static_cast<int>(shard));
          send_new(std::move(pending));
        }
        flush();
      }
    }
    if (quits_queued && outstanding.empty()) {
      break;
    }

    // Collect replies.
    for (;;) {
      Result<Datagram> reply = sock.Recv(/*blocking=*/false);
      if (!reply.ok()) {
        break;
      }
      changed = true;
      HttpResponseView view;
      if (!ParseResponsePayload(reply->payload, &view)) {
        ++stats.unexpected;
        continue;
      }
      auto it = outstanding.find(view.req_id);
      if (it == outstanding.end()) {
        if ((view.req_id < done_ids.size() && done_ids[view.req_id]) ||
            view.req_id >= kProbeIdBase) {
          ++stats.dup_acks;  // Second answer to a retried request.
        } else {
          ++stats.unexpected;
        }
        continue;
      }
      Pending& pending = it->second;
      if (view.status == 503) {
        // Transient server-side refusal (overload shed, degraded write,
        // revoked store page): not an ack. Leave it outstanding — the
        // retry path re-asks, paced by the server's Retry-After hint
        // when it sent one.
        ++stats.busy_503;
        if (view.retry_after_us > 0) {
          ++stats.retry_after;
          pending.not_before = proc.kernel().SysGetCycles() +
                               view.retry_after_us * (hw::kClockHz / 1'000'000);
        }
        continue;
      }
      ++stats.acked;
      if (view.stale) {
        ++stats.stale_200;  // Degraded-mode cache read; body still verified.
      }
      if ((trace || config.mark_requests) && pending.kind != Kind::kQuit) {
        // Ack boundary, marked BEFORE the rtt clock read below so the
        // timeline's covered total can never exceed the latency it is
        // attributed against.
        (void)proc.kernel().SysTraceMark(view.req_id, reqtrace::kPhaseClientAck,
                                         static_cast<uint32_t>(view.status), 0);
      }
      const uint64_t rtt = proc.kernel().SysGetCycles() - pending.first_send;
      if (pending.kind != Kind::kQuit) {
        latencies.push_back(rtt);
        if (pending.is_hot) {
          hot_latencies.push_back(rtt);
        }
        acked_rtts.emplace_back(view.req_id, rtt);
      }
      switch (view.status) {
        case 200: ++stats.ok_200; break;
        case 201: ++stats.created_201; break;
        case 400: ++stats.bad_400; break;
        case 404: ++stats.not_found_404; break;
        default: break;
      }
      if (view.status != pending.expect_status) {
        ++stats.unexpected;
      }
      if (pending.kind == Kind::kGet && view.status == 200) {
        // End-to-end verification: checksum, then the body must be an
        // exact value image at a version we actually wrote (older acked
        // versions are legal after a worker restart; anything else is
        // corruption).
        const int version = view.sum_ok
                                ? ParseValueVersion(key_names[pending.key_index], view.body,
                                                    config.value_bytes)
                                : -1;
        if (version < 0 ||
            static_cast<uint32_t>(version) > latest_version[pending.key_index]) {
          ++stats.corrupt;
        }
      }
      mark_done(view.req_id);
      outstanding.erase(it);
    }
    drain_trace();

    // Retransmit / abandon sweep. Runs every iteration (not just idle
    // ones) so TTL abandons fire on time even while other shards keep the
    // reply stream busy. It also finds the earliest cycle at which any
    // survivor next needs the loop: TTL expiry or retransmit (whichever
    // of retry timer and Retry-After floor is later).
    uint64_t wake_at = run_deadline;
    if (config.open_loop_interval_cycles > 0 && data_sent < config.requests) {
      wake_at = std::min(wake_at, next_send_at);
    }
    {
      std::vector<uint32_t> abandoned;
      std::vector<uint32_t> expired;
      const uint64_t check = proc.kernel().SysGetCycles();
      bool resent = false;
      for (auto& [id, pending] : outstanding) {
        if (pending.deadline != 0 && check > pending.deadline) {
          // The server sheds this id on sight now; retrying buys nothing.
          expired.push_back(id);
          continue;
        }
        if (check >= pending.next_retry_at && check >= pending.not_before) {
          if (pending.retries >= config.max_retries) {
            abandoned.push_back(id);
            continue;
          }
          ++pending.retries;
          ++stats.retries;
          pending.last_send = check;
          pending.next_retry_at = check + retry_wait(pending);
          transmit(pending.payload);
          resent = true;
        }
        wake_at = std::min(wake_at, std::max(pending.next_retry_at, pending.not_before));
        if (pending.deadline != 0) {
          wake_at = std::min(wake_at, pending.deadline + 1);
        }
      }
      if (resent) {
        flush();
      }
      changed = changed || resent || !abandoned.empty() || !expired.empty();
      for (uint32_t id : abandoned) {
        outstanding.erase(id);
        ++stats.gave_up;
      }
      for (uint32_t id : expired) {
        outstanding.erase(id);
        ++stats.ttl_abandoned;
        mark_done(id);  // A late answer is a dup, not "unexpected".
      }
    }

    // The loop's only wait: sleep until a reply rings the socket's doorbell
    // or `wake_at` (the loop's next timed duty) arrives. A socket whose
    // binding is revoked cannot ring; repair() has tried to rebind it, and
    // the wait degrades to the timer alone until a rebind succeeds.
    if (!changed) {
      repair();
      (void)sock.WaitOrSleep(wake_at);
    }
  }

  if (data_phase_end == 0) {
    data_phase_end = proc.kernel().SysGetCycles();
  }
  stats.elapsed_cycles = data_phase_end - start;
  stats.latency = SummarizeLatencies(std::move(latencies));
  stats.hot_latency = SummarizeLatencies(std::move(hot_latencies));
  drain_trace();
  stats.stages.service = SummarizeLatencies(std::move(service_samples));
  if (trace) {
    (void)trace->Close();
  }
  // Critical-path assembly: join every drained record into per-request
  // timelines and aggregate the all-requests class. Library policy over
  // kernel mechanism end to end — the kernel only ever saw 32-byte records.
  reqtrace::Collector collector;
  if (!stats.trace_records.empty()) {
    collector.AddAll(stats.trace_records);
    stats.reqs.timelines = collector.completed(reqtrace::Class::kAll);
    for (uint32_t s = 0; s < reqtrace::kSpanCount; ++s) {
      stats.reqs.span[s] = SummarizeLatencies(
          collector.samples(reqtrace::Class::kAll, static_cast<reqtrace::Span>(s)));
    }
    // Attribution is judged against the client's send->ack clock, so the
    // covered summary only admits timelines anchored at both ends (wire
    // implies the send mark joined; ack implies the client closed it).
    // Server-only timelines (in-flight at drain, rescued duplicates) still
    // feed the per-span tables above but would dilute coverage here.
    std::vector<uint64_t> covered_samples;
    for (const reqtrace::RequestTimeline& t : collector.all()) {
      stats.reqs.disk_ios += t.disk_ios;
      if (t.complete && t.seen[static_cast<uint32_t>(reqtrace::Span::kWire)] &&
          t.seen[static_cast<uint32_t>(reqtrace::Span::kAck)]) {
        covered_samples.push_back(t.Total());
      }
    }
    stats.reqs.covered = SummarizeLatencies(std::move(covered_samples));
  }
  if (config.slo_cycles > 0) {
    stats.slo.slo_cycles = config.slo_cycles;
    // Never-acked requests are the third SLO bucket: the client (TTL) or
    // its retry budget shed them, so they were neither good nor late.
    stats.slo.shed = stats.ttl_abandoned + stats.gave_up;
    std::vector<uint64_t> late_samples[reqtrace::kSpanCount];
    for (const auto& [req_id, rtt] : acked_rtts) {
      if (rtt <= config.slo_cycles) {
        ++stats.slo.good;
        continue;
      }
      ++stats.slo.late;
      // Attribute the miss: where did THIS request's cycles go?
      if (const reqtrace::RequestTimeline* t = collector.Find(req_id)) {
        for (uint32_t s = 0; s < reqtrace::kSpanCount; ++s) {
          if (t->seen[s]) {
            late_samples[s].push_back(t->span[s]);
          }
        }
      }
    }
    for (uint32_t s = 0; s < reqtrace::kSpanCount; ++s) {
      stats.slo.late_span[s] = SummarizeLatencies(std::move(late_samples[s]));
    }
  }
  (void)sock.Close();
  return stats;
}

}  // namespace xok::exos::server
