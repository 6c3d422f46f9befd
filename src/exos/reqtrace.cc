#include "src/exos/reqtrace.h"

#include <algorithm>
#include <cstdio>

namespace xok::exos::reqtrace {

const char* SpanName(Span s) {
  switch (s) {
    case Span::kWire:
      return "wire";
    case Span::kRingWait:
      return "ring-wait";
    case Span::kParse:
      return "parse";
    case Span::kStore:
      return "store";
    case Span::kTx:
      return "tx";
    case Span::kAck:
      return "ack";
    case Span::kCount:
      break;
  }
  return "?";
}

const char* ClassName(Class c) {
  switch (c) {
    case Class::kAll:
      return "all";
    case Class::kGet:
      return "get";
    case Class::kPut:
      return "put";
    case Class::kHot:
      return "hot";
    case Class::kStale:
      return "stale";
    case Class::kShed:
      return "shed";
    case Class::kCount:
      break;
  }
  return "?";
}

uint64_t RequestTimeline::Total() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kSpanCount; ++i) {
    if (seen[i]) {
      total += span[i];
    }
  }
  return total;
}

bool RequestTimeline::Is(Class c) const {
  const bool shed = status == 503;
  switch (c) {
    case Class::kAll:
      return true;
    case Class::kGet:
      return !shed && (flags & kFlagPut) == 0;
    case Class::kPut:
      return !shed && (flags & kFlagPut) != 0;
    case Class::kHot:
      // ASH fast-path answers never reach a worker, so they carry no exit
      // flags — the delivery path itself is the hot-class witness.
      return (flags & kFlagHot) != 0 || path == 2;
    case Class::kStale:
      return (flags & kFlagStale) != 0;
    case Class::kShed:
      return shed;
    case Class::kCount:
      break;
  }
  return false;
}

uint64_t Percentile(std::span<const uint64_t> sorted, uint32_t per_mille) {
  if (sorted.empty()) {
    return 0;
  }
  const uint64_t n = sorted.size();
  uint64_t rank = (static_cast<uint64_t>(per_mille) * n + 999) / 1000;
  rank = std::max<uint64_t>(1, std::min(rank, n));
  return sorted[rank - 1];
}

void Collector::Add(const xtrace::Record& record, uint16_t machine) {
  // Per-machine join keys: req ids, envs and disk request ids all collide
  // across machines in a World rack.
  const auto req_key = [machine](uint32_t req_id) {
    return static_cast<uint64_t>(machine) << 32 | req_id;
  };
  const uint32_t env_key = static_cast<uint32_t>(machine) << 16 | record.env;
  const auto type = static_cast<xtrace::Event>(record.type);
  switch (type) {
    case xtrace::Event::kDpfMatch: {
      const uint32_t req_id = record.arg3;  // Library-programmed tag.
      if (req_id == 0) {
        return;  // Untagged binding (or a frame too short to tag).
      }
      Pending& p = pending_[req_key(req_id)];
      p.machine = machine;
      // First accepted frame only: demux drops carry no tag, so the first
      // kDpfMatch we see is the copy the request was actually served from
      // (retransmit matches after worker pickup are duplicates — ignored).
      if (!p.has[kBDemux] && !p.has[kBEnter]) {
        p.at[kBDemux] = record.cycle;
        p.has[kBDemux] = true;
        p.path = static_cast<uint8_t>(record.arg2);
      }
      return;
    }
    case xtrace::Event::kAppMark: {
      const uint32_t req_id = record.arg0;
      switch (record.arg1) {
        case kPhaseEnter: {
          Pending& p = pending_[req_key(req_id)];
          p.machine = machine;
          if (!p.has[kBEnter]) {
            p.at[kBEnter] = record.cycle;
            p.has[kBEnter] = true;
            p.env = record.env;
            p.shard = record.arg2;
            open_by_env_[env_key] = req_id;
          }
          return;
        }
        case kPhaseStage: {
          Pending& p = pending_[req_key(req_id)];
          p.machine = machine;
          const uint32_t boundary = record.arg2 == kStageParsed  ? kBParsed
                                    : record.arg2 == kStageStored ? kBStored
                                                                  : kBoundaryCount;
          if (boundary != kBoundaryCount && !p.has[boundary]) {
            p.at[boundary] = record.cycle;
            p.has[boundary] = true;
          }
          return;
        }
        case kPhaseExit: {
          auto it = pending_.find(req_key(req_id));
          if (it == pending_.end()) {
            return;  // Enter lapped out of the ring: nothing to close.
          }
          Pending& p = it->second;
          if (!p.has[kBExit]) {
            p.at[kBExit] = record.cycle;
            p.has[kBExit] = true;
            p.status = record.arg2;
            p.flags = record.arg3 & 0xffff0000u;
          }
          auto open = open_by_env_.find(env_key);
          if (open != open_by_env_.end() && open->second == req_id) {
            open_by_env_.erase(open);
          }
          // No client send mark: nobody downstream will ack — close now.
          if (!p.has[kBSend]) {
            Finalize(req_id, p);
            pending_.erase(it);
          }
          return;
        }
        case kPhaseClientSend: {
          Pending& p = pending_[req_key(req_id)];
          p.machine = machine;
          if (!p.has[kBSend]) {
            p.at[kBSend] = record.cycle;
            p.has[kBSend] = true;
          }
          return;
        }
        case kPhaseClientAck: {
          auto it = pending_.find(req_key(req_id));
          if (it == pending_.end()) {
            return;
          }
          Pending& p = it->second;
          if (!p.has[kBAck]) {
            p.at[kBAck] = record.cycle;
            p.has[kBAck] = true;
            if (!p.has[kBExit]) {
              p.status = record.arg2;  // ASH answers: no worker exit mark.
            }
          }
          Finalize(req_id, p);
          pending_.erase(it);
          return;
        }
        default:
          return;
      }
    }
    case xtrace::Event::kDiskSubmit: {
      // Disk records carry no request id; the worker env that has a
      // request open owns every IO it submits until the exit mark.
      auto open = open_by_env_.find(env_key);
      if (open != open_by_env_.end()) {
        disk_inflight_[req_key(record.arg2)] =
            DiskIo{open->second, record.cycle};
      }
      return;
    }
    case xtrace::Event::kDiskComplete: {
      auto io = disk_inflight_.find(req_key(record.arg0));
      if (io == disk_inflight_.end()) {
        return;  // Journal-sync or preload IO outside any open request.
      }
      auto it = pending_.find(req_key(io->second.req_id));
      if (it != pending_.end() && record.cycle >= io->second.submit_cycle) {
        it->second.disk_cycles += record.cycle - io->second.submit_cycle;
        ++it->second.disk_ios;
      }
      disk_inflight_.erase(io);
      return;
    }
    default:
      return;
  }
}

void Collector::AddAll(std::span<const xtrace::Record> records,
                       uint16_t machine) {
  for (const xtrace::Record& record : records) {
    Add(record, machine);
  }
}

void Collector::Finalize(uint32_t req_id, Pending& p) {
  RequestTimeline t;
  t.req_id = req_id;
  t.machine = p.machine;
  t.env = p.env;
  t.shard = p.shard;
  t.status = p.status;
  t.flags = p.flags;
  t.path = p.path;
  t.disk_cycles = p.disk_cycles;
  t.disk_ios = p.disk_ios;
  t.complete = true;

  // Telescope spans between consecutive observed boundaries: a missing
  // boundary folds its time into the span that ends at the next observed
  // one, so observed spans always sum to exactly last - first.
  uint64_t prev = 0;
  bool have_prev = false;
  for (uint32_t b = 0; b < kBoundaryCount; ++b) {
    if (!p.has[b]) {
      continue;
    }
    if (!have_prev) {
      t.first_cycle = p.at[b];
      have_prev = true;
    } else {
      const uint32_t span_idx = b - 1;  // Span i runs boundary i -> i+1.
      t.span[span_idx] = p.at[b] >= prev ? p.at[b] - prev : 0;
      t.seen[span_idx] = true;
    }
    prev = p.at[b];
    t.last_cycle = p.at[b];
  }

  for (uint32_t c = 0; c < kClassCount; ++c) {
    const Class cls = static_cast<Class>(c);
    if (!t.Is(cls)) {
      continue;
    }
    ++completed_[c];
    covered_[c].push_back(t.Total());
    for (uint32_t s = 0; s < kSpanCount; ++s) {
      if (t.seen[s]) {
        samples_[c][s].push_back(t.span[s]);
        hist_[c][s].Add(t.span[s]);
      }
    }
  }
  all_.push_back(std::move(t));
}

const RequestTimeline* Collector::Find(uint32_t req_id) const {
  for (auto it = all_.rbegin(); it != all_.rend(); ++it) {
    if (it->req_id == req_id) {
      return &*it;
    }
  }
  return nullptr;
}

std::vector<RequestTimeline> AssembleTimelines(
    std::span<const xtrace::Record> records) {
  Collector collector;
  collector.AddAll(records);
  return collector.all();
}

std::string FormatTimeline(const RequestTimeline& t) {
  const char* path = t.path == 0   ? "queue"
                     : t.path == 1 ? "ring"
                     : t.path == 2 ? "ash"
                                   : "?";
  char line[192];
  std::snprintf(line, sizeof(line),
                "req %u status=%u mach=%u env=%u shard=%u path=%s%s%s%s: "
                "%llu cycles end-to-end\n",
                t.req_id, t.status, t.machine, t.env, t.shard, path,
                (t.flags & kFlagPut) != 0 ? " put" : " get",
                (t.flags & kFlagHot) != 0 || t.path == 2 ? " hot" : "",
                (t.flags & kFlagStale) != 0 ? " stale" : "",
                static_cast<unsigned long long>(t.Total()));
  std::string out = line;
  for (uint32_t s = 0; s < kSpanCount; ++s) {
    if (!t.seen[s]) {
      continue;
    }
    std::snprintf(line, sizeof(line), "    %-9s %10llu",
                  SpanName(static_cast<Span>(s)),
                  static_cast<unsigned long long>(t.span[s]));
    out += line;
    if (static_cast<Span>(s) == Span::kStore && t.disk_ios > 0) {
      std::snprintf(line, sizeof(line), "  (disk %llu cycles / %llu ios)",
                    static_cast<unsigned long long>(t.disk_cycles),
                    static_cast<unsigned long long>(t.disk_ios));
      out += line;
    }
    out += '\n';
  }
  return out;
}

}  // namespace xok::exos::reqtrace
