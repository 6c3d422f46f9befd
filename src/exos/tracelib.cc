#include "src/exos/tracelib.h"

#include <algorithm>

namespace xok::exos {

Status TraceSession::Bind(const TraceConfig& config) {
  if (view_.has_value()) {
    return Status::kErrBadState;
  }
  if (config.pages == 0) {
    return Status::kErrInvalidArgs;
  }
  aegis::Aegis& kernel = proc_.kernel();
  const Status placed = pages_.Allocate(kernel, config.pages);
  if (placed != Status::kOk) {
    return placed;
  }
  aegis::TraceRingSpec spec;
  spec.first_page = pages_.first_page();
  spec.pages = config.pages;
  spec.mask = config.mask;
  const Status bound = kernel.SysBindTraceRing(spec, pages_.first_cap());
  if (bound != Status::kOk) {
    pages_.Release(kernel);
    return bound;
  }
  std::span<uint8_t> region = proc_.machine().mem().RangeSpan(spec.first_page, spec.pages);
  view_ = *xtrace::TraceRingView::AttachExisting(region);
  config_ = config;
  tail_ = 0;
  lapped_ = 0;
  return Status::kOk;
}

Status TraceSession::RepairAfterRepossession(std::span<const hw::PageId> taken) {
  if (!view_.has_value()) {
    return Status::kOk;
  }
  if (std::none_of(taken.begin(), taken.end(),
                   [this](hw::PageId page) { return pages_.Spans(page); })) {
    return Status::kOk;
  }
  ++repairs_;
  view_.reset();
  pages_.Release(proc_.kernel(), taken);
  const TraceConfig config = config_;
  return Bind(config);
}

Status TraceSession::Close() {
  if (!view_.has_value()) {
    return Status::kErrBadState;
  }
  const Status status = proc_.kernel().SysUnbindTraceRing();
  view_.reset();
  pages_.Release(proc_.kernel());
  return status;
}

Result<xtrace::Record> TraceSession::Next() {
  if (!view_.has_value()) {
    return Status::kErrBadState;
  }
  const uint32_t head = view_->head();
  if (tail_ == head) {
    return Status::kErrWouldBlock;
  }
  if (head - tail_ > view_->slots()) {
    // The producer lapped us: everything between our cursor and the oldest
    // retained record was overwritten. Jump forward and account the loss.
    const uint32_t oldest = head - view_->slots();
    lapped_ += oldest - tail_;
    tail_ = oldest;
  }
  const xtrace::Record record = view_->Read(tail_);
  ++tail_;
  view_->set_tail(tail_);
  return record;
}

uint32_t TraceSession::Drain(std::vector<xtrace::Record>& out) {
  uint32_t read = 0;
  while (true) {
    Result<xtrace::Record> record = Next();
    if (!record.ok()) {
      break;
    }
    out.push_back(*record);
    ++read;
  }
  return read;
}

uint64_t TraceSession::dropped() const {
  return view_.has_value() ? view_->dropped() : 0;
}

void TraceSummary::Add(const xtrace::Record& record) {
  if (records == 0 || record.cycle < first_cycle) {
    first_cycle = record.cycle;
  }
  if (record.cycle > last_cycle) {
    last_cycle = record.cycle;
  }
  ++records;
  if (record.type < xtrace::kEventCount) {
    ++by_type[record.type];
  }
  if (record.type == static_cast<uint16_t>(xtrace::Event::kSyscallEnter) &&
      record.arg0 < xtrace::kSysCount) {
    ++syscall_enters[record.arg0];
  }
}

TraceSummary Summarize(const std::vector<xtrace::Record>& records) {
  TraceSummary summary;
  for (const xtrace::Record& record : records) {
    summary.Add(record);
  }
  return summary;
}

std::string SummaryToJson(const TraceSummary& summary) {
  std::string json = "{";
  json += "\"records\": " + std::to_string(summary.records);
  json += ", \"dropped\": " + std::to_string(summary.dropped);
  json += ", \"first_cycle\": " + std::to_string(summary.first_cycle);
  json += ", \"last_cycle\": " + std::to_string(summary.last_cycle);
  json += ", \"events\": {";
  bool first = true;
  for (uint32_t i = 0; i < xtrace::kEventCount; ++i) {
    if (summary.by_type[i] == 0) {
      continue;
    }
    if (!first) {
      json += ", ";
    }
    first = false;
    json += std::string("\"") + xtrace::EventName(static_cast<xtrace::Event>(i)) +
            "\": " + std::to_string(summary.by_type[i]);
  }
  json += "}, \"syscalls\": {";
  first = true;
  for (uint32_t i = 0; i < xtrace::kSysCount; ++i) {
    if (summary.syscall_enters[i] == 0) {
      continue;
    }
    if (!first) {
      json += ", ";
    }
    first = false;
    json += std::string("\"") + xtrace::SysName(static_cast<xtrace::Sys>(i)) +
            "\": " + std::to_string(summary.syscall_enters[i]);
  }
  json += "}}";
  return json;
}

Result<std::vector<xtrace::Record>> DecodeRegion(std::span<uint8_t> region) {
  Result<xtrace::TraceRingView> view = xtrace::TraceRingView::AttachExisting(region);
  if (!view.ok()) {
    return view.status();
  }
  const uint32_t head = view->head();
  const uint32_t slots = view->slots();
  const uint32_t retained = head < slots ? head : slots;
  std::vector<xtrace::Record> records;
  records.reserve(retained);
  for (uint32_t index = head - retained; index != head; ++index) {
    records.push_back(view->Read(index));
  }
  return records;
}

}  // namespace xok::exos
