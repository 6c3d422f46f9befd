// ExOS trace library: reading the kernel event ring in application space.
//
// The kernel's whole contribution to tracing is mechanical — append
// fixed-format records to a ring the application owns, and keep raw
// counters (src/core/xtrace.h). Everything a profiler actually consists
// of is here, as untrusted library code: allocating and binding the ring,
// walking the cursor, recovering from drop-oldest overwrites, aggregating
// records into summaries, and formatting reports (see examples/xtop.cpp
// and the bench harness's --xok_trace mode for two different policies
// built on the same records).
#ifndef XOK_SRC_EXOS_TRACELIB_H_
#define XOK_SRC_EXOS_TRACELIB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/xtrace.h"
#include "src/exos/frame_run.h"
#include "src/exos/process.h"

namespace xok::exos {

struct TraceConfig {
  uint32_t pages = 4;                    // Ring capacity: ~(pages*4096-64)/32 records.
  uint32_t mask = xtrace::kMaskAll;      // Event types to record (library policy).
};

// A bound trace ring plus the reader cursor. One per kernel: the ring is a
// global resource (it sees events from every environment), so a second
// Bind fails with kErrAlreadyExists.
class TraceSession {
 public:
  explicit TraceSession(Process& proc) : proc_(proc) {}

  // Allocates a contiguous run of frames (FrameRun's placement hunt, as
  // for the packet rings), formats the ring, and binds it.
  Status Bind(const TraceConfig& config = {});
  // Unbinds and releases the frames.
  Status Close();

  bool bound() const { return view_.has_value(); }

  // Physical placement of the bound ring. A clean exit retains the
  // binding and the frames, so a host-side reader can DecodeRegion the
  // same span post-mortem.
  hw::PageId first_page() const { return pages_.first_page(); }
  uint32_t page_count() const { return pages_.pages(); }

  // Returns the next unread record and advances the shared tail cursor;
  // kErrWouldBlock once drained. If the producer lapped us (drop-oldest),
  // skips forward to the oldest retained record and counts the loss in
  // lapped().
  Result<xtrace::Record> Next();
  // Drains everything currently published; returns the number read.
  uint32_t Drain(std::vector<xtrace::Record>& out);

  // Kernel's cumulative overwrite counter (from the shared header).
  uint64_t dropped() const;
  // Records this reader lost to lapping (subset of dropped()).
  uint64_t lapped() const { return lapped_; }

  // Post-revocation repair: if any of the ring's pages was repossessed,
  // the kernel severed the whole binding; release the surviving pages and
  // rebind a fresh ring with the original geometry and mask (unread
  // records in the old ring are lost — drop-oldest semantics anyway).
  // `taken` is the vector from SysReadRepossessed.
  Status RepairAfterRepossession(std::span<const hw::PageId> taken);
  uint64_t repairs() const { return repairs_; }

 private:
  Process& proc_;
  std::optional<xtrace::TraceRingView> view_;
  FrameRun pages_;
  TraceConfig config_;   // Geometry/mask to rebuild with after a repair.
  uint32_t tail_ = 0;    // Free-running reader cursor (mirrors the header).
  uint64_t lapped_ = 0;
  uint64_t repairs_ = 0;
};

// --- Aggregation (pure functions over records) ---

struct TraceSummary {
  uint64_t records = 0;
  uint64_t dropped = 0;  // Fill from TraceSession::dropped() if available.
  uint64_t by_type[xtrace::kEventCount] = {};
  uint64_t syscall_enters[xtrace::kSysCount] = {};
  uint64_t first_cycle = 0;
  uint64_t last_cycle = 0;

  void Add(const xtrace::Record& record);
};

TraceSummary Summarize(const std::vector<xtrace::Record>& records);

// Renders a summary as a JSON object (event counts keyed by name; used by
// the bench harness's --xok_trace mode).
std::string SummaryToJson(const TraceSummary& summary);

// Host-side post-mortem decode: interprets a raw ring region (e.g. frames
// read out of simulated RAM after the owner died or the machine lost
// power) and returns every retained record, oldest first. No kernel
// involvement and no cursor update — the crash-dump reader.
Result<std::vector<xtrace::Record>> DecodeRegion(std::span<uint8_t> region);

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_TRACELIB_H_
