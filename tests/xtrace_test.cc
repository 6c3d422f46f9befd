// xtrace observability: ring-view geometry and drop-oldest overwrite
// semantics, secure binding (forged and stale capabilities), severing on
// KillEnv and on deallocation of a spanned frame, per-environment
// accounting via SysEnvStats, log2 syscall-latency histograms, the
// page-accounting audit catching an injected leak, and the armed-tracing
// cost bound on SysNull.
#include "src/core/xtrace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/tracelib.h"
#include "src/hw/machine.h"

namespace xok {
namespace {

using aegis::Aegis;
using aegis::EnvId;
using aegis::EnvSpec;
using aegis::TraceRingSpec;
using xtrace::Event;
using xtrace::Record;
using xtrace::TraceRingView;

// --- Ring view (no kernel) ---

TEST(TraceRingViewTest, GeometryAndFormat) {
  std::vector<uint8_t> region(hw::kPageBytes, 0xee);
  const uint32_t slots = TraceRingView::SlotsFor(region.size());
  EXPECT_EQ(slots,
            (hw::kPageBytes - TraceRingView::kHeaderBytes) / xtrace::kRecordBytes);
  Result<TraceRingView> view = TraceRingView::Format(region, slots, xtrace::kMaskAll);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->slots(), slots);
  EXPECT_EQ(view->head(), 0u);
  EXPECT_EQ(view->tail(), 0u);
  EXPECT_EQ(view->dropped(), 0u);
  EXPECT_EQ(view->mask(), xtrace::kMaskAll);

  // Reader-side attach infers the geometry from the header and validates
  // it against the region size.
  Result<TraceRingView> reader = TraceRingView::AttachExisting(region);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->slots(), slots);

  std::vector<uint8_t> tiny(TraceRingView::kHeaderBytes);
  EXPECT_EQ(TraceRingView::SlotsFor(tiny.size()), 0u);

  // Corrupted magic: the reader refuses.
  region[0] ^= 0xff;
  EXPECT_FALSE(TraceRingView::AttachExisting(region).ok());
}

TEST(TraceRingViewTest, RecordIndexIsFreeRunningModuloSlots) {
  std::vector<uint8_t> region(hw::kPageBytes);
  const uint32_t slots = TraceRingView::SlotsFor(region.size());
  TraceRingView view = *TraceRingView::Format(region, slots, xtrace::kMaskAll);
  Record a;
  a.cycle = 111;
  a.seq = 0;
  a.type = static_cast<uint16_t>(Event::kYield);
  view.Write(0, a);
  Record b;
  b.cycle = 222;
  b.seq = slots;  // Same slot as index 0 after one full lap.
  b.type = static_cast<uint16_t>(Event::kEnvBirth);
  view.Write(slots, b);
  const Record back = view.Read(0);
  EXPECT_EQ(back.cycle, 222u);
  EXPECT_EQ(back.seq, slots);
  EXPECT_EQ(back.type, static_cast<uint16_t>(Event::kEnvBirth));
}

TEST(LatencyHistTest, BucketsAreLog2) {
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(0), 0u);
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(1), 0u);
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(2), 1u);
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(3), 1u);
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(4), 2u);
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(36), 5u);  // [32, 64).
  xtrace::LatencyHist hist;
  hist.Add(36);
  hist.Add(36);
  hist.Add(100);
  EXPECT_EQ(hist.count, 3u);
  EXPECT_EQ(hist.total_cycles, 172u);
  EXPECT_EQ(hist.max_cycles, 100u);
  EXPECT_EQ(hist.bucket[5], 2u);
  EXPECT_EQ(hist.bucket[6], 1u);
}

TEST(LatencyHistTest, BucketOfMatchesTheShiftLoop) {
  // BucketOf is one bit_width; this is the loop it replaced, one shift per
  // bit, compared at every power of two and its neighbours.
  auto by_shifts = [](uint64_t cycles) {
    uint32_t b = 0;
    while (cycles > 1 && b + 1 < xtrace::kHistBuckets) {
      cycles >>= 1;
      ++b;
    }
    return b;
  };
  std::vector<uint64_t> probes = {0, 1, UINT64_MAX};
  for (uint32_t shift = 0; shift < 64; ++shift) {
    const uint64_t power = uint64_t{1} << shift;
    probes.insert(probes.end(), {power - 1, power, power + 1});
  }
  for (const uint64_t cycles : probes) {
    EXPECT_EQ(xtrace::LatencyHist::BucketOf(cycles), by_shifts(cycles)) << cycles;
  }
  EXPECT_EQ(xtrace::LatencyHist::BucketOf(UINT64_MAX), xtrace::kHistBuckets - 1);
}

// --- Kernel-side binding, accounting, and audit ---

class XtraceTest : public ::testing::Test {
 protected:
  XtraceTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "xtrace"}),
        kernel_(machine_) {}

  // Allocates `pages` specific contiguous frames starting at `first`
  // (physical names are exposed, so the caller can just ask).
  std::vector<aegis::PageGrant> AllocRun(hw::PageId first, uint32_t pages) {
    std::vector<aegis::PageGrant> grants;
    for (uint32_t i = 0; i < pages; ++i) {
      Result<aegis::PageGrant> grant = kernel_.SysAllocPage(first + i);
      EXPECT_TRUE(grant.ok());
      if (grant.ok()) {
        grants.push_back(*grant);
      }
    }
    return grants;
  }

  hw::Machine machine_;
  Aegis kernel_;
};

TEST_F(XtraceTest, BindRequiresOwnedPagesAndValidCapability) {
  bool done = false;
  EnvSpec spec;
  spec.entry = [&] {
    const std::vector<aegis::PageGrant> grants = AllocRun(10, 2);
    TraceRingSpec rspec{.first_page = 10, .pages = 2};

    cap::Capability forged = grants[0].cap;
    forged.mac ^= 0x1995;
    EXPECT_EQ(kernel_.SysBindTraceRing(rspec, forged), Status::kErrAccessDenied);

    // A span that reaches into frames the caller never owned.
    TraceRingSpec wide{.first_page = 10, .pages = 8};
    EXPECT_EQ(kernel_.SysBindTraceRing(wide, grants[0].cap), Status::kErrAccessDenied);

    EXPECT_FALSE(kernel_.trace_armed());
    ASSERT_EQ(kernel_.SysBindTraceRing(rspec, grants[0].cap), Status::kOk);
    EXPECT_TRUE(kernel_.trace_armed());

    // One logic analyser on the bus at a time.
    EXPECT_EQ(kernel_.SysBindTraceRing(rspec, grants[0].cap), Status::kErrAlreadyExists);

    ASSERT_EQ(kernel_.SysUnbindTraceRing(), Status::kOk);
    EXPECT_FALSE(kernel_.trace_armed());
    EXPECT_EQ(kernel_.SysUnbindTraceRing(), Status::kErrNotFound);

    // Stale epoch: dealloc/realloc bumps the frame epoch, so the very
    // capability that bound the ring a moment ago must now be refused.
    ASSERT_EQ(kernel_.SysDeallocPage(10, grants[0].cap), Status::kOk);
    ASSERT_TRUE(kernel_.SysAllocPage(10).ok());
    EXPECT_EQ(kernel_.SysBindTraceRing(rspec, grants[0].cap), Status::kErrAccessDenied);
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
}

TEST_F(XtraceTest, OverflowDropsOldestAndCountsOverwrites) {
  bool done = false;
  EnvSpec spec;
  spec.entry = [&] {
    const std::vector<aegis::PageGrant> grants = AllocRun(10, 1);
    ASSERT_EQ(kernel_.SysBindTraceRing({.first_page = 10, .pages = 1}, grants[0].cap),
              Status::kOk);
    const uint32_t slots = TraceRingView::SlotsFor(hw::kPageBytes);
    // Each SysNull appends an enter and an exit record; overflow by a lot.
    for (uint32_t i = 0; i < slots * 3; ++i) {
      kernel_.SysNull();
    }
    std::span<uint8_t> region = machine_.mem().RangeSpan(10, 1);
    Result<TraceRingView> view = TraceRingView::AttachExisting(region);
    ASSERT_TRUE(view.ok());
    const uint32_t head = view->head();
    EXPECT_GT(head, slots);
    // Nobody advanced the tail, so every append past the capacity
    // overwrote the oldest retained record — and was counted.
    EXPECT_EQ(view->dropped(), static_cast<uint64_t>(head - slots));

    // The *newest* records survive: retained seqs are exactly
    // [head - slots, head), oldest first, with nondecreasing timestamps.
    Result<std::vector<Record>> records = exos::DecodeRegion(region);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), static_cast<size_t>(slots));
    EXPECT_EQ(records->front().seq, head - slots);
    EXPECT_EQ(records->back().seq, head - 1);
    for (size_t i = 1; i < records->size(); ++i) {
      EXPECT_EQ((*records)[i].seq, (*records)[i - 1].seq + 1);
      EXPECT_GE((*records)[i].cycle, (*records)[i - 1].cycle);
    }
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
}

TEST_F(XtraceTest, KillEnvSeversTheRingAndStopsWrites) {
  EnvId victim_id = aegis::kNoEnv;
  bool ready = false;
  bool checked = false;
  EnvSpec victim;
  victim.entry = [&] {
    const std::vector<aegis::PageGrant> grants = AllocRun(10, 2);
    ASSERT_EQ(kernel_.SysBindTraceRing({.first_page = 10, .pages = 2}, grants[0].cap),
              Status::kOk);
    ready = true;
    kernel_.SysBlock();  // Stays blocked until killed.
    ADD_FAILURE() << "killed environment resumed";
  };
  EnvSpec killer;
  killer.entry = [&] {
    while (!ready) {
      kernel_.SysYield();
    }
    ASSERT_TRUE(kernel_.trace_armed());
    ASSERT_EQ(kernel_.KillEnv(victim_id), Status::kOk);
    EXPECT_FALSE(kernel_.trace_armed());

    // The frames went back to the allocator but their contents are still
    // in RAM: the post-mortem reader sees the victim's own death (emitted
    // before the binding was severed), flagged as a kill.
    std::span<uint8_t> region = machine_.mem().RangeSpan(10, 2);
    Result<TraceRingView> view = TraceRingView::AttachExisting(region);
    ASSERT_TRUE(view.ok());
    Result<std::vector<Record>> records = exos::DecodeRegion(region);
    ASSERT_TRUE(records.ok());
    bool death_seen = false;
    for (const Record& record : *records) {
      if (record.type == static_cast<uint16_t>(Event::kEnvDeath) &&
          record.arg0 == victim_id && record.arg1 == 1) {
        death_seen = true;
      }
    }
    EXPECT_TRUE(death_seen);

    // Severed means severed: further syscalls append nothing.
    const uint32_t head = view->head();
    for (int i = 0; i < 10; ++i) {
      kernel_.SysNull();
    }
    EXPECT_EQ(view->head(), head);
    EXPECT_TRUE(kernel_.AuditInvariants().ok());
    checked = true;
  };
  Result<aegis::EnvGrant> gv = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(gv.ok());
  victim_id = gv->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(killer)).ok());
  kernel_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(XtraceTest, DeallocatingASpannedFrameSeversTheRing) {
  bool done = false;
  EnvSpec spec;
  spec.entry = [&] {
    const std::vector<aegis::PageGrant> grants = AllocRun(10, 2);
    ASSERT_EQ(kernel_.SysBindTraceRing({.first_page = 10, .pages = 2}, grants[0].cap),
              Status::kOk);
    ASSERT_TRUE(kernel_.trace_armed());
    // Giving back the *second* frame of the span must sever the whole
    // binding — the kernel never appends into memory it might reallocate.
    ASSERT_EQ(kernel_.SysDeallocPage(grants[1].page, grants[1].cap), Status::kOk);
    EXPECT_FALSE(kernel_.trace_armed());
    std::span<uint8_t> region = machine_.mem().RangeSpan(10, 2);
    const uint32_t head = TraceRingView::AttachExisting(region)->head();
    for (int i = 0; i < 10; ++i) {
      kernel_.SysNull();
    }
    EXPECT_EQ(TraceRingView::AttachExisting(region)->head(), head);
    EXPECT_TRUE(kernel_.AuditInvariants().ok());
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
}

TEST_F(XtraceTest, EnvStatsCountsSyscallsPagesAndLifecycle) {
  EnvId worker_id = aegis::kNoEnv;
  bool done = false;
  EnvSpec worker;
  worker.entry = [&] {
    for (int i = 0; i < 7; ++i) {
      kernel_.SysNull();
    }
    AllocRun(10, 3);
    kernel_.SysYield();  // Slice switch: cycles_on_cpu is credited here.
    Result<aegis::EnvStats> self = kernel_.SysEnvStats(kernel_.SysSelf());
    ASSERT_TRUE(self.ok());
    EXPECT_TRUE(self->alive);
    EXPECT_FALSE(self->killed);
    EXPECT_EQ(self->pages_held, 3u);
    EXPECT_EQ(self->counters.syscalls[static_cast<uint32_t>(xtrace::Sys::kNull)], 7u);
    EXPECT_EQ(self->counters.syscalls[static_cast<uint32_t>(xtrace::Sys::kAllocPage)], 3u);
    EXPECT_GT(self->counters.cycles_on_cpu, 0u);

    // Past the end of the env table: visible error, not garbage.
    EXPECT_EQ(kernel_.SysEnvStats(999).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysEnvStats(aegis::kNoEnv).status(), Status::kErrNotFound);
    done = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(worker));
  ASSERT_TRUE(grant.ok());
  worker_id = grant->env;
  kernel_.Run();
  EXPECT_TRUE(done);
  // Post-mortem from the host: the counters survive a clean exit.
  const aegis::EnvStats post = kernel_.env_stats(worker_id);
  EXPECT_FALSE(post.alive);
  EXPECT_FALSE(post.killed);
  EXPECT_EQ(post.counters.syscalls[static_cast<uint32_t>(xtrace::Sys::kNull)], 7u);
  EXPECT_EQ(post.counters.syscalls[static_cast<uint32_t>(xtrace::Sys::kExit)], 1u);
}

TEST_F(XtraceTest, SyscallHistogramRecordsLatencies) {
  bool done = false;
  EnvSpec spec;
  spec.entry = [&] {
    const uint64_t before =
        kernel_.syscall_hist(xtrace::Sys::kNull).count;
    for (int i = 0; i < 5; ++i) {
      kernel_.SysNull();
    }
    Result<xtrace::LatencyHist> hist =
        kernel_.SysSyscallHist(static_cast<uint32_t>(xtrace::Sys::kNull));
    ASSERT_TRUE(hist.ok());
    EXPECT_EQ(hist->count, before + 5);
    // SysNull is 36 cycles end to end: every sample lands in [32, 64).
    EXPECT_EQ(hist->bucket[5], before + 5);
    EXPECT_EQ(hist->max_cycles, 36u);

    EXPECT_EQ(kernel_.SysSyscallHist(xtrace::kSysCount).status(),
              Status::kErrOutOfRange);
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
}

TEST_F(XtraceTest, AuditCatchesAnInjectedPageLeak) {
  EnvId worker_id = aegis::kNoEnv;
  EnvSpec worker;
  worker.entry = [&] {
    AllocRun(10, 2);
    // Exit cleanly holding the pages: ownership persists past a clean
    // exit, so the books stay balanced until the host cooks them below.
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(worker));
  ASSERT_TRUE(grant.ok());
  worker_id = grant->env;
  kernel_.Run();

  ASSERT_TRUE(kernel_.AuditInvariants().ok());
  // Cook the books: the env claims one page more than the frame table
  // backs. The cross-check must notice and name the offender.
  kernel_.DebugSkewPageAccounting(worker_id, +1);
  Aegis::AuditReport report = kernel_.AuditInvariants();
  ASSERT_FALSE(report.ok());
  bool named = false;
  for (const std::string& violation : report.violations) {
    if (violation.find("env " + std::to_string(worker_id)) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << (report.violations.empty() ? "" : report.violations.front());
  // Undo the skew: the audit goes green again.
  kernel_.DebugSkewPageAccounting(worker_id, -1);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(XtraceTest, ArmedTracingCostsUnderTenPercentOnSysNull) {
  uint64_t disarmed = 0;
  uint64_t armed = 0;
  uint64_t lifecycle_only = 0;
  constexpr int kIters = 1000;
  bool done = false;
  EnvSpec spec;
  spec.entry = [&] {
    uint64_t t0 = machine_.clock().now();
    for (int i = 0; i < kIters; ++i) {
      kernel_.SysNull();
    }
    disarmed = machine_.clock().now() - t0;

    const std::vector<aegis::PageGrant> grants = AllocRun(10, 4);
    ASSERT_EQ(kernel_.SysBindTraceRing({.first_page = 10, .pages = 4}, grants[0].cap),
              Status::kOk);
    t0 = machine_.clock().now();
    for (int i = 0; i < kIters; ++i) {
      kernel_.SysNull();
    }
    armed = machine_.clock().now() - t0;
    ASSERT_EQ(kernel_.SysUnbindTraceRing(), Status::kOk);

    // A mask that excludes syscall events also skips the armed charge:
    // the cost follows what the application asked to see.
    ASSERT_EQ(kernel_.SysBindTraceRing(
                  {.first_page = 10, .pages = 4, .mask = xtrace::kMaskEnvLifecycle},
                  grants[0].cap),
              Status::kOk);
    t0 = machine_.clock().now();
    for (int i = 0; i < kIters; ++i) {
      kernel_.SysNull();
    }
    lifecycle_only = machine_.clock().now() - t0;
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(armed, disarmed);
  EXPECT_LT(static_cast<double>(armed - disarmed),
            0.10 * static_cast<double>(disarmed))
      << "armed=" << armed << " disarmed=" << disarmed;
  // Masking out syscall events skips the armed charge entirely; the
  // windows differ only by whatever timer interrupts straddled them.
  const double lifecycle_skew =
      static_cast<double>(lifecycle_only) - static_cast<double>(disarmed);
  EXPECT_LT(lifecycle_skew < 0 ? -lifecycle_skew : lifecycle_skew,
            0.01 * static_cast<double>(disarmed))
      << "lifecycle=" << lifecycle_only << " disarmed=" << disarmed;
}

// --- Library layer: TraceSession over a live kernel ---

TEST(TraceLibTest, SessionDrainsEventsAndSummarizes) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "tracelib"});
  Aegis kernel(machine);
  bool worker_done = false;
  exos::Process worker(kernel, [&](exos::Process& p) {
    for (int i = 0; i < 20; ++i) {
      p.kernel().SysYield();
    }
    worker_done = true;
  });
  std::vector<Record> records;
  uint64_t session_lapped = 0;
  exos::Process monitor(kernel, [&](exos::Process& p) {
    exos::TraceSession trace(p);
    ASSERT_EQ(trace.Bind({.pages = 2, .mask = xtrace::kMaskAll}), Status::kOk);
    ASSERT_TRUE(trace.bound());
    // A second session cannot steal the stream.
    exos::TraceSession second(p);
    EXPECT_EQ(second.Bind({.pages = 2}), Status::kErrAlreadyExists);
    for (int round = 0; round < 4; ++round) {
      p.kernel().SysSleep(20'000);
      trace.Drain(records);
    }
    session_lapped = trace.lapped();
    EXPECT_EQ(trace.Close(), Status::kOk);
    EXPECT_FALSE(trace.bound());
  });
  ASSERT_TRUE(worker.ok());
  ASSERT_TRUE(monitor.ok());
  kernel.Run();
  EXPECT_TRUE(worker_done);
  EXPECT_EQ(session_lapped, 0u);  // 2 pages is plenty for this workload.
  ASSERT_FALSE(records.empty());

  const exos::TraceSummary summary = exos::Summarize(records);
  EXPECT_EQ(summary.records, records.size());
  EXPECT_GT(summary.by_type[static_cast<uint32_t>(Event::kYield)], 0u);
  EXPECT_GT(summary.by_type[static_cast<uint32_t>(Event::kSyscallEnter)], 0u);
  EXPECT_GT(summary.syscall_enters[static_cast<uint32_t>(xtrace::Sys::kYield)], 0u);
  EXPECT_GE(summary.last_cycle, summary.first_cycle);

  // The JSON renderer names what it counts.
  const std::string json = exos::SummaryToJson(summary);
  EXPECT_NE(json.find("\"yield\""), std::string::npos);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
}

TEST(TraceLibTest, ReaderRecoversFromBeingLapped) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "lapped"});
  Aegis kernel(machine);
  bool done = false;
  exos::Process proc(kernel, [&](exos::Process& p) {
    exos::TraceSession trace(p);
    ASSERT_EQ(trace.Bind({.pages = 1, .mask = xtrace::kMaskAll}), Status::kOk);
    const uint32_t slots = TraceRingView::SlotsFor(hw::kPageBytes);
    // Generate far more records than the ring holds without reading.
    for (uint32_t i = 0; i < slots * 2; ++i) {
      p.kernel().SysNull();
    }
    // The first read discovers the lap, skips to the oldest retained
    // record, and keeps the sequence contiguous from there.
    Result<Record> first = trace.Next();
    ASSERT_TRUE(first.ok());
    EXPECT_GT(trace.lapped(), 0u);
    Result<Record> second = trace.Next();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->seq, first->seq + 1);
    EXPECT_GT(trace.dropped(), 0u);
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  kernel.Run();
  EXPECT_TRUE(done);
}

TEST(TraceLibTest, SmpProducerFleetLapsSlowObserverWithoutTearing) {
  // Four CPUs: three producer environments pinned to CPUs 1-3 spam
  // syscalls into the one global ring while a deliberately slow observer
  // on CPU 0 sleeps between drains. One page of ring (126 slots) against
  // thousands of records per nap guarantees the producers lap the
  // observer repeatedly; the contract under test is the recovery
  // discipline, not the loss: the header's overwrite counter surfaces the
  // drops, Next() resynchronizes to the oldest retained record, and every
  // record handed out is whole — valid type, strictly increasing seq,
  // nondecreasing timestamp — never a torn read from a slot a remote CPU
  // was overwriting.
  hw::Machine machine(
      hw::Machine::Config{.phys_pages = 256, .name = "smplap", .cpus = 4});
  Aegis kernel(machine, Aegis::Config{.max_envs = 16});

  bool armed = false;
  int producers_done = 0;
  constexpr int kProducers = 3;
  constexpr uint32_t kCallsPerProducer = 2000;
  std::vector<std::unique_ptr<exos::Process>> fleet;
  for (int i = 0; i < kProducers; ++i) {
    fleet.push_back(std::make_unique<exos::Process>(
        kernel,
        [&](exos::Process& p) {
          while (!armed) {
            p.kernel().SysYield();
          }
          for (uint32_t n = 0; n < kCallsPerProducer; ++n) {
            p.kernel().SysNull();
          }
          ++producers_done;
        },
        exos::Process::Options{.cpu_mask = 1ULL << (1 + i)}));
    ASSERT_TRUE(fleet.back()->ok());
  }

  std::vector<Record> drained;
  uint64_t session_dropped = 0;
  uint64_t session_lapped = 0;
  bool observer_done = false;
  exos::Process observer(
      kernel,
      [&](exos::Process& p) {
        exos::TraceSession trace(p);
        ASSERT_EQ(trace.Bind({.pages = 1, .mask = xtrace::kMaskAll}), Status::kOk);
        armed = true;
        while (producers_done < kProducers) {
          p.kernel().SysSleep(100'000);  // Naps are the slowness under test.
          trace.Drain(drained);
        }
        trace.Drain(drained);
        session_dropped = trace.dropped();
        session_lapped = trace.lapped();
        observer_done = true;
      },
      exos::Process::Options{.cpu_mask = 1ULL << 0});
  ASSERT_TRUE(observer.ok());

  kernel.Run();
  ASSERT_TRUE(observer_done);
  ASSERT_EQ(producers_done, kProducers);

  // The fleet demonstrably outran the observer, and the loss was counted,
  // not silent: the observer recovered less than the producers generated.
  EXPECT_GT(session_dropped, 0u);
  EXPECT_GT(session_lapped, 0u);
  ASSERT_FALSE(drained.empty());
  EXPECT_LT(drained.size(),
            static_cast<size_t>(kProducers) * kCallsPerProducer * 2);

  // Untorn across every resync: whole records only.
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_LT(drained[i].type, xtrace::kEventCount) << "record " << i;
    if (i > 0) {
      EXPECT_GT(drained[i].seq, drained[i - 1].seq) << "record " << i;
      EXPECT_GE(drained[i].cycle, drained[i - 1].cycle) << "record " << i;
    }
  }
}

}  // namespace
}  // namespace xok
