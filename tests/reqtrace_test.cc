// Per-request critical-path assembly (src/exos/reqtrace): joining
// synthetic kernel records into timelines, span telescoping around missing
// boundaries, disk attribution through the open-request join, request
// classes, the nearest-rank percentile, and the flight-recorder retention
// policy. Everything here runs on hand-built records — the live-kernel
// joins are covered by server_test and the chaos soaks.
#include "src/exos/reqtrace.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/xtrace.h"

namespace xok::exos::reqtrace {
namespace {

using xtrace::Event;
using xtrace::Record;

Record Rec(Event type, uint64_t cycle, uint16_t env, uint32_t arg0,
           uint32_t arg1, uint32_t arg2, uint32_t arg3) {
  Record r;
  r.cycle = cycle;
  r.type = static_cast<uint16_t>(type);
  r.env = env;
  r.arg0 = arg0;
  r.arg1 = arg1;
  r.arg2 = arg2;
  r.arg3 = arg3;
  return r;
}

Record Mark(uint64_t cycle, uint16_t env, uint32_t req_id, uint32_t phase,
            uint32_t arg2 = 0, uint32_t arg3 = 0) {
  return Rec(Event::kAppMark, cycle, env, req_id, phase, arg2, arg3);
}

// Demux match: arg2 = delivery path, arg3 = the library-programmed tag.
Record Demux(uint64_t cycle, uint32_t req_id, uint32_t path = 1) {
  return Rec(Event::kDpfMatch, cycle, /*env=*/0, /*filter=*/3, 0, path, req_id);
}

TEST(PercentileTest, NearestRankClampedToSampleRange) {
  EXPECT_EQ(Percentile({}, 500), 0u);

  const std::vector<uint64_t> one = {42};
  EXPECT_EQ(Percentile(one, 500), 42u);
  EXPECT_EQ(Percentile(one, 999), 42u);

  // n=4: rank(p50) = ceil(0.5*4) = 2, rank(p99) = ceil(0.99*4) = 4.
  const std::vector<uint64_t> four = {10, 20, 30, 40};
  EXPECT_EQ(Percentile(four, 500), 20u);
  EXPECT_EQ(Percentile(four, 990), 40u);
  EXPECT_EQ(Percentile(four, 999), 40u);

  // n=1000: p999 is exactly the 999th sample, not the max.
  std::vector<uint64_t> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) {
    thousand[i] = i + 1;
  }
  EXPECT_EQ(Percentile(thousand, 500), 500u);
  EXPECT_EQ(Percentile(thousand, 999), 999u);
}

TEST(CollectorTest, FullTimelineSpansTelescopeToEndToEnd) {
  Collector collector;
  collector.Add(Mark(100, /*env=*/9, /*req=*/7, kPhaseClientSend));
  collector.Add(Demux(150, 7, /*path=*/1));
  collector.Add(Mark(200, /*env=*/5, 7, kPhaseEnter, /*shard=*/1, /*bytes=*/64));
  collector.Add(Mark(230, 5, 7, kPhaseStage, kStageParsed));
  collector.Add(Mark(300, 5, 7, kPhaseStage, kStageStored));
  collector.Add(Mark(320, 5, 7, kPhaseExit, /*status=*/200, /*resp|flags=*/128));
  EXPECT_EQ(collector.completed(Class::kAll), 0u);  // Waits for the ack.
  collector.Add(Mark(400, 9, 7, kPhaseClientAck, /*status=*/200));

  ASSERT_EQ(collector.completed(Class::kAll), 1u);
  EXPECT_EQ(collector.incomplete(), 0u);
  const RequestTimeline* t = collector.Find(7);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->complete);
  EXPECT_EQ(t->status, 200u);
  EXPECT_EQ(t->env, 5u);
  EXPECT_EQ(t->shard, 1u);
  EXPECT_EQ(t->path, 1u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kWire)], 50u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kRingWait)], 50u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kParse)], 30u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kStore)], 70u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kTx)], 20u);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kAck)], 80u);
  for (uint32_t s = 0; s < kSpanCount; ++s) {
    EXPECT_TRUE(t->seen[s]) << SpanName(static_cast<Span>(s));
  }
  // The attribution identity: observed spans sum to exactly last - first.
  EXPECT_EQ(t->Total(), 300u);
  EXPECT_EQ(t->Total(), t->last_cycle - t->first_cycle);
  EXPECT_TRUE(t->Is(Class::kGet));
  EXPECT_FALSE(t->Is(Class::kPut));
  EXPECT_FALSE(t->Is(Class::kShed));
}

TEST(CollectorTest, MissingBoundaryFoldsIntoTheNextObservedSpan) {
  // No parsed stage mark: enter -> stored telescopes into kStore, so the
  // sum identity still holds and no time is orphaned.
  Collector collector;
  collector.Add(Mark(100, 9, 8, kPhaseClientSend));
  collector.Add(Demux(150, 8));
  collector.Add(Mark(200, 5, 8, kPhaseEnter, 0));
  collector.Add(Mark(300, 5, 8, kPhaseStage, kStageStored));
  collector.Add(Mark(320, 5, 8, kPhaseExit, 200, 64));
  collector.Add(Mark(400, 9, 8, kPhaseClientAck, 200));

  const RequestTimeline* t = collector.Find(8);
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->seen[static_cast<uint32_t>(Span::kParse)]);
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kStore)], 100u);  // 200 -> 300.
  EXPECT_EQ(t->Total(), 300u);
  EXPECT_EQ(t->Total(), t->last_cycle - t->first_cycle);
}

TEST(CollectorTest, ServerOnlyTimelineFinalizesOnExit) {
  // No client marks at all (a foreign kernel's client, or a warmup probe):
  // the exit mark closes the timeline because nobody downstream will ack.
  Collector collector;
  collector.Add(Demux(150, 9));
  collector.Add(Mark(200, 5, 9, kPhaseEnter, 0));
  collector.Add(Mark(320, 5, 9, kPhaseExit, 200, 64));

  ASSERT_EQ(collector.completed(Class::kAll), 1u);
  const RequestTimeline* t = collector.Find(9);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->complete);
  EXPECT_FALSE(t->seen[static_cast<uint32_t>(Span::kWire)]);
  EXPECT_FALSE(t->seen[static_cast<uint32_t>(Span::kAck)]);
  EXPECT_TRUE(t->seen[static_cast<uint32_t>(Span::kRingWait)]);
  EXPECT_EQ(t->Total(), 170u);  // demux 150 -> exit 320.
}

TEST(CollectorTest, DiskWaitsJoinThroughTheOpenRequest) {
  Collector collector;
  collector.Add(Mark(200, 5, 11, kPhaseEnter, 0));
  // Two IOs submitted by the worker env while request 11 is open.
  collector.Add(Rec(Event::kDiskSubmit, 210, 5, 0, 0, /*disk req=*/70, 0));
  collector.Add(Rec(Event::kDiskComplete, 260, 0, /*disk req=*/70, 0, 0, 0));
  collector.Add(Rec(Event::kDiskSubmit, 270, 5, 0, 0, 71, 0));
  collector.Add(Rec(Event::kDiskComplete, 300, 0, 71, 0, 0, 0));
  // A third IO from an env with NO open request (journal sync, preload):
  // attributed to nobody.
  collector.Add(Rec(Event::kDiskSubmit, 310, 6, 0, 0, 72, 0));
  collector.Add(Rec(Event::kDiskComplete, 330, 0, 72, 0, 0, 0));
  collector.Add(Mark(340, 5, 11, kPhaseExit, 201, kFlagPut));

  const RequestTimeline* t = collector.Find(11);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->disk_ios, 2u);
  EXPECT_EQ(t->disk_cycles, 80u);  // (260-210) + (300-270).
  EXPECT_TRUE(t->Is(Class::kPut));
}

TEST(CollectorTest, ClassesFollowStatusFlagsAndPath) {
  Collector collector;
  // Shed: a 503 is neither a GET nor a PUT, whatever it parsed as.
  collector.Add(Mark(100, 5, 20, kPhaseEnter, 0));
  collector.Add(Mark(120, 5, 20, kPhaseExit, 503, kFlagPut));
  // Hot + stale GET.
  collector.Add(Mark(200, 5, 21, kPhaseEnter, 0));
  collector.Add(Mark(220, 5, 21, kPhaseExit, 200, kFlagHot | kFlagStale));
  // ASH fast path: no worker marks at all — send/demux(path 2)/ack only.
  collector.Add(Mark(300, 9, 22, kPhaseClientSend));
  collector.Add(Demux(310, 22, /*path=*/2));
  collector.Add(Mark(330, 9, 22, kPhaseClientAck, 200));

  const RequestTimeline* shed = collector.Find(20);
  ASSERT_NE(shed, nullptr);
  EXPECT_TRUE(shed->Is(Class::kShed));
  EXPECT_FALSE(shed->Is(Class::kGet));
  EXPECT_FALSE(shed->Is(Class::kPut));

  const RequestTimeline* hot = collector.Find(21);
  ASSERT_NE(hot, nullptr);
  EXPECT_TRUE(hot->Is(Class::kHot));
  EXPECT_TRUE(hot->Is(Class::kStale));
  EXPECT_TRUE(hot->Is(Class::kGet));

  const RequestTimeline* ash = collector.Find(22);
  ASSERT_NE(ash, nullptr);
  EXPECT_EQ(ash->path, 2u);
  EXPECT_TRUE(ash->Is(Class::kHot));  // Path is the hot-class witness.
  EXPECT_EQ(ash->status, 200u);       // Taken from the ack: no exit mark.
  EXPECT_EQ(collector.completed(Class::kAll), 3u);
  EXPECT_EQ(collector.completed(Class::kShed), 1u);
  EXPECT_EQ(collector.completed(Class::kHot), 2u);
}

TEST(CollectorTest, KeepsEveryTimelineAndFindPrefersNewest) {
  Collector collector;
  for (uint32_t id = 1; id <= 5; ++id) {
    collector.Add(Mark(id * 100, 5, id, kPhaseEnter, 0));
    collector.Add(Mark(id * 100 + 10, 5, id, kPhaseExit, 200, 0));
  }
  // A second machine reuses request id 3 later on.
  collector.Add(Mark(900, 5, 3, kPhaseEnter, 0), /*machine=*/1);
  collector.Add(Mark(950, 5, 3, kPhaseExit, 200, 0), /*machine=*/1);
  EXPECT_EQ(collector.completed(Class::kAll), 6u);
  ASSERT_EQ(collector.all().size(), 6u);
  EXPECT_EQ(collector.all().front().req_id, 1u);
  ASSERT_NE(collector.Find(1), nullptr);  // Nothing ages out.
  const RequestTimeline* three = collector.Find(3);
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(three->first_cycle, 900u);  // The newest timeline for the id.
  EXPECT_EQ(collector.Find(6), nullptr);
}

TEST(CollectorTest, RetransmitsAndDuplicateMarksDoNotMoveBoundaries) {
  Collector collector;
  collector.Add(Mark(100, 9, 30, kPhaseClientSend));
  collector.Add(Demux(150, 30, /*path=*/1));
  collector.Add(Demux(160, 30, /*path=*/0));  // Retransmit copy: ignored.
  collector.Add(Mark(200, 5, 30, kPhaseEnter, 0));
  collector.Add(Demux(210, 30, /*path=*/0));  // Post-pickup duplicate.
  collector.Add(Mark(220, 5, 30, kPhaseExit, 200, 0));
  collector.Add(Mark(280, 9, 30, kPhaseClientAck, 200));

  const RequestTimeline* t = collector.Find(30);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->path, 1u);  // The first, served copy.
  EXPECT_EQ(t->span[static_cast<uint32_t>(Span::kWire)], 50u);
  EXPECT_EQ(t->Total(), 180u);
}

TEST(CollectorTest, UntaggedDemuxAndUnknownAcksAreIgnored) {
  Collector collector;
  collector.Add(Demux(100, /*req=*/0));  // Tag 0 = untagged binding.
  collector.Add(Mark(200, 9, 40, kPhaseClientAck, 200));  // Never seen: drop.
  EXPECT_EQ(collector.completed(Class::kAll), 0u);
  EXPECT_EQ(collector.incomplete(), 0u);
}

TEST(AssembleTimelinesTest, PostMortemDecodeMatchesLiveAssembly) {
  std::vector<Record> records;
  records.push_back(Mark(100, 9, 50, kPhaseClientSend));
  records.push_back(Demux(130, 50));
  records.push_back(Mark(150, 5, 50, kPhaseEnter, 0));
  records.push_back(Mark(180, 5, 50, kPhaseExit, 200, 0));
  records.push_back(Mark(220, 9, 50, kPhaseClientAck, 200));
  // A request cut off mid-flight (the crash): enter but no close.
  records.push_back(Mark(300, 5, 51, kPhaseEnter, 0));

  const std::vector<RequestTimeline> timelines = AssembleTimelines(records);
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_EQ(timelines[0].req_id, 50u);
  EXPECT_EQ(timelines[0].Total(), 120u);

  const std::string text = FormatTimeline(timelines[0]);
  EXPECT_NE(text.find("req 50"), std::string::npos);
  EXPECT_NE(text.find("ring-wait"), std::string::npos);
  EXPECT_NE(text.find("120 cycles"), std::string::npos);
}

}  // namespace
}  // namespace xok::exos::reqtrace
