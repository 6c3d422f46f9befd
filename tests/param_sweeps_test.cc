// Parameterized property sweeps across the stack: the same invariant
// checked over a family of workload parameters.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/base/rand.h"
#include "src/core/aegis.h"
#include "src/dpf/dpf.h"
#include "src/dpf/mpf.h"
#include "src/dpf/pathfinder.h"
#include "src/dpf/tcpip_filters.h"
#include "src/exos/ipc.h"
#include "src/exos/stride.h"
#include "src/net/wire.h"

namespace xok {
namespace {

// --- Pipe roundtrips across message sizes ---

class PipeSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PipeSizeSweep, MessagesSurviveIntact) {
  const size_t size = GetParam();
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "psz"});
  aegis::Aegis kernel(machine);
  exos::SharedBufferDesc desc;
  bool ready = false;
  exos::PipePeer writer_peer;
  exos::PipePeer reader_peer;
  constexpr hw::Vaddr kRingVa = 0x5000000;
  std::vector<uint8_t> message(size);
  for (size_t i = 0; i < size; ++i) {
    message[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  std::vector<uint8_t> received;

  exos::Process writer(kernel, [&](exos::Process& p) {
    desc = *exos::CreateSharedBuffer(p);
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    exos::PipeEndpoint out(p, kRingVa, writer_peer, false);
    for (int round = 0; round < 3; ++round) {
      ASSERT_EQ(out.WriteMessage(message), Status::kOk);
    }
  });
  exos::Process reader(kernel, [&](exos::Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    exos::PipeEndpoint in(p, kRingVa, reader_peer, false);
    for (int round = 0; round < 3; ++round) {
      std::vector<uint8_t> buf(size + 8);
      Result<uint32_t> len = in.ReadMessage(buf);
      ASSERT_TRUE(len.ok());
      ASSERT_EQ(*len, size);
      buf.resize(*len);
      received = buf;
      ASSERT_EQ(received, message);
    }
  });
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel.Run();
}

INSTANTIATE_TEST_SUITE_P(Sizes, PipeSizeSweep,
                         ::testing::Values(0, 1, 3, 4, 5, 64, 555, 2048, 5000));

// --- Stride scheduler proportions across ticket ratios ---

using StrideParam = std::tuple<uint32_t, uint32_t, uint32_t>;

class StrideSweep : public ::testing::TestWithParam<StrideParam> {};

TEST_P(StrideSweep, AllocationsMatchTickets) {
  const auto [t0, t1, t2] = GetParam();
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "ssw"});
  aegis::Aegis kernel(machine);
  bool stop = false;
  std::array<std::unique_ptr<exos::Process>, 3> workers;
  for (int i = 0; i < 3; ++i) {
    workers[i] = std::make_unique<exos::Process>(
        kernel,
        [&stop](exos::Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        exos::Process::Options{.slices = 0, .demand_zero = true});
    ASSERT_TRUE(workers[i]->ok());
  }
  std::vector<uint64_t> allocations;
  constexpr uint32_t kSlices = 240;
  exos::Process sched(kernel, [&](exos::Process& p) {
    exos::StrideScheduler stride(p.kernel());
    stride.AddClient(workers[0]->id(), t0);
    stride.AddClient(workers[1]->id(), t1);
    stride.AddClient(workers[2]->id(), t2);
    stride.RunSlices(kSlices);
    allocations = stride.allocations();
    stop = true;
  });
  ASSERT_TRUE(sched.ok());
  kernel.Run();

  const double total = t0 + t1 + t2;
  const uint32_t tickets[3] = {t0, t1, t2};
  for (int i = 0; i < 3; ++i) {
    const double ideal = kSlices * tickets[i] / total;
    EXPECT_NEAR(static_cast<double>(allocations[i]), ideal, 3.0)
        << "client " << i << " tickets " << t0 << ":" << t1 << ":" << t2;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, StrideSweep,
                         ::testing::Values(StrideParam{1, 1, 1}, StrideParam{3, 2, 1},
                                           StrideParam{5, 3, 2}, StrideParam{10, 1, 1},
                                           StrideParam{7, 5, 4}, StrideParam{60, 30, 10}));

// --- VM correctness under TLB pressure, across working-set sizes ---

class WorkingSetSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorkingSetSweep, DataSurvivesCapacityMisses) {
  const int pages = GetParam();
  hw::Machine machine(
      hw::Machine::Config{.phys_pages = static_cast<uint32_t>(pages + 64), .name = "ws"});
  aegis::Aegis kernel(machine);
  exos::Process proc(kernel, [&](exos::Process& p) {
    constexpr hw::Vaddr kBase = 0x1000000;
    for (int i = 0; i < pages; ++i) {
      ASSERT_EQ(machine.StoreWord(kBase + i * hw::kPageBytes, 0xabc0 + i), Status::kOk);
    }
    // Random access pattern to defeat any residual locality.
    SplitMix64 rng(pages);
    for (int access = 0; access < pages * 4; ++access) {
      const int i = static_cast<int>(rng.NextBelow(pages));
      Result<uint32_t> v = machine.LoadWord(kBase + i * hw::kPageBytes);
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(*v, 0xabc0u + i);
    }
    (void)p;
  });
  ASSERT_TRUE(proc.ok());
  kernel.Run();
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkingSetSweep, ::testing::Values(1, 16, 63, 64, 65, 200, 400));

// --- Classifier agreement across filter-set sizes ---

class FilterCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(FilterCountSweep, EnginesAgreeAndDpfStaysCheapest) {
  const int n = GetParam();
  dpf::DpfEngine dpf_engine;
  dpf::MpfEngine mpf;
  dpf::PathfinderEngine pathfinder;
  for (int i = 0; i < n; ++i) {
    const auto spec = dpf::TcpConnectionFilter(10, 20, static_cast<uint16_t>(1000 + i),
                                               static_cast<uint16_t>(2000 + i));
    ASSERT_TRUE(dpf_engine.Insert(spec).ok());
    ASSERT_TRUE(mpf.Insert(spec).ok());
    ASSERT_TRUE(pathfinder.Insert(spec).ok());
  }
  SplitMix64 rng(n);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> frame(64, 0);
    net::PutBe16(frame, net::kEthTypeOff, net::kEthTypeIpv4);
    frame[net::kIpVersionIhlOff] = 0x45;
    frame[net::kIpProtoOff] = net::kIpProtoTcp;
    net::PutBe32(frame, net::kIpSrcOff, 10);
    net::PutBe32(frame, net::kIpDstOff, 20);
    const uint16_t conn = static_cast<uint16_t>(rng.NextBelow(n + 2));  // Sometimes no match.
    net::PutBe16(frame, net::kTcpSrcPortOff, 1000 + conn);
    net::PutBe16(frame, net::kTcpDstPortOff, 2000 + conn);
    const auto a = dpf_engine.Classify(frame);
    ASSERT_EQ(a, mpf.Classify(frame));
    ASSERT_EQ(a, pathfinder.Classify(frame));
  }
  if (n >= 4) {
    EXPECT_LT(dpf_engine.sim_cycles(), mpf.sim_cycles());
    EXPECT_LT(dpf_engine.sim_cycles(), pathfinder.sim_cycles());
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FilterCountSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

// --- Internet checksum properties across sizes ---

class CksumSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CksumSweep, AppendingChecksumVerifiesToZero) {
  const size_t size = GetParam();
  SplitMix64 rng(size);
  std::vector<uint8_t> data(size);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Odd-length data is implicitly padded with a zero byte; append that pad
  // explicitly (it does not change the sum), then the checksum: the result
  // verifies to zero.
  if (size % 2 == 1) {
    std::vector<uint8_t> padded = data;
    padded.push_back(0);
    ASSERT_EQ(net::InternetChecksum(padded), net::InternetChecksum(data));
    data = std::move(padded);
  }
  const uint16_t cksum = net::InternetChecksum(data);
  data.push_back(static_cast<uint8_t>(cksum >> 8));
  data.push_back(static_cast<uint8_t>(cksum & 0xff));
  EXPECT_EQ(net::InternetChecksum(data), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CksumSweep,
                         ::testing::Values(0, 1, 2, 3, 20, 59, 60, 1000, 1471, 1472));

}  // namespace
}  // namespace xok
