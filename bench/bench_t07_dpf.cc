// Table 7: message classification with ten TCP/IP filters — DPF (dynamic
// code generation + filter merging) vs MPF-style and PATHFINDER-style
// interpreted engines. As in the paper, the engines run "in user space":
// no kernel is involved; this isolates the classifier.
#include <memory>

#include "bench/bench_util.h"
#include "src/base/rand.h"
#include "src/dpf/dpf.h"
#include "src/dpf/mpf.h"
#include "src/dpf/pathfinder.h"
#include "src/dpf/tcpip_filters.h"

namespace xok::bench {
namespace {

using dpf::ClassifierEngine;

std::vector<uint8_t> TcpPacket(uint16_t src_port, uint16_t dst_port) {
  std::vector<uint8_t> frame(64, 0);
  net::PutBe16(frame, net::kEthTypeOff, net::kEthTypeIpv4);
  frame[net::kIpVersionIhlOff] = 0x45;
  frame[net::kIpProtoOff] = net::kIpProtoTcp;
  net::PutBe32(frame, net::kIpSrcOff, 10);
  net::PutBe32(frame, net::kIpDstOff, 20);
  net::PutBe16(frame, net::kTcpSrcPortOff, src_port);
  net::PutBe16(frame, net::kTcpDstPortOff, dst_port);
  return frame;
}

void InstallTenFilters(ClassifierEngine& engine) {
  for (uint16_t i = 0; i < 10; ++i) {
    if (!engine.Insert(dpf::TcpConnectionFilter(10, 20, 1000 + i, 2000 + i)).ok()) {
      std::abort();
    }
  }
}

// Simulated cost per classification over a deterministic packet mix.
double SimUsPerClassify(ClassifierEngine& engine) {
  SplitMix64 rng(7);
  constexpr int kIters = 10'000;
  const uint64_t before = engine.sim_cycles();
  for (int i = 0; i < kIters; ++i) {
    const uint16_t conn = static_cast<uint16_t>(rng.NextBelow(10));
    auto pkt = TcpPacket(1000 + conn, 2000 + conn);
    benchmark::DoNotOptimize(engine.Classify(pkt));
  }
  return Us(engine.sim_cycles() - before) / kIters;
}

void PrintPaperTables() {
  dpf::MpfEngine mpf;
  dpf::PathfinderEngine pathfinder;
  dpf::DpfEngine dpf_engine;
  InstallTenFilters(mpf);
  InstallTenFilters(pathfinder);
  InstallTenFilters(dpf_engine);

  const double mpf_us = SimUsPerClassify(mpf);
  const double pf_us = SimUsPerClassify(pathfinder);
  const double dpf_us = SimUsPerClassify(dpf_engine);

  Table table("Table 7: 10-filter TCP/IP classification (us, simulated)",
              {"engine", "per packet", "vs DPF"});
  table.AddRow({"MPF (interpreted)", FmtUs(mpf_us), FmtX(mpf_us / dpf_us)});
  table.AddRow({"PATHFINDER (pattern)", FmtUs(pf_us), FmtX(pf_us / dpf_us)});
  table.AddRow({"DPF (compiled+merged)", FmtUs(dpf_us), "1.0x"});
  table.Print();
  std::printf("Paper shape check: DPF ~20x MPF, ~10x PATHFINDER (paper: 35.5/19.0/1.5 us\n"
              "on a DECstation 5000/200).\n");
}

// Wall time comes from google-benchmark's loop; sim_us is the fixed-mix
// SimUsPerClassify value, so it does not depend on the iteration count.
template <typename Engine>
void BM_Classify(benchmark::State& state) {
  Engine engine;
  InstallTenFilters(engine);
  const double sim_us = SimUsPerClassify(engine);
  SplitMix64 rng(7);
  std::vector<std::vector<uint8_t>> packets;
  for (int i = 0; i < 64; ++i) {
    const uint16_t conn = static_cast<uint16_t>(rng.NextBelow(10));
    packets.push_back(TcpPacket(1000 + conn, 2000 + conn));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Classify(packets[i++ & 63]));
  }
  state.counters["sim_us"] = sim_us;
}
BENCHMARK(BM_Classify<dpf::MpfEngine>)->Name("BM_Classify_MPF");
BENCHMARK(BM_Classify<dpf::PathfinderEngine>)->Name("BM_Classify_PATHFINDER");
BENCHMARK(BM_Classify<dpf::DpfEngine>)->Name("BM_Classify_DPF");

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
