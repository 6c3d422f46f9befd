#include "src/dpf/dpf.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "src/base/rand.h"
#include "src/dpf/mpf.h"
#include "src/dpf/pathfinder.h"
#include "src/dpf/tcpip_filters.h"
#include "src/net/wire.h"

namespace xok::dpf {
namespace {

std::vector<uint8_t> TcpPacket(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port,
                               uint16_t dst_port) {
  std::vector<uint8_t> frame(64, 0);
  net::PutBe16(frame, net::kEthTypeOff, net::kEthTypeIpv4);
  frame[net::kIpVersionIhlOff] = 0x45;
  frame[net::kIpProtoOff] = net::kIpProtoTcp;
  net::PutBe32(frame, net::kIpSrcOff, src_ip);
  net::PutBe32(frame, net::kIpDstOff, dst_ip);
  net::PutBe16(frame, net::kTcpSrcPortOff, src_port);
  net::PutBe16(frame, net::kTcpDstPortOff, dst_port);
  return frame;
}

// The three engines under one test suite: they must agree everywhere.
enum class Kind { kDpf, kMpf, kPathfinder };

std::unique_ptr<ClassifierEngine> Make(Kind kind) {
  switch (kind) {
    case Kind::kDpf:
      return std::make_unique<DpfEngine>();
    case Kind::kMpf:
      return std::make_unique<MpfEngine>();
    case Kind::kPathfinder:
      return std::make_unique<PathfinderEngine>();
  }
  return nullptr;
}

class EngineTest : public ::testing::TestWithParam<Kind> {
 protected:
  EngineTest() : engine_(Make(GetParam())) {}
  std::unique_ptr<ClassifierEngine> engine_;
};

TEST_P(EngineTest, EmptyEngineMatchesNothing) {
  EXPECT_EQ(engine_->Classify(TcpPacket(1, 2, 3, 4)), std::nullopt);
}

TEST_P(EngineTest, SingleFilterMatchesItsConnectionOnly) {
  Result<FilterId> id = engine_->Insert(TcpConnectionFilter(10, 20, 1000, 2000));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 1000, 2000)), *id);
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 1000, 2001)), std::nullopt);
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 21, 1000, 2000)), std::nullopt);
}

TEST_P(EngineTest, TenFiltersDemultiplexCorrectly) {
  std::vector<FilterId> ids;
  for (uint16_t i = 0; i < 10; ++i) {
    Result<FilterId> id =
        engine_->Insert(TcpConnectionFilter(10, 20, 1000 + i, 2000 + i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 1000 + i, 2000 + i)), ids[i]) << i;
  }
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 999, 1999)), std::nullopt);
}

TEST_P(EngineTest, DuplicateFilterRejected) {
  ASSERT_TRUE(engine_->Insert(UdpPortFilter(53)).ok());
  EXPECT_EQ(engine_->Insert(UdpPortFilter(53)).status(), Status::kErrAlreadyExists);
}

TEST_P(EngineTest, RemoveStopsMatching) {
  Result<FilterId> id = engine_->Insert(UdpPortFilter(53));
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(engine_->Remove(*id), Status::kOk);
  std::vector<uint8_t> payload = {1, 2, 3};
  auto frame = net::BuildUdpFrame(0xbb, 0xaa, 1, 2, 999, 53, payload);
  EXPECT_EQ(engine_->Classify(frame), std::nullopt);
  EXPECT_EQ(engine_->Remove(*id), Status::kErrNotFound);
}

TEST_P(EngineTest, RemoveOneOfManyLeavesOthers) {
  Result<FilterId> a = engine_->Insert(TcpConnectionFilter(10, 20, 1, 2));
  Result<FilterId> b = engine_->Insert(TcpConnectionFilter(10, 20, 3, 4));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(engine_->Remove(*a), Status::kOk);
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 1, 2)), std::nullopt);
  EXPECT_EQ(engine_->Classify(TcpPacket(10, 20, 3, 4)), *b);
}

TEST_P(EngineTest, MostSpecificFilterWins) {
  // A coarse UDP port filter and a full connection filter for the same
  // port: the connection filter (6 atoms vs 3) must win for its packets.
  Result<FilterId> coarse = engine_->Insert(UdpPortFilter(53));
  FilterSpec fine = UdpPortFilter(53);
  fine.atoms.push_back(Atom{net::kIpSrcOff, 4, 0xffffffffu, 777});
  Result<FilterId> specific = engine_->Insert(fine);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(specific.ok());

  std::vector<uint8_t> payload = {1};
  auto from_777 = net::BuildUdpFrame(0xbb, 0xaa, 777, 2, 9, 53, payload);
  auto from_other = net::BuildUdpFrame(0xbb, 0xaa, 778, 2, 9, 53, payload);
  EXPECT_EQ(engine_->Classify(from_777), *specific);
  EXPECT_EQ(engine_->Classify(from_other), *coarse);
}

TEST_P(EngineTest, ShortPacketNeverMatchesDeepFilter) {
  ASSERT_TRUE(engine_->Insert(TcpConnectionFilter(10, 20, 1, 2)).ok());
  std::vector<uint8_t> tiny = {0x08, 0x00};
  EXPECT_EQ(engine_->Classify(tiny), std::nullopt);
}

TEST_P(EngineTest, InvalidFilterRejected) {
  FilterSpec bad;
  EXPECT_EQ(engine_->Insert(bad).status(), Status::kErrInvalidArgs);  // Empty.
  bad.atoms = {Atom{0, 3, 0xff, 0}};                                  // Width 3.
  EXPECT_EQ(engine_->Insert(bad).status(), Status::kErrInvalidArgs);
  bad.atoms = {Atom{0, 1, 0x0f, 0x10}};  // Value outside mask.
  EXPECT_EQ(engine_->Insert(bad).status(), Status::kErrInvalidArgs);
}

TEST_P(EngineTest, ClassifyChargesSimulatedCycles) {
  ASSERT_TRUE(engine_->Insert(UdpPortFilter(53)).ok());
  const uint64_t before = engine_->sim_cycles();
  std::vector<uint8_t> payload = {1};
  (void)engine_->Classify(net::BuildUdpFrame(0xbb, 0xaa, 1, 2, 9, 53, payload));
  EXPECT_GT(engine_->sim_cycles(), before);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::Values(Kind::kDpf, Kind::kMpf, Kind::kPathfinder),
                         [](const ::testing::TestParamInfo<Kind>& param_info) {
                           switch (param_info.param) {
                             case Kind::kDpf:
                               return "DPF";
                             case Kind::kMpf:
                               return "MPF";
                             case Kind::kPathfinder:
                               return "PATHFINDER";
                           }
                           return "unknown";
                         });

// Differential property test: on random packets and random filter sets, all
// three engines and the reference evaluator agree exactly.
TEST(EngineEquivalence, PropertyAllEnginesAgreeOnRandomTraffic) {
  SplitMix64 rng(2026);
  for (int round = 0; round < 20; ++round) {
    DpfEngine dpf;
    MpfEngine mpf;
    PathfinderEngine pathfinder;
    std::vector<FilterSpec> specs;
    const int n_filters = 1 + static_cast<int>(rng.NextBelow(12));
    for (int i = 0; i < n_filters; ++i) {
      FilterSpec spec;
      if (rng.NextBelow(2) == 0) {
        spec = TcpConnectionFilter(static_cast<uint32_t>(rng.NextBelow(4)),
                                   static_cast<uint32_t>(rng.NextBelow(4)),
                                   static_cast<uint16_t>(rng.NextBelow(4)),
                                   static_cast<uint16_t>(rng.NextBelow(4)));
      } else {
        spec = UdpPortFilter(static_cast<uint16_t>(rng.NextBelow(6)));
      }
      Result<FilterId> a = dpf.Insert(spec);
      Result<FilterId> b = mpf.Insert(spec);
      Result<FilterId> c = pathfinder.Insert(spec);
      ASSERT_EQ(a.ok(), b.ok());
      ASSERT_EQ(a.ok(), c.ok());
      if (a.ok()) {
        ASSERT_EQ(*a, *b);
        ASSERT_EQ(*a, *c);
        specs.push_back(spec);
      }
    }
    for (int p = 0; p < 200; ++p) {
      std::vector<uint8_t> pkt;
      if (rng.NextBelow(2) == 0) {
        pkt = TcpPacket(static_cast<uint32_t>(rng.NextBelow(4)),
                        static_cast<uint32_t>(rng.NextBelow(4)),
                        static_cast<uint16_t>(rng.NextBelow(4)),
                        static_cast<uint16_t>(rng.NextBelow(4)));
      } else {
        std::vector<uint8_t> payload = {0};
        pkt = net::BuildUdpFrame(1, 2, static_cast<uint32_t>(rng.NextBelow(4)), 3,
                                 static_cast<uint16_t>(rng.NextBelow(6)),
                                 static_cast<uint16_t>(rng.NextBelow(6)), payload);
      }
      auto a = dpf.Classify(pkt);
      auto b = mpf.Classify(pkt);
      auto c = pathfinder.Classify(pkt);
      ASSERT_EQ(a, b) << "DPF vs MPF, round " << round << " packet " << p;
      ASSERT_EQ(a, c) << "DPF vs PATHFINDER, round " << round << " packet " << p;
      // And the reference evaluator agrees a match exists where claimed.
      if (a.has_value()) {
        EXPECT_TRUE(Matches(specs[*a], pkt));
      } else {
        for (const FilterSpec& spec : specs) {
          EXPECT_FALSE(Matches(spec, pkt));
        }
      }
    }
  }
}

// DPF-specific: the ten-filter workload must merge into one trie (this is
// the source of the Table 7 win) and classification cost must be far below
// the interpreted engines'.
TEST(DpfMerging, TenTcpFiltersShareOneTrie) {
  DpfEngine dpf;
  for (uint16_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(dpf.Insert(TcpConnectionFilter(10, 20, 1000 + i, 2000 + i)).ok());
  }
  EXPECT_EQ(dpf.overflow_filters(), 0u);
  // Shared prefix: eth/proto/src/dst states are common, ports diverge.
  // 4 shared states + 10 * 2 port states + 10 leaves = well under 10 * 6.
  EXPECT_LT(dpf.trie_states(), 40u);
}

TEST(DpfMerging, StructurallyDifferentFilterFallsToOverflowButStillMatches) {
  DpfEngine dpf;
  ASSERT_TRUE(dpf.Insert(TcpConnectionFilter(10, 20, 1, 2)).ok());
  FilterSpec odd;
  odd.atoms = {Atom{net::kIpTtlOff, 1, 0xff, 64}};  // Different first key.
  Result<FilterId> id = dpf.Insert(odd);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dpf.overflow_filters(), 1u);
  auto pkt = TcpPacket(1, 1, 1, 1);
  pkt[net::kIpTtlOff] = 64;
  EXPECT_EQ(dpf.Classify(pkt), *id);
}

TEST(DpfCost, MergedClassificationBeatsInterpretersBy10x) {
  DpfEngine dpf;
  MpfEngine mpf;
  PathfinderEngine pathfinder;
  for (uint16_t i = 0; i < 10; ++i) {
    FilterSpec spec = TcpConnectionFilter(10, 20, 1000 + i, 2000 + i);
    ASSERT_TRUE(dpf.Insert(spec).ok());
    ASSERT_TRUE(mpf.Insert(spec).ok());
    ASSERT_TRUE(pathfinder.Insert(spec).ok());
  }
  auto pkt = TcpPacket(10, 20, 1005, 2005);
  (void)dpf.Classify(pkt);
  (void)mpf.Classify(pkt);
  (void)pathfinder.Classify(pkt);
  EXPECT_GT(mpf.sim_cycles(), 10 * dpf.sim_cycles());
  EXPECT_GT(pathfinder.sim_cycles(), 5 * dpf.sim_cycles());
  EXPECT_GT(mpf.sim_cycles(), pathfinder.sim_cycles());
}

TEST(DpfMasking, SubnetFiltersShareTrieAndMatchCorrectly) {
  // Filters on different /8 subnets: same (offset, width, mask) atom with
  // different values — exactly the shape the merge trie dispatches on.
  DpfEngine dpf;
  auto subnet_filter = [](uint8_t net) {
    FilterSpec spec;
    spec.atoms = {
        Atom{net::kEthTypeOff, 2, 0xffff, net::kEthTypeIpv4},
        Atom{net::kIpProtoOff, 1, 0xff, net::kIpProtoUdp},
        Atom{net::kIpSrcOff, 4, 0xff000000u, static_cast<uint32_t>(net) << 24},
    };
    return spec;
  };
  Result<FilterId> net10 = dpf.Insert(subnet_filter(10));
  Result<FilterId> net172 = dpf.Insert(subnet_filter(172));
  ASSERT_TRUE(net10.ok());
  ASSERT_TRUE(net172.ok());
  EXPECT_EQ(dpf.overflow_filters(), 0u);  // Shared masks merge.

  std::vector<uint8_t> payload = {1};
  auto from = [&](uint32_t src_ip) {
    return net::BuildUdpFrame(0xbb, 0xaa, src_ip, 2, 9, 53, payload);
  };
  EXPECT_EQ(dpf.Classify(from(0x0a010203)), *net10);   // 10.1.2.3
  EXPECT_EQ(dpf.Classify(from(0xac100101)), *net172);  // 172.16.1.1
  EXPECT_EQ(dpf.Classify(from(0xc0a80101)), std::nullopt);  // 192.168.1.1
}

TEST(DpfCompile, SingleFilterProgramVerifies) {
  FilterSpec spec = TcpConnectionFilter(1, 2, 3, 4);
  vcode::Program program = DpfEngine::CompileOne(spec, 7);
  EXPECT_EQ(vcode::Verify(program, 64, 0), Status::kOk);
  auto pkt = TcpPacket(1, 2, 3, 4);
  vcode::ExecEnv env{pkt, {}, nullptr};
  EXPECT_EQ(vcode::Execute(program, env).value, 7u);
  auto miss = TcpPacket(1, 2, 3, 5);
  vcode::ExecEnv env2{miss, {}, nullptr};
  EXPECT_EQ(vcode::Execute(program, env2).value, vcode::kRejected);
}

// --- Differential test against a brute-force reference ---

// The match policy spelled out: the deepest live filter whose atoms all
// hold, the lowest id among equals (`live` iterates in id order).
std::optional<FilterId> BruteForce(const std::map<FilterId, FilterSpec>& live,
                                   std::span<const uint8_t> pkt) {
  std::optional<FilterId> best;
  size_t best_depth = 0;
  for (const auto& [id, spec] : live) {
    if (Matches(spec, pkt) && (!best || spec.atoms.size() > best_depth)) {
      best = id;
      best_depth = spec.atoms.size();
    }
  }
  return best;
}

// A chain of four atom keys: filters that test a prefix of it merge into
// one trie, with a 64-way fan-out at the third key.
constexpr Atom kChain[] = {
    Atom{net::kEthTypeOff, 2, 0xffff, 0},
    Atom{net::kIpProtoOff, 1, 0xff, 0},
    Atom{net::kUdpDstPortOff, 2, 0xffff, 0},
    Atom{net::kUdpPayloadOff, 1, 0x0f, 0},
};
constexpr uint32_t kEthTypes[] = {net::kEthTypeIpv4, 0x0806};
constexpr uint32_t kProtos[] = {net::kIpProtoUdp, net::kIpProtoTcp};

FilterSpec ChainFilter(SplitMix64& rng) {
  FilterSpec spec;
  const size_t depth = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < depth; ++i) {
    Atom atom = kChain[i];
    switch (i) {
      case 0: atom.value = kEthTypes[rng.NextBelow(2)]; break;
      case 1: atom.value = kProtos[rng.NextBelow(2)]; break;
      case 2: atom.value = static_cast<uint32_t>(rng.NextBelow(64)); break;
      default: atom.value = static_cast<uint32_t>(rng.NextBelow(4)); break;
    }
    spec.atoms.push_back(atom);
  }
  return spec;
}

// Shapes that leave the chain: most test a different key where the trie
// already has one and fall to the overflow chain; a few extend the trie.
FilterSpec DivergentFilter(SplitMix64& rng) {
  FilterSpec spec;
  switch (rng.NextBelow(3)) {
    case 0:
      spec.atoms = {Atom{net::kIpTtlOff, 1, 0xff, static_cast<uint32_t>(rng.NextBelow(2))}};
      break;
    case 1:
      spec.atoms = {Atom{kChain[0].offset, 2, 0xffff, kEthTypes[rng.NextBelow(2)]},
                    Atom{net::kUdpDstPortOff, 2, 0x00ff,
                         static_cast<uint32_t>(rng.NextBelow(64))}};
      break;
    default:
      spec.atoms = {Atom{kChain[0].offset, 2, 0xffff, net::kEthTypeIpv4},
                    Atom{kChain[1].offset, 1, 0xff, net::kIpProtoUdp},
                    Atom{net::kUdpDstPortOff, 2, 0xffff,
                         static_cast<uint32_t>(rng.NextBelow(64))},
                    Atom{net::kUdpPayloadOff, 1, 0x0f, static_cast<uint32_t>(rng.NextBelow(4))},
                    Atom{net::kIpTtlOff, 1, 0xff, static_cast<uint32_t>(rng.NextBelow(2))}};
      break;
  }
  return spec;
}

std::vector<uint8_t> ChainPacket(SplitMix64& rng) {
  std::vector<uint8_t> pkt(net::kUdpPayloadOff + 4, 0);
  net::PutBe16(pkt, net::kEthTypeOff, static_cast<uint16_t>(kEthTypes[rng.NextBelow(2)]));
  pkt[net::kIpProtoOff] = static_cast<uint8_t>(kProtos[rng.NextBelow(2)]);
  pkt[net::kIpTtlOff] = static_cast<uint8_t>(rng.NextBelow(2));
  uint32_t port = static_cast<uint32_t>(rng.NextBelow(66));
  if (rng.NextBelow(8) == 0) {
    port |= 0x100;  // Equal to a filter's port under the 0x00ff mask only.
  }
  net::PutBe16(pkt, net::kUdpDstPortOff, static_cast<uint16_t>(port));
  pkt[net::kUdpPayloadOff] = static_cast<uint8_t>(rng.NextBelow(256));
  if (rng.NextBelow(10) == 0) {
    pkt.resize(rng.NextBelow(pkt.size()));  // Short: deep fields unreadable.
  }
  return pkt;
}

TEST(DpfDifferential, AgreesWithBruteForceUnderChurnAndWideFanOut) {
  SplitMix64 rng(0x64f);
  DpfEngine dpf;
  std::map<FilterId, FilterSpec> live;
  std::vector<FilterSpec> removed;

  // One level with 64-way fan-out, inserted out of order.
  std::vector<uint32_t> ports(64);
  for (uint32_t i = 0; i < 64; ++i) {
    ports[i] = i;
  }
  for (uint32_t i = 63; i > 0; --i) {
    std::swap(ports[i], ports[rng.NextBelow(i + 1)]);
  }
  for (uint32_t port : ports) {
    FilterSpec spec;
    spec.atoms = {kChain[0], kChain[1], kChain[2]};
    spec.atoms[0].value = net::kEthTypeIpv4;
    spec.atoms[1].value = net::kIpProtoUdp;
    spec.atoms[2].value = port;
    Result<FilterId> id = dpf.Insert(spec);
    ASSERT_TRUE(id.ok());
    live.emplace(*id, spec);
  }
  EXPECT_EQ(dpf.overflow_filters(), 0u);

  auto insert = [&](const FilterSpec& spec) {
    bool duplicate = false;
    for (const auto& [id, other] : live) {
      duplicate = duplicate || other.atoms == spec.atoms;
    }
    Result<FilterId> id = dpf.Insert(spec);
    if (duplicate) {
      ASSERT_EQ(id.status(), Status::kErrAlreadyExists);
    } else {
      ASSERT_TRUE(id.ok());
      live.emplace(*id, spec);
    }
  };
  for (int step = 0; step < 1500; ++step) {
    const uint64_t op = rng.NextBelow(20);
    if (op < 8) {
      insert(ChainFilter(rng));
    } else if (op < 11) {
      insert(DivergentFilter(rng));
    } else if (op < 16 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(live.size())));
      ASSERT_EQ(dpf.Remove(it->first), Status::kOk);
      EXPECT_EQ(dpf.Remove(it->first), Status::kErrNotFound);
      removed.push_back(it->second);
      live.erase(it);
    } else if (!removed.empty()) {
      insert(removed[rng.NextBelow(removed.size())]);  // Re-insert.
    }
    for (int p = 0; p < 8; ++p) {
      const std::vector<uint8_t> pkt = ChainPacket(rng);
      ASSERT_EQ(dpf.Classify(pkt), BruteForce(live, pkt)) << "step " << step << " packet " << p;
    }
  }
  EXPECT_GT(live.size(), 64u);
  EXPECT_GT(dpf.overflow_filters(), 0u);
}

TEST(DpfOverflow, ChurnedDivergentFilterCostsNothingOnceRemoved) {
  // The chain walks live filters only: after 10,000 bind/unbind rounds of
  // a filter the trie cannot hold, an engine classifies exactly like a
  // fresh one that only ever held the live filters, cycle for cycle.
  FilterSpec ttl;
  ttl.atoms = {Atom{net::kIpTtlOff, 1, 0xff, 64}};
  FilterSpec churn;
  churn.atoms = {Atom{net::kIpTtlOff, 1, 0xff, 65}};
  auto load_live = [&](DpfEngine& engine) {
    for (uint16_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine.Insert(TcpConnectionFilter(10, 20, 1000 + i, 2000 + i)).ok());
    }
    ASSERT_TRUE(engine.Insert(ttl).ok());
  };
  DpfEngine churned;
  load_live(churned);
  for (int round = 0; round < 10000; ++round) {
    Result<FilterId> id = churned.Insert(churn);
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(churned.Remove(*id), Status::kOk);
  }
  DpfEngine fresh;
  load_live(fresh);
  EXPECT_EQ(churned.overflow_filters(), 1u);
  EXPECT_EQ(churned.trie_states(), fresh.trie_states());

  const uint64_t churned_before = churned.sim_cycles();
  const uint64_t fresh_before = fresh.sim_cycles();
  for (uint16_t i = 0; i < 12; ++i) {
    auto pkt = TcpPacket(10, 20, 1000 + i, 2000 + i);
    pkt[net::kIpTtlOff] = static_cast<uint8_t>(63 + i % 4);
    ASSERT_EQ(churned.Classify(pkt), fresh.Classify(pkt)) << i;
  }
  EXPECT_EQ(churned.sim_cycles() - churned_before, fresh.sim_cycles() - fresh_before);
}

TEST(DpfCost, FixedClassifySequenceChargesPinnedCycles) {
  // The host's fan-out representation must not move a simulated cycle: a
  // fixed mixed workload (trie hits and misses at every depth, a wide
  // fan-out, short packets, overflow filters) charges the pinned total.
  DpfEngine dpf;
  for (uint16_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(dpf.Insert(TcpConnectionFilter(10, 20, 1000 + i, 2000 + i)).ok());
  }
  for (uint16_t port = 0; port < 64; ++port) {
    ASSERT_TRUE(dpf.Insert(UdpPortFilter(port)).ok());
  }
  SplitMix64 rng(7);
  for (int i = 0; i < 40; ++i) {
    (void)dpf.Insert(DivergentFilter(rng));  // Duplicates are refused.
  }
  for (int p = 0; p < 2000; ++p) {
    std::vector<uint8_t> pkt;
    switch (rng.NextBelow(3)) {
      case 0: {
        const auto src_port = static_cast<uint16_t>(995 + rng.NextBelow(20));
        const auto dst_port = static_cast<uint16_t>(1995 + rng.NextBelow(20));
        pkt = TcpPacket(10, 20, src_port, dst_port);
        break;
      }
      case 1:
        pkt = ChainPacket(rng);
        break;
      default:
        pkt = net::BuildUdpFrame(1, 2, 3, 4, 9, static_cast<uint16_t>(rng.NextBelow(70)),
                                 std::vector<uint8_t>{1});
        break;
    }
    (void)dpf.Classify(pkt);
  }
  EXPECT_EQ(dpf.sim_cycles(), 379296u);
}

}  // namespace
}  // namespace xok::dpf
