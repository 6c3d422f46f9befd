// Zero-copy packet rings: ring-view geometry, kernel deposit/doorbell/
// drop semantics, TX batching, packet-syscall error paths, crash-safe
// teardown with an environment killed mid-drain, and the ExOS ring-mode
// UDP sockets end to end.
#include "src/net/pktring.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/aegis.h"
#include "src/dpf/tcpip_filters.h"
#include "src/exos/process.h"
#include "src/exos/udp.h"
#include "src/hw/nic.h"
#include "src/hw/world.h"
#include "src/net/wire.h"

namespace xok {
namespace {

using aegis::Aegis;
using aegis::EnvGrant;
using aegis::EnvId;
using aegis::EnvSpec;
using aegis::PacketRingSpec;
using aegis::PacketStats;
using exos::Process;
using net::PacketRingView;

// --- Ring view (no kernel) ---

TEST(PacketRingViewTest, GeometryAndFormat) {
  std::vector<uint8_t> region(PacketRingView::BytesNeeded(4, 2), 0xee);
  Result<PacketRingView> view = PacketRingView::Format(region, 4, 2);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->rx_slots(), 4u);
  EXPECT_EQ(view->tx_slots(), 2u);
  EXPECT_EQ(view->rx_head(), 0u);
  EXPECT_EQ(view->rx_tail(), 0u);
  EXPECT_TRUE(view->RxEmpty());
  EXPECT_FALSE(view->rx_armed());

  EXPECT_FALSE(PacketRingView::Attach(region, 0, 2).ok());
  EXPECT_FALSE(PacketRingView::Attach(region, 4, PacketRingView::kMaxSlots + 1).ok());
  std::vector<uint8_t> small(64);
  EXPECT_FALSE(PacketRingView::Attach(small, 4, 2).ok());
}

TEST(PacketRingViewTest, TxPushWrapsAndDetectsFull) {
  std::vector<uint8_t> region(PacketRingView::BytesNeeded(2, 2));
  PacketRingView view = *PacketRingView::Format(region, 2, 2);
  const std::vector<uint8_t> a(100, 0xaa);
  const std::vector<uint8_t> b(64, 0xbb);
  EXPECT_TRUE(view.TxPush(a));
  EXPECT_TRUE(view.TxPush(b));
  EXPECT_TRUE(view.TxFull());
  EXPECT_FALSE(view.TxPush(a));
  EXPECT_EQ(view.TxPending(), 2u);
  std::span<const uint8_t> slot0 = view.ReadTxSlot(0);
  ASSERT_EQ(slot0.size(), a.size());
  EXPECT_EQ(slot0[0], 0xaa);
  // Consumer catches up; the ring accepts more and wraps the index.
  view.set_tx_tail(2);
  EXPECT_TRUE(view.TxPush(b));
  EXPECT_EQ(view.ReadTxSlot(2).size(), b.size());
}

TEST(PacketRingViewTest, UntrustedSlotLengthIsClamped) {
  std::vector<uint8_t> region(PacketRingView::BytesNeeded(2, 2));
  PacketRingView view = *PacketRingView::Format(region, 2, 2);
  view.WriteRxSlot(0, std::vector<uint8_t>(32, 1));
  // Scribble a hostile length directly into the slot header.
  const size_t slot0 = 2 * PacketRingView::kHeaderBytes;
  region[slot0] = 0xff;
  region[slot0 + 1] = 0xff;
  region[slot0 + 2] = 0xff;
  region[slot0 + 3] = 0xff;
  EXPECT_LE(view.ReadRxSlot(0).size(), PacketRingView::kSlotDataBytes);
}

// --- Kernel semantics (one machine, host-injected frames) ---

class PktRingKernelTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kPort = 200;

  PktRingKernelTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "pr"}),
        kernel_(machine_),
        nic_(machine_, 0xb) {
    wire_.Attach(&nic_);  // Transmit needs a cable, even with no peer.
    kernel_.AttachNic(&nic_);
  }

  std::vector<uint8_t> Frame(uint8_t tag, uint16_t port = kPort) {
    const std::vector<uint8_t> payload = {tag, 0, 0, 0};
    return net::BuildUdpFrame(0xb, 0xa, 1, 2, 100, port, payload);
  }

  // Allocates `pages` caller-owned contiguous frames starting at `first`
  // and returns the first page's capability.
  cap::Capability AllocRegion(hw::PageId first, uint32_t pages) {
    cap::Capability cap0;
    for (uint32_t i = 0; i < pages; ++i) {
      Result<aegis::PageGrant> grant = kernel_.SysAllocPage(first + i);
      EXPECT_TRUE(grant.ok());
      if (i == 0 && grant.ok()) {
        cap0 = grant->cap;
      }
    }
    return cap0;
  }

  hw::Machine machine_;
  Aegis kernel_;
  hw::Wire wire_;
  hw::Nic nic_;
};

TEST_F(PktRingKernelTest, DepositDrainAndStats) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);

    for (uint8_t tag = 0; tag < 3; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();  // Charge boundary: the rx interrupt drains the NIC.

    PacketRingView view =
        *PacketRingView::Attach(machine_.mem().RangeSpan(10, 3), 4, 2);
    EXPECT_EQ(view.RxPending(), 3u);
    for (uint8_t tag = 0; tag < 3; ++tag) {
      net::UdpView udp;
      ASSERT_TRUE(net::ParseUdpFrame(view.RxFront(), &udp));
      EXPECT_EQ(udp.payload[0], tag);  // In order, parsed in place.
      view.RxPop();
    }
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->ring_bound);
    EXPECT_EQ(stats->delivered, 3u);
    EXPECT_EQ(stats->ring_drops, 0u);
    EXPECT_EQ(stats->queued, 0u);
    EXPECT_EQ(stats->rx_pending, 0u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, RingFullDropsAreCounted) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    for (uint8_t tag = 0; tag < 7; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->delivered, 4u);  // Ring capacity.
    EXPECT_EQ(stats->ring_drops, 3u);
    EXPECT_EQ(stats->rx_pending, 4u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, ShedWatermarkDropsAboveOccupancy) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    // Library-installed shed policy: stop depositing at 2 pending even
    // though the ring holds 4 — the library told the kernel where its
    // queue stops being useful.
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4,
                         .tx_slots = 2, .shed_watermark = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    for (uint8_t tag = 0; tag < 7; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->delivered, 2u);   // Watermark, not ring capacity.
    EXPECT_EQ(stats->shed, 5u);        // Shed, not ring-full drops.
    EXPECT_EQ(stats->ring_drops, 0u);  // Never reached capacity.
    EXPECT_EQ(stats->rx_pending, 2u);
    EXPECT_EQ(stats->rx_occupancy_hwm, 2u);

    // Drain one slot: occupancy 1 < watermark, deposits resume — the
    // policy is a live occupancy check, not a latch.
    PacketRingView view =
        *PacketRingView::Attach(machine_.mem().RangeSpan(10, 3), 4, 2);
    view.RxPop();
    nic_.InjectRx(Frame(9));
    kernel_.SysNull();
    stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->delivered, 3u);
    EXPECT_EQ(stats->shed, 5u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, ShedDisarmedKeepsRingFullSemantics) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    for (uint8_t tag = 0; tag < 7; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->shed, 0u);  // Watermark 0: branch never taken.
    EXPECT_EQ(stats->delivered, 4u);
    EXPECT_EQ(stats->ring_drops, 3u);
    EXPECT_EQ(stats->rx_occupancy_hwm, 4u);  // Bookkeeping still free.
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, LegacyQueueCapDropsAreCounted) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    // No ring: flood past the kernel queue cap without ever receiving.
    // Two bursts of 40 with a drain between them keep the 64-slot NIC
    // ring from overflowing first — the drops must be the *kernel
    // queue's*, not the hardware's.
    for (int i = 0; i < 40; ++i) {
      nic_.InjectRx(Frame(static_cast<uint8_t>(i)));
    }
    kernel_.SysNull();  // Charge boundary: the rx interrupt drains the NIC.
    for (int i = 40; i < 80; ++i) {
      nic_.InjectRx(Frame(static_cast<uint8_t>(i)));
    }
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->queued, 64u);  // FilterBinding::kMaxQueuedPackets.
    EXPECT_EQ(stats->queue_drops, 16u);
    EXPECT_EQ(stats->queue_pending, 64u);  // Depth is visible, not just drops.
    // The queue still drains in order through the legacy syscall.
    Result<std::vector<uint8_t>> first = kernel_.SysRecvPacket(*id);
    ASSERT_TRUE(first.ok());
    net::UdpView udp;
    ASSERT_TRUE(net::ParseUdpFrame(*first, &udp));
    EXPECT_EQ(udp.payload[0], 0u);
    stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->queue_pending, 63u);  // One drained; the depth tracks it.
    // Unbinding releases the kernel queue with the binding; the counters
    // survive for post-mortems.
    ASSERT_EQ(kernel_.SysUnbindFilter(*id), Status::kOk);
    const PacketStats after = kernel_.packet_stats(*id);
    EXPECT_EQ(after.queue_pending, 0u);
    EXPECT_EQ(after.queued, 64u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, BatchedDoorbellsOnlyFireWhenArmed) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 4);
    PacketRingSpec rspec{.first_page = 10, .pages = 4, .rx_slots = 8, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    PacketRingView view =
        *PacketRingView::Attach(machine_.mem().RangeSpan(10, 4), 8, 2);

    // Unarmed (consumer awake, polling): deposits are silent.
    for (uint8_t tag = 0; tag < 3; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    EXPECT_EQ(kernel_.SysPacketStats(*id)->doorbells, 0u);

    // Armed (consumer about to block): exactly one doorbell for the burst,
    // and the arming is consumed by it.
    view.set_rx_armed(true);
    for (uint8_t tag = 3; tag < 6; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    EXPECT_EQ(stats->doorbells, 1u);
    EXPECT_EQ(stats->delivered, 6u);
    EXPECT_FALSE(view.rx_armed());
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, UnbatchedDoorbellPerFrame) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 4);
    PacketRingSpec rspec{
        .first_page = 10, .pages = 4, .rx_slots = 8, .tx_slots = 2, .batch_doorbells = false};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    for (uint8_t tag = 0; tag < 3; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    EXPECT_EQ(kernel_.SysPacketStats(*id)->doorbells, 3u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, TxRingTransmitsBatchAndSkipsMalformedSlots) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 4);
    PacketRingSpec rspec{.first_page = 10, .pages = 4, .rx_slots = 2, .tx_slots = 8};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    PacketRingView view =
        *PacketRingView::Attach(machine_.mem().RangeSpan(10, 4), 2, 8);

    ASSERT_TRUE(view.TxPush(Frame(1)));
    ASSERT_TRUE(view.TxPush(std::vector<uint8_t>(5, 0xcc)));  // Below Ethernet minimum.
    ASSERT_TRUE(view.TxPush(Frame(2)));
    Result<uint32_t> sent = kernel_.SysTxRing(*id);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, 2u);  // The malformed slot is skipped, not fatal.
    EXPECT_EQ(nic_.frames_transmitted(), 2u);
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    EXPECT_EQ(stats->tx_frames, 2u);
    EXPECT_EQ(stats->tx_errors, 1u);
    EXPECT_EQ(view.tx_tail(), 3u);  // Consumer progress published.

    // A hostile producer cursor cannot spin the kernel: one doorbell
    // processes at most one ring's worth of descriptors.
    view.set_tx_head(view.tx_head() + 1000000);
    Result<uint32_t> bounded = kernel_.SysTxRing(*id);
    ASSERT_TRUE(bounded.ok());
    EXPECT_LE(*bounded, 8u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(PktRingKernelTest, PacketSyscallErrorPaths) {
  EnvId env_a = aegis::kNoEnv;
  cap::Capability cap_a;
  dpf::FilterId bound_by_a = 0;
  bool a_ready = false;

  EnvSpec a;
  a.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    bound_by_a = *id;

    // Unbound filter ids.
    EXPECT_EQ(kernel_.SysRecvPacket(999).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysTxRing(999).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPacketStats(999).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysBindPacketRing(999, PacketRingSpec{10, 3, 4, 2}, cap::Capability{}),
              Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysUnbindPacketRing(999), Status::kErrNotFound);

    // Ring operations on a queue-only binding.
    EXPECT_EQ(kernel_.SysTxRing(bound_by_a).status(), Status::kErrUnsupported);
    EXPECT_EQ(kernel_.SysUnbindPacketRing(bound_by_a), Status::kErrNotFound);

    // Ring bind over pages the caller does not own.
    EXPECT_EQ(kernel_.SysBindPacketRing(bound_by_a, PacketRingSpec{40, 3, 4, 2},
                                        cap::Capability{}),
              Status::kErrAccessDenied);
    // Owned pages but a forged (empty) region capability.
    const cap::Capability cap0 = AllocRegion(10, 3);
    EXPECT_EQ(kernel_.SysBindPacketRing(bound_by_a, PacketRingSpec{10, 3, 4, 2},
                                        cap::Capability{}),
              Status::kErrAccessDenied);
    // Region too small for the requested geometry.
    EXPECT_EQ(kernel_.SysBindPacketRing(bound_by_a, PacketRingSpec{10, 1, 64, 64}, cap0),
              Status::kErrInvalidArgs);
    // A good bind for the foreign-owner checks below.
    ASSERT_EQ(kernel_.SysBindPacketRing(bound_by_a, PacketRingSpec{10, 3, 4, 2}, cap0),
              Status::kOk);

    a_ready = true;
    kernel_.SysBlock();  // B pokes at our binding, then wakes us.

    // Stale id: after unbind, every packet syscall reports not-found.
    EXPECT_EQ(kernel_.SysUnbindFilter(bound_by_a), Status::kOk);
    EXPECT_EQ(kernel_.SysRecvPacket(bound_by_a).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysTxRing(bound_by_a).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPacketStats(bound_by_a).status(), Status::kErrNotFound);
  };
  Result<EnvGrant> ga = kernel_.CreateEnv(std::move(a));
  ASSERT_TRUE(ga.ok());
  env_a = ga->env;
  cap_a = ga->cap;

  EnvSpec b;
  b.entry = [&] {
    while (!a_ready) {
      kernel_.SysYield(env_a);
    }
    // Foreign binding: reads, stats, and ring operations are all denied.
    EXPECT_EQ(kernel_.SysRecvPacket(bound_by_a).status(), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysTxRing(bound_by_a).status(), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysPacketStats(bound_by_a).status(), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysUnbindPacketRing(bound_by_a), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysUnbindFilter(bound_by_a), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysWake(env_a, cap_a), Status::kOk);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(b)).ok());
  kernel_.Run();
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(PktRingKernelTest, KillMidDrainIsCrashSafe) {
  EnvId consumer_id = aegis::kNoEnv;
  dpf::FilterId filter = 0;
  bool mid_drain = false;

  EnvSpec consumer;
  consumer.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    filter = *id;
    const cap::Capability cap0 = AllocRegion(10, 3);
    ASSERT_EQ(kernel_.SysBindPacketRing(filter, PacketRingSpec{10, 3, 4, 2}, cap0),
              Status::kOk);
    for (uint8_t tag = 0; tag < 4; ++tag) {
      nic_.InjectRx(Frame(tag));
    }
    kernel_.SysNull();
    PacketRingView view =
        *PacketRingView::Attach(machine_.mem().RangeSpan(10, 3), 4, 2);
    ASSERT_EQ(view.RxPending(), 4u);
    view.RxPop();  // One frame consumed; three still in the ring.
    mid_drain = true;
    kernel_.SysYield();  // The killer runs now; we never come back.
    ADD_FAILURE() << "killed environment resumed";
  };
  Result<EnvGrant> gc = kernel_.CreateEnv(std::move(consumer));
  ASSERT_TRUE(gc.ok());
  consumer_id = gc->env;

  EnvSpec killer;
  killer.entry = [&] {
    while (!mid_drain) {
      kernel_.SysYield(consumer_id);
    }
    ASSERT_EQ(kernel_.KillEnv(consumer_id), Status::kOk);
    EXPECT_TRUE(kernel_.AuditInvariants().ok());
    // A late frame for the dead binding is dropped at the classifier, not
    // deposited into reclaimed (reallocatable) memory.
    nic_.InjectRx(Frame(9));
    kernel_.SysNull();
    EXPECT_TRUE(kernel_.AuditInvariants().ok());
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(killer)).ok());
  kernel_.Run();

  // Post-mortem counters survive the teardown; the ring binding does not.
  const PacketStats stats = kernel_.packet_stats(filter);
  EXPECT_FALSE(stats.ring_bound);
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(PktRingKernelTest, DeallocRingPageMidTrafficSeversRing) {
  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    nic_.InjectRx(Frame(0));
    kernel_.SysNull();
    EXPECT_TRUE(kernel_.SysPacketStats(*id)->ring_bound);

    // The owner frees a ring page mid-traffic. The kernel must sever the
    // ring with it — a stale binding would keep the demux depositing into
    // the reclaimed (reallocatable) frame at interrupt level.
    ASSERT_EQ(kernel_.SysDeallocPage(10, cap0), Status::kOk);
    EXPECT_TRUE(kernel_.AuditInvariants().ok());

    // Later frames fall back to the legacy kernel queue, untouched by the
    // freed frames, and stats no longer dereference the dead ring.
    nic_.InjectRx(Frame(1));
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->ring_bound);
    EXPECT_EQ(stats->delivered, 1u);  // The pre-dealloc ring deposit.
    EXPECT_EQ(stats->queued, 1u);     // The post-dealloc fallback.
    Result<std::vector<uint8_t>> frame = kernel_.SysRecvPacket(*id);
    ASSERT_TRUE(frame.ok());
    net::UdpView udp;
    ASSERT_TRUE(net::ParseUdpFrame(*frame, &udp));
    EXPECT_EQ(udp.payload[0], 1u);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
  EXPECT_EQ(kernel_.audit_failures(), 0u);
}

TEST_F(PktRingKernelTest, RepossessedRingPageSeversRingMidTraffic) {
  EnvId owner_id = aegis::kNoEnv;

  EnvSpec spec;
  spec.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    const cap::Capability cap0 = AllocRegion(10, 3);
    PacketRingSpec rspec{.first_page = 10, .pages = 3, .rx_slots = 4, .tx_slots = 2};
    ASSERT_EQ(kernel_.SysBindPacketRing(*id, rspec, cap0), Status::kOk);
    nic_.InjectRx(Frame(0));
    kernel_.SysNull();

    // Abort protocol: with no revoke handler installed, the kernel forcibly
    // repossesses the victim's lowest frame — a ring page. The binding must
    // not outlive it.
    ASSERT_EQ(kernel_.RevokePages(owner_id, 1), Status::kOk);
    EXPECT_TRUE(kernel_.AuditInvariants().ok());
    const std::vector<hw::PageId> taken = kernel_.SysReadRepossessed();
    ASSERT_EQ(taken.size(), 1u);
    EXPECT_EQ(taken[0], 10u);

    nic_.InjectRx(Frame(1));
    kernel_.SysNull();
    Result<PacketStats> stats = kernel_.SysPacketStats(*id);
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->ring_bound);
    EXPECT_EQ(stats->delivered, 1u);
    EXPECT_EQ(stats->queued, 1u);  // Delivery reverted to the legacy queue.
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  ASSERT_TRUE(grant.ok());
  owner_id = grant->env;
  kernel_.Run();
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
  EXPECT_EQ(kernel_.audit_failures(), 0u);
}

TEST_F(PktRingKernelTest, RecvAfterOwnerKilledReportsNotFound) {
  EnvId owner_id = aegis::kNoEnv;
  dpf::FilterId filter = 0;
  bool owner_ready = false;

  EnvSpec owner;
  owner.entry = [&] {
    aegis::FilterBindSpec fspec;
    fspec.filter = dpf::UdpPortFilter(kPort);
    Result<dpf::FilterId> id = kernel_.SysBindFilter(std::move(fspec), cap::Capability{});
    ASSERT_TRUE(id.ok());
    filter = *id;
    owner_ready = true;
    kernel_.SysBlock();
    ADD_FAILURE() << "killed environment resumed";
  };
  Result<EnvGrant> go = kernel_.CreateEnv(std::move(owner));
  ASSERT_TRUE(go.ok());
  owner_id = go->env;

  EnvSpec other;
  other.entry = [&] {
    while (!owner_ready) {
      kernel_.SysYield(owner_id);
    }
    ASSERT_EQ(kernel_.KillEnv(owner_id), Status::kOk);
    EXPECT_EQ(kernel_.SysRecvPacket(filter).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPacketStats(filter).status(), Status::kErrNotFound);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(other)).ok());
  kernel_.Run();
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

// --- ExOS ring sockets over the wire (two machines) ---

uint64_t Resolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

class PktRingExosTest : public ::testing::Test {
 protected:
  PktRingExosTest()
      : machine_a_(hw::Machine::Config{.phys_pages = 256, .name = "ra"}, &world_),
        machine_b_(hw::Machine::Config{.phys_pages = 256, .name = "rb"}, &world_),
        kernel_a_(machine_a_),
        kernel_b_(machine_b_),
        nic_a_(machine_a_, 0xa),
        nic_b_(machine_b_, 0xb) {
    wire_.Attach(&nic_a_);
    wire_.Attach(&nic_b_);
    kernel_a_.AttachNic(&nic_a_);
    kernel_b_.AttachNic(&nic_b_);
  }

  exos::NetIface IfaceA() { return exos::NetIface{0xa, 1, Resolve}; }
  exos::NetIface IfaceB() { return exos::NetIface{0xb, 2, Resolve}; }

  void RunWorld() {
    world_.Run({[&] { kernel_a_.Run(); }, [&] { kernel_b_.Run(); }});
  }

  hw::World world_;
  hw::Machine machine_a_;
  hw::Machine machine_b_;
  Aegis kernel_a_;
  Aegis kernel_b_;
  hw::Wire wire_;
  hw::Nic nic_a_;
  hw::Nic nic_b_;
};

TEST_F(PktRingExosTest, UdpPingPongRingPath) {
  uint32_t final_counter = 0;
  uint64_t server_delivered = 0;
  bool server_done = false;
  Process client(kernel_a_, [&](Process& p) {
    exos::UdpSocket socket(p, IfaceA());
    ASSERT_EQ(socket.BindRing(100), Status::kOk);
    EXPECT_TRUE(socket.ring_bound());
    p.kernel().SysSleep(hw::kClockHz / 100);  // Let the server bind.
    std::vector<uint8_t> counter = {0, 0, 0, 0};
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(socket.SendTo(2, 200, counter), Status::kOk);
      Result<exos::Datagram> reply = socket.Recv();
      ASSERT_TRUE(reply.ok());
      ASSERT_EQ(reply->payload.size(), 4u);
      counter = reply->payload;
    }
    final_counter = net::GetBe32(counter, 0);
    EXPECT_EQ(socket.Close(), Status::kOk);
  });
  Process server(kernel_b_, [&](Process& p) {
    exos::UdpSocket socket(p, IfaceB());
    ASSERT_EQ(socket.BindRing(200), Status::kOk);
    for (int i = 0; i < 8; ++i) {
      Result<exos::Datagram> request = socket.Recv();
      ASSERT_TRUE(request.ok());
      std::vector<uint8_t> bumped(4);
      net::PutBe32(bumped, 0, net::GetBe32(request->payload, 0) + 1);
      ASSERT_EQ(socket.SendTo(request->src_ip, request->src_port, bumped), Status::kOk);
    }
    Result<PacketStats> stats = p.kernel().SysPacketStats(*socket.filter_id());
    ASSERT_TRUE(stats.ok());
    server_delivered = stats->delivered;
    EXPECT_EQ(stats->tx_frames, 8u);
    EXPECT_EQ(socket.Close(), Status::kOk);
    server_done = true;
  });
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.ok());
  RunWorld();
  EXPECT_EQ(final_counter, 8u);
  EXPECT_TRUE(server_done);
  EXPECT_EQ(server_delivered, 8u);  // Every request came through the ring.
  EXPECT_TRUE(kernel_a_.AuditInvariants().ok());
  EXPECT_TRUE(kernel_b_.AuditInvariants().ok());
}

TEST_F(PktRingExosTest, QueueToBatchesFramesIntoOneDoorbell) {
  std::vector<uint8_t> seen;
  Process receiver(kernel_b_, [&](Process& p) {
    exos::UdpSocket socket(p, IfaceB());
    ASSERT_EQ(socket.BindRing(200), Status::kOk);
    for (int i = 0; i < 5; ++i) {
      Result<exos::Datagram> dgram = socket.Recv();
      ASSERT_TRUE(dgram.ok());
      seen.push_back(dgram->payload[0]);
    }
    EXPECT_EQ(socket.Close(), Status::kOk);
  });
  uint64_t tx_before = 0;
  uint64_t tx_after = 0;
  Process sender(kernel_a_, [&](Process& p) {
    exos::UdpSocket socket(p, IfaceA());
    ASSERT_EQ(socket.BindRing(100), Status::kOk);
    p.kernel().SysSleep(hw::kClockHz / 100);
    tx_before = nic_a_.frames_transmitted();
    for (uint8_t i = 0; i < 5; ++i) {
      const std::vector<uint8_t> payload = {i};
      ASSERT_EQ(socket.QueueTo(2, 200, payload), Status::kOk);
    }
    EXPECT_EQ(nic_a_.frames_transmitted(), tx_before);  // Nothing sent yet.
    Result<uint32_t> sent = socket.FlushTx();
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, 5u);  // One doorbell drained the whole batch.
    tx_after = nic_a_.frames_transmitted();
    EXPECT_EQ(socket.Close(), Status::kOk);
  });
  ASSERT_TRUE(receiver.ok());
  ASSERT_TRUE(sender.ok());
  RunWorld();
  EXPECT_EQ(tx_after - tx_before, 5u);
  EXPECT_EQ(seen, (std::vector<uint8_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace xok
