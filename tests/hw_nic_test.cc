#include "src/hw/nic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/world.h"

namespace xok::hw {
namespace {

class RecordingKernel : public TrapSink {
 public:
  explicit RecordingKernel(Machine& machine) : priv_(machine.InstallKernel(this)) {}

  TrapOutcome OnException(TrapFrame&) override { return TrapOutcome::kSkip; }
  void OnInterrupt(InterruptSource source, uint64_t) override { sources.push_back(source); }

  PrivPort& priv_;
  std::vector<InterruptSource> sources;
};

std::vector<uint8_t> Frame(MacAddr dst, MacAddr src, size_t payload = 46) {
  std::vector<uint8_t> f(14 + payload, 0);
  for (int i = 0; i < 6; ++i) {
    f[i] = static_cast<uint8_t>(dst >> (8 * (5 - i)));
    f[6 + i] = static_cast<uint8_t>(src >> (8 * (5 - i)));
  }
  f[12] = 0x08;  // IPv4 ethertype.
  return f;
}

TEST(ReadMacTest, RoundTripsBigEndianBytes) {
  auto f = Frame(0x0000aabbccdd, 0x000011223344);
  EXPECT_EQ(ReadMac(f, 0), 0x0000aabbccddULL);
  EXPECT_EQ(ReadMac(f, 6), 0x000011223344ULL);
}

class NicTest : public ::testing::Test {
 protected:
  NicTest()
      : machine_a_(Machine::Config{.phys_pages = 16, .name = "a"}, &world_),
        machine_b_(Machine::Config{.phys_pages = 16, .name = "b"}, &world_),
        kernel_a_(machine_a_),
        kernel_b_(machine_b_),
        nic_a_(machine_a_, 0xaa),
        nic_b_(machine_b_, 0xbb) {
    wire_.Attach(&nic_a_);
    wire_.Attach(&nic_b_);
  }

  World world_;
  Machine machine_a_;
  Machine machine_b_;
  RecordingKernel kernel_a_;
  RecordingKernel kernel_b_;
  Wire wire_;
  Nic nic_a_;
  Nic nic_b_;
};

TEST_F(NicTest, AddressedFrameReachesOnlyItsDestination) {
  bool b_got_interrupt = false;
  world_.Run({
      [&] {
        ASSERT_TRUE(nic_a_.Transmit(Frame(0xbb, 0xaa)));
        // Nothing addressed to A: its ring must stay empty.
        EXPECT_EQ(nic_a_.ReceiveNext(), std::nullopt);
      },
      [&] {
        machine_b_.WaitForInterrupt();
        b_got_interrupt = true;
        auto frame = nic_b_.ReceiveNext();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(ReadMac(*frame, 0), 0xbbULL);
        EXPECT_EQ(ReadMac(*frame, 6), 0xaaULL);
      },
  });
  EXPECT_TRUE(b_got_interrupt);
  ASSERT_EQ(kernel_b_.sources.size(), 1u);
  EXPECT_EQ(kernel_b_.sources[0], InterruptSource::kNicRx);
}

TEST_F(NicTest, BroadcastReachesAllOtherStations) {
  world_.Run({
      [&] { ASSERT_TRUE(nic_a_.Transmit(Frame(kBroadcastMac, 0xaa))); },
      [&] {
        machine_b_.WaitForInterrupt();
        EXPECT_TRUE(nic_b_.ReceiveNext().has_value());
      },
  });
}

TEST_F(NicTest, WrongDestinationIsFiltered) {
  world_.Run({
      [&] {
        ASSERT_TRUE(nic_a_.Transmit(Frame(0xcc, 0xaa)));  // Nobody has MAC 0xcc.
        machine_a_.Charge(1'000'000);
      },
      [&] { machine_b_.Charge(1'000'000); },
  });
  EXPECT_TRUE(kernel_b_.sources.empty());
  EXPECT_EQ(nic_b_.frames_received(), 0u);
}

TEST_F(NicTest, DeliveryTakesWireTime) {
  uint64_t sent_at = 0;
  uint64_t received_at = 0;
  const auto frame = Frame(0xbb, 0xaa, 46);  // 60-byte frame.
  world_.Run({
      [&] {
        sent_at = machine_a_.clock().now();
        ASSERT_TRUE(nic_a_.Transmit(frame));
      },
      [&] {
        machine_b_.WaitForInterrupt();
        received_at = machine_b_.clock().now();
      },
  });
  // At least the serialisation delay: 60 bytes at 20 cycles/byte.
  EXPECT_GE(received_at - sent_at, 60u * kWireCyclesPerByte);
}

TEST_F(NicTest, RxRingOverflowDropsFrames) {
  world_.Run({
      [&] {
        for (size_t i = 0; i < Nic::kRxRingSlots + 10; ++i) {
          ASSERT_TRUE(nic_a_.Transmit(Frame(0xbb, 0xaa)));
        }
      },
      [&] {
        // B never drains its ring; just let time pass.
        machine_b_.Charge(100'000'000);
      },
  });
  EXPECT_EQ(nic_b_.frames_dropped(), 10u);
  EXPECT_EQ(nic_b_.frames_received(), Nic::kRxRingSlots);
}

TEST_F(NicTest, WireFrameLandsAtArrivalLoopbackAtOnce) {
  // A wire frame is on the wire until its arrival cycle: a receiver that
  // looks earlier finds an empty ring even though the sender has already
  // transmitted, and finds the frame once its clock reaches the arrival.
  // A frame looped back to the sender's own address is in the ring at
  // once, ahead of its kNicRx interrupt.
  const auto frame = Frame(0xbb, 0xaa, 46);  // 60-byte frame.
  bool sent = false;
  uint64_t arrival = 0;
  bool loopback_seen = false;
  bool early_seen = true;
  bool late_seen = false;
  world_.Run({
      [&] {
        ASSERT_TRUE(nic_a_.Transmit(frame));
        arrival = machine_a_.clock().now() + frame.size() * kWireCyclesPerByte +
                  kNicControllerLatency;
        sent = true;
        ASSERT_TRUE(nic_a_.Transmit(Frame(0xaa, 0xaa)));
        loopback_seen = nic_a_.ReceiveNext().has_value();
      },
      [&] {
        // Interrupts off, so only ReceiveNext can land the frame.
        kernel_b_.priv_.SetInterruptsEnabled(false);
        while (!sent) {
          machine_b_.Charge(10);
        }
        ASSERT_LT(machine_b_.clock().now() + Instr(4), arrival);
        early_seen = nic_b_.ReceiveNext().has_value();
        machine_b_.Charge(arrival - machine_b_.clock().now());
        late_seen = nic_b_.ReceiveNext().has_value();
      },
  });
  EXPECT_TRUE(loopback_seen);
  EXPECT_FALSE(early_seen);
  EXPECT_TRUE(late_seen);
  EXPECT_TRUE(kernel_b_.sources.empty());
}

// Two senders put equal-arrival frames on the wire for a third machine,
// which drains its ring after the arrival and returns the source MACs in
// drain order. One sender transmits a longer frame at once, the other a
// shorter one after charging the difference in wire and copy time, so the
// host runs the long frame's transmission first. `big_first` gives the
// long frame to the sender with world index 0 (MAC 0xa0), else to world
// index 1 (MAC 0xa1); `reverse_attach` attaches the NICs to the wire in
// reverse world order.
std::vector<MacAddr> SameCycleDrain(bool reverse_attach, bool big_first) {
  World world;
  Machine s0(Machine::Config{.phys_pages = 16, .name = "s0"}, &world);
  Machine s1(Machine::Config{.phys_pages = 16, .name = "s1"}, &world);
  Machine r(Machine::Config{.phys_pages = 16, .name = "r"}, &world);
  RecordingKernel k0(s0);
  RecordingKernel k1(s1);
  RecordingKernel kr(r);
  Nic n0(s0, 0xa0);
  Nic n1(s1, 0xa1);
  Nic nr(r, 0xbb);
  Wire wire;
  std::vector<Nic*> order = {&n0, &n1, &nr};
  if (reverse_attach) {
    std::ranges::reverse(order);
  }
  for (Nic* nic : order) {
    wire.Attach(nic);
  }
  constexpr size_t kSmall = 46;
  constexpr size_t kBig = 146;
  // Charging kLead first makes the small frame arrive with the big one.
  constexpr uint64_t kLead = (kBig - kSmall) * kWireCyclesPerByte +
                             kMemWordCopy * ((14 + kBig + 3) / 4 - (14 + kSmall + 3) / 4);
  uint64_t arrival[2] = {0, 1};
  auto send = [&](Machine& m, Nic& nic, MacAddr src, bool big) {
    return [&m, &nic, &arrival, src, big] {
      if (!big) {
        m.Charge(kLead);
      }
      const auto frame = Frame(0xbb, src, big ? kBig : kSmall);
      ASSERT_TRUE(nic.Transmit(frame));
      arrival[src & 1] =
          m.clock().now() + frame.size() * kWireCyclesPerByte + kNicControllerLatency;
    };
  };
  std::vector<MacAddr> drained;
  world.Run({send(s0, n0, 0xa0, big_first), send(s1, n1, 0xa1, !big_first), [&] {
               r.Charge(20'000);
               while (auto frame = nr.ReceiveNext()) {
                 drained.push_back(ReadMac(*frame, 6));
               }
             }});
  EXPECT_EQ(arrival[0], arrival[1]);
  return drained;
}

TEST(NicOrderTest, SameCycleFramesDrainInSenderOrder) {
  // The ring order of frames that arrive on the same cycle follows the
  // senders' world indices, not the host order of their transmissions or
  // the wire's attach order.
  for (const bool reverse_attach : {false, true}) {
    for (const bool big_first : {false, true}) {
      SCOPED_TRACE(testing::Message() << "reverse_attach=" << reverse_attach
                                      << " big_first=" << big_first);
      EXPECT_EQ(SameCycleDrain(reverse_attach, big_first),
                (std::vector<MacAddr>{0xa0, 0xa1}));
    }
  }
}

TEST_F(NicTest, RuntFrameRejected) {
  std::vector<uint8_t> runt(10, 0);
  EXPECT_FALSE(nic_a_.Transmit(runt));
}

TEST_F(NicTest, OversizeFrameRejected) {
  std::vector<uint8_t> giant(Nic::kMaxFrameBytes + 1, 0);
  EXPECT_FALSE(nic_a_.Transmit(giant));
}

}  // namespace
}  // namespace xok::hw
