// Reliable datagram protocol under injected frame loss: the application-
// level transport must deliver everything exactly once, in order, over a
// wire that eats a configurable fraction of frames.
#include "src/exos/rdp.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/world.h"

namespace xok::exos {
namespace {

uint64_t Resolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

struct TransferResult {
  std::vector<std::vector<uint8_t>> received;
  uint64_t retransmissions = 0;
  uint64_t duplicates = 0;
  uint64_t backoffs = 0;
  uint64_t frames_lost = 0;
  bool sender_ok = true;
};

TransferResult Transfer(uint32_t loss_per_mille, int messages, uint64_t seed = 0x10559) {
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "snd"}, &world);
  hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "rcv"}, &world);
  aegis::Aegis ka(ma);
  aegis::Aegis kb(mb);
  hw::Wire wire;
  wire.SetLossRate(loss_per_mille, seed);
  hw::Nic na(ma, 0xa);
  hw::Nic nb(mb, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ka.AttachNic(&na);
  kb.AttachNic(&nb);

  TransferResult result;
  Process sender(ka, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    if (socket.Bind(100) != Status::kOk) {
      result.sender_ok = false;
      return;
    }
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 2, .peer_port = 200});
    p.kernel().SysSleep(hw::kClockHz / 100);
    for (int i = 0; i < messages; ++i) {
      std::vector<uint8_t> payload(1 + (i % 32));
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>(i + j);
      }
      if (rdp.Send(payload) != Status::kOk) {
        result.sender_ok = false;
        return;
      }
    }
    result.retransmissions = rdp.retransmissions();
    result.backoffs = rdp.backoffs();
  });
  Process receiver(kb, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xb, 2, Resolve});
    if (socket.Bind(200) != Status::kOk) {
      return;
    }
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 1, .peer_port = 100});
    for (int i = 0; i < messages; ++i) {
      Result<std::vector<uint8_t>> msg = rdp.Recv();
      if (!msg.ok()) {
        return;
      }
      result.received.push_back(*msg);
    }
    // Grace period: if our final ACK was lost, the sender is still
    // retransmitting; keep re-ACKing until it goes quiet.
    for (int round = 0; round < 16; ++round) {
      p.kernel().SysSleep(hw::kClockHz / 500);
      rdp.PumpAcks();
    }
    result.duplicates = rdp.duplicates_dropped();
  });
  EXPECT_TRUE(sender.ok());
  EXPECT_TRUE(receiver.ok());
  world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});
  result.frames_lost = wire.frames_lost();
  return result;
}

void CheckPayloads(const TransferResult& result, int messages) {
  ASSERT_EQ(result.received.size(), static_cast<size_t>(messages));
  for (int i = 0; i < messages; ++i) {
    const std::vector<uint8_t>& payload = result.received[i];
    ASSERT_EQ(payload.size(), static_cast<size_t>(1 + (i % 32))) << "message " << i;
    for (size_t j = 0; j < payload.size(); ++j) {
      ASSERT_EQ(payload[j], static_cast<uint8_t>(i + j)) << "message " << i << " byte " << j;
    }
  }
}

TEST(RdpTest, LosslessTransferNeedsNoRetransmissions) {
  const TransferResult result = Transfer(/*loss_per_mille=*/0, /*messages=*/20);
  EXPECT_TRUE(result.sender_ok);
  CheckPayloads(result, 20);
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(result.frames_lost, 0u);
}

TEST(RdpTest, ModerateLossRecoveredByRetransmission) {
  const TransferResult result = Transfer(/*loss_per_mille=*/100, /*messages=*/30);
  EXPECT_TRUE(result.sender_ok);
  CheckPayloads(result, 30);
  EXPECT_GT(result.frames_lost, 0u);       // The fault injection really fired.
  EXPECT_GT(result.retransmissions, 0u);   // And the protocol recovered.
}

TEST(RdpTest, HeavyLossStillDeliversEverythingExactlyOnce) {
  const TransferResult result = Transfer(/*loss_per_mille=*/300, /*messages=*/20);
  EXPECT_TRUE(result.sender_ok);
  CheckPayloads(result, 20);
  EXPECT_GT(result.frames_lost, 5u);
}

TEST(RdpTest, LostAcksProduceDuplicatesThatAreSuppressed) {
  // With heavy loss some ACKs vanish, so the sender retransmits data the
  // receiver already has; the 1-bit sequence number must suppress them.
  uint64_t duplicates_total = 0;
  for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const TransferResult result = Transfer(/*loss_per_mille=*/250, /*messages=*/15, seed);
    EXPECT_TRUE(result.sender_ok);
    CheckPayloads(result, 15);
    duplicates_total += result.duplicates;
  }
  EXPECT_GT(duplicates_total, 0u);
}

// Like Transfer, but the loss comes from the seeded kernel FaultPlan
// (wire_drop_per_mille) instead of the wire's own loss knob.
TransferResult TransferWithFaultPlan(uint32_t drop_per_mille, int messages, uint64_t seed) {
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "snd"}, &world);
  hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "rcv"}, &world);
  aegis::Aegis ka(ma);
  aegis::Aegis kb(mb);
  hw::Wire wire;
  hw::FaultPlan plan;
  plan.seed = seed;
  plan.wire_drop_per_mille = drop_per_mille;
  ka.InstallFaultPlan(plan);
  wire.set_fault_injector(ka.fault_injector());
  hw::Nic na(ma, 0xa);
  hw::Nic nb(mb, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ka.AttachNic(&na);
  kb.AttachNic(&nb);

  TransferResult result;
  Process sender(ka, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    if (socket.Bind(100) != Status::kOk) {
      result.sender_ok = false;
      return;
    }
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 2, .peer_port = 200});
    p.kernel().SysSleep(hw::kClockHz / 100);
    for (int i = 0; i < messages; ++i) {
      std::vector<uint8_t> payload(1 + (i % 32));
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>(i + j);
      }
      if (rdp.Send(payload) != Status::kOk) {
        result.sender_ok = false;
        return;
      }
    }
    result.retransmissions = rdp.retransmissions();
    result.backoffs = rdp.backoffs();
  });
  Process receiver(kb, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xb, 2, Resolve});
    if (socket.Bind(200) != Status::kOk) {
      return;
    }
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 1, .peer_port = 100});
    for (int i = 0; i < messages; ++i) {
      Result<std::vector<uint8_t>> msg = rdp.Recv();
      if (!msg.ok()) {
        return;
      }
      result.received.push_back(*msg);
    }
    for (int round = 0; round < 16; ++round) {
      p.kernel().SysSleep(hw::kClockHz / 500);
      rdp.PumpAcks();
    }
    result.duplicates = rdp.duplicates_dropped();
  });
  EXPECT_TRUE(sender.ok());
  EXPECT_TRUE(receiver.ok());
  world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});
  result.frames_lost = wire.frames_lost();
  return result;
}

// Backoff: the exponential RTO still converges on exactly-once delivery
// under seeded fault-plan frame loss, and the backoff counter records the
// timeouts that stretched the RTO.
TEST(RdpTest, BackoffConvergesUnderInjectedWireDrop) {
  uint64_t backoffs_total = 0;
  for (uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const TransferResult result = TransferWithFaultPlan(/*drop_per_mille=*/300,
                                                        /*messages=*/15, seed);
    EXPECT_TRUE(result.sender_ok);
    CheckPayloads(result, 15);
    EXPECT_GT(result.frames_lost, 0u);
    backoffs_total += result.backoffs;
  }
  EXPECT_GT(backoffs_total, 0u);
}

// With a silent peer every attempt times out, so the waits double up to
// the cap: total wall-clock must far exceed a fixed-RTO schedule's.
TEST(RdpTest, BackoffDoublesRtoUpToCap) {
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "snd"}, &world);
  aegis::Aegis ka(ma);
  hw::Wire wire;
  hw::Nic na(ma, 0xa);
  wire.Attach(&na);  // Peer NIC 0xb never attached: frames vanish.
  ka.AttachNic(&na);

  uint64_t elapsed = 0;
  uint64_t backoffs = 0;
  Status send_status = Status::kOk;
  Process sender(ka, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    RdpEndpoint::Config config{.peer_ip = 2, .peer_port = 200};
    config.max_retries = 6;
    RdpEndpoint rdp(p, socket, config);
    const uint64_t start = p.machine().clock().now();
    std::vector<uint8_t> payload = {42};
    send_status = rdp.Send(payload);
    elapsed = p.machine().clock().now() - start;
    backoffs = rdp.backoffs();
  });
  ASSERT_TRUE(sender.ok());
  world.Run({[&] { ka.Run(); }});
  EXPECT_EQ(send_status, Status::kErrTimedOut);
  EXPECT_EQ(backoffs, 6u);
  // Doubling from 2 ms capped at 20 ms: 2+4+8+16+20+20+20 = 90 ms of
  // waiting. A fixed 2 ms RTO would give up after ~14 ms.
  EXPECT_GT(elapsed, (hw::kClockHz / 1000) * 50);
}

// Like TransferWithFaultPlan, but the sender's RTO waits are jittered from
// `jitter_seed`, and the sender's retransmit timestamps are returned. Both
// runs of this with equal seeds replay the identical simulated schedule.
std::vector<uint64_t> RetransmitSchedule(uint64_t wire_seed, uint64_t jitter_seed,
                                         int messages = 12) {
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "snd"}, &world);
  hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "rcv"}, &world);
  aegis::Aegis ka(ma);
  aegis::Aegis kb(mb);
  hw::Wire wire;
  hw::FaultPlan plan;
  plan.seed = wire_seed;
  plan.wire_drop_per_mille = 300;
  ka.InstallFaultPlan(plan);
  wire.set_fault_injector(ka.fault_injector());
  hw::Nic na(ma, 0xa);
  hw::Nic nb(mb, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ka.AttachNic(&na);
  kb.AttachNic(&nb);

  std::vector<uint64_t> schedule;
  std::vector<std::vector<uint8_t>> received;
  Process sender(ka, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    if (socket.Bind(100) != Status::kOk) {
      return;
    }
    RdpEndpoint::Config config{.peer_ip = 2, .peer_port = 200};
    config.jitter_seed = jitter_seed;
    RdpEndpoint rdp(p, socket, config);
    p.kernel().SysSleep(hw::kClockHz / 100);
    for (int i = 0; i < messages; ++i) {
      std::vector<uint8_t> payload(1 + (i % 32));
      for (size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<uint8_t>(i + j);
      }
      if (rdp.Send(payload) != Status::kOk) {
        return;
      }
    }
    schedule = rdp.retransmit_log();
  });
  Process receiver(kb, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xb, 2, Resolve});
    if (socket.Bind(200) != Status::kOk) {
      return;
    }
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 1, .peer_port = 100});
    for (int i = 0; i < messages; ++i) {
      Result<std::vector<uint8_t>> msg = rdp.Recv();
      if (!msg.ok()) {
        return;
      }
      received.push_back(*msg);
    }
    for (int round = 0; round < 16; ++round) {
      p.kernel().SysSleep(hw::kClockHz / 500);
      rdp.PumpAcks();
    }
  });
  EXPECT_TRUE(sender.ok());
  EXPECT_TRUE(receiver.ok());
  world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});
  EXPECT_EQ(received.size(), static_cast<size_t>(messages));  // Loss still recovered.
  return schedule;
}

// The retry-storm regression: two clients that lose the same burst and run
// the same deterministic RTO schedule retransmit at the same instants,
// forever — a synchronized retry storm. Seeded jitter must decorrelate the
// schedules while staying replayable (same seed, same schedule) and
// without costing exactly-once delivery.
TEST(RdpTest, SeededJitterDecorrelatesRetransmitSchedules) {
  const std::vector<uint64_t> plain_a = RetransmitSchedule(77, /*jitter_seed=*/0);
  const std::vector<uint64_t> plain_b = RetransmitSchedule(77, /*jitter_seed=*/0);
  ASSERT_FALSE(plain_a.empty());  // The loss plan really forced retransmits.
  EXPECT_EQ(plain_a, plain_b);    // No jitter: schedules collide exactly.

  const std::vector<uint64_t> jit_a = RetransmitSchedule(77, /*jitter_seed=*/1001);
  const std::vector<uint64_t> jit_b = RetransmitSchedule(77, /*jitter_seed=*/2002);
  ASSERT_FALSE(jit_a.empty());
  ASSERT_FALSE(jit_b.empty());
  EXPECT_NE(jit_a, jit_b);    // Distinct seeds: the two clients decorrelate.
  EXPECT_NE(jit_a, plain_a);  // And the jitter really moved the timestamps.

  const std::vector<uint64_t> jit_a2 = RetransmitSchedule(77, /*jitter_seed=*/1001);
  EXPECT_EQ(jit_a, jit_a2);   // Jitter is replayable, not randomness.
}

// A client's request/reply rhythm over a lossless wire, against an echo
// peer (`gateway`): the client's Send waits for the ACK and its bounded
// Recv for the reply, each on the socket's doorbell with the timeout as
// the deadline. Napping a fraction of the RTO per poll would cost several
// sleeps per wait; an event-driven wait costs at most one per wait — two
// per round — and no retransmits.
TEST(RdpTest, LaneRoundsWaitOnDoorbellsNotNaps) {
  constexpr int kRounds = 40;
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "lane"}, &world);
  hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "gw"}, &world);
  aegis::Aegis ka(ma);
  aegis::Aegis kb(mb);
  hw::Wire wire;
  hw::Nic na(ma, 0xa);
  hw::Nic nb(mb, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ka.AttachNic(&na);
  kb.AttachNic(&nb);

  int replies = 0;
  uint64_t retransmissions = 0;
  Process lane(ka, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 2, .peer_port = 200});
    for (int i = 0; i < kRounds; ++i) {
      const std::vector<uint8_t> request(16, static_cast<uint8_t>(i));
      ASSERT_EQ(rdp.Send(request), Status::kOk);
      Result<std::vector<uint8_t>> reply = rdp.Recv(hw::kClockHz / 10);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(*reply, request);
      ++replies;
    }
    retransmissions = rdp.retransmissions();
  });
  Process gateway(kb, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xb, 2, Resolve});
    ASSERT_EQ(socket.Bind(200), Status::kOk);
    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 1, .peer_port = 100});
    for (int i = 0; i < kRounds; ++i) {
      Result<std::vector<uint8_t>> request = rdp.Recv();
      ASSERT_TRUE(request.ok());
      ASSERT_EQ(rdp.Send(*request), Status::kOk);
    }
  });
  ASSERT_TRUE(lane.ok());
  ASSERT_TRUE(gateway.ok());
  world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});

  EXPECT_EQ(replies, kRounds);
  EXPECT_EQ(retransmissions, 0u);
  const uint32_t sleep = static_cast<uint32_t>(xtrace::Sys::kSleep);
  EXPECT_LE(ka.env_stats(lane.id()).counters.syscalls[sleep], 2u * kRounds);
  // The echo peer's unbounded Recv blocks; only its Send waits are timed.
  EXPECT_LE(kb.env_stats(gateway.id()).counters.syscalls[sleep], 1u * kRounds);
}

// A socket with no binding cannot wait: no frame can ever wake it. A
// bounded RDP receive on one must still take its whole timeout, slept on
// the timer, rather than return from every wait at once and spin with the
// simulated clock frozen.
TEST(RdpTest, BoundedRecvOnAnUnboundSocketSleepsOutItsTimeout) {
  constexpr uint64_t kTimeout = 200'000;
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "solo"});
  aegis::Aegis kernel(machine);
  hw::Nic nic(machine, 0xa);
  kernel.AttachNic(&nic);
  const uint32_t sleep = static_cast<uint32_t>(xtrace::Sys::kSleep);
  bool done = false;
  Process proc(kernel, [&](Process& p) {
    UdpSocket socket(p, NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    ASSERT_EQ(socket.Close(), Status::kOk);
    const uint64_t start = p.machine().clock().now();
    EXPECT_EQ(socket.Wait(start + kTimeout), Status::kErrBadState);  // No sleep.
    EXPECT_FALSE(socket.WaitOrSleep(start + kTimeout / 2));
    EXPECT_GE(p.machine().clock().now(), start + kTimeout / 2);

    RdpEndpoint rdp(p, socket, RdpEndpoint::Config{.peer_ip = 2, .peer_port = 200});
    const uint64_t sleeps = p.kernel().SysEnvStats(p.id())->counters.syscalls[sleep];
    const uint64_t before = p.machine().clock().now();
    EXPECT_EQ(rdp.Recv(kTimeout).status(), Status::kErrTimedOut);
    EXPECT_GE(p.machine().clock().now(), before + kTimeout);
    EXPECT_EQ(p.kernel().SysEnvStats(p.id())->counters.syscalls[sleep], sleeps + 1);
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  kernel.Run();
  EXPECT_TRUE(done);
}

// Sweep: exactly-once delivery holds across the loss spectrum.
class RdpLossSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RdpLossSweep, ExactlyOnceInOrder) {
  const TransferResult result = Transfer(GetParam(), /*messages=*/12);
  EXPECT_TRUE(result.sender_ok);
  CheckPayloads(result, 12);
}

INSTANTIATE_TEST_SUITE_P(LossRates, RdpLossSweep, ::testing::Values(0, 50, 150, 250, 400));

}  // namespace
}  // namespace xok::exos
