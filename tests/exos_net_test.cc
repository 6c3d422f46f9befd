#include "src/exos/udp.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/xtrace.h"
#include "src/exos/process.h"
#include "src/hw/world.h"
#include "src/net/wire.h"

namespace xok::exos {
namespace {

uint64_t Resolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

class ExosNetTest : public ::testing::Test {
 protected:
  ExosNetTest()
      : machine_a_(hw::Machine::Config{.phys_pages = 256, .name = "xa"}, &world_),
        machine_b_(hw::Machine::Config{.phys_pages = 256, .name = "xb"}, &world_),
        kernel_a_(machine_a_),
        kernel_b_(machine_b_),
        nic_a_(machine_a_, 0xa),
        nic_b_(machine_b_, 0xb) {
    wire_.Attach(&nic_a_);
    wire_.Attach(&nic_b_);
    kernel_a_.AttachNic(&nic_a_);
    kernel_b_.AttachNic(&nic_b_);
  }

  NetIface IfaceA() { return NetIface{0xa, 1, Resolve}; }
  NetIface IfaceB() { return NetIface{0xb, 2, Resolve}; }

  void RunWorld() {
    world_.Run({[&] { kernel_a_.Run(); }, [&] { kernel_b_.Run(); }});
  }

  hw::World world_;
  hw::Machine machine_a_;
  hw::Machine machine_b_;
  aegis::Aegis kernel_a_;
  aegis::Aegis kernel_b_;
  hw::Wire wire_;
  hw::Nic nic_a_;
  hw::Nic nic_b_;
};

TEST_F(ExosNetTest, UdpPingPongKernelQueuePath) {
  uint32_t final_counter = 0;
  Process client(kernel_a_, [&](Process& p) {
    UdpSocket socket(p, IfaceA());
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    p.kernel().SysSleep(hw::kClockHz / 100);  // Let the server bind.
    std::vector<uint8_t> counter = {0, 0, 0, 0};
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(socket.SendTo(2, 200, counter), Status::kOk);
      Result<Datagram> reply = socket.Recv();
      ASSERT_TRUE(reply.ok());
      ASSERT_EQ(reply->payload.size(), 4u);
      counter = reply->payload;
    }
    final_counter = net::GetBe32(counter, 0);
  });
  bool server_done = false;
  Process server(kernel_b_, [&](Process& p) {
    UdpSocket socket(p, IfaceB());
    ASSERT_EQ(socket.Bind(200), Status::kOk);
    for (int i = 0; i < 8; ++i) {
      Result<Datagram> request = socket.Recv();
      ASSERT_TRUE(request.ok());
      std::vector<uint8_t> bumped(4);
      net::PutBe32(bumped, 0, net::GetBe32(request->payload, 0) + 1);
      ASSERT_EQ(socket.SendTo(request->src_ip, request->src_port, bumped), Status::kOk);
    }
    server_done = true;
  });
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.ok());
  RunWorld();
  EXPECT_EQ(final_counter, 8u);
  EXPECT_TRUE(server_done);
}

TEST_F(ExosNetTest, AshEchoRepliesWithoutSchedulingOwner) {
  uint32_t final_counter = 0;
  uint64_t owner_slices_after_setup = 0;
  uint64_t owner_slices_at_end = 0;
  cap::Capability owner_cap;

  Process client(kernel_a_, [&](Process& p) {
    UdpSocket socket(p, IfaceA());
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    p.kernel().SysSleep(hw::kClockHz / 100);
    std::vector<uint8_t> counter = {0, 0, 0, 0};
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(socket.SendTo(2, 200, counter), Status::kOk);
      Result<Datagram> reply = socket.Recv();
      ASSERT_TRUE(reply.ok());
      counter = reply->payload;
    }
    final_counter = net::GetBe32(counter, 0);
  });
  Process owner(kernel_b_, [&](Process& p) {
    AshEchoConfig config;
    config.iface = IfaceB();
    config.port = 200;
    config.peer_ip = 1;
    config.peer_port = 100;
    Result<dpf::FilterId> id = BindEchoAsh(p, config);
    ASSERT_TRUE(id.ok());
    owner_slices_after_setup = p.kernel().slices_of(p.id());
    // The owner sleeps through the whole experiment: the ASH answers.
    p.kernel().SysSleep(hw::kClockHz);
    owner_slices_at_end = p.kernel().slices_of(p.id());
  });
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(owner.ok());
  owner_cap = owner.env_cap();
  RunWorld();

  // Every request was answered with counter+1, 16 times.
  EXPECT_EQ(final_counter, 16u);
  // And the owner was never scheduled to do it (at most the wakeup slice).
  EXPECT_LE(owner_slices_at_end - owner_slices_after_setup, 2u);
}

TEST_F(ExosNetTest, AshRoundTripFasterThanQueuePath) {
  // Measure N roundtrips against an ASH echo server, then against a
  // process-level echo server, same machines. The ASH path must win.
  auto measure = [&](bool use_ash) -> uint64_t {
    hw::World world;
    hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "ma"}, &world);
    hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "mb"}, &world);
    aegis::Aegis ka(ma);
    aegis::Aegis kb(mb);
    hw::Wire wire;
    hw::Nic na(ma, 0xa);
    hw::Nic nb(mb, 0xb);
    wire.Attach(&na);
    wire.Attach(&nb);
    ka.AttachNic(&na);
    kb.AttachNic(&nb);

    constexpr int kRounds = 16;
    uint64_t elapsed = 0;
    Process client(ka, [&](Process& p) {
      UdpSocket socket(p, NetIface{0xa, 1, Resolve});
      ASSERT_EQ(socket.Bind(100), Status::kOk);
      p.kernel().SysSleep(hw::kClockHz / 100);
      std::vector<uint8_t> counter = {0, 0, 0, 0};
      const uint64_t t0 = ma.clock().now();
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_EQ(socket.SendTo(2, 200, counter), Status::kOk);
        Result<Datagram> reply = socket.Recv();
        ASSERT_TRUE(reply.ok());
      }
      elapsed = ma.clock().now() - t0;
    });
    Process server(kb, [&](Process& p) {
      if (use_ash) {
        AshEchoConfig config;
        config.iface = NetIface{0xb, 2, Resolve};
        config.port = 200;
        config.peer_ip = 1;
        config.peer_port = 100;
        ASSERT_TRUE(BindEchoAsh(p, config).ok());
        p.kernel().SysSleep(hw::kClockHz);
      } else {
        UdpSocket socket(p, NetIface{0xb, 2, Resolve});
        ASSERT_EQ(socket.Bind(200), Status::kOk);
        for (int i = 0; i < kRounds; ++i) {
          Result<Datagram> request = socket.Recv();
          ASSERT_TRUE(request.ok());
          std::vector<uint8_t> bumped(4);
          net::PutBe32(bumped, 0, net::GetBe32(request->payload, 0) + 1);
          ASSERT_EQ(socket.SendTo(request->src_ip, request->src_port, bumped), Status::kOk);
        }
      }
    });
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE(server.ok());
    world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});
    return elapsed;
  };

  const uint64_t ash_cycles = measure(true);
  const uint64_t queue_cycles = measure(false);
  EXPECT_LT(ash_cycles, queue_cycles);
}

TEST_F(ExosNetTest, SocketLifecycleErrors) {
  Process proc(kernel_a_, [&](Process& p) {
    UdpSocket socket(p, IfaceA());
    // Recv before bind.
    EXPECT_EQ(socket.Recv(false).status(), Status::kErrBadState);
    EXPECT_EQ(socket.Close(), Status::kErrBadState);
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    EXPECT_EQ(socket.Bind(101), Status::kErrBadState);  // Double bind.
    EXPECT_EQ(socket.Recv(false).status(), Status::kErrWouldBlock);
    EXPECT_EQ(socket.Close(), Status::kOk);
    EXPECT_EQ(socket.Close(), Status::kErrBadState);
    // Rebind after close works.
    UdpSocket socket2(p, IfaceA());
    EXPECT_EQ(socket2.Bind(100), Status::kOk);
  });
  ASSERT_TRUE(proc.ok());
  // Only machine A participates; machine B idles out immediately.
  world_.Run({[&] { kernel_a_.Run(); }, [&] {}});
}

// A socket with no binding has nothing to wait on: Wait fails at once, and
// WaitOrSleep sleeps out the deadline on the timer, so a timed loop built
// on it lets time pass instead of spinning.
TEST_F(ExosNetTest, ClosedSocketWaitOrSleepSleepsOutItsDeadline) {
  constexpr uint64_t kTimeout = 200'000;
  const uint32_t sleep = static_cast<uint32_t>(xtrace::Sys::kSleep);
  bool done = false;
  Process proc(kernel_a_, [&](Process& p) {
    UdpSocket socket(p, IfaceA());
    ASSERT_EQ(socket.Bind(100), Status::kOk);
    ASSERT_EQ(socket.Close(), Status::kOk);
    const uint64_t sleeps = p.kernel().SysEnvStats(p.id())->counters.syscalls[sleep];
    const uint64_t start = p.machine().clock().now();
    EXPECT_EQ(socket.Wait(start + kTimeout), Status::kErrBadState);
    EXPECT_EQ(p.kernel().SysEnvStats(p.id())->counters.syscalls[sleep], sleeps);  // No sleep.
    EXPECT_FALSE(socket.WaitOrSleep(start + kTimeout));
    EXPECT_GE(p.machine().clock().now(), start + kTimeout);
    EXPECT_EQ(p.kernel().SysEnvStats(p.id())->counters.syscalls[sleep], sleeps + 1);
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  world_.Run({[&] { kernel_a_.Run(); }, [&] {}});
  EXPECT_TRUE(done);
}

TEST_F(ExosNetTest, MalformedFramesAreDroppedByLibrary) {
  // A frame that passes the port filter but fails library-level parsing
  // (broken IP checksum) must be dropped by the libOS, not delivered.
  uint32_t good = 0;
  Process receiver(kernel_b_, [&](Process& p) {
    UdpSocket socket(p, IfaceB());
    ASSERT_EQ(socket.Bind(200), Status::kOk);
    Result<Datagram> dgram = socket.Recv();  // Blocks past the bad frame.
    ASSERT_TRUE(dgram.ok());
    good = dgram->payload.empty() ? 0 : dgram->payload[0];
  });
  Process sender(kernel_a_, [&](Process& p) {
    p.kernel().SysSleep(hw::kClockHz / 100);
    std::vector<uint8_t> payload = {7};
    // Corrupt frame first: correct filter fields, broken IP checksum.
    auto bad = net::BuildUdpFrame(0xb, 0xa, 1, 2, 100, 200, payload);
    bad[net::kIpTtlOff] ^= 0xff;
    ASSERT_EQ(p.kernel().SysNetSend(bad), Status::kOk);
    // Then a good one.
    std::vector<uint8_t> good_payload = {9};
    auto ok = net::BuildUdpFrame(0xb, 0xa, 1, 2, 100, 200, good_payload);
    ASSERT_EQ(p.kernel().SysNetSend(ok), Status::kOk);
  });
  ASSERT_TRUE(receiver.ok());
  ASSERT_TRUE(sender.ok());
  RunWorld();
  EXPECT_EQ(good, 9u);
}

}  // namespace
}  // namespace xok::exos
