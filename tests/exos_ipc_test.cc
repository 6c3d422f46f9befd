#include "src/exos/ipc.h"

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rand.h"
#include "src/exos/stride.h"

namespace xok::exos {
namespace {

class ExosIpcTest : public ::testing::Test {
 protected:
  ExosIpcTest()
      : machine_(hw::Machine::Config{.phys_pages = 512, .name = "ipc"}), kernel_(machine_) {}

  hw::Machine machine_;
  aegis::Aegis kernel_;
};

constexpr hw::Vaddr kRingVa = 0x5000000;

TEST_F(ExosIpcTest, PipeTransfersWordsInOrder) {
  SharedBufferDesc desc;
  bool ready = false;
  std::vector<uint32_t> received;
  PipePeer writer_peer;  // Filled in below (the reader from writer's view).
  PipePeer reader_peer;

  auto writer_main = [&](Process& p) {
    Result<SharedBufferDesc> created = CreateSharedBuffer(p);
    ASSERT_TRUE(created.ok());
    desc = *created;
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    PipeEndpoint pipe(p, kRingVa, writer_peer, /*posix_emulation=*/true);
    for (uint32_t i = 0; i < 100; ++i) {
      ASSERT_EQ(pipe.WriteWord(i * 3), Status::kOk);
    }
  };
  auto reader_main = [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    PipeEndpoint pipe(p, kRingVa, reader_peer, /*posix_emulation=*/true);
    for (uint32_t i = 0; i < 100; ++i) {
      Result<uint32_t> v = pipe.ReadWord();
      ASSERT_TRUE(v.ok());
      received.push_back(*v);
    }
  };
  Process writer(kernel_, writer_main);
  Process reader(kernel_, reader_main);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel_.Run();

  ASSERT_EQ(received.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(received[i], i * 3);
  }
}

TEST_F(ExosIpcTest, PipeBackpressureWhenRingFills) {
  // Write far more words than the ring holds before the reader starts:
  // the writer must block and resume, and nothing may be lost or
  // reordered.
  SharedBufferDesc desc;
  bool ready = false;
  uint64_t sum = 0;
  PipePeer writer_peer;
  PipePeer reader_peer;
  constexpr uint32_t kCount = 5000;  // Ring holds ~1020 words.

  Process writer(kernel_, [&](Process& p) {
    Result<SharedBufferDesc> created = CreateSharedBuffer(p);
    ASSERT_TRUE(created.ok());
    desc = *created;
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    PipeEndpoint pipe(p, kRingVa, writer_peer, /*posix_emulation=*/false);
    for (uint32_t i = 1; i <= kCount; ++i) {
      ASSERT_EQ(pipe.WriteWord(i), Status::kOk);
    }
  });
  Process reader(kernel_, [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    PipeEndpoint pipe(p, kRingVa, reader_peer, /*posix_emulation=*/false);
    uint32_t expect = 1;
    for (uint32_t i = 1; i <= kCount; ++i) {
      Result<uint32_t> v = pipe.ReadWord();
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(*v, expect++);
    }
    sum = expect - 1;
  });
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel_.Run();
  EXPECT_EQ(sum, kCount);
}

TEST_F(ExosIpcTest, PipeMessagesRoundTrip) {
  SharedBufferDesc desc;
  bool ready = false;
  std::vector<std::vector<uint8_t>> got;
  PipePeer writer_peer;
  PipePeer reader_peer;

  Process writer(kernel_, [&](Process& p) {
    Result<SharedBufferDesc> created = CreateSharedBuffer(p);
    ASSERT_TRUE(created.ok());
    desc = *created;
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    PipeEndpoint pipe(p, kRingVa, writer_peer, false);
    std::vector<uint8_t> m1 = {1, 2, 3};
    std::vector<uint8_t> m2 = {9, 8, 7, 6, 5, 4, 3, 2, 1};
    std::vector<uint8_t> m3 = {};
    ASSERT_EQ(pipe.WriteMessage(m1), Status::kOk);
    ASSERT_EQ(pipe.WriteMessage(m2), Status::kOk);
    ASSERT_EQ(pipe.WriteMessage(m3), Status::kOk);
  });
  Process reader(kernel_, [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    PipeEndpoint pipe(p, kRingVa, reader_peer, false);
    for (int i = 0; i < 3; ++i) {
      std::vector<uint8_t> buf(64);
      Result<uint32_t> len = pipe.ReadMessage(buf);
      ASSERT_TRUE(len.ok());
      buf.resize(*len);
      got.push_back(buf);
    }
  });
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel_.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(got[1], (std::vector<uint8_t>{9, 8, 7, 6, 5, 4, 3, 2, 1}));
  EXPECT_TRUE(got[2].empty());
}

TEST_F(ExosIpcTest, PropertyPipeMatchesDequeModel) {
  // Random message sizes against a deque reference model.
  SharedBufferDesc desc;
  bool ready = false;
  std::deque<std::vector<uint8_t>> model;
  PipePeer writer_peer;
  PipePeer reader_peer;
  SplitMix64 rng(5);
  constexpr int kMessages = 200;

  Process writer(kernel_, [&](Process& p) {
    Result<SharedBufferDesc> created = CreateSharedBuffer(p);
    ASSERT_TRUE(created.ok());
    desc = *created;
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    PipeEndpoint pipe(p, kRingVa, writer_peer, false);
    for (int i = 0; i < kMessages; ++i) {
      std::vector<uint8_t> msg(rng.NextBelow(200));
      for (auto& byte : msg) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      model.push_back(msg);  // Cooperative scheduling: no data race.
      ASSERT_EQ(pipe.WriteMessage(msg), Status::kOk);
    }
  });
  Process reader(kernel_, [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    PipeEndpoint pipe(p, kRingVa, reader_peer, false);
    for (int i = 0; i < kMessages; ++i) {
      std::vector<uint8_t> buf(256);
      Result<uint32_t> len = pipe.ReadMessage(buf);
      ASSERT_TRUE(len.ok());
      buf.resize(*len);
      ASSERT_FALSE(model.empty());
      ASSERT_EQ(buf, model.front());
      model.pop_front();
    }
  });
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel_.Run();
  EXPECT_TRUE(model.empty());
}

TEST_F(ExosIpcTest, SharedMemoryWordVisibleAcrossProcesses) {
  SharedBufferDesc desc;
  bool ready = false;
  uint32_t seen = 0;
  Process a(kernel_, [&](Process& p) {
    Result<SharedBufferDesc> created = CreateSharedBuffer(p);
    ASSERT_TRUE(created.ok());
    desc = *created;
    ASSERT_EQ(MapSharedBuffer(p, desc, 0x6000000), Status::kOk);
    ASSERT_EQ(machine_.StoreWord(0x6000000, 0xabcd), Status::kOk);
    ready = true;
  });
  Process b(kernel_, [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(MapSharedBuffer(p, desc, 0x7000000), Status::kOk);  // Own vaddr.
    Result<uint32_t> v = machine_.LoadWord(0x7000000);
    ASSERT_TRUE(v.ok());
    seen = *v;
  });
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  kernel_.Run();
  EXPECT_EQ(seen, 0xabcdu);
}

TEST_F(ExosIpcTest, LrpcCallsServerFunction) {
  aegis::EnvId server_id = aegis::kNoEnv;
  uint32_t result = 0;
  Process server(kernel_, [&](Process& p) {
    InstallLrpcServer(p, [](const aegis::PctArgs& args) {
      aegis::PctArgs reply;
      reply.regs[0] = args.regs[0] * args.regs[1];
      return reply;
    });
    p.kernel().SysBlock();  // Serve passively until woken to exit.
  });
  cap::Capability server_cap;
  Process client(kernel_, [&](Process& p) {
    p.kernel().SysYield(server_id);
    aegis::PctArgs args;
    args.regs[0] = 6;
    args.regs[1] = 7;
    Result<aegis::PctArgs> reply = LrpcCall(p, server_id, args);
    ASSERT_TRUE(reply.ok());
    result = reply->regs[0];
    ASSERT_EQ(p.kernel().SysWake(server_id, server_cap), Status::kOk);
  });
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(client.ok());
  server_id = server.id();
  server_cap = server.env_cap();
  kernel_.Run();
  EXPECT_EQ(result, 42u);
}

TEST_F(ExosIpcTest, TlrpcCheaperThanLrpc) {
  aegis::EnvId lrpc_id = aegis::kNoEnv;
  aegis::EnvId tlrpc_id = aegis::kNoEnv;
  cap::Capability lrpc_cap;
  cap::Capability tlrpc_cap;
  uint64_t lrpc_cost = 0;
  uint64_t tlrpc_cost = 0;

  auto echo = [](const aegis::PctArgs& args) { return args; };
  Process lrpc_server(kernel_, [&](Process& p) {
    InstallLrpcServer(p, echo);
    p.kernel().SysBlock();
  });
  Process tlrpc_server(kernel_, [&](Process& p) {
    InstallTlrpcServer(p, echo);
    p.kernel().SysBlock();
  });
  Process client(kernel_, [&](Process& p) {
    p.kernel().SysYield(lrpc_id);
    p.kernel().SysYield(tlrpc_id);
    constexpr int kIters = 100;
    uint64_t t0 = machine_.clock().now();
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(LrpcCall(p, lrpc_id, aegis::PctArgs{}).ok());
    }
    lrpc_cost = (machine_.clock().now() - t0) / kIters;
    t0 = machine_.clock().now();
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(TlrpcCall(p, tlrpc_id, aegis::PctArgs{}).ok());
    }
    tlrpc_cost = (machine_.clock().now() - t0) / kIters;
    ASSERT_EQ(p.kernel().SysWake(lrpc_id, lrpc_cap), Status::kOk);
    ASSERT_EQ(p.kernel().SysWake(tlrpc_id, tlrpc_cap), Status::kOk);
  });
  ASSERT_TRUE(lrpc_server.ok());
  ASSERT_TRUE(tlrpc_server.ok());
  ASSERT_TRUE(client.ok());
  lrpc_id = lrpc_server.id();
  lrpc_cap = lrpc_server.env_cap();
  tlrpc_id = tlrpc_server.id();
  tlrpc_cap = tlrpc_server.env_cap();
  kernel_.Run();
  EXPECT_LT(tlrpc_cost, lrpc_cost);
}

// --- Stride scheduler (paper §7.3) ---

TEST_F(ExosIpcTest, StrideSchedulerHonoursProportions) {
  // 3:2:1 tickets over 150 slices => 75/50/25 within rounding.
  std::vector<uint64_t> allocations;
  std::array<Process*, 3> workers{};
  std::array<std::unique_ptr<Process>, 3> worker_storage;
  bool stop = false;

  for (int i = 0; i < 3; ++i) {
    worker_storage[i] = std::make_unique<Process>(
        kernel_,
        [&stop](Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);  // Compute.
          }
        },
        Process::Options{.slices = 0, .demand_zero = true});
    workers[i] = worker_storage[i].get();
    ASSERT_TRUE(workers[i]->ok());
  }
  Process sched(kernel_, [&](Process& p) {
    StrideScheduler stride(p.kernel());
    stride.AddClient(workers[0]->id(), 3);
    stride.AddClient(workers[1]->id(), 2);
    stride.AddClient(workers[2]->id(), 1);
    stride.RunSlices(150);
    allocations = stride.allocations();
    stop = true;
  });
  ASSERT_TRUE(sched.ok());
  kernel_.Run();

  ASSERT_EQ(allocations.size(), 3u);
  EXPECT_NEAR(static_cast<double>(allocations[0]), 75.0, 2.0);
  EXPECT_NEAR(static_cast<double>(allocations[1]), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(allocations[2]), 25.0, 2.0);
}

TEST_F(ExosIpcTest, StrideAllocationErrorBoundedAtEveryPrefix) {
  // Stride scheduling's deterministic guarantee: at every point in time
  // the absolute error versus the ideal share is within one slice per
  // client (we allow 1.5 for the integer-stride rounding).
  std::vector<size_t> history;
  std::array<std::unique_ptr<Process>, 3> workers;
  bool stop = false;
  const uint32_t tickets[3] = {5, 3, 2};
  for (int i = 0; i < 3; ++i) {
    workers[i] = std::make_unique<Process>(
        kernel_,
        [&stop](Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        Process::Options{.slices = 0, .demand_zero = true});
    ASSERT_TRUE(workers[i]->ok());
  }
  Process sched(kernel_, [&](Process& p) {
    StrideScheduler stride(p.kernel());
    for (int i = 0; i < 3; ++i) {
      stride.AddClient(workers[i]->id(), tickets[i]);
    }
    stride.RunSlices(200);
    history = stride.history();
    stop = true;
  });
  ASSERT_TRUE(sched.ok());
  kernel_.Run();

  ASSERT_EQ(history.size(), 200u);
  double counts[3] = {0, 0, 0};
  const double total_tickets = 10.0;
  for (size_t t = 0; t < history.size(); ++t) {
    counts[history[t]] += 1.0;
    for (int c = 0; c < 3; ++c) {
      const double ideal = (t + 1) * tickets[c] / total_tickets;
      EXPECT_LE(std::abs(counts[c] - ideal), 1.5)
          << "client " << c << " at slice " << t;
    }
  }
}

TEST_F(ExosIpcTest, StrideThreeTwoOneHistoryIsPinned) {
  // Figure 3's run, pick by pick: 3:2:1 tickets over 150 slices. A client
  // is written as 'A' + its AddClient index. Equal passes go to the lowest
  // index, so a change of tie-break moves this string.
  std::string history;
  std::array<std::unique_ptr<Process>, 3> workers;
  bool stop = false;
  for (auto& worker : workers) {
    worker = std::make_unique<Process>(
        kernel_,
        [&stop](Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        Process::Options{.slices = 0, .demand_zero = true});
    ASSERT_TRUE(worker->ok());
  }
  Process sched(kernel_, [&](Process& p) {
    StrideScheduler stride(p.kernel());
    stride.AddClient(workers[0]->id(), 3);
    stride.AddClient(workers[1]->id(), 2);
    stride.AddClient(workers[2]->id(), 1);
    stride.RunSlices(150);
    for (const size_t client : stride.history()) {
      history.push_back(static_cast<char>('A' + client));
    }
    stop = true;
  });
  ASSERT_TRUE(sched.ok());
  kernel_.Run();

  EXPECT_EQ(history,
            "AABAABCABAABCABAABCABAABCABAABCABAABCABAABCABAABCA"
            "BAABCABAABCABAABCABAABCABAABCABAABCABAABCABAABCABA"
            "ABCABAABCABAABCABAABCABAABCABAABCABAABCABAABCABAAB");
}

struct StrideRun {
  std::vector<size_t> history;
  std::vector<uint64_t> allocations;
};

// Three compute-bound clients with `tickets` share `slices` slices of a
// fresh uniprocessor. The pick loop runs inline in an ordinary process
// (RunSlices) or in the scheduler's own pinned process (Start).
StrideRun RunThreeClients(const std::array<uint32_t, 3>& tickets, uint32_t slices, bool start) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "stride"});
  aegis::Aegis kernel(machine);
  StrideScheduler stride(kernel);
  std::array<std::unique_ptr<Process>, 3> workers;
  for (auto& worker : workers) {
    worker = std::make_unique<Process>(
        kernel,
        [&stride, slices](Process& p) {
          while (stride.history().size() < slices) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        Process::Options{.slices = 0, .demand_zero = true});
    EXPECT_TRUE(worker->ok());
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    stride.AddClient(workers[i]->id(), tickets[i]);
  }
  std::unique_ptr<Process> inline_scheduler;
  if (start) {
    EXPECT_TRUE(stride.Start(slices));
  } else {
    inline_scheduler =
        std::make_unique<Process>(kernel, [&stride, slices](Process&) { stride.RunSlices(slices); });
    EXPECT_TRUE(inline_scheduler->ok());
  }
  kernel.Run();
  return StrideRun{stride.history(), stride.allocations()};
}

TEST(StrideSchedulerTest, StartOnOneCpuPicksWhatAnInlineRunPicks) {
  // On one CPU every client is homed on CPU 0, so the pinned scheduler
  // process that Start spawns makes exactly the inline loop's picks.
  const StrideRun started = RunThreeClients({5, 3, 2}, 120, /*start=*/true);
  const StrideRun inlined = RunThreeClients({5, 3, 2}, 120, /*start=*/false);
  ASSERT_EQ(inlined.history.size(), 120u);
  EXPECT_EQ(started.history, inlined.history);
  EXPECT_EQ(started.allocations, inlined.allocations);
}

}  // namespace
}  // namespace xok::exos
