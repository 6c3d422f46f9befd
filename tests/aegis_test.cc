#include "src/core/aegis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dpf/tcpip_filters.h"
#include "src/hw/nic.h"
#include "src/net/wire.h"

namespace xok::aegis {
namespace {

class AegisTest : public ::testing::Test {
 protected:
  AegisTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "aegis"}), kernel_(machine_) {}

  hw::Machine machine_;
  Aegis kernel_;
};

TEST_F(AegisTest, SingleEnvRunsAndExits) {
  bool ran = false;
  EnvSpec spec;
  spec.entry = [&] { ran = true; };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_TRUE(ran);
}

TEST_F(AegisTest, CreateEnvRequiresEntry) {
  EnvSpec spec;
  EXPECT_EQ(kernel_.CreateEnv(std::move(spec)).status(), Status::kErrInvalidArgs);
}

TEST_F(AegisTest, SysSelfReturnsEnvId) {
  EnvId seen = kNoEnv;
  EnvSpec spec;
  spec.entry = [&] { seen = kernel_.SysSelf(); };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  ASSERT_TRUE(grant.ok());
  kernel_.Run();
  EXPECT_EQ(seen, grant->env);
}

TEST_F(AegisTest, NullSyscallCostMatchesPaperScale) {
  uint64_t cost = 0;
  EnvSpec spec;
  spec.entry = [&] {
    const uint64_t t0 = machine_.clock().now();
    kernel_.SysNull();
    cost = machine_.clock().now() - t0;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  // Paper: Aegis null syscall ~1.6/2.3 us on the 5000/125 — an order of
  // magnitude under Ultrix. Ours should land in the same band (< 3 us).
  EXPECT_GT(hw::CyclesToMicros(cost), 0.5);
  EXPECT_LT(hw::CyclesToMicros(cost), 3.0);
}

TEST_F(AegisTest, TwoEnvsYieldPingPong) {
  std::vector<int> trace;
  EnvId id_a = kNoEnv;
  EnvId id_b = kNoEnv;
  EnvSpec a;
  a.entry = [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(1);
      kernel_.SysYield(id_b);
    }
  };
  EnvSpec b;
  b.entry = [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(2);
      kernel_.SysYield(id_a);
    }
  };
  Result<EnvGrant> ga = kernel_.CreateEnv(std::move(a));
  Result<EnvGrant> gb = kernel_.CreateEnv(std::move(b));
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  id_a = ga->env;
  id_b = gb->env;
  kernel_.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST_F(AegisTest, BlockAndWake) {
  std::vector<int> trace;
  EnvId sleeper_id = kNoEnv;
  cap::Capability sleeper_cap;
  EnvSpec sleeper;
  sleeper.entry = [&] {
    trace.push_back(1);
    kernel_.SysBlock();
    trace.push_back(3);
  };
  EnvSpec waker;
  waker.entry = [&] {
    // Let the sleeper run first and block.
    kernel_.SysYield(sleeper_id);
    trace.push_back(2);
    EXPECT_EQ(kernel_.SysWake(sleeper_id, sleeper_cap), Status::kOk);
  };
  Result<EnvGrant> gs = kernel_.CreateEnv(std::move(sleeper));
  ASSERT_TRUE(gs.ok());
  sleeper_id = gs->env;
  sleeper_cap = gs->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(waker)).ok());
  kernel_.Run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

// SysSleep is "block until a wake or the deadline": a peer's wake ends it
// early, and the alarm it armed dies with it. A stale alarm that outlived
// its sleep would cut the sleeper's next SysBlock short at ~1M cycles
// instead of letting it wait for the peer's second wake at ~5M.
TEST_F(AegisTest, SleepAlarmDiesWithTheSleep) {
  constexpr uint64_t kSleepCycles = 1'000'000;
  constexpr uint64_t kSecondWakeAt = 5'000'000;
  EnvId sleeper_id = kNoEnv;
  cap::Capability sleeper_cap;
  uint64_t sleep_ended = 0;
  uint64_t block_ended = 0;
  uint64_t untouched_sleep = 0;
  EnvSpec sleeper;
  sleeper.entry = [&] {
    kernel_.SysSleep(kSleepCycles);
    sleep_ended = kernel_.SysGetCycles();
    kernel_.SysBlock();
    block_ended = kernel_.SysGetCycles();
    // With nobody to wake it, a sleep lasts its full interval.
    const uint64_t before = kernel_.SysGetCycles();
    kernel_.SysSleep(kSleepCycles);
    untouched_sleep = kernel_.SysGetCycles() - before;
  };
  EnvSpec waker;
  waker.entry = [&] {
    kernel_.SysYield(sleeper_id);  // The sleeper arms its alarm and blocks.
    EXPECT_EQ(kernel_.SysWake(sleeper_id, sleeper_cap), Status::kOk);
    kernel_.SysSleep(kSecondWakeAt - kernel_.SysGetCycles());
    EXPECT_EQ(kernel_.SysWake(sleeper_id, sleeper_cap), Status::kOk);
  };
  Result<EnvGrant> gs = kernel_.CreateEnv(std::move(sleeper));
  ASSERT_TRUE(gs.ok());
  sleeper_id = gs->env;
  sleeper_cap = gs->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(waker)).ok());
  kernel_.Run();
  EXPECT_GT(sleep_ended, 0u);
  EXPECT_LT(sleep_ended, 10'000u);  // Ended by the wake, not the alarm.
  EXPECT_GE(block_ended, kSecondWakeAt);  // Not by the stale 1M alarm.
  EXPECT_GE(untouched_sleep, kSleepCycles);
}

TEST_F(AegisTest, WakeWithForgedCapabilityDenied) {
  EnvId sleeper_id = kNoEnv;
  cap::Capability sleeper_cap;
  bool woke_via_forgery = false;
  EnvSpec sleeper;
  sleeper.entry = [&] { kernel_.SysBlock(); };
  EnvSpec attacker;
  attacker.entry = [&] {
    kernel_.SysYield(sleeper_id);
    cap::Capability forged = sleeper_cap;
    forged.mac ^= 0xdead;
    EXPECT_EQ(kernel_.SysWake(sleeper_id, forged), Status::kErrAccessDenied);
    woke_via_forgery = false;
    // Clean up with the real capability so Run() terminates... it only
    // unblocks; the sleeper then exits.
    EXPECT_EQ(kernel_.SysWake(sleeper_id, sleeper_cap), Status::kOk);
  };
  Result<EnvGrant> gs = kernel_.CreateEnv(std::move(sleeper));
  ASSERT_TRUE(gs.ok());
  sleeper_id = gs->env;
  sleeper_cap = gs->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(attacker)).ok());
  kernel_.Run();
  EXPECT_FALSE(woke_via_forgery);
}

TEST_F(AegisTest, TimerPreemptsComputeBoundEnvs) {
  // Two compute-bound environments with no voluntary yields must both make
  // progress: the slice timer preempts at charge boundaries.
  uint64_t progress[2] = {0, 0};
  bool other_ran_during[2] = {false, false};
  for (int i = 0; i < 2; ++i) {
    EnvSpec spec;
    spec.entry = [&, i] {
      for (int step = 0; step < 200; ++step) {
        machine_.Charge(hw::Instr(500));  // Compute.
        ++progress[i];
        if (progress[1 - i] > 0 && progress[1 - i] < 200) {
          other_ran_during[i] = true;
        }
      }
    };
    ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  }
  kernel_.Run();
  EXPECT_EQ(progress[0], 200u);
  EXPECT_EQ(progress[1], 200u);
  EXPECT_TRUE(other_ran_during[0] || other_ran_during[1]);
}

TEST_F(AegisTest, EpilogueOverrunForfeitsSlices) {
  // Env 0 burns far beyond the epilogue budget at every slice end; env 1
  // behaves. Env 1 must end up with at least as many slices.
  EnvId hog = kNoEnv;
  EnvSpec bad;
  bad.entry = [&] {
    for (int i = 0; i < 50; ++i) {
      machine_.Charge(kernel_.slice_cycles() / 2);
    }
  };
  bad.handlers.timer_epilogue = [&] { machine_.Charge(kEpilogueBudget * 10); };
  EnvSpec good;
  good.entry = [&] {
    for (int i = 0; i < 50; ++i) {
      machine_.Charge(kernel_.slice_cycles() / 2);
    }
  };
  Result<EnvGrant> gb = kernel_.CreateEnv(std::move(bad));
  ASSERT_TRUE(gb.ok());
  hog = gb->env;
  Result<EnvGrant> gg = kernel_.CreateEnv(std::move(good));
  ASSERT_TRUE(gg.ok());
  kernel_.Run();
  EXPECT_GE(kernel_.slices_of(gg->env), kernel_.slices_of(hog));
}

TEST(AegisSchedTest, SliceScanOrderOverSparseSlots) {
  // Pins the round-robin pick order over a sparse slice vector that spans
  // two bitmap words: fillers exit on their first turn and leave holes,
  // the cursor wraps past the end, and B forfeits one of its two slots to
  // pay for an overrunning epilogue.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "sched"});
  Aegis kernel(machine, Aegis::Config{.slice_count = 70});
  std::string picks;
  const auto add = [&](char name, uint32_t slices, int turns, bool overrun) {
    EnvSpec spec;
    spec.slices = slices;
    spec.entry = [&, name, turns, overrun] {
      for (int turn = 0; turn < turns; ++turn) {
        picks += name;
        if (overrun && turn == 0) {
          machine.Charge(kernel.slice_cycles() * 2);  // Preempted by the timer.
        } else if (turn + 1 < turns) {
          kernel.SysYield();
        }
      }
    };
    if (overrun) {
      spec.handlers.timer_epilogue = [&] { machine.Charge(kEpilogueBudget * 10); };
    }
    ASSERT_TRUE(kernel.CreateEnv(std::move(spec)).ok());
  };
  add('f', 3, 1, false);   // Slots 0-2.
  add('A', 1, 3, false);   // Slot 3.
  add('g', 60, 1, false);  // Slots 4-63.
  add('B', 2, 5, true);    // Slots 64-65.
  add('h', 1, 1, false);   // Slot 66.
  add('i', 1, 1, false);   // Slot 67.
  add('C', 1, 3, false);   // Slot 68.
  kernel.Run();
  EXPECT_EQ(picks, "fAgBhiCABBCABBC");
}

// --- Memory secure bindings ---

TEST_F(AegisTest, AllocMapAccessRoundTrip) {
  Status final_status = Status::kErrInternal;
  uint32_t readback = 0;
  EnvSpec spec;
  spec.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    ASSERT_EQ(kernel_.SysTlbWrite(0x10000, grant->page, /*writable=*/true, grant->cap),
              Status::kOk);
    final_status = machine_.StoreWord(0x10000, 0xfeedface);
    Result<uint32_t> value = machine_.LoadWord(0x10000);
    ASSERT_TRUE(value.ok());
    readback = *value;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_EQ(final_status, Status::kOk);
  EXPECT_EQ(readback, 0xfeedfaceu);
}

TEST_F(AegisTest, SpecificPageRequestHonoured) {
  EnvSpec spec;
  spec.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage(42);
    ASSERT_TRUE(grant.ok());
    EXPECT_EQ(grant->page, 42u);
    // Same frame again: already taken.
    EXPECT_EQ(kernel_.SysAllocPage(42).status(), Status::kErrAlreadyExists);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, TlbWriteWithoutCapabilityDenied) {
  EnvSpec spec;
  spec.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    cap::Capability forged = grant->cap;
    forged.resource.index ^= 1;
    EXPECT_EQ(kernel_.SysTlbWrite(0x10000, grant->page, true, forged),
              Status::kErrAccessDenied);
    // Read-only capability cannot create a writable mapping.
    Result<cap::Capability> ro = kernel_.SysDeriveCap(grant->cap, cap::kRead);
    ASSERT_TRUE(ro.ok());
    EXPECT_EQ(kernel_.SysTlbWrite(0x10000, grant->page, true, *ro),
              Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysTlbWrite(0x10000, grant->page, false, *ro), Status::kOk);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, DeallocKillsOutstandingCapabilities) {
  EnvSpec spec;
  spec.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    ASSERT_EQ(kernel_.SysDeallocPage(grant->page, grant->cap), Status::kOk);
    // The epoch moved: the old capability no longer binds, even though the
    // frame is free again.
    EXPECT_EQ(kernel_.SysTlbWrite(0x10000, grant->page, true, grant->cap),
              Status::kErrAccessDenied);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, SharedPageViaDerivedCapability) {
  // Env A allocates a page, writes a value, and hands a read-only derived
  // capability to env B (through plain shared state here; in ExOS this
  // travels through a PCT). B maps it read-only and reads A's value.
  cap::Capability ro_cap;
  hw::PageId shared_page = 0;
  bool handoff_done = false;
  uint32_t b_read = 0;
  Status b_write_status = Status::kOk;
  EnvId id_b = kNoEnv;

  EnvSpec a;
  a.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    shared_page = grant->page;
    ASSERT_EQ(kernel_.SysTlbWrite(0x20000, grant->page, true, grant->cap), Status::kOk);
    ASSERT_EQ(machine_.StoreWord(0x20000, 0x5eed), Status::kOk);
    Result<cap::Capability> derived = kernel_.SysDeriveCap(grant->cap, cap::kRead);
    ASSERT_TRUE(derived.ok());
    ro_cap = *derived;
    handoff_done = true;
    kernel_.SysYield(id_b);
  };
  EnvSpec b;
  b.entry = [&] {
    while (!handoff_done) {
      kernel_.SysYield();
    }
    ASSERT_EQ(kernel_.SysTlbWrite(0x30000, shared_page, false, ro_cap), Status::kOk);
    Result<uint32_t> value = machine_.LoadWord(0x30000);
    ASSERT_TRUE(value.ok());
    b_read = *value;
    b_write_status = machine_.StoreWord(0x30000, 1);  // Must fault: read-only.
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(a)).ok());
  Result<EnvGrant> gb = kernel_.CreateEnv(std::move(b));
  ASSERT_TRUE(gb.ok());
  id_b = gb->env;
  kernel_.Run();
  EXPECT_EQ(b_read, 0x5eedu);
  EXPECT_EQ(b_write_status, Status::kErrAccessDenied);
}

TEST_F(AegisTest, StlbAbsorbsRepeatMisses) {
  EnvSpec spec;
  spec.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    ASSERT_EQ(kernel_.SysTlbWrite(0x40000, grant->page, true, grant->cap), Status::kOk);
    // Evict from the hardware TLB by thrashing other ASID mappings is hard
    // from one env; instead invalidate the hardware TLB directly and rely
    // on the STLB for the refill.
    machine_.tlb().FlushAll();
    const uint64_t hits_before = kernel_.stlb_hits();
    ASSERT_TRUE(machine_.LoadWord(0x40000).ok());
    EXPECT_EQ(kernel_.stlb_hits(), hits_before + 1);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

// --- Exceptions ---

TEST_F(AegisTest, ExceptionsDispatchToApplicationHandler) {
  std::vector<hw::ExceptionType> seen;
  EnvSpec spec;
  spec.handlers.exception = [&](const hw::TrapFrame& frame) {
    seen.push_back(frame.type);
    return ExcAction::kSkip;
  };
  spec.entry = [&] {
    (void)machine_.LoadWord(0x50001);               // Unaligned.
    (void)machine_.AddOverflow(0x7fffffff, 1);      // Overflow.
    (void)machine_.CoprocOp();                      // Coprocessor unusable.
    (void)machine_.LoadWord(0x50000);               // TLB miss, unhandled.
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], hw::ExceptionType::kAddressError);
  EXPECT_EQ(seen[1], hw::ExceptionType::kOverflow);
  EXPECT_EQ(seen[2], hw::ExceptionType::kCoprocUnusable);
  EXPECT_EQ(seen[3], hw::ExceptionType::kTlbMissLoad);
}

TEST_F(AegisTest, ApplicationHandlerCanFixFaultAndRetry) {
  // An application-level pager: on TLB miss, allocate and map the page.
  int faults = 0;
  EnvSpec spec;
  spec.handlers.exception = [&](const hw::TrapFrame& frame) {
    if (frame.type != hw::ExceptionType::kTlbMissLoad &&
        frame.type != hw::ExceptionType::kTlbMissStore) {
      return ExcAction::kSkip;
    }
    ++faults;
    Result<PageGrant> grant = kernel_.SysAllocPage();
    if (!grant.ok()) {
      return ExcAction::kSkip;
    }
    if (kernel_.SysTlbWrite(frame.bad_vaddr, grant->page, true, grant->cap) != Status::kOk) {
      return ExcAction::kSkip;
    }
    return ExcAction::kRetry;
  };
  Status store_status = Status::kErrInternal;
  uint32_t value = 0;
  spec.entry = [&] {
    store_status = machine_.StoreWord(0x60000, 123);
    Result<uint32_t> read = machine_.LoadWord(0x60000);
    value = read.ok() ? *read : 0;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_EQ(store_status, Status::kOk);
  EXPECT_EQ(value, 123u);
  EXPECT_EQ(faults, 1);
}

// --- Protected control transfer ---

TEST_F(AegisTest, SyncPctTransfersArgumentsAndReply) {
  EnvId server_id = kNoEnv;
  EnvId observed_in_server = kNoEnv;
  EnvSpec server;
  server.handlers.pct_sync = [&](const PctArgs& args) {
    observed_in_server = kernel_.SysSelf();  // Runs in the callee's domain.
    PctArgs reply;
    reply.regs[0] = args.regs[0] + args.regs[1];
    return reply;
  };
  server.entry = [&] { kernel_.SysBlock(); };

  uint32_t sum = 0;
  cap::Capability server_cap;
  EnvSpec client;
  client.entry = [&] {
    PctArgs args;
    args.regs[0] = 30;
    args.regs[1] = 12;
    Result<PctArgs> reply = kernel_.SysPctCall(server_id, args);
    ASSERT_TRUE(reply.ok());
    sum = reply->regs[0];
    EXPECT_EQ(kernel_.SysSelf(), kernel_.current_env());
    // Unblock the server so the world can end.
    EXPECT_EQ(kernel_.SysWake(server_id, server_cap), Status::kOk);
  };
  Result<EnvGrant> gs = kernel_.CreateEnv(std::move(server));
  ASSERT_TRUE(gs.ok());
  server_id = gs->env;
  server_cap = gs->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(client)).ok());
  kernel_.Run();
  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(observed_in_server, server_id);

  // The server env is still blocked... it was woken; Run() finished, so
  // both exited.
}

TEST_F(AegisTest, PctToUnknownEnvFails) {
  EnvSpec spec;
  spec.entry = [&] {
    EXPECT_EQ(kernel_.SysPctCall(99, PctArgs{}).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPctSend(99, PctArgs{}), Status::kErrNotFound);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, PctWithoutEntryHandlerUnsupported) {
  EnvId plain_id = kNoEnv;
  cap::Capability plain_cap;
  EnvSpec plain;
  plain.entry = [&] { kernel_.SysBlock(); };  // Alive but no PCT entry.
  EnvSpec caller;
  caller.entry = [&] {
    kernel_.SysYield(plain_id);  // Let it block first.
    EXPECT_EQ(kernel_.SysPctCall(plain_id, PctArgs{}).status(), Status::kErrUnsupported);
    EXPECT_EQ(kernel_.SysWake(plain_id, plain_cap), Status::kOk);
  };
  Result<EnvGrant> gp = kernel_.CreateEnv(std::move(plain));
  ASSERT_TRUE(gp.ok());
  plain_id = gp->env;
  plain_cap = gp->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(caller)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, PctToExitedEnvNotFound) {
  EnvId dead_id = kNoEnv;
  EnvSpec dead;
  dead.entry = [&] {};  // Exits immediately.
  EnvSpec caller;
  caller.entry = [&] {
    kernel_.SysYield(dead_id);  // Let it exit.
    EXPECT_EQ(kernel_.SysPctCall(dead_id, PctArgs{}).status(), Status::kErrNotFound);
  };
  Result<EnvGrant> gd = kernel_.CreateEnv(std::move(dead));
  ASSERT_TRUE(gd.ok());
  dead_id = gd->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(caller)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, NestedPctCallsCompose) {
  // Client -> proxy -> backend: a PCT handler may itself perform a PCT
  // (IPC libraries compose this way). Domains unwind correctly.
  EnvId proxy_id = kNoEnv;
  EnvId backend_id = kNoEnv;
  cap::Capability proxy_cap;
  cap::Capability backend_cap;
  std::vector<EnvId> domains_seen;

  EnvSpec backend;
  backend.handlers.pct_sync = [&](const PctArgs& args) {
    domains_seen.push_back(kernel_.SysSelf());
    PctArgs reply;
    reply.regs[0] = args.regs[0] * 2;
    return reply;
  };
  backend.entry = [&] { kernel_.SysBlock(); };

  EnvSpec proxy;
  proxy.handlers.pct_sync = [&](const PctArgs& args) {
    domains_seen.push_back(kernel_.SysSelf());
    PctArgs forwarded;
    forwarded.regs[0] = args.regs[0] + 1;
    Result<PctArgs> reply = kernel_.SysPctCall(backend_id, forwarded);
    // Back in the proxy's domain after the nested call.
    domains_seen.push_back(kernel_.SysSelf());
    return reply.ok() ? *reply : PctArgs{};
  };
  proxy.entry = [&] { kernel_.SysBlock(); };

  uint32_t final_value = 0;
  EnvSpec client;
  client.entry = [&] {
    kernel_.SysYield(proxy_id);
    kernel_.SysYield(backend_id);
    PctArgs args;
    args.regs[0] = 20;
    Result<PctArgs> reply = kernel_.SysPctCall(proxy_id, args);
    ASSERT_TRUE(reply.ok());
    final_value = reply->regs[0];
    EXPECT_EQ(kernel_.SysSelf(), kernel_.current_env());
    (void)kernel_.SysWake(proxy_id, proxy_cap);
    (void)kernel_.SysWake(backend_id, backend_cap);
  };
  Result<EnvGrant> gb = kernel_.CreateEnv(std::move(backend));
  Result<EnvGrant> gp = kernel_.CreateEnv(std::move(proxy));
  ASSERT_TRUE(gb.ok());
  ASSERT_TRUE(gp.ok());
  backend_id = gb->env;
  backend_cap = gb->cap;
  proxy_id = gp->env;
  proxy_cap = gp->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(client)).ok());
  kernel_.Run();
  EXPECT_EQ(final_value, (20u + 1) * 2);
  ASSERT_EQ(domains_seen.size(), 3u);
  EXPECT_EQ(domains_seen[0], proxy_id);
  EXPECT_EQ(domains_seen[1], backend_id);
  EXPECT_EQ(domains_seen[2], proxy_id);  // Unwound to the proxy's domain.
}

TEST_F(AegisTest, PctArgsActAsRegisterMessageBuffer) {
  // "The large register sets of modern processors [can] be used as a
  // temporary message buffer" — all eight argument registers transfer.
  EnvId server_id = kNoEnv;
  cap::Capability server_cap;
  EnvSpec server;
  server.handlers.pct_sync = [&](const PctArgs& args) {
    PctArgs reply;
    for (size_t i = 0; i < args.regs.size(); ++i) {
      reply.regs[i] = args.regs[i] ^ 0xffffffffu;
    }
    return reply;
  };
  server.entry = [&] { kernel_.SysBlock(); };
  EnvSpec client;
  client.entry = [&] {
    kernel_.SysYield(server_id);
    PctArgs args;
    for (size_t i = 0; i < args.regs.size(); ++i) {
      args.regs[i] = 0x1000 + static_cast<uint32_t>(i);
    }
    Result<PctArgs> reply = kernel_.SysPctCall(server_id, args);
    ASSERT_TRUE(reply.ok());
    for (size_t i = 0; i < reply->regs.size(); ++i) {
      EXPECT_EQ(reply->regs[i], (0x1000u + i) ^ 0xffffffffu);
    }
    (void)kernel_.SysWake(server_id, server_cap);
  };
  Result<EnvGrant> gs = kernel_.CreateEnv(std::move(server));
  ASSERT_TRUE(gs.ok());
  server_id = gs->env;
  server_cap = gs->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(client)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, AsyncPctDeliveredBeforeCalleeResumes) {
  EnvId callee_id = kNoEnv;
  std::vector<uint32_t> delivered;
  EnvSpec callee;
  callee.handlers.pct_async = [&](const PctArgs& args) { delivered.push_back(args.regs[0]); };
  callee.entry = [&] {
    kernel_.SysBlock();  // Woken by the async PCT.
    // By the time the continuation resumes, the mailbox was drained.
    EXPECT_EQ(delivered.size(), 2u);
  };
  EnvSpec caller;
  caller.entry = [&] {
    kernel_.SysYield(callee_id);  // Let the callee block first.
    PctArgs m1;
    m1.regs[0] = 7;
    PctArgs m2;
    m2.regs[0] = 9;
    EXPECT_EQ(kernel_.SysPctSend(callee_id, m1), Status::kOk);
    EXPECT_EQ(kernel_.SysPctSend(callee_id, m2), Status::kOk);
  };
  Result<EnvGrant> gc = kernel_.CreateEnv(std::move(callee));
  ASSERT_TRUE(gc.ok());
  callee_id = gc->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(caller)).ok());
  kernel_.Run();
  EXPECT_EQ(delivered, (std::vector<uint32_t>{7, 9}));
}

// --- Revocation / abort protocol ---

TEST_F(AegisTest, VisibleRevocationLetsLibOsChooseVictims) {
  std::vector<hw::PageId> owned;
  std::vector<cap::Capability> caps;
  hw::PageId sacrificed = 0;
  EnvSpec spec;
  spec.handlers.revoke = [&](uint32_t pages) {
    // The libOS picks its *last* page as the victim (its choice!).
    for (uint32_t i = 0; i < pages && !owned.empty(); ++i) {
      sacrificed = owned.back();
      EXPECT_EQ(kernel_.SysDeallocPage(owned.back(), caps.back()), Status::kOk);
      owned.pop_back();
      caps.pop_back();
    }
  };
  EnvId self = kNoEnv;
  spec.entry = [&] {
    self = kernel_.SysSelf();
    for (int i = 0; i < 4; ++i) {
      Result<PageGrant> grant = kernel_.SysAllocPage();
      ASSERT_TRUE(grant.ok());
      owned.push_back(grant->page);
      caps.push_back(grant->cap);
    }
    const uint32_t free_before = kernel_.free_pages();
    ASSERT_EQ(kernel_.RevokePages(self, 1), Status::kOk);
    EXPECT_EQ(kernel_.free_pages(), free_before + 1);
    EXPECT_EQ(owned.size(), 3u);
    EXPECT_EQ(sacrificed, owned.size() > 0 ? sacrificed : 0);
    // Compliant: nothing repossessed.
    EXPECT_TRUE(kernel_.SysReadRepossessed().empty());
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

TEST_F(AegisTest, AbortProtocolRepossessesFromNonCompliantEnv) {
  std::vector<cap::Capability> caps;
  std::vector<hw::PageId> owned;
  EnvSpec spec;
  // No revoke handler: the env cannot comply -> abort protocol.
  spec.entry = [&] {
    const EnvId self = kernel_.SysSelf();
    for (int i = 0; i < 3; ++i) {
      Result<PageGrant> grant = kernel_.SysAllocPage();
      ASSERT_TRUE(grant.ok());
      owned.push_back(grant->page);
      caps.push_back(grant->cap);
      ASSERT_EQ(kernel_.SysTlbWrite(0x70000 + i * hw::kPageBytes, grant->page, true, grant->cap),
                Status::kOk);
    }
    ASSERT_EQ(kernel_.RevokePages(self, 2), Status::kOk);
    // Two pages are gone and recorded in the repossession vector.
    std::vector<hw::PageId> taken = kernel_.SysReadRepossessed();
    EXPECT_EQ(taken.size(), 2u);
    // The broken bindings really are broken: old capabilities are dead...
    EXPECT_EQ(kernel_.SysTlbWrite(0x90000, taken[0], true, caps[0]),
              Status::kErrAccessDenied);
    // ...and the vector reads empty once consumed.
    EXPECT_TRUE(kernel_.SysReadRepossessed().empty());
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
}

// --- Framebuffer binding ---

TEST_F(AegisTest, FramebufferTileBindingEnforced) {
  hw::Framebuffer fb(machine_, 64, 64);
  kernel_.AttachFramebuffer(&fb);
  EnvId id_a = kNoEnv;
  EnvSpec a;
  a.entry = [&] {
    id_a = kernel_.SysSelf();
    ASSERT_EQ(kernel_.SysBindFbTile(0, 0), Status::kOk);
    EXPECT_EQ(fb.WritePixel(id_a, 3, 3, 0xff00ff00), Status::kOk);
  };
  EnvSpec b;
  b.entry = [&] {
    const EnvId me = kernel_.SysSelf();
    // A's tile is taken.
    EXPECT_EQ(kernel_.SysBindFbTile(0, 0), Status::kErrAccessDenied);
    // Direct hardware access with the wrong tag fails in hardware.
    EXPECT_EQ(fb.WritePixel(me, 3, 3, 1), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysBindFbTile(1, 0), Status::kOk);
    EXPECT_EQ(fb.WritePixel(me, 17, 3, 2), Status::kOk);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(a)).ok());
  ASSERT_TRUE(kernel_.CreateEnv(std::move(b)).ok());
  kernel_.Run();
  EXPECT_EQ(fb.ReadPixel(3, 3), 0xff00ff00u);
}

}  // namespace
}  // namespace xok::aegis
