// Tests for the multi-machine rack (src/exos/server/rack.h) and the
// determinism contracts of the unified World/SMP event loop it rides on:
//   * consistent-hash sharding spreads one workload over N server
//     machines and serves every request;
//   * two same-seed runs of a World are byte-identical (one-word
//     fingerprint over every machine's final clocks + client stats);
//   * an SMP machine's simulated cost table is pinned by golden values,
//     standalone and World-attached alike, so event-loop refactors that
//     shift cycle accounting fail loudly here instead of silently
//     re-baselining every bench;
//   * a mid-workload power cut halts only the victim machine: lanes
//     re-steer its arc to ring successors, survivors audit clean, and the
//     victim's platter image journal-replays to Fsck-clean stores;
//   * a seeded async kill of a KvServer worker env on one machine is
//     repaired by that machine's supervisor while the rest of the rack
//     keeps serving — the supervision tree exercised across the World.
#include "src/exos/server/rack.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/server/loadgen.h"
#include "src/hw/machine.h"
#include "src/hw/mapping.h"
#include "src/hw/phys_mem.h"
#include "src/hw/world.h"

namespace xok::exos::server {
namespace {

// Small enough to finish in seconds of wall clock: rack runs simulate
// every cycle of N machines, so request counts here are deliberately low.
RackConfig SmallRack(uint32_t servers) {
  RackConfig config;
  config.server_machines = servers;
  config.cpus_per_server = 2;
  config.lanes = 4;
  config.requests_per_lane = 20;
  config.keys = 16;
  config.vnodes = 32;
  config.seed = 7;
  return config;
}

TEST(Rack, ShardingServesEveryRequestAcrossMachines) {
  const RackConfig config = SmallRack(2);
  const RackResult r = RunRack(config);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.acked, uint64_t{config.lanes} * config.requests_per_lane);
  EXPECT_EQ(r.corrupt, 0u);
  EXPECT_EQ(r.gave_up, 0u);
  EXPECT_EQ(r.resteered, 0u);  // Nobody died: every key served at home.
  EXPECT_EQ(r.retransmissions, 0u);  // Lossless wire: nothing is re-sent.
  ASSERT_EQ(r.acked_by_server.size(), 2u);
  // The ring must actually spread the key space: both machines serve.
  EXPECT_GT(r.acked_by_server[0], 0u);
  EXPECT_GT(r.acked_by_server[1], 0u);
  EXPECT_TRUE(r.audits_ok) << r.audit_error;
  EXPECT_GT(r.aggregate_rps, 0.0);
}

TEST(Rack, SameSeedWorldRunsAreByteIdentical) {
  // Two executions of the same 2-machine World (client + one server) must
  // agree on every machine's final cycle counts and every client-visible
  // stat — the cross-machine determinism contract in one word.
  RackConfig config = SmallRack(1);
  config.lanes = 3;
  config.requests_per_lane = 15;
  config.keys = 8;
  const RackResult a = RunRack(config);
  const RackResult b = RunRack(config);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.acked_by_server, b.acked_by_server);
}

TEST(Rack, PinnedFingerprints) {
  // Exactness oracle for the World's scheduling: a 3-server rack's
  // fingerprint (every machine's final clock and every client-visible
  // count) at three seeds, recorded with the World dispatching contexts
  // in strict lowest-clock order. A scheduler change that lets machines
  // run ahead of each other must leave each one exactly as it was.
  const std::pair<uint64_t, uint64_t> pinned[] = {
      {1, 0xe1daf3b7880feb5dull},
      {2, 0x6f5cd01e02486823ull},
      {3, 0x5b05ab7cfba9fa9bull},
  };
  for (const auto& [seed, fingerprint] : pinned) {
    RackConfig config = SmallRack(3);
    config.seed = seed;
    const RackResult r = RunRack(config);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.acked, uint64_t{config.lanes} * config.requests_per_lane);
    EXPECT_EQ(r.fingerprint, fingerprint) << "seed " << seed << ": 0x" << std::hex
                                          << r.fingerprint;
  }
}

TEST(Rack, SecondRunMapsNoMemory) {
  // Host work, not simulated: a first rack gives its fiber stacks and its
  // machines' physical memory back to the mapping pool, so an identical
  // second one maps nothing (no fiber stack, no physical memory, no disk
  // platter).
  RackConfig config = SmallRack(4);
  config.requests_per_lane = 0;
  ASSERT_TRUE(RunRack(config).ok);
  const uint64_t before = hw::Mapping::made();
  const RackResult r = RunRack(config);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(hw::Mapping::made() - before, 0u);
}

TEST(Rack, WarmRunZeroesAPinnedFrameCount) {
  // Host work, not simulated: each machine zeroes exactly the frames it
  // handed out writable before its memory goes back to the pool. The run
  // is deterministic, so the count is the same on every warm run.
  constexpr uint64_t kFramesZeroedPerRun = 224;
  RackConfig config = SmallRack(4);
  config.requests_per_lane = 0;
  ASSERT_TRUE(RunRack(config).ok);
  for (int run = 0; run < 2; ++run) {
    const uint64_t before = hw::PhysMem::frames_zeroed();
    ASSERT_TRUE(RunRack(config).ok);
    EXPECT_EQ(hw::PhysMem::frames_zeroed() - before, kFramesZeroedPerRun) << "run " << run;
  }
}

TEST(Rack, PowerCutFailsOverAndJournalRecovers) {
  // Server 0 of 2 loses power mid-measured-phase. The cut is
  // machine-scoped under the World: machine 0 (the client) and server 1
  // keep running, lanes mark the victim down and re-steer its arc, and
  // the victim's platter image remounts Fsck-clean with journal replay.
  RackConfig config = SmallRack(2);
  config.lanes = 4;
  config.requests_per_lane = 60;
  config.keys = 8;  // Short preload: serving starts ~0.75 simulated s in.
  config.power_cut_server = 0;
  config.power_cut_cycle = 9 * hw::kClockHz / 10;  // 0.9 s: mid-phase.
  const RackResult r = RunRack(config);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.cut_fired);
  EXPECT_GT(r.resteered, 0u);
  EXPECT_GT(r.recovery_cycles, 0u);
  EXPECT_EQ(r.corrupt, 0u);
  EXPECT_EQ(r.gave_up, 0u);  // Server 1 absorbs the dead arc.
  EXPECT_TRUE(r.recovered_ok) << r.recovery_error;
  EXPECT_TRUE(r.audits_ok) << r.audit_error;
  // Post-cut acks all land on the survivor; the victim served some first.
  ASSERT_EQ(r.acked_by_server.size(), 2u);
  EXPECT_GT(r.acked_by_server[0], 0u);
  EXPECT_GT(r.acked_by_server[1], 0u);
}

TEST(Rack, SeededWorkerKillIsRepairedBySupervisorUnderWorld) {
  // Chaos arm: an async kill of a KvServer worker env on server machine 0
  // while server 1 keeps serving. The worker's supervisor restarts it
  // (incarnations > workers on the victim machine), the run completes
  // with zero give-ups, and every kernel audits clean.
  RackConfig config;
  config.server_machines = 2;
  config.cpus_per_server = 2;
  config.lanes = 2;
  config.requests_per_lane = 15;
  config.keys = 8;
  config.seed = 7;
  config.kill_server = 0;
  // Env layout on a server machine is deterministic: envs 1-2 are the
  // stride scheduler's per-CPU envs, 3 the supervisor, 4-5 the two
  // KvServer workers. If this layout shifts, the incarnation assertion
  // below fails (kill hit a non-worker) — update the env id rather than
  // weakening the assertion.
  config.kill_env = 4;
  config.kill_cycle = hw::kClockHz / 2;  // 0.5 s: mid-warmup, worker live.
  const RackResult r = RunRack(config);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.acked, uint64_t{config.lanes} * config.requests_per_lane);
  EXPECT_EQ(r.corrupt, 0u);
  EXPECT_EQ(r.gave_up, 0u);
  ASSERT_EQ(r.incarnations_by_server.size(), 2u);
  // Victim machine: 2 workers + 1 restart = 3; peer machine untouched.
  EXPECT_EQ(r.incarnations_by_server[0], 3u);
  EXPECT_EQ(r.incarnations_by_server[1], 2u);
  EXPECT_TRUE(r.audits_ok) << r.audit_error;
}

TEST(RackDeterminism, SmpStandaloneGoldenCostTable) {
  // A 4-CPU machine running a fixed workload must reproduce these exact
  // simulated clock values, both standalone (no World) and as the only
  // machine of an explicit hw::World: a standalone machine is a
  // one-machine World, so the two must agree to the cycle. The goldens
  // were captured after the unified-event-loop refactor was validated
  // byte-identical against the seed benches; any future scheduler change
  // that shifts SMP cycle accounting trips this before it silently
  // re-baselines every bench table.
  for (const bool attached : {false, true}) {
    SCOPED_TRACE(attached ? "world-attached" : "standalone");
    std::unique_ptr<hw::World> world = attached ? std::make_unique<hw::World>() : nullptr;
    hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "smp4", .cpus = 4},
                        world.get());
    aegis::Aegis kernel(machine);
    uint64_t wake_cycle[4] = {};
    std::vector<std::unique_ptr<Process>> procs;
    for (uint32_t i = 0; i < 4; ++i) {
      procs.push_back(std::make_unique<Process>(kernel, [i, &wake_cycle](Process& p) {
        for (uint32_t r = 0; r < 20 + 5 * i; ++r) {
          (void)p.machine().StoreWord(0x400000 + r * hw::kPageBytes, r);
          p.kernel().SysYield();
        }
        p.kernel().SysSleep(10'000 * (i + 1));
        wake_cycle[i] = p.kernel().SysGetCycles();
      }));
      ASSERT_TRUE(procs.back()->ok());
    }
    if (world != nullptr) {
      world->Run({[&kernel] { kernel.Run(); }});
    } else {
      kernel.Run();
    }
    const uint64_t golden_wake[4] = {99514, 131874, 164234, 196594};
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(wake_cycle[i], golden_wake[i]) << "cpu-local wake " << i;
    }
    EXPECT_EQ(machine.MaxCpuCycle(), 196620u);
  }
}

}  // namespace
}  // namespace xok::exos::server
