// Randomized chaos soak: several library OSes (VM exerciser, pipe pair,
// LibFS over a faulty disk, a packet-ring consumer flooded over a
// lossy+corrupting wire) run concurrently while a seeded FaultPlan kills
// environments at arbitrary cycle points and injects device errors. After
// every injected event the kernel audits its own resource tables
// (set_audit_on_fault); at the end, every surviving protocol must have
// completed correctly. The whole run is deterministic per seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/fs.h"
#include "src/exos/reqtrace.h"
#include "src/exos/revocation.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/server.h"
#include "src/exos/supervisor.h"
#include "src/exos/tracelib.h"
#include "src/exos/ipc.h"
#include "src/exos/udp.h"
#include "src/hw/disk.h"
#include "src/hw/fault.h"
#include "src/hw/framebuffer.h"
#include "src/hw/nic.h"
#include "src/hw/world.h"
#include "tests/chaos_seeds.h"


namespace xok {
namespace {

uint64_t Resolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

constexpr uint32_t kPipeWords = 2000;
constexpr uint32_t kWordStride = 2654435761u;  // Knuth multiplicative hash.

class ChaosSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSoak, KilledEnvironmentsNeverCorruptTheSurvivors) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE(ChaosTrace(seed));
  hw::World world;
  hw::Machine ma(hw::Machine::Config{.phys_pages = 256, .name = "chaos"}, &world);
  hw::Machine mb(hw::Machine::Config{.phys_pages = 256, .name = "peer"}, &world);
  aegis::Aegis ka(ma);
  aegis::Aegis kb(mb);
  hw::Disk disk(ma, 256);
  hw::Framebuffer fb(ma, 64, 64);
  ka.AttachDisk(&disk);
  ka.AttachFramebuffer(&fb);
  hw::Wire wire;
  hw::Nic na(ma, 0xa);
  hw::Nic nb(mb, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ka.AttachNic(&na);
  kb.AttachNic(&nb);

  // --- Observer: binds the kernel event ring (lifecycle events only — the
  // mask is measurement policy) and exits cleanly, which *retains* the
  // binding: the kernel keeps appending for the whole soak and the ring is
  // read post-mortem below. The observer never runs again, so it cannot
  // perturb the chaos it is recording. ---
  hw::PageId trace_first_page = 0;
  uint32_t trace_pages = 0;
  exos::Process observer(ka, [&](exos::Process& p) {
    exos::TraceSession trace(p);
    ASSERT_EQ(trace.Bind({.pages = 2, .mask = xtrace::kMaskEnvLifecycle}), Status::kOk);
    trace_first_page = trace.first_page();
    trace_pages = trace.page_count();
    // No Close(): exit cleanly with the ring still armed.
  });

  // --- Pipe pair: the writer produces forever (it dies by kill); the
  // reader must obtain kPipeWords intact words and exit cleanly. ---
  exos::SharedBufferDesc desc;
  bool pipe_ready = false;
  bool reader_done = false;
  exos::PipePeer writer_peer;
  exos::PipePeer reader_peer;
  constexpr hw::Vaddr kRingVa = 0x5000000;
  exos::Process pipe_writer(ka, [&](exos::Process& p) {
    desc = *exos::CreateSharedBuffer(p);
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    pipe_ready = true;
    exos::PipeEndpoint out(p, kRingVa, writer_peer, false);
    for (uint32_t i = 0;; ++i) {
      if (out.WriteWord(i * kWordStride) != Status::kOk) {
        break;  // EPIPE: the reader finished and exited.
      }
    }
    for (;;) {
      p.kernel().SysSleep(100'000);  // Park until the scheduled kill lands.
    }
  });
  exos::Process pipe_reader(ka, [&](exos::Process& p) {
    while (!pipe_ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    exos::PipeEndpoint in(p, kRingVa, reader_peer, false);
    for (uint32_t i = 0; i < kPipeWords; ++i) {
      Result<uint32_t> word = in.ReadWord();
      ASSERT_TRUE(word.ok()) << "word " << i;
      ASSERT_EQ(*word, i * kWordStride) << "word " << i;
    }
    reader_done = true;
  });

  // --- VM exerciser: allocates, scribbles, and frees pages, and paints
  // its framebuffer tile, forever (dies by kill). ---
  exos::Process vm_worker(ka, [&](exos::Process& p) {
    ASSERT_EQ(p.kernel().SysBindFbTile(0, 0), Status::kOk);
    for (uint32_t round = 0;; ++round) {
      Result<aegis::PageGrant> page = p.kernel().SysAllocPage();
      if (page.ok()) {
        std::span<uint8_t> bytes = ma.mem().PageSpan(page->page);
        bytes[round % bytes.size()] = static_cast<uint8_t>(round);
        (void)p.kernel().SysDeallocPage(page->page, page->cap);
      }
      (void)fb.WritePixel(p.id(), round % 16, (round / 16) % 16, 0xff00ff00u | round);
      p.kernel().SysSleep(5'000);
    }
  });

  // --- LibFS worker over the faulty disk: write/sync/read loops forever
  // (dies by kill, possibly mid disk transfer). ---
  exos::Process fs_worker(ka, [&](exos::Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = p.kernel().SysAllocDiskExtent(32);
    ASSERT_TRUE(extent.ok());
    Result<std::unique_ptr<exos::LibFs>> fs = exos::LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<exos::FileHandle> file = (*fs)->Create("scratch");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> chunk(512);
    for (uint32_t round = 0;; ++round) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(round * 13 + i);
      }
      // Transient kErrIo past the retry budget is tolerated; being killed
      // mid-transfer is the interesting case.
      (void)(*fs)->Write(*file, (round % 8) * 512, chunk);
      (void)(*fs)->Sync();
      std::vector<uint8_t> back(chunk.size());
      (void)(*fs)->Read(*file, (round % 8) * 512, back);
      p.kernel().SysSleep(2'000);
    }
  });

  // --- Hostile environment: hammers the kernel with forged and stale
  // capabilities the whole time. Every attempt must be denied; it exits
  // cleanly so the denial count is always asserted. ---
  bool forgery_checked = false;
  exos::Process hostile(ka, [&](exos::Process& p) {
    for (int round = 0; round < 200; ++round) {
      Result<aegis::PageGrant> page = p.kernel().SysAllocPage();
      ASSERT_TRUE(page.ok());
      cap::Capability forged = page->cap;
      forged.mac ^= 0x1995 + round;
      EXPECT_EQ(p.kernel().SysTlbWrite(0x30000, page->page, true, forged),
                Status::kErrAccessDenied);
      ASSERT_EQ(p.kernel().SysDeallocPage(page->page, page->cap), Status::kOk);
      // Stale epoch: the very capability that was just valid.
      EXPECT_EQ(p.kernel().SysTlbWrite(0x30000, page->page, true, page->cap),
                Status::kErrAccessDenied);
      p.kernel().SysSleep(1'000);
    }
    forgery_checked = true;
  });

  // --- Packet-ring consumer killed mid-drain: a flooder on the peer
  // machine streams datagrams at a ring-bound socket forever; the consumer
  // drains its RX ring until the scheduled kill lands at an arbitrary
  // point in the drain loop. Teardown must reclaim the ring region while
  // frames are still in flight at it. ---
  uint64_t ring_frames_drained = 0;
  dpf::FilterId ring_filter = 0;
  exos::Process ring_consumer(ka, [&](exos::Process& p) {
    exos::UdpSocket socket(p, exos::NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.BindRing(300, exos::RingConfig{.rx_slots = 8, .tx_slots = 4}),
              Status::kOk);
    ring_filter = *socket.filter_id();
    for (;;) {
      Result<exos::Datagram> dgram = socket.Recv();  // Dies by kill in here.
      if (dgram.ok()) {
        ++ring_frames_drained;
      }
    }
  });
  exos::Process ring_flooder(kb, [&](exos::Process& p) {
    exos::UdpSocket socket(p, exos::NetIface{0xb, 2, Resolve});
    ASSERT_EQ(socket.BindRing(301), Status::kOk);
    p.kernel().SysSleep(hw::kClockHz / 100);
    for (int round = 0; round < 700; ++round) {
      for (uint8_t burst = 0; burst < 4; ++burst) {
        const std::vector<uint8_t> payload = {static_cast<uint8_t>(round), burst};
        (void)socket.QueueTo(1, 300, payload);
      }
      (void)socket.FlushTx();  // One doorbell per burst of four.
      p.kernel().SysSleep(5'000);
    }
    EXPECT_EQ(socket.Close(), Status::kOk);
  });

  ASSERT_TRUE(observer.ok());
  ASSERT_TRUE(pipe_writer.ok());
  ASSERT_TRUE(pipe_reader.ok());
  ASSERT_TRUE(vm_worker.ok());
  ASSERT_TRUE(fs_worker.ok());
  ASSERT_TRUE(hostile.ok());
  ASSERT_TRUE(ring_consumer.ok());
  ASSERT_TRUE(ring_flooder.ok());
  writer_peer = {pipe_reader.id(), pipe_reader.env_cap()};
  reader_peer = {pipe_writer.id(), pipe_writer.env_cap()};

  // --- The fault plan: stochastic disk/wire faults plus scheduled kills
  // aimed at the forever-running workers, at arbitrary cycle points. ---
  hw::FaultPlan plan;
  plan.seed = seed;
  plan.disk_error_per_mille = 150;
  plan.wire_drop_per_mille = 40;
  plan.wire_corrupt_per_mille = 40;
  // One scheduled disk error, so the disk channel fires on every seed even
  // when the 150 per-mille draws all miss. It lands mid-Format on the fs
  // worker (a transfer completes every ~255k cycles; Format ends after
  // ~3.6M, later than some seeds' kill), where BlockCache retries it.
  plan.DiskErrorAt(2'000'000);
  plan.KillEnvAt(1'800'000, pipe_writer.id());
  plan.KillEnvAt(2'500'000 + 10'000 * seed, vm_worker.id());
  plan.KillEnvAt(3'500'000 + 20'000 * seed, fs_worker.id());
  plan.KillEnvAt(2'800'000 + 15'000 * seed, ring_consumer.id());
  plan.SpuriousIrqAt(500'000, hw::InterruptSource::kDiskDone, 424242);
  plan.SpuriousIrqAt(900'000, hw::InterruptSource::kFault, 61);  // No such env.
  ka.InstallFaultPlan(plan);
  wire.set_fault_injector(ka.fault_injector());
  ka.set_audit_on_fault(true);
  kb.set_audit_on_fault(true);

  world.Run({[&] { ka.Run(); }, [&] { kb.Run(); }});

  // Survivors completed despite the carnage around them.
  EXPECT_TRUE(reader_done);
  EXPECT_TRUE(forgery_checked);

  // Every scheduled kill landed, and every post-event audit was clean.
  EXPECT_EQ(ka.envs_killed(), 4u);
  EXPECT_FALSE(ka.EnvAlive(pipe_writer.id()));
  EXPECT_FALSE(ka.EnvAlive(vm_worker.id()));
  EXPECT_FALSE(ka.EnvAlive(fs_worker.id()));
  EXPECT_FALSE(ka.EnvAlive(ring_consumer.id()));
  // The ring consumer was mid-traffic when it died: it had drained frames,
  // the kernel had deposited into its ring, and the post-mortem stats are
  // still readable even though teardown unbound the ring itself.
  EXPECT_GT(ring_frames_drained, 0u);
  const aegis::PacketStats ring_stats = ka.packet_stats(ring_filter);
  EXPECT_GT(ring_stats.delivered, 0u);
  EXPECT_FALSE(ring_stats.ring_bound);
  EXPECT_EQ(ka.audit_failures(), 0u) << ka.first_audit_failure();
  EXPECT_EQ(kb.audit_failures(), 0u) << kb.first_audit_failure();
  aegis::Aegis::AuditReport ra = ka.AuditInvariants();
  EXPECT_TRUE(ra.ok()) << (ra.violations.empty() ? "" : ra.violations.front());
  EXPECT_TRUE(kb.AuditInvariants().ok());
  // The dead VM worker's framebuffer tile went back to the hardware pool.
  EXPECT_EQ(fb.TileOwner(0, 0), hw::Framebuffer::kNoOwner);

  // The event ring survived the whole soak and its record of the carnage
  // matches the kernel's: exactly the scheduled kills appear as forced
  // deaths, while the ring binding (owned by a cleanly exited env) is
  // still live and auditable.
  ASSERT_GT(trace_pages, 0u);
  Result<std::vector<xtrace::Record>> trace_records =
      exos::DecodeRegion(ma.mem().RangeSpan(trace_first_page, trace_pages));
  ASSERT_TRUE(trace_records.ok());
  uint64_t forced_deaths = 0;
  for (const xtrace::Record& record : *trace_records) {
    if (record.type == static_cast<uint16_t>(xtrace::Event::kEnvDeath) &&
        record.arg1 == 1) {
      ++forced_deaths;
    }
  }
  EXPECT_EQ(forced_deaths, ka.envs_killed());
  EXPECT_TRUE(ka.trace_armed());

  // The fault channels all genuinely fired.
  const hw::FaultInjector* injector = ka.fault_injector();
  EXPECT_GT(injector->disk_errors_injected(), 0u);
  EXPECT_GT(injector->frames_dropped(), 0u);
  EXPECT_GT(injector->frames_corrupted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::ValuesIn(ChaosSeeds({1, 2, 3})));

// --- SMP chaos: the same discipline on a four-CPU machine. Scheduled
// kills land on environments pinned to *other* CPUs than the one the
// fault interrupt arrives on, so every forced death crosses an IPI; a
// stale-TLB prober repeatedly maps, loses, and re-touches a frame to
// prove shootdown holds under load (a stale read succeeding would mean
// reading memory that may already have been reallocated). ---

class SmpChaosSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmpChaosSoak, RemoteKillsAndShootdownsLeaveTheLedgerClean) {
  const uint64_t seed = GetParam();
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "smp-chaos", .cpus = 4});
  SCOPED_TRACE(ChaosTrace(seed, &machine));
  aegis::Aegis kernel(machine);

  // Per-CPU page churners: allocate, scribble, free, sleep — finite, so
  // the run can drain once the victims are dead.
  std::vector<std::unique_ptr<exos::Process>> churners;
  uint32_t churn_rounds = 0;
  for (uint32_t k = 0; k < 4; ++k) {
    exos::Process::Options options;
    options.cpu_mask = 1ULL << k;
    churners.push_back(std::make_unique<exos::Process>(
        kernel,
        [&, k](exos::Process& p) {
          for (uint32_t round = 0; round < 40; ++round) {
            Result<aegis::PageGrant> page = p.kernel().SysAllocPage();
            if (page.ok()) {
              std::span<uint8_t> bytes = machine.mem().PageSpan(page->page);
              bytes[(round + k) % bytes.size()] = static_cast<uint8_t>(round);
              (void)p.kernel().SysDeallocPage(page->page, page->cap);
            }
            p.kernel().SysSleep(3'000 + 500 * k);
            ++churn_rounds;
          }
        },
        options));
    ASSERT_TRUE(churners.back()->ok());
  }

  // Kill victims pinned to CPUs 2 and 3: the kFault interrupt arrives on
  // CPU 0, so both reaps must travel by IPI.
  exos::Process::Options victim2_opts;
  victim2_opts.cpu_mask = 1ULL << 2;
  exos::Process victim2(kernel, [&](exos::Process& p) {
    for (;;) {
      p.kernel().SysNull();
      p.machine().Charge(200);
    }
  }, victim2_opts);
  exos::Process::Options victim3_opts;
  victim3_opts.cpu_mask = 1ULL << 3;
  exos::Process victim3(kernel, [&](exos::Process& p) {
    for (;;) {
      Result<aegis::PageGrant> page = p.kernel().SysAllocPage();
      if (page.ok()) {
        // Die holding pages sometimes: teardown must reclaim them.
        if ((p.machine().clock().now() & 1) == 0) {
          (void)p.kernel().SysDeallocPage(page->page, page->cap);
        }
      }
      p.machine().Charge(500);
    }
  }, victim3_opts);
  ASSERT_TRUE(victim2.ok());
  ASSERT_TRUE(victim3.ok());

  // Stale-TLB prober: maps and touches a frame on CPU 1; a partner on
  // CPU 0 revokes it with the shared capability; the prober's re-touch
  // must fault every round — never observe the frame's next life.
  constexpr hw::Vaddr kVa = 0x40000;
  constexpr int kProbeRounds = 6;
  hw::PageId probe_page = 0;
  cap::Capability probe_cap;
  int probe_round = 0;     // Handshake: prober publishes, partner consumes.
  int revoked_round = 0;
  uint32_t stale_reads_ok = 0;
  uint32_t probe_faults = 0;
  bool probe_done = false;

  aegis::EnvSpec prober;
  prober.cpu_mask = 1ULL << 1;
  prober.handlers.exception = [&](const hw::TrapFrame&) {
    ++probe_faults;
    return aegis::ExcAction::kSkip;
  };
  prober.entry = [&] {
    for (int round = 1; round <= kProbeRounds; ++round) {
      Result<aegis::PageGrant> grant = kernel.SysAllocPage();
      ASSERT_TRUE(grant.ok());
      probe_page = grant->page;
      probe_cap = grant->cap;
      ASSERT_EQ(kernel.SysTlbWrite(kVa, probe_page, true, probe_cap), Status::kOk);
      ASSERT_EQ(machine.StoreWord(kVa, 0xbee70000u + round), Status::kOk);
      probe_round = round;
      while (revoked_round < round) {
        kernel.SysYield();
      }
      if (machine.LoadWord(kVa).ok()) {
        ++stale_reads_ok;  // Shootdown failed: we just read a freed frame.
      }
    }
    probe_done = true;
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(prober)).ok());

  aegis::EnvSpec partner;
  partner.cpu_mask = 1ULL << 0;
  partner.entry = [&] {
    for (int round = 1; round <= kProbeRounds; ++round) {
      while (probe_round < round) {
        kernel.SysYield();
      }
      ASSERT_EQ(kernel.SysDeallocPage(probe_page, probe_cap), Status::kOk);
      // Grab the freed frame and give it a new life immediately: if the
      // prober's stale translation survived, it would read this.
      Result<aegis::PageGrant> next = kernel.SysAllocPage();
      if (next.ok()) {
        std::span<uint8_t> bytes = machine.mem().PageSpan(next->page);
        bytes[0] = 0xd0;
        (void)kernel.SysDeallocPage(next->page, next->cap);
      }
      revoked_round = round;
    }
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(partner)).ok());

  hw::FaultPlan plan;
  plan.seed = seed;
  plan.KillEnvAt(900'000 + 40'000 * seed, victim2.id());
  plan.KillEnvAt(1'600'000 + 25'000 * seed, victim3.id());
  plan.SpuriousIrqAt(700'000, hw::InterruptSource::kFault, 99);  // No such env.
  kernel.InstallFaultPlan(plan);
  kernel.set_audit_on_fault(true);

  kernel.Run();

  // Both kills crossed CPUs, the prober never read through a revoked
  // mapping, and every post-fault audit (plus the final one) was clean.
  EXPECT_TRUE(probe_done);
  EXPECT_EQ(stale_reads_ok, 0u);
  EXPECT_EQ(probe_faults, static_cast<uint32_t>(kProbeRounds));
  EXPECT_EQ(churn_rounds, 160u);
  EXPECT_EQ(kernel.envs_killed(), 2u);
  EXPECT_GE(kernel.remote_kills_sent(), 2u);
  EXPECT_FALSE(kernel.EnvAlive(victim2.id()));
  EXPECT_FALSE(kernel.EnvAlive(victim3.id()));
  EXPECT_GE(kernel.tlb_shootdowns(), static_cast<uint64_t>(kProbeRounds));
  EXPECT_EQ(kernel.audit_failures(), 0u) << kernel.first_audit_failure();
  aegis::Aegis::AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpChaosSoak, ::testing::ValuesIn(ChaosSeeds({1, 2, 3})));

// --- Revocation storm: a sustained seeded pressure campaign (pages +
// slices + filters, every period, for millions of cycles) against a
// supervision tree of RevocationClient workers on a two-CPU machine. The
// contract under test: every victim either repairs its abstractions
// (cache refetch, pktring rebind, VM refault, slice re-admission) or is
// restarted by the supervisor; the kernel audits its ledger after every
// pressure application; and once the storm passes, everything is fully
// functional again. ---

class RevocationStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RevocationStorm, EveryVictimRepairsOrRestartsAndTheLedgerStaysClean) {
  const uint64_t seed = GetParam();
  // A single disk access costs kDiskAccessCycles (~250k): LibFS setup alone
  // is ~5M cycles, so the campaign horizon must dwarf it.
  constexpr uint64_t kStormEnd = 12'000'000;
  constexpr uint64_t kQuietAt = kStormEnd + 250'000;  // Post-storm horizon.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "storm", .cpus = 2});
  SCOPED_TRACE(ChaosTrace(seed, &machine));
  // Restart churn burns environment ids (never reused): raise the cap.
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 200});
  hw::Disk disk(machine, 128);
  hw::Nic nic(machine, 0xa);
  kernel.AttachDisk(&disk);
  kernel.AttachNic(&nic);
  kernel.set_audit_on_fault(true);  // Audit at every pressure checkpoint.

  // --- fs worker: journaling LibFS under page + slice pressure. Writes
  // and syncs through the storm (tolerating revocation-induced errors),
  // then must come back to full function once the storm passes. ---
  bool fs_done = false;
  uint32_t fs_rounds = 0;
  auto fs_body = [&](exos::Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = p.kernel().SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    Result<std::unique_ptr<exos::LibFs>> fs = exos::LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<exos::FileHandle> file = (*fs)->Create("soak");
    ASSERT_TRUE(file.ok());
    exos::RevocationClient rc(p, {.fs = fs->get(), .desired_slices = 3});
    std::vector<uint8_t> chunk(512);
    while (p.kernel().SysGetCycles() < kQuietAt) {
      (void)rc.Poll();
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(fs_rounds * 11 + i);
      }
      // Mid-storm writes may lose their frames to repossession before the
      // sync lands; that is the abort protocol working as designed. Sync
      // only every 8th round: a disk barrier costs real (simulated) time,
      // and the in-between rounds are exactly the dirty-cache state the
      // revoke handler's victim-save flush exists for.
      (void)(*fs)->Write(*file, (fs_rounds % 4) * 512, chunk);
      if (fs_rounds % 8 == 7) {
        (void)(*fs)->Sync();
      }
      ++fs_rounds;
      p.kernel().SysSleep(3'000);
    }
    // Post-storm: one repair pass, then everything must work, flawlessly.
    ASSERT_EQ(rc.Poll(), Status::kOk);
    for (uint32_t b = 0; b < 4; ++b) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(b * 29 + i);
      }
      ASSERT_EQ((*fs)->Write(*file, b * 512, chunk), Status::kOk) << "block " << b;
    }
    ASSERT_EQ((*fs)->Sync(), Status::kOk);
    std::vector<uint8_t> back(512);
    for (uint32_t b = 0; b < 4; ++b) {
      Result<uint32_t> read = (*fs)->Read(*file, b * 512, back);
      ASSERT_TRUE(read.ok()) << "block " << b;
      for (size_t i = 0; i < back.size(); ++i) {
        ASSERT_EQ(back[i], static_cast<uint8_t>(b * 29 + i)) << "block " << b << " byte " << i;
      }
    }
    // The guaranteed reserve held: still admitted to at least one CPU.
    Result<aegis::EnvStats> stats = p.kernel().SysEnvStats(p.id());
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->slice_slots, 1u);
    fs_done = true;
  };

  // --- net worker: its one packet filter is reclaimed over and over;
  // every Poll must rebind it. ---
  bool net_done = false;
  auto net_body = [&](exos::Process& p) {
    exos::UdpSocket socket(p, exos::NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.Bind(900), Status::kOk);
    exos::RevocationClient rc(p, {.socket = &socket});
    while (p.kernel().SysGetCycles() < kQuietAt) {
      (void)rc.Poll();
      p.kernel().SysSleep(6'000);
    }
    ASSERT_EQ(rc.Poll(), Status::kOk);
    ASSERT_TRUE(socket.filter_id().has_value());
    EXPECT_TRUE(p.kernel().SysPacketStats(*socket.filter_id()).ok());
    EXPECT_GT(socket.repairs(), 0u);  // The storm genuinely severed it.
    net_done = true;
  };

  // --- vm worker: a 12-page working set repeatedly shot out from under
  // it; refaults and repairs its way through. ---
  bool vm_done = false;
  constexpr hw::Vaddr kVmBase = 0x2000000;
  auto vm_body = [&](exos::Process& p) {
    exos::RevocationClient rc(p, {});
    for (int i = 0; i < 12; ++i) {
      (void)machine.StoreWord(kVmBase + i * hw::kPageBytes, 1000 + i);
    }
    while (p.kernel().SysGetCycles() < kQuietAt) {
      (void)rc.Poll();
      for (int i = 0; i < 12; ++i) {
        // Between a repossession and the next Poll the mapping may be
        // broken — tolerated mid-storm, repaired right after.
        (void)machine.StoreWord(kVmBase + i * hw::kPageBytes, 2000 + i);
      }
      p.kernel().SysSleep(5'000);
    }
    ASSERT_EQ(rc.Poll(), Status::kOk);
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(machine.StoreWord(kVmBase + i * hw::kPageBytes, 3000 + i), Status::kOk);
      Result<uint32_t> word = machine.LoadWord(kVmBase + i * hw::kPageBytes);
      ASSERT_TRUE(word.ok()) << "page " << i;
      EXPECT_EQ(*word, static_cast<uint32_t>(3000 + i));
    }
    vm_done = true;
  };

  // --- crasher: dies twice mid-storm; the supervisor restarts it through
  // the backoff path while the pressure campaign rages. ---
  int crasher_attempts = 0;
  bool crasher_done = false;
  auto crasher_body = [&](exos::Process& p) {
    const int attempt = ++crasher_attempts;
    if (attempt <= 2) {
      p.kernel().SysSleep(150'000 * static_cast<uint64_t>(attempt));
      (void)p.kernel().SysKillEnv(p.id(), p.env_cap());  // Crash.
    }
    while (p.kernel().SysGetCycles() < kQuietAt) {
      p.kernel().SysSleep(20'000);
    }
    crasher_done = true;
  };

  std::vector<exos::ChildSpec> specs;
  specs.push_back({.name = "fs",
                   .body = fs_body,
                   .options = {.slices = 3},
                   .policy = exos::RestartPolicy::kOnFailure,
                   .max_restarts = 4});
  specs.push_back({.name = "net",
                   .body = net_body,
                   .policy = exos::RestartPolicy::kOnFailure,
                   .max_restarts = 4});
  specs.push_back({.name = "vm",
                   .body = vm_body,
                   .policy = exos::RestartPolicy::kOnFailure,
                   .max_restarts = 4});
  specs.push_back({.name = "crasher",
                   .body = crasher_body,
                   .policy = exos::RestartPolicy::kOnFailure,
                   .max_restarts = 6,
                   .backoff_initial = 60'000});
  exos::Supervisor sup(kernel, std::move(specs));
  ASSERT_TRUE(sup.ok());

  aegis::PressurePlan plan;
  plan.seed = seed;
  plan.Storm(/*start=*/200'000, /*end=*/kStormEnd, /*period=*/40'000,
             /*pages=*/3, /*slices=*/1, /*filters=*/1);
  kernel.InstallPressurePlan(plan);

  kernel.Run();
  SCOPED_TRACE(ChaosTrace(seed, &machine));  // Final-cycle context below.

  // Every worker repaired its way through (or was restarted) and proved
  // itself fully functional after the storm.
  EXPECT_TRUE(fs_done);
  EXPECT_TRUE(net_done);
  EXPECT_TRUE(vm_done);
  EXPECT_TRUE(crasher_done);
  EXPECT_GT(fs_rounds, 30u);
  EXPECT_EQ(crasher_attempts, 3);
  EXPECT_TRUE(sup.finished());
  for (const exos::ChildStatus& child : sup.status()) {
    EXPECT_EQ(child.state, exos::ChildState::kDone) << child.name;
  }
  EXPECT_EQ(sup.status()[3].restarts, 2u);  // Both crashes were caught.

  // The campaign genuinely exercised every armed channel.
  const aegis::PressureStats* pressure = kernel.pressure_stats();
  ASSERT_NE(pressure, nullptr);
  EXPECT_GE(pressure->bursts, 50u);
  EXPECT_GT(pressure->pages_requested, 0u);
  EXPECT_GT(pressure->slices_revoked, 0u);
  EXPECT_GT(pressure->filters_reclaimed, 0u);

  // Audits at every checkpoint (each pressure application and kill) plus
  // the final sweep: all clean.
  EXPECT_EQ(kernel.audit_failures(), 0u) << kernel.first_audit_failure();
  aegis::Aegis::AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevocationStorm, ::testing::ValuesIn(ChaosSeeds({1, 2, 3})));

// --- ServerSoak: the whole HTTP/KV server libOS (sharded workers, rings,
// journaled stores, Supervisor) serving a measured closed-loop workload
// while (a) a seeded pressure storm reclaims pages, slices, and packet
// filters out from under everyone, and (b) an assassin environment kills
// a worker mid-burst with the env_cap the Supervisor holds. The contract:
// the Supervisor restarts the victim, the client's retries carry every
// in-flight request across the outage (a restarted shard re-formats and
// re-preloads — tens of millions of cycles the retry budget must dwarf),
// not one response is ever corrupt (data LOSS across the crash is legal
// and visible; data CORRUPTION is counted and must be zero), and the
// kernel's ledger audits clean after every pressure burst and kill. ---

uint64_t SoakResolve(uint32_t) { return 0xa; }  // Loopback: everything is us.

class ServerSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerSoak, MidBurstWorkerKillRestartsCleanlyAndNothingCorrupts) {
  namespace srv = exos::server;
  const uint64_t seed = GetParam();
  hw::Machine machine(
      hw::Machine::Config{.phys_pages = 2048, .name = "soak", .cpus = 2});
  SCOPED_TRACE(ChaosTrace(seed, &machine));
  // Restart churn burns env ids (never reused): generous cap.
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 200});
  hw::Nic nic(machine, 0xa);
  // Extents are never reused (monotonic cursor) and every incarnation
  // formats a fresh one: restart churn needs disk headroom.
  hw::Disk disk(machine, 4096);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);
  kernel.set_audit_on_fault(true);  // Audit after every burst and kill.

  srv::KvServerConfig config;
  config.iface = exos::NetIface{0xa, 1, SoakResolve};
  config.workers = 2;
  config.use_rings = true;
  config.preload = srv::MakePreload(12, 64);
  // The storm makes restarts crash-loop (a multi-million-cycle journaled
  // format cannot finish between repossession bursts): the exponential
  // backoff ladder 2M -> 4M -> 8M -> 16M spreads respawns until one lands
  // past the storm's end, and max_restarts must absorb the failed rungs.
  config.max_restarts = 10;
  config.restart_backoff = 2'000'000;
  config.restart_backoff_cap = 16'000'000;
  // Workers stamp per-request stage marks and the demux copies the req-id
  // tag: the flight-recorder observer below joins them into timelines that
  // survive the kill (the soak's black box).
  config.trace_requests = true;
  srv::KvServer server(kernel, config);
  ASSERT_TRUE(server.ok());

  srv::WorkloadConfig workload;
  workload.seed = seed;
  workload.requests = 120;
  workload.keys = 12;
  workload.put_per_mille = 200;
  // Client emits the send/ack boundary marks but does NOT bind the
  // (one-per-kernel) ring — the observer owns it as a flight recorder.
  workload.mark_requests = true;
  // The retry budget must cover a full worker resurrection through the
  // whole backoff ladder: kill + failed respawns under the storm + the
  // post-storm format/preload ≈ 60M+ cycles of outage.
  workload.retry_timeout_cycles = 200'000;
  workload.max_retries = 1000;
  workload.repair = true;  // The storm shoots at the client, too.
  srv::LoadGenTarget target;
  target.iface = exos::NetIface{0xa, 2, SoakResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;

  srv::LoadStats stats;
  exos::Process client(kernel,
                       [&](exos::Process& p) { stats = srv::RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());

  // Flight recorder: binds the kernel event ring (16 pages ~ the last two
  // thousand records, drop-oldest) and stays alive only to repair it if
  // the pressure storm repossesses one of its pages; a clean exit RETAINS
  // the binding, so the kernel keeps appending until the last worker dies
  // and the host decodes the frames post-mortem below — the crash-surviving
  // record of what every request was doing when the assassin struck.
  hw::PageId recorder_first_page = 0;
  uint32_t recorder_pages = 0;
  exos::Process recorder(kernel, [&](exos::Process& p) {
    exos::TraceSession trace(p);
    const exos::TraceConfig trace_config{
        .pages = 16,
        .mask = xtrace::Bit(xtrace::Event::kDpfMatch) |
                xtrace::Bit(xtrace::Event::kAppMark) |
                xtrace::Bit(xtrace::Event::kDiskSubmit) |
                xtrace::Bit(xtrace::Event::kDiskComplete)};
    if (trace.Bind(trace_config) != Status::kOk) {
      return;  // Ring already owned; the EXPECT below reports it.
    }
    recorder_first_page = trace.first_page();
    recorder_pages = trace.page_count();
    while (!server.AllWorkersDone() &&
           p.kernel().SysGetCycles() < 1'500'000'000) {
      p.kernel().SysSleep(200'000);
      const std::vector<hw::PageId> taken = p.kernel().SysReadRepossessed();
      if (!taken.empty() &&
          trace.RepairAfterRepossession(taken) == Status::kOk) {
        recorder_first_page = trace.first_page();
        recorder_pages = trace.page_count();
      }
    }
    // No Close(): exit cleanly with the ring still armed.
  });
  ASSERT_TRUE(recorder.ok());

  // Assassin: waits until the victim shard is demonstrably mid-burst
  // (cross-fiber stats reads are safe under cooperative fibers), then
  // kills its environment with the capability the Supervisor published.
  constexpr uint32_t kVictim = 1;
  bool killed = false;
  uint64_t kill_cycle = 0;
  exos::Process assassin(kernel, [&](exos::Process& p) {
    while (!server.worker_stats(kVictim).done &&
           server.worker_stats(kVictim).requests < 8 &&
           p.kernel().SysGetCycles() < 1'500'000'000) {
      p.kernel().SysSleep(50'000);
    }
    if (server.worker_stats(kVictim).done ||
        server.worker_stats(kVictim).requests < 8) {
      return;  // Never mid-burst (or bailed out): the killed==true
               // assertion below reports it; don't hang the run.
    }
    const exos::Process* child = server.supervisor().child(kVictim);
    ASSERT_NE(child, nullptr);
    kill_cycle = p.kernel().SysGetCycles();
    killed = p.kernel().SysKillEnv(child->id(), child->env_cap()) == Status::kOk;
  });
  ASSERT_TRUE(assassin.ok());

  // The storm opens AFTER boot and warmup (~26M cycles): the scenario
  // under test is a serving system losing resources mid-flight, not a
  // booting one that never gets off the ground. It still brackets the
  // kill's recovery, so the victim's respawns crash-loop through it.
  aegis::PressurePlan plan;
  plan.seed = seed;
  plan.Storm(/*start=*/32'000'000, /*end=*/60'000'000, /*period=*/80'000,
             /*pages=*/2, /*slices=*/1, /*filters=*/1);
  kernel.InstallPressurePlan(plan);

  kernel.Run();
  SCOPED_TRACE(ChaosTrace(seed, &machine));  // Final-cycle context below.

  // The kill landed, the Supervisor resurrected the shard, and both
  // workers finished their QUITs cleanly.
  EXPECT_TRUE(killed);
  EXPECT_GE(server.supervisor().total_restarts(), 1u);
  EXPECT_GE(server.worker_stats(kVictim).incarnations, 2u);
  EXPECT_TRUE(server.AllWorkersDone());
  EXPECT_TRUE(server.supervisor().finished());
  for (const exos::ChildStatus& child : server.supervisor().status()) {
    EXPECT_EQ(child.state, exos::ChildState::kDone) << child.name;
  }

  // Failover did its job: every data request and QUIT eventually acked
  // (through retries — the outage makes them inevitable), and not one
  // reply failed end-to-end verification.
  EXPECT_EQ(stats.acked, workload.requests + config.workers);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_GT(stats.retries, 0u);

  // The storm genuinely fired on every armed channel.
  const aegis::PressureStats* pressure = kernel.pressure_stats();
  ASSERT_NE(pressure, nullptr);
  EXPECT_GT(pressure->bursts, 50u);
  EXPECT_GT(pressure->pages_requested, 0u);
  // (Slices are armed too, but every env here runs at the ReserveFloor's
  // one-slice minimum, so the engine legitimately revokes none.)
  EXPECT_GT(pressure->filters_reclaimed, 0u);

  // Audited after every pressure application and the kill: all clean.
  EXPECT_EQ(kernel.audit_failures(), 0u) << kernel.first_audit_failure();
  aegis::Aegis::AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());

  // Flight-recorder post-mortem: decode the retained ring straight out of
  // simulated RAM (the recorder env is long dead; a clean exit kept the
  // binding armed), reassemble per-request critical paths, and print the
  // slowest request that STARTED at or after the kill — its ring-wait span
  // is the resurrection outage as one request experienced it.
  ASSERT_GT(recorder_pages, 0u);  // The recorder must have won the ring.
  Result<std::vector<xtrace::Record>> flight = exos::DecodeRegion(
      machine.mem().RangeSpan(recorder_first_page, recorder_pages));
  ASSERT_TRUE(flight.ok());
  std::vector<exos::reqtrace::RequestTimeline> timelines =
      exos::reqtrace::AssembleTimelines(*flight);
  const exos::reqtrace::RequestTimeline* slowest = nullptr;
  for (const exos::reqtrace::RequestTimeline& t : timelines) {
    if (killed && t.first_cycle < kill_cycle) {
      continue;  // Pre-kill traffic: not the recovery story.
    }
    if (slowest == nullptr || t.Total() > slowest->Total()) {
      slowest = &t;
    }
  }
  // The kill landed mid-burst with ~half the workload still to serve and
  // the ring retains ~2000 records (far more than the tail generates), so
  // post-kill timelines must have survived in the black box.
  EXPECT_NE(slowest, nullptr);
  if (slowest != nullptr) {
    std::printf("[flight-recorder] seed %llu: kill at cycle %llu, slowest post-kill request:\n%s",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(kill_cycle),
                exos::reqtrace::FormatTimeline(*slowest).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerSoak, ::testing::ValuesIn(ChaosSeeds({1, 2, 3})));

// --- BlackFridaySoak: every overload-robustness mechanism at once. A
// client machine drives the server machine over a LOSSY wire (loopback
// NICs bypass fault injection, so this soak uses two machines joined by
// hw::World) at an open-loop rate the server cannot sustain, with
// per-request TTLs and seeded-jitter retry backoff; the server runs the
// full overload config — ring shed watermark, batch admission, write
// shedding, fail-fast re-steer, degraded read-only mode — while (a) a
// revocation storm reclaims its resources, (b) an assassin kills a
// worker mid-burst, and (c) a disk gremlin opens a media-error window
// after recovery. The contract under all of it: every data
// request resolves exactly once (acked or TTL-abandoned — abandonment
// under deliberate overload is the contract working, not a failure),
// nothing is ever corrupt, the victim resurrects, and both kernels'
// ledgers audit clean after every fault. ---

uint64_t BfResolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

class BlackFridaySoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlackFridaySoak, OverdriveStormKillsAndDiskFaultsShedButNeverCorrupt) {
  namespace srv = exos::server;
  const uint64_t seed = GetParam();
  hw::World world;
  hw::Machine ms(hw::Machine::Config{.phys_pages = 2048, .name = "bfsrv"}, &world);
  hw::Machine mc(hw::Machine::Config{.phys_pages = 1024, .name = "bfcli"}, &world);
  SCOPED_TRACE(ChaosTrace(seed, &ms));
  aegis::Aegis ks(ms, aegis::Aegis::Config{.max_envs = 200});
  aegis::Aegis kc(mc);
  hw::Disk disk(ms, 4096);
  hw::Wire wire;
  hw::Nic na(ms, 0xa);
  hw::Nic nb(mc, 0xb);
  wire.Attach(&na);
  wire.Attach(&nb);
  ks.AttachNic(&na);
  ks.AttachDisk(&disk);
  kc.AttachNic(&nb);
  ks.set_audit_on_fault(true);
  kc.set_audit_on_fault(true);

  srv::KvServerConfig config;
  config.iface = exos::NetIface{0xa, 1, BfResolve};
  config.workers = 2;
  config.use_rings = true;
  config.ring.rx_slots = 32;
  config.ring.shed_watermark = 24;   // Shed at the demux past 24 pending.
  config.admission_max_batch = 12;   // 503 + Retry-After past this depth.
  config.admission_write_shed = 8;   // PUTs shed first under pressure.
  config.preload = srv::MakePreload(12, 64);
  config.max_restarts = 10;
  config.restart_backoff = 2'000'000;
  config.restart_backoff_cap = 16'000'000;
  // Stage marks + demux req-id tag for the flight recorder below. The
  // client runs on the OTHER kernel, whose ring is unbound, so its
  // send/ack marks cannot reach this recorder: timelines here are
  // server-side (demux -> worker exit), which is exactly the half the
  // post-mortem needs.
  config.trace_requests = true;
  srv::KvServer server(ks, config);
  ASSERT_TRUE(server.ok());

  srv::WorkloadConfig workload;
  workload.seed = seed;
  workload.requests = 240;
  workload.keys = 12;
  workload.put_per_mille = 200;
  // Overdrive: one request every 15k cycles regardless of the backlog —
  // well past what two workers journaling PUTs can sustain.
  workload.open_loop_interval_cycles = 15'000;
  // Robust-client kit: deadlines and decorrelated exponential backoff.
  // The TTL dwarfs a single 503 round-trip but not a full worker
  // resurrection — requests in flight across the outage abandon, and
  // that is the correct outcome under this much chaos.
  workload.request_ttl_cycles = 60'000'000;
  workload.retry_timeout_cycles = 200'000;
  workload.retry_backoff_cap_cycles = 3'200'000;
  workload.retry_jitter = true;
  workload.max_retries = 1000;
  srv::LoadGenTarget target;
  target.iface = exos::NetIface{0xb, 2, BfResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;

  srv::LoadStats stats;
  exos::Process client(kc,
                       [&](exos::Process& p) { stats = srv::RunLoadGen(p, target, workload); });
  ASSERT_TRUE(client.ok());

  // Flight recorder on the server kernel (see ServerSoak): 16 drop-oldest
  // pages of demux/mark/disk records, repaired through the storm, retained
  // past the recorder's clean exit for the host-side decode below.
  hw::PageId recorder_first_page = 0;
  uint32_t recorder_pages = 0;
  exos::Process recorder(ks, [&](exos::Process& p) {
    exos::TraceSession trace(p);
    const exos::TraceConfig trace_config{
        .pages = 16,
        .mask = xtrace::Bit(xtrace::Event::kDpfMatch) |
                xtrace::Bit(xtrace::Event::kAppMark) |
                xtrace::Bit(xtrace::Event::kDiskSubmit) |
                xtrace::Bit(xtrace::Event::kDiskComplete)};
    if (trace.Bind(trace_config) != Status::kOk) {
      return;
    }
    recorder_first_page = trace.first_page();
    recorder_pages = trace.page_count();
    while (!server.AllWorkersDone() &&
           p.kernel().SysGetCycles() < 1'500'000'000) {
      p.kernel().SysSleep(200'000);
      const std::vector<hw::PageId> taken = p.kernel().SysReadRepossessed();
      if (!taken.empty() &&
          trace.RepairAfterRepossession(taken) == Status::kOk) {
        recorder_first_page = trace.first_page();
        recorder_pages = trace.page_count();
      }
    }
  });
  ASSERT_TRUE(recorder.ok());

  // Assassin: kill shard 1 once it is demonstrably mid-burst.
  constexpr uint32_t kVictim = 1;
  bool killed = false;
  uint64_t kill_cycle = 0;
  exos::Process assassin(ks, [&](exos::Process& p) {
    while (!server.worker_stats(kVictim).done &&
           server.worker_stats(kVictim).requests < 8 &&
           p.kernel().SysGetCycles() < 1'500'000'000) {
      p.kernel().SysSleep(50'000);
    }
    if (server.worker_stats(kVictim).done ||
        server.worker_stats(kVictim).requests < 8) {
      return;
    }
    const exos::Process* child = server.supervisor().child(kVictim);
    ASSERT_NE(child, nullptr);
    kill_cycle = p.kernel().SysGetCycles();
    killed = p.kernel().SysKillEnv(child->id(), child->env_cap()) == Status::kOk;
  });
  ASSERT_TRUE(assassin.ok());

  // Disk gremlin: once the victim has resurrected and the storm is over,
  // open a media-error window under the still-serving workers. Workers
  // that trip it degrade to read-only (stale cache GETs, 503 PUTs) and
  // their probe Syncs resume journaling when the window closes.
  bool window_armed = false;
  exos::Process gremlin(ks, [&](exos::Process& p) {
    while (!(killed && server.supervisor().total_restarts() >= 1 &&
             server.worker_stats(kVictim).incarnations >= 2 &&
             p.kernel().SysGetCycles() >= 75'000'000) &&
           !server.AllWorkersDone() &&
           p.kernel().SysGetCycles() < 1'500'000'000) {
      p.kernel().SysSleep(100'000);
    }
    if (server.AllWorkersDone()) {
      return;  // Run already drained: nothing left to degrade.
    }
    p.kernel().SysSleep(5'000'000);  // Let the respawn finish formatting.
    const uint64_t now = p.kernel().SysGetCycles();
    disk.SetErrorWindow(now, now + 8'000'000);
    window_armed = true;
  });
  ASSERT_TRUE(gremlin.ok());


  // Revocation storm against the server kernel, mid-flight.
  aegis::PressurePlan pressure_plan;
  pressure_plan.seed = seed;
  pressure_plan.Storm(/*start=*/40'000'000, /*end=*/70'000'000, /*period=*/80'000,
                      /*pages=*/2, /*slices=*/1, /*filters=*/1);
  ks.InstallPressurePlan(pressure_plan);

  // Wire loss between the machines (drops only: loadgen's end-to-end
  // X-Sum check counts a corrupted reply as a server-side failure, and a
  // request carries no end-to-end check at all, so the corruption channel
  // is exercised by ChaosSoak's ring flooder instead).
  hw::FaultPlan fault_plan;
  fault_plan.seed = seed;
  fault_plan.wire_drop_per_mille = 25;
  ks.InstallFaultPlan(fault_plan);
  wire.set_fault_injector(ks.fault_injector());

  world.Run({[&] { ks.Run(); }, [&] { kc.Run(); }});
  SCOPED_TRACE(ChaosTrace(seed, &ms));  // Final-cycle context below.

  // The kill landed and the Supervisor resurrected the shard.
  EXPECT_TRUE(killed);
  EXPECT_GE(server.supervisor().total_restarts(), 1u);
  EXPECT_GE(server.worker_stats(kVictim).incarnations, 2u);
  EXPECT_TRUE(server.AllWorkersDone());
  EXPECT_TRUE(server.supervisor().finished());
  for (const exos::ChildStatus& child : server.supervisor().status()) {
    EXPECT_EQ(child.state, exos::ChildState::kDone) << child.name;
  }

  // Conservation: every data request (and both QUITs) resolved exactly
  // once — acked or TTL-abandoned, never lost, never given up on, and
  // never corrupt. Real goodput got through the carnage.
  EXPECT_EQ(stats.acked + stats.ttl_abandoned,
            workload.requests + config.workers);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.unexpected, 0u);
  EXPECT_EQ(stats.deadline_hit, 0u);
  EXPECT_GT(stats.acked, static_cast<uint64_t>(config.workers) + workload.requests / 4);

  // The overload machinery demonstrably carried load: admission, write
  // shed, TTL shed, rescue, or a degraded episode fired server-side.
  uint64_t shed_total = 0;
  uint64_t degraded_entries = 0;
  for (uint32_t i = 0; i < config.workers; ++i) {
    const srv::WorkerStats& ws = server.worker_stats(i);
    shed_total += ws.shed_busy + ws.shed_writes + ws.expired + ws.rescued_503 +
                  ws.degraded_entries;
    degraded_entries += ws.degraded_entries;
  }
  EXPECT_GT(shed_total, 0u);
  if (window_armed) {
    // The gremlin's window only guarantees a degraded episode if a disk
    // op landed inside it; when one did, the worker must also have
    // recovered (probe Sync) before its clean QUIT exit above.
    uint64_t degraded_exits = 0;
    for (uint32_t i = 0; i < config.workers; ++i) {
      degraded_exits += server.worker_stats(i).degraded_exits;
    }
    EXPECT_EQ(degraded_entries, degraded_exits);
  }

  // The storm and the wire loss genuinely fired.
  const aegis::PressureStats* pressure = ks.pressure_stats();
  ASSERT_NE(pressure, nullptr);
  EXPECT_GT(pressure->bursts, 50u);
  EXPECT_GT(ks.fault_injector()->frames_dropped(), 0u);

  // Audited after every pressure burst, kill, and fault: all clean.
  EXPECT_EQ(ks.audit_failures(), 0u) << ks.first_audit_failure();
  EXPECT_EQ(kc.audit_failures(), 0u) << kc.first_audit_failure();
  aegis::Aegis::AuditReport report = ks.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_TRUE(kc.AuditInvariants().ok());

  // Flight-recorder post-mortem (server-side timelines): the slowest
  // request the server finished after the kill, straight out of RAM.
  ASSERT_GT(recorder_pages, 0u);
  Result<std::vector<xtrace::Record>> flight = exos::DecodeRegion(
      ms.mem().RangeSpan(recorder_first_page, recorder_pages));
  ASSERT_TRUE(flight.ok());
  std::vector<exos::reqtrace::RequestTimeline> timelines =
      exos::reqtrace::AssembleTimelines(*flight);
  const exos::reqtrace::RequestTimeline* slowest = nullptr;
  for (const exos::reqtrace::RequestTimeline& t : timelines) {
    if (killed && t.first_cycle < kill_cycle) {
      continue;
    }
    if (slowest == nullptr || t.Total() > slowest->Total()) {
      slowest = &t;
    }
  }
  EXPECT_NE(slowest, nullptr);
  if (slowest != nullptr) {
    std::printf("[flight-recorder] seed %llu: kill at cycle %llu, slowest post-kill request:\n%s",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(kill_cycle),
                exos::reqtrace::FormatTimeline(*slowest).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlackFridaySoak, ::testing::ValuesIn(ChaosSeeds({1, 2, 3})));

}  // namespace
}  // namespace xok
