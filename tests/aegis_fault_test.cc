// Fault injection and crash-safe teardown: forced environment termination
// (KillEnv) must reclaim every resource class and leave the kernel's
// tables consistent (AuditInvariants); syscalls aimed at dead or
// never-created environments must fail cleanly; injected disk errors must
// surface as clean errors that the library OSes above recover from.
#include "src/hw/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/aegis.h"
#include "src/dpf/tcpip_filters.h"
#include "src/exos/fs.h"
#include "src/exos/ipc.h"
#include "src/hw/disk.h"
#include "src/hw/framebuffer.h"
#include "src/hw/nic.h"

namespace xok {
namespace {

using aegis::Aegis;
using aegis::EnvId;
using aegis::EnvSpec;
using aegis::kNoEnv;
using aegis::PctArgs;

class FaultTest : public ::testing::Test {
 protected:
  explicit FaultTest(uint32_t cpus = 1)
      : machine_(hw::Machine::Config{.phys_pages = 128, .name = "fault", .cpus = cpus}),
        kernel_(machine_),
        disk_(machine_, 128),
        fb_(machine_, 64, 64),
        nic_(machine_, 0xaa) {
    kernel_.AttachDisk(&disk_);
    kernel_.AttachFramebuffer(&fb_);
    kernel_.AttachNic(&nic_);
  }

  hw::Machine machine_;
  Aegis kernel_;
  hw::Disk disk_;
  hw::Framebuffer fb_;
  hw::Nic nic_;
};

// --- Syscalls on dead or never-created environments (clean errors) ---

TEST_F(FaultTest, SyscallsOnDeadOrUnknownEnvironmentsFailCleanly) {
  bool a_done = false;
  bool b_checked = false;
  EnvId a_id = kNoEnv;
  cap::Capability a_cap;
  EnvSpec a;
  a.entry = [&] { a_done = true; };
  EnvSpec b;
  b.entry = [&] {
    while (!a_done) {
      kernel_.SysYield();
    }
    // Exited peer: every control operation reports kErrNotFound, never
    // touches the corpse.
    EXPECT_FALSE(kernel_.SysEnvAlive(a_id));
    EXPECT_EQ(kernel_.SysWake(a_id, a_cap), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPctCall(a_id, PctArgs{}).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPctSend(a_id, PctArgs{}), Status::kErrNotFound);
    EXPECT_EQ(kernel_.KillEnv(a_id), Status::kErrNotFound);
    // Never-created id: same clean rejection.
    const EnvId ghost = 57;
    EXPECT_FALSE(kernel_.SysEnvAlive(ghost));
    EXPECT_EQ(kernel_.SysWake(ghost, a_cap), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPctCall(ghost, PctArgs{}).status(), Status::kErrNotFound);
    EXPECT_EQ(kernel_.SysPctSend(ghost, PctArgs{}), Status::kErrNotFound);
    EXPECT_EQ(kernel_.KillEnv(ghost), Status::kErrNotFound);
    b_checked = true;
  };
  Result<aegis::EnvGrant> ga = kernel_.CreateEnv(std::move(a));
  ASSERT_TRUE(ga.ok());
  a_id = ga->env;
  a_cap = ga->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(b)).ok());
  kernel_.Run();
  EXPECT_TRUE(b_checked);
}

// --- KillEnv reclaims every resource class ---

TEST_F(FaultTest, KillEnvReclaimsEveryResourceClass) {
  EnvId victim_id = kNoEnv;
  bool victim_ready = false;
  bool killer_done = false;
  kernel_.set_audit_on_fault(true);

  EnvSpec victim;
  victim.entry = [&] {
    // One of everything: pages, a TLB mapping, a packet-filter binding, a
    // disk extent, a framebuffer tile.
    std::vector<aegis::PageGrant> pages;
    for (int i = 0; i < 3; ++i) {
      Result<aegis::PageGrant> page = kernel_.SysAllocPage();
      ASSERT_TRUE(page.ok());
      pages.push_back(*page);
    }
    ASSERT_EQ(kernel_.SysTlbWrite(0x10000, pages[0].page, true, pages[0].cap), Status::kOk);
    aegis::FilterBindSpec bind;
    bind.filter = dpf::UdpPortFilter(9);
    ASSERT_TRUE(kernel_.SysBindFilter(std::move(bind), cap::Capability{}).ok());
    ASSERT_TRUE(kernel_.SysAllocDiskExtent(4).ok());
    ASSERT_EQ(kernel_.SysBindFbTile(0, 0), Status::kOk);
    victim_ready = true;
    kernel_.SysBlock();  // Stays blocked until killed.
    ADD_FAILURE() << "killed environment resumed";
  };
  EnvSpec killer;
  killer.entry = [&] {
    while (!victim_ready) {
      kernel_.SysYield();
    }
    const uint32_t free_before = kernel_.free_pages();
    ASSERT_EQ(kernel_.KillEnv(victim_id), Status::kOk);
    EXPECT_FALSE(kernel_.SysEnvAlive(victim_id));
    EXPECT_EQ(kernel_.free_pages(), free_before + 3);
    EXPECT_EQ(fb_.TileOwner(0, 0), hw::Framebuffer::kNoOwner);
    Aegis::AuditReport report = kernel_.AuditInvariants();
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
    killer_done = true;
  };
  Result<aegis::EnvGrant> gv = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(gv.ok());
  victim_id = gv->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(killer)).ok());
  kernel_.Run();
  EXPECT_TRUE(killer_done);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- Killing an environment blocked on a disk transfer ---

// The same fixture on 1 or 2 CPUs (the parameter).
class FaultCpusTest : public FaultTest, public ::testing::WithParamInterface<uint32_t> {
 protected:
  FaultCpusTest() : FaultTest(GetParam()) {}
};

// On 2 CPUs the killer runs on CPU 1 while disk completions land on CPU 0,
// so the completion may retire between teardown's waiter sweep and the
// per-frame DMA cancel. Either order must leave no transfer in flight and
// no waiter behind: the frame is still the victim's until it is released.
TEST_P(FaultCpusTest, KillingBlockedDiskWaiterCancelsTheTransfer) {
  EnvId victim_id = kNoEnv;
  bool victim_submitting = false;
  bool killer_done = false;
  kernel_.set_audit_on_fault(true);

  EnvSpec victim;
  victim.entry = [&] {
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    victim_submitting = true;
    // Blocks awaiting the completion interrupt; the kill lands first.
    (void)kernel_.SysDiskWrite(extent->extent, extent->cap, 0, frame->page);
    ADD_FAILURE() << "killed environment resumed";
  };
  EnvSpec killer;
  killer.cpu_mask = 1ULL << (GetParam() - 1);  // The last CPU.
  killer.entry = [&] {
    // On 2 CPUs also wait for CPU 0 to halt: the victim is then blocked,
    // so the kill reaps it here on CPU 1 rather than by a reap IPI.
    while (!victim_submitting || disk_.inflight_requests() == 0 ||
           (GetParam() > 1 && !machine_.CpuParked(0))) {
      kernel_.SysYield();
    }
    EXPECT_EQ(kernel_.SysCurrentCpu(), GetParam() - 1);
    ASSERT_EQ(kernel_.KillEnv(victim_id), Status::kOk);
    EXPECT_EQ(kernel_.remote_kills_sent(), 0u);
    // The in-flight DMA aimed at the victim's frame was cancelled (or, on
    // 2 CPUs, may have completed into the still-owned frame first), and no
    // stuck waiter remains.
    EXPECT_EQ(disk_.inflight_requests(), 0u);
    Aegis::AuditReport report = kernel_.AuditInvariants();
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
    // The disk is still fully usable by the survivors.
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(2);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 0, frame->page), Status::kOk);
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 0, frame->page), Status::kOk);
    killer_done = true;
  };
  Result<aegis::EnvGrant> gv = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(gv.ok());
  victim_id = gv->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(killer)).ok());
  kernel_.Run();
  EXPECT_TRUE(killer_done);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

INSTANTIATE_TEST_SUITE_P(Cpus, FaultCpusTest, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<uint32_t>& param) {
                           return std::to_string(param.param) + "Cpu";
                         });

// --- Capability epochs across frame reuse ---

TEST_F(FaultTest, StaleCapabilityAfterFrameReuseIsRejected) {
  bool done = false;
  EnvSpec e;
  e.entry = [&] {
    Result<aegis::PageGrant> first = kernel_.SysAllocPage();
    ASSERT_TRUE(first.ok());
    const hw::PageId frame = first->page;
    ASSERT_EQ(kernel_.SysTlbWrite(0x20000, frame, true, first->cap), Status::kOk);
    ASSERT_EQ(kernel_.SysDeallocPage(frame, first->cap), Status::kOk);
    // Dealloc bumped the frame's epoch: the old capability is dead even
    // though the same environment re-allocates the very same frame.
    Result<aegis::PageGrant> second = kernel_.SysAllocPage(frame);
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(second->page, frame);
    EXPECT_EQ(kernel_.SysTlbWrite(0x20000, frame, true, first->cap), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysTlbWrite(0x20000, frame, true, second->cap), Status::kOk);

    // Disk extents: freeing kills outstanding extent capabilities the same
    // way, so a stale handle cannot reach blocks later reassigned.
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    ASSERT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 0, frame), Status::kOk);
    ASSERT_EQ(kernel_.SysFreeDiskExtent(extent->extent, extent->cap), Status::kOk);
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 0, frame),
              Status::kErrOutOfRange);  // Extent slot no longer live.
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(e)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
}

// --- Injected disk errors surface as kErrIo ---

TEST_F(FaultTest, InjectedDiskErrorsSurfaceAsErrIo) {
  hw::FaultPlan plan;
  plan.seed = 42;
  plan.disk_error_per_mille = 1000;  // Every transfer fails.
  kernel_.InstallFaultPlan(plan);
  kernel_.set_audit_on_fault(true);
  bool done = false;
  EnvSpec e;
  e.entry = [&] {
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 0, frame->page), Status::kErrIo);
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 0, frame->page), Status::kErrIo);
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(e)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_GE(kernel_.fault_injector()->disk_errors_injected(), 2u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- LibFS rides out transient media errors ---

TEST_F(FaultTest, LibFsRetriesTransientDiskErrors) {
  hw::FaultPlan plan;
  plan.seed = 7;
  plan.disk_error_per_mille = 250;
  kernel_.InstallFaultPlan(plan);
  kernel_.set_audit_on_fault(true);
  bool done = false;
  exos::Process proc(kernel_, [&](exos::Process& p) {
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(32);
    ASSERT_TRUE(extent.ok());
    Result<std::unique_ptr<exos::LibFs>> fs = exos::LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<exos::FileHandle> file = (*fs)->Create("journal");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data(3 * hw::kPageBytes);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    ASSERT_EQ((*fs)->Sync(), Status::kOk);
    std::vector<uint8_t> back(data.size());
    Result<uint32_t> n = (*fs)->Read(*file, 0, back);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, data.size());
    EXPECT_EQ(back, data);
    // The faults really fired and the cache really absorbed them.
    EXPECT_GT((*fs)->cache().io_retries(), 0u);
    done = true;
  });
  ASSERT_TRUE(proc.ok());
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(kernel_.fault_injector()->disk_errors_injected(), 0u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- Scheduled kills and spurious interrupts ---

TEST_F(FaultTest, ScheduledKillTerminatesASpinningEnvironment) {
  EnvId victim_id = kNoEnv;
  bool worker_done = false;
  EnvSpec victim;
  victim.entry = [&] {
    for (;;) {
      kernel_.SysYield();  // Never exits on its own.
    }
  };
  EnvSpec worker;
  worker.entry = [&] {
    kernel_.SysSleep(300'000);
    worker_done = true;
  };
  Result<aegis::EnvGrant> gv = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(gv.ok());
  victim_id = gv->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(worker)).ok());
  hw::FaultPlan plan;
  plan.KillEnvAt(100'000, victim_id);
  kernel_.InstallFaultPlan(plan);
  kernel_.set_audit_on_fault(true);
  kernel_.Run();  // Terminates only because the kill fires.
  EXPECT_TRUE(worker_done);
  EXPECT_FALSE(kernel_.EnvAlive(victim_id));
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

TEST_F(FaultTest, SpuriousInterruptsAreHarmless) {
  bool done = false;
  EnvSpec e;
  e.entry = [&] {
    kernel_.SysSleep(50'000);
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(e)).ok());
  hw::FaultPlan plan;
  // A completion interrupt for a transfer nobody submitted, and a fault
  // interrupt naming an environment that does not exist.
  plan.SpuriousIrqAt(10'000, hw::InterruptSource::kDiskDone, 987654);
  plan.SpuriousIrqAt(20'000, hw::InterruptSource::kFault, 55);
  kernel_.InstallFaultPlan(plan);
  kernel_.set_audit_on_fault(true);
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(kernel_.envs_killed(), 0u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

// --- PCT atomicity: kills land at the outer transfer's return ---

TEST_F(FaultTest, KillDuringPctIsDeferredToTheOuterReturn) {
  EnvId client_id = kNoEnv;
  bool handler_ran = false;
  bool client_returned = false;
  EnvSpec server;
  server.handlers.pct_sync = [&](const PctArgs& args) {
    handler_ran = true;
    // The transfer cannot be diverted between initiation and entry: the
    // kill is accepted but deferred, and the handler completes.
    EXPECT_EQ(kernel_.KillEnv(client_id), Status::kOk);
    EXPECT_TRUE(kernel_.SysEnvAlive(client_id));
    PctArgs reply;
    reply.regs[0] = args.regs[0] + 1;
    return reply;
  };
  server.entry = [&] {
    while (kernel_.SysEnvAlive(client_id)) {
      kernel_.SysYield();
    }
  };
  Result<aegis::EnvGrant> gs = kernel_.CreateEnv(std::move(server));
  ASSERT_TRUE(gs.ok());
  const EnvId server_id = gs->env;
  EnvSpec client;
  client.entry = [&] {
    PctArgs args;
    args.regs[0] = 41;
    (void)kernel_.SysPctCall(server_id, args);
    client_returned = true;  // Must never run: the deferred kill lands first.
  };
  Result<aegis::EnvGrant> gc = kernel_.CreateEnv(std::move(client));
  ASSERT_TRUE(gc.ok());
  client_id = gc->env;
  kernel_.Run();
  EXPECT_TRUE(handler_ran);
  EXPECT_FALSE(client_returned);
  EXPECT_FALSE(kernel_.EnvAlive(client_id));
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

// --- Death notifications unblock pipe peers with EPIPE ---

TEST_F(FaultTest, PipeReaderSeesEpipeWhenWriterIsKilled) {
  exos::SharedBufferDesc desc;
  bool ready = false;
  bool reader_drained = false;
  bool writer_parked = false;
  exos::PipePeer writer_peer;
  exos::PipePeer reader_peer;
  constexpr hw::Vaddr kRingVa = 0x5000000;
  EnvId writer_id = kNoEnv;
  kernel_.set_audit_on_fault(true);

  exos::Process writer(kernel_, [&](exos::Process& p) {
    desc = *exos::CreateSharedBuffer(p);
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    ready = true;
    exos::PipeEndpoint out(p, kRingVa, writer_peer, false);
    ASSERT_EQ(out.WriteWord(11), Status::kOk);
    ASSERT_EQ(out.WriteWord(22), Status::kOk);
    writer_parked = true;
    p.kernel().SysBlock();  // Parked until killed; never writes the third word.
    ADD_FAILURE() << "killed environment resumed";
  });
  exos::Process reader(kernel_, [&](exos::Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(exos::MapSharedBuffer(p, desc, kRingVa), Status::kOk);
    exos::PipeEndpoint in(p, kRingVa, reader_peer, false);
    Result<uint32_t> first = in.ReadWord();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, 11u);
    Result<uint32_t> second = in.ReadWord();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, 22u);
    // The third read blocks on an empty ring; the writer's death must wake
    // us with EPIPE instead of hanging forever.
    EXPECT_EQ(in.ReadWord().status(), Status::kErrBadState);
    reader_drained = true;
  });
  exos::Process killer(kernel_, [&](exos::Process& p) {
    while (!writer_parked) {
      p.kernel().SysYield();
    }
    ASSERT_EQ(p.kernel().KillEnv(writer_id), Status::kOk);
  });
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(killer.ok());
  writer_id = writer.id();
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};
  kernel_.Run();
  EXPECT_TRUE(reader_drained);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

}  // namespace
}  // namespace xok
