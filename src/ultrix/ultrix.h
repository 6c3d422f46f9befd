// The Ultrix-like monolithic baseline kernel, running on the same
// simulated machine as Aegis. It implements the traditional fixed
// abstractions in the kernel: processes with kernel-managed page tables,
// demand-zero heaps, signals, pipes with kernel buffering, and UDP
// sockets with in-kernel protocol processing. Its purpose is to be the
// structurally-honest comparison point for every table in the paper: the
// slowdowns come from the monolithic path lengths (full saves, kernel
// crossings, buffered copies, signal frames), not from inflated constants
// on identical code paths. See src/ultrix/costs.h.
#ifndef XOK_SRC_ULTRIX_ULTRIX_H_
#define XOK_SRC_ULTRIX_ULTRIX_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/hw/fiber.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/net/wire.h"
#include "src/ultrix/costs.h"

namespace xok::ultrix {

using Pid = uint32_t;
inline constexpr Pid kNoPid = 0;

enum Prot : uint8_t {
  kProtNone = 0,
  kProtRead = 1,
  kProtWrite = 2,
};

struct Datagram {
  uint32_t src_ip = 0;
  uint16_t src_port = 0;
  std::vector<uint8_t> payload;
};

class Ultrix final : public hw::TrapSink {
 public:
  struct NetConfig {
    uint64_t mac = 0;
    uint32_t ip = 0;
    std::function<uint64_t(uint32_t ip)> resolve;
  };

  explicit Ultrix(hw::Machine& machine);
  ~Ultrix() override;

  Ultrix(const Ultrix&) = delete;
  Ultrix& operator=(const Ultrix&) = delete;

  void AttachNic(hw::Nic* nic, NetConfig config);

  // Creates a process; `main` runs when first scheduled.
  Result<Pid> CreateProcess(std::function<void()> main);
  // Scheduler loop, run as the machine's only CPU under RunCpus; returns
  // when every process has exited.
  void Run();

  hw::Machine& machine() { return machine_; }

  // --- System calls (every one pays the full trap + syscall layer) ---

  void SysNull();
  Pid SysGetPid();
  uint64_t SysGetTime();
  void SysYield();  // Voluntary reschedule: full context switch.
  void SysSleep(uint64_t cycles);  // Sleep for at least `cycles`.
  [[noreturn]] void SysExit();

  // Memory. The heap is demand-zero; mprotect changes kernel PTEs. The
  // SIGSEGV-style handler (one per process) is invoked through full signal
  // delivery; returning true retries the access.
  using SignalHandler = std::function<bool(hw::Vaddr va, bool is_write)>;
  void SysSignal(SignalHandler handler);
  Status SysMprotect(hw::Vaddr va, uint32_t pages, Prot prot);
  // Dirty inspection requires asking the kernel (contrast: ExOS reads its
  // own page table).
  Result<bool> SysMincoreDirty(hw::Vaddr va);

  // Pipes: kernel-buffered, double copy, sleep/wakeup blocking.
  Result<std::pair<int, int>> SysPipe();  // {read fd, write fd}.
  Result<uint32_t> SysRead(int fd, std::span<uint8_t> buf);
  Status SysWrite(int fd, std::span<const uint8_t> data);
  Status SysClose(int fd);

  // UDP sockets: in-kernel protocol processing and socket buffers.
  Result<int> SysSocketUdp();
  Status SysBindPort(int fd, uint16_t port);
  Status SysSendTo(int fd, uint32_t dst_ip, uint16_t dst_port,
                   std::span<const uint8_t> payload);
  Result<Datagram> SysRecvFrom(int fd);  // Blocking.

  // --- hw::TrapSink ---
  hw::TrapOutcome OnException(hw::TrapFrame& frame) override;
  void OnInterrupt(hw::InterruptSource source, uint64_t payload) override;

 private:
  struct KernelPte {
    bool present = false;
    uint8_t prot = kProtNone;
    bool dirty = false;
    hw::PageId frame = 0;
  };

  struct PipeBuf {
    std::deque<uint8_t> data;
    Pid reader_waiting = kNoPid;
    Pid writer_waiting = kNoPid;
    int readers = 0;
    int writers = 0;
    static constexpr size_t kCapacity = 4096;
  };

  struct Socket {
    uint16_t port = 0;
    std::deque<Datagram> queue;
    Pid waiting = kNoPid;
  };

  struct OpenFile {
    enum class Kind : uint8_t { kPipeRead, kPipeWrite, kSocket } kind = Kind::kSocket;
    std::shared_ptr<PipeBuf> pipe;
    std::shared_ptr<Socket> socket;
  };

  enum class ProcState : uint8_t { kRunnable, kSleeping, kExited };

  struct Proc {
    Pid pid = kNoPid;
    hw::Asid asid = 0;
    ProcState state = ProcState::kRunnable;
    std::unique_ptr<hw::Fiber> fiber;
    int saved_trap_depth = 0;
    std::unordered_map<hw::Vpn, KernelPte> page_table;
    SignalHandler signal_handler;
  };

  Proc& Current();
  Proc* Find(Pid pid);
  void SwitchToKernel();
  void Sleep();          // Current process sleeps until Wakeup().
  void Wakeup(Pid pid);  // Charged wakeup path.

  // Trap-layer helpers.
  void ChargeSyscallEntry() { machine_.Charge(kTrapEntry + kSyscallLayer); }
  void ChargeSyscallExit() { machine_.Charge(kTrapExit); }

  // VM internals.
  hw::PageId AllocFrame();
  hw::TrapOutcome HandleVmFault(const hw::TrapFrame& frame);
  // Full signal delivery; returns the handler's verdict.
  bool DeliverSignal(hw::Vaddr va, bool is_write);

  // Network internals.
  void HandleRx();

  hw::Machine& machine_;
  hw::PrivPort& priv_;
  std::vector<std::unique_ptr<Proc>> procs_;
  Pid current_ = kNoPid;
  hw::Fiber kernel_fiber_;
  uint32_t live_ = 0;
  std::deque<Pid> runqueue_;

  std::vector<bool> frame_used_;
  uint32_t next_frame_hint_ = 0;

  // File descriptors are system-wide in this model: cooperating test
  // processes share pipe/socket objects the way fork-inherited
  // descriptors would be shared in real UNIX (we do not model fork).
  std::unordered_map<int, OpenFile> fds_;
  int next_fd_ = 3;

  hw::Nic* nic_ = nullptr;
  NetConfig net_config_;
  std::vector<std::shared_ptr<Socket>> sockets_;
};

}  // namespace xok::ultrix

#endif  // XOK_SRC_ULTRIX_ULTRIX_H_
