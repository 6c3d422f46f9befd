// ExOS process: the library-OS process abstraction over an Aegis
// environment. Wires the environment's contexts (exception, timer, PCT,
// revocation) into library policy: VM faults go to exos::Vm, non-memory
// exceptions to an application handler, end-of-slice to a default context
// saver, repossession to page-table repair.
#ifndef XOK_SRC_EXOS_PROCESS_H_
#define XOK_SRC_EXOS_PROCESS_H_

#include <functional>
#include <memory>

#include "src/core/aegis.h"
#include "src/exos/vm.h"

namespace xok::exos {

class Process {
 public:
  struct Options {
    uint32_t slices = 1;
    bool demand_zero = true;
    PageTableKind page_table = PageTableKind::kTwoLevel;
    // CPUs this process may hold slices on (bit k = CPU k). The default
    // admits every CPU; Aegis places the environment on the least-loaded
    // admitted one.
    uint64_t cpu_mask = aegis::kAnyCpuMask;
  };

  // Creates the process and its environment; `main` runs when scheduled.
  // Check ok() before use (environment creation can fail).
  Process(aegis::Aegis& kernel, std::function<void(Process&)> main, const Options& options);
  Process(aegis::Aegis& kernel, std::function<void(Process&)> main)
      : Process(kernel, std::move(main), Options{}) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  bool ok() const { return id_ != aegis::kNoEnv; }
  aegis::EnvId id() const { return id_; }
  const cap::Capability& env_cap() const { return env_cap_; }
  aegis::Aegis& kernel() { return kernel_; }
  hw::Machine& machine() { return kernel_.machine(); }
  Vm& vm() { return vm_; }

  // Library-level handler registration (any time before the event).
  void set_raw_exception_handler(std::function<aegis::ExcAction(const hw::TrapFrame&)> handler) {
    raw_exception_ = std::move(handler);
  }
  void set_pct_server(std::function<aegis::PctArgs(const aegis::PctArgs&)> server) {
    pct_server_ = std::move(server);
  }
  void set_pct_async(std::function<void(const aegis::PctArgs&)> handler) {
    pct_async_ = std::move(handler);
  }
  void set_revoke_handler(std::function<void(uint32_t)> handler) {
    revoke_ = std::move(handler);
  }

 private:
  aegis::ExcAction OnException(const hw::TrapFrame& frame);
  void OnRevoke(uint32_t pages);

  aegis::Aegis& kernel_;
  Vm vm_;
  aegis::EnvId id_ = aegis::kNoEnv;
  cap::Capability env_cap_;
  std::function<aegis::ExcAction(const hw::TrapFrame&)> raw_exception_;
  std::function<aegis::PctArgs(const aegis::PctArgs&)> pct_server_;
  std::function<void(const aegis::PctArgs&)> pct_async_;
  std::function<void(uint32_t)> revoke_;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_PROCESS_H_
