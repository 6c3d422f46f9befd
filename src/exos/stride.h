// Application-level stride scheduling (paper §7.3, refs [53, 54]).
//
// Aegis's only CPU abstraction is the slice vector plus directed yield.
// That is enough for an *application* to implement a deterministic
// proportional-share scheduler: a scheduler environment owns the time
// slices; on every slice wakeup it computes which client should run
// (minimum pass value) and yields to it directly, donating the slice.
//
// One scheduler serves one CPU or many. Each client has a home CPU; the
// scheduler running as CPU k picks the minimum-pass client among those
// homed on k, which keeps the hot path free of cross-CPU pass comparisons.
// When no client is homed on k it is work-conserving: it hands its slice
// to the global minimum-pass client instead of idling (counted in
// handoffs()). Pass/stride state is shared, so proportions hold across the
// whole machine, not per CPU. On one CPU with every client homed on CPU 0
// the local scan is the global one.
//
// RunSlices runs the pick loop inline in the calling environment (the
// uniprocessor figure's scheduler is an ordinary process that calls it);
// Start spawns one scheduler process pinned to each CPU (cpu_mask = 1 << k),
// each calling RunSlices for its CPU.
#ifndef XOK_SRC_EXOS_STRIDE_H_
#define XOK_SRC_EXOS_STRIDE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/exos/process.h"

namespace xok::exos {

class StrideScheduler {
 public:
  // Precision constant: stride1 in the stride-scheduling papers.
  static constexpr uint64_t kStride1 = 1u << 20;

  explicit StrideScheduler(aegis::Aegis& kernel) : kernel_(kernel) {}

  // Registers a client with `tickets` (relative share) homed on `home_cpu`
  // (which must be < the machine's CPU count). Returns its index. The env
  // may be kNoEnv as a placeholder: the slot accrues pass state but its
  // donated slices fall through (undirected yield) until Retarget() points
  // it at a real environment.
  size_t AddClient(aegis::EnvId env, uint32_t tickets, uint32_t home_cpu = 0);

  // Re-points client slot `index` at `env`, keeping its pass/stride state.
  // Safe to call mid-run from any fiber (the fibers are cooperative):
  // this is how a supervised service re-registers a worker after the
  // Supervisor respawned it under a fresh environment id.
  void Retarget(size_t index, aegis::EnvId env);

  // Runs `slices` scheduling decisions as CPU `cpu`'s scheduler, in the
  // calling environment: each picks the minimum-pass client and donates
  // the current slice via directed yield. Returns early if there are no
  // clients at all.
  void RunSlices(uint32_t slices, uint32_t cpu = 0);

  // Spawns one scheduler process pinned to each CPU; each runs
  // RunSlices(slices_per_cpu, its CPU) once the kernel runs. Returns
  // false if any scheduler environment could not be created.
  bool Start(uint32_t slices_per_cpu);

  // Slices granted to each client so far (by AddClient index).
  const std::vector<uint64_t>& allocations() const { return allocations_; }
  // Chronological record of which client got each slice, over every CPU
  // (for the cumulative-allocation figure).
  const std::vector<size_t>& history() const { return history_; }
  // Slices a CPU granted to a client homed elsewhere (work conservation).
  uint64_t handoffs() const { return handoffs_; }

 private:
  struct Client {
    aegis::EnvId env = aegis::kNoEnv;
    uint64_t stride = 0;
    uint64_t pass = 0;
    uint32_t home_cpu = 0;
  };

  aegis::Aegis& kernel_;
  std::vector<Client> clients_;
  std::vector<uint64_t> allocations_;
  std::vector<size_t> history_;
  std::vector<std::unique_ptr<Process>> schedulers_;
  uint64_t handoffs_ = 0;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_STRIDE_H_
