// Cooperative execution contexts ("fibers"). Each simulated processor
// environment, each Ultrix process, and each CPU that hw::World schedules
// (a machine body is its machine's CPU 0) runs on its own fiber; kernels
// and the World switch between them deterministically.
// This stands in for real hardware context switching — the *cost* of a
// switch is charged separately by the kernels, per register actually
// saved/restored in their model.
//
// A host switch saves only what the x86-64 System V ABI says a call
// preserves: rbx, rbp, r12-r15, rsp, MXCSR and the x87 control word. There
// is no signal mask and no system call. Stacks are lazily backed,
// guard-paged mappings (mapping.h), so untouched pages are never faulted in
// and an overflow faults instead of corrupting the heap. A destroyed
// fiber's stack goes back to the per-thread mapping pool, and the next
// fiber of that stack size takes it from there, so making and destroying
// fibers costs no system call either once the pool holds enough stacks.
#ifndef XOK_SRC_HW_FIBER_H_
#define XOK_SRC_HW_FIBER_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/hw/mapping.h"

namespace xok::hw {

class Fiber {
 public:
  using Entry = std::function<void()>;

  // Wraps the currently-executing context. Switching away from and back to
  // this fiber resumes here. Used for kernel scheduler loops.
  Fiber();

  // Creates a suspended fiber that will run `entry` when first switched to.
  // `entry` must not return: when its work is done it must arrange a switch
  // elsewhere (kernels enforce this via their exit syscalls); a returning
  // entry aborts the process, because there is nowhere to go.
  explicit Fiber(Entry entry, size_t stack_bytes = kDefaultStackBytes);

  // Gives the stack back to the mapping pool (Mapping::Recycle), which
  // unmaps it when full. The fiber must not be running.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Saves the current context into `from` and resumes `to`.
  static void Switch(Fiber& from, Fiber& to);

  // Switches made on this thread so far (a fiber only ever switches to a
  // fiber of its own thread). Host-side and charged to no simulated clock,
  // like Mapping::made(): it tells a test how much host work a schedule
  // cost, not what the simulated machine did.
  static uint64_t switches();

  static constexpr size_t kDefaultStackBytes = 256 * 1024;

 private:
  [[noreturn]] static void Trampoline(Fiber* self);

  void* sp_ = nullptr;  // Saved stack pointer while switched out.
  Mapping stack_;       // Empty when wrapping.
  // Usable stack bounds, for AddressSanitizer's fiber annotations. A
  // wrapping fiber learns them each time it is switched away from.
  const void* stack_lo_ = nullptr;
  size_t stack_bytes_ = 0;
  Entry entry_;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_FIBER_H_
