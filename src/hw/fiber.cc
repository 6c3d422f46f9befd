#include "src/hw/fiber.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "xok fibers switch stacks with x86-64 System V assembly; port fiber.cc first"
#endif

// xok_fiber_switch(save_sp, next_sp): pushes the callee-saved registers and
// the floating-point control words, stores rsp in *save_sp, then loads
// next_sp and pops the same frame from it. A suspended fiber's stack
// therefore always ends in this frame, lowest address first:
//   [MXCSR | x87 CW << 32] r15 r14 r13 r12 rbx rbp <return address>
// A new fiber's first frame returns into xok_fiber_entry with r12 = the
// Fiber and r13 = Fiber::Trampoline. Neither routine maintains a CET shadow
// stack, which is why fiber.cc is built with -fcf-protection=none: no binary
// linking it is then marked shadow-stack compatible.
asm(R"(
  .pushsection .text
  .globl xok_fiber_switch
  .hidden xok_fiber_switch
  .type xok_fiber_switch, @function
  .p2align 4
xok_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size xok_fiber_switch, .-xok_fiber_switch

  .globl xok_fiber_entry
  .hidden xok_fiber_entry
  .type xok_fiber_entry, @function
  .p2align 4
xok_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size xok_fiber_entry, .-xok_fiber_entry
  .popsection
)");

extern "C" {
[[gnu::visibility("hidden")]] void xok_fiber_switch(void** save_sp, void* next_sp);
[[gnu::visibility("hidden")]] void xok_fiber_entry();
}

namespace xok::hw {

namespace {

// Power-on floating-point control state: all exceptions masked, round to
// nearest (and, for x87, extended precision).
constexpr uint32_t kInitialMxcsr = 0x1f80;
constexpr uint16_t kInitialX87Cw = 0x037f;

// Per thread, so counting costs no locked instruction.
thread_local uint64_t switches_made = 0;

#if defined(__SANITIZE_ADDRESS__)
// The fiber being switched away from, so that whichever context resumes
// next can record the stack bounds ASan reports for it.
thread_local Fiber* switching_from = nullptr;
#endif

}  // namespace

Fiber::Fiber() {
  // sp_ is filled in by the first Switch() away from this fiber.
}

Fiber::Fiber(Entry entry, size_t stack_bytes)
    : stack_(Mapping::Take(stack_bytes, Mapping::Contents::kAny)), entry_(std::move(entry)) {
  uint8_t* lo = stack_.bytes().data();
  stack_lo_ = lo;
  stack_bytes_ = stack_.bytes().size();
  // The first frame xok_fiber_switch pops. Its return leaves rsp at the
  // (page-aligned) top, so xok_fiber_entry's call enters Trampoline with
  // the ABI's 16-byte alignment.
  auto* frame = reinterpret_cast<uint64_t*>(lo + stack_bytes_) - 8;
  frame[0] = kInitialMxcsr | uint64_t{kInitialX87Cw} << 32;
  frame[1] = 0;                                                 // r15
  frame[2] = 0;                                                 // r14
  frame[3] = reinterpret_cast<uintptr_t>(&Fiber::Trampoline);   // r13
  frame[4] = reinterpret_cast<uintptr_t>(this);                 // r12
  frame[5] = 0;                                                 // rbx
  frame[6] = 0;  // rbp: frame-pointer backtraces end here.
  frame[7] = reinterpret_cast<uintptr_t>(&xok_fiber_entry);     // Return address.
  sp_ = frame;
}

Fiber::~Fiber() {
#if defined(__SANITIZE_ADDRESS__)
  // An abandoned fiber leaves its frames' redzones poisoned; the next fiber
  // on this stack, or a later mapping at the same address, must not
  // inherit them.
  ASAN_UNPOISON_MEMORY_REGION(stack_.bytes().data(), stack_.bytes().size());
#endif
  Mapping::Recycle(std::move(stack_), Mapping::Contents::kAny);
}

uint64_t Fiber::switches() { return switches_made; }

void Fiber::Switch(Fiber& from, Fiber& to) {
  ++switches_made;
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  switching_from = &from;
  __sanitizer_start_switch_fiber(&fake_stack, to.stack_lo_, to.stack_bytes_);
  xok_fiber_switch(&from.sp_, to.sp_);
  Fiber* prev = switching_from;
  __sanitizer_finish_switch_fiber(fake_stack, &prev->stack_lo_, &prev->stack_bytes_);
#else
  xok_fiber_switch(&from.sp_, to.sp_);
#endif
}

void Fiber::Trampoline(Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
  Fiber* prev = switching_from;
  __sanitizer_finish_switch_fiber(nullptr, &prev->stack_lo_, &prev->stack_bytes_);
#endif
  self->entry_();
  std::fprintf(stderr, "xok: fiber entry returned without exiting via its kernel\n");
  std::abort();
}

}  // namespace xok::hw
