// Cycle-cost model for the simulated machine.
//
// The simulated target is a DECstation 5000/125 (25 MHz MIPS R3000), the
// machine the paper reports most results on. Simulated time advances only
// when code charges cycles; both kernels (Aegis and the Ultrix-like
// baseline) run on this same model, so relative results reflect path length,
// which is what the paper measures.
//
// Calibration: one simulated instruction costs kCyclesPerInstruction = 2
// cycles (80 ns). This folds in average cache behaviour: the paper's
// 18-instruction Aegis exception dispatch measures 1.5 us on the 5000/125,
// i.e. ~2.1 cycles/instruction effective.
#ifndef XOK_SRC_HW_COST_H_
#define XOK_SRC_HW_COST_H_

#include <cstdint>

namespace xok::hw {

// Simulated CPU clock rate (DECstation 5000/125).
inline constexpr uint64_t kClockHz = 25'000'000;

// Effective cycles per simulated instruction (includes cache effects).
inline constexpr uint64_t kCyclesPerInstruction = 2;

// Cycles for `n` simulated instructions.
constexpr uint64_t Instr(uint64_t n) { return n * kCyclesPerInstruction; }

// Converts a cycle count to microseconds on the simulated clock.
constexpr double CyclesToMicros(uint64_t cycles) {
  return static_cast<double>(cycles) * 1e6 / static_cast<double>(kClockHz);
}

// --- Hardware-level costs (charged by the machine itself) ---

// A single 32-bit load/store that hits the TLB: one instruction.
inline constexpr uint64_t kMemWordAccess = Instr(1);

// Copying one 32-bit word in a tight loop (load + store + bookkeeping
// amortised): two instructions per word.
inline constexpr uint64_t kMemWordCopy = Instr(2);

// Raising an exception: pipeline flush plus vectoring to the handler.
inline constexpr uint64_t kExceptionRaise = Instr(4);

// Returning from an exception (rfe + pipeline refill).
inline constexpr uint64_t kExceptionReturn = Instr(2);

// Writing one TLB entry (privileged tlbwr/tlbwi sequence).
inline constexpr uint64_t kTlbWrite = Instr(3);

// Saving or restoring one general-purpose register to/from memory.
inline constexpr uint64_t kSaveRegister = Instr(1);

// Writing the inter-processor interrupt mailbox register (uncached I/O).
inline constexpr uint64_t kIpiSend = Instr(2);

// Wire latency from the mailbox write until the target CPU observes the
// interrupt request pending.
inline constexpr uint64_t kIpiLatency = Instr(5);

// --- Network hardware (LANCE-style 10 Mb/s Ethernet controller) ---

// Cycles to put one byte on a 10 Mb/s wire: 0.8 us/byte = 20 cycles.
inline constexpr uint64_t kWireCyclesPerByte = 20;

// Fixed controller latency per packet (DMA setup, interrupt posting) on each
// of the send and receive sides.
inline constexpr uint64_t kNicControllerLatency = Instr(500);

// --- Disk (fixed-latency block device; generous 1995-era seek+rotate) ---

inline constexpr uint64_t kDiskAccessCycles = kClockHz / 100;  // 10 ms.

}  // namespace xok::hw

#endif  // XOK_SRC_HW_COST_H_
