// The simulated cycle clock. Every CPU owns one; all simulated time flows
// through them, and hw::World orders execution by these local clocks.
#ifndef XOK_SRC_HW_CLOCK_H_
#define XOK_SRC_HW_CLOCK_H_

#include <cstdint>

#include "src/hw/cost.h"

namespace xok::hw {

class CycleClock {
 public:
  CycleClock() = default;

  CycleClock(const CycleClock&) = delete;
  CycleClock& operator=(const CycleClock&) = delete;

  uint64_t now() const { return now_; }

  // Advances time by `cycles`. This is the only way time moves forward.
  void Advance(uint64_t cycles) { now_ += cycles; }

  // Moves time forward to `cycle` (used when a CPU idles until its next
  // scheduled event). No-op if `cycle` is in the past: an event posted by a
  // CPU whose clock is behind may already be due on this one.
  void AdvanceTo(uint64_t cycle) {
    if (cycle > now_) {
      now_ = cycle;
    }
  }

  double now_micros() const { return CyclesToMicros(now_); }

 private:
  uint64_t now_ = 0;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_CLOCK_H_
