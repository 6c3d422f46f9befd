// Timed hardware events (packet arrivals, disk completions) delivered to a
// machine as interrupts once the simulated clock reaches their due cycle.
#ifndef XOK_SRC_HW_EVENT_H_
#define XOK_SRC_HW_EVENT_H_

#include <cstdint>

#include "src/hw/trap.h"

namespace xok::hw {

struct PendingEvent {
  uint64_t due_cycle = 0;
  InterruptSource source = InterruptSource::kTimer;
  uint64_t payload = 0;
  // Tie-breaker for events due on the same cycle: the origin machine's
  // world index in the top 16 bits, the target CPU's push count below.
  uint64_t seq = 0;

  bool operator>(const PendingEvent& other) const {
    if (due_cycle != other.due_cycle) {
      return due_cycle > other.due_cycle;
    }
    return seq > other.seq;
  }
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_EVENT_H_
