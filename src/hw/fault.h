// Deterministic, seeded fault injection for the simulated hardware.
//
// The exokernel's central claim is that it *securely multiplexes* hardware
// among untrusted, arbitrarily misbehaving library OSes (paper §3.4–3.5).
// Proving that requires the ability to make the hardware — and the
// applications — misbehave on demand, reproducibly. A FaultPlan is a seeded
// schedule of failures across several channels:
//
//   * stochastic channels, drawn per opportunity from per-channel SplitMix64
//     streams: disk transfers that complete with an error, frames that
//     evaporate on the wire, frames that are bit-flipped in transit. A wire
//     frame's draws are a pure function of (seed, sender world index,
//     sender's transmission number), so machines sharing one wire see the
//     same losses whichever order the host runs their transmissions in;
//   * one-shot scheduled events, fired at absolute cycle counts through the
//     machine's ordinary event queue: spurious interrupts with bogus
//     payloads, and asynchronous environment kills (delivered to the kernel
//     as InterruptSource::kFault at the next cycle-charge boundary, i.e. at
//     an arbitrary point in kernel or application execution);
//   * one-shot disk errors: the first transfer completing at or after the
//     scheduled cycle fails, without a draw from the disk channel's stream.
//
// The same FaultInjector object is shared by the devices it arms (disk,
// wire) so a single seed reproduces an entire chaotic run exactly.
#ifndef XOK_SRC_HW_FAULT_H_
#define XOK_SRC_HW_FAULT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/rand.h"
#include "src/hw/trap.h"

namespace xok::hw {

enum class FaultKind : uint8_t {
  kKillEnv,      // arg0 = environment id: forcibly terminate it.
  kSpuriousIrq,  // arg0 = InterruptSource, arg1 = payload: bogus interrupt.
  kPowerCut,     // Power loss: the machine halts; volatile disk state dies.
  kDiskError,    // The first disk transfer completing at or after at_cycle fails.
};

struct FaultEvent {
  uint64_t at_cycle = 0;
  FaultKind kind = FaultKind::kSpuriousIrq;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

struct FaultPlan {
  uint64_t seed = 1;
  // Stochastic channels: probability per opportunity, in per-mille.
  uint32_t disk_error_per_mille = 0;    // Transfer completes with an error.
  uint32_t disk_torn_per_mille = 0;     // Volatile block torn (prefix) at power cut.
  uint32_t wire_drop_per_mille = 0;     // Frame evaporates on the wire.
  uint32_t wire_corrupt_per_mille = 0;  // Frame is bit-flipped in transit.
  // One-shot scheduled faults (absolute cycles).
  std::vector<FaultEvent> events;

  FaultPlan& KillEnvAt(uint64_t cycle, uint32_t env) {
    events.push_back(FaultEvent{cycle, FaultKind::kKillEnv, env, 0});
    return *this;
  }
  FaultPlan& SpuriousIrqAt(uint64_t cycle, InterruptSource source, uint64_t payload) {
    events.push_back(
        FaultEvent{cycle, FaultKind::kSpuriousIrq, static_cast<uint64_t>(source), payload});
    return *this;
  }
  FaultPlan& PowerCutAt(uint64_t cycle) {
    events.push_back(FaultEvent{cycle, FaultKind::kPowerCut, 0, 0});
    return *this;
  }
  FaultPlan& DiskErrorAt(uint64_t cycle) {
    events.push_back(FaultEvent{cycle, FaultKind::kDiskError, 0, 0});
    return *this;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  // Stochastic draws. Each channel has its own deterministic stream, so
  // enabling one channel does not perturb another's schedule. A disk
  // transfer completing at `now` first takes a due one-shot error.
  bool NextDiskError(uint64_t now);
  // Whether transmission `seq` of the machine with world index `sender`
  // evaporates on the wire.
  bool WireDrop(uint32_t sender, uint64_t seq);
  // Flips one byte of `frame`, transmission `seq` of `sender`, in place;
  // returns whether it fired.
  bool MaybeCorruptFrame(uint32_t sender, uint64_t seq, std::span<uint8_t> frame);
  // Torn-write draw for one volatile block at power cut: 0 means the block
  // is lost whole (old contents survive); 1..words_per_block-1 means that
  // many leading words of the new contents reached the platter mid-DMA.
  uint32_t NextTornWords(uint32_t words_per_block);

  // Injection counters (tests assert the faults really fired).
  uint64_t disk_errors_injected() const { return disk_errors_injected_; }
  uint64_t blocks_torn() const { return blocks_torn_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }

 private:
  FaultPlan plan_;
  std::vector<uint64_t> disk_errors_due_;  // Pending one-shots, latest first.
  SplitMix64 disk_rng_;
  SplitMix64 torn_rng_;
  uint64_t disk_errors_injected_ = 0;
  uint64_t blocks_torn_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_corrupted_ = 0;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_FAULT_H_
