#include "src/hw/fault.h"

#include <algorithm>
#include <functional>

namespace xok::hw {

namespace {
// Channel salts keep the per-channel streams independent under one seed.
constexpr uint64_t kDiskSalt = 0xd15cULL;
constexpr uint64_t kTornSalt = 0x7093ULL;
constexpr uint64_t kDropSalt = 0xd809ULL;
constexpr uint64_t kCorruptSalt = 0xc087ULL;

// A stream for one wire frame: (seed, channel salt, sender, transmission
// number) hashed through SplitMix64 one word at a time.
SplitMix64 FrameStream(uint64_t seed, uint64_t salt, uint32_t sender, uint64_t seq) {
  SplitMix64 mix(seed ^ salt);
  mix = SplitMix64(mix.Next() ^ sender);
  return SplitMix64(mix.Next() ^ seq);
}
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      disk_rng_(plan.seed ^ kDiskSalt),
      torn_rng_(plan.seed ^ kTornSalt) {
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultKind::kDiskError) {
      disk_errors_due_.push_back(event.at_cycle);
    }
  }
  std::ranges::sort(disk_errors_due_, std::greater<>());
}

bool FaultInjector::NextDiskError(uint64_t now) {
  if (!disk_errors_due_.empty() && disk_errors_due_.back() <= now) {
    disk_errors_due_.pop_back();
  } else if (plan_.disk_error_per_mille == 0 ||
             disk_rng_.NextBelow(1000) >= plan_.disk_error_per_mille) {
    return false;
  }
  ++disk_errors_injected_;
  return true;
}

uint32_t FaultInjector::NextTornWords(uint32_t words_per_block) {
  if (plan_.disk_torn_per_mille == 0 || words_per_block < 2) {
    return 0;
  }
  if (torn_rng_.NextBelow(1000) >= plan_.disk_torn_per_mille) {
    return 0;
  }
  ++blocks_torn_;
  return 1 + static_cast<uint32_t>(torn_rng_.NextBelow(words_per_block - 1));
}

bool FaultInjector::WireDrop(uint32_t sender, uint64_t seq) {
  if (plan_.wire_drop_per_mille == 0) {
    return false;
  }
  SplitMix64 rng = FrameStream(plan_.seed, kDropSalt, sender, seq);
  if (rng.NextBelow(1000) >= plan_.wire_drop_per_mille) {
    return false;
  }
  ++frames_dropped_;
  return true;
}

bool FaultInjector::MaybeCorruptFrame(uint32_t sender, uint64_t seq, std::span<uint8_t> frame) {
  if (plan_.wire_corrupt_per_mille == 0 || frame.empty()) {
    return false;
  }
  SplitMix64 rng = FrameStream(plan_.seed, kCorruptSalt, sender, seq);
  if (rng.NextBelow(1000) >= plan_.wire_corrupt_per_mille) {
    return false;
  }
  const uint64_t draw = rng.Next();
  const size_t index = draw % frame.size();
  uint8_t flip = static_cast<uint8_t>((draw >> 32) & 0xff);
  if (flip == 0) {
    flip = 0x01;  // Always change at least one bit.
  }
  frame[index] ^= flip;
  ++frames_corrupted_;
  return true;
}

}  // namespace xok::hw
