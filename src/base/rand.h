// Deterministic pseudo-random number generation. The simulator must be fully
// reproducible, so all randomness (TLB replacement, workload generation)
// flows through explicitly-seeded generators — never std::random_device.
#ifndef XOK_SRC_BASE_RAND_H_
#define XOK_SRC_BASE_RAND_H_

#include <cstdint>

namespace xok {

// SplitMix64: tiny, well-distributed, deterministic. Suitable for simulation
// workloads; not cryptographic.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return Mix(state_);
  }

  // The finalizer on its own: a bijective 64-bit avalanche, also usable
  // to spread the bits of a weaker hash.
  static constexpr uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be > 0.
  constexpr uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  // Uniform in [0, 1), from the top 53 bits of one draw.
  constexpr double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

}  // namespace xok

#endif  // XOK_SRC_BASE_RAND_H_
