#include "src/hw/phys_mem.h"

#include <bit>
#include <utility>

namespace xok::hw {

namespace {
// Per thread, like the mapping pool the frames return to.
thread_local uint64_t frames_zeroed_so_far = 0;
}  // namespace

PhysMem::PhysMem(uint32_t page_count)
    : page_count_(page_count),
      mapping_(Mapping::Take(static_cast<size_t>(page_count) * kPageBytes,
                             Mapping::Contents::kZero)),
      bytes_(mapping_.bytes().first(static_cast<size_t>(page_count) * kPageBytes)),
      dirty_((page_count + kWordBits - 1) / kWordBits) {}

PhysMem::~PhysMem() {
  for (size_t word = 0; word < dirty_.size(); ++word) {
    for (uint64_t bits = dirty_[word]; bits != 0; bits &= bits - 1) {
      const size_t page = word * kWordBits + static_cast<size_t>(std::countr_zero(bits));
      std::memset(&bytes_[page * kPageBytes], 0, kPageBytes);
      ++frames_zeroed_so_far;
    }
  }
  Mapping::Recycle(std::move(mapping_), Mapping::Contents::kZero);
}

uint64_t PhysMem::frames_zeroed() { return frames_zeroed_so_far; }

}  // namespace xok::hw
