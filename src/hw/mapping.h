// Lazily backed host memory for the simulated hardware: physical memory
// and fiber stacks. A Mapping is an anonymous private mapping
// of whole host pages with a PROT_NONE guard page on each side. The kernel
// hands out zero pages on first touch, so the host pays (in resident memory
// and in time) only for pages the simulation actually writes, and an
// access just past either end faults instead of landing in a neighbour.
// Transparent huge pages are declined, so a touch costs one host page.
//
// A fresh Mapping costs five system calls over its life (mmap, two
// mprotects, madvise, munmap) and a host page fault per page it touches,
// so its owners give it back to a per-thread pool (Recycle) and the next
// owner of the same size takes it from there (Take): fiber stacks
// (fiber.h) and physical memory (phys_mem.h) share the pool, and a machine
// built after an identical one maps nothing and faults in no page its
// predecessor touched. The pool keeps mappings that read zero apart from
// ones that do not. A disk platter is heap blocks (disk.h), not a Mapping.
#ifndef XOK_SRC_HW_MAPPING_H_
#define XOK_SRC_HW_MAPPING_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace xok::hw {

class Mapping {
 public:
  // What a mapping given back to the pool holds, and what a taker needs.
  enum class Contents : uint8_t {
    kZero,  // Every byte reads zero (physical memory).
    kAny,   // Whatever its last owner left (fiber stacks).
  };

  // An empty mapping: bytes() is empty and nothing is unmapped.
  Mapping() = default;

  // Maps `bytes` rounded up to whole host pages, all reading zero. Aborts
  // the process if the host refuses the mapping.
  explicit Mapping(size_t bytes);

  ~Mapping();

  Mapping(Mapping&& other) noexcept;
  Mapping& operator=(Mapping&& other) noexcept;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  // A mapping of `bytes` (rounded up to whole host pages) holding
  // `contents`: the one this thread gave back last at that size and with
  // those contents, or a fresh one when the pool has none.
  static Mapping Take(size_t bytes, Contents contents);

  // Gives `mapping` to this thread's pool for the next Take of its size and
  // `contents`, or unmaps it when that size's pool is full. The caller
  // vouches for `contents`. Giving back an empty mapping does nothing.
  static void Recycle(Mapping mapping, Contents contents);

  // Fresh mappings made by this process so far; a mapping taken from the
  // pool is not counted again. Host-side and charged to no simulated clock,
  // like EnvCounters: it tells a test what a run asked of the host, not
  // what the simulated machine did.
  static uint64_t made();

  // The usable bytes, between the guard pages. Moving the Mapping does not
  // move them, so a span taken here stays valid for the owner's lifetime.
  std::span<uint8_t> bytes() const { return bytes_; }

 private:
  void* base_ = nullptr;  // Leading guard page; null when empty.
  size_t mapped_bytes_ = 0;
  std::span<uint8_t> bytes_;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_MAPPING_H_
