#include "src/hw/mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace xok::hw {

namespace {

std::atomic<uint64_t> mappings_made{0};

size_t HostPageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t UsableBytes(size_t bytes) {
  const size_t page = HostPageBytes();
  return (bytes + page - 1) / page * page;
}

// Mappings given back on this thread, one free list per usable size and
// contents. A rack of five machines keeps ~34 fibers alive and gives back
// five physical memories; the caps leave room for that and keep a test
// that makes thousands of fibers or machines from holding their memory.
constexpr size_t kStackPoolCap = 64;  // Per size, Contents::kAny.
constexpr size_t kZeroPoolCap = 8;    // Per size, Contents::kZero.

struct FreeList {
  size_t bytes = 0;
  Mapping::Contents contents = Mapping::Contents::kAny;
  std::vector<Mapping> mappings;
};
thread_local std::vector<FreeList> pool;

FreeList* FindFreeList(size_t bytes, Mapping::Contents contents) {
  auto it = std::find_if(pool.begin(), pool.end(), [&](const FreeList& list) {
    return list.bytes == bytes && list.contents == contents;
  });
  return it == pool.end() ? nullptr : &*it;
}

}  // namespace

uint64_t Mapping::made() { return mappings_made.load(); }

Mapping::Mapping(size_t bytes) {
  const size_t page = HostPageBytes();
  const size_t usable = UsableBytes(bytes);
  mapped_bytes_ = usable + 2 * page;
  // MAP_NORESERVE: most of a simulated machine's memory is never touched,
  // so commit no swap for it up front.
  base_ = mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base_ == MAP_FAILED) {
    std::perror("mmap");
    std::abort();
  }
  char* lo = static_cast<char*>(base_) + page;
  if (mprotect(base_, page, PROT_NONE) != 0 || mprotect(lo + usable, page, PROT_NONE) != 0) {
    std::perror("mprotect");
    std::abort();
  }
  // Advice only: a host kernel built without transparent huge pages
  // rejects it, and then there are no huge pages to decline.
  (void)madvise(lo, usable, MADV_NOHUGEPAGE);
  bytes_ = std::span<uint8_t>(reinterpret_cast<uint8_t*>(lo), usable);
  ++mappings_made;
}

Mapping::~Mapping() {
  if (base_ != nullptr) {
    munmap(base_, mapped_bytes_);
  }
}

Mapping::Mapping(Mapping&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      bytes_(std::exchange(other.bytes_, {})) {}

Mapping& Mapping::operator=(Mapping&& other) noexcept {
  std::swap(base_, other.base_);
  std::swap(mapped_bytes_, other.mapped_bytes_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

Mapping Mapping::Take(size_t bytes, Contents contents) {
  FreeList* list = FindFreeList(UsableBytes(bytes), contents);
  if (list == nullptr || list->mappings.empty()) {
    return Mapping(bytes);
  }
  Mapping mapping = std::move(list->mappings.back());
  list->mappings.pop_back();
  return mapping;
}

void Mapping::Recycle(Mapping mapping, Contents contents) {
  const size_t bytes = mapping.bytes().size();
  if (bytes == 0) {
    return;
  }
  FreeList* list = FindFreeList(bytes, contents);
  if (list == nullptr) {
    list = &pool.emplace_back(FreeList{bytes, contents, {}});
  }
  const size_t cap = contents == Contents::kZero ? kZeroPoolCap : kStackPoolCap;
  if (list->mappings.size() < cap) {
    list->mappings.push_back(std::move(mapping));
  }
}

}  // namespace xok::hw
