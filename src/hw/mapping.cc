#include "src/hw/mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace xok::hw {

namespace {
std::atomic<uint64_t> mappings_made{0};
}  // namespace

uint64_t Mapping::made() { return mappings_made.load(); }

Mapping::Mapping(size_t bytes) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t usable = (bytes + page - 1) / page * page;
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

}  // namespace xok::hw
