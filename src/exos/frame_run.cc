#include "src/exos/frame_run.h"

#include <algorithm>

namespace xok::exos {

Status FrameRun::Allocate(aegis::Aegis& kernel, uint32_t pages) {
  const uint32_t page_count = kernel.machine().mem().page_count();
  for (hw::PageId start = 0; start + pages <= page_count;) {
    hw::PageId next_start = start + pages;
    for (uint32_t i = 0; i < pages; ++i) {
      Result<aegis::PageGrant> grant = kernel.SysAllocPage(start + i);
      if (!grant.ok()) {
        next_start = start + i + 1;
        break;
      }
      grants_.push_back(*grant);
    }
    if (grants_.size() == pages) {
      return Status::kOk;
    }
    Release(kernel);
    start = next_start;
  }
  return Status::kErrNoResources;
}

void FrameRun::Release(aegis::Aegis& kernel, std::span<const hw::PageId> taken) {
  for (const aegis::PageGrant& grant : grants_) {
    if (std::find(taken.begin(), taken.end(), grant.page) == taken.end()) {
      (void)kernel.SysDeallocPage(grant.page, grant.cap);
    }
  }
  grants_.clear();
}

}  // namespace xok::exos
