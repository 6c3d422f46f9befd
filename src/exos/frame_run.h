// A contiguous run of physical frames a library OS owns, for the regions
// it binds to kernel mechanisms (packet rings, the trace ring). Physical
// names are exposed precisely so applications make placement decisions
// like this one (paper §3.1); the kernel only checks ownership at bind
// time.
#ifndef XOK_SRC_EXOS_FRAME_RUN_H_
#define XOK_SRC_EXOS_FRAME_RUN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/aegis.h"

namespace xok::exos {

class FrameRun {
 public:
  // The placement hunt: allocates the lowest run of `pages` (> 0)
  // contiguous free frames. kErrNoResources when no such run exists; the
  // run must be empty beforehand.
  Status Allocate(aegis::Aegis& kernel, uint32_t pages);
  // Deallocates the run, skipping frames listed in `taken` (repossessed:
  // their capabilities died with the epoch bump), and leaves it empty.
  void Release(aegis::Aegis& kernel, std::span<const hw::PageId> taken = {});

  bool empty() const { return grants_.empty(); }
  hw::PageId first_page() const { return empty() ? 0 : grants_.front().page; }
  uint32_t pages() const { return static_cast<uint32_t>(grants_.size()); }
  // Read/write capability for the first frame: the bind-time proof. The
  // run must not be empty.
  const cap::Capability& first_cap() const { return grants_.front().cap; }
  bool Spans(hw::PageId page) const {
    return page >= first_page() && page < first_page() + pages();
  }

 private:
  std::vector<aegis::PageGrant> grants_;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_FRAME_RUN_H_
