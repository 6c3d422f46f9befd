// ExOS virtual memory: mapping, protection, software dirty bits, and
// user-level trap upcalls — implemented entirely in application space on
// Aegis primitives (paper §6.2). This is the machinery under the Appel–Li
// benchmarks (Table 10): trap, prot1/prot100, unprot100, dirty, appel1/2.
#ifndef XOK_SRC_EXOS_VM_H_
#define XOK_SRC_EXOS_VM_H_

#include <cstdint>
#include <functional>

#include "src/base/result.h"
#include "src/core/aegis.h"
#include "src/exos/inverted_page_table.h"
#include "src/exos/page_table.h"

namespace xok::exos {

// Which page-table structure this address space uses — an application
// choice (paper §7: page-table structures are libOS code, not kernel
// policy). kTwoLevel is the dense/linear classic; kInverted sizes its
// space by physical frames and wins for sparse address spaces.
enum class PageTableKind : uint8_t { kTwoLevel, kInverted };

class Vm {
 public:
  // The user-level fault handler (the "trap" the Appel–Li suite measures):
  // called for accesses the application has protected. Returns true if it
  // repaired the fault (typically via Protect/Unprotect) and the access
  // should retry.
  using TrapHandler = std::function<bool(hw::Vaddr va, bool is_write)>;

  explicit Vm(aegis::Aegis& kernel, PageTableKind kind = PageTableKind::kTwoLevel)
      : kernel_(kernel), kind_(kind) {
    if (kind_ == PageTableKind::kInverted) {
      inverted_ = std::make_unique<InvertedPageTable>(kernel.machine().mem().page_count());
    }
  }

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Demand-zero on unmapped faults (on by default: gives processes a heap
  // without explicit Map calls).
  void set_demand_zero(bool on) { demand_zero_ = on; }
  void set_trap_handler(TrapHandler handler) { trap_handler_ = std::move(handler); }

  // Eagerly binds a frame at `va` with `prot`. Called from the owning env.
  Status Map(hw::Vaddr va, Prot prot);

  // Binds an *existing* frame (e.g. a page shared by another process,
  // reached via a derived capability) at `va`. The PTE is marked dirty so
  // stores never trap for dirty tracking — shared-buffer semantics.
  Status MapExternal(hw::Vaddr va, hw::PageId frame, const cap::Capability& frame_cap,
                     Prot prot);
  // Releases the frame at `va` back to the kernel.
  Status Unmap(hw::Vaddr va);

  // Changes protection on `pages` pages starting at `va`. Pure
  // application-level state change plus one TLB invalidate per page.
  Status Protect(hw::Vaddr va, uint32_t pages, Prot prot);

  // Software dirty query: two indexed loads into our own page table — no
  // kernel involvement at all (Table 10 "dirty").
  Result<bool> Dirty(hw::Vaddr va);
  // Clears the dirty bit and re-arms the first-store trap.
  Status Clean(hw::Vaddr va);

  // The environment's exception context for memory faults. Returns kRetry
  // if the fault was satisfied (mapping installed / handler repaired it).
  aegis::ExcAction HandleException(const hw::TrapFrame& frame);

  // Releases up to `n` mapped pages back to the kernel, preferring clean
  // pages (cheap victims — nothing to write back). Returns how many were
  // released. This is the default visible-revocation policy.
  uint32_t ReleasePages(uint32_t n);

  // Repairs the page table after an abort-protocol repossession: any PTE
  // whose frame was taken is marked not-present (the libOS sees exactly
  // which abstractions broke).
  void RepairAfterRepossession(std::span<const hw::PageId> taken);

  uint64_t user_traps() const { return user_traps_; }
  PageTableKind page_table_kind() const { return kind_; }
  // Bytes of page-table structure currently held (the §7.2-style space
  // comparison between structures).
  size_t table_footprint_bytes() const;

 private:
  // Installs the hardware mapping for a present, accessible PTE. Clean
  // pages map read-only so the first store faults and sets the dirty bit.
  Status InstallMapping(hw::Vaddr va, Pte& pte);

  // Structure dispatch: the rest of the VM is table-agnostic.
  Pte* TableLookup(hw::Vpn vpn);
  Pte& TableLookupOrCreate(hw::Vpn vpn);
  template <typename Fn>
  void TableForEachPresent(Fn&& fn) {
    if (kind_ == PageTableKind::kInverted) {
      inverted_->ForEachPresent(fn);
    } else {
      table_.ForEachPresent(fn);
    }
  }

  aegis::Aegis& kernel_;
  PageTableKind kind_ = PageTableKind::kTwoLevel;
  PageTable table_;
  std::unique_ptr<InvertedPageTable> inverted_;
  TrapHandler trap_handler_;
  bool demand_zero_ = true;
  uint64_t user_traps_ = 0;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_VM_H_
