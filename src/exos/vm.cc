#include "src/exos/vm.h"

#include <memory>

namespace xok::exos {

using aegis::ExcAction;
using hw::Instr;

namespace {
// Application-level path lengths (ExOS code, charged to the env).
constexpr uint64_t kPtLookup = Instr(8);    // Two indexed loads + checks.
constexpr uint64_t kPtUpdate = Instr(6);    // Flag updates.
constexpr uint64_t kHandlerGlue = Instr(10);  // Trampoline into user handler.
}  // namespace

Pte* Vm::TableLookup(hw::Vpn vpn) {
  return kind_ == PageTableKind::kInverted ? inverted_->Lookup(vpn) : table_.Lookup(vpn);
}

Pte& Vm::TableLookupOrCreate(hw::Vpn vpn) {
  return kind_ == PageTableKind::kInverted ? inverted_->LookupOrCreate(vpn)
                                           : table_.LookupOrCreate(vpn);
}

size_t Vm::table_footprint_bytes() const {
  if (kind_ == PageTableKind::kInverted) {
    return inverted_->footprint_bytes();
  }
  // Two-level: the L1 array plus every populated L2 block.
  size_t bytes = (1u << PageTable::kL1Bits) * sizeof(void*);
  // PageTable does not expose its internals; estimate via present walk.
  // Each populated L2 holds kL2Entries PTEs.
  std::vector<bool> l2_seen(1u << PageTable::kL1Bits, false);
  const_cast<Vm*>(this)->table_.ForEachPresent([&](hw::Vpn vpn, Pte&) {
    l2_seen[vpn >> PageTable::kL2Bits] = true;
  });
  for (bool seen : l2_seen) {
    if (seen) {
      bytes += PageTable::kL2Entries * sizeof(Pte);
    }
  }
  return bytes;
}

Status Vm::Map(hw::Vaddr va, Prot prot) {
  kernel_.machine().Charge(kPtLookup + kPtUpdate);
  Pte& pte = TableLookupOrCreate(hw::VpnOf(va));
  if (pte.present) {
    return Status::kErrAlreadyExists;
  }
  Result<aegis::PageGrant> grant = kernel_.SysAllocPage();
  if (!grant.ok()) {
    return grant.status();
  }
  // Zero-fill: the kernel hands out frames with their previous contents
  // (it implements no policy, including no scrubbing); the library OS
  // zeroes through its own write binding. Charged as a full-page store
  // loop; performed via the frame span for simulator efficiency.
  kernel_.machine().Charge(hw::kMemWordCopy * (hw::kPageBytes / 4));
  auto frame_bytes = kernel_.machine().mem().PageSpan(grant->page);
  std::fill(frame_bytes.begin(), frame_bytes.end(), uint8_t{0});
  pte.present = true;
  pte.prot = prot;
  pte.dirty = false;
  pte.frame = grant->page;
  pte.cap = grant->cap;
  return Status::kOk;
}

Status Vm::MapExternal(hw::Vaddr va, hw::PageId frame, const cap::Capability& frame_cap,
                       Prot prot) {
  kernel_.machine().Charge(kPtLookup + kPtUpdate);
  Pte& pte = TableLookupOrCreate(hw::VpnOf(va));
  if (pte.present) {
    return Status::kErrAlreadyExists;
  }
  pte.present = true;
  pte.prot = prot;
  pte.dirty = true;  // Shared buffers opt out of first-store dirty traps.
  pte.frame = frame;
  pte.cap = frame_cap;
  // Install eagerly; later TLB evictions refault through the page table.
  return InstallMapping(va, pte);
}

Status Vm::Unmap(hw::Vaddr va) {
  kernel_.machine().Charge(kPtLookup + kPtUpdate);
  Pte* pte = TableLookup(hw::VpnOf(va));
  if (pte == nullptr || !pte->present) {
    return Status::kErrNotFound;
  }
  const Status status = kernel_.SysDeallocPage(pte->frame, pte->cap);
  pte->present = false;
  (void)kernel_.SysTlbInvalidate(va);
  return status;
}

Status Vm::Protect(hw::Vaddr va, uint32_t pages, Prot prot) {
  // Update our own page table first (pure application work)...
  for (uint32_t i = 0; i < pages; ++i) {
    const hw::Vaddr page_va = va + i * hw::kPageBytes;
    kernel_.machine().Charge(kPtLookup + kPtUpdate);
    Pte* pte = TableLookup(hw::VpnOf(page_va));
    if (pte == nullptr || !pte->present) {
      return Status::kErrNotFound;
    }
    pte->prot = prot;
  }
  // ...then drop the cached hardware mappings in one batched kernel
  // crossing so the next access re-faults through the new protection.
  return kernel_.SysTlbInvalidateRange(va, pages);
}

Result<bool> Vm::Dirty(hw::Vaddr va) {
  kernel_.machine().Charge(kPtLookup);
  Pte* pte = TableLookup(hw::VpnOf(va));
  if (pte == nullptr || !pte->present) {
    return Status::kErrNotFound;
  }
  return pte->dirty;
}

Status Vm::Clean(hw::Vaddr va) {
  kernel_.machine().Charge(kPtLookup + kPtUpdate);
  Pte* pte = TableLookup(hw::VpnOf(va));
  if (pte == nullptr || !pte->present) {
    return Status::kErrNotFound;
  }
  pte->dirty = false;
  return kernel_.SysTlbInvalidate(va);  // Re-arm the first-store trap.
}

Status Vm::InstallMapping(hw::Vaddr va, Pte& pte) {
  const bool writable = pte.prot == kProtWrite && pte.dirty;
  return kernel_.SysTlbWrite(va, pte.frame, writable, pte.cap);
}

ExcAction Vm::HandleException(const hw::TrapFrame& frame) {
  const bool is_store = frame.store || frame.type == hw::ExceptionType::kTlbModify;
  kernel_.machine().Charge(kPtLookup);
  Pte* pte = TableLookup(hw::VpnOf(frame.bad_vaddr));

  if (pte == nullptr || !pte->present) {
    if (!demand_zero_) {
      return ExcAction::kSkip;
    }
    kernel_.machine().Charge(kPtUpdate);
    if (Map(frame.bad_vaddr, kProtWrite) != Status::kOk) {
      return ExcAction::kSkip;
    }
    pte = TableLookup(hw::VpnOf(frame.bad_vaddr));
    if (pte == nullptr) {
      return ExcAction::kSkip;
    }
  }

  // Application-chosen protection faults go to the user-level handler
  // (this is the Appel–Li "trap" path).
  const bool denied = pte->prot == kProtNone || (is_store && pte->prot != kProtWrite);
  if (denied) {
    if (!trap_handler_) {
      return ExcAction::kSkip;
    }
    ++user_traps_;
    kernel_.machine().Charge(kHandlerGlue);
    if (!trap_handler_(frame.bad_vaddr, is_store)) {
      return ExcAction::kSkip;
    }
    // The handler usually unprotected something; re-evaluate this fault.
    kernel_.machine().Charge(kPtLookup);
    pte = TableLookup(hw::VpnOf(frame.bad_vaddr));
    if (pte == nullptr || !pte->present || pte->prot == kProtNone ||
        (is_store && pte->prot != kProtWrite)) {
      return ExcAction::kSkip;
    }
  }

  if (is_store) {
    kernel_.machine().Charge(kPtUpdate);
    pte->dirty = true;  // Software dirty bit: set on the first store.
  }
  return InstallMapping(frame.bad_vaddr, *pte) == Status::kOk ? ExcAction::kRetry
                                                              : ExcAction::kSkip;
}

uint32_t Vm::ReleasePages(uint32_t n) {
  std::vector<hw::Vpn> clean;
  std::vector<hw::Vpn> dirty;
  TableForEachPresent([&](hw::Vpn vpn, Pte& pte) {
    (pte.dirty ? dirty : clean).push_back(vpn);
  });
  uint32_t released = 0;
  auto release_from = [&](const std::vector<hw::Vpn>& list) {
    for (const hw::Vpn vpn : list) {
      if (released == n) {
        return;
      }
      if (Unmap(vpn << hw::kPageShift) == Status::kOk) {
        ++released;
      }
    }
  };
  release_from(clean);
  release_from(dirty);
  return released;
}

void Vm::RepairAfterRepossession(std::span<const hw::PageId> taken) {
  TableForEachPresent([&](hw::Vpn vpn, Pte& pte) {
    (void)vpn;
    for (const hw::PageId page : taken) {
      if (pte.frame == page) {
        pte.present = false;  // The binding is gone; refault will re-map.
      }
    }
  });
}

}  // namespace xok::exos
