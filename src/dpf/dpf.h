// DPF: the dynamic packet filter (paper §5.6, refs [20, 22]).
//
// Two ideas give DPF its order-of-magnitude win over interpreted engines:
//
//  1. *Dynamic code generation*: each bound filter is compiled (via the
//     vcode substrate) into straight-line code — fully decoded compare
//     instructions with pre-resolved offsets — instead of being interpreted
//     from a generic byte-coded representation on every packet.
//  2. *Filter merging*: filters testing the same (offset, width, mask) atom
//     sequence are merged into a prefix trie whose divergence points
//     dispatch through a hash table on the field value, so classifying
//     against N similar filters costs one pass over the header, not N.
//
// Filters whose atom structure does not align with the trie fall into an
// overflow chain of individually-compiled programs, evaluated after the
// trie; correctness never depends on mergeability.
//
// Cost model: a classification costs an Instr(4) prologue, Instr(3) per trie
// step (load + mask + hash dispatch in generated code) and Instr(2) per
// overflow-program instruction, reflecting compiled-code execution. Compare
// mpf.h / pathfinder.h.
//
// Host representation: the simulator keeps each divergence point's fan-out
// as an array sorted by field value and binary-searches it, and keeps the
// overflow chain as a sorted list of live filter ids. The duplicate check
// and a trie rebuild walk the sorted ids of the live filters, not every id
// ever bound, and a removed filter's spec and program are freed, so
// bind/unbind churn costs the host the same per round however long it
// runs. Only the host's data structures differ from the modelled code; the
// charges above still price the compiled hash dispatch and are independent
// of how the host finds the next state.
#ifndef XOK_SRC_DPF_DPF_H_
#define XOK_SRC_DPF_DPF_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/dpf/filter.h"
#include "src/hw/cost.h"
#include "src/vcode/vcode.h"

namespace xok::dpf {

class DpfEngine final : public ClassifierEngine {
 public:
  DpfEngine() = default;

  Result<FilterId> Insert(const FilterSpec& filter) override;
  Status Remove(FilterId id) override;
  std::optional<FilterId> Classify(std::span<const uint8_t> msg) override;
  uint64_t sim_cycles() const override { return sim_cycles_; }
  const char* name() const override { return "DPF"; }

  // Introspection for tests and the merge ablation.
  size_t trie_states() const { return states_.size(); }
  size_t overflow_filters() const { return overflow_.size(); }

  // Ablation control: with merging disabled every filter runs as its own
  // compiled straight-line program (no shared-prefix trie), isolating the
  // contribution of filter merging from that of code generation.
  void set_merging_enabled(bool enabled) {
    merging_enabled_ = enabled;
    RebuildTrie();
  }

  // Compiles a single filter to a straight-line vcode program (exposed so
  // tests can check the generated code and Aegis can reuse it).
  static vcode::Program CompileOne(const FilterSpec& filter, FilterId id);

 private:
  struct AtomKey {
    uint32_t offset = 0;
    uint8_t width = 1;
    uint32_t mask = 0;

    friend bool operator==(const AtomKey&, const AtomKey&) = default;
  };

  struct State {
    bool has_key = false;
    AtomKey key;
    // (field value, state index), sorted by field value.
    std::vector<std::pair<uint32_t, uint32_t>> next;
    int32_t accept = -1;  // Filter ending at this state.
    uint32_t depth = 0;   // Atoms consumed to get here.

    // The state reached on `value`, or 0 (the root, never a child) if none.
    uint32_t Child(uint32_t value) const;
  };

  struct Bound {
    FilterSpec spec;
    vcode::Program program;  // Straight-line compiled form.
  };

  // Attempts trie insertion; returns false on structural mismatch.
  bool TryTrieInsert(const FilterSpec& filter, FilterId id);
  void RebuildTrie();

  std::vector<State> states_{State{}};  // states_[0] is the root.
  std::vector<Bound> filters_;  // By id; a removed filter's is empty.
  std::vector<FilterId> live_;  // Bound filters, by id.
  std::vector<FilterId> overflow_;  // Live filters not in the trie, by id.
  bool merging_enabled_ = true;
  uint64_t sim_cycles_ = 0;
};

}  // namespace xok::dpf

#endif  // XOK_SRC_DPF_DPF_H_
