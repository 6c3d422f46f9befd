#include "src/dpf/dpf.h"

#include <algorithm>

namespace xok::dpf {

using hw::Instr;

namespace {

// Reads a big-endian field; false if out of bounds.
bool ReadField(std::span<const uint8_t> msg, uint32_t offset, uint8_t width, uint32_t* out) {
  if (static_cast<size_t>(offset) + width > msg.size()) {
    return false;
  }
  uint32_t value = 0;
  for (uint8_t i = 0; i < width; ++i) {
    value = (value << 8) | msg[offset + i];
  }
  *out = value;
  return true;
}

// The first edge of a sorted fan-out whose field value is not below `value`.
template <typename Edges>
auto LowerEdge(Edges& next, uint32_t value) {
  return std::lower_bound(next.begin(), next.end(), value,
                          [](const auto& edge, uint32_t v) { return edge.first < v; });
}

}  // namespace

vcode::Program DpfEngine::CompileOne(const FilterSpec& filter, FilterId id) {
  vcode::Emitter emitter;
  std::vector<vcode::Emitter::Label> reject_branches;
  for (const Atom& atom : filter.atoms) {
    const vcode::Op load = atom.width == 1   ? vcode::Op::kLoadMsgByte
                           : atom.width == 2 ? vcode::Op::kLoadMsgHalf
                                             : vcode::Op::kLoadMsgWord;
    emitter.Emit(load, /*a=*/0, /*b=*/1, atom.offset);  // r1 is always 0.
    emitter.Emit(vcode::Op::kAndImm, 0, 0, atom.mask);
    reject_branches.push_back(emitter.EmitBranch(vcode::Op::kBranchNeImm, 0, atom.value));
  }
  emitter.Emit(vcode::Op::kAccept, 0, 0, id);
  for (auto label : reject_branches) {
    emitter.Bind(label);
  }
  emitter.Emit(vcode::Op::kReject);
  return emitter.Finish();
}

Result<FilterId> DpfEngine::Insert(const FilterSpec& filter) {
  if (!filter.Valid()) {
    return Status::kErrInvalidArgs;
  }
  // Refuse exact duplicates: a later process may not bind a filter that
  // would steal packets already claimed by an earlier one.
  for (const FilterId live : live_) {
    if (filters_[live].spec.atoms == filter.atoms) {
      return Status::kErrAlreadyExists;
    }
  }
  const FilterId id = static_cast<FilterId>(filters_.size());
  filters_.push_back(Bound{filter, CompileOne(filter, id)});
  // The newest id: both lists stay sorted.
  live_.push_back(id);
  if (!TryTrieInsert(filter, id)) {
    overflow_.push_back(id);
  }
  return id;
}

Status DpfEngine::Remove(FilterId id) {
  const auto live = std::ranges::lower_bound(live_, id);
  if (live == live_.end() || *live != id) {
    return Status::kErrNotFound;
  }
  live_.erase(live);
  filters_[id] = Bound{};  // Frees the spec and the compiled program.
  RebuildTrie();
  return Status::kOk;
}

uint32_t DpfEngine::State::Child(uint32_t value) const {
  const auto it = LowerEdge(next, value);
  return it != next.end() && it->first == value ? it->second : 0;
}

bool DpfEngine::TryTrieInsert(const FilterSpec& filter, FilterId id) {
  if (!merging_enabled_) {
    return false;  // Ablation mode: everything goes to the overflow chain.
  }
  // First pass: check structural compatibility without mutating.
  uint32_t state = 0;
  for (const Atom& atom : filter.atoms) {
    const AtomKey key{atom.offset, atom.width, atom.mask};
    const State& s = states_[state];
    if (s.has_key && !(s.key == key)) {
      return false;  // Divergent structure; goes to the overflow chain.
    }
    if (!s.has_key) {
      break;  // Fresh tail from here on: always insertable.
    }
    const uint32_t child = s.Child(atom.value);
    if (child == 0) {
      break;
    }
    state = child;
  }
  // Second pass: insert.
  state = 0;
  for (const Atom& atom : filter.atoms) {
    State& s = states_[state];
    const AtomKey key{atom.offset, atom.width, atom.mask};
    if (!s.has_key) {
      s.has_key = true;
      s.key = key;
    }
    const auto it = LowerEdge(s.next, atom.value);
    if (it != s.next.end() && it->first == atom.value) {
      state = it->second;
    } else {
      const uint32_t fresh_index = static_cast<uint32_t>(states_.size());
      s.next.insert(it, {atom.value, fresh_index});
      State fresh;
      fresh.depth = s.depth + 1;
      states_.push_back(std::move(fresh));  // Invalidates `s`.
      state = fresh_index;
    }
  }
  if (states_[state].accept >= 0) {
    return false;  // Same atoms already accept elsewhere (shouldn't happen).
  }
  states_[state].accept = static_cast<int32_t>(id);
  return true;
}

void DpfEngine::RebuildTrie() {
  states_.assign(1, State{});
  overflow_.clear();
  for (const FilterId id : live_) {
    if (!TryTrieInsert(filters_[id].spec, id)) {
      overflow_.push_back(id);
    }
  }
}

std::optional<FilterId> DpfEngine::Classify(std::span<const uint8_t> msg) {
  sim_cycles_ += Instr(4);  // Prologue of the generated classifier.

  // Walk the merged trie: one pass over the header, hash-dispatching at
  // each divergence point. Track the deepest accept passed.
  int32_t best = -1;
  uint32_t best_depth = 0;
  uint32_t state = 0;
  for (;;) {
    const State& s = states_[state];
    if (s.accept >= 0) {  // The trie holds live filters only.
      best = s.accept;
      best_depth = s.depth;
    }
    if (!s.has_key) {
      break;
    }
    uint32_t field = 0;
    sim_cycles_ += Instr(3);  // Load + mask + hash dispatch, compiled.
    if (!ReadField(msg, s.key.offset, s.key.width, &field)) {
      break;
    }
    const uint32_t child = s.Child(field & s.key.mask);
    if (child == 0) {
      break;
    }
    state = child;
  }

  // Overflow chain: individually compiled straight-line programs, in id
  // order so equal-depth ties go to the lowest id.
  for (const FilterId id : overflow_) {
    const Bound& bound = filters_[id];
    vcode::ExecEnv env{msg, {}, nullptr};
    const vcode::ExecResult run = vcode::Execute(bound.program, env);
    sim_cycles_ += Instr(2) * run.ops_executed;  // Compiled-code cost.
    if (run.value != vcode::kRejected) {
      const uint32_t depth = static_cast<uint32_t>(bound.spec.atoms.size());
      if (best < 0 || depth > best_depth ||
          (depth == best_depth && static_cast<int32_t>(id) < best)) {
        best = static_cast<int32_t>(id);
        best_depth = depth;
      }
    }
  }

  if (best < 0) {
    return std::nullopt;
  }
  return static_cast<FilterId>(best);
}

}  // namespace xok::dpf
