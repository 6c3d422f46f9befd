#include "src/exos/stride.h"

namespace xok::exos {

using hw::Instr;

size_t StrideScheduler::AddClient(aegis::EnvId env, uint32_t tickets, uint32_t home_cpu) {
  Client client;
  client.env = env;
  client.stride = tickets == 0 ? kStride1 : kStride1 / tickets;
  client.home_cpu = home_cpu;
  // New clients start at the minimum pass currently in the system so they
  // neither starve nor monopolise.
  uint64_t min_pass = 0;
  bool first = true;
  for (const Client& existing : clients_) {
    if (first || existing.pass < min_pass) {
      min_pass = existing.pass;
      first = false;
    }
  }
  client.pass = min_pass + client.stride;
  clients_.push_back(client);
  allocations_.push_back(0);
  return clients_.size() - 1;
}

void StrideScheduler::Retarget(size_t index, aegis::EnvId env) {
  if (index < clients_.size()) {
    clients_[index].env = env;
  }
}

bool StrideScheduler::Start(uint32_t slices_per_cpu) {
  const uint32_t cpus = kernel_.machine().cpu_count();
  for (uint32_t k = 0; k < cpus; ++k) {
    Process::Options options;
    options.cpu_mask = 1ULL << k;
    schedulers_.push_back(std::make_unique<Process>(
        kernel_, [this, k, slices_per_cpu](Process&) { RunSlices(slices_per_cpu, k); },
        options));
    if (!schedulers_.back()->ok()) {
      return false;
    }
  }
  return true;
}

void StrideScheduler::RunSlices(uint32_t slices, uint32_t cpu) {
  const size_t none = clients_.size();
  for (uint32_t i = 0; i < slices; ++i) {
    // Scan the local run list first; fall back to a global scan only when
    // no client is homed here (work conservation). Ties go to the lowest
    // index.
    kernel_.machine().Charge(Instr(10 + 4 * clients_.size()));
    size_t winner = none;
    for (size_t c = 0; c < clients_.size(); ++c) {
      if (clients_[c].home_cpu == cpu &&
          (winner == none || clients_[c].pass < clients_[winner].pass)) {
        winner = c;
      }
    }
    if (winner == none) {
      for (size_t c = 0; c < clients_.size(); ++c) {
        if (winner == none || clients_[c].pass < clients_[winner].pass) {
          winner = c;
        }
      }
      if (winner == none) {
        return;  // No clients at all.
      }
      ++handoffs_;
    }
    clients_[winner].pass += clients_[winner].stride;
    ++allocations_[winner];
    history_.push_back(winner);
    // Donate this slice straight to the chosen client, even one homed on
    // another CPU — the slice being donated is ours, not the client's.
    kernel_.SysYield(clients_[winner].env);
  }
}

}  // namespace xok::exos
