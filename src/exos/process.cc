#include "src/exos/process.h"

namespace xok::exos {

using aegis::EnvSpec;
using aegis::ExcAction;
using aegis::PctArgs;
using hw::Instr;

Process::Process(aegis::Aegis& kernel, std::function<void(Process&)> main,
                 const Options& options)
    : kernel_(kernel), vm_(kernel, options.page_table) {
  vm_.set_demand_zero(options.demand_zero);

  EnvSpec spec;
  spec.slices = options.slices;
  spec.cpu_mask = options.cpu_mask;
  spec.entry = [this, main = std::move(main)]() { main(*this); };
  spec.handlers.exception = [this](const hw::TrapFrame& frame) { return OnException(frame); };
  // End-of-slice interrupt context: save the general-purpose context (the
  // application does its own context switching — paper §5.1.1).
  spec.handlers.timer_epilogue = [this]() { machine().Charge(Instr(30)); };
  spec.handlers.pct_sync = [this](const PctArgs& args) {
    return pct_server_ ? pct_server_(args) : PctArgs{};
  };
  spec.handlers.pct_async = [this](const PctArgs& args) {
    if (pct_async_) {
      pct_async_(args);
    }
  };
  spec.handlers.revoke = [this](uint32_t pages) { OnRevoke(pages); };

  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  if (grant.ok()) {
    id_ = grant->env;
    env_cap_ = grant->cap;
  }
}

ExcAction Process::OnException(const hw::TrapFrame& frame) {
  switch (frame.type) {
    case hw::ExceptionType::kTlbMissLoad:
    case hw::ExceptionType::kTlbMissStore:
    case hw::ExceptionType::kTlbModify:
      return vm_.HandleException(frame);
    default:
      return raw_exception_ ? raw_exception_(frame) : ExcAction::kSkip;
  }
}

void Process::OnRevoke(uint32_t pages) {
  if (revoke_) {
    revoke_(pages);
    return;
  }
  // Default policy: comply by releasing clean pages first (cheap victims).
  vm_.ReleasePages(pages);
}

}  // namespace xok::exos
