// Application-level CPU scheduling (paper §7.3): an ExOS process owns the
// machine's time slices and doles them out to three compute-bound workers
// with a 3:2:1 proportional share, using nothing but Aegis's directed
// yield. Change the ticket numbers and rerun: no kernel involved.
#include <cstdio>
#include <memory>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/stride.h"

using namespace xok;

int main(int argc, char** argv) {
  uint32_t tickets[3] = {3, 2, 1};
  if (argc == 4) {
    for (int i = 0; i < 3; ++i) {
      tickets[i] = static_cast<uint32_t>(std::max(1, atoi(argv[i + 1])));
    }
  }

  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "stride"});
  aegis::Aegis kernel(machine);

  bool stop = false;
  uint64_t work_done[3] = {0, 0, 0};
  std::array<std::unique_ptr<exos::Process>, 3> workers;
  for (int i = 0; i < 3; ++i) {
    workers[i] = std::make_unique<exos::Process>(
        kernel,
        [&stop, &work_done, i](exos::Process& p) {
          while (!stop) {
            p.machine().Charge(hw::Instr(1000));  // "Work."
            ++work_done[i];
          }
        },
        exos::Process::Options{.slices = 0, .demand_zero = true});
    if (!workers[i]->ok()) {
      return 1;
    }
  }

  exos::Process scheduler(kernel, [&](exos::Process& p) {
    exos::StrideScheduler stride(p.kernel());
    for (int i = 0; i < 3; ++i) {
      stride.AddClient(workers[i]->id(), tickets[i]);
    }
    std::printf("scheduling 120 slices with tickets %u:%u:%u ...\n", tickets[0], tickets[1],
                tickets[2]);
    stride.RunSlices(120);
    stop = true;
    const auto& allocations = stride.allocations();
    const double total = static_cast<double>(tickets[0] + tickets[1] + tickets[2]);
    for (int i = 0; i < 3; ++i) {
      std::printf("worker %d: %3lu slices (ideal %5.1f), %llu work units\n", i,
                  static_cast<unsigned long>(allocations[i]), 120.0 * tickets[i] / total,
                  static_cast<unsigned long long>(work_done[i]));
    }
  });
  if (!scheduler.ok()) {
    return 1;
  }
  kernel.Run();
  std::printf("simulated time: %.2f ms\n", machine.clock().now_micros() / 1000.0);
  return 0;
}
