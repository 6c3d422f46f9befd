// Quickstart: boot a simulated machine, install the Aegis exokernel, run
// two ExOS processes that talk through an application-level pipe, and poke
// at the secure-binding API. Build and run:
//
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/quickstart
#include <cstdio>

#include "src/core/aegis.h"
#include "src/exos/ipc.h"
#include "src/exos/process.h"

using namespace xok;

int main() {
  // 1. The hardware: a DECstation-like simulated machine.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "quickstart"});

  // 2. The exokernel: securely multiplexes the hardware, implements no
  //    abstractions.
  aegis::Aegis kernel(machine);

  // 3. Library operating system processes. Everything interesting —
  //    virtual memory, the pipe, blocking — is library code.
  exos::SharedBufferDesc ring;
  bool ring_ready = false;
  exos::PipePeer writer_peer;
  exos::PipePeer reader_peer;
  constexpr hw::Vaddr kRingVa = 0x5000000;

  exos::Process writer(kernel, [&](exos::Process& p) {
    // Allocate a physical page (the kernel hands back its *name* and a
    // capability) and share it with the reader.
    ring = *exos::CreateSharedBuffer(p);
    (void)exos::MapSharedBuffer(p, ring, kRingVa);
    ring_ready = true;

    exos::PipeEndpoint out(p, kRingVa, writer_peer, /*posix_emulation=*/false);
    const char* message = "hello from an application-level operating system";
    (void)out.WriteMessage(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(message), 49));
    std::printf("[writer %u] sent greeting; my heap is demand-paged by ExOS\n", p.id());

    // Touch demand-zero heap: the fault is handled by library code.
    (void)p.machine().StoreWord(0x100000, 42);
    std::printf("[writer %u] wrote my heap at 0x100000 = %u\n", p.id(),
                p.machine().LoadWord(0x100000).value_or(0));
  });

  exos::Process reader(kernel, [&](exos::Process& p) {
    while (!ring_ready) {
      p.kernel().SysYield();
    }
    (void)exos::MapSharedBuffer(p, ring, kRingVa);
    exos::PipeEndpoint in(p, kRingVa, reader_peer, /*posix_emulation=*/false);
    uint8_t buf[128] = {};
    Result<uint32_t> len = in.ReadMessage(buf);
    std::printf("[reader %u] got %u bytes: \"%s\"\n", p.id(), len.value_or(0),
                reinterpret_cast<const char*>(buf));
  });

  if (!writer.ok() || !reader.ok()) {
    std::fprintf(stderr, "failed to create processes\n");
    return 1;
  }
  writer_peer = {reader.id(), reader.env_cap()};
  reader_peer = {writer.id(), writer.env_cap()};

  // 4. Run until every environment exits.
  kernel.Run();

  std::printf("simulated time elapsed: %.2f ms; free pages: %u\n",
              machine.clock().now_micros() / 1000.0, kernel.free_pages());
  return 0;
}
