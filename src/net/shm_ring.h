// Shared-memory rings: the one header format every ring the kernel shares
// with a library OS uses — the RX and TX halves of a packet ring
// (net::PacketRingView) and the xtrace event ring (xtrace::TraceRingView).
//
// A ring is a 64-byte header plus `slots` fixed-stride slots, both in
// application-owned pinned frames. Header fields are little-endian and
// accessed through memcpy, so the region is just bytes:
//
//   offset  0  u32 magic    ring kind, written at format time
//   offset  4  u32 slots    slot count, written at format time
//   offset  8  u32 head     producer cursor
//   offset 12  u32 tail     consumer cursor
//   offset 16  u32 word     kind-specific (packet RX: doorbell armed;
//                           trace: event mask)
//   offset 24  u64 counter  kind-specific (trace: records dropped)
//   bytes 32..63 are zero padding.
//
// Index rule: head and tail are free-running u32 counters and an index
// names slot `index % slots`. The ring is empty when head == tail and full
// when head - tail == slots, in wrapping u32 arithmetic.
//
// Trust model: the region is application memory, which the application
// may scribble at any time. The kernel therefore (a) keeps its own cursor
// in a trusted binding record and only publishes it to the header, (b)
// takes the slot count, the stride and every byte offset from bind-time
// geometry, never from the header, and (c) clamps anything else it reads
// from the region (a slot length, the peer's cursor distance). With the
// index rule every untrusted cursor value yields in-bounds accesses: a
// corrupted header can at worst lose or scramble the owner's own data.
#ifndef XOK_SRC_NET_SHM_RING_H_
#define XOK_SRC_NET_SHM_RING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace xok::net {

class SharedRing {
 public:
  static constexpr uint32_t kHeaderBytes = 64;
  static constexpr uint32_t kMagicOff = 0;
  static constexpr uint32_t kSlotsOff = 4;
  static constexpr uint32_t kHeadOff = 8;
  static constexpr uint32_t kTailOff = 12;
  static constexpr uint32_t kWordOff = 16;
  static constexpr uint32_t kCounterOff = 24;  // 8-byte aligned.

  // Header plus `slots` slots of `stride` bytes.
  static constexpr size_t Bytes(uint32_t slots, uint32_t stride) {
    return kHeaderBytes + static_cast<size_t>(slots) * stride;
  }

  SharedRing() = default;
  // `header` is the ring's 64-byte header and `slot0` its first slot; the
  // slot count and stride are the caller's trusted geometry.
  SharedRing(uint8_t* header, uint8_t* slot0, uint32_t slots, uint32_t stride)
      : header_(header), slot0_(slot0), slots_(slots), stride_(stride) {}

  // Zeroes the header and writes the magic and the trusted slot count.
  void Format(uint32_t magic) {
    std::memset(header_, 0, kHeaderBytes);
    Store<uint32_t>(kMagicOff, magic);
    Store<uint32_t>(kSlotsOff, slots_);
  }

  uint32_t slots() const { return slots_; }
  // Header fields as stored (untrusted once the region is shared).
  uint32_t magic() const { return Load<uint32_t>(kMagicOff); }
  uint32_t header_slots() const { return Load<uint32_t>(kSlotsOff); }
  uint32_t head() const { return Load<uint32_t>(kHeadOff); }
  uint32_t tail() const { return Load<uint32_t>(kTailOff); }
  uint32_t word() const { return Load<uint32_t>(kWordOff); }
  uint64_t counter() const { return Load<uint64_t>(kCounterOff); }
  void set_head(uint32_t v) { Store(kHeadOff, v); }
  void set_tail(uint32_t v) { Store(kTailOff, v); }
  void set_word(uint32_t v) { Store(kWordOff, v); }
  void set_counter(uint64_t v) { Store(kCounterOff, v); }

  // First byte of the slot a free-running index names.
  uint8_t* Slot(uint32_t index) const {
    return slot0_ + static_cast<size_t>(index % slots_) * stride_;
  }

 private:
  template <typename T>
  T Load(uint32_t off) const {
    T v;
    std::memcpy(&v, header_ + off, sizeof(v));
    return v;
  }
  template <typename T>
  void Store(uint32_t off, T v) {
    std::memcpy(header_ + off, &v, sizeof(v));
  }

  uint8_t* header_ = nullptr;
  uint8_t* slot0_ = nullptr;
  uint32_t slots_ = 0;
  uint32_t stride_ = 0;
};

}  // namespace xok::net

#endif  // XOK_SRC_NET_SHM_RING_H_
