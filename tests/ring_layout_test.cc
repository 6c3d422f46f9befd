// Golden bytes of the shared ring regions. Both rings are formatted,
// every header field is set through the views, and the test then reads
// the raw region: each field, the first slots and the first record must
// sit at the byte offsets the libraries and the kernel agree on.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/xtrace.h"
#include "src/net/pktring.h"

namespace xok {
namespace {

uint32_t U32At(const std::vector<uint8_t>& region, size_t off) {
  uint32_t v;
  std::memcpy(&v, region.data() + off, sizeof(v));
  return v;
}

uint64_t U64At(const std::vector<uint8_t>& region, size_t off) {
  uint64_t v;
  std::memcpy(&v, region.data() + off, sizeof(v));
  return v;
}

TEST(RingLayoutTest, PacketRingFieldsAndSlotsSitAtFixedOffsets) {
  using net::PacketRingView;
  std::vector<uint8_t> region(PacketRingView::BytesNeeded(3, 2), 0xee);
  ASSERT_EQ(region.size(), 128u + 5u * 1536u);
  Result<PacketRingView> view = PacketRingView::Format(region, 3, 2);
  ASSERT_TRUE(view.ok());
  view->set_rx_head(0x11);
  view->set_rx_tail(0x12);
  view->set_rx_armed(true);
  view->set_tx_head(0x21);
  view->set_tx_tail(0x22);
  const std::vector<uint8_t> rx_frame = {0xa1, 0xa2, 0xa3};
  const std::vector<uint8_t> tx_frame = {0xb1, 0xb2};
  view->WriteRxSlot(0, rx_frame);
  view->WriteRxSlot(4, rx_frame);  // Free-running: index 4 is slot 1.
  view->WriteTxSlot(0, tx_frame);

  // RX header at 0: magic, slots, head, tail, armed, then zero padding.
  EXPECT_EQ(U32At(region, 0), 0x70724e47u);
  EXPECT_EQ(U32At(region, 4), 3u);
  EXPECT_EQ(U32At(region, 8), 0x11u);
  EXPECT_EQ(U32At(region, 12), 0x12u);
  EXPECT_EQ(U32At(region, 16), 1u);
  for (size_t off = 20; off < 64; ++off) {
    EXPECT_EQ(region[off], 0) << "RX header padding at " << off;
  }
  // TX header at 64, the same format.
  EXPECT_EQ(U32At(region, 64), 0x70724e47u);
  EXPECT_EQ(U32At(region, 68), 2u);
  EXPECT_EQ(U32At(region, 72), 0x21u);
  EXPECT_EQ(U32At(region, 76), 0x22u);
  for (size_t off = 80; off < 128; ++off) {
    EXPECT_EQ(region[off], 0) << "TX header padding at " << off;
  }
  // First RX slot at 128: {len, reserved, data}; slot 1 one stride on.
  EXPECT_EQ(U32At(region, 128), 3u);
  EXPECT_EQ(U32At(region, 132), 0u);
  EXPECT_EQ(region[136], 0xa1);
  EXPECT_EQ(region[138], 0xa3);
  EXPECT_EQ(U32At(region, 128 + 1536), 3u);
  EXPECT_EQ(region[128 + 1536 + 8], 0xa1);
  // First TX slot follows all three RX slots.
  const size_t tx0 = 128 + 3 * 1536;
  EXPECT_EQ(U32At(region, tx0), 2u);
  EXPECT_EQ(U32At(region, tx0 + 4), 0u);
  EXPECT_EQ(region[tx0 + 8], 0xb1);
  EXPECT_EQ(region[tx0 + 9], 0xb2);
  EXPECT_EQ(view->ReadTxSlot(2).size(), 2u);  // Index 2 wraps to slot 0.
}

TEST(RingLayoutTest, TraceRingFieldsAndRecordsSitAtFixedOffsets) {
  std::vector<uint8_t> region(64 + 4 * 32, 0xee);
  ASSERT_EQ(xtrace::TraceRingView::SlotsFor(region.size()), 4u);
  Result<xtrace::TraceRingView> view = xtrace::TraceRingView::Format(region, 4, 0xdeadbeef);
  ASSERT_TRUE(view.ok());
  view->set_head(0x31);
  view->set_tail(0x32);
  view->set_dropped(0x0102030405060708ull);
  xtrace::Record record;
  record.cycle = 0x1112131415161718ull;
  record.seq = 0x21;
  record.type = 0x22;
  record.env = 0x23;
  record.arg0 = 0x30;
  record.arg1 = 0x31;
  record.arg2 = 0x32;
  record.arg3 = 0x33;
  view->Write(0, record);
  record.seq = 0x25;
  view->Write(5, record);  // Free-running: index 5 is slot 1.

  // Header: magic, slots, head, tail, mask, pad, dropped u64, padding.
  EXPECT_EQ(U32At(region, 0), 0x78747247u);
  EXPECT_EQ(U32At(region, 4), 4u);
  EXPECT_EQ(U32At(region, 8), 0x31u);
  EXPECT_EQ(U32At(region, 12), 0x32u);
  EXPECT_EQ(U32At(region, 16), 0xdeadbeefu);
  EXPECT_EQ(U32At(region, 20), 0u);
  EXPECT_EQ(U64At(region, 24), 0x0102030405060708ull);
  for (size_t off = 32; off < 64; ++off) {
    EXPECT_EQ(region[off], 0) << "trace header padding at " << off;
  }
  // First record at 64: cycle, seq, type, env, arg0..arg3.
  EXPECT_EQ(U64At(region, 64), 0x1112131415161718ull);
  EXPECT_EQ(U32At(region, 72), 0x21u);
  EXPECT_EQ(U32At(region, 76), 0x00230022u);  // type u16, then env u16.
  EXPECT_EQ(U32At(region, 80), 0x30u);
  EXPECT_EQ(U32At(region, 84), 0x31u);
  EXPECT_EQ(U32At(region, 88), 0x32u);
  EXPECT_EQ(U32At(region, 92), 0x33u);
  EXPECT_EQ(U32At(region, 96 + 8), 0x25u);  // Slot 1's seq.

  // A reader attaching cold finds the same geometry in the header.
  Result<xtrace::TraceRingView> reader = xtrace::TraceRingView::AttachExisting(region);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->slots(), 4u);
  EXPECT_EQ(reader->mask(), 0xdeadbeefu);
  EXPECT_EQ(reader->dropped(), 0x0102030405060708ull);
}

}  // namespace
}  // namespace xok
