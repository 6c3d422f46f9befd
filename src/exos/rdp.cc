#include "src/exos/rdp.h"

#include <algorithm>
#include <deque>

namespace xok::exos {

using hw::Instr;

uint16_t RdpEndpoint::Checksum(uint8_t type, uint8_t seq, std::span<const uint8_t> payload) {
  // 16-bit ones'-complement sum (Internet checksum family) over the
  // protocol-relevant bytes; the header checksum field itself is excluded.
  uint32_t sum = static_cast<uint32_t>(type) | (static_cast<uint32_t>(seq) << 8);
  for (size_t i = 0; i < payload.size(); ++i) {
    sum += static_cast<uint32_t>(payload[i]) << (8 * (i & 1));
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

bool RdpEndpoint::FrameValid(const Datagram& dgram) {
  if (dgram.payload.size() < kHeaderBytes) {
    ++checksum_drops_;
    return false;
  }
  proc_.machine().Charge(Instr(4) + (dgram.payload.size() / 4) * Instr(1));
  const std::span<const uint8_t> body(dgram.payload.data() + kHeaderBytes,
                                      dgram.payload.size() - kHeaderBytes);
  const uint16_t expect = Checksum(dgram.payload[0], dgram.payload[1], body);
  const uint16_t got = static_cast<uint16_t>(dgram.payload[2]) |
                       (static_cast<uint16_t>(dgram.payload[3]) << 8);
  if (expect != got) {
    ++checksum_drops_;  // Bit-flipped in transit: drop, ARQ recovers.
    return false;
  }
  return true;
}

Status RdpEndpoint::Send(std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame(kHeaderBytes + payload.size());
  frame[0] = kTypeData;
  frame[1] = send_seq_;
  const uint16_t ck = Checksum(kTypeData, send_seq_, payload);
  frame[2] = static_cast<uint8_t>(ck & 0xff);
  frame[3] = static_cast<uint8_t>(ck >> 8);
  std::copy(payload.begin(), payload.end(), frame.begin() + kHeaderBytes);

  uint64_t rto = config_.retransmit_cycles;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    proc_.machine().Charge(Instr(20));  // Protocol bookkeeping.
    const Status sent = socket_.SendTo(config_.peer_ip, config_.peer_port, frame);
    if (sent != Status::kOk) {
      return sent;
    }
    if (attempt > 0) {
      // Timed out: retransmit with the RTO doubled (capped). Backoff is
      // pure library policy — a latency-sensitive application could pick a
      // fixed beat instead; nothing in the kernel knows about timers here.
      ++retransmissions_;
      ++backoffs_;
      retransmit_log_.push_back(proc_.machine().clock().now());
      rto = std::min(rto * 2, std::max<uint64_t>(config_.retransmit_cap_cycles, 1));
    }
    // Await the ACK until the retransmit deadline: the socket's doorbell
    // wakes us for every frame, the alarm for the timeout.
    const uint64_t retransmit_at = proc_.machine().clock().now() + JitteredWait(rto);
    for (;;) {
      if (have_peer_ack_ && pending_ack_ == send_seq_) {
        have_peer_ack_ = false;
        send_seq_ ^= 1;
        return Status::kOk;
      }
      Result<Datagram> dgram = socket_.Recv(/*blocking=*/false);
      if (!dgram.ok()) {
        if (!socket_.WaitOrSleep(retransmit_at)) {
          break;
        }
        continue;
      }
      if (!FrameValid(*dgram)) {
        continue;
      }
      if (dgram->payload[0] == kTypeAck) {
        if (dgram->payload[1] == send_seq_) {
          send_seq_ ^= 1;
          return Status::kOk;
        }
        continue;  // Stale ACK for the previous message.
      }
      // DATA arrived while we were sending (full duplex): the peer may be
      // retransmitting because our earlier ACK was lost. Re-ACK
      // duplicates; stash fresh data for Recv().
      if (dgram->payload[1] != recv_seq_) {
        ++duplicates_dropped_;
        SendAck(dgram->payload[1]);
      } else {
        stashed_.push_back(std::move(*dgram));
      }
    }
  }
  return Status::kErrTimedOut;
}

Result<std::vector<uint8_t>> RdpEndpoint::Recv() { return Recv(0); }

Result<std::vector<uint8_t>> RdpEndpoint::Recv(uint64_t timeout_cycles) {
  const uint64_t give_up_at = timeout_cycles == 0
                                  ? UdpSocket::kNoDeadline
                                  : proc_.machine().clock().now() + timeout_cycles;
  for (;;) {
    Datagram dgram;
    if (!stashed_.empty()) {
      dgram = std::move(stashed_.front());
      stashed_.pop_front();
    } else if (timeout_cycles == 0) {
      Result<Datagram> received = socket_.Recv(/*blocking=*/true);
      if (!received.ok()) {
        return received.status();
      }
      dgram = std::move(*received);
    } else {
      // Bounded wait, so a powered-off peer costs `timeout_cycles`, not
      // forever.
      Result<Datagram> received = socket_.Recv(/*blocking=*/false);
      if (!received.ok()) {
        if (!socket_.WaitOrSleep(give_up_at)) {
          return Status::kErrTimedOut;
        }
        continue;
      }
      dgram = std::move(*received);
    }
    proc_.machine().Charge(Instr(15));
    if (!FrameValid(dgram)) {
      continue;
    }
    if (dgram.payload[0] == kTypeAck) {
      have_peer_ack_ = true;  // Surfaced to a concurrent Send.
      pending_ack_ = dgram.payload[1];
      continue;
    }
    const uint8_t seq = dgram.payload[1];
    SendAck(seq);
    if (seq != recv_seq_) {
      ++duplicates_dropped_;  // Retransmission of already-delivered data.
      continue;
    }
    recv_seq_ ^= 1;
    return std::vector<uint8_t>(dgram.payload.begin() + kHeaderBytes, dgram.payload.end());
  }
}

void RdpEndpoint::PumpAcks() {
  // On a ring socket the ACKs are staged in the TX ring and drained with a
  // single doorbell at the end — a burst of retransmissions costs one
  // kernel crossing to answer instead of one per ACK.
  const bool batch = socket_.ring_bound();
  uint32_t staged = 0;
  for (;;) {
    Result<Datagram> dgram = socket_.Recv(/*blocking=*/false);
    if (!dgram.ok()) {
      break;
    }
    if (!FrameValid(*dgram) || dgram->payload[0] != kTypeData) {
      continue;
    }
    ++duplicates_dropped_;
    SendAck(dgram->payload[1], /*queue_only=*/batch);
    staged += batch ? 1 : 0;
  }
  if (staged > 0) {
    (void)socket_.FlushTx();
  }
}

uint64_t RdpEndpoint::JitteredWait(uint64_t rto) {
  if (config_.jitter_seed == 0 || rto < 2) {
    return rto;  // Disarmed: the exact deterministic schedule.
  }
  // SplitMix64 draw; "equal jitter" keeps at least half the backoff so the
  // ARQ still converges, while the top half decorrelates the fleet.
  uint64_t z = (jitter_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const uint64_t half = rto / 2;
  return half + z % (rto - half + 1);
}

void RdpEndpoint::SendAck(uint8_t seq, bool queue_only) {
  proc_.machine().Charge(Instr(10));
  const uint16_t ck = Checksum(kTypeAck, seq, {});
  std::vector<uint8_t> ack = {kTypeAck, seq, static_cast<uint8_t>(ck & 0xff),
                              static_cast<uint8_t>(ck >> 8)};
  if (queue_only) {
    (void)socket_.QueueTo(config_.peer_ip, config_.peer_port, ack);
  } else {
    (void)socket_.SendTo(config_.peer_ip, config_.peer_port, ack);
  }
}

}  // namespace xok::exos
