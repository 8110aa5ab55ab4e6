#include "common/transport.h"

#include <cstring>

#include "common/crc32.h"

namespace qsteer {

Status InProcessTransport::Register(uint32_t node_id, TransportEndpoint* endpoint) {
  if (endpoint == nullptr) return Status::InvalidArgument("null transport endpoint");
  MutexLock lock(mu_);
  Node& node = nodes_[node_id];
  node.endpoint = endpoint;
  node.up = true;
  node.corrupt_next = false;
  return Status::OK();
}

void InProcessTransport::SetLinkUp(uint32_t node_id, bool up) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node_id);
  if (it != nodes_.end()) it->second.up = up;
}

bool InProcessTransport::link_up(uint32_t node_id) const {
  MutexLock lock(mu_);
  auto it = nodes_.find(node_id);
  return it != nodes_.end() && it->second.up;
}

void InProcessTransport::CorruptNextDelivery(uint32_t node_id) {
  MutexLock lock(mu_);
  auto it = nodes_.find(node_id);
  if (it != nodes_.end()) it->second.corrupt_next = true;
}

Status InProcessTransport::Send(uint32_t node_id, std::string_view payload) {
  TransportEndpoint* endpoint = nullptr;
  bool corrupt = false;
  {
    MutexLock lock(mu_);
    auto it = nodes_.find(node_id);
    if (it == nodes_.end() || !it->second.up) {
      ++send_failures_;
      return Status::Unavailable("node " + std::to_string(node_id) +
                                 (it == nodes_.end() ? " not registered" : " link down"));
    }
    endpoint = it->second.endpoint;
    corrupt = it->second.corrupt_next;
    it->second.corrupt_next = false;
    ++frames_sent_;
    bytes_sent_ += static_cast<int64_t>(4 + payload.size());
  }

  // Frame: u32 crc32(payload) | payload. The copy is the "wire"; the
  // corruption hook flips a bit after the crc is computed, exactly like
  // damage in flight.
  std::string frame(4 + payload.size(), '\0');
  uint32_t crc = Crc32(payload);
  frame[0] = static_cast<char>(crc & 0xff);
  frame[1] = static_cast<char>((crc >> 8) & 0xff);
  frame[2] = static_cast<char>((crc >> 16) & 0xff);
  frame[3] = static_cast<char>((crc >> 24) & 0xff);
  std::memcpy(frame.data() + 4, payload.data(), payload.size());
  if (corrupt && !payload.empty()) {
    frame[4 + payload.size() / 2] = static_cast<char>(frame[4 + payload.size() / 2] ^ 0x01);
  }

  // Receiver side: verify before dispatch. Delivery happens outside mu_ so
  // a slow endpoint never blocks unrelated sends or link-state changes.
  uint32_t stored = static_cast<uint8_t>(frame[0]) |
                    (static_cast<uint32_t>(static_cast<uint8_t>(frame[1])) << 8) |
                    (static_cast<uint32_t>(static_cast<uint8_t>(frame[2])) << 16) |
                    (static_cast<uint32_t>(static_cast<uint8_t>(frame[3])) << 24);
  std::string_view received(frame.data() + 4, frame.size() - 4);
  if (Crc32(received) != stored) {
    MutexLock lock(mu_);
    ++checksum_failures_;
    return Status::InvalidArgument("frame checksum mismatch delivering to node " +
                                   std::to_string(node_id));
  }
  return endpoint->Deliver(received);
}

int64_t InProcessTransport::frames_sent() const {
  MutexLock lock(mu_);
  return frames_sent_;
}

int64_t InProcessTransport::bytes_sent() const {
  MutexLock lock(mu_);
  return bytes_sent_;
}

int64_t InProcessTransport::send_failures() const {
  MutexLock lock(mu_);
  return send_failures_;
}

int64_t InProcessTransport::checksum_failures() const {
  MutexLock lock(mu_);
  return checksum_failures_;
}

}  // namespace qsteer
