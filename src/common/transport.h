// In-process deterministic transport for the replicated serving tier.
//
// Endpoints register under integer node ids; Send() frames the payload
// with a crc32 header, checks link state, and delivers synchronously to
// the receiver, which verifies the checksum before dispatching. There is
// no queueing, no timers, and no background thread — delivery order is
// exactly call order, which keeps replication chaos tests bit-reproducible
// (the fleet serializes shipments under its own mutex).
//
// Chaos hooks:
//   * SetLinkUp(node, false)  — sends to `node` fail with kUnavailable
//     (a partition: the node itself keeps running and serving reads);
//   * CorruptNextDelivery(node) — flips a payload bit in the next frame
//     delivered to `node`, exercising the receiver-side checksum path.
//
// Wire format per frame (little-endian):
//   u32 crc32(payload) | payload bytes
//
// The crc may look redundant for an in-process hop, but it is the same
// seam a real network transport needs, and the corruption hook proves
// followers actually verify it instead of trusting the sender.
#ifndef QSTEER_COMMON_TRANSPORT_H_
#define QSTEER_COMMON_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace qsteer {

/// A message sink: the receiving side of one replica's replication channel.
/// Deliver() returns the application's verdict (e.g. a follower rejecting a
/// stale-epoch tail); transport-level failures never reach it.
class TransportEndpoint {
 public:
  virtual ~TransportEndpoint() = default;
  virtual Status Deliver(std::string_view payload) = 0;
};

class InProcessTransport {
 public:
  InProcessTransport() = default;
  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  /// Registers `endpoint` under `node_id` (link starts up). The endpoint
  /// must outlive the transport.
  Status Register(uint32_t node_id, TransportEndpoint* endpoint) EXCLUDES(mu_);

  /// Partition control: a downed link fails Send() with kUnavailable
  /// without consuming the payload. Unknown nodes are ignored.
  void SetLinkUp(uint32_t node_id, bool up) EXCLUDES(mu_);
  bool link_up(uint32_t node_id) const EXCLUDES(mu_);

  /// Fault injection: corrupt one bit of the next frame delivered to
  /// `node_id` (after the crc is computed), so the receiver must reject it.
  void CorruptNextDelivery(uint32_t node_id) EXCLUDES(mu_);

  /// Frames `payload` with its crc32 and delivers it synchronously.
  /// Returns kUnavailable for unknown/downed nodes, kInvalidArgument when
  /// the receiver-side checksum rejects the frame, or the endpoint's own
  /// status.
  Status Send(uint32_t node_id, std::string_view payload) EXCLUDES(mu_);

  int64_t frames_sent() const EXCLUDES(mu_);
  int64_t bytes_sent() const EXCLUDES(mu_);
  int64_t send_failures() const EXCLUDES(mu_);
  int64_t checksum_failures() const EXCLUDES(mu_);

 private:
  struct Node {
    TransportEndpoint* endpoint = nullptr;
    bool up = true;
    bool corrupt_next = false;
  };

  mutable Mutex mu_;
  std::map<uint32_t, Node> nodes_ GUARDED_BY(mu_);
  int64_t frames_sent_ GUARDED_BY(mu_) = 0;
  int64_t bytes_sent_ GUARDED_BY(mu_) = 0;
  int64_t send_failures_ GUARDED_BY(mu_) = 0;
  int64_t checksum_failures_ GUARDED_BY(mu_) = 0;
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_TRANSPORT_H_
