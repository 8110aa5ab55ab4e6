// Replicated serving tier: a leader DurableRecommenderStore journals
// mutations exactly as in single-node operation, and a ReplicationFleet
// ships them to N follower stores over an in-process deterministic
// transport (common/transport.h) so recommendation serving survives the
// loss of any replica.
//
// Protocol (all frames crc32-checksummed by the transport):
//   * TAIL  <epoch> <count>\n<seq> <payload>\n...   — a WAL tail segment.
//     Followers apply entries through ApplyReplicated, which skips
//     seq <= the local `# seq N` watermark (idempotent against
//     overlapping segments) and rejects gaps with kFailedPrecondition —
//     the leader's cue to fall back to a snapshot install.
//   * SNAP  <epoch>\n<serialized store + watermark line>              —
//     a full-state install (InstallSnapshot), used when a follower is too
//     far behind the leader's in-memory ReplicationLog or might hold a
//     divergent suffix (a rejoining ex-leader).
//
// Acknowledgement = the leader applied the mutation AND shipped it to
// every reachable live follower before returning. A partitioned or dead
// follower is skipped (it catches up on heal), and — the other half of
// the bargain — elections only consider live, reachable replicas. So an
// acknowledged mutation is always present on every replica that could
// win the next election, which is how "zero lost acknowledged mutations"
// holds.
//
// Failover: when the leader dies, ElectLocked() deterministically picks
// the live replica with the highest watermark (ties broken by lowest id)
// and bumps the fleet epoch. The dead ex-leader is marked tainted: it may
// hold a locally-journaled suffix nobody acknowledged, so on rejoin it
// always receives a snapshot install (discarding that suffix) rather
// than a tail. A killed-and-restarted *follower* is never tainted and
// tail-catches-up from its disk-recovered watermark — the `# seq N`
// cursor doing double duty as the replication cursor.
//
// Routing: serving requests consistent-hash their job's rule-signature
// bits onto the replica ring (common/hash_ring.h). Ring membership is
// the configured fleet — churn never reshuffles placement; liveness is
// handled by walking the preference list. Each replica has an admission
// budget (max in-flight serves); a full or dead replica re-routes down
// the preference list (ownership snaps back the moment the replica
// returns), and a follower that has fallen
// more than `staleness_bound` events behind the leader sheds the request
// to the leader. Followers serve only pure reads (TryRecommendPure);
// open-breaker cooldown ticks are mutations and always run on the
// leader, journaled and replicated like any other event.
#ifndef QSTEER_SERVICE_REPLICATION_H_
#define QSTEER_SERVICE_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash_ring.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/transport.h"
#include "service/durable_store.h"

namespace qsteer {

/// In-memory buffer of recent journaled events, one per replica: the WAL
/// tail the leader can ship without touching disk. Capped — a follower
/// whose watermark predates the buffer gets a snapshot install instead.
/// Thread-safe (fed by the store's mutation listener under the store
/// mutex, drained by the fleet under its own).
class ReplicationLog {
 public:
  explicit ReplicationLog(size_t cap = 4096) : cap_(cap) {}

  void Append(uint64_t seq, std::string payload) EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);
  /// True when the log holds every entry with seq > from_seq (i.e. a tail
  /// shipped from from_seq would be gap-free). An empty log covers nothing.
  bool Covers(uint64_t from_seq) const EXCLUDES(mu_);
  /// All buffered entries with seq > from_seq, ascending.
  std::vector<std::pair<uint64_t, std::string>> TailFrom(uint64_t from_seq) const
      EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  size_t cap_;
  std::deque<std::pair<uint64_t, std::string>> entries_ GUARDED_BY(mu_);
};

/// One member of the fleet: a durable store plus the replication plumbing
/// around it (tail buffer, epoch tracking, admission counter). Implements
/// the transport endpoint that decodes TAIL/SNAP frames.
///
/// Kill/restart semantics: Kill only marks the node dead — the store
/// object survives so in-flight readers stay safe (they hold a
/// shared_ptr to it). Restart swaps in a fresh store recovered from the
/// same directory, which is exactly a process crash + reopen.
class ReplicaNode : public TransportEndpoint {
 public:
  ReplicaNode(uint32_t id, DurableStoreOptions store_options, size_t log_cap = 4096)
      : id_(id), store_options_(std::move(store_options)), log_(log_cap) {}

  /// Builds and opens the store (recovering from disk if durable) and
  /// attaches the mutation listener that feeds the replication log.
  Status Open();
  /// Crash-restart: discards the old store object and in-memory tail
  /// buffer, then recovers from disk like a fresh process.
  Status Reopen();

  Status Deliver(std::string_view payload) override;

  uint32_t id() const { return id_; }
  /// Never null after a successful Open(). Copied out under the slot's
  /// short lock, so serving threads can read through it during churn.
  std::shared_ptr<DurableRecommenderStore> store() const { return store_.Load(); }
  uint64_t watermark() const;

  uint64_t epoch_synced() const { return epoch_synced_.load(std::memory_order_acquire); }
  void set_epoch_synced(uint64_t epoch) {
    epoch_synced_.store(epoch, std::memory_order_release);
  }

  bool alive() const { return alive_.load(std::memory_order_acquire); }
  void set_alive(bool alive) { alive_.store(alive, std::memory_order_release); }

  /// A tainted replica (an ex-leader that died un-elected) may hold a
  /// divergent unacknowledged suffix; it must snapshot-install on rejoin.
  bool tainted() const { return tainted_.load(std::memory_order_acquire); }
  void set_tainted(bool tainted) { tainted_.store(tainted, std::memory_order_release); }

  /// Admission control: TryAdmit claims an in-flight slot (false = over
  /// budget, caller re-routes); Release returns it.
  bool TryAdmit(int max_inflight);
  void Release() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

  ReplicationLog& log() { return log_; }
  int64_t serves() const { return serves_.load(std::memory_order_relaxed); }
  void count_serve() { serves_.fetch_add(1, std::memory_order_relaxed); }

 private:
  const uint32_t id_;
  DurableStoreOptions store_options_;
  SharedPtrSlot<DurableRecommenderStore> store_;
  ReplicationLog log_;
  std::atomic<uint64_t> epoch_synced_{0};
  std::atomic<bool> alive_{false};
  std::atomic<bool> tainted_{false};
  std::atomic<int> inflight_{0};
  std::atomic<int64_t> serves_{0};
};

struct FleetOptions {
  /// Root directory; replica i persists under `<dir>/replica_<i>`
  /// (created on Start). Empty = ephemeral replicas (no durability —
  /// restart loses state and forces a snapshot install).
  std::string dir;
  int num_replicas = 3;
  /// Per-replica store snapshot interval (see DurableStoreOptions).
  int snapshot_interval = 64;
  bool sync = false;
  /// A follower more than this many events behind the leader sheds
  /// serving requests to the leader until it catches up.
  uint64_t staleness_bound = 128;
  /// Entries buffered in each replica's in-memory ReplicationLog.
  size_t replication_log_cap = 4096;
  int ring_vnodes = 64;
  /// Transient serve failures (kUnavailable: no live replica mid-failover)
  /// retry with simulated backoff under this policy before surfacing to the
  /// caller — an election in flight usually completes within one backoff.
  RetryPolicy serve_retry;
};

struct FleetStatus {
  struct Replica {
    uint32_t id = 0;
    bool alive = false;
    bool leader = false;
    bool tainted = false;
    uint64_t watermark = 0;
    uint64_t epoch_synced = 0;
    int64_t replicated_applied = 0;
    int64_t replicated_skipped = 0;
    int64_t snapshot_installs = 0;
    int64_t serves = 0;
  };
  uint64_t epoch = 0;
  uint32_t leader_id = 0;
  std::vector<Replica> replicas;
  int64_t serves = 0;
  int64_t rerouted = 0;
  int64_t sheds = 0;
  int64_t failovers = 0;
  int64_t tail_ships = 0;
  int64_t snapshot_ships = 0;
  int64_t transport_frames = 0;
  int64_t transport_send_failures = 0;
  int64_t transport_checksum_failures = 0;
  /// Serve() retries after a transient (kUnavailable) failure, and the
  /// simulated backoff those retries accumulated.
  int64_t unavailable_retries = 0;
  double retry_backoff_s = 0.0;
  std::string ToString() const;
};

class ReplicationFleet {
 public:
  explicit ReplicationFleet(FleetOptions options);
  ReplicationFleet(const ReplicationFleet&) = delete;
  ReplicationFleet& operator=(const ReplicationFleet&) = delete;

  /// Creates replica directories, opens every store (recovering from any
  /// prior run), elects the initial leader (highest recovered watermark,
  /// lowest id on ties) and brings followers up to it.
  Status Start() EXCLUDES(mu_);

  struct ServeResult {
    SteeringRecommender::Recommendation recommendation;
    /// Replica that answered.
    uint32_t replica = 0;
    /// The lookup journaled an open-breaker cooldown tick (leader path;
    /// replicated like any other mutation).
    bool ticked = false;
    /// The ring-preferred replica was dead or over budget.
    bool rerouted = false;
    /// A follower over the staleness bound shed this request to the leader.
    bool shed_stale = false;
  };
  /// Routes by consistent hash of the rule-signature bits. Transient
  /// failures (kUnavailable: every replica dead, typically mid-failover)
  /// retry under FleetOptions::serve_retry with simulated backoff;
  /// kUnavailable surfaces only after the policy is exhausted.
  Status Serve(const RuleSignature& signature, ServeResult* out) EXCLUDES(mu_);

  // Mutations: applied on the leader, synchronously shipped to every
  // reachable live follower before returning. OK = acknowledged.
  Status LearnFromAnalysis(const JobAnalysis& analysis, bool* learned = nullptr)
      EXCLUDES(mu_);
  Status LearnCandidate(const SteeringRecommender::CandidateObservation& observation,
                        bool* learned = nullptr) EXCLUDES(mu_);
  Status ObserveValidation(const RuleSignature& signature, double runtime_change_pct)
      EXCLUDES(mu_);
  Status ObserveOutcome(const RuleSignature& signature, double runtime_change_pct)
      EXCLUDES(mu_);

  // ---- Chaos / lifecycle ----

  /// Crash: the replica stops serving (requests re-route down its keys'
  /// preference lists); its disk state survives. Killing the leader
  /// triggers a deterministic election.
  Status Kill(uint32_t id) EXCLUDES(mu_);
  /// Recover from disk, reconnect transport, catch up (tail or snapshot
  /// install as the protocol dictates). Ring ownership snaps back.
  Status Restart(uint32_t id) EXCLUDES(mu_);
  /// Partition: the leader cannot ship to `id` but the replica keeps
  /// serving reads — the staleness bound is what protects clients.
  void SetPartitioned(uint32_t id, bool partitioned) EXCLUDES(mu_);
  /// Brings every live follower up to the leader's watermark (barrier
  /// helper for convergence checks).
  Status CatchUpAll() EXCLUDES(mu_);
  /// Compares SerializeState() across all live replicas; kInternal with a
  /// diff summary on divergence. Call after CatchUpAll() / quiesce.
  Status CheckConvergence(std::string* detail = nullptr) const EXCLUDES(mu_);

  uint32_t leader_id() const EXCLUDES(mu_);
  uint64_t epoch() const EXCLUDES(mu_);
  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  FleetStatus status() const EXCLUDES(mu_);
  /// Exposed for fault injection (CorruptNextDelivery) and wire counters.
  InProcessTransport& transport() { return transport_; }
  /// Direct store access for tests/benches (e.g. golden-state compare).
  std::shared_ptr<DurableRecommenderStore> replica_store(uint32_t id) const;

  /// Process-stable routing key for a signature (hash of the bits only —
  /// no pointers, no per-run salt; see QL004).
  static uint64_t RouteKey(const RuleSignature& signature);

 private:
  /// One routing attempt (the pre-retry Serve body).
  Status ServeOnce(const RuleSignature& signature, ServeResult* out) EXCLUDES(mu_);
  Status MutateOnLeader(const std::function<Status(DurableRecommenderStore&)>& fn)
      EXCLUDES(mu_);
  Status EnsureLeaderLocked() REQUIRES(mu_);
  Status ElectLocked() REQUIRES(mu_);
  Status ShipTailLocked(uint64_t from_seq) REQUIRES(mu_);
  Status CatchUpLocked(uint32_t id) REQUIRES(mu_);
  Status ShipSnapshotLocked(uint32_t id) REQUIRES(mu_);

  FleetOptions options_;
  InProcessTransport transport_;
  /// Stable after Start(): serving threads index it without the mutex
  /// (per-node state is atomic); topology (ring, leader, epoch) is not.
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  mutable Mutex mu_;
  ConsistentHashRing ring_ GUARDED_BY(mu_);
  uint32_t leader_id_ GUARDED_BY(mu_) = 0;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  int64_t failovers_ GUARDED_BY(mu_) = 0;
  int64_t tail_ships_ GUARDED_BY(mu_) = 0;
  int64_t snapshot_ships_ GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> serves_{0};
  std::atomic<int64_t> rerouted_{0};
  std::atomic<int64_t> sheds_{0};
  std::atomic<int64_t> unavailable_retries_{0};
  /// Milliseconds: atomic<double>::fetch_add is not portable.
  std::atomic<int64_t> retry_backoff_ms_{0};
};

}  // namespace qsteer

#endif  // QSTEER_SERVICE_REPLICATION_H_
