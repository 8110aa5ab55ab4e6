// Crash-safe wrapper around SteeringRecommender: write-ahead logging of
// every state-bearing event plus periodic atomic snapshots.
//
// Write path (all under one mutex, so WAL order == application order):
//   1. assign the event the next sequence number;
//   2. append it to the WAL (fsync per options);
//   3. apply it to the in-memory recommender;
//   4. every `snapshot_interval` events: serialize the recommender to
//      `snapshot.qrs` (WriteArtifact under kRecommenderStoreHeader: atomic
//      temp+fsync+rename write with a crc32 footer; the body ends with a
//      `# seq N` watermark), then reset the WAL.
//
// Recovery (Open): load the snapshot if present (ReadArtifact: header and
// checksum verified), then replay the WAL tail, *skipping* records with
// seq <= the snapshot's watermark — a crash between snapshot write and WAL
// reset must not apply events twice. Torn or corrupt WAL tails are detected
// by the per-record CRC and truncated; the store resumes from the last
// intact event.
//
// Because every journaled event is deterministic (LearnCandidate /
// ObserveValidation / ObserveOutcome / the cooldown tick of a Recommend on
// an open breaker), replaying the log reproduces the pre-crash store
// bit-for-bit — the property the chaos harness asserts.
#ifndef QSTEER_SERVICE_DURABLE_STORE_H_
#define QSTEER_SERVICE_DURABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/wal.h"
#include "core/recommender.h"

namespace qsteer {

struct DurableStoreOptions {
  /// Directory for `wal.log` + `snapshot.qrs`. Empty = ephemeral store (no
  /// files, no durability — the recommender alone). Must already exist.
  std::string dir;
  /// Journaled events between automatic snapshots; <= 0 disables automatic
  /// snapshots (the WAL then grows until Snapshot() is called explicitly).
  int snapshot_interval = 256;
  /// fsync the WAL on every append (and snapshots on write). Disabling
  /// keeps rename-atomicity but loses power-failure durability; crash
  /// consistency against process death is unaffected on a live kernel.
  bool sync = true;
  /// Testing hook (deterministic chaos): snapshots skip the WAL reset,
  /// simulating a crash in the window between the two — recovery must then
  /// skip the WAL's already-snapshotted prefix by sequence number.
  bool testing_skip_wal_reset_after_snapshot = false;
  /// Testing hook for the inverse window in InstallSnapshot (which resets
  /// the WAL *first*, then writes the installed snapshot — see the method
  /// comment): the install skips the snapshot write after the WAL reset,
  /// simulating a crash between the two. Recovery must come back to a
  /// consistent pre-install state, never a mix.
  bool testing_skip_snapshot_write_after_install_reset = false;
  RecommenderOptions recommender;
};

class DurableRecommenderStore {
 public:
  explicit DurableRecommenderStore(DurableStoreOptions options = {});
  ~DurableRecommenderStore();

  DurableRecommenderStore(const DurableRecommenderStore&) = delete;
  DurableRecommenderStore& operator=(const DurableRecommenderStore&) = delete;

  struct RecoveryInfo {
    bool loaded_snapshot = false;
    uint64_t snapshot_seq = 0;
    int64_t wal_records_replayed = 0;
    /// Records skipped because the snapshot already contained them (crash
    /// between snapshot write and WAL reset).
    int64_t wal_records_skipped = 0;
    int64_t wal_truncated_bytes = 0;
    /// The one rendering, shared by the service status and the CLI.
    std::string ToString() const;
  };

  /// Recovers state from disk (no-op for an ephemeral store) and opens the
  /// WAL for appending. Corrupt snapshots and unreplayable WAL records are
  /// hard errors — silent partial state is worse than unavailability.
  Status Open() EXCLUDES(mu_);
  /// Snapshot of the last Open()'s recovery outcome (by value: the stored
  /// struct is guarded by the store mutex).
  RecoveryInfo recovery() const EXCLUDES(mu_);

  // ---- Journaled operations (thread-safe) ----

  /// ExtractCandidate + journal + LearnCandidate.
  bool LearnFromAnalysis(const JobAnalysis& analysis) EXCLUDES(mu_);
  bool LearnCandidate(const SteeringRecommender::CandidateObservation& observation)
      EXCLUDES(mu_);
  void ObserveValidation(const RuleSignature& signature, double runtime_change_pct)
      EXCLUDES(mu_);
  void ObserveOutcome(const RuleSignature& signature, double runtime_change_pct)
      EXCLUDES(mu_);
  /// Journals the lookup only when it mutates breaker state (open-breaker
  /// cooldown tick); plain lookups are reads and cost no WAL record.
  SteeringRecommender::Recommendation Recommend(const RuleSignature& signature) EXCLUDES(mu_);

  /// Serving-path Recommend: consults a read-mostly snapshot of the
  /// recommendation table (an immutable view republished after every store
  /// mutation and swapped in through a SharedPtrSlot), so the
  /// overwhelmingly common pure lookups — unknown signatures and closed/
  /// half-open groups — never touch mu_. Lookups that must mutate (an open
  /// breaker's cooldown tick) fall through to the journaled Recommend().
  /// Returns exactly what Recommend(signature) would.
  SteeringRecommender::Recommendation RecommendFast(const RuleSignature& signature);

  /// How many RecommendFast calls were served from the snapshot view
  /// (without mu_) vs. routed to the locked, journaled path.
  int64_t fast_recommends() const { return fast_recommends_.load(std::memory_order_relaxed); }
  int64_t locked_recommends() const {
    return locked_recommends_.load(std::memory_order_relaxed);
  }

  // ---- Replication seam (leader/follower fleet, src/service/replication.h) ----

  /// Pure lookup off the published serving view: succeeds (and fills *out)
  /// for unknown signatures and non-mutating rows; returns false when the
  /// lookup would have to mutate the store (open-breaker cooldown tick) or
  /// the view is unpublished. Followers serve reads through this — a tick
  /// is a mutation and belongs on the leader, where it is journaled and
  /// replicated like any other event.
  bool TryRecommendPure(const RuleSignature& signature,
                        SteeringRecommender::Recommendation* out) const;

  /// Observer called (under the store mutex) with every journaled event,
  /// in exactly journal order — which is application order, because both
  /// happen under the same critical section. The replication layer buffers
  /// these as the WAL tail it ships to followers. Pass nullptr to detach.
  using MutationListener = std::function<void(uint64_t seq, const std::string& payload)>;
  void SetMutationListener(MutationListener listener) EXCLUDES(mu_);

  /// Follower apply path: journals `payload` into this store's own WAL at
  /// the leader's sequence number and applies it. Idempotent — seq <= the
  /// local watermark is skipped (OK) so overlapping tail segments are
  /// harmless; a gap (seq > watermark + 1) is a kFailedPrecondition, the
  /// signal to fall back to a snapshot install. The payload is parsed
  /// before it is journaled: one that does not parse is kInvalidArgument
  /// and changes nothing, so the WAL never holds a record Open() cannot
  /// replay.
  Status ApplyReplicated(uint64_t seq, const std::string& payload) EXCLUDES(mu_);

  /// The body of a disk snapshot (state + `# seq N` watermark line, no
  /// header or footer): what the leader ships for a snapshot install.
  std::string SerializeForReplication() const EXCLUDES(mu_);

  /// Replaces this store's entire state with a shipped snapshot (the
  /// payload of SerializeForReplication), adopting its watermark — which
  /// may *rewind* applied_seq: a rejoining ex-leader's unacknowledged
  /// suffix is deliberately discarded. Durability ordering is the inverse
  /// of the periodic snapshot: the WAL is reset FIRST, then the installed
  /// snapshot is written. The local WAL can hold entries the incoming
  /// snapshot does not subsume (the divergent suffix), so snapshot-first
  /// would let a crash in the window replay them on top of the installed
  /// state. Reset-first degrades a crash to "still on the old snapshot,
  /// catch up again" — behind, never wrong.
  Status InstallSnapshot(const std::string& content) EXCLUDES(mu_);

  /// Replicated-apply counters (fleet catch-up accounting).
  int64_t replicated_applied() const EXCLUDES(mu_);
  int64_t replicated_skipped() const EXCLUDES(mu_);
  int64_t snapshot_installs() const EXCLUDES(mu_);

  // ---- Reads (thread-safe snapshots) ----

  std::vector<SteeringRecommender::ValidationRequest> PendingValidations() const
      EXCLUDES(mu_);
  /// Canonical serialized state (the recommender's sorted v2 text): equal
  /// stores yield equal bytes.
  std::string SerializeState() const EXCLUDES(mu_);
  int num_groups() const;
  int num_serving() const;
  int num_pending_validation() const;
  int num_retired() const;
  int num_rollbacks() const;
  int num_open() const;

  /// Sequence number of the last applied event (0 = none yet).
  uint64_t applied_seq() const;
  /// Events journaled since the last snapshot (WAL replay debt on crash).
  int64_t wal_lag() const;
  int64_t snapshots_taken() const;
  bool durable() const { return !options_.dir.empty(); }

  /// Serializes the store to the snapshot file and resets the WAL. Called
  /// automatically every snapshot_interval events and on clean shutdown.
  Status Snapshot() EXCLUDES(mu_);

  std::string snapshot_path() const;
  std::string wal_path() const;

 private:
  /// Immutable serving view: every store group's current recommendation.
  /// Published through a SharedPtrSlot: readers copy the pointer out under
  /// the slot's short lock and pin the view with its refcount, so a lookup
  /// never waits on the store mutex or on a writer rebuilding the view.
  struct RecommendationView {
    std::unordered_map<RuleSignature, SteeringRecommender::SnapshotEntry, BitVector256Hasher>
        rows;
  };

  Status JournalAndMark(const std::string& payload) REQUIRES(mu_);  // assigns seq, appends
  Status SnapshotLocked() REQUIRES(mu_);
  Status MaybeSnapshotLocked() REQUIRES(mu_);  // interval-triggered, best-effort
  /// Rebuilds and publishes the serving view after any recommender mutation.
  void PublishViewLocked() REQUIRES(mu_);

  DurableStoreOptions options_;
  mutable Mutex mu_;
  SteeringRecommender recommender_ GUARDED_BY(mu_);
  /// Serving view. Published only under mu_ but read without it: the slot
  /// orders each publish before the reads that follow, and views are
  /// immutable.
  SharedPtrSlot<const RecommendationView> view_;
  mutable std::atomic<int64_t> fast_recommends_{0};
  mutable std::atomic<int64_t> locked_recommends_{0};
  /// Journal-then-apply: every append happens under the same critical
  /// section as the recommender mutation it logs, so WAL order is exactly
  /// application order.
  WriteAheadLog wal_ GUARDED_BY(mu_);
  RecoveryInfo recovery_ GUARDED_BY(mu_);
  MutationListener mutation_listener_ GUARDED_BY(mu_);
  uint64_t applied_seq_ GUARDED_BY(mu_) = 0;
  int64_t events_since_snapshot_ GUARDED_BY(mu_) = 0;
  int64_t snapshots_taken_ GUARDED_BY(mu_) = 0;
  int64_t replicated_applied_ GUARDED_BY(mu_) = 0;
  int64_t replicated_skipped_ GUARDED_BY(mu_) = 0;
  int64_t snapshot_installs_ GUARDED_BY(mu_) = 0;
  bool open_ GUARDED_BY(mu_) = false;
};

}  // namespace qsteer

#endif  // QSTEER_SERVICE_DURABLE_STORE_H_
