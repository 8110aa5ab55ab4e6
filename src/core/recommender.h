// The deployable steering service (paper §3.3 "ease of deployment as plan
// hint" + §6.4 extrapolation), hardened with the guardrails that made
// steering shippable in production (the follow-up deployment paper,
// arXiv:2210.13625): validation runs, a per-group circuit breaker, and
// automatic rollback to the default configuration.
//
// Offline, the recommender ingests pipeline analyses and remembers, per
// rule-signature job group, the configuration that improved the group's
// base jobs. A remembered configuration is only a *candidate* until it
// survives N validation re-runs (driven by RunValidationGate in
// src/service/steering_service.h under the cluster's fault profile).
// Online, an incoming job is compiled under the default configuration, its
// signature looked up, and the stored configuration recommended while the
// group's circuit breaker allows it:
//
//   closed ──(consecutive regressions)──▶ open        [automatic rollback]
//   open   ──(cooldown of default-served lookups)──▶ half-open
//   half-open ──(probe successes)──▶ closed
//   half-open ──(probe regression)──▶ open            [another rollback]
//
// While a breaker is open every lookup falls back to the default plan; a
// group whose breaker trips repeatedly is retired permanently.
#ifndef QSTEER_CORE_RECOMMENDER_H_
#define QSTEER_CORE_RECOMMENDER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

#include "core/pipeline.h"

namespace qsteer {

struct RecommenderOptions {
  /// Minimum improvement (negative percentage) a base-job analysis must show
  /// before its configuration becomes a candidate for the group.
  double min_improvement_pct = -10.0;
  /// Regression threshold when observing outcomes (percent runtime change;
  /// observations above it count as failures).
  double regression_threshold_pct = 5.0;
  /// Successful validation re-runs required before a candidate is adopted
  /// (0 adopts immediately — the pre-guardrail behavior).
  int validation_runs = 2;
  /// Consecutive online regressions that trip a closed breaker open.
  int breaker_open_after = 2;
  /// Default-served lookups to wait while open before probing (half-open).
  int breaker_cooldown = 8;
  /// Probe successes required to close a half-open breaker.
  int breaker_probe_successes = 2;
  /// A recommendation retires permanently after this many breaker trips
  /// (automatic rollbacks).
  int max_rollbacks = 2;
};

/// Header line of every file whose body is a SteeringRecommender::Serialize
/// blob: the service snapshot and the merged discovery store.
inline constexpr char kRecommenderStoreHeader[] = "# qsteer-recommender-store v2";

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class SteeringRecommender {
 public:
  explicit SteeringRecommender(RecommenderOptions options = {});

  /// The journal-able essence of one learn event: everything
  /// LearnFromAnalysis needs from a JobAnalysis, in a form the steering
  /// service's write-ahead log can serialize and replay (signature hex +
  /// hint string + improvement). Extracted *before* the store mutation so
  /// the WAL can record the event ahead of applying it.
  struct CandidateObservation {
    RuleSignature signature;
    RuleConfig config;
    double improvement_pct = 0.0;
  };

  /// Analysis-side half of LearnFromAnalysis: returns the observation a
  /// trustworthy, sufficiently-improving analysis yields, or nullopt when
  /// the analysis teaches nothing (failed baseline, no executed
  /// alternative, improvement above the bar). Pure: no store access.
  static std::optional<CandidateObservation> ExtractCandidate(
      const JobAnalysis& analysis, const RecommenderOptions& options);

  /// Store-side half: applies one (possibly replayed) observation.
  /// Remembers the best configuration for the signature group as a
  /// validation candidate; keeps the better of two candidates when the
  /// group already has one. Returns true when the store changed.
  bool LearnCandidate(const CandidateObservation& observation);

  /// Offline: learn from one analyzed job. Remembers the best configuration
  /// for the job's signature group as a validation candidate when it clears
  /// the improvement bar; keeps the better of two candidates when the group
  /// already has one. Analyses whose default run failed are ignored (their
  /// baseline is not trustworthy). Returns true when the store changed.
  /// Equivalent to ExtractCandidate + LearnCandidate.
  bool LearnFromAnalysis(const JobAnalysis& analysis);

  /// Candidates awaiting validation, in deterministic (signature) order.
  struct ValidationRequest {
    RuleSignature signature;
    RuleConfig config;
    /// Validation successes so far / required.
    int successes = 0;
    int required = 0;
  };
  std::vector<ValidationRequest> PendingValidations() const;

  /// Reports one validation re-run of a candidate (positive change =
  /// regression). A clean run counts toward adoption; a regressing run
  /// rejects the candidate outright (it never reaches production).
  void ObserveValidation(const RuleSignature& signature, double runtime_change_pct);

  struct Recommendation {
    bool is_default = true;
    RuleConfig config;
    /// Improvement the configuration showed on its base job(s).
    double expected_improvement_pct = 0.0;
    /// Number of base jobs backing the recommendation.
    int support = 0;
    /// True when the recommendation is a half-open probe (the caller should
    /// still report the outcome; a regression re-opens the breaker).
    bool probing = false;
  };

  /// Online: recommendation for a job whose default compilation produced
  /// `default_signature`. Non-const: while a group's breaker is open, each
  /// lookup serves the default and advances the cooldown clock toward
  /// half-open probing.
  Recommendation Recommend(const RuleSignature& default_signature);

  /// True when a Recommend(default_signature) call would mutate the store
  /// (the group's breaker is open, so the lookup advances the cooldown
  /// clock). Journal hook: a durable wrapper must log exactly the lookups
  /// that change state to replay to an identical store after a crash.
  bool WouldMutateOnRecommend(const RuleSignature& default_signature) const;

  /// One row of a read-only serving snapshot: the recommendation Recommend
  /// would return for `signature` right now, plus whether that call would
  /// mutate the store (open-breaker cooldown tick). Rows with
  /// mutates_on_recommend set cannot be served from a snapshot — the tick
  /// must reach the real store.
  struct SnapshotEntry {
    RuleSignature signature;
    Recommendation recommendation;
    bool mutates_on_recommend = false;
  };

  /// Pure snapshot of every group's current serving decision (signatures
  /// absent from the store are implicitly "serve the default" and need no
  /// row). The durable store publishes these as an immutable view so
  /// serving-path lookups bypass its mutex.
  std::vector<SnapshotEntry> SnapshotRecommendations() const;

  /// Guardrail: report the observed runtime change of a recommended run
  /// (positive = regression). Drives the circuit breaker; tripping it rolls
  /// the group back to the default configuration automatically.
  void ObserveOutcome(const RuleSignature& default_signature, double runtime_change_pct);

  int num_groups() const { return static_cast<int>(store_.size()); }
  /// Groups adopted and currently serving (breaker not open, not retired).
  int num_serving() const;
  int num_pending_validation() const;
  int num_retired() const { return retired_; }
  /// Automatic rollbacks (breaker trips) across all groups, ever.
  int num_rollbacks() const { return rollbacks_; }
  /// Groups currently rolled back (breaker open).
  int num_open() const;

  /// The store as a line-oriented text blob, one line per entry:
  ///   <signature-hex> <improvement%> <support> <regressions> <retired>
  ///     <adopted> <validation-successes> <breaker-state> <consecutive-
  ///     failures> <cooldown> <probe-successes> <rollbacks> <hints>
  /// Entries are emitted in signature order, so two stores with identical
  /// state serialize to identical bytes (the chaos harness's bit-identity
  /// checks and the service snapshots rely on this). The hint column uses
  /// the §3.2 flag syntax, so a stored recommendation is directly usable as
  /// a customer plan hint. On disk the blob is the body of an artifact
  /// headed kRecommenderStoreHeader (WriteArtifact / ReadArtifact).
  std::string Serialize() const;
  /// Replaces the store with the blob's contents; any malformed entry line
  /// rejects the whole blob and leaves the store as it was. Comment lines
  /// (leading '#', e.g. a snapshot's `# seq N` watermark) are skipped.
  Status Deserialize(const std::string& content);

 private:
  struct Entry {
    RuleConfig config;
    double improvement_pct = 0.0;
    int support = 0;
    /// Lifetime regressions observed online (validation + serving).
    int regressions = 0;
    bool retired = false;
    /// Validation gate.
    bool adopted = false;
    int validation_successes = 0;
    /// Circuit breaker.
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    int cooldown_remaining = 0;
    int probe_successes = 0;
    int rollbacks = 0;
  };

  /// The one decision behind Recommend, SnapshotRecommendations and
  /// WouldMutateOnRecommend: what a lookup of `entry` (nullptr = unknown
  /// group) serves, and whether it ticks an open breaker's cooldown clock.
  /// Pure; only Recommend applies the tick.
  static SnapshotEntry Decide(const RuleSignature& signature, const Entry* entry);
  /// Trips the breaker open (one automatic rollback); retires the entry
  /// when it has rolled back too often.
  void TripBreaker(Entry* entry);
  void Retire(Entry* entry);

  RecommenderOptions options_;
  std::unordered_map<RuleSignature, Entry, BitVector256Hasher> store_;
  int retired_ = 0;
  int rollbacks_ = 0;
};

}  // namespace qsteer

#endif  // QSTEER_CORE_RECOMMENDER_H_
