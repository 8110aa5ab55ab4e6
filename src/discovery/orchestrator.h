// Crash-resumable sharded discovery orchestrator.
//
// The paper's offline discovery loop is a nightly batch over thousands of
// jobs; at production scale it runs sharded across worker executions, any
// of which (including the orchestrator itself) can die mid-run. This
// module makes the whole pass restartable without losing completed work
// and without ever merging damaged partial output:
//
//  * Partition: the day's jobs are grouped by their default-plan rule
//    signature and each *group* is placed on a shard via a consistent-hash
//    ring over shard ids (common/hash_ring.h) — placement is a pure
//    function of (signature, shard count), so re-running the orchestrator
//    reproduces the identical partition, and changing the shard count
//    moves only ~1/N of the groups. Group atomicity is what makes the
//    final merge order-free: SteeringRecommender::LearnCandidate touches
//    only its signature's group, so per-group learn order (preserved
//    within a shard as day order) fully determines the merged store.
//
//  * Leases: shards are dispatched to simulated worker executions under
//    deadline leases in deterministic logical ticks. A shard that exceeds
//    its lease (straggler) is speculatively re-dispatched; the copy that
//    finishes first wins. The schedule only orders commits and feeds the
//    lease/straggler counters — shard *content* is computed bit-identically
//    regardless of scheduling.
//
//  * Durability: each completed shard commits an artifact + manifest pair
//    (see discovery/manifest.h) via atomic rename, manifest strictly last,
//    with the manifest fingerprinting (byte count + crc32) the artifact.
//    Resume trusts exactly the shards whose pair verifies; torn or corrupt
//    files are quarantined (*.quarantined) and the shard recomputed.
//
//  * Merge: a pure deterministic union of the shard artifacts — replaying
//    the observations into a fresh recommender and unioning the reduced
//    rule-diff rows — proven bit-identical to DiscoverUnsharded() over the
//    same day (discovery_test / shard_chaos_test assert the bytes).
//
// Crash points: every manifest/lease/merge window consults an optional
// test hook, so the chaos harness can kill the orchestrator at each hashed
// window and assert that resume loses no completed shard.
#ifndef QSTEER_DISCOVERY_ORCHESTRATOR_H_
#define QSTEER_DISCOVERY_ORCHESTRATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/recommender.h"
#include "discovery/manifest.h"
#include "workload/generator.h"

namespace qsteer {

/// Header line of `discovery_summary.txt`, the run summary the merge step
/// writes last (WriteArtifact) and `qsteer analyze --discovery-dir` reads.
inline constexpr char kDiscoverySummaryHeader[] = "# qsteer-discovery-summary v1";

/// One crash window. `window` names the protocol step; windows are visited
/// in a deterministic order, and `index` is the 0-based position of this
/// window within the run (stable across identical runs — the chaos
/// harness's kill schedule hashes it).
struct DiscoveryCrashPoint {
  std::string window;
  /// Shard being committed, or -1 for run-level windows.
  int shard_index = -1;
  int64_t index = 0;
};

struct DiscoveryCrashDecision {
  bool crash = false;
  /// With `crash` at the pre-artifact window: additionally write a torn
  /// prefix of the artifact to its final path (modeling bit rot or a
  /// non-atomic filesystem) so resume must quarantine it.
  bool tear_artifact = false;
};

struct DiscoveryOptions {
  /// Artifact directory (created if missing).
  std::string dir;
  int num_shards = 8;
  /// Orchestrator compute threads across shard jobs; <= 0 = serial. The
  /// merged output is bit-identical for every value.
  int num_workers = 0;
  /// Cap on the day's jobs (0 = all) — keeps tests and smoke runs fast.
  int max_jobs = 0;
  /// Trust checksum-valid shard artifacts already in `dir`.
  bool resume = false;
  /// fsync artifact/manifest writes (tests run with false for speed).
  bool sync = false;

  // Lease simulation (deterministic logical ticks).
  int64_t lease_ticks = 600;
  /// Probability a dispatch is a straggler (cost multiplied by
  /// `straggler_factor`), drawn from a hash of (shard, attempt).
  double straggler_fraction = 0.05;
  double straggler_factor = 40.0;

  /// Pre-warm the pipeline's compile cache from this SaveCompileCache file
  /// before computing (empty = cold start). Rejection — corrupt, torn,
  /// version- or day-mismatched — is non-fatal: the run proceeds cold.
  std::string warm_cache_file;
  /// Persist the compile cache here after computing (empty = don't).
  std::string save_cache_file;

  /// Fleet-wide candidate-compile budget for the day (0 = unlimited):
  /// divided evenly over the day's selected jobs into a per-job
  /// pipeline.compile_budget (floor, minimum 1), so sharded discovery
  /// spends the same fleet budget regardless of how jobs landed on shards.
  /// Ranking (pipeline.rank_candidates) decides whether each job's slice
  /// goes to the top-ranked candidates or the stream prefix.
  int64_t fleet_compile_budget = 0;
  /// Pre-warm the candidate ranker from a CandidateRanker::SaveToFile
  /// artifact (empty = cold). Rejection is non-fatal: ranking starts cold.
  /// Requires pipeline.rank_candidates.
  std::string ranker_in;
  /// Persist the trained ranker here after a completed run (empty = don't).
  /// Requires pipeline.rank_candidates.
  std::string ranker_out;

  /// Per-job analysis options. num_threads is forced to 0: the orchestrator
  /// parallelizes across jobs, not within one.
  PipelineOptions pipeline;

  /// Testing-only crash hook; null = never crash.
  std::function<DiscoveryCrashDecision(const DiscoveryCrashPoint&)> crash_hook_for_testing;
};

struct DiscoveryCounters {
  int shards_total = 0;
  /// Completed shards trusted from a prior run (resume).
  int shards_reused = 0;
  int shards_recomputed = 0;
  /// Damaged files renamed to *.quarantined during resume.
  int shards_quarantined = 0;
  /// Intact-but-foreign artifacts (different partition) recomputed.
  int shards_stale = 0;
  int64_t leases_granted = 0;
  int64_t leases_expired = 0;
  int64_t speculative_dispatches = 0;
  int64_t stragglers = 0;
  int64_t makespan_ticks = 0;
  int64_t jobs_total = 0;
  int64_t jobs_analyzed = 0;
  int64_t groups_total = 0;
  /// Crash windows visited this run.
  int64_t crash_windows = 0;
  /// Compile-cache warm start: entries loaded from warm_cache_file, or 1
  /// rejection when the file was refused (the run then starts cold).
  int64_t cache_warm_loaded = 0;
  int64_t cache_warm_rejected = 0;

  /// Candidate generation of this run's analyses (ranked / budgeted
  /// discovery included).
  SteeringPipeline::BudgetStats budget;
  /// Ranker warm start: 1 when ranker_in loaded, 1 rejection otherwise.
  int64_t ranker_warm_loaded = 0;
  int64_t ranker_warm_rejected = 0;

  std::string ToString() const;
};

struct DiscoveryResult {
  /// False when the crash hook fired: the run stopped at `crash_window`
  /// (shard `crash_shard`) and must be resumed.
  bool completed = false;
  std::string crash_window;
  int crash_shard = -1;
  DiscoveryCounters counters;
  /// Merged recommender store (SteeringRecommender::Serialize bytes) and
  /// merged rule-diff table (RenderDiffTable bytes) — both bit-identical to
  /// an unsharded run. On disk each is the body of an artifact.
  std::string merged_store;
  std::string merged_diff_table;
  /// Serialized ranker after batch training (empty when ranking is off).
  /// Trained in day order, so a full (non-resumed) sharded run's bytes
  /// equal the unsharded pass's — asserted by the determinism tests.
  std::string ranker_bytes;
};

/// Output of the unsharded reference pass (the orchestrator's merge must
/// reproduce these bytes exactly).
struct UnshardedDiscovery {
  std::string store;
  std::string diff_table;
  int64_t jobs_analyzed = 0;
  /// Serialized ranker after batch training (empty when ranking is off).
  std::string ranker_bytes;
};

class ShardOrchestrator {
 public:
  /// `workload` must outlive the orchestrator.
  ShardOrchestrator(const Workload* workload, int day, DiscoveryOptions options);
  ~ShardOrchestrator();

  ShardOrchestrator(const ShardOrchestrator&) = delete;
  ShardOrchestrator& operator=(const ShardOrchestrator&) = delete;

  /// One orchestrator execution: partition, resume-scan, lease-schedule,
  /// compute, commit, merge. A crash-hook kill returns OK with
  /// result.completed == false (resume with options.resume). Errors (I/O,
  /// unparseable trusted artifact) return non-OK.
  Result<DiscoveryResult> Run();

  const DiscoveryOptions& options() const { return options_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  const Workload* workload_;
  int day_;
  DiscoveryOptions options_;
};

/// The single-process reference pass over the same job selection: analyze
/// every job in day order, learn every extracted observation, reduce the
/// rule-diff rows per signature group. Sharded merge == these bytes.
Result<UnshardedDiscovery> DiscoverUnsharded(const Workload* workload, int day,
                                             const DiscoveryOptions& options);

}  // namespace qsteer

#endif  // QSTEER_DISCOVERY_ORCHESTRATOR_H_
