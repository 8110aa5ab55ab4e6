// The offline discovery pipeline (paper §4-§6): for selected jobs, compute
// the span, generate up to M candidate configurations, recompile all of
// them, pick the cheapest plans by estimated cost, and A/B-execute those to
// find configurations that actually improve runtimes.
#ifndef QSTEER_CORE_PIPELINE_H_
#define QSTEER_CORE_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/config_search.h"
#include "core/rule_diff.h"
#include "core/span.h"
#include "exec/simulator.h"
#include "ml/ranker.h"
#include "optimizer/compile_cache.h"

namespace qsteer {

struct PipelineOptions {
  /// M: candidate configurations to recompile per job (§5: up to 1000).
  int max_candidate_configs = 200;
  /// Number of cheapest recompiled plans to A/B-execute per job (§6.1: 10).
  int configs_to_execute = 10;
  /// Job-selection window: jobs faster than this (seconds) are too noisy,
  /// longer ones too expensive to re-execute (§5.3: 5 minutes to 1 hour).
  double min_runtime_s = 300.0;
  double max_runtime_s = 3600.0;
  /// Base seed of the analysis. Per-candidate simulator noise is derived
  /// from hash(seed, candidate config), never from shared sequential RNG
  /// state, so results are independent of candidate evaluation order.
  uint64_t seed = 1;
  /// Worker threads for candidate recompilation, A/B execution, and the
  /// batch entry points. 0 = fully serial (no pool, today's single-core
  /// behavior); < 0 = one worker per hardware thread. Results are
  /// bit-identical for every value (see SteeringPipeline).
  int num_threads = 0;
  /// Retry policy for transient failures: compile timeouts and failed
  /// simulated executions (ExecMetrics::failed under a fault profile).
  /// Retried executions draw fresh noise/fault nonces derived from
  /// hash(base nonce, attempt), so retries stay order- and
  /// thread-independent.
  RetryPolicy retry;
  /// Wall-clock budget per compilation (default, span probe, candidate or
  /// CompileCached); <= 0 = unlimited. A compilation that exceeds it returns
  /// kDeadlineExceeded and is retried under `retry` before it counts as
  /// failed.
  double compile_timeout_s = 0.0;
  /// Compile-cache budget in MiB (the --compile-cache-mb knob); <= 0
  /// disables caching entirely. Entries are keyed by hash(job fingerprint,
  /// config ∩ job span), so recurring jobs and span-equivalent candidates
  /// reuse compiles; results are bit-identical either way.
  int compile_cache_mb = 64;
  /// Testing-only deterministic compile fault: consulted before every
  /// compile attempt with the job and the 1-based attempt number; a non-OK
  /// return is treated as that attempt's result (no compile runs). Lets
  /// tests exercise the transient-retry path with codes the in-process
  /// optimizer never returns naturally (e.g. kUnavailable from a remote
  /// compile tier). Null in production.
  std::function<Status(const Job& job, int attempt)> compile_fault_for_testing;
  /// Budgeted discovery: cap on candidate compiles per job (<= 0 =
  /// unlimited). The full candidate stream is still generated and deduped;
  /// with ranking off the first `compile_budget` candidates of the stream
  /// are compiled (the unranked baseline), with ranking on the budget is
  /// spent on the top-scored slice instead.
  int compile_budget = 0;
  /// Score the candidate stream with the online CandidateRanker and spend
  /// `compile_budget` on the highest-ranked candidates. Selection is a
  /// *filter*, never a reorder: the selected candidates merge in stream
  /// order (they compile grouped by exploration bits, which changes no
  /// result), so with an unlimited budget the analysis is bit-identical to
  /// rank_candidates = false. When off (the default), the ranker does not
  /// exist and the pipeline behaves exactly as before this knob.
  bool rank_candidates = false;
};

/// One recompiled (and possibly executed) alternative configuration.
struct ConfigOutcome {
  RuleConfig config;
  CompiledPlan plan;
  RuleDiff diff_vs_default;
  bool executed = false;
  ExecMetrics metrics;  // valid when executed
};

/// Full analysis of one job.
struct JobAnalysis {
  Job job;
  CompiledPlan default_plan;
  ExecMetrics default_metrics;
  SpanResult span;

  int candidates_generated = 0;
  /// Candidate draws pruned before compilation because their span projection
  /// matched an already-kept candidate or the default (paper §4: such
  /// configurations compile to the identical plan).
  int span_duplicates_pruned = 0;
  int recompiled_ok = 0;
  /// Candidates that failed to compile permanently (kCompilationFailed).
  int compile_failures = 0;
  /// Candidates dropped because compilation kept timing out even after the
  /// retry policy was exhausted (kDeadlineExceeded; disjoint from
  /// compile_failures).
  int compile_timeouts = 0;
  /// Executed alternatives whose runs stayed failed after the retry policy
  /// (degraded: they are excluded from BestBy and the default is kept).
  int exec_failures = 0;
  int cheaper_than_default = 0;
  /// Budgeted-mode accounting: candidates scored by the ranker, compiled
  /// within the compile budget, and skipped because the budget ran out.
  /// With budgeting off, candidates_compiled = candidates_generated and the
  /// others are 0.
  int candidates_scored = 0;
  int candidates_compiled = 0;
  int budget_skipped = 0;
  /// Ranker training examples, one per compiled candidate: the feature row
  /// scored for it and the improvement observed (estimated-cost improvement,
  /// replaced by measured runtime improvement for A/B-executed outcomes).
  /// Filled only when rank_candidates is on; consumed in deterministic job
  /// order by SteeringPipeline::TrainRanker.
  std::vector<RankerExample> ranker_examples;
  /// Estimated costs of all successfully recompiled candidates (Fig. 4).
  std::vector<double> candidate_costs;
  /// The executed alternatives (the N cheapest distinct plans).
  std::vector<ConfigOutcome> executed;

  /// Best executed outcome by a metric; nullptr when nothing improves on
  /// the default is NOT implied — callers compare against default_metrics.
  const ConfigOutcome* BestBy(Metric metric) const;

  /// Percentage change of the best executed runtime vs the default
  /// (negative = improvement; 0 when nothing executed beats default).
  double BestRuntimeChangePct() const;
};

/// Thread-safety: a SteeringPipeline is immutable after construction; all
/// entry points are const and safe to call concurrently. Parallelism is
/// internal — with options.num_threads != 0, candidate recompilations and
/// A/B executions fan out over an owned thread pool, and results are merged
/// in candidate order so every JobAnalysis is bit-identical to the serial
/// (num_threads = 0) path for a fixed seed, regardless of worker count.
class SteeringPipeline {
 public:
  SteeringPipeline(const Optimizer* optimizer, const ExecutionSimulator* simulator,
                   PipelineOptions options = {});
  ~SteeringPipeline();

  const PipelineOptions& options() const { return options_; }

  /// Runs span + search + recompilation (no execution) for a job.
  /// `default_metrics` may be supplied when already measured.
  JobAnalysis Recompile(const Job& job) const;

  /// Full §6 treatment: Recompile, then A/B-execute the cheapest distinct
  /// alternative plans and the default.
  JobAnalysis AnalyzeJob(const Job& job) const;

  /// Batch entry points: analyze a whole selection of jobs, parallelized
  /// over the pool (jobs outermost; per-job work runs inline on the claiming
  /// worker). out[i] corresponds to jobs[i].
  std::vector<JobAnalysis> RecompileJobs(const std::vector<Job>& jobs) const;
  std::vector<JobAnalysis> AnalyzeJobs(const std::vector<Job>& jobs) const;

  /// The internal pool (nullptr when num_threads == 0). Exposed for benches
  /// and for sharing with other batch stages (e.g. LearnedSteering).
  ThreadPool* pool() const { return pool_.get(); }

  /// Pool counters (zeroed stats when running serial).
  ThreadPoolStats pool_stats() const;

  /// Compiles a job under `config` through the compile cache (full-bits key:
  /// no span projection, always sound), with the timeout, retries and
  /// failure counters of every other pipeline compile. This is the
  /// serving-path entry point — SteeringService and the CLI use it so
  /// recurring requests skip recompilation.
  Result<CompiledPlan> CompileCached(const Job& job, const RuleConfig& config) const;

  /// Cache counters (zeroed stats when caching is disabled).
  CompileCacheStats compile_cache_stats() const;

  /// Persists the compile cache (CompileCache::SaveToFile): checksummed,
  /// version-tagged, stamped with `day`. kFailedPrecondition when caching
  /// is disabled. The nightly discovery pass uses this to ship warm caches
  /// to the serving tier.
  Status SaveCompileCache(const std::string& path, int day, bool sync = false) const;

  /// Pre-warms the compile cache from a file written by SaveCompileCache
  /// (CompileCache::WarmFromFile). `expected_day` >= 0 rejects a cache
  /// persisted for a different day; corrupt, torn or version-mismatched
  /// files are rejected whole. Rejection is always safe: the cache stays
  /// cold and compiles run fresh — never a wrong plan. kFailedPrecondition
  /// when caching is disabled.
  Status WarmCompileCache(const std::string& path, int expected_day,
                          int64_t* loaded = nullptr) const;

  /// True when this pipeline owns a CandidateRanker (rank_candidates).
  bool ranker_enabled() const { return options_.rank_candidates; }

  /// Trains the ranker on the examples of `analyses`, strictly in the given
  /// order (callers pass analyses in job order, so the trained bytes are
  /// independent of worker count). The batch entry points call this
  /// themselves after the merge; per-job callers (the shard orchestrator)
  /// call it once per deterministic batch. Returns examples consumed; 0
  /// when the ranker is disabled. Never call concurrently with analyses:
  /// scoring assumes a frozen ranker between training points.
  int64_t TrainRanker(const std::vector<JobAnalysis>& analyses) const;
  int64_t TrainRankerExamples(const std::vector<RankerExample>& examples) const;

  /// The ranker's full serialized state (empty when disabled). Equal bytes
  /// <=> equal state: the determinism tests compare these across worker
  /// counts and across sharded vs. unsharded discovery.
  std::string SerializeRanker() const;

  /// Persists / pre-warms the ranker (CandidateRanker::SaveToFile /
  /// WarmFromFile): checksummed and version-tagged, whole-file rejection on
  /// damage — a rejected warm leaves the ranker cold, never wrong.
  /// kFailedPrecondition when the ranker is disabled.
  Status SaveRanker(const std::string& path, bool sync = false) const;
  Status WarmRanker(const std::string& path) const;

  /// Cumulative candidate-generation counters across all analyses run
  /// through this pipeline (thread-safe snapshot; observability only). The
  /// service status and the discovery summary embed this struct and print
  /// it with ToString().
  struct BudgetStats {
    int64_t candidates_scored = 0;
    int64_t candidates_compiled = 0;
    int64_t budget_skipped = 0;
    /// Executed alternatives that beat the default plan's measured runtime.
    int64_t improvements_found = 0;
    int64_t ranker_examples_trained = 0;
    /// Candidate draws pruned by span projection before compilation.
    int64_t span_duplicates_pruned = 0;
    double ImprovementsPerCompile() const {
      return candidates_compiled > 0
                 ? static_cast<double>(improvements_found) / candidates_compiled
                 : 0.0;
    }
    std::string ToString() const;
  };
  BudgetStats budget_stats() const;

  /// Cumulative exploration counters of the per-job compile sessions: the
  /// compiles that explored, and those that read the session's stored
  /// exploration family instead. Compiles served by the compile cache, and
  /// CompileCached, which uses no session, count in neither. The counts
  /// depend on the pool's width (a fanned-out job cuts its candidates into
  /// more runs), never on timing. Thread-safe snapshot.
  struct ExplorationStats {
    int64_t run = 0;
    int64_t reused = 0;
    std::string ToString() const;
  };
  ExplorationStats exploration_stats() const;

  /// Cumulative per-stage failure counters (compile timeouts/retries,
  /// execution retries/failures, fallbacks) across all analyses run through
  /// this pipeline. Thread-safe snapshot; counters never influence results.
  PipelineFailureStats failure_stats() const;

  /// Executes `root` under the simulator, retrying transient run failures
  /// (ExecMetrics::failed) per options().retry with nonces derived from
  /// hash(nonce, attempt). The returned metrics are the successful run's,
  /// with retries / failed_vertices / wasted_cpu_time accumulated across
  /// the failed attempts; `failed` stays set when every attempt failed.
  ExecMetrics ExecuteWithRetry(const Job& job, const PlanNodePtr& root, uint64_t nonce) const;

  /// §6.1 job-selection heuristics over a day of (already default-compiled
  /// and default-executed) jobs. Returns indices into `runtimes`/`costs`:
  /// jobs in the runtime window that either have clearly-cheaper recompiled
  /// plans (checked later) or sit in the low-cost/high-runtime corner.
  std::vector<int> SelectJobsInWindow(const std::vector<double>& default_runtimes) const;

  /// The Fig.-5 corner test given workload-level cost/runtime distributions.
  std::vector<int> SelectLowCostHighRuntime(const std::vector<double>& est_costs,
                                            const std::vector<double>& runtimes) const;

 private:
  /// Noise nonce of one candidate's A/B run: derived from the base seed and
  /// the candidate's configuration only (order- and thread-independent).
  uint64_t CandidateNonce(const RuleConfig& config) const;

  /// Every compile the pipeline runs (default, span probes, candidates and
  /// CompileCached) comes through here: a cache lookup on `key`, then on a
  /// miss the compile under options().compile_timeout_s, retrying transient
  /// failures per options().retry, then an insert. Permanent
  /// kCompilationFailed results are never retried (the same config always
  /// fails the same way); transient ones are never cached. Cached results
  /// are bit-identical to fresh compiles. `session` (may be null) shares
  /// per-job artifacts across compiles.
  Result<CompiledPlan> CompileJob(const Job& job, const RuleConfig& config,
                                  const CompileCache::Key& key, CompileSession* session) const;

  const Optimizer* optimizer_;
  const ExecutionSimulator* simulator_;
  PipelineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  /// Sharded and thread-safe; mutable state internal to the cache. Owned
  /// here so batch analyses and the serving path share one instance.
  std::unique_ptr<CompileCache> cache_;

  // Failure counters (relaxed atomics: observability only, never part of a
  // result; safe to bump from pool workers).
  mutable std::atomic<int64_t> ctr_compile_timeouts_{0};
  mutable std::atomic<int64_t> ctr_compile_unavailable_{0};
  /// Simulated backoff, accounted in milliseconds (atomic<double> has no
  /// portable fetch_add before C++20 libs caught up; ms granularity is
  /// plenty for observability).
  mutable std::atomic<int64_t> ctr_retry_backoff_ms_{0};
  mutable std::atomic<int64_t> ctr_compile_retries_{0};
  mutable std::atomic<int64_t> ctr_compile_failures_{0};
  mutable std::atomic<int64_t> ctr_exec_retries_{0};
  mutable std::atomic<int64_t> ctr_exec_failures_{0};
  mutable std::atomic<int64_t> ctr_fallbacks_{0};

  // BudgetStats counters (same relaxed-atomic observability contract).
  mutable std::atomic<int64_t> ctr_span_pruned_{0};
  mutable std::atomic<int64_t> ctr_candidates_scored_{0};
  mutable std::atomic<int64_t> ctr_candidates_compiled_{0};
  mutable std::atomic<int64_t> ctr_budget_skipped_{0};
  mutable std::atomic<int64_t> ctr_improvements_found_{0};
  mutable std::atomic<int64_t> ctr_ranker_examples_{0};

  // ExplorationStats counters, added from each job's session once the job's
  // compiles are done (same relaxed-atomic observability contract).
  mutable std::atomic<int64_t> ctr_explorations_run_{0};
  mutable std::atomic<int64_t> ctr_explorations_reused_{0};

  /// The candidate ranker (null unless options.rank_candidates). Scoring
  /// and training both hold ranker_mu_; determinism additionally relies on
  /// the train-at-batch-boundaries contract (see TrainRanker).
  mutable Mutex ranker_mu_;
  mutable std::unique_ptr<CandidateRanker> ranker_ GUARDED_BY(ranker_mu_);
};

}  // namespace qsteer

#endif  // QSTEER_CORE_PIPELINE_H_
