#include "core/pipeline.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace qsteer {

const ConfigOutcome* JobAnalysis::BestBy(Metric metric) const {
  const ConfigOutcome* best = nullptr;
  for (const ConfigOutcome& outcome : executed) {
    if (!outcome.executed) continue;
    if (best == nullptr || MetricOf(outcome.metrics, metric) < MetricOf(best->metrics, metric)) {
      best = &outcome;
    }
  }
  return best;
}

double JobAnalysis::BestRuntimeChangePct() const {
  const ConfigOutcome* best = BestBy(Metric::kRuntime);
  if (best == nullptr || default_metrics.runtime <= 0.0) return 0.0;
  // Negative = improvement; positive when every alternative regresses.
  return (best->metrics.runtime - default_metrics.runtime) / default_metrics.runtime * 100.0;
}

SteeringPipeline::SteeringPipeline(const Optimizer* optimizer,
                                   const ExecutionSimulator* simulator,
                                   PipelineOptions options)
    : optimizer_(optimizer), simulator_(simulator), options_(std::move(options)) {
  if (options_.num_threads != 0) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.compile_cache_mb > 0) {
    CompileCacheOptions cache_options;
    cache_options.capacity_bytes = static_cast<int64_t>(options_.compile_cache_mb) << 20;
    cache_ = std::make_unique<CompileCache>(cache_options);
  }
  if (options_.rank_candidates) {
    MutexLock lock(ranker_mu_);
    ranker_ = std::make_unique<CandidateRanker>();
  }
}

SteeringPipeline::~SteeringPipeline() = default;

ThreadPoolStats SteeringPipeline::pool_stats() const {
  return pool_ != nullptr ? pool_->stats() : ThreadPoolStats{};
}

PipelineFailureStats SteeringPipeline::failure_stats() const {
  PipelineFailureStats stats;
  stats.compile_timeouts = ctr_compile_timeouts_.load(std::memory_order_relaxed);
  stats.compile_unavailable = ctr_compile_unavailable_.load(std::memory_order_relaxed);
  stats.retry_backoff_s =
      static_cast<double>(ctr_retry_backoff_ms_.load(std::memory_order_relaxed)) / 1000.0;
  stats.compile_retries = ctr_compile_retries_.load(std::memory_order_relaxed);
  stats.compile_failures = ctr_compile_failures_.load(std::memory_order_relaxed);
  stats.exec_retries = ctr_exec_retries_.load(std::memory_order_relaxed);
  stats.exec_failures = ctr_exec_failures_.load(std::memory_order_relaxed);
  stats.fallbacks = ctr_fallbacks_.load(std::memory_order_relaxed);
  return stats;
}

uint64_t SteeringPipeline::CandidateNonce(const RuleConfig& config) const {
  return HashCombine(options_.seed, config.Hash());
}

Result<CompiledPlan> SteeringPipeline::CompileJob(const Job& job, const RuleConfig& config,
                                                  const CompileCache::Key& key,
                                                  CompileSession* session) const {
  if (cache_ != nullptr) {
    // A hit skips the failure counters, cached permanent failures included:
    // those counters track compilation *work*, and a hit does none.
    if (std::optional<Result<CompiledPlan>> cached = cache_->Lookup(key)) {
      return std::move(*cached);
    }
  }
  CompileControl control;
  control.timeout_s = options_.compile_timeout_s;
  auto attempt_compile = [&](int attempt) -> Result<CompiledPlan> {
    if (options_.compile_fault_for_testing != nullptr) {
      Status injected = options_.compile_fault_for_testing(job, attempt);
      if (!injected.ok()) return injected;
    }
    return optimizer_->Compile(job, config, control, session);
  };
  Result<CompiledPlan> plan = attempt_compile(1);
  // Only transient codes (deadline misses, an unavailable compile endpoint)
  // are retried; kCompilationFailed is a property of the configuration and
  // would fail identically on every attempt. Backoff is simulated seconds:
  // accounted in the failure stats, never slept (bit-reproducible tests).
  int attempts = 1;
  while (!plan.ok() && IsTransient(plan.status().code()) &&
         attempts < std::max(1, options_.retry.max_attempts)) {
    ctr_compile_retries_.fetch_add(1, std::memory_order_relaxed);
    ctr_retry_backoff_ms_.fetch_add(
        static_cast<int64_t>(options_.retry.BackoffBeforeRetry(attempts) * 1000.0),
        std::memory_order_relaxed);
    ++attempts;
    plan = attempt_compile(attempts);
  }
  if (!plan.ok()) {
    if (plan.status().code() == StatusCode::kDeadlineExceeded) {
      ctr_compile_timeouts_.fetch_add(1, std::memory_order_relaxed);
    } else if (plan.status().code() == StatusCode::kUnavailable) {
      ctr_compile_unavailable_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ctr_compile_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (cache_ != nullptr) cache_->Insert(key, plan);
  return plan;
}

Result<CompiledPlan> SteeringPipeline::CompileCached(const Job& job,
                                                     const RuleConfig& config) const {
  return CompileJob(job, config, CompileCache::Key{JobFingerprint(job), config.bits()},
                    /*session=*/nullptr);
}

CompileCacheStats SteeringPipeline::compile_cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : CompileCacheStats{};
}

Status SteeringPipeline::SaveCompileCache(const std::string& path, int day, bool sync) const {
  if (cache_ == nullptr) {
    return Status::FailedPrecondition("compile cache disabled (compile_cache_mb <= 0)");
  }
  return cache_->SaveToFile(path, day, sync);
}

Status SteeringPipeline::WarmCompileCache(const std::string& path, int expected_day,
                                          int64_t* loaded) const {
  if (cache_ == nullptr) {
    return Status::FailedPrecondition("compile cache disabled (compile_cache_mb <= 0)");
  }
  return cache_->WarmFromFile(path, expected_day, loaded);
}

ExecMetrics SteeringPipeline::ExecuteWithRetry(const Job& job, const PlanNodePtr& root,
                                               uint64_t nonce) const {
  int max_attempts = std::max(1, options_.retry.max_attempts);
  ExecMetrics metrics;
  int carried_retries = 0;
  int carried_failed_vertices = 0;
  double carried_waste = 0.0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    uint64_t attempt_nonce =
        attempt == 0 ? nonce : HashCombine(nonce, static_cast<uint64_t>(attempt));
    metrics = simulator_->Execute(job, root, attempt_nonce);
    if (!metrics.failed) break;
    if (attempt + 1 < max_attempts) {
      ctr_exec_retries_.fetch_add(1, std::memory_order_relaxed);
      // The failed attempt's entire CPU spend is wasted (it produced no
      // usable result); carry the resilience counters into the final run.
      carried_retries += metrics.retries + 1;
      carried_failed_vertices += metrics.failed_vertices;
      carried_waste += metrics.cpu_time;
    }
  }
  if (metrics.failed) {
    ctr_exec_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  metrics.retries += carried_retries;
  metrics.failed_vertices += carried_failed_vertices;
  metrics.wasted_cpu_time += carried_waste;
  return metrics;
}

JobAnalysis SteeringPipeline::Recompile(const Job& job) const {
  JobAnalysis analysis;
  analysis.job = job;

  // The default and span compiles run through one session (one explored
  // memo), which the candidate runs below fork, and all share the
  // pipeline-wide compile cache. Default and span compiles use full-bits
  // keys (no span known yet — unconditionally sound); candidate compiles
  // below use span-projected keys, so span-equivalent configurations across
  // recurring instances of this job collapse to one cache entry.
  const uint64_t fingerprint = JobFingerprint(job);
  CompileSession session;
  auto compile_full_bits = [&](const RuleConfig& config) {
    return CompileJob(job, config, CompileCache::Key{fingerprint, config.bits()}, &session);
  };
  auto count_explorations = [&](const CompileSession& counted) {
    ctr_explorations_run_.fetch_add(counted.misses(), std::memory_order_relaxed);
    ctr_explorations_reused_.fetch_add(counted.hits(), std::memory_order_relaxed);
  };

  Result<CompiledPlan> default_plan = compile_full_bits(RuleConfig::Default());
  if (!default_plan.ok()) {
    // The default configuration always compiles for generated workloads;
    // return an empty analysis defensively.
    count_explorations(session);
    return analysis;
  }
  analysis.default_plan = std::move(default_plan.value());
  analysis.span = ComputeJobSpan(*optimizer_, job, compile_full_bits);

  ConfigSearchOptions search;
  search.max_configs = options_.max_candidate_configs;
  search.seed = options_.seed ^ job.TemplateHash();
  CandidateGenerationStats gen_stats;
  std::vector<RuleConfig> candidates =
      GenerateCandidateConfigs(analysis.span.span, search, &gen_stats);
  analysis.candidates_generated = static_cast<int>(candidates.size());
  analysis.span_duplicates_pruned = gen_stats.span_duplicates_pruned;
  ctr_span_pruned_.fetch_add(gen_stats.span_duplicates_pruned, std::memory_order_relaxed);

  // Budgeted, optionally ranked selection of the stream. Selection is a
  // pure *filter*: `selected` stays in stream (generation) order, so an
  // unlimited budget reproduces the unbudgeted analysis bit for bit whether
  // ranking is on or off, and a budgeted unranked run compiles exactly the
  // stream prefix (the random-order baseline).
  std::vector<size_t> selected(candidates.size());
  for (size_t i = 0; i < selected.size(); ++i) selected[i] = i;
  std::vector<RankerExample> examples;  // parallel to `candidates`; rank mode only
  if (options_.rank_candidates) {
    std::vector<double> scores(candidates.size(), 0.0);
    {
      // Scoring holds the ranker lock but never mutates: between training
      // points (batch boundaries) the ranker is frozen, which is what makes
      // scores — and therefore budgeted analyses — independent of worker
      // count and evaluation order.
      MutexLock lock(ranker_mu_);
      RankerJobContext ctx;
      ctx.span = analysis.span.span;
      ctx.default_signature = analysis.default_plan.signature;
      ctx.default_est_cost = analysis.default_plan.est_cost;
      examples.reserve(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        examples.push_back(ranker_->MakeExample(ctx, candidates[i]));
        scores[i] = ranker_->Score(examples[i].features);
      }
    }
    analysis.candidates_scored = static_cast<int>(candidates.size());
    if (options_.compile_budget > 0 &&
        options_.compile_budget < static_cast<int>(candidates.size())) {
      // Top-budget by (score desc, stream index asc): the index tie-break
      // keeps a cold ranker (all scores equal) identical to the unranked
      // prefix. Then back to stream order; the compiles below run grouped
      // by exploration bits and merge in stream order.
      std::sort(selected.begin(), selected.end(), [&](size_t a, size_t b) {
        if (scores[a] != scores[b]) return scores[a] > scores[b];
        return a < b;
      });
      selected.resize(static_cast<size_t>(options_.compile_budget));
      std::sort(selected.begin(), selected.end());
    }
  } else if (options_.compile_budget > 0 &&
             options_.compile_budget < static_cast<int>(candidates.size())) {
    selected.resize(static_cast<size_t>(options_.compile_budget));
  }
  analysis.candidates_compiled = static_cast<int>(selected.size());
  analysis.budget_skipped = static_cast<int>(candidates.size() - selected.size());
  ctr_candidates_scored_.fetch_add(analysis.candidates_scored, std::memory_order_relaxed);
  ctr_candidates_compiled_.fetch_add(analysis.candidates_compiled,
                                     std::memory_order_relaxed);
  ctr_budget_skipped_.fetch_add(analysis.budget_skipped, std::memory_order_relaxed);

  // Group the selected candidates by exploration bits (a stable sort keeps
  // stream order within a group) and cut the groups into runs: each run
  // compiles in order through its own fork of the job's session, so every
  // compile after a run's first reuses the run's exploration. A run is a
  // whole group unless the pool fans out; then it holds at most half a
  // worker's share of the candidates, so a job with two large groups still
  // keeps every worker busy. The runs depend on the pool's width only,
  // never on timing. Each candidate compiles (Optimizer::Compile is
  // reentrant) into its own slot, and outcomes are merged below in stream
  // order, so the analysis is bit-identical to the serial path no matter
  // how many workers ran.
  std::vector<BitVector256> exploration_keys;
  exploration_keys.reserve(selected.size());
  for (size_t i : selected) {
    exploration_keys.push_back(CompileSession::ExplorationKey(candidates[i]));
  }
  std::vector<size_t> compile_order(selected.size());
  for (size_t k = 0; k < compile_order.size(); ++k) compile_order[k] = k;
  std::stable_sort(compile_order.begin(), compile_order.end(), [&](size_t a, size_t b) {
    return exploration_keys[a] < exploration_keys[b];
  });
  // ParallelFor runs inline without a pool and on the pool's own workers.
  const size_t width = pool_ == nullptr || ThreadPool::Current() == pool_.get()
                           ? 1
                           : static_cast<size_t>(pool_->num_threads());
  const size_t max_run =
      width == 1 ? selected.size() : (selected.size() + 2 * width - 1) / (2 * width);
  // run_begin[r] is the position in compile_order of run r's first
  // candidate; the last entry closes the last run.
  std::vector<size_t> run_begin;
  for (size_t k = 0; k < compile_order.size(); ++k) {
    if (k == 0 || k - run_begin.back() == max_run ||
        exploration_keys[compile_order[k]] != exploration_keys[compile_order[k - 1]]) {
      run_begin.push_back(k);
    }
  }
  run_begin.push_back(compile_order.size());
  // Longest runs first, so the last runs the workers claim are short.
  std::vector<size_t> run_order(run_begin.size() - 1);
  for (size_t r = 0; r < run_order.size(); ++r) run_order[r] = r;
  std::stable_sort(run_order.begin(), run_order.end(), [&](size_t a, size_t b) {
    return run_begin[a + 1] - run_begin[a] > run_begin[b + 1] - run_begin[b];
  });
  struct CandidateResult {
    bool ok = false;
    bool timed_out = false;
    CompiledPlan plan;
    uint64_t plan_hash = 0;
  };
  std::vector<CandidateResult> compiled(selected.size());
  ParallelFor(pool_.get(), static_cast<int64_t>(run_order.size()), [&](int64_t i) {
    const size_t r = run_order[static_cast<size_t>(i)];
    CompileSession run_session = session.Fork();
    for (size_t k = run_begin[r]; k < run_begin[r + 1]; ++k) {
      const size_t si = compile_order[k];
      CandidateResult& result = compiled[si];
      const RuleConfig& config = candidates[selected[si]];
      // Span-projected key: candidates only differ inside the span, so
      // the projection is a complete identity for them (paper §4), and
      // recurring instances of this job hit the same entries.
      CompileCache::Key key{fingerprint, ProjectConfig(config, analysis.span.span)};
      Result<CompiledPlan> plan = CompileJob(job, config, key, &run_session);
      if (!plan.ok()) {
        // Transient exhaustion (deadline or unavailable) is a drop, not a
        // configuration property; permanent failures count separately.
        result.timed_out = IsTransient(plan.status().code());
        continue;
      }
      result.ok = true;
      result.plan = std::move(plan.value());
      result.plan_hash = PlanHash(result.plan.root, /*for_template=*/false);
    }
    count_explorations(run_session);
  });
  count_explorations(session);

  uint64_t default_plan_hash = PlanHash(analysis.default_plan.root, /*for_template=*/false);
  std::vector<uint64_t> seen_plans = {default_plan_hash};

  for (size_t si = 0; si < compiled.size(); ++si) {
    const size_t i = selected[si];
    CandidateResult& candidate = compiled[si];
    if (!candidate.ok) {
      if (candidate.timed_out) {
        ++analysis.compile_timeouts;
      } else {
        ++analysis.compile_failures;
      }
      continue;
    }
    ++analysis.recompiled_ok;
    analysis.candidate_costs.push_back(candidate.plan.est_cost);
    if (candidate.plan.est_cost < analysis.default_plan.est_cost) {
      ++analysis.cheaper_than_default;
    }
    if (options_.rank_candidates) {
      // Every successful compile becomes a training example. The initial
      // label is the estimated-cost improvement fraction; AnalyzeJob
      // replaces it with the measured runtime improvement for the
      // alternatives it actually executes.
      RankerExample example = std::move(examples[i]);
      example.label = analysis.default_plan.est_cost > 0.0
                          ? std::clamp(1.0 - candidate.plan.est_cost /
                                                 analysis.default_plan.est_cost,
                                       0.0, 1.0)
                          : 0.0;
      analysis.ranker_examples.push_back(std::move(example));
    }
    // Keep only configurations that produce genuinely different plans: the
    // rest cannot change any metric.
    if (std::find(seen_plans.begin(), seen_plans.end(), candidate.plan_hash) !=
        seen_plans.end()) {
      continue;
    }
    seen_plans.push_back(candidate.plan_hash);
    ConfigOutcome outcome;
    outcome.config = candidates[i];
    outcome.plan = std::move(candidate.plan);
    outcome.diff_vs_default =
        ComputeRuleDiff(analysis.default_plan.signature, outcome.plan.signature);
    analysis.executed.push_back(std::move(outcome));
  }

  // Keep the N cheapest distinct plans (§6.1: "select the 10 cheapest
  // alternative rule configurations").
  std::sort(analysis.executed.begin(), analysis.executed.end(),
            [](const ConfigOutcome& a, const ConfigOutcome& b) {
              return a.plan.est_cost < b.plan.est_cost;
            });
  if (static_cast<int>(analysis.executed.size()) > options_.configs_to_execute) {
    analysis.executed.resize(static_cast<size_t>(options_.configs_to_execute));
  }
  return analysis;
}

JobAnalysis SteeringPipeline::AnalyzeJob(const Job& job) const {
  JobAnalysis analysis = Recompile(job);
  if (analysis.default_plan.root == nullptr) return analysis;
  // A/B execution on fixed resources (§3.1.3): one run of the default plan
  // and one per alternative, with independent noise draws. Each
  // alternative's noise nonce is a pure function of (seed, its config), so
  // executions can run concurrently — and in any order — without changing a
  // single bit of the result.
  analysis.default_metrics = ExecuteWithRetry(job, analysis.default_plan.root,
                                              /*nonce=*/options_.seed);
  ParallelFor(pool_.get(), static_cast<int64_t>(analysis.executed.size()), [&](int64_t i) {
    ConfigOutcome& outcome = analysis.executed[static_cast<size_t>(i)];
    outcome.metrics = ExecuteWithRetry(job, outcome.plan.root, CandidateNonce(outcome.config));
    // A run that stayed failed after the retry policy degrades gracefully:
    // the candidate is excluded from BestBy, so the default plan is kept.
    outcome.executed = !outcome.metrics.failed;
  });
  for (const ConfigOutcome& outcome : analysis.executed) {
    if (!outcome.executed) {
      ++analysis.exec_failures;
      ctr_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (outcome.metrics.runtime < analysis.default_metrics.runtime) {
      ctr_improvements_found_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (options_.rank_candidates && analysis.default_metrics.runtime > 0.0) {
    // Measured truth beats the estimate: executed alternatives overwrite
    // their example's estimated-cost label with the observed runtime
    // improvement (0 when the alternative regressed).
    for (const ConfigOutcome& outcome : analysis.executed) {
      if (!outcome.executed) continue;
      double gain = (analysis.default_metrics.runtime - outcome.metrics.runtime) /
                    analysis.default_metrics.runtime;
      for (RankerExample& example : analysis.ranker_examples) {
        if (example.config_hash == outcome.config.Hash()) {
          example.label = std::clamp(gain, 0.0, 1.0);
          break;
        }
      }
    }
  }
  return analysis;
}

std::vector<JobAnalysis> SteeringPipeline::RecompileJobs(const std::vector<Job>& jobs) const {
  std::vector<JobAnalysis> analyses = ParallelMap<JobAnalysis>(
      pool_.get(), static_cast<int64_t>(jobs.size()),
      [&](int64_t i) { return Recompile(jobs[static_cast<size_t>(i)]); });
  // Batch boundary: train on this batch's outcomes in job order (the merge
  // above restored it), so the ranker's bytes are worker-count-independent.
  TrainRanker(analyses);
  return analyses;
}

std::vector<JobAnalysis> SteeringPipeline::AnalyzeJobs(const std::vector<Job>& jobs) const {
  std::vector<JobAnalysis> analyses = ParallelMap<JobAnalysis>(
      pool_.get(), static_cast<int64_t>(jobs.size()),
      [&](int64_t i) { return AnalyzeJob(jobs[static_cast<size_t>(i)]); });
  TrainRanker(analyses);
  return analyses;
}

int64_t SteeringPipeline::TrainRanker(const std::vector<JobAnalysis>& analyses) const {
  if (!options_.rank_candidates) return 0;
  std::vector<RankerExample> examples;
  for (const JobAnalysis& analysis : analyses) {
    examples.insert(examples.end(), analysis.ranker_examples.begin(),
                    analysis.ranker_examples.end());
  }
  return TrainRankerExamples(examples);
}

int64_t SteeringPipeline::TrainRankerExamples(const std::vector<RankerExample>& examples) const {
  if (!options_.rank_candidates || examples.empty()) return 0;
  MutexLock lock(ranker_mu_);
  int64_t before = ranker_->examples_trained();
  ranker_->Train(examples);
  int64_t consumed = ranker_->examples_trained() - before;
  ctr_ranker_examples_.fetch_add(consumed, std::memory_order_relaxed);
  return consumed;
}

std::string SteeringPipeline::SerializeRanker() const {
  if (!options_.rank_candidates) return "";
  MutexLock lock(ranker_mu_);
  return ranker_->Serialize();
}

Status SteeringPipeline::SaveRanker(const std::string& path, bool sync) const {
  if (!options_.rank_candidates) {
    return Status::FailedPrecondition("ranker disabled (rank_candidates = false)");
  }
  MutexLock lock(ranker_mu_);
  return ranker_->SaveToFile(path, sync);
}

Status SteeringPipeline::WarmRanker(const std::string& path) const {
  if (!options_.rank_candidates) {
    return Status::FailedPrecondition("ranker disabled (rank_candidates = false)");
  }
  MutexLock lock(ranker_mu_);
  return ranker_->WarmFromFile(path);
}

SteeringPipeline::BudgetStats SteeringPipeline::budget_stats() const {
  BudgetStats stats;
  stats.candidates_scored = ctr_candidates_scored_.load(std::memory_order_relaxed);
  stats.candidates_compiled = ctr_candidates_compiled_.load(std::memory_order_relaxed);
  stats.budget_skipped = ctr_budget_skipped_.load(std::memory_order_relaxed);
  stats.improvements_found = ctr_improvements_found_.load(std::memory_order_relaxed);
  stats.ranker_examples_trained = ctr_ranker_examples_.load(std::memory_order_relaxed);
  stats.span_duplicates_pruned = ctr_span_pruned_.load(std::memory_order_relaxed);
  return stats;
}

SteeringPipeline::ExplorationStats SteeringPipeline::exploration_stats() const {
  ExplorationStats stats;
  stats.run = ctr_explorations_run_.load(std::memory_order_relaxed);
  stats.reused = ctr_explorations_reused_.load(std::memory_order_relaxed);
  return stats;
}

std::string SteeringPipeline::ExplorationStats::ToString() const {
  std::ostringstream out;
  out << "run=" << run << " reused=" << reused;
  return out.str();
}

std::string SteeringPipeline::BudgetStats::ToString() const {
  std::ostringstream out;
  out << "scored=" << candidates_scored << " compiled=" << candidates_compiled
      << " skipped=" << budget_skipped << " improvements=" << improvements_found
      << " improvements_per_compile=" << ImprovementsPerCompile()
      << " ranker_examples=" << ranker_examples_trained
      << " span_pruned=" << span_duplicates_pruned;
  return out.str();
}

std::vector<int> SteeringPipeline::SelectJobsInWindow(
    const std::vector<double>& default_runtimes) const {
  std::vector<int> out;
  for (size_t i = 0; i < default_runtimes.size(); ++i) {
    if (default_runtimes[i] >= options_.min_runtime_s &&
        default_runtimes[i] <= options_.max_runtime_s) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

namespace {

/// Low-cost/high-runtime heuristic thresholds (Fig. 5's top-left corner):
/// estimated cost below this quantile and runtime above this quantile.
constexpr double kLowCostQuantile = 0.4;
constexpr double kHighRuntimeQuantile = 0.7;

}  // namespace

std::vector<int> SteeringPipeline::SelectLowCostHighRuntime(
    const std::vector<double>& est_costs, const std::vector<double>& runtimes) const {
  std::vector<int> out;
  if (est_costs.empty() || est_costs.size() != runtimes.size()) return out;
  double cost_threshold = Percentile(est_costs, kLowCostQuantile * 100.0);
  double runtime_threshold = Percentile(runtimes, kHighRuntimeQuantile * 100.0);
  for (size_t i = 0; i < est_costs.size(); ++i) {
    if (est_costs[i] <= cost_threshold && runtimes[i] >= runtime_threshold) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

}  // namespace qsteer
