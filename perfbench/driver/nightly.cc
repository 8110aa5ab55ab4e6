// nightly_B: the serial nightly discovery loop over consecutive days of
// workload B. Set-up generates the days of the batch, default-compiles and
// executes each job and keeps the 60 s - 2 h window; the timed phase
// analyzes the batch's jobs day by day (one op = one AnalyzeJob call),
// learns each result, and trains and persists at each day boundary.
//
// The batch is the first BatchSize selected jobs in generation order, and
// the seed permutes the order in which each day's share of them arrives.
// The pipeline keeps its default seed, so every run analyzes the same jobs
// with the same candidate streams: about 120 per-job latencies from a wide
// distribution would otherwise move p50 by ~10% from seed to seed.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <numeric>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "layers.h"
#include "service/durable_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qsteer::CompiledPlan;
using qsteer::Job;
using qsteer::JobAnalysis;
using qsteer::Result;
using qsteer::RuleConfig;

constexpr int kCandidateStream = 200;
constexpr int kCompileBudget = 50;  // 25% of the stream, as in BENCH_ranker.json
constexpr int kReferenceSamples = 4;
constexpr double kReferenceJobsPerSecond = 5.5;

struct Day {
  int day = 0;
  /// Selected jobs in seeded arrival order, and each one's position in
  /// generation order (the order the ranker trains in).
  std::vector<Job> selected;
  std::vector<int> generation_rank;
};

struct Nightly {
  std::unique_ptr<qsteer::Workload> workload;
  std::unique_ptr<qsteer::Optimizer> optimizer;
  std::unique_ptr<qsteer::ExecutionSimulator> simulator;
  std::unique_ptr<qsteer::SteeringPipeline> pipeline;
  std::unique_ptr<qsteer::DurableRecommenderStore> store;
  std::vector<Day> days;
};

/// What the output checks need of one analyzed job.
struct Analyzed {
  Job job;
  RuleConfig best_config;
  uint64_t best_plan_hash = 0;
  double best_est_cost = 0.0;
  // Set for the reference-executor sample only.
  qsteer::PlanNodePtr default_root;
  qsteer::PlanNodePtr best_root;
};

/// Seeded sample of analyzed jobs for the reference-executor check: the
/// first one plus about one in sixteen, at most kReferenceSamples.
bool InReferenceSample(uint64_t seed, size_t index, int taken) {
  if (taken >= kReferenceSamples) return false;
  return index == 0 || qsteer::Mix64(seed ^ (0x6e69676874ULL + index)) % 16 == 0;
}

Nightly SetUp(const RunOptions& run, int64_t batch, const std::string& dir, Layers& layers) {
  Nightly n;
  {
    ScopedSpan span(layers.tracer, "workload.Workload");
    n.workload = std::make_unique<qsteer::Workload>(qsteer::WorkloadSpec::WorkloadB(kBenchScale));
  }
  n.optimizer = std::make_unique<qsteer::Optimizer>(&n.workload->catalog());
  n.simulator = std::make_unique<qsteer::ExecutionSimulator>(&n.workload->catalog());
  qsteer::PipelineOptions options;
  options.max_candidate_configs = kCandidateStream;
  options.compile_budget = kCompileBudget;
  options.rank_candidates = true;
  // bench/bench_util.h's selection window at bench scale.
  options.min_runtime_s = 60.0;
  options.max_runtime_s = 7200.0;
  options.num_threads = 0;
  n.pipeline = std::make_unique<qsteer::SteeringPipeline>(n.optimizer.get(), n.simulator.get(),
                                                          options);
  FreshDir(dir);
  qsteer::DurableStoreOptions store_options;
  store_options.dir = dir;
  store_options.sync = kFsync;
  n.store = std::make_unique<qsteer::DurableRecommenderStore>(store_options);
  {
    ScopedSpan span(layers.tracer, "service.store.Open");
    Require(n.store->Open(), "nightly store open");
  }
  for (int d = 1, taken = 0; taken < batch; ++d) {
    std::vector<Job> jobs = layers.JobsForDay(*n.workload, d);
    std::vector<double> runtimes;
    std::vector<size_t> compiled;
    for (size_t i = 0; i < jobs.size(); ++i) {
      uint64_t trace = qsteer::HashCombine(static_cast<uint64_t>(d), i);
      Result<CompiledPlan> plan =
          layers.Compile(*n.optimizer, jobs[i], RuleConfig::Default(), trace);
      if (!plan.ok()) continue;
      runtimes.push_back(layers.Execute(*n.simulator, jobs[i], plan.value().root, trace).runtime);
      compiled.push_back(i);
    }
    std::vector<int> window;
    {
      ScopedSpan span(layers.tracer, "core.SelectJobsInWindow");
      window = n.pipeline->SelectJobsInWindow(runtimes);
    }
    window.resize(std::min<size_t>(window.size(), static_cast<size_t>(batch - taken)));
    taken += static_cast<int>(window.size());
    Day day{d, {}, std::vector<int>(window.size())};
    std::iota(day.generation_rank.begin(), day.generation_rank.end(), 0);
    qsteer::Pcg32 arrival(run.seed, static_cast<uint64_t>(d));
    arrival.Shuffle(&day.generation_rank);
    for (int rank : day.generation_rank) {
      day.selected.push_back(jobs[compiled[static_cast<size_t>(window[static_cast<size_t>(rank)])]]);
    }
    n.days.push_back(std::move(day));
  }
  return n;
}

/// Day-boundary work: train the ranker on the day's analyses in generation
/// order (so the trained state does not depend on arrival order), then
/// persist the compile cache, the ranker and a store snapshot.
void EndDay(const Nightly& n, int day, std::vector<std::pair<int, JobAnalysis>> analyses,
            const std::string& dir, Layers& layers) {
  std::sort(analyses.begin(), analyses.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<JobAnalysis> in_order;
  for (auto& [rank, analysis] : analyses) in_order.push_back(std::move(analysis));
  {
    ScopedSpan span(layers.tracer, "ml.TrainRanker");
    n.pipeline->TrainRanker(in_order);
  }
  {
    ScopedSpan span(layers.tracer, "optimizer.cache.SaveCompileCache");
    Require(n.pipeline->SaveCompileCache(dir + "/compile_cache.qcc", day, kFsync),
            "SaveCompileCache");
  }
  {
    ScopedSpan span(layers.tracer, "ml.SaveRanker");
    Require(n.pipeline->SaveRanker(dir + "/ranker.qrk", kFsync), "SaveRanker");
  }
  {
    ScopedSpan span(layers.tracer, "service.store.Snapshot");
    Require(n.store->Snapshot(), "store snapshot");
  }
}

std::vector<Check> CheckOutputs(const Nightly& n, const std::vector<Analyzed>& analyzed) {
  // A fresh optimizer: no compile cache, no per-job session.
  qsteer::Optimizer fresh(&n.workload->catalog());
  int64_t same = 0;
  std::string first_mismatch;
  for (const Analyzed& a : analyzed) {
    Result<CompiledPlan> plan = fresh.Compile(a.job, a.best_config);
    bool equal = plan.ok() && qsteer::PlanHash(plan.value().root, false) == a.best_plan_hash &&
                 std::bit_cast<uint64_t>(plan.value().est_cost) ==
                     std::bit_cast<uint64_t>(a.best_est_cost);
    if (equal) {
      ++same;
    } else if (first_mismatch.empty()) {
      first_mismatch = "; first mismatch: " + a.job.name;
    }
  }
  std::vector<Check> checks;
  checks.push_back(Check{"recompile_best",
                         same == static_cast<int64_t>(analyzed.size()) && !analyzed.empty(),
                         std::to_string(same) + " of " + std::to_string(analyzed.size()) +
                             " best configurations recompile to the same plan hash and "
                             "bit-equal cost" +
                             first_mismatch});

  // The seeded sample: default and best plans against the logical plan.
  int sampled = 0;
  std::string mismatch;
  for (const Analyzed& a : analyzed) {
    if (a.best_root == nullptr) continue;
    ++sampled;
    mismatch = ReferenceMismatch(n.workload->catalog(), a.job, {a.default_root, a.best_root});
    if (!mismatch.empty()) break;
  }
  checks.push_back(Check{"reference_results", mismatch.empty() && sampled > 0,
                         mismatch.empty() ? std::to_string(sampled) +
                                                " sampled jobs: default and best plans return "
                                                "the logical plan's rows"
                                          : mismatch});
  return checks;
}

}  // namespace

RunResult RunNightlyB(const RunOptions& run) {
  RunResult result;
  Layers layers(run.trace);
  const std::string dir = run.state_dir + "/nightly";
  const int64_t batch = BatchSize(run, kReferenceJobsPerSecond);

  std::vector<double> setup_seconds;
  Nightly n;
  for (int i = 0; i < kSetups; ++i) {
    n = Nightly{};  // the previous repetition's state goes first
    layers.Reset();
    int64_t start = NowNs();
    n = SetUp(run, batch, dir, layers);
    setup_seconds.push_back(SecondsSince(start));
  }

  std::vector<double> latency_ms;
  std::vector<Analyzed> analyzed;
  int reference_samples = 0;
  double default_runtime = 0.0, saved_runtime = 0.0;
  int64_t start = NowNs();
  bool stop = false;
  for (const Day& day : n.days) {
    std::vector<std::pair<int, JobAnalysis>> analyses;
    for (size_t i = 0; i < day.selected.size(); ++i) {
      const Job& job = day.selected[i];
      if (BatchDone(run, batch, result.ops.attempted, start)) {
        stop = true;
        break;
      }
      uint64_t trace = static_cast<uint64_t>(result.ops.attempted) + 1;
      int64_t op_start = NowNs();
      JobAnalysis analysis = [&] {
        ScopedSpan span(layers.tracer, "core.AnalyzeJob", trace);
        return n.pipeline->AnalyzeJob(job);
      }();
      latency_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6);
      {
        ScopedSpan span(layers.tracer, "service.store.LearnFromAnalysis", trace);
        n.store->LearnFromAnalysis(analysis);
      }
      if (analysis.default_plan.root == nullptr) {
        result.ops.Fail();  // a selected job with no default plan
      } else {
        result.ops.Ok();
        default_runtime += analysis.default_metrics.runtime;
        if (const qsteer::ConfigOutcome* best = analysis.BestBy(qsteer::Metric::kRuntime)) {
          saved_runtime += std::max(0.0, analysis.default_metrics.runtime - best->metrics.runtime);
          Analyzed a{job, best->config, qsteer::PlanHash(best->plan.root, false),
                     best->plan.est_cost, nullptr, nullptr};
          if (InReferenceSample(run.seed, analyzed.size(), reference_samples)) {
            a.default_root = analysis.default_plan.root;
            a.best_root = best->plan.root;
            ++reference_samples;
          }
          analyzed.push_back(std::move(a));
        }
      }
      layers.in.analyses.Add(analysis);
      analyses.emplace_back(day.generation_rank[i], std::move(analysis));
    }
    if (!analyses.empty()) EndDay(n, day.day, std::move(analyses), dir, layers);
    if (stop) break;
  }
  double wall = SecondsSince(start);
  double peak_rss = PeakRssMb();

  result.e2e.push_back(SetupMetric(setup_seconds));
  result.e2e.push_back(Metric{"throughput", "ops/s",
                              static_cast<double>(result.ops.attempted) / wall,
                              result.ops.attempted});
  AddLatencyMetrics("", latency_ms, &result.e2e);
  result.e2e.push_back(Metric{"runtime_saved_pct", "%",
                              default_runtime > 0.0 ? saved_runtime / default_runtime * 100.0 : 0.0,
                              result.ops.attempted - result.ops.failed});
  result.e2e.push_back(
      Metric{"error_rate", "fraction", result.ops.ErrorRate(), result.ops.attempted});
  result.e2e.push_back(Metric{"peak_rss_mb", "MiB", peak_rss, 1});

  layers.in.cache = n.pipeline->compile_cache_stats();
  std::error_code ec;
  auto file_bytes = std::filesystem::file_size(dir + "/compile_cache.qcc", ec);
  layers.in.cache_file_bytes = ec ? 0 : static_cast<int64_t>(file_bytes);
  layers.in.budget = n.pipeline->budget_stats();
  layers.in.failures = n.pipeline->failure_stats();
  layers.in.store = StoreCounts::Of(*n.store);
  result.layers = LayerMetrics(layers.in, layers.tracer);
  result.spans = SummarizeSpans(layers.tracer.spans());

  result.checks = CheckOutputs(n, analyzed);
  return result;
}

}  // namespace perfbench
