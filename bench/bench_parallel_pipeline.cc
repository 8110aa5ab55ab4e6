// Parallel-pipeline scaling bench: wall-clock of the §5-§6 candidate
// recompilation + A/B execution for one job at 200 candidates, serial and
// at 1/2/4/N pool workers, verifying bit-identical analyses throughout and
// reporting the pool counters. Machine-readable baseline in
// BENCH_parallel.json (regenerate with this binary when the pipeline's
// parallel stages change).
//
// Budgeted mode (--budget=N [--rank]) runs the same sweep with a compile
// budget (and optionally the candidate ranker) active: the determinism
// contract extends to budgeted analyses — the selected slice is identical
// for every worker count.
//
//   $ ./bench/bench_parallel_pipeline [max_workers] [--budget=N] [--rank]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"

using namespace qsteer;
using namespace qsteer::bench;

namespace {

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct AnalysisDigest {
  size_t executed = 0;
  double best_change = 0.0;
  double default_runtime = 0.0;
  int recompiled_ok = 0;
  int candidates_compiled = 0;
  int budget_skipped = 0;
};

AnalysisDigest DigestOf(const JobAnalysis& analysis) {
  AnalysisDigest d;
  d.executed = analysis.executed.size();
  d.best_change = analysis.BestRuntimeChangePct();
  d.default_runtime = analysis.default_metrics.runtime;
  d.recompiled_ok = analysis.recompiled_ok;
  d.candidates_compiled = analysis.candidates_compiled;
  d.budget_skipped = analysis.budget_skipped;
  return d;
}

bool SameDigest(const AnalysisDigest& a, const AnalysisDigest& b) {
  return a.executed == b.executed && a.best_change == b.best_change &&
         a.default_runtime == b.default_runtime && a.recompiled_ok == b.recompiled_ok &&
         a.candidates_compiled == b.candidates_compiled &&
         a.budget_skipped == b.budget_skipped;
}

}  // namespace

int main(int argc, char** argv) {
  Header("Parallel pipeline scaling: one job, 200 candidate recompilations",
         "the offline discovery loop is embarrassingly parallel across candidates "
         "(§5 ran it as a massively parallel batch job)");

  int max_workers = 0;
  int compile_budget = 0;
  bool rank_candidates = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      compile_budget = IntArg("--budget", argv[i] + 9, 0, 1000000);
    } else if (std::strcmp(argv[i], "--rank") == 0) {
      rank_candidates = true;
    } else {
      max_workers = IntArg("max_workers", argv[i], 0, 256);
    }
  }
  if (max_workers <= 0) {
    max_workers = static_cast<int>(std::thread::hardware_concurrency());
    if (max_workers <= 0) max_workers = 4;
  }

  Workload workload(BenchSpec('B'));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  Job job = workload.MakeJob(4, /*day=*/3);

  PipelineOptions base;
  base.max_candidate_configs = 200;
  base.configs_to_execute = 10;
  // No compile cache: the warm-up Recompile below would fill it, and the
  // timed analysis would then compile nothing.
  base.compile_cache_mb = 0;
  base.compile_budget = compile_budget;
  base.rank_candidates = rank_candidates;
  if (compile_budget > 0 || rank_candidates) {
    std::printf("budgeted mode: compile_budget=%d rank_candidates=%s\n", compile_budget,
                rank_candidates ? "on" : "off");
  }

  // Thread counts to measure: serial, then 1/2/4/.../max hardware workers.
  std::vector<int> worker_counts = {0, 1};
  for (int w = 2; w < max_workers; w *= 2) worker_counts.push_back(w);
  if (worker_counts.back() != max_workers && max_workers > 1) {
    worker_counts.push_back(max_workers);
  }

  std::printf("hardware threads: %u; job: %s (%d operators)\n\n",
              std::thread::hardware_concurrency(), job.name.c_str(), job.NumOperators());
  std::printf("%8s %10s %9s %9s %12s %11s\n", "workers", "wall_s", "speedup", "tasks",
              "utilization", "identical");

  double serial_seconds = 0.0;
  AnalysisDigest serial_digest;
  bool all_identical = true;
  for (int workers : worker_counts) {
    PipelineOptions options = base;
    options.num_threads = workers;
    SteeringPipeline pipeline(&optimizer, &simulator, options);
    // Warm-up compile so first-touch catalog/statistics costs are excluded.
    pipeline.Recompile(job);

    JobAnalysis analysis;
    double seconds = SecondsOf([&] { analysis = pipeline.AnalyzeJob(job); });
    AnalysisDigest digest = DigestOf(analysis);
    if (workers == 0) {
      serial_seconds = seconds;
      serial_digest = digest;
    }
    bool identical = SameDigest(serial_digest, digest);
    all_identical = all_identical && identical;

    ThreadPoolStats stats = pipeline.pool_stats();
    std::printf("%8d %10.3f %8.2fx %9lld %10.0f%% %11s\n", workers, seconds,
                seconds > 0 ? serial_seconds / seconds : 0.0,
                static_cast<long long>(stats.tasks_submitted), stats.Utilization() * 100.0,
                identical ? "yes" : "NO");
  }

  std::printf("\nresults bit-identical across all worker counts: %s\n",
              all_identical ? "yes" : "NO — determinism contract violated");
  std::printf("(speedup saturates at the machine's core count; on a single-core host all\n"
              " rows measure scheduling overhead only — see BENCH_parallel.json notes)\n");
  Footer();
  return all_identical ? 0 : 1;
}
