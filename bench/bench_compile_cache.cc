// Compile-cache bench: wall-clock of recurring candidate recompilation
// (the Fig. 4 / Table 3 workload shape — the same job templates analyzed
// round after round) with the span-keyed compile cache on vs off, verifying
// bit-identical analyses throughout and reporting the cache counters.
// Machine-readable baseline in BENCH_compile_cache.json (regenerate with
// this binary when the cache or the candidate pipeline changes).
//
//   $ ./bench/bench_compile_cache [--min-hit-rate=0.5] [--rounds=4] [--jobs=10]
//
// Exits 1 when cached results diverge from uncached ones or when the warm
// hit rate lands below --min-hit-rate (the CI perf-smoke floor).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "core/pipeline.h"

using namespace qsteer;
using namespace qsteer::bench;

namespace {

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Order-sensitive digest of everything a Recompile produces: the default
// plan, the span, every candidate's estimated cost bits, and the failure
// tallies. Any cache-induced divergence flips it.
uint64_t DigestOf(const JobAnalysis& analysis) {
  uint64_t h = 0x5eedc0de;
  h = HashCombine(h, analysis.default_plan.root ? PlanHash(analysis.default_plan.root, false) : 0);
  h = HashCombine(h, DoubleBits(analysis.default_plan.est_cost));
  h = HashCombine(h, analysis.span.span.Hash());
  h = HashCombine(h, static_cast<uint64_t>(analysis.candidates_generated));
  h = HashCombine(h, static_cast<uint64_t>(analysis.recompiled_ok));
  h = HashCombine(h, static_cast<uint64_t>(analysis.compile_failures));
  for (double cost : analysis.candidate_costs) h = HashCombine(h, DoubleBits(cost));
  return h;
}

uint64_t DigestOf(const std::vector<JobAnalysis>& analyses) {
  uint64_t h = 0xba5eba11;
  for (const JobAnalysis& a : analyses) h = HashCombine(h, DigestOf(a));
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  Header("Span-keyed compile cache: recurring candidate recompilation rounds",
         "recurring jobs dominate the workload (§2: >= 60% recur daily) and "
         "configurations agreeing on a job's span compile to identical plans (§4), "
         "so recompilation cost is overwhelmingly redundant");

  double min_hit_rate = -1.0;
  int rounds = 4;
  int num_jobs = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-hit-rate=", 15) == 0) {
      min_hit_rate = DoubleArg("--min-hit-rate", argv[i] + 15, 0.0, 1.0);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = IntArg("--rounds", argv[i] + 9, 2, 1000);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      num_jobs = IntArg("--jobs", argv[i] + 7, 1, 100000);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  Workload workload(BenchSpec('B'));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  // The recurring batch: num_jobs templates, all instances of day 3. Each
  // round resubmits the full batch, like the nightly pipeline re-analyzing
  // the same recurring jobs.
  std::vector<Job> jobs;
  for (int t = 0; t < num_jobs; ++t) {
    jobs.push_back(workload.MakeJob(t % workload.num_templates(), /*day=*/3, /*instance=*/t));
  }

  PipelineOptions base;
  base.max_candidate_configs = static_cast<int>(40 * BenchScale());
  base.configs_to_execute = 0;  // recompilation only: the Fig. 4 cost shape
  base.num_threads = BenchThreads();

  PipelineOptions uncached_options = base;
  uncached_options.compile_cache_mb = 0;
  PipelineOptions cached_options = base;
  cached_options.compile_cache_mb = 64;

  // Both pipelines persist across rounds — that is the point: the cached one
  // accumulates compile results, the uncached one redoes everything.
  SteeringPipeline uncached(&optimizer, &simulator, uncached_options);
  SteeringPipeline cached(&optimizer, &simulator, cached_options);

  std::printf("workload B, %d jobs x %d rounds, %d candidates/job, threads=%d\n\n",
              num_jobs, rounds, base.max_candidate_configs, base.num_threads);
  std::printf("%6s %14s %14s %9s %10s %12s\n", "round", "uncached_s", "cached_s", "speedup",
              "hit_rate", "identical");

  double uncached_total = 0.0, cached_total = 0.0;
  double cached_warm = 0.0, uncached_warm = 0.0;
  bool all_identical = true;
  uint64_t hits_before = 0, misses_before = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<JobAnalysis> plain, via_cache;
    double uncached_s = SecondsOf([&] { plain = uncached.RecompileJobs(jobs); });
    double cached_s = SecondsOf([&] { via_cache = cached.RecompileJobs(jobs); });
    bool identical = DigestOf(plain) == DigestOf(via_cache);
    all_identical = all_identical && identical;
    uncached_total += uncached_s;
    cached_total += cached_s;
    if (round > 0) {
      uncached_warm += uncached_s;
      cached_warm += cached_s;
    }

    CompileCacheStats stats = cached.compile_cache_stats();
    uint64_t round_hits = stats.hits - hits_before;
    uint64_t round_misses = stats.misses - misses_before;
    hits_before = stats.hits;
    misses_before = stats.misses;
    double round_rate = (round_hits + round_misses) > 0
                            ? static_cast<double>(round_hits) / (round_hits + round_misses)
                            : 0.0;
    std::printf("%6d %14.3f %14.3f %8.2fx %9.0f%% %12s\n", round, uncached_s, cached_s,
                cached_s > 0 ? uncached_s / cached_s : 0.0, round_rate * 100.0,
                identical ? "yes" : "NO");
  }

  CompileCacheStats stats = cached.compile_cache_stats();
  double warm_speedup = cached_warm > 0 ? uncached_warm / cached_warm : 0.0;
  std::printf("\ntotals: uncached %.3fs, cached %.3fs (%.2fx); warm rounds %.2fx\n",
              uncached_total, cached_total,
              cached_total > 0 ? uncached_total / cached_total : 0.0, warm_speedup);
  std::printf("cache: %s\n", stats.ToString().c_str());
  std::printf("span-equivalent candidates pruned: %lld\n",
              static_cast<long long>(cached.budget_stats().span_duplicates_pruned));
  std::printf("explorations: uncached %s; cached %s\n",
              uncached.exploration_stats().ToString().c_str(),
              cached.exploration_stats().ToString().c_str());
  std::printf("results bit-identical cached vs uncached, every round: %s\n",
              all_identical ? "yes" : "NO — cache soundness violated");

  bool hit_rate_ok = min_hit_rate < 0.0 || stats.HitRate() >= min_hit_rate;
  if (!hit_rate_ok) {
    std::printf("FAIL: overall hit rate %.0f%% below floor %.0f%%\n", stats.HitRate() * 100.0,
                min_hit_rate * 100.0);
  }
  Footer();
  return (all_identical && hit_rate_ok) ? 0 : 1;
}
