// Shared utilities for the experiment-regeneration benches. Each bench
// binary reproduces one table or figure of the paper and prints the paper's
// reported values next to the measured ones.
//
// Environment knobs (a value outside the stated range, or not a number,
// exits 2 naming the variable):
//   QSTEER_BENCH_SCALE    multiplier on workload sizes in [1e-9, 1000]
//                         (default 1.0; >1 makes the run bigger and slower,
//                         <1 smaller).
//   QSTEER_BENCH_THREADS  worker threads for the parallel pipeline stages in
//                         [-1, 256] (default 0 = serial; -1 = one per hardware
//                         thread). Results are bit-identical across values.
#ifndef QSTEER_BENCH_BENCH_UTIL_H_
#define QSTEER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/argparse.h"
#include "workload/generator.h"

namespace qsteer::bench {

/// Reads a numeric command-line value or environment knob the way the CLI
/// does. A value that is not a number in [min_value, max_value] exits 2
/// naming `name`, so a typo such as "O.9" cannot silently move a CI floor
/// the way atof's 0 would.
inline int IntArg(const char* name, const char* value, int min_value, int max_value) {
  int out = 0;
  if (ParseIntArg(value, min_value, max_value, &out)) return out;
  std::fprintf(stderr, "bad %s '%s' (expected an integer in [%d, %d])\n", name, value,
               min_value, max_value);
  std::exit(2);
}

inline double DoubleArg(const char* name, const char* value, double min_value,
                        double max_value) {
  double out = 0.0;
  if (ParseDoubleArg(value, min_value, max_value, &out)) return out;
  std::fprintf(stderr, "bad %s '%s' (expected a number in [%g, %g])\n", name, value,
               min_value, max_value);
  std::exit(2);
}

inline double BenchScale() {
  const char* env = std::getenv("QSTEER_BENCH_SCALE");
  return env == nullptr ? 1.0 : DoubleArg("QSTEER_BENCH_SCALE", env, 1e-9, 1000.0);
}

inline int BenchThreads() {
  const char* env = std::getenv("QSTEER_BENCH_THREADS");
  return env == nullptr ? 0 : IntArg("QSTEER_BENCH_THREADS", env, -1, 256);
}

/// Workload specs used by all benches: paper-proportioned, at roughly 1/200
/// of production volume by default so every bench finishes in seconds-to-
/// minutes on one core.
inline WorkloadSpec BenchSpec(char which) {
  double scale = 0.005 * BenchScale();
  switch (which) {
    case 'A':
      return WorkloadSpec::WorkloadA(scale);
    case 'B':
      return WorkloadSpec::WorkloadB(scale);
    default:
      return WorkloadSpec::WorkloadC(scale);
  }
}

inline void Header(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================================\n");
}

inline void Footer() { std::printf("\n"); }

/// Simple fixed-width histogram printer (log-ish buckets supplied by the
/// caller).
inline void PrintBar(double value, double max_value, int width = 40) {
  int bars = max_value > 0.0 ? static_cast<int>(value / max_value * width) : 0;
  for (int i = 0; i < bars; ++i) std::printf("#");
  std::printf("\n");
}

}  // namespace qsteer::bench

#include "core/pipeline.h"

namespace qsteer::bench {

/// The §6.1 selection + A/B execution used by several benches: compile and
/// execute a day under the default configuration, keep jobs in the runtime
/// window (scaled down with the bench workloads), then run the full
/// pipeline on up to `max_jobs` selected jobs.
inline std::vector<JobAnalysis> RunAbAnalysis(const Workload& workload,
                                              const Optimizer& optimizer,
                                              const ExecutionSimulator& simulator,
                                              int max_jobs, int day = 3,
                                              PipelineOptions options = {}) {
  // Bench workloads run ~1/200 of production scale, so the 5min..1h window
  // shifts down proportionally in spirit: keep it at 60s..2h to retain a
  // meaningful population.
  options.min_runtime_s = 60.0;
  options.max_runtime_s = 7200.0;
  if (options.max_candidate_configs == 200) {
    options.max_candidate_configs = static_cast<int>(150 * BenchScale());
  }
  if (options.num_threads == 0) options.num_threads = BenchThreads();
  SteeringPipeline pipeline(&optimizer, &simulator, options);

  std::vector<Job> jobs = workload.JobsForDay(day);
  std::vector<double> runtimes;
  std::vector<size_t> compiled_idx;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Result<CompiledPlan> plan = optimizer.Compile(jobs[i], RuleConfig::Default());
    if (!plan.ok()) continue;
    runtimes.push_back(simulator.Execute(jobs[i], plan.value().root).runtime);
    compiled_idx.push_back(i);
  }
  std::vector<int> window = pipeline.SelectJobsInWindow(runtimes);

  Pcg32 rng(0x6a0b + static_cast<uint64_t>(day));
  std::vector<int> picks = window;
  rng.Shuffle(&picks);
  std::vector<Job> selected;
  for (int idx : picks) {
    if (static_cast<int>(selected.size()) >= max_jobs) break;
    selected.push_back(jobs[compiled_idx[static_cast<size_t>(idx)]]);
  }
  // Batch analysis: jobs fan out over the pipeline's pool (and each job's
  // candidate recompilations run inline on the claiming worker).
  return pipeline.AnalyzeJobs(selected);
}

}  // namespace qsteer::bench

#endif  // QSTEER_BENCH_BENCH_UTIL_H_
