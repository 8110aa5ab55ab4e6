// Small numeric summaries used by benches and the evaluation pipeline
// (means, percentiles — Table 5 reports mean / 90P / 99P runtimes), plus
// the counter snapshot ThreadPool exposes to benches.
#ifndef QSTEER_COMMON_STATS_H_
#define QSTEER_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qsteer {

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

/// Percentile with linear interpolation; `p` in [0, 100]. Returns 0 for an
/// empty input.
double Percentile(std::vector<double> values, double p);

/// Geometric mean of strictly positive values; non-positive entries are
/// skipped.
double GeoMean(const std::vector<double>& values);

struct Summary {
  int count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary Summarize(const std::vector<double>& values);

/// Counter snapshot of one ThreadPool (common/thread_pool.h). Lives here so
/// reporting code (benches, perf regressions) can consume pool counters
/// without pulling in the scheduler itself.
struct ThreadPoolStats {
  int num_threads = 0;
  int64_t tasks_submitted = 0;
  int64_t tasks_run = 0;
  /// High-water mark of the task queue (proxy for fan-out pressure; this
  /// pool has one FIFO queue, so "steal depth" degenerates to queue depth).
  int64_t max_queue_depth = 0;
  /// Sum of task-body wall time across workers.
  double busy_seconds = 0.0;
  /// Wall time since pool construction.
  double wall_seconds = 0.0;

  /// busy_seconds / (num_threads * wall_seconds), in [0, 1].
  double Utilization() const;
  std::string ToString() const;
};

/// Per-stage failure counters of one SteeringPipeline (core/pipeline.h).
/// Lives here, next to ThreadPoolStats, so reporting code can consume
/// resilience counters without pulling in the pipeline itself.
struct PipelineFailureStats {
  // The compile counters cover every compile the pipeline runs: the default
  // plan, span probes, candidates and CompileCached. A compile-cache hit
  // does no compile work and counts nothing.
  /// Compilations that still hit the compile deadline after the retry
  /// policy (transient).
  int64_t compile_timeouts = 0;
  /// Compilations that stayed kUnavailable (a remote compile tier
  /// down/over capacity) after the retry policy. Disjoint from
  /// compile_timeouts; both codes are transient (common/status.h
  /// IsTransient) and retried with backoff before the compile counts here.
  int64_t compile_unavailable = 0;
  /// Compile attempts repeated after a transient failure.
  int64_t compile_retries = 0;
  /// Compilations that failed permanently (kCompilationFailed).
  int64_t compile_failures = 0;
  /// Simulated executions re-attempted after a transient run failure.
  int64_t exec_retries = 0;
  /// Executions still failed after exhausting the retry policy.
  int64_t exec_failures = 0;
  /// Candidates dropped from an analysis (degraded to the default config)
  /// because compilation or execution kept failing.
  int64_t fallbacks = 0;
  /// Simulated seconds spent backing off before transient-compile retries
  /// (RetryPolicy::BackoffBeforeRetry; accounted, never slept).
  double retry_backoff_s = 0.0;

  int64_t Total() const {
    return compile_timeouts + compile_unavailable + compile_failures + exec_failures +
           fallbacks;
  }
  std::string ToString() const;
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_STATS_H_
