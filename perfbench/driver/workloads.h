// The three workloads of the end-to-end benchmark (README.md says why each
// exists). Each runs in its own process, drives qsteer through the same
// public entry points as the CLI, and returns its metrics and output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "harness.h"
#include "plan/job.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Time limit of the timed phase; it also sizes the phase's batch of ops
  /// (BatchSize).
  double seconds = 10.0;
  /// Record spans (the traced run).
  bool trace = false;
  /// Durable state lives under this directory (created by the caller).
  std::string state_dir;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunResult {
  /// End-to-end metrics of the timed phase.
  std::vector<Metric> e2e;
  /// Per-layer metrics of the last set-up plus the timed phase (the span
  /// timings only when traced).
  std::vector<Metric> layers;
  std::vector<Check> checks;
  OpCount ops;
  std::vector<SpanRow> spans;
};

RunResult RunNightlyB(const RunOptions& options);
RunResult RunServeFreshA(const RunOptions& options);
RunResult RunFleetMixedB(const RunOptions& options);

// ---- Shared by the workloads ----

/// The benchmark-scale workload specs of bench/bench_util.h (1/200 of
/// production volume).
inline constexpr double kBenchScale = 0.005;

/// Flush policy: durable state goes through the whole WAL, snapshot and
/// rename path into the checkout, without flushing to the device. A run
/// writes only inside its checkout, and there the device's fsync latency
/// varies from run to run (README.md, "Flush policy").
inline constexpr bool kFsync = false;

/// Set-up repetitions: setup_s is their median and the last one's state is
/// measured.
inline constexpr int kSetups = 3;

/// The timed phase runs a fixed batch of ops: what the reference machine
/// (4 vCPUs of a 2.1 GHz Xeon, where the rates were measured) completes in
/// 70% of `seconds`. Both commits of a comparison then do the same work, and
/// a host up to ~1.4x slower still completes it. BatchDone also ends the
/// phase at `seconds` once p90 is reportable, which keeps a much slower host
/// inside the run's time budget.
int64_t BatchSize(const RunOptions& run, double reference_ops_per_s);
bool BatchDone(const RunOptions& run, int64_t batch, int64_t ops, int64_t start_ns);

/// Median of the set-up times as `setup_s`.
Metric SetupMetric(const std::vector<double>& setup_seconds);

/// `<prefix>p50_ms`, `p90_ms`, `p95_ms`, `p99_ms` of `samples_ms`, each
/// only when it has kMinBeyond samples beyond it.
void AddLatencyMetrics(const std::string& prefix, const std::vector<double>& samples_ms,
                       std::vector<Metric>* out);

/// Empties and recreates `dir` (the previous set-up's durable state).
void FreshDir(const std::string& dir);

double SecondsSince(int64_t start_ns);

/// Executes the job's logical plan and each of `plans` on the
/// ReferenceExecutor and compares the results; when the job has a Top only
/// the outermost Top's sort keys are compared, as tests/correctness_test.cc
/// does. Returns "" when all agree, else which plan differed.
std::string ReferenceMismatch(const qsteer::Catalog& catalog, const qsteer::Job& job,
                              const std::vector<qsteer::PlanNodePtr>& plans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
