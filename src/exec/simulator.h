// Distributed execution simulator.
//
// Takes a compiled physical plan and "executes" it against the generative
// ground truth: true cardinalities (TrueStatsView), true cluster cost
// parameters, partition skew, spills computed from real sizes, a token
// budget (concurrent containers, paper §3.1.3 uses 50), and cluster noise.
// Reports the paper's three metrics: runtime, total CPU time, total IO time
// (§3.1.2).
#ifndef QSTEER_EXEC_SIMULATOR_H_
#define QSTEER_EXEC_SIMULATOR_H_

#include <unordered_map>
#include <vector>

#include "common/retry.h"
#include "optimizer/optimizer.h"
#include "plan/job.h"

namespace qsteer {

/// The paper's evaluation metrics (§3.1.2), plus the resilience counters the
/// fault layer reports. The fault fields stay zero (and `failed` false) when
/// the simulator runs without a fault profile.
struct ExecMetrics {
  /// Wall-clock latency, seconds (excludes queueing, as in the paper).
  double runtime = 0.0;
  /// Total CPU seconds across all vertices.
  double cpu_time = 0.0;
  /// Total IO seconds (read/write/shuffle) across all vertices.
  double io_time = 0.0;
  double bytes_moved = 0.0;
  /// Total true output rows of the job.
  double output_rows = 0.0;

  /// Vertex re-execution attempts after transient vertex failures.
  int retries = 0;
  /// Vertices that failed at least once during this run.
  int failed_vertices = 0;
  /// Stragglers mitigated by a speculative duplicate vertex.
  int speculative_copies = 0;
  /// Stages that lost part of their token allotment to preemption.
  int token_revocations = 0;
  /// CPU seconds spent on work that was thrown away (failed attempts,
  /// abandoned speculative copies, aborted-job progress).
  double wasted_cpu_time = 0.0;
  /// Terminal: the run did not complete (vertex retry budget exhausted or a
  /// job-level transient failure). Metrics describe the partial run; callers
  /// retry with a different nonce (see RetryPolicy).
  bool failed = false;
};

/// Deterministic fault-injection profile of the simulated cluster. Every
/// draw is a pure function of hash(job, plan, run_nonce, vertex), so fault
/// injection is bit-reproducible and independent of threading — the same
/// contract as the simulator's noise nonces. A default-constructed profile
/// injects nothing and leaves the simulator bit-identical to the
/// fault-free path.
struct FaultProfile {
  /// Probability that one vertex attempt fails transiently (lost container,
  /// bad node, revoked token mid-run). Failed attempts are retried with
  /// backoff up to `vertex_retry`; exhausting the budget fails the run.
  double vertex_failure_prob = 0.0;
  /// Probability that a vertex straggles (slow disk/network neighbor).
  double straggler_prob = 0.0;
  /// Lognormal parameters of the straggler slowdown multiplier (clamped to
  /// >= 1): multiplier = exp(mu + sigma * N(0,1)).
  double straggler_mu = 0.4;
  double straggler_sigma = 0.35;
  /// When > 0, a speculative duplicate launches once a straggler exceeds
  /// this multiple of the stage latency; the vertex then finishes at
  /// min(multiplier, threshold + 1) but the loser copy's CPU is wasted.
  double speculation_threshold = 1.5;
  /// Probability that a stage loses half its token allotment to preemption
  /// (runs in twice the waves).
  double token_revocation_prob = 0.0;
  /// Probability that the whole run aborts partway (job-manager failover,
  /// quota revocation): the run reports `failed` with partial metrics.
  double job_failure_prob = 0.0;
  /// Per-vertex retry budget and (simulated) backoff.
  RetryPolicy vertex_retry;

  bool Active() const {
    return vertex_failure_prob > 0.0 || straggler_prob > 0.0 ||
           token_revocation_prob > 0.0 || job_failure_prob > 0.0;
  }

  static FaultProfile Off() { return FaultProfile{}; }
  /// A realistically flaky cluster, scaled by `level` (1.0 = the default
  /// mix of occasional vertex failures, stragglers, and preemptions).
  static FaultProfile Flaky(double level = 1.0);
};

enum class Metric { kRuntime, kCpuTime, kIoTime };
double MetricOf(const ExecMetrics& m, Metric metric);
const char* MetricName(Metric metric);

/// Runtime (seconds) below which a job counts as "short" for noise.
inline constexpr double kShortJobThreshold = 300.0;

struct SimulatorOptions {
  /// Concurrent container budget per job (the paper's A/B infrastructure
  /// fixes 50 tokens per job).
  int tokens = 50;
  /// Disable noise entirely (unit tests).
  bool deterministic = false;
  /// Fault injection (strictly opt-in; default injects nothing). Orthogonal
  /// to `deterministic`: faults are themselves deterministic per nonce.
  FaultProfile fault_profile;
};

/// True output cardinality of one plan node, recorded in the simulator's
/// deterministic bottom-up evaluation order (shared fragments appear once).
/// Pairs with an estimator-side DeriveStats walk to form the (estimated,
/// true) samples the calibration harness fits against.
struct NodeTrueCardinality {
  const PlanNode* node = nullptr;
  double rows = 0.0;
};

class ExecutionSimulator {
 public:
  ExecutionSimulator(const Catalog* catalog, SimulatorOptions options = {});

  /// Simulates one execution of a compiled plan for `job`. `run_nonce`
  /// selects the noise draw: re-executions with different nonces model the
  /// run-to-run variance of the cluster. When `node_cards` is non-null the
  /// true per-node cardinalities of this run are appended to it.
  ExecMetrics Execute(const Job& job, const PlanNodePtr& physical_root, uint64_t run_nonce = 0,
                      std::vector<NodeTrueCardinality>* node_cards = nullptr) const;

  const SimulatorOptions& options() const { return options_; }

 private:
  const Catalog* catalog_;
  SimulatorOptions options_;
};

/// Convenience: compile + execute under a configuration; fails when the
/// configuration does not compile.
struct AbRunResult {
  CompiledPlan plan;
  ExecMetrics metrics;
};

/// A/B testing harness (paper §3.1.3): re-executes jobs with alternative
/// rule configurations on fixed resources and reports all metrics.
class AbTestHarness {
 public:
  AbTestHarness(const Optimizer* optimizer, const ExecutionSimulator* simulator)
      : optimizer_(optimizer), simulator_(simulator) {}

  Result<AbRunResult> Run(const Job& job, const RuleConfig& config,
                          uint64_t run_nonce = 0) const;

 private:
  const Optimizer* optimizer_;
  const ExecutionSimulator* simulator_;
};

}  // namespace qsteer

#endif  // QSTEER_EXEC_SIMULATOR_H_
