#include "exec/simulator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "common/hash.h"
#include "common/random.h"
#include "optimizer/cost_model.h"
#include "optimizer/stats.h"

namespace qsteer {

double MetricOf(const ExecMetrics& m, Metric metric) {
  switch (metric) {
    case Metric::kRuntime:
      return m.runtime;
    case Metric::kCpuTime:
      return m.cpu_time;
    case Metric::kIoTime:
      return m.io_time;
  }
  return 0.0;
}

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kRuntime:
      return "Runtime";
    case Metric::kCpuTime:
      return "CPU time";
    case Metric::kIoTime:
      return "IO time";
  }
  return "?";
}

FaultProfile FaultProfile::Flaky(double level) {
  level = std::max(0.0, level);
  FaultProfile profile;
  profile.vertex_failure_prob = std::min(0.5, 0.02 * level);
  profile.straggler_prob = std::min(0.5, 0.06 * level);
  profile.token_revocation_prob = std::min(0.5, 0.04 * level);
  profile.job_failure_prob = std::min(0.3, 0.015 * level);
  return profile;
}

ExecutionSimulator::ExecutionSimulator(const Catalog* catalog, SimulatorOptions options)
    : catalog_(catalog), options_(options) {}

namespace {

/// The parameters the simulated cluster exhibits.
constexpr CostParams kClusterTruth = CostParams::ClusterTruth();

/// Lognormal sigma of cluster noise for long jobs; short jobs get more
/// (paper §3.1.1: ~10% variance on short jobs).
constexpr double kNoiseSigmaLong = 0.02;
constexpr double kNoiseSigmaShort = 0.08;

struct NodeResult {
  LogicalStats stats;
  /// Earliest completion time of this fragment (critical path).
  double finish = 0.0;
};

}  // namespace

ExecMetrics ExecutionSimulator::Execute(const Job& job, const PlanNodePtr& physical_root,
                                        uint64_t run_nonce,
                                        std::vector<NodeTrueCardinality>* node_cards) const {
  ExecMetrics metrics;
  if (physical_root == nullptr) return metrics;
  TrueStatsView truth(catalog_, &job);

  // Fault injection (opt-in): every draw comes from a per-stage Pcg32 seeded
  // by hash(job, plan, nonce, stage ordinal). Stage ordinals are assigned in
  // the (deterministic) bottom-up evaluation order, so injection is
  // bit-reproducible and independent of which thread runs the execution —
  // the same contract as the noise nonces.
  const FaultProfile& faults = options_.fault_profile;
  const bool inject = faults.Active();
  uint64_t fault_base = 0;
  if (inject) {
    fault_base = HashCombine(HashCombine(HashString(job.name), PlanHash(physical_root, false)),
                             run_nonce + 0xFA17);
  }
  uint64_t stage_ordinal = 0;

  // Bottom-up over the DAG; shared fragments are evaluated (and their cost
  // counted) once, as in the real engine where a cooked intermediate stream
  // feeds several consumers.
  std::unordered_map<const PlanNode*, NodeResult> results;
  double total_cpu = 0.0;
  double total_io = 0.0;
  double total_bytes = 0.0;

  std::function<const NodeResult&(const PlanNode*)> evaluate =
      [&](const PlanNode* node) -> const NodeResult& {
    auto it = results.find(node);
    if (it != results.end()) return it->second;

    std::vector<const LogicalStats*> child_stats;
    double children_finish = 0.0;
    child_stats.reserve(node->children.size());
    for (const PlanNodePtr& child : node->children) {
      const NodeResult& r = evaluate(child.get());
      child_stats.push_back(&r.stats);
      children_finish = std::max(children_finish, r.finish);
    }

    NodeResult result;
    result.stats = DeriveStats(node->op, child_stats, truth);
    OpCost cost = ComputeOpCost(node->op, result.stats, child_stats,
                                std::max(1, node->op.dop), kClusterTruth, truth);

    // Token budget: a stage wider than the job's token allotment runs in
    // waves.
    double latency = cost.latency;
    if (!inject) {
      if (node->op.dop > options_.tokens) {
        latency *= static_cast<double>(node->op.dop) / options_.tokens;
      }
    } else {
      Pcg32 rng(HashCombine(fault_base, stage_ordinal++), /*stream=*/113);
      int tokens = options_.tokens;
      // Preemption: the stage loses half its token allotment and runs in
      // more waves.
      if (faults.token_revocation_prob > 0.0 &&
          rng.NextDouble() < faults.token_revocation_prob) {
        tokens = std::max(1, tokens / 2);
        ++metrics.token_revocations;
      }
      if (node->op.dop > tokens) {
        latency *= static_cast<double>(node->op.dop) / tokens;
      }

      int width = std::max(1, node->op.dop);
      double vertex_cpu = cost.cpu / width;
      double vertex_latency = cost.latency;
      // Critical-path extension from the worst vertex of this stage.
      double extension = 0.0;
      for (int v = 0; v < width; ++v) {
        // Transient vertex failures: re-run with backoff until the retry
        // budget is exhausted (then the whole run fails).
        if (faults.vertex_failure_prob > 0.0) {
          int failures = 0;
          while (failures < faults.vertex_retry.max_attempts &&
                 rng.NextDouble() < faults.vertex_failure_prob) {
            ++failures;
          }
          if (failures > 0) {
            bool gave_up = failures >= faults.vertex_retry.max_attempts;
            int reruns = gave_up ? failures - 1 : failures;
            ++metrics.failed_vertices;
            metrics.retries += reruns;
            // Each failed attempt burns a partial run of the vertex.
            double burnt = 0.0;
            for (int a = 0; a < failures; ++a) burnt += vertex_cpu * rng.NextDouble();
            metrics.wasted_cpu_time += burnt;
            total_cpu += burnt;
            extension = std::max(
                extension, reruns * vertex_latency + faults.vertex_retry.TotalBackoff(reruns));
            if (gave_up) metrics.failed = true;
          }
        }
        // Stragglers: a lognormal slowdown; speculation caps the damage at
        // the launch threshold plus one fresh run, wasting the loser's CPU.
        if (faults.straggler_prob > 0.0 && rng.NextDouble() < faults.straggler_prob) {
          double multiplier = std::max(
              1.0, std::exp(faults.straggler_mu + faults.straggler_sigma * rng.NextGaussian()));
          if (faults.speculation_threshold > 0.0 &&
              multiplier > faults.speculation_threshold + 1.0) {
            multiplier = faults.speculation_threshold + 1.0;
            ++metrics.speculative_copies;
            metrics.wasted_cpu_time += vertex_cpu;
            total_cpu += vertex_cpu;
          }
          extension = std::max(extension, (multiplier - 1.0) * vertex_latency);
        }
      }
      latency += extension;
    }

    result.finish = children_finish + latency;
    if (node_cards != nullptr) node_cards->push_back({node, result.stats.rows});
    total_cpu += cost.cpu;
    total_io += cost.io;
    total_bytes += cost.bytes_moved;
    return results.emplace(node, std::move(result)).first->second;
  };

  const NodeResult& root = evaluate(physical_root.get());
  metrics.runtime = root.finish;
  metrics.cpu_time = total_cpu;
  metrics.io_time = total_io;
  metrics.bytes_moved = total_bytes;
  metrics.output_rows = root.stats.rows;

  if (!options_.deterministic) {
    // Cluster noise: short jobs are noisier (resource allocation jitter,
    // scheduling) than long ones, as observed in the paper (§3.1.1).
    double sigma = metrics.runtime < kShortJobThreshold ? kNoiseSigmaShort : kNoiseSigmaLong;
    uint64_t seed = HashCombine(HashString(job.name), PlanHash(physical_root, false));
    seed = HashCombine(seed, run_nonce + 0x777);
    Pcg32 rng(seed, /*stream=*/59);
    metrics.runtime *= std::exp(sigma * rng.NextGaussian());
    metrics.cpu_time *= std::exp(0.5 * sigma * rng.NextGaussian());
    metrics.io_time *= std::exp(0.5 * sigma * rng.NextGaussian());
  }

  // Job-level transient failure (job-manager failover, quota revocation):
  // the run aborts partway; everything spent so far is wasted and the caller
  // is expected to retry under a different nonce.
  if (inject && faults.job_failure_prob > 0.0) {
    Pcg32 rng(HashCombine(fault_base, 0x0B5E55EDULL), /*stream=*/177);
    if (rng.NextDouble() < faults.job_failure_prob) {
      double progress = 0.15 + 0.7 * rng.NextDouble();
      metrics.failed = true;
      metrics.runtime *= progress;
      metrics.cpu_time *= progress;
      metrics.io_time *= progress;
      metrics.bytes_moved *= progress;
      metrics.wasted_cpu_time += metrics.cpu_time;
    }
  }
  return metrics;
}

Result<AbRunResult> AbTestHarness::Run(const Job& job, const RuleConfig& config,
                                       uint64_t run_nonce) const {
  Result<CompiledPlan> compiled = optimizer_->Compile(job, config);
  if (!compiled.ok()) return compiled.status();
  AbRunResult out;
  out.plan = std::move(compiled.value());
  out.metrics = simulator_->Execute(job, out.plan.root, run_nonce);
  return out;
}

}  // namespace qsteer
