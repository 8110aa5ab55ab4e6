#include "catalog/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "common/stats.h"
#include "exec/simulator.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "optimizer/stats.h"
#include "plan/expr.h"

namespace qsteer {

double QError(double estimated, double truth, double floor) {
  double e = std::max(estimated, floor);
  double t = std::max(truth, floor);
  return std::max(e / t, t / e);
}

QErrorSummary SummarizeQErrors(std::vector<double> q_errors) {
  QErrorSummary summary;
  summary.count = static_cast<int>(q_errors.size());
  if (q_errors.empty()) return summary;
  summary.max = *std::max_element(q_errors.begin(), q_errors.end());
  summary.p50 = Percentile(q_errors, 50.0);
  summary.p95 = Percentile(std::move(q_errors), 95.0);
  return summary;
}

namespace {

/// Seed of the probe draws.
constexpr uint64_t kProbeSeed = 0xCA11BULL;

/// Stats of every node of a plan (logical or physical), derived bottom-up
/// under one view. Shared fragments are derived once.
void DeriveAllStats(const PlanNodePtr& root, const StatsView& view,
                    std::unordered_map<const PlanNode*, LogicalStats>* memo) {
  std::function<const LogicalStats&(const PlanNode*)> derive =
      [&](const PlanNode* node) -> const LogicalStats& {
    auto it = memo->find(node);
    if (it != memo->end()) return it->second;
    std::vector<const LogicalStats*> child_stats;
    child_stats.reserve(node->children.size());
    for (const PlanNodePtr& child : node->children) child_stats.push_back(&derive(child.get()));
    return memo->emplace(node, DeriveStats(node->op, child_stats, view)).first->second;
  };
  derive(root.get());
}

/// One deterministic probe: Output(Select(Get)) over one stream of one set,
/// with a comparison predicate whose literal is drawn from the *current*
/// true domain — so growing domains genuinely probe beyond stale summaries.
struct Probe {
  Job job;
  const PlanNode* get_node = nullptr;
  const PlanNode* select_node = nullptr;
};

Probe MakeProbe(const Catalog& catalog, int set_id, int probe_index, int day, uint64_t seed) {
  const StreamSet& set = catalog.stream_set(set_id);
  Probe probe;
  auto universe = std::make_shared<ColumnUniverse>();
  std::vector<ColumnId> cols;
  cols.reserve(set.columns.size());
  for (size_t c = 0; c < set.columns.size(); ++c) {
    cols.push_back(universe->GetOrAddBaseColumn(set_id, static_cast<int>(c), set.columns[c].name));
  }

  Pcg32 rng(HashCombine(seed, HashCombine(static_cast<uint64_t>(set_id),
                                          static_cast<uint64_t>(probe_index))),
            /*stream=*/43);
  int col_index = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(cols.size()) - 1));
  int64_t domain = std::max<int64_t>(1, catalog.TrueDistinctCount(set_id, col_index, day));

  ExprPtr predicate;
  switch (probe_index % 3) {
    case 0: {
      // Hot-value equality: under skew these values carry most of the mass.
      int64_t v = rng.UniformInt(1, std::min<int64_t>(10, domain));
      predicate = Expr::Cmp(cols[static_cast<size_t>(col_index)], CmpOp::kEq, v);
      break;
    }
    case 1: {
      // Range probe at a random point of the current domain.
      int64_t v = rng.UniformInt(1, domain);
      predicate = Expr::Cmp(cols[static_cast<size_t>(col_index)], CmpOp::kLe, v);
      break;
    }
    default: {
      // Equality anywhere in the current domain — may land on values born
      // after a stale summary's build day.
      int64_t v = rng.UniformInt(1, domain);
      predicate = Expr::Cmp(cols[static_cast<size_t>(col_index)], CmpOp::kEq, v);
      break;
    }
  }

  Operator get;
  get.kind = OpKind::kGet;
  get.stream_id = set.stream_ids[static_cast<size_t>(probe_index) % set.stream_ids.size()];
  get.stream_set_id = set_id;
  get.scan_columns = cols;
  PlanNodePtr get_plan = PlanNode::Make(std::move(get));

  Operator select;
  select.kind = OpKind::kSelect;
  select.predicate = std::move(predicate);
  PlanNodePtr select_plan = PlanNode::Make(std::move(select), {get_plan});

  Operator output;
  output.kind = OpKind::kOutput;
  PlanNodePtr root = PlanNode::Make(std::move(output), {select_plan});

  probe.get_node = get_plan.get();
  probe.select_node = select_plan.get();
  probe.job.name = "probe_" + set.name + "_" + std::to_string(probe_index);
  probe.job.day = day;
  probe.job.columns = std::move(universe);
  probe.job.root = std::move(root);
  return probe;
}

/// Estimated cost components of a compiled plan under one model's beliefs:
/// total compute seconds, total IO seconds, and the physical operator count
/// (the startup/coordination proxy).
struct EstCostComponents {
  double cpu = 0.0;
  double io = 0.0;
  double ops = 0.0;
};

EstCostComponents EstimateComponents(const PlanNodePtr& root, const StatsView& view,
                                     const CostParams& params) {
  EstCostComponents out;
  std::unordered_map<const PlanNode*, LogicalStats> memo;
  DeriveAllStats(root, view, &memo);
  std::function<void(const PlanNode*, std::unordered_map<const PlanNode*, bool>*)> walk =
      [&](const PlanNode* node, std::unordered_map<const PlanNode*, bool>* seen) {
        if ((*seen)[node]) return;
        (*seen)[node] = true;
        std::vector<const LogicalStats*> child_stats;
        child_stats.reserve(node->children.size());
        for (const PlanNodePtr& child : node->children) {
          walk(child.get(), seen);
          child_stats.push_back(&memo.at(child.get()));
        }
        OpCost cost = ComputeOpCost(node->op, memo.at(node), child_stats,
                                    std::max(1, node->op.dop), params, view);
        out.cpu += cost.cpu;
        out.io += cost.io;
        out.ops += 1.0;
      };
  std::unordered_map<const PlanNode*, bool> seen;
  walk(root.get(), &seen);
  return out;
}

/// Solves the 3x3 normal equations A w = b by Gaussian elimination.
/// Returns false when A is (near-)singular.
bool Solve3x3(double a[3][3], double b[3], double w[3]) {
  int perm[3] = {0, 1, 2};
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::abs(a[perm[r]][col]) > std::abs(a[perm[pivot]][col])) pivot = r;
    }
    std::swap(perm[col], perm[pivot]);
    double lead = a[perm[col]][col];
    if (std::abs(lead) < 1e-12) return false;
    for (int r = col + 1; r < 3; ++r) {
      double f = a[perm[r]][col] / lead;
      for (int c = col; c < 3; ++c) a[perm[r]][c] -= f * a[perm[col]][c];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  for (int col = 2; col >= 0; --col) {
    double sum = b[perm[col]];
    for (int c = col + 1; c < 3; ++c) sum -= a[perm[col]][c] * w[c];
    w[col] = sum / a[perm[col]][col];
  }
  return true;
}

}  // namespace

CalibrationReport RunCalibration(const Catalog& catalog, const StatsModel& model,
                                 const CalibrationOptions& options) {
  CalibrationReport report;
  report.model_name = model.name();
  report.day = options.day;

  Optimizer optimizer(&catalog);
  SimulatorOptions sim_options;
  sim_options.deterministic = true;
  ExecutionSimulator simulator(&catalog, sim_options);
  const CostParams beliefs = CostParams::OptimizerBeliefs();

  std::vector<double> q_errors;
  // Regression samples: true runtime against estimated (cpu, io, op-count).
  std::vector<EstCostComponents> xs;
  std::vector<double> runtimes;
  std::vector<double> est_costs;

  int sets = std::min(catalog.num_stream_sets(), options.max_sets);
  for (int set_id = 0; set_id < sets; ++set_id) {
    const StreamSet& set = catalog.stream_set(set_id);
    if (set.stream_ids.empty() || set.columns.empty()) continue;
    for (int p = 0; p < options.probes_per_set; ++p) {
      Probe probe = MakeProbe(catalog, set_id, p, options.day, kProbeSeed);

      EstimatedStatsView est(&catalog, probe.job.columns.get(), probe.job.day, &model);
      TrueStatsView truth(&catalog, &probe.job);
      std::unordered_map<const PlanNode*, LogicalStats> est_memo;
      std::unordered_map<const PlanNode*, LogicalStats> true_memo;
      DeriveAllStats(probe.job.root, est, &est_memo);
      DeriveAllStats(probe.job.root, truth, &true_memo);

      ProbeRecord record;
      record.name = probe.job.name;
      record.estimated_rows = est_memo.at(probe.select_node).rows;
      record.true_rows = true_memo.at(probe.select_node).rows;
      double est_sel = record.estimated_rows / std::max(1.0, est_memo.at(probe.get_node).rows);
      double true_sel = record.true_rows / std::max(1.0, true_memo.at(probe.get_node).rows);
      record.selectivity_q_error = QError(est_sel, true_sel);
      q_errors.push_back(record.selectivity_q_error);
      report.probes.push_back(std::move(record));

      // Cost-fit sample: compile the probe and execute the physical plan.
      Result<CompiledPlan> compiled = optimizer.Compile(probe.job, RuleConfig::Default());
      if (!compiled.ok()) continue;
      ExecMetrics metrics = simulator.Execute(probe.job, compiled.value().root);
      if (metrics.failed || metrics.runtime <= 0.0) continue;
      xs.push_back(EstimateComponents(compiled.value().root, est, beliefs));
      runtimes.push_back(metrics.runtime);
      est_costs.push_back(compiled.value().est_cost);
    }
  }
  report.selectivity_q_error = SummarizeQErrors(q_errors);

  // Least-squares fit: runtime ~ w0*cpu + w1*io + w2*ops.
  if (!runtimes.empty()) {
    double a[3][3] = {{0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.0}};
    double b[3] = {0.0, 0.0, 0.0};
    for (size_t i = 0; i < runtimes.size(); ++i) {
      double x[3] = {xs[i].cpu, xs[i].io, xs[i].ops};
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) a[r][c] += x[r] * x[c];
        b[r] += x[r] * runtimes[i];
      }
    }
    double w[3] = {1.0, 1.0, 1.0};
    if (Solve3x3(a, b, w)) {
      report.fit.cpu_scale = std::max(0.0, w[0]);
      report.fit.io_scale = std::max(0.0, w[1]);
      // The per-operator fixed cost maps onto the startup knob relative to
      // the optimizer's believed stage-launch latency.
      report.fit.startup_scale = std::max(0.0, w[2] / std::max(1e-9, beliefs.vertex_startup));
    }
    double before = 0.0;
    double after = 0.0;
    for (size_t i = 0; i < runtimes.size(); ++i) {
      double predicted = report.fit.cpu_scale * xs[i].cpu + report.fit.io_scale * xs[i].io +
                         report.fit.startup_scale * beliefs.vertex_startup * xs[i].ops;
      before += std::abs(est_costs[i] - runtimes[i]) / runtimes[i];
      after += std::abs(predicted - runtimes[i]) / runtimes[i];
    }
    report.fit.mean_rel_error_before = before / static_cast<double>(runtimes.size());
    report.fit.mean_rel_error_after = after / static_cast<double>(runtimes.size());
  }
  return report;
}

std::string CalibrationReport::Serialize() const {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "calibration v1 model=%s day=%d probes=%d\n",
                model_name.c_str(), day, static_cast<int>(probes.size()));
  out << buf;
  // `probes` is an ordered vector; emission order is probe-generation order.
  for (const ProbeRecord& p : probes) {
    // qsteer-lint: allow(serialization-contract) human-readable report, never parsed back
    std::snprintf(buf, sizeof(buf), "probe %s est=%.6g true=%.6g q=%.6g\n", p.name.c_str(),
                  p.estimated_rows, p.true_rows, p.selectivity_q_error);
    out << buf;
  }
  // qsteer-lint: allow(serialization-contract) human-readable report, never parsed back
  std::snprintf(buf, sizeof(buf), "selectivity_q count=%d p50=%.6g p95=%.6g max=%.6g\n",
                selectivity_q_error.count, selectivity_q_error.p50, selectivity_q_error.p95,
                selectivity_q_error.max);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                // qsteer-lint: allow(serialization-contract) human-readable report, never parsed back
                "fit cpu=%.6g io=%.6g startup=%.6g err_before=%.6g err_after=%.6g\n",
                fit.cpu_scale, fit.io_scale, fit.startup_scale, fit.mean_rel_error_before,
                fit.mean_rel_error_after);
  out << buf;
  return out.str();
}

QErrorSummary PlanCardinalityQError(const Catalog& catalog, const Job& job,
                                    const PlanNodePtr& physical_root) {
  QErrorSummary summary;
  if (physical_root == nullptr) return summary;
  EstimatedStatsView est(&catalog, job.columns.get(), job.day);
  TrueStatsView truth(&catalog, &job);
  std::unordered_map<const PlanNode*, LogicalStats> est_memo;
  std::unordered_map<const PlanNode*, LogicalStats> true_memo;
  DeriveAllStats(physical_root, est, &est_memo);
  DeriveAllStats(physical_root, truth, &true_memo);
  std::vector<double> q_errors;
  q_errors.reserve(est_memo.size());
  // Collect in deterministic plan order (VisitPlan, not map order).
  VisitPlan(physical_root, [&](const PlanNode& node) {
    q_errors.push_back(
        QError(std::max(1.0, est_memo.at(&node).rows), std::max(1.0, true_memo.at(&node).rows),
               /*floor=*/1.0));
  });
  return SummarizeQErrors(std::move(q_errors));
}

}  // namespace qsteer
