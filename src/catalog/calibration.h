// Cost-model calibration harness.
//
// Generates deterministic probe queries against a catalog, derives their
// estimated cardinalities under a StatsModel, executes them in the
// simulator for ground truth, and reports:
//   * selectivity q-error percentiles (how wrong the model's distribution
//     beliefs are — the dial the steering dynamics live on), and
//   * fitted cost-model weights (least-squares fit of true runtime against
//     the optimizer's estimated cpu/io/startup components).
//
// Probe generation is a pure function of (seed, catalog, day): every draw
// comes from a Pcg32 keyed on (seed, set, probe ordinal), so shard/parallel
// runs and repeated invocations produce bit-identical reports.
#ifndef QSTEER_CATALOG_CALIBRATION_H_
#define QSTEER_CATALOG_CALIBRATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/stats_model.h"
#include "plan/job.h"

namespace qsteer {

struct CalibrationOptions {
  /// Serve day: probes run on this day; stale models lag behind it.
  int day = 3;
  int probes_per_set = 6;
  /// Cap on probed stream sets (smoke runs probe a handful).
  int max_sets = 24;
};

/// q-error = max(est/true, true/est); 1.0 is a perfect estimate.
double QError(double estimated, double truth, double floor = 1e-12);

struct QErrorSummary {
  int count = 0;
  double p50 = 1.0;
  double p95 = 1.0;
  double max = 1.0;
};

QErrorSummary SummarizeQErrors(std::vector<double> q_errors);

/// One probe query's estimate-vs-truth outcome.
struct ProbeRecord {
  std::string name;
  double estimated_rows = 0.0;
  double true_rows = 0.0;
  /// q-error of the probe's *selectivity* (output/input fraction), which
  /// isolates distribution-modeling error from row-count staleness.
  double selectivity_q_error = 1.0;
};

/// Least-squares fit of true runtime against the optimizer's estimated cost
/// components. The fit is reported; the optimizer keeps costing with
/// CostParams::OptimizerBeliefs.
struct CostFit {
  double cpu_scale = 1.0;
  double io_scale = 1.0;
  double startup_scale = 1.0;
  /// Mean |predicted - true| / true runtime, before (the optimizer's own
  /// est_cost) and after (the fitted combination).
  double mean_rel_error_before = 0.0;
  double mean_rel_error_after = 0.0;
};

struct CalibrationReport {
  std::string model_name;
  int day = 0;
  std::vector<ProbeRecord> probes;
  QErrorSummary selectivity_q_error;
  CostFit fit;

  /// Canonical deterministic text form; identical across repeated runs on
  /// the same (seed, catalog, day) — the smoke mode's purity check.
  std::string Serialize() const;
};

/// Runs the full harness for one model. Pure in (options.seed, catalog,
/// options.day); does not mutate or consult the catalog's active model.
CalibrationReport RunCalibration(const Catalog& catalog, const StatsModel& model,
                                 const CalibrationOptions& options = CalibrationOptions());

/// Per-node estimate-vs-truth cardinality q-error of one compiled plan
/// under the catalog's *active* model (p50/p95/max over all plan nodes).
/// Powers the `qsteer analyze` gap summary.
QErrorSummary PlanCardinalityQError(const Catalog& catalog, const Job& job,
                                    const PlanNodePtr& physical_root);

}  // namespace qsteer

#endif  // QSTEER_CATALOG_CALIBRATION_H_
