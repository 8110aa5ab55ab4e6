// Per-operator cost formulas, shared by the optimizer's estimated cost (the
// SCOPE cost model approximates runtime latency, paper §3.1) and the
// execution simulator's true runtime model. Evaluating the same formulas
// against EstimatedStatsView vs TrueStatsView yields estimated cost vs real
// behaviour; additional truth-only effects (partition skew, spills computed
// from true sizes) are folded in through the view's TopValueShare and the
// view-dependent row counts.
#ifndef QSTEER_OPTIMIZER_COST_MODEL_H_
#define QSTEER_OPTIMIZER_COST_MODEL_H_

#include <vector>

#include "optimizer/stats.h"
#include "plan/operator.h"

namespace qsteer {

/// Work-rate constants. Units: seconds of single-vertex time per row/byte.
struct CostParams {
  double read_per_byte = 1.0e-8;    // ~100 MB/s sequential read
  double write_per_byte = 2.0e-8;   // ~50 MB/s write
  double net_per_byte = 2.5e-8;     // ~40 MB/s shuffle bandwidth
  double cpu_per_cmp = 5.0e-8;      // per row per predicate atom
  double cpu_per_projection = 4.0e-8;
  double hash_build_per_row = 3.0e-7;
  double hash_probe_per_row = 1.5e-7;
  double merge_per_row = 8.0e-8;
  double loop_per_row_pair = 2.0e-8;
  double seek_per_row = 5.0e-4;     // index-apply random access
  double agg_update_per_row = 2.5e-7;
  double stream_agg_per_row = 8.0e-8;
  double sort_per_row_log = 3.0e-8;  // * log2(rows)
  double topn_per_row = 6.0e-8;
  double emit_per_row = 5.0e-8;
  double udo_per_row_unit = 4.0e-7;  // * operator cost-per-row factor
  double vertex_startup = 1.2;       // stage launch latency, seconds
  double coordination_per_vertex = 0.012;  // scheduling latency per vertex
  double memory_per_vertex_bytes = 6.0e8;
  double spill_penalty = 3.5;  // hash/sort work multiplier when spilling
  double virtual_dataset_overhead = 0.05;

  /// The parameters the optimizer uses for costing. Identical work rates but
  /// optimistic about parallelism overheads — one of the paper's systematic
  /// cost-model errors (the real cluster pays more for wide stages).
  static constexpr CostParams OptimizerBeliefs();
  /// The parameters the simulated cluster actually exhibits.
  static constexpr CostParams ClusterTruth() { return CostParams{}; }
};

constexpr CostParams CostParams::OptimizerBeliefs() {
  CostParams p;
  // The optimizer is optimistic about stage startup and scheduling: it
  // under-costs very wide stages (one of the systematic model errors that
  // make "low cost, high runtime" jobs exist — paper Figure 5).
  p.vertex_startup = 0.6;
  p.coordination_per_vertex = 0.004;
  return p;
}

/// Local (per-operator) cost decomposition.
struct OpCost {
  /// Wall-clock seconds contributed by this operator at its chosen DOP.
  double latency = 0.0;
  /// Total compute seconds summed over all vertices.
  double cpu = 0.0;
  /// Total IO seconds (read + write + network) summed over all vertices.
  double io = 0.0;
  /// Bytes crossing the network or disk in this operator.
  double bytes_moved = 0.0;
};

/// Computes one operator's local cost given its derived output stats and
/// children stats, at the given degree of parallelism.
OpCost ComputeOpCost(const Operator& op, const LogicalStats& output,
                     const std::vector<const LogicalStats*>& children, int dop,
                     const CostParams& params, const StatsView& view);

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_COST_MODEL_H_
