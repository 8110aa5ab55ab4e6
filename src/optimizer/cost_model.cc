#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace qsteer {

namespace {

double Log2Of(double x) { return std::log2(std::max(2.0, x)); }

/// Effective parallelism of key-partitioned work: the hottest partition
/// holds at least TopValueShare of the rows, so dop beyond 1/share buys
/// nothing. Views believing uniformity return share 0 -> full dop.
double EffectiveDop(int dop, const StatsView& view, const std::vector<ColumnId>& keys) {
  double d = std::max(1, dop);
  if (keys.empty()) return d;
  // Multiple partition keys spread the hot value of any single column.
  double share = view.TopValueShare(keys[0]);
  for (size_t i = 1; i < keys.size(); ++i) {
    share *= std::max(view.TopValueShare(keys[i]), 0.02);
  }
  if (share <= 0.0) return d;
  return std::min(d, 1.0 / std::max(share, 1.0 / d));
}

/// Spill multiplier for hash/sort work with the given resident bytes per
/// vertex.
double SpillFactor(double bytes, double eff_dop, const CostParams& params) {
  double per_vertex = bytes / std::max(1.0, eff_dop);
  if (per_vertex <= params.memory_per_vertex_bytes) return 1.0;
  // Extra passes grow with the overflow ratio, capped.
  double overflow = per_vertex / params.memory_per_vertex_bytes;
  return std::min(params.spill_penalty * (0.7 + 0.3 * overflow), params.spill_penalty * 3.0);
}

bool IsStageBoundary(OpKind kind) {
  switch (kind) {
    case OpKind::kRangeScan:
    case OpKind::kExchange:
    case OpKind::kSort:
    case OpKind::kPhysicalUnionAll:
    case OpKind::kOutputWriter:
      return true;
    default:
      return false;
  }
}

}  // namespace

OpCost ComputeOpCost(const Operator& op, const LogicalStats& output,
                     const std::vector<const LogicalStats*>& children, int dop,
                     const CostParams& params, const StatsView& view) {
  OpCost cost;
  double d = std::max(1, dop);
  double in_rows = children.empty() ? 0.0 : children[0]->rows;
  double in_bytes = children.empty() ? 0.0 : children[0]->Bytes();
  double compute = 0.0;  // single-thread seconds of CPU work
  double io = 0.0;       // single-thread seconds of IO work
  double eff_dop = d;

  switch (op.kind) {
    case OpKind::kRangeScan: {
      // Partition pruning reduces the bytes actually read.
      double bytes = output.Bytes() * std::clamp(op.partition_fraction, 0.0, 1.0);
      io = bytes * params.read_per_byte;
      compute = output.rows * params.emit_per_row;
      cost.bytes_moved = bytes;
      break;
    }
    case OpKind::kSampleScan: {
      // Pipelined sampling over the child scan: one cheap decision per
      // input row; the read cost lives in the child.
      compute = in_rows * params.cpu_per_cmp;
      break;
    }
    case OpKind::kFilter: {
      int atoms = op.predicate != nullptr ? std::max(1, op.predicate->CountAtoms()) : 1;
      compute = in_rows * atoms * params.cpu_per_cmp;
      break;
    }
    case OpKind::kCompute: {
      compute = in_rows * std::max<size_t>(1, op.projections.size()) * params.cpu_per_projection;
      break;
    }
    case OpKind::kHashJoin:
    case OpKind::kBroadcastHashJoin: {
      const LogicalStats& build = *children.at(op.build_side == 0 ? 1 : 0);
      const LogicalStats& probe = *children.at(op.build_side == 0 ? 0 : 1);
      // Broadcast joins keep the probe side's balanced partitioning; only
      // key-partitioned hash joins suffer partition skew.
      if (op.kind == OpKind::kHashJoin) {
        eff_dop = EffectiveDop(dop, view, op.left_keys);
      }
      double build_bytes = op.kind == OpKind::kBroadcastHashJoin
                               ? build.Bytes() * d  // full copy per vertex
                               : build.Bytes();
      double spill = SpillFactor(build_bytes, op.kind == OpKind::kBroadcastHashJoin ? d : eff_dop,
                                 params);
      compute = (build.rows * params.hash_build_per_row +
                 probe.rows * params.hash_probe_per_row) *
                    spill +
                output.rows * params.emit_per_row;
      if (spill > 1.0) io += build.Bytes() * (params.write_per_byte + params.read_per_byte);
      break;
    }
    case OpKind::kMergeJoin: {
      eff_dop = EffectiveDop(dop, view, op.left_keys);
      compute = (children.at(0)->rows + children.at(1)->rows) * params.merge_per_row +
                output.rows * params.emit_per_row;
      break;
    }
    case OpKind::kLoopJoin: {
      compute = children.at(0)->rows * children.at(1)->rows * params.loop_per_row_pair +
                output.rows * params.emit_per_row;
      break;
    }
    case OpKind::kIndexApplyJoin: {
      compute = children.at(0)->rows * params.seek_per_row + output.rows * params.emit_per_row;
      break;
    }
    case OpKind::kHashAgg: {
      eff_dop = EffectiveDop(dop, view, op.group_keys);
      double spill = SpillFactor(in_bytes, eff_dop, params);
      compute = in_rows * params.agg_update_per_row * spill + output.rows * params.emit_per_row;
      if (spill > 1.0) io += in_bytes * (params.write_per_byte + params.read_per_byte);
      break;
    }
    case OpKind::kStreamAgg: {
      eff_dop = EffectiveDop(dop, view, op.group_keys);
      compute = in_rows * params.stream_agg_per_row + output.rows * params.emit_per_row;
      break;
    }
    case OpKind::kPreHashAgg: {
      // Local partial aggregation: no shuffle, no skew exposure.
      compute = in_rows * params.agg_update_per_row * 0.7 + output.rows * params.emit_per_row;
      break;
    }
    case OpKind::kPhysicalUnionAll: {
      double bytes = 0.0;
      for (const LogicalStats* child : children) bytes += child->Bytes();
      // Concatenation rewrites the data into a fresh combined stream.
      io = bytes * (params.read_per_byte + params.write_per_byte);
      compute = output.rows * params.emit_per_row;
      cost.bytes_moved = bytes;
      break;
    }
    case OpKind::kVirtualDataset: {
      // Metadata-only union: downstream vertices read source partitions
      // directly.
      cost.latency = params.virtual_dataset_overhead;
      return cost;
    }
    case OpKind::kSortedUnionAll: {
      compute = output.rows * params.merge_per_row;
      break;
    }
    case OpKind::kSort: {
      double spill = SpillFactor(in_bytes, d, params);
      compute = in_rows * Log2Of(in_rows / d) * params.sort_per_row_log * spill;
      if (spill > 1.0) io += in_bytes * (params.write_per_byte + params.read_per_byte);
      break;
    }
    case OpKind::kTopNSort: {
      compute = in_rows * Log2Of(static_cast<double>(std::max<int64_t>(2, op.limit))) *
                params.topn_per_row;
      break;
    }
    case OpKind::kTopNHeap: {
      compute = in_rows * params.topn_per_row;
      break;
    }
    case OpKind::kExchange: {
      double bytes = in_bytes;
      switch (op.exchange) {
        case ExchangeKind::kRepartition: {
          eff_dop = EffectiveDop(dop, view, op.exchange_keys);
          io = bytes * params.net_per_byte;
          compute = in_rows * params.emit_per_row;
          cost.bytes_moved = bytes;
          break;
        }
        case ExchangeKind::kGather: {
          eff_dop = 1.0;
          io = bytes * params.net_per_byte;
          compute = in_rows * params.emit_per_row * 0.5;
          cost.bytes_moved = bytes;
          break;
        }
        case ExchangeKind::kBroadcast: {
          // Every one of the `dop` consumers receives the full input.
          double total = bytes * d;
          io = total * params.net_per_byte;
          compute = in_rows * params.emit_per_row;
          cost.bytes_moved = total;
          // Fan-out trees parallelize the sends.
          eff_dop = std::max(1.0, d / Log2Of(d + 1.0));
          break;
        }
      }
      break;
    }
    case OpKind::kProcessVertex: {
      compute = in_rows * view.ProcessCostPerRow(op) * params.udo_per_row_unit;
      break;
    }
    case OpKind::kWindowSegment: {
      eff_dop = EffectiveDop(dop, view, op.window_keys);
      compute = in_rows * params.stream_agg_per_row * 1.5;
      break;
    }
    case OpKind::kOutputWriter: {
      double bytes = output.Bytes();
      io = bytes * params.write_per_byte;
      cost.bytes_moved = bytes;
      break;
    }
    default: {
      // Logical operators have no physical cost.
      return cost;
    }
  }

  cost.cpu = compute;
  cost.io += io;
  double work = compute + io;
  cost.latency = work / std::max(1.0, eff_dop) + params.coordination_per_vertex * d;
  if (IsStageBoundary(op.kind)) cost.latency += params.vertex_startup;
  return cost;
}

}  // namespace qsteer
