#include "core/featurize.h"

#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "optimizer/stats.h"

namespace qsteer {

namespace {

/// Logical operator kinds featurized as graph slots (fixed order).
constexpr OpKind kGraphKinds[] = {
    OpKind::kGet,     OpKind::kSelect, OpKind::kProject, OpKind::kJoin,
    OpKind::kGroupBy, OpKind::kUnionAll, OpKind::kProcess, OpKind::kTop,
    OpKind::kWindow,  OpKind::kSample,
};
constexpr int kNumGraphKinds = static_cast<int>(std::size(kGraphKinds));

int GraphSlot(OpKind kind) {
  for (int i = 0; i < kNumGraphKinds; ++i) {
    if (kGraphKinds[i] == kind) return i;
  }
  return -1;
}

double Log1p(double v) { return std::log1p(std::max(0.0, v)); }

/// Histogram-gated feature slots (appended only when the catalog's active
/// StatsModel is histogram-grade, so scalar feature vectors keep their
/// historical width): staleness age, max/mean hottest-bucket share of the
/// scanned columns, and mean log q-error of yesterday's row-count
/// estimates (past estimates are observable feedback in production).
constexpr int kNumHistogramFeatures = 4;

/// Hashed-bin count for large-alphabet categorical features (§7.2: 50).
constexpr int kHashBins = 50;
/// Signed hashed bins encoding each candidate's RuleDiff.
constexpr int kDiffBins = 24;

}  // namespace

JobFeaturizer::JobFeaturizer(const Catalog* catalog) : catalog_(catalog) {}

int JobFeaturizer::JobFeatureWidth() const {
  int width = 1 + 2 * kHashBins + 2 * kNumGraphKinds;
  if (catalog_->stats_model().histogram_grade()) width += kNumHistogramFeatures;
  return width;
}

int JobFeaturizer::ConfigFeatureWidth() const { return 1 + kDiffBins; }

std::vector<double> JobFeaturizer::JobFeatures(const Job& job) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(JobFeatureWidth()));

  // (1a) Estimated total input size under the optimizer's (stale) view.
  EstimatedStatsView est(catalog_, job.columns.get(), job.day);
  double input_bytes = 0.0;
  for (int stream : job.InputStreams()) {
    input_bytes += est.StreamRows(stream) * est.StreamWidth(stream);
  }
  out.push_back(Log1p(input_bytes));

  // (1b) Input hashes, hashed one-hot (a job reads several inputs; each
  // sets one bin).
  std::vector<double> input_bins(static_cast<size_t>(kHashBins), 0.0);
  for (uint64_t h : job.InputHashes()) {
    input_bins[static_cast<size_t>(HashToBin(h, kHashBins))] = 1.0;
  }
  out.insert(out.end(), input_bins.begin(), input_bins.end());

  // (1c) Template hash, hashed one-hot.
  std::vector<double> template_bins(static_cast<size_t>(kHashBins), 0.0);
  template_bins[static_cast<size_t>(HashToBin(job.TemplateHash(), kHashBins))] = 1.0;
  out.insert(out.end(), template_bins.begin(), template_bins.end());

  // (2) Query-graph features: per operator kind, count and mean
  // log-cardinality estimate, derived bottom-up over the logical DAG.
  std::unordered_map<const PlanNode*, LogicalStats> stats;
  std::vector<double> counts(kNumGraphKinds, 0.0);
  std::vector<double> log_cards(kNumGraphKinds, 0.0);
  VisitPlan(job.root, [&](const PlanNode& node) {
    std::vector<const LogicalStats*> child_stats;
    child_stats.reserve(node.children.size());
    for (const PlanNodePtr& child : node.children) {
      child_stats.push_back(&stats[child.get()]);
    }
    LogicalStats s = DeriveStats(node.op, child_stats, est);
    int slot = GraphSlot(node.op.kind);
    if (slot >= 0) {
      counts[static_cast<size_t>(slot)] += 1.0;
      log_cards[static_cast<size_t>(slot)] += Log1p(s.rows);
    }
    stats[&node] = std::move(s);
  });
  for (int i = 0; i < kNumGraphKinds; ++i) {
    out.push_back(counts[static_cast<size_t>(i)]);
    double mean = counts[static_cast<size_t>(i)] > 0.0
                      ? log_cards[static_cast<size_t>(i)] / counts[static_cast<size_t>(i)]
                      : 0.0;
    out.push_back(mean);
  }

  // (2b) Histogram-derived features, gated on the active model so scalar
  // vectors keep their historical width.
  const StatsModel& model = catalog_->stats_model();
  if (model.histogram_grade()) {
    out.push_back(static_cast<double>(model.staleness_days()));
    double max_top_share = 0.0;
    double sum_top_share = 0.0;
    double num_cols = 0.0;
    VisitPlan(job.root, [&](const PlanNode& node) {
      // Job roots are logical plans; scans are kGet nodes.
      if (node.op.kind != OpKind::kGet) return;
      for (ColumnId c : node.op.scan_columns) {
        ColumnDistribution dist = est.ColumnDist(c);
        if (dist.histogram == nullptr) continue;
        double share = dist.histogram->TopValueShare();
        max_top_share = std::max(max_top_share, share);
        sum_top_share += share;
        num_cols += 1.0;
      }
    });
    out.push_back(max_top_share);
    out.push_back(num_cols > 0.0 ? sum_top_share / num_cols : 0.0);
    // Mean log q-error of yesterday's per-stream row-count estimates.
    double sum_log_q = 0.0;
    double num_streams = 0.0;
    int yesterday = std::max(0, job.day - 1);
    for (int stream : job.InputStreams()) {
      double believed =
          static_cast<double>(model.StreamStats(*catalog_, stream, yesterday).row_count);
      double actual = static_cast<double>(catalog_->TrueRowCount(stream, yesterday));
      double q = std::max(believed / std::max(1.0, actual), actual / std::max(1.0, believed));
      sum_log_q += std::log(std::max(1.0, q));
      num_streams += 1.0;
    }
    out.push_back(num_streams > 0.0 ? sum_log_q / num_streams : 0.0);
  }
  return out;
}

std::vector<double> JobFeaturizer::ConfigFeatures(const CompiledPlan& plan,
                                                  const RuleDiff& diff_vs_default) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(ConfigFeatureWidth()));
  out.push_back(Log1p(plan.est_cost));
  std::vector<double> bins(static_cast<size_t>(kDiffBins), 0.0);
  for (RuleId id : diff_vs_default.only_in_default) {
    bins[static_cast<size_t>(HashToBin(static_cast<uint64_t>(id), kDiffBins))] -= 1.0;
  }
  for (RuleId id : diff_vs_default.only_in_new) {
    bins[static_cast<size_t>(HashToBin(static_cast<uint64_t>(id) ^ 0xd1f, kDiffBins))] +=
        1.0;
  }
  out.insert(out.end(), bins.begin(), bins.end());
  return out;
}

std::vector<double> JobFeaturizer::Featurize(const Job& job,
                                             const std::vector<const CompiledPlan*>& plans,
                                             const std::vector<const RuleDiff*>& diffs,
                                             int k_slots) const {
  std::vector<double> out = JobFeatures(job);
  out.reserve(out.size() + static_cast<size_t>(k_slots * ConfigFeatureWidth()));
  for (int k = 0; k < k_slots; ++k) {
    if (k < static_cast<int>(plans.size()) && plans[static_cast<size_t>(k)] != nullptr) {
      std::vector<double> slot =
          ConfigFeatures(*plans[static_cast<size_t>(k)], *diffs[static_cast<size_t>(k)]);
      out.insert(out.end(), slot.begin(), slot.end());
    } else {
      out.insert(out.end(), static_cast<size_t>(ConfigFeatureWidth()), 0.0);
    }
  }
  return out;
}

}  // namespace qsteer
