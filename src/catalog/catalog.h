// Catalog of stream sets (logical tables) and streams (physical inputs).
//
// SCOPE jobs read *streams*: daily-partitioned physical inputs that share a
// logical schema (a "stream set"). Recurring jobs are the same script run
// over new streams every day (paper §3.1.1). The catalog therefore models:
//
//   StreamSet  — a logical schema + *true* generative statistics (skew,
//                pairwise correlations, per-day growth),
//   Stream     — one physical input of a set (a day/shard), with a true row
//                count per day.
//
// Crucially the catalog serves two views of statistics:
//   * TrueStats      — the generative ground truth, used by the execution
//                      simulator to compute actual cardinalities;
//   * OptimizerStats — the stale, simplified view (uniformity, independence,
//                      sampled NDVs, stale row counts) used by the
//                      optimizer's cardinality estimator.
// The gap between the two is the paper's reason alternative rule
// configurations can beat the default plan.
#ifndef QSTEER_CATALOG_CATALOG_H_
#define QSTEER_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace qsteer {

class StatsModel;

enum class ColumnType { kInt64, kDouble, kString };

/// True generative description of one column of a stream set.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  /// True number of distinct values.
  int64_t distinct_count = 1000;
  /// Zipf exponent of the value-frequency distribution; 0 = uniform.
  double zipf_skew = 0.0;
  double null_fraction = 0.0;
  /// Average width in bytes (for IO estimates).
  double avg_width = 8.0;
  /// Per-day fractional growth of the true value domain: on day d the column
  /// really holds distinct_count * (1 + domain_growth)^d values. New values
  /// are invisible to statistics built before they were born (the
  /// stale-histogram cliff). 0 = static domain.
  double domain_growth = 0.0;
  /// Per-day additive drift of the true Zipf exponent (hot keys get hotter
  /// over time). 0 = stationary skew.
  double skew_drift = 0.0;
};

/// True pairwise correlation between two columns of the same set.
/// strength in [0, 1]: 0 = independent, 1 = functionally determined.
struct CorrelationSpec {
  int column_a = 0;
  int column_b = 0;
  double strength = 0.0;
};

/// One physical input (a day or shard of a stream set).
struct Stream {
  std::string name;
  int stream_set_id = 0;
  int variant_index = 0;
  /// True row count on day 0; actual rows on day d are
  /// base_rows * (1 + daily_growth)^d with deterministic jitter.
  int64_t base_rows = 0;
  int partition_count = 8;
};

/// A logical table: schema + true statistics shared by all its streams.
struct StreamSet {
  std::string name;
  int id = 0;
  std::vector<ColumnDef> columns;
  std::vector<CorrelationSpec> correlations;
  /// Daily fractional growth of all member streams.
  double daily_growth = 0.0;
  /// Indices into Catalog::streams() of the member streams.
  std::vector<int> stream_ids;

  /// True correlation strength between two columns (0 when unspecified).
  double CorrelationBetween(int col_a, int col_b) const;
};

/// Optimizer-visible statistics of one stream on one day: stale and
/// simplified relative to the generative truth.
struct OptimizerStreamStats {
  int64_t row_count = 0;
  /// Per-column NDV as the optimizer believes it (sampling error applied).
  std::vector<double> distinct_counts;
  double avg_row_width = 0.0;
};

/// Knobs controlling how wrong the optimizer-visible statistics are.
struct StatsErrorModel {
  /// Optimizer row counts lag the truth by this many days of growth.
  int staleness_days = 3;
  /// Log-space sigma of the per-column NDV sampling error.
  double ndv_error_sigma = 0.6;
  /// Log-space sigma of an additional per-stream row-count error.
  double rowcount_error_sigma = 0.15;
};

class Catalog {
 public:
  Catalog() = default;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a stream set; returns its id.
  int AddStreamSet(StreamSet set);

  /// Registers a stream under an existing set; returns its id.
  Result<int> AddStream(int stream_set_id, const std::string& name, int64_t base_rows,
                        int partition_count);

  const StreamSet& stream_set(int id) const { return *sets_[static_cast<size_t>(id)]; }
  const Stream& stream(int id) const { return streams_[static_cast<size_t>(id)]; }
  int num_stream_sets() const { return static_cast<int>(sets_.size()); }
  int num_streams() const { return static_cast<int>(streams_.size()); }

  const StreamSet* FindStreamSet(const std::string& name) const;
  const Stream* FindStream(const std::string& name) const;

  /// True row count of a stream on the given day (deterministic).
  int64_t TrueRowCount(int stream_id, int day) const;

  /// True distinct-value count of a set's column on the given day
  /// (distinct_count grown by ColumnDef::domain_growth).
  int64_t TrueDistinctCount(int stream_set_id, int column_index, int day) const;

  /// True Zipf exponent of a set's column on the given day
  /// (zipf_skew shifted by ColumnDef::skew_drift, floored at 0).
  double TrueZipfSkew(int stream_set_id, int column_index, int day) const;

  /// The stale, error-injected statistics the optimizer sees for a stream on
  /// the given day. Deterministic in (stream, day).
  OptimizerStreamStats GetOptimizerStats(int stream_id, int day) const;

  /// True average row width of a set's schema, bytes.
  double TrueRowWidth(int stream_set_id) const;

  void set_stats_error_model(const StatsErrorModel& model) { stats_error_ = model; }
  const StatsErrorModel& stats_error_model() const { return stats_error_; }

  /// The statistics model serving the optimizer's estimated view. Defaults
  /// to the scalar stale-stats model; never null.
  const StatsModel& stats_model() const;
  void set_stats_model(std::shared_ptr<const StatsModel> model) {
    stats_model_ = std::move(model);
  }

 private:
  std::vector<std::unique_ptr<StreamSet>> sets_;
  std::vector<Stream> streams_;
  std::map<std::string, int> set_by_name_;
  std::map<std::string, int> stream_by_name_;
  StatsErrorModel stats_error_;
  std::shared_ptr<const StatsModel> stats_model_;
};

}  // namespace qsteer

#endif  // QSTEER_CATALOG_CATALOG_H_
