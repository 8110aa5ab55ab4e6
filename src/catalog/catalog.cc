#include "catalog/catalog.h"

#include <cmath>

#include "catalog/stats_model.h"
#include "common/hash.h"

namespace qsteer {

double StreamSet::CorrelationBetween(int col_a, int col_b) const {
  for (const CorrelationSpec& c : correlations) {
    if ((c.column_a == col_a && c.column_b == col_b) ||
        (c.column_a == col_b && c.column_b == col_a)) {
      return c.strength;
    }
  }
  return 0.0;
}

int Catalog::AddStreamSet(StreamSet set) {
  int id = static_cast<int>(sets_.size());
  set.id = id;
  set_by_name_[set.name] = id;
  sets_.push_back(std::make_unique<StreamSet>(std::move(set)));
  return id;
}

Result<int> Catalog::AddStream(int stream_set_id, const std::string& name, int64_t base_rows,
                               int partition_count) {
  if (stream_set_id < 0 || stream_set_id >= num_stream_sets()) {
    return Status::InvalidArgument("unknown stream set id");
  }
  if (stream_by_name_.count(name) != 0) {
    return Status::InvalidArgument("duplicate stream name: " + name);
  }
  Stream s;
  s.name = name;
  s.stream_set_id = stream_set_id;
  s.variant_index = static_cast<int>(sets_[static_cast<size_t>(stream_set_id)]->stream_ids.size());
  s.base_rows = base_rows;
  s.partition_count = partition_count;
  int id = static_cast<int>(streams_.size());
  streams_.push_back(s);
  sets_[static_cast<size_t>(stream_set_id)]->stream_ids.push_back(id);
  stream_by_name_[name] = id;
  return id;
}

const StreamSet* Catalog::FindStreamSet(const std::string& name) const {
  auto it = set_by_name_.find(name);
  if (it == set_by_name_.end()) return nullptr;
  return sets_[static_cast<size_t>(it->second)].get();
}

const Stream* Catalog::FindStream(const std::string& name) const {
  auto it = stream_by_name_.find(name);
  if (it == stream_by_name_.end()) return nullptr;
  return &streams_[static_cast<size_t>(it->second)];
}

int64_t Catalog::TrueRowCount(int stream_id, int day) const {
  const Stream& s = streams_[static_cast<size_t>(stream_id)];
  const StreamSet& set = *sets_[static_cast<size_t>(s.stream_set_id)];
  double rows = static_cast<double>(s.base_rows) * std::pow(1.0 + set.daily_growth, day);
  // Deterministic per-(stream, day) jitter so daily inputs genuinely differ.
  Pcg32 rng(HashCombine(HashString(s.name), static_cast<uint64_t>(day)), /*stream=*/17);
  rows *= std::exp(0.08 * rng.NextGaussian());
  return std::max<int64_t>(1, static_cast<int64_t>(rows));
}

int64_t Catalog::TrueDistinctCount(int stream_set_id, int column_index, int day) const {
  const StreamSet& set = *sets_[static_cast<size_t>(stream_set_id)];
  const ColumnDef& col = set.columns[static_cast<size_t>(column_index)];
  if (col.domain_growth <= 0.0 || day <= 0) return col.distinct_count;
  double grown = static_cast<double>(col.distinct_count) * std::pow(1.0 + col.domain_growth, day);
  return std::max<int64_t>(1, static_cast<int64_t>(grown));
}

double Catalog::TrueZipfSkew(int stream_set_id, int column_index, int day) const {
  const StreamSet& set = *sets_[static_cast<size_t>(stream_set_id)];
  const ColumnDef& col = set.columns[static_cast<size_t>(column_index)];
  if (col.skew_drift == 0.0 || day <= 0) return col.zipf_skew;
  return std::max(0.0, col.zipf_skew + col.skew_drift * day);
}

const StatsModel& Catalog::stats_model() const {
  static const ScalarStatsModel kScalar;
  return stats_model_ != nullptr ? *stats_model_ : kScalar;
}

OptimizerStreamStats Catalog::GetOptimizerStats(int stream_id, int day) const {
  const Stream& s = streams_[static_cast<size_t>(stream_id)];
  const StreamSet& set = *sets_[static_cast<size_t>(s.stream_set_id)];
  OptimizerStreamStats stats;
  // The optimizer's row count is the truth as of `staleness_days` ago, with
  // an extra deterministic sampling error on top.
  int stale_day = std::max(0, day - stats_error_.staleness_days);
  double rows = static_cast<double>(TrueRowCount(stream_id, stale_day));
  Pcg32 rng(HashCombine(HashString(s.name), 0x5eedULL), /*stream=*/23);
  rows *= std::exp(stats_error_.rowcount_error_sigma * rng.NextGaussian());
  stats.row_count = std::max<int64_t>(1, static_cast<int64_t>(rows));

  stats.distinct_counts.reserve(set.columns.size());
  double width = 0.0;
  for (const ColumnDef& col : set.columns) {
    double ndv = static_cast<double>(col.distinct_count);
    // Per-column NDV sampling error, deterministic in (stream set, column).
    Pcg32 col_rng(HashCombine(HashString(set.name), HashString(col.name)), /*stream=*/31);
    ndv *= std::exp(stats_error_.ndv_error_sigma * col_rng.NextGaussian());
    ndv = std::min(ndv, static_cast<double>(stats.row_count));
    stats.distinct_counts.push_back(std::max(1.0, ndv));
    width += col.avg_width;
  }
  stats.avg_row_width = width;
  return stats;
}

double Catalog::TrueRowWidth(int stream_set_id) const {
  const StreamSet& set = *sets_[static_cast<size_t>(stream_set_id)];
  double width = 0.0;
  for (const ColumnDef& col : set.columns) width += col.avg_width;
  return width;
}

}  // namespace qsteer
