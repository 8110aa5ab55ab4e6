#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "exec/reference_executor.h"

namespace perfbench {

Metric SetupMetric(const std::vector<double>& setup_seconds) {
  std::vector<double> sorted = setup_seconds;
  std::sort(sorted.begin(), sorted.end());
  double median = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  if (!sorted.empty() && sorted.size() % 2 == 0) {
    median = (sorted[sorted.size() / 2 - 1] + sorted[sorted.size() / 2]) / 2.0;
  }
  return Metric{"setup_s", "s", median, static_cast<int64_t>(sorted.size())};
}

void AddLatencyMetrics(const std::string& prefix, const std::vector<double>& samples_ms,
                       std::vector<Metric>* out) {
  const std::pair<const char*, double> kPercentiles[] = {
      {"p50_ms", 0.50}, {"p90_ms", 0.90}, {"p95_ms", 0.95}, {"p99_ms", 0.99}};
  for (const auto& [name, q] : kPercentiles) {
    std::optional<double> value = Percentile(samples_ms, q);
    if (value.has_value()) {
      out->push_back(Metric{prefix + name, "ms", *value, static_cast<int64_t>(samples_ms.size())});
    }
  }
}

void FreshDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

int64_t BatchSize(const RunOptions& run, double reference_ops_per_s) {
  return std::max(MinSamplesFor(0.90),
                  static_cast<int64_t>(std::llround(0.7 * run.seconds * reference_ops_per_s)));
}

bool BatchDone(const RunOptions& run, int64_t batch, int64_t ops, int64_t start_ns) {
  if (ops >= batch) return true;
  return ops >= MinSamplesFor(0.90) && SecondsSince(start_ns) >= run.seconds;
}

std::string ReferenceMismatch(const qsteer::Catalog& catalog, const qsteer::Job& job,
                              const std::vector<qsteer::PlanNodePtr>& plans) {
  std::vector<qsteer::ColumnId> restrict_to;
  qsteer::VisitPlan(job.root, [&](const qsteer::PlanNode& node) {
    if (node.op.kind == qsteer::OpKind::kTop) restrict_to = node.op.sort_keys;
  });
  qsteer::ReferenceExecutor executor(&catalog);
  std::string expected = executor.Execute(job, job.root).Fingerprint(restrict_to);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (executor.Execute(job, plans[i]).Fingerprint(restrict_to) != expected) {
      return job.name + ": plan " + std::to_string(i) + " returns other rows than the logical plan";
    }
  }
  return "";
}

}  // namespace perfbench
