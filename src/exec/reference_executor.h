// Row-at-a-time reference executor over materialized data.
//
// Used by tests to establish *semantic* correctness: every transformation
// and implementation rule must preserve query results, so any plan the
// optimizer produces for a job — under any rule configuration — must return
// the same rows as the original logical plan. Benchmarks never use this
// path (they use the analytic simulator); the executor caps input sizes.
#ifndef QSTEER_EXEC_REFERENCE_EXECUTOR_H_
#define QSTEER_EXEC_REFERENCE_EXECUTOR_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/job.h"

namespace qsteer {

/// A small materialized relation: `columns[i]` names the i-th value of each
/// row. Column order is canonical (ascending ColumnId).
struct Relation {
  std::vector<ColumnId> columns;
  std::vector<std::vector<int64_t>> rows;

  int64_t num_rows() const { return static_cast<int64_t>(rows.size()); }

  /// Canonical fingerprint of the bag of rows, order-insensitive. With a
  /// non-empty `restrict_to`, only those columns contribute — used to
  /// compare Top-N results, whose non-key columns are tie-dependent.
  std::string Fingerprint(const std::vector<ColumnId>& restrict_to = {}) const;
};

class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const Catalog* catalog);

  /// Executes a logical or physical plan for the job; exchanges/sorts are
  /// result-neutral. Deterministic, including Top-N tie-breaking (sort keys
  /// then whole-row lexicographic).
  Relation Execute(const Job& job, const PlanNodePtr& root) const;

 private:
  const Catalog* catalog_;
};

}  // namespace qsteer

#endif  // QSTEER_EXEC_REFERENCE_EXECUTOR_H_
