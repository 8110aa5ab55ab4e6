// Job featurization for learned configuration selection (paper §7.2).
//
// Feature vector layout (fixed per job group):
//   (1) job-level: log estimated input size, input-hash one-hot over 50
//       hashed bins, template-hash one-hot over 50 hashed bins;
//   (2) query-graph: per logical operator kind, the operator count and the
//       average log-cardinality estimate;
//   (3) per candidate configuration (K slots): log estimated plan cost and
//       the RuleDiff-vs-default hashed into signed bins.
// Continuous features are later min-max scaled by the training harness.
#ifndef QSTEER_CORE_FEATURIZE_H_
#define QSTEER_CORE_FEATURIZE_H_

#include <vector>

#include "core/rule_diff.h"
#include "optimizer/optimizer.h"

namespace qsteer {

class JobFeaturizer {
 public:
  explicit JobFeaturizer(const Catalog* catalog);

  /// Job-level + query-graph features (sections 1-2 of the layout).
  std::vector<double> JobFeatures(const Job& job) const;

  /// Candidate-slot features (section 3) for one compiled alternative.
  std::vector<double> ConfigFeatures(const CompiledPlan& plan,
                                     const RuleDiff& diff_vs_default) const;

  /// Full vector: job features + K candidate slots (missing candidates are
  /// zero-padded so every sample in a group has identical width).
  std::vector<double> Featurize(const Job& job, const std::vector<const CompiledPlan*>& plans,
                                const std::vector<const RuleDiff*>& diffs, int k_slots) const;

  int JobFeatureWidth() const;
  int ConfigFeatureWidth() const;

 private:
  const Catalog* catalog_;
};

}  // namespace qsteer

#endif  // QSTEER_CORE_FEATURIZE_H_
