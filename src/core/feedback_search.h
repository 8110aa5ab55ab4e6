// Feedback-guided configuration search (paper §8 future work: "use feedback
// from the execution results to guide future iterations of the
// configuration search").
//
// Instead of executing the 10 cheapest candidates in one shot, the search
// runs in rounds: each executed configuration's runtime updates per-rule
// scores (how much disabling each span rule correlates with improvement),
// and the next round samples disables proportionally to those scores.
#ifndef QSTEER_CORE_FEEDBACK_SEARCH_H_
#define QSTEER_CORE_FEEDBACK_SEARCH_H_

#include <vector>

#include "core/pipeline.h"

namespace qsteer {

struct FeedbackSearchOptions {
  int rounds = 4;
  int configs_per_round = 4;
};

struct FeedbackSearchResult {
  double default_runtime = 0.0;
  /// All executed outcomes, in execution order.
  std::vector<ConfigOutcome> executed;
  /// Best runtime observed after each round (including the default).
  std::vector<double> best_after_round;
  /// The winning configuration (the default when nothing beat it).
  RuleConfig best_config;
  double best_runtime = 0.0;
  int executions = 0;

  double BestImprovementPct() const {
    return default_runtime > 0.0 ? (best_runtime - default_runtime) / default_runtime * 100.0
                                 : 0.0;
  }
};

class FeedbackSearch {
 public:
  FeedbackSearch(const Optimizer* optimizer, const ExecutionSimulator* simulator,
                 FeedbackSearchOptions options = {});

  /// Runs the round-based search for one job.
  FeedbackSearchResult Run(const Job& job) const;

 private:
  const Optimizer* optimizer_;
  const ExecutionSimulator* simulator_;
  FeedbackSearchOptions options_;
};

}  // namespace qsteer

#endif  // QSTEER_CORE_FEEDBACK_SEARCH_H_
