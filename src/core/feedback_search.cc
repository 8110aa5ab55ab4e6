#include "core/feedback_search.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/random.h"
#include "core/span.h"

namespace qsteer {

namespace {

/// Softmax temperature over per-rule scores (higher = more exploration).
constexpr double kTemperature = 0.5;
constexpr uint64_t kSeed = 1;

}  // namespace

FeedbackSearch::FeedbackSearch(const Optimizer* optimizer,
                               const ExecutionSimulator* simulator,
                               FeedbackSearchOptions options)
    : optimizer_(optimizer), simulator_(simulator), options_(options) {}

FeedbackSearchResult FeedbackSearch::Run(const Job& job) const {
  FeedbackSearchResult result;
  Result<CompiledPlan> default_plan = optimizer_->Compile(job, RuleConfig::Default());
  if (!default_plan.ok()) return result;
  uint64_t nonce = kSeed;
  result.default_runtime = simulator_->Execute(job, default_plan.value().root, ++nonce).runtime;
  result.best_runtime = result.default_runtime;
  result.best_config = RuleConfig::Default();

  SpanResult span = ComputeJobSpan(*optimizer_, job);
  std::vector<int> span_ids = span.span.ToIndices();
  if (span_ids.empty()) return result;

  // Per-span-rule score: positive when disabling the rule correlated with
  // faster executions. Off-by-default rules get an "enable" score instead
  // (their action in a candidate is being turned ON).
  std::vector<double> score(span_ids.size(), 0.0);
  Pcg32 rng(kSeed ^ job.TemplateHash(), 509);
  std::unordered_set<uint64_t> seen_configs = {RuleConfig::Default().Hash()};
  std::unordered_set<uint64_t> seen_plans = {
      PlanHash(default_plan.value().root, /*for_template=*/false)};

  for (int round = 0; round < options_.rounds; ++round) {
    // Sampling weights from scores (softmax-ish).
    std::vector<double> weight(span_ids.size());
    for (size_t i = 0; i < span_ids.size(); ++i) {
      weight[i] = std::exp(std::clamp(score[i] / kTemperature, -6.0, 6.0));
    }
    double total_weight = 0.0;
    for (double w : weight) total_weight += w;

    int executed_this_round = 0;
    for (int attempt = 0; attempt < options_.configs_per_round * 6 &&
                          executed_this_round < options_.configs_per_round;
         ++attempt) {
      // Sample a disable-set: each span rule joins with probability
      // proportional to its weight, targeting |span|/3 toggles on average.
      RuleConfig config = RuleConfig::AllEnabled();
      std::vector<size_t> toggled;
      double target = std::max(1.0, static_cast<double>(span_ids.size()) / 3.0);
      for (size_t i = 0; i < span_ids.size(); ++i) {
        double p = std::min(0.95, target * weight[i] / std::max(total_weight, 1e-9));
        if (rng.NextBool(p)) {
          config.Disable(span_ids[i]);
          toggled.push_back(i);
        }
      }
      if (toggled.empty() || !seen_configs.insert(config.Hash()).second) continue;

      Result<CompiledPlan> plan = optimizer_->Compile(job, config);
      if (!plan.ok()) {
        // Dead configurations teach too: damp the toggles that broke it.
        for (size_t i : toggled) score[i] -= 0.1;
        continue;
      }
      if (!seen_plans.insert(PlanHash(plan.value().root, false)).second) continue;

      ConfigOutcome outcome;
      outcome.config = config;
      outcome.diff_vs_default =
          ComputeRuleDiff(default_plan.value().signature, plan.value().signature);
      outcome.plan = std::move(plan.value());
      outcome.metrics = simulator_->Execute(job, outcome.plan.root, ++nonce);
      outcome.executed = true;
      ++executed_this_round;
      ++result.executions;

      double improvement = (result.default_runtime - outcome.metrics.runtime) /
                           std::max(result.default_runtime, 1e-9);
      for (size_t i : toggled) score[i] += improvement;
      if (outcome.metrics.runtime < result.best_runtime) {
        result.best_runtime = outcome.metrics.runtime;
        result.best_config = outcome.config;
      }
      result.executed.push_back(std::move(outcome));
    }
    result.best_after_round.push_back(result.best_runtime);
  }
  return result;
}

}  // namespace qsteer
