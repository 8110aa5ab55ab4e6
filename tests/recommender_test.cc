// Unit tests of the SteeringRecommender guardrails: the validation gate
// (N clean re-runs before a candidate serves), the per-group circuit
// breaker (closed -> open -> half-open -> closed, with automatic rollback
// to the default while open), retirement after repeated rollbacks, and
// persistence of the whole guardrail state across Serialize/Deserialize.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hints.h"
#include "core/recommender.h"

namespace qsteer {
namespace {

RuleSignature Sig(int bit) {
  RuleSignature s;
  s.Set(bit);
  return s;
}

RuleConfig AltConfig(int n) {
  // The n-th distinct single-rule deviation from the default configuration.
  // Toggling an arbitrary id directly can be a no-op (required rules cannot
  // be disabled), so index into the rules whose toggle actually sticks.
  RuleConfig def = RuleConfig::Default();
  std::vector<int> toggleable;
  for (int id = 0; id < 256; ++id) {
    RuleConfig config = def;
    if (config.IsEnabled(id)) {
      config.Disable(id);
    } else {
      config.Enable(id);
    }
    if (config != def) toggleable.push_back(id);
  }
  RuleConfig config = def;
  int id = toggleable[static_cast<size_t>(n) % toggleable.size()];
  if (config.IsEnabled(id)) {
    config.Disable(id);
  } else {
    config.Enable(id);
  }
  return config;
}

JobAnalysis MakeAnalysis(const RuleSignature& sig, double default_runtime,
                         double best_runtime, const RuleConfig& config) {
  JobAnalysis analysis;
  analysis.default_plan.root = PlanNode::Make(Operator{});
  analysis.default_plan.signature = sig;
  analysis.default_metrics.runtime = default_runtime;
  ConfigOutcome outcome;
  outcome.config = config;
  outcome.executed = true;
  outcome.metrics.runtime = best_runtime;
  analysis.executed.push_back(std::move(outcome));
  return analysis;
}

RecommenderOptions FastOptions() {
  RecommenderOptions options;
  options.validation_runs = 2;
  options.breaker_open_after = 2;
  options.breaker_cooldown = 3;
  options.breaker_probe_successes = 2;
  options.max_rollbacks = 2;
  return options;
}

TEST(Recommender, ValidationGateBlocksUntilCleanRuns) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(7);
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 70.0, AltConfig(3))));
  EXPECT_EQ(rec.num_pending_validation(), 1);
  EXPECT_EQ(rec.num_serving(), 0);
  EXPECT_TRUE(rec.Recommend(sig).is_default);

  std::vector<SteeringRecommender::ValidationRequest> pending = rec.PendingValidations();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].successes, 0);
  EXPECT_EQ(pending[0].required, 2);
  EXPECT_TRUE(pending[0].config == AltConfig(3));

  rec.ObserveValidation(sig, -25.0);
  EXPECT_TRUE(rec.Recommend(sig).is_default);  // one clean run is not enough
  EXPECT_EQ(rec.PendingValidations()[0].successes, 1);

  rec.ObserveValidation(sig, -20.0);
  SteeringRecommender::Recommendation served = rec.Recommend(sig);
  EXPECT_FALSE(served.is_default);
  EXPECT_FALSE(served.probing);
  EXPECT_TRUE(served.config == AltConfig(3));
  EXPECT_EQ(rec.num_serving(), 1);
  EXPECT_EQ(rec.num_pending_validation(), 0);
}

TEST(Recommender, ValidationRegressionRejectsCandidateOutright) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(9);
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 60.0, AltConfig(5))));
  rec.ObserveValidation(sig, 12.0);  // regressed under validation
  EXPECT_EQ(rec.num_retired(), 1);
  EXPECT_EQ(rec.num_pending_validation(), 0);
  EXPECT_TRUE(rec.Recommend(sig).is_default);
  // Retired groups refuse new candidates too.
  EXPECT_FALSE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 50.0, AltConfig(6))));
}

TEST(Recommender, ZeroValidationRunsAdoptsImmediately) {
  RecommenderOptions options = FastOptions();
  options.validation_runs = 0;
  SteeringRecommender rec(options);
  RuleSignature sig = Sig(11);
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 70.0, AltConfig(2))));
  EXPECT_FALSE(rec.Recommend(sig).is_default);
}

TEST(Recommender, BetterCandidateRestartsValidation) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(13);
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 80.0, AltConfig(4))));
  rec.ObserveValidation(sig, -18.0);
  rec.ObserveValidation(sig, -18.0);
  ASSERT_FALSE(rec.Recommend(sig).is_default);
  // A clearly better configuration replaces the old one but must re-earn
  // its validation runs before serving.
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(sig, 100.0, 50.0, AltConfig(8))));
  EXPECT_TRUE(rec.Recommend(sig).is_default);
  EXPECT_EQ(rec.num_pending_validation(), 1);
  EXPECT_TRUE(rec.PendingValidations()[0].config == AltConfig(8));
}

// Drives a group to adoption: learn + the required validation runs.
void Adopt(SteeringRecommender* rec, const RuleSignature& sig, const RuleConfig& config) {
  ASSERT_TRUE(rec->LearnFromAnalysis(MakeAnalysis(sig, 100.0, 70.0, config)));
  rec->ObserveValidation(sig, -25.0);
  rec->ObserveValidation(sig, -25.0);
  ASSERT_FALSE(rec->Recommend(sig).is_default);
}

TEST(Recommender, BreakerTripsRollsBackAndRecloses) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(17);
  Adopt(&rec, sig, AltConfig(1));

  // Two consecutive regressions trip the breaker: automatic rollback.
  rec.ObserveOutcome(sig, 20.0);
  EXPECT_FALSE(rec.Recommend(sig).is_default);  // one failure is tolerated
  rec.ObserveOutcome(sig, 20.0);
  EXPECT_EQ(rec.num_rollbacks(), 1);
  EXPECT_EQ(rec.num_open(), 1);
  EXPECT_EQ(rec.num_serving(), 0);

  // While open every lookup serves the default; the cooldown clock runs.
  EXPECT_TRUE(rec.Recommend(sig).is_default);
  EXPECT_TRUE(rec.Recommend(sig).is_default);
  EXPECT_TRUE(rec.Recommend(sig).is_default);  // cooldown of 3 exhausted

  // Half-open: the next lookup is a probe.
  SteeringRecommender::Recommendation probe = rec.Recommend(sig);
  EXPECT_FALSE(probe.is_default);
  EXPECT_TRUE(probe.probing);

  // Enough clean probes close the breaker again.
  rec.ObserveOutcome(sig, -10.0);
  rec.ObserveOutcome(sig, -10.0);
  SteeringRecommender::Recommendation closed = rec.Recommend(sig);
  EXPECT_FALSE(closed.is_default);
  EXPECT_FALSE(closed.probing);
  EXPECT_EQ(rec.num_serving(), 1);
}

TEST(Recommender, ProbeRegressionTripsAgainAndRetires) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(19);
  Adopt(&rec, sig, AltConfig(1));
  rec.ObserveOutcome(sig, 20.0);
  rec.ObserveOutcome(sig, 20.0);  // first rollback
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(rec.Recommend(sig).is_default);
  EXPECT_TRUE(rec.Recommend(sig).probing);
  rec.ObserveOutcome(sig, 20.0);  // probe regresses: second rollback
  EXPECT_EQ(rec.num_rollbacks(), 2);
  // max_rollbacks = 2: the group is retired permanently.
  EXPECT_EQ(rec.num_retired(), 1);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(rec.Recommend(sig).is_default);
}

TEST(Recommender, NonConsecutiveRegressionsDoNotTrip) {
  SteeringRecommender rec(FastOptions());
  RuleSignature sig = Sig(23);
  Adopt(&rec, sig, AltConfig(1));
  rec.ObserveOutcome(sig, 20.0);
  rec.ObserveOutcome(sig, -5.0);  // success resets the consecutive counter
  rec.ObserveOutcome(sig, 20.0);
  rec.ObserveOutcome(sig, -5.0);
  EXPECT_EQ(rec.num_rollbacks(), 0);
  EXPECT_FALSE(rec.Recommend(sig).is_default);
}

TEST(Recommender, ImprovementBarFiltersWeakCandidates) {
  SteeringRecommender rec(FastOptions());  // min_improvement_pct = -10
  EXPECT_FALSE(rec.LearnFromAnalysis(MakeAnalysis(Sig(2), 100.0, 95.0, AltConfig(1))));
  EXPECT_EQ(rec.num_groups(), 0);
  // Analyses whose default run failed are not a trustworthy baseline.
  JobAnalysis failed = MakeAnalysis(Sig(2), 100.0, 50.0, AltConfig(1));
  failed.default_metrics.failed = true;
  EXPECT_FALSE(rec.LearnFromAnalysis(failed));
}

TEST(Recommender, SerializeRoundTripsFullGuardrailState) {
  SteeringRecommender rec(FastOptions());

  // One group mid-validation.
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(Sig(1), 100.0, 70.0, AltConfig(1))));
  rec.ObserveValidation(Sig(1), -20.0);

  // One group serving (validated, breaker closed).
  Adopt(&rec, Sig(2), AltConfig(2));

  // One group rolled back (breaker open, mid-cooldown, one rollback).
  Adopt(&rec, Sig(3), AltConfig(3));
  rec.ObserveOutcome(Sig(3), 20.0);
  rec.ObserveOutcome(Sig(3), 20.0);
  ASSERT_TRUE(rec.Recommend(Sig(3)).is_default);  // cooldown 3 -> 2

  // One group retired by a validation regression (regression count kept).
  ASSERT_TRUE(rec.LearnFromAnalysis(MakeAnalysis(Sig(4), 100.0, 60.0, AltConfig(4))));
  rec.ObserveValidation(Sig(4), 30.0);

  const std::string bytes = rec.Serialize();
  SteeringRecommender loaded(FastOptions());
  ASSERT_TRUE(loaded.Deserialize(bytes).ok());
  EXPECT_EQ(loaded.num_groups(), rec.num_groups());
  EXPECT_EQ(loaded.num_serving(), rec.num_serving());
  EXPECT_EQ(loaded.num_pending_validation(), rec.num_pending_validation());
  EXPECT_EQ(loaded.num_retired(), rec.num_retired());
  EXPECT_EQ(loaded.num_rollbacks(), rec.num_rollbacks());
  EXPECT_EQ(loaded.num_open(), rec.num_open());

  // Serialize(Deserialize(Serialize(x))) is the same store: every field
  // survived (entries are emitted in signature order, so bytes compare).
  EXPECT_EQ(loaded.Serialize(), bytes);

  // Behavior also survived: the open group continues its cooldown where the
  // original left off (2 more default-served lookups, then a probe).
  EXPECT_TRUE(loaded.Recommend(Sig(3)).is_default);
  EXPECT_TRUE(loaded.Recommend(Sig(3)).is_default);
  EXPECT_TRUE(loaded.Recommend(Sig(3)).probing);
  // The mid-validation group still needs exactly one more clean run.
  EXPECT_TRUE(loaded.Recommend(Sig(1)).is_default);
  loaded.ObserveValidation(Sig(1), -20.0);
  EXPECT_FALSE(loaded.Recommend(Sig(1)).is_default);
}

TEST(Recommender, DeserializeRejectsMalformedStoresWholly) {
  SteeringRecommender rec(FastOptions());
  Adopt(&rec, Sig(2), AltConfig(2));
  const std::string before = rec.Serialize();
  const std::string hints = ToHintString(AltConfig(5));
  for (const std::string& bad : {
           // breaker state 9 is invalid
           Sig(1).ToHexString() + " -20 1 0 0 1 2 9 0 0 0 0 \n",
           // a five-field line of the retired v1 format
           Sig(6).ToHexString() + " -22.5 3 1 0 " + hints + "\n",
           // a valid line followed by a truncated one
           before + Sig(7).ToHexString() + " -40 1\n",
       }) {
    EXPECT_FALSE(rec.Deserialize(bad).ok()) << bad;
    EXPECT_EQ(rec.Serialize(), before) << "a rejected blob must leave the store as it was";
  }
}

}  // namespace
}  // namespace qsteer
