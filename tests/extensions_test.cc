// Tests for the §8 future-work extensions: feedback-guided search,
// empirical rule-independence discovery, the steering recommender, and
// per-metric learned models.
#include <gtest/gtest.h>

#include "core/feedback_search.h"
#include "core/independence.h"
#include "core/learned_steering.h"
#include "core/recommender.h"
#include "core/span.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest()
      : workload_(Spec()),
        optimizer_(&workload_.catalog()),
        simulator_(&workload_.catalog()) {}

  static WorkloadSpec Spec() {
    WorkloadSpec spec;
    spec.name = "F";
    spec.seed = 808;
    spec.num_templates = 24;
    spec.num_stream_sets = 18;
    return spec;
  }

  Workload workload_;
  Optimizer optimizer_;
  ExecutionSimulator simulator_;
};

TEST_F(ExtensionsTest, FeedbackSearchNeverWorseThanDefaultAndMonotone) {
  FeedbackSearchOptions options;
  options.rounds = 3;
  options.configs_per_round = 4;
  FeedbackSearch search(&optimizer_, &simulator_, options);
  int improved = 0;
  for (int t = 0; t < 8; ++t) {
    FeedbackSearchResult result = search.Run(workload_.MakeJob(t, 1));
    ASSERT_GT(result.default_runtime, 0.0);
    // Best runtime tracks the minimum: monotone non-increasing per round.
    for (size_t r = 1; r < result.best_after_round.size(); ++r) {
      EXPECT_LE(result.best_after_round[r], result.best_after_round[r - 1] + 1e-9);
    }
    EXPECT_LE(result.best_runtime, result.default_runtime + 1e-9);
    EXPECT_LE(result.executions,
              options.rounds * options.configs_per_round);
    if (result.BestImprovementPct() < -5.0) ++improved;
  }
  EXPECT_GE(improved, 3);
}

TEST_F(ExtensionsTest, FeedbackSearchIsDeterministic) {
  FeedbackSearch search(&optimizer_, &simulator_, {});
  FeedbackSearchResult a = search.Run(workload_.MakeJob(2, 1));
  FeedbackSearchResult b = search.Run(workload_.MakeJob(2, 1));
  EXPECT_DOUBLE_EQ(a.best_runtime, b.best_runtime);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.best_config, b.best_config);
}

TEST_F(ExtensionsTest, IndependenceGroupsPartitionTheSpan) {
  for (int t = 0; t < 6; ++t) {
    Job job = workload_.MakeJob(t, 1);
    SpanResult span = ComputeJobSpan(optimizer_, job);
    IndependenceResult independence =
        DiscoverIndependentGroups(optimizer_, job, span.span);
    // Groups partition the span exactly.
    BitVector256 covered;
    int total = 0;
    for (const auto& group : independence.groups) {
      for (RuleId id : group) {
        EXPECT_TRUE(span.span.Test(id));
        EXPECT_FALSE(covered.Test(id)) << "rule in two groups";
        covered.Set(id);
        ++total;
      }
    }
    EXPECT_EQ(total, span.span.Count());
    // The grouped space is never larger than the naive one.
    EXPECT_LE(independence.log2_grouped, independence.log2_naive + 1e-9);
    EXPECT_EQ(independence.compiles_used, span.span.Count() + 1);
  }
}

TEST_F(ExtensionsTest, IndependenceFindsMultipleGroupsSomewhere) {
  int multi_group_jobs = 0;
  for (int t = 0; t < 12; ++t) {
    Job job = workload_.MakeJob(t, 1);
    SpanResult span = ComputeJobSpan(optimizer_, job);
    IndependenceResult independence =
        DiscoverIndependentGroups(optimizer_, job, span.span);
    if (independence.groups.size() >= 2) ++multi_group_jobs;
  }
  // At least some jobs decompose into independent rule groups (e.g., a
  // union-implementation choice independent of a join-side pushdown).
  EXPECT_GE(multi_group_jobs, 2);
}

TEST_F(ExtensionsTest, GroupedConfigsOnlyToggleSpanRules) {
  Job job = workload_.MakeJob(1, 1);
  SpanResult span = ComputeJobSpan(optimizer_, job);
  IndependenceResult independence = DiscoverIndependentGroups(optimizer_, job, span.span);
  ConfigSearchOptions options;
  options.max_configs = 40;
  options.seed = 3;
  std::vector<RuleConfig> configs = GenerateGroupedConfigs(independence, options);
  EXPECT_GT(configs.size(), 5u);
  for (const RuleConfig& config : configs) {
    for (RuleId id = 0; id < kNumRules; ++id) {
      if (!config.IsEnabled(id)) {
        EXPECT_TRUE(span.span.Test(id)) << id;
      }
    }
  }
}

TEST_F(ExtensionsTest, RecommenderLearnsRecommendsAndRetires) {
  PipelineOptions options;
  options.max_candidate_configs = 60;
  SteeringPipeline pipeline(&optimizer_, &simulator_, options);
  // Pre-guardrail behavior: adopt immediately (no validation gate) and
  // retire on the first breaker trip (two consecutive regressions). The
  // full gate/breaker state machine is covered by recommender_test.
  RecommenderOptions rec_options;
  rec_options.validation_runs = 0;
  rec_options.breaker_open_after = 2;
  rec_options.max_rollbacks = 1;
  SteeringRecommender recommender(rec_options);

  // Offline phase over a handful of day-1 jobs.
  std::vector<JobAnalysis> analyses;
  for (int t = 0; t < 10; ++t) analyses.push_back(pipeline.AnalyzeJob(workload_.MakeJob(t, 1)));
  int adopted = 0;
  for (const JobAnalysis& analysis : analyses) {
    if (recommender.LearnFromAnalysis(analysis)) ++adopted;
  }
  ASSERT_GT(adopted, 0);
  EXPECT_EQ(recommender.num_groups(), adopted);

  // Online: a recurring job from an adopted group gets a non-default
  // recommendation; an unknown signature gets the default.
  const JobAnalysis* learned_case = nullptr;
  for (const JobAnalysis& analysis : analyses) {
    if (analysis.BestRuntimeChangePct() < -10.0) learned_case = &analysis;
  }
  ASSERT_NE(learned_case, nullptr);
  auto rec = recommender.Recommend(learned_case->default_plan.signature);
  EXPECT_FALSE(rec.is_default);
  EXPECT_LT(rec.expected_improvement_pct, -10.0);
  EXPECT_GE(rec.support, 1);
  auto unknown = recommender.Recommend(BitVector256::FromIndices({9}));
  EXPECT_TRUE(unknown.is_default);

  // Guardrail: repeated regressions retire the recommendation.
  recommender.ObserveOutcome(learned_case->default_plan.signature, +20.0);
  EXPECT_FALSE(recommender.Recommend(learned_case->default_plan.signature).is_default);
  recommender.ObserveOutcome(learned_case->default_plan.signature, +20.0);
  EXPECT_TRUE(recommender.Recommend(learned_case->default_plan.signature).is_default);
  EXPECT_EQ(recommender.num_retired(), 1);
  // Improvements never retire.
  recommender.ObserveOutcome(learned_case->default_plan.signature, -30.0);
  EXPECT_EQ(recommender.num_retired(), 1);
}

TEST_F(ExtensionsTest, RecommenderStoreSurvivesSerializeRoundTrip) {
  PipelineOptions options;
  options.max_candidate_configs = 60;
  SteeringPipeline pipeline(&optimizer_, &simulator_, options);
  SteeringRecommender recommender;
  std::vector<RuleSignature> learned_signatures;
  for (int t = 0; t < 8; ++t) {
    JobAnalysis analysis = pipeline.AnalyzeJob(workload_.MakeJob(t, 1));
    if (recommender.LearnFromAnalysis(analysis)) {
      learned_signatures.push_back(analysis.default_plan.signature);
    }
  }
  ASSERT_FALSE(learned_signatures.empty());
  // Retire one entry so the flag round-trips too.
  recommender.ObserveOutcome(learned_signatures[0], 50.0);
  recommender.ObserveOutcome(learned_signatures[0], 50.0);

  SteeringRecommender restored;
  ASSERT_TRUE(restored.Deserialize(recommender.Serialize()).ok());
  EXPECT_EQ(restored.num_groups(), recommender.num_groups());
  EXPECT_EQ(restored.num_retired(), recommender.num_retired());
  for (const RuleSignature& signature : learned_signatures) {
    auto before = recommender.Recommend(signature);
    auto after = restored.Recommend(signature);
    EXPECT_EQ(before.is_default, after.is_default);
    if (!before.is_default) {
      EXPECT_EQ(before.config, after.config);
      EXPECT_DOUBLE_EQ(before.expected_improvement_pct, after.expected_improvement_pct);
      EXPECT_EQ(before.support, after.support);
    }
  }
}

TEST_F(ExtensionsTest, PerMetricModelsOptimizeTheirTarget) {
  LearnedSteering learner(&optimizer_, &simulator_, &workload_.catalog());
  std::vector<Job> jobs;
  for (int day = 1; day <= 10; ++day) {
    for (int i = 0; i < 2; ++i) jobs.push_back(workload_.MakeJob(3, day, i));
  }
  SpanResult span = ComputeJobSpan(optimizer_, jobs.front());
  ConfigSearchOptions search;
  search.max_configs = 20;
  search.seed = 4;
  std::vector<RuleConfig> configs = {RuleConfig::Default()};
  for (const RuleConfig& c : GenerateCandidateConfigs(span.span, search)) {
    if (configs.size() >= 6) break;
    configs.push_back(c);
  }
  GroupDataset dataset = learner.CollectDataset(jobs, configs, 5);
  ASSERT_GE(dataset.size(), 10);
  ASSERT_EQ(dataset.cpu_times.size(), dataset.runtimes.size());
  ASSERT_EQ(dataset.io_times.size(), dataset.runtimes.size());

  MlpOptions options;
  options.hidden = 32;
  options.epochs = 100;
  for (Metric metric : {Metric::kRuntime, Metric::kCpuTime, Metric::kIoTime}) {
    LearnedEvaluation eval = learner.TrainAndEvaluate(dataset, options, 0.4, 0.2, metric);
    ASSERT_FALSE(eval.test_choices.empty()) << MetricName(metric);
    // The oracle bound holds in the target metric's units.
    EXPECT_LE(eval.mean_best, eval.mean_learned + 1e-9) << MetricName(metric);
    EXPECT_LE(eval.mean_best, eval.mean_default + 1e-9) << MetricName(metric);
  }
}

}  // namespace
}  // namespace qsteer
