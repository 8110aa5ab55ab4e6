// End-to-end integration: offline discovery on day 1, validation re-runs,
// persisted store, online serving with guardrails over subsequent days —
// asserting the deployment-level properties (net savings, safety,
// persistence).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hints.h"
#include "core/recommender.h"
#include "service/steering_service.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

TEST(ServiceIntegration, WeekOfServingSavesRuntimeSafely) {
  Workload workload(WorkloadSpec::WorkloadB(0.003));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions pipeline_options;
  pipeline_options.max_candidate_configs = 80;
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  DurableRecommenderStore recommender;  // ephemeral: no files
  ASSERT_TRUE(recommender.Open().ok());

  // Day 1: offline discovery. Keep one base job per group to drive the
  // validation re-runs.
  std::unordered_map<std::string, Job> reps;
  int analyzed = 0, adopted = 0;
  for (const Job& job : workload.JobsForDay(1)) {
    if (analyzed >= 25) break;
    ++analyzed;
    JobAnalysis analysis = pipeline.AnalyzeJob(job);
    if (recommender.LearnFromAnalysis(analysis)) {
      ++adopted;
      reps.emplace(analysis.default_plan.signature.ToHexString(), job);
    }
  }
  ASSERT_GT(adopted, 2);

  // Validation gate: nothing serves before its clean re-runs.
  EXPECT_EQ(recommender.num_serving(), 0);
  EXPECT_GT(recommender.num_pending_validation(), 0);
  // The gate skips a candidate without a base job, whose default fails to
  // compile or whose default run takes no time; every candidate here has
  // none of those.
  for (const SteeringRecommender::ValidationRequest& request :
       recommender.PendingValidations()) {
    auto it = reps.find(request.signature.ToHexString());
    ASSERT_NE(it, reps.end());
    Result<CompiledPlan> base_plan =
        pipeline.CompileCached(it->second, RuleConfig::Default());
    ASSERT_TRUE(base_plan.ok());
    ASSERT_GT(simulator.Execute(it->second, base_plan.value().root, 1).runtime, 0.0);
  }
  ASSERT_TRUE(RunValidationGate(pipeline, reps, recommender).ok());
  EXPECT_EQ(recommender.num_pending_validation(), 0);
  ASSERT_GT(recommender.num_serving(), 0);

  // Persist + restore mid-deployment (operational restart). Adoption and
  // validation state survive the round trip.
  SteeringRecommender serving;
  ASSERT_TRUE(serving.Deserialize(recommender.SerializeState()).ok());
  // Several analyses can strengthen one group: adoptions >= groups.
  ASSERT_EQ(serving.num_groups(), recommender.num_groups());
  ASSERT_GE(adopted, serving.num_groups());
  ASSERT_EQ(serving.num_serving(), recommender.num_serving());
  ASSERT_EQ(serving.num_retired(), recommender.num_retired());

  // Days 2-4: online serving.
  double total_default = 0.0, total_served = 0.0;
  int steered = 0, jobs = 0;
  uint64_t nonce = 7;
  for (int day = 2; day <= 4; ++day) {
    for (const Job& job : workload.JobsForDay(day)) {
      if (jobs >= 120) break;
      Result<CompiledPlan> default_plan = optimizer.Compile(job, RuleConfig::Default());
      if (!default_plan.ok()) continue;
      ++jobs;
      double default_runtime =
          simulator.Execute(job, default_plan.value().root, ++nonce).runtime;
      double served = default_runtime;
      auto rec = serving.Recommend(default_plan.value().signature);
      if (!rec.is_default) {
        Result<CompiledPlan> plan = optimizer.Compile(job, rec.config);
        // Adopted configurations always compile for their group's jobs in
        // this workload; a failure would fall back to the default.
        if (plan.ok()) {
          ++steered;
          served = simulator.Execute(job, plan.value().root, ++nonce).runtime;
          serving.ObserveOutcome(default_plan.value().signature,
                                 (served - default_runtime) / default_runtime * 100.0);
        }
      }
      total_default += default_runtime;
      total_served += served;
    }
  }

  // Deployment-level assertions: some jobs steered, net positive savings,
  // guardrail state consistent.
  EXPECT_GT(steered, 3);
  EXPECT_LT(total_served, total_default);
  EXPECT_GE(serving.num_retired(), 0);
  EXPECT_LE(serving.num_retired(), serving.num_groups());

  // Every stored recommendation is expressible as a plan hint and parses
  // back (the paper's deployment path).
  for (const Job& job : workload.JobsForDay(2)) {
    Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
    if (!plan.ok()) continue;
    auto rec = serving.Recommend(plan.value().signature);
    if (rec.is_default) continue;
    std::string hints = ToHintString(rec.config);
    EXPECT_FALSE(hints.empty());
    Result<RuleConfig> parsed = ParseHintString(hints);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), rec.config);
  }
}

TEST(ServiceIntegration, LearnDayEqualsTheExplicitLoopAndGate) {
  // LearnDay is the day-1 loop above followed by RunValidationGate. On the
  // same slice, under fault injection, it leaves the same store bytes and
  // the same counts.
  Workload workload(WorkloadSpec::WorkloadB(0.003));
  Optimizer optimizer(&workload.catalog());
  SimulatorOptions sim_options;
  sim_options.fault_profile = FaultProfile::Flaky(4.0);
  ExecutionSimulator simulator(&workload.catalog(), sim_options);
  PipelineOptions pipeline_options;
  pipeline_options.max_candidate_configs = 30;
  std::vector<Job> jobs = workload.JobsForDay(1);
  jobs.resize(std::min<size_t>(jobs.size(), 8));

  SteeringPipeline loop_pipeline(&optimizer, &simulator, pipeline_options);
  DurableRecommenderStore loop_store;
  ASSERT_TRUE(loop_store.Open().ok());
  std::unordered_map<std::string, Job> group_jobs;
  int learn_events = 0, failed_baselines = 0;
  for (const Job& job : jobs) {
    JobAnalysis analysis = loop_pipeline.AnalyzeJob(job);
    if (analysis.default_metrics.failed) ++failed_baselines;
    if (loop_store.LearnFromAnalysis(analysis)) {
      ++learn_events;
      group_jobs.emplace(analysis.default_plan.signature.ToHexString(), job);
    }
  }
  ASSERT_TRUE(RunValidationGate(loop_pipeline, group_jobs, loop_store).ok());
  // The slice covers a lost baseline and a candidate retired on re-run.
  ASSERT_GT(failed_baselines, 0);
  ASSERT_GT(loop_store.num_serving(), 0);
  ASSERT_GT(loop_store.num_retired(), 0);

  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  DurableRecommenderStore store;
  ASSERT_TRUE(store.Open().ok());
  LearnDayStats stats;
  ASSERT_TRUE(LearnDay(pipeline, jobs, store, &stats).ok());
  EXPECT_EQ(stats.analyzed, static_cast<int>(jobs.size()));
  EXPECT_EQ(stats.learn_events, learn_events);
  EXPECT_EQ(stats.failed_baselines, failed_baselines);
  EXPECT_EQ(store.applied_seq(), loop_store.applied_seq());
  EXPECT_EQ(store.SerializeState(), loop_store.SerializeState());
}

TEST(ServiceIntegration, LearnDayOnNoJobsChangesNothing) {
  Workload workload(WorkloadSpec::WorkloadB(0.003));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  SteeringPipeline pipeline(&optimizer, &simulator);
  DurableRecommenderStore store;
  ASSERT_TRUE(store.Open().ok());
  // A pending candidate with no job to re-run it: the gate skips it.
  SteeringRecommender::CandidateObservation observation;
  observation.signature.Set(3);
  observation.config = RuleConfig::AllEnabled();
  observation.improvement_pct = -20.0;
  ASSERT_TRUE(store.LearnCandidate(observation));
  std::string before = store.SerializeState();
  uint64_t seq = store.applied_seq();

  LearnDayStats stats;
  stats.analyzed = 5;  // LearnDay resets the counts
  ASSERT_TRUE(LearnDay(pipeline, {}, store, &stats).ok());
  EXPECT_EQ(stats.analyzed, 0);
  EXPECT_EQ(stats.learn_events, 0);
  EXPECT_EQ(stats.failed_baselines, 0);
  EXPECT_EQ(store.applied_seq(), seq);
  EXPECT_EQ(store.SerializeState(), before);
  EXPECT_EQ(store.num_pending_validation(), 1);
}

}  // namespace
}  // namespace qsteer
