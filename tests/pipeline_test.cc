// End-to-end tests of the discovery pipeline (§5-§6): recompilation,
// cheapest-plan selection, A/B execution, and the job-selection heuristics.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace qsteer {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : workload_(Spec()),
        optimizer_(&workload_.catalog()),
        simulator_(&workload_.catalog()),
        pipeline_(&optimizer_, &simulator_, Options()) {}

  static WorkloadSpec Spec() {
    WorkloadSpec spec;
    spec.name = "P";
    spec.seed = 2024;
    spec.num_templates = 24;
    spec.num_stream_sets = 18;
    return spec;
  }

  static PipelineOptions Options() {
    PipelineOptions options;
    options.max_candidate_configs = 60;
    options.configs_to_execute = 8;
    return options;
  }

  Workload workload_;
  Optimizer optimizer_;
  ExecutionSimulator simulator_;
  SteeringPipeline pipeline_;
};

TEST_F(PipelineTest, RecompileProducesDistinctExecutablePlans) {
  Job job = workload_.MakeJob(0, 1);
  JobAnalysis analysis = pipeline_.Recompile(job);
  ASSERT_NE(analysis.default_plan.root, nullptr);
  EXPECT_GT(analysis.candidates_generated, 10);
  EXPECT_GT(analysis.recompiled_ok, 5);
  EXPECT_LE(static_cast<int>(analysis.executed.size()), 8);
  EXPECT_GE(static_cast<int>(analysis.executed.size()), 1);
  // Executed plans are distinct from the default and from each other.
  std::set<uint64_t> hashes = {PlanHash(analysis.default_plan.root, false)};
  for (const ConfigOutcome& outcome : analysis.executed) {
    EXPECT_TRUE(hashes.insert(PlanHash(outcome.plan.root, false)).second);
    EXPECT_FALSE(outcome.executed);  // Recompile() does not execute
  }
}

TEST_F(PipelineTest, ExecutedOutcomesAreCheapestFirst) {
  JobAnalysis analysis = pipeline_.Recompile(workload_.MakeJob(1, 1));
  for (size_t i = 1; i < analysis.executed.size(); ++i) {
    EXPECT_LE(analysis.executed[i - 1].plan.est_cost, analysis.executed[i].plan.est_cost);
  }
}

TEST_F(PipelineTest, AnalyzeJobExecutesAndFindsImprovements) {
  int improved = 0, jobs = 0;
  for (int t = 0; t < 10; ++t) {
    JobAnalysis analysis = pipeline_.AnalyzeJob(workload_.MakeJob(t, 1));
    if (analysis.default_plan.root == nullptr) continue;
    ++jobs;
    EXPECT_GT(analysis.default_metrics.runtime, 0.0);
    for (const ConfigOutcome& outcome : analysis.executed) {
      EXPECT_TRUE(outcome.executed);
      EXPECT_GT(outcome.metrics.runtime, 0.0);
    }
    if (analysis.BestRuntimeChangePct() < -3.0) ++improved;
  }
  ASSERT_EQ(jobs, 10);
  // Paper §6.2: at least one alternative improves runtimes for a majority
  // of analyzed jobs.
  EXPECT_GE(improved, 5);
}

TEST_F(PipelineTest, RuleDiffOnlyReflectsActualPlanChanges) {
  JobAnalysis analysis = pipeline_.Recompile(workload_.MakeJob(2, 1));
  for (const ConfigOutcome& outcome : analysis.executed) {
    // Executed alternatives have distinct plans, so their signatures must
    // differ from the default in at least one direction.
    EXPECT_FALSE(outcome.diff_vs_default.Empty())
        << "distinct plan with empty RuleDiff";
    // Every "only in default" rule is genuinely in the default signature.
    for (RuleId id : outcome.diff_vs_default.only_in_default) {
      EXPECT_TRUE(analysis.default_plan.signature.Test(id));
      EXPECT_FALSE(outcome.plan.signature.Test(id));
    }
    for (RuleId id : outcome.diff_vs_default.only_in_new) {
      EXPECT_TRUE(outcome.plan.signature.Test(id));
      EXPECT_FALSE(analysis.default_plan.signature.Test(id));
    }
  }
}

TEST_F(PipelineTest, JobWindowSelection) {
  std::vector<double> runtimes = {10.0, 400.0, 3000.0, 5000.0, 299.0, 3601.0};
  std::vector<int> selected = pipeline_.SelectJobsInWindow(runtimes);
  EXPECT_EQ(selected, (std::vector<int>{1, 2}));
}

TEST_F(PipelineTest, LowCostHighRuntimeCorner) {
  // Costs ascending with runtimes mostly following, plus one anomaly: cheap
  // estimate but huge runtime (index 1).
  std::vector<double> costs = {1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0};
  std::vector<double> runtimes = {5.0, 900.0, 15.0, 40.0, 80.0, 120.0, 160.0, 200.0,
                                  240.0, 280.0};
  std::vector<int> corner = pipeline_.SelectLowCostHighRuntime(costs, runtimes);
  ASSERT_EQ(corner.size(), 1u);
  EXPECT_EQ(corner[0], 1);
}

TEST_F(PipelineTest, ExhaustedRetryBudgetDegradesToDefaultPlan) {
  // Every execution fails (job_failure_prob = 1), so the retry budget is
  // exhausted on the default run and on every executed alternative. The
  // pipeline must degrade — keep the default plan, report no best outcome —
  // rather than return an error, and the failure counters must account for
  // exactly the injected faults.
  SimulatorOptions sim_options;
  sim_options.fault_profile.job_failure_prob = 1.0;
  ExecutionSimulator faulty(&workload_.catalog(), sim_options);
  PipelineOptions options = Options();
  options.retry.max_attempts = 3;
  SteeringPipeline pipeline(&optimizer_, &faulty, options);

  JobAnalysis analysis = pipeline.AnalyzeJob(workload_.MakeJob(0, 1));
  ASSERT_NE(analysis.default_plan.root, nullptr) << "compilation is unaffected by faults";
  EXPECT_TRUE(analysis.default_metrics.failed);
  EXPECT_EQ(analysis.BestBy(Metric::kRuntime), nullptr);
  EXPECT_DOUBLE_EQ(analysis.BestRuntimeChangePct(), 0.0) << "default plan is kept";
  EXPECT_GE(analysis.executed.size(), 1u);
  for (const ConfigOutcome& outcome : analysis.executed) {
    EXPECT_TRUE(outcome.metrics.failed);
  }
  // Counter accounting: the default run + every executed alternative failed
  // terminally, each after (max_attempts - 1) retries. Nothing else ran.
  int runs = 1 + static_cast<int>(analysis.executed.size());
  EXPECT_EQ(analysis.exec_failures, static_cast<int>(analysis.executed.size()));
  PipelineFailureStats stats = pipeline.failure_stats();
  EXPECT_EQ(stats.exec_failures, runs);
  EXPECT_EQ(stats.exec_retries, static_cast<int64_t>(options.retry.max_attempts - 1) * runs);
  EXPECT_EQ(stats.fallbacks, static_cast<int64_t>(analysis.executed.size()));
}

TEST_F(PipelineTest, AnalysisIsDeterministic) {
  JobAnalysis a = pipeline_.AnalyzeJob(workload_.MakeJob(3, 2));
  JobAnalysis b = pipeline_.AnalyzeJob(workload_.MakeJob(3, 2));
  EXPECT_EQ(a.executed.size(), b.executed.size());
  EXPECT_DOUBLE_EQ(a.default_metrics.runtime, b.default_metrics.runtime);
  EXPECT_DOUBLE_EQ(a.BestRuntimeChangePct(), b.BestRuntimeChangePct());
}

TEST_F(PipelineTest, UnavailableCompileTierIsRetriedTransiently) {
  // A remote compile tier answering kUnavailable on the first two attempts
  // of every compile: the transient classification (common/status.h
  // IsTransient) must retry with backoff until the tier recovers, and the
  // analysis must come out bit-identical to a fault-free run — transient
  // infrastructure flaps may cost retries, never results.
  PipelineOptions options = Options();
  options.retry.max_attempts = 3;
  options.compile_fault_for_testing = [](const Job&, int attempt) {
    return attempt <= 2 ? Status::Unavailable("compile tier over capacity")
                        : Status::OK();
  };
  SteeringPipeline flaky(&optimizer_, &simulator_, options);
  JobAnalysis faulted = flaky.AnalyzeJob(workload_.MakeJob(2, 3));
  JobAnalysis clean = pipeline_.AnalyzeJob(workload_.MakeJob(2, 3));

  ASSERT_NE(faulted.default_plan.root, nullptr);
  EXPECT_EQ(faulted.default_plan.signature, clean.default_plan.signature);
  EXPECT_DOUBLE_EQ(faulted.default_plan.est_cost, clean.default_plan.est_cost);
  ASSERT_EQ(faulted.executed.size(), clean.executed.size());
  for (size_t i = 0; i < faulted.executed.size(); ++i) {
    EXPECT_EQ(faulted.executed[i].config, clean.executed[i].config);
    EXPECT_DOUBLE_EQ(faulted.executed[i].metrics.runtime,
                     clean.executed[i].metrics.runtime);
  }
  EXPECT_DOUBLE_EQ(faulted.BestRuntimeChangePct(), clean.BestRuntimeChangePct());

  PipelineFailureStats stats = flaky.failure_stats();
  EXPECT_EQ(stats.compile_unavailable, 0) << "every compile recovered within budget";
  EXPECT_GT(stats.compile_retries, 0);
  EXPECT_GT(stats.retry_backoff_s, 0.0) << "backoff is accounted, not slept";
}

TEST_F(PipelineTest, UnavailableExhaustionFailsStopNeverWrongPlans) {
  // The tier never recovers: after the retry budget the compile must
  // surface as kUnavailable — a missing default plan, counted in
  // compile_unavailable — rather than being mistaken for a permanent
  // property of the configuration (compile_failures) or, worse, producing
  // a plan from nothing.
  PipelineOptions options = Options();
  options.retry.max_attempts = 3;
  options.compile_fault_for_testing = [](const Job&, int) {
    return Status::Unavailable("compile tier down");
  };
  SteeringPipeline down(&optimizer_, &simulator_, options);
  JobAnalysis analysis = down.AnalyzeJob(workload_.MakeJob(2, 3));

  EXPECT_EQ(analysis.default_plan.root, nullptr);
  EXPECT_TRUE(analysis.executed.empty());
  PipelineFailureStats stats = down.failure_stats();
  EXPECT_EQ(stats.compile_unavailable, 1) << "the default compile, once, post-retries";
  EXPECT_EQ(stats.compile_retries, 2);
  EXPECT_EQ(stats.compile_failures, 0) << "kUnavailable is not a permanent failure";
}

TEST_F(PipelineTest, EveryCompileConsultsTheFaultHook) {
  // With the cache off, each compile Recompile runs (the default, every span
  // probe and every candidate) goes through the one compile path, so the
  // test fault hook sees each exactly once.
  int calls = 0;
  PipelineOptions options = Options();
  options.compile_cache_mb = 0;
  options.compile_fault_for_testing = [&calls](const Job&, int) {
    ++calls;
    return Status::OK();
  };
  SteeringPipeline pipeline(&optimizer_, &simulator_, options);
  JobAnalysis analysis = pipeline.Recompile(workload_.MakeJob(0, 1));

  ASSERT_NE(analysis.default_plan.root, nullptr);
  const int span_compiles =
      analysis.span.iterations + (analysis.span.ended_on_compile_failure ? 1 : 0);
  EXPECT_GT(span_compiles, 0);
  EXPECT_EQ(calls, 1 + span_compiles + analysis.candidates_compiled);
}

TEST_F(PipelineTest, SpanProbeCompileFailureIsCounted) {
  // A span loop that ends on a configuration that does not compile adds one
  // permanent failure to the pipeline's counters, beside the candidates'.
  Job job;
  bool found = false;
  for (int t = 0; t < Spec().num_templates && !found; ++t) {
    job = workload_.MakeJob(t, 1);
    found = ComputeJobSpan(optimizer_, job).ended_on_compile_failure;
  }
  ASSERT_TRUE(found) << "no job in the workload ends its span on a compile failure";
  PipelineOptions options = Options();
  options.compile_cache_mb = 0;
  SteeringPipeline pipeline(&optimizer_, &simulator_, options);
  JobAnalysis analysis = pipeline.Recompile(job);

  ASSERT_NE(analysis.default_plan.root, nullptr);
  ASSERT_TRUE(analysis.span.ended_on_compile_failure);
  EXPECT_EQ(pipeline.failure_stats().compile_failures, analysis.compile_failures + 1);
}

TEST_F(PipelineTest, ExecutedPlansEqualSessionlessCompiles) {
  // Candidates compile through the job's session, grouped by exploration
  // bits; each executed plan must still be the plan a fresh compile of its
  // configuration produces.
  int outcomes = 0;
  for (int t = 0; t < 4; ++t) {
    Job job = workload_.MakeJob(t, 1);
    JobAnalysis analysis = pipeline_.AnalyzeJob(job);
    for (const ConfigOutcome& outcome : analysis.executed) {
      Result<CompiledPlan> fresh = optimizer_.Compile(job, outcome.config);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(PlanHash(outcome.plan.root, false), PlanHash(fresh.value().root, false));
      EXPECT_EQ(outcome.plan.signature, fresh.value().signature);
      EXPECT_EQ(outcome.plan.est_cost, fresh.value().est_cost);
      EXPECT_EQ(outcome.plan.memo_groups, fresh.value().memo_groups);
      EXPECT_EQ(outcome.plan.memo_exprs, fresh.value().memo_exprs);
      ++outcomes;
    }
  }
  EXPECT_GT(outcomes, 0);
}

TEST_F(PipelineTest, ExplorationStatsCountEveryCompileOfTheJob) {
  // Without the cache every compile reaches the session: it either explores
  // or reuses the previous compile's exploration.
  PipelineOptions options = Options();
  options.compile_cache_mb = 0;
  options.rank_candidates = true;
  options.compile_budget = 50;
  SteeringPipeline pipeline(&optimizer_, &simulator_, options);
  JobAnalysis analysis = pipeline.Recompile(workload_.MakeJob(0, 1));

  ASSERT_NE(analysis.default_plan.root, nullptr);
  const SteeringPipeline::ExplorationStats stats = pipeline.exploration_stats();
  EXPECT_EQ(stats.run + stats.reused,
            1 + analysis.span.iterations + (analysis.span.ended_on_compile_failure ? 1 : 0) +
                analysis.candidates_compiled);
  EXPECT_GT(stats.reused, 0);
  EXPECT_EQ(stats.ToString(),
            "run=" + std::to_string(stats.run) + " reused=" + std::to_string(stats.reused));
}

}  // namespace
}  // namespace qsteer
