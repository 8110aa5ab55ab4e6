// Serial-vs-parallel equivalence of the steering pipeline: for a fixed
// seed, JobAnalysis must be bit-identical whether candidates are
// recompiled/executed serially (num_threads = 0) or over 1, 2 or 8 pool
// workers. This is the determinism contract documented on SteeringPipeline.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.name = "PP";
  spec.seed = 4096;
  spec.num_templates = 16;
  spec.num_stream_sets = 12;
  return spec;
}

PipelineOptions Options(int num_threads) {
  PipelineOptions options;
  options.max_candidate_configs = 80;
  options.configs_to_execute = 8;
  options.num_threads = num_threads;
  return options;
}

void ExpectMetricsEqual(const ExecMetrics& a, const ExecMetrics& b) {
  // Bitwise: the parallel path must replay the exact serial computation, not
  // merely an approximation of it.
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.cpu_time, b.cpu_time);
  EXPECT_EQ(a.io_time, b.io_time);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.output_rows, b.output_rows);
  // Fault-layer counters obey the same contract.
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_vertices, b.failed_vertices);
  EXPECT_EQ(a.speculative_copies, b.speculative_copies);
  EXPECT_EQ(a.token_revocations, b.token_revocations);
  EXPECT_EQ(a.wasted_cpu_time, b.wasted_cpu_time);
  EXPECT_EQ(a.failed, b.failed);
}

void ExpectAnalysesEqual(const JobAnalysis& serial, const JobAnalysis& parallel) {
  // Counters from the recompilation stage.
  EXPECT_EQ(serial.candidates_generated, parallel.candidates_generated);
  EXPECT_EQ(serial.recompiled_ok, parallel.recompiled_ok);
  EXPECT_EQ(serial.compile_failures, parallel.compile_failures);
  EXPECT_EQ(serial.compile_timeouts, parallel.compile_timeouts);
  EXPECT_EQ(serial.exec_failures, parallel.exec_failures);
  EXPECT_EQ(serial.cheaper_than_default, parallel.cheaper_than_default);

  // Candidate cost vector: same values in the same (candidate) order.
  ASSERT_EQ(serial.candidate_costs.size(), parallel.candidate_costs.size());
  for (size_t i = 0; i < serial.candidate_costs.size(); ++i) {
    EXPECT_EQ(serial.candidate_costs[i], parallel.candidate_costs[i]);
  }

  // Default treatment.
  ASSERT_EQ(serial.default_plan.root == nullptr, parallel.default_plan.root == nullptr);
  if (serial.default_plan.root != nullptr) {
    EXPECT_EQ(PlanHash(serial.default_plan.root, false),
              PlanHash(parallel.default_plan.root, false));
    EXPECT_EQ(serial.default_plan.est_cost, parallel.default_plan.est_cost);
    ExpectMetricsEqual(serial.default_metrics, parallel.default_metrics);
  }

  // Executed alternatives: same configs, same plans, same measurements,
  // same order.
  ASSERT_EQ(serial.executed.size(), parallel.executed.size());
  for (size_t i = 0; i < serial.executed.size(); ++i) {
    const ConfigOutcome& s = serial.executed[i];
    const ConfigOutcome& p = parallel.executed[i];
    EXPECT_TRUE(s.config == p.config);
    EXPECT_EQ(PlanHash(s.plan.root, false), PlanHash(p.plan.root, false));
    EXPECT_EQ(s.plan.est_cost, p.plan.est_cost);
    EXPECT_EQ(s.executed, p.executed);
    ExpectMetricsEqual(s.metrics, p.metrics);
    EXPECT_EQ(s.diff_vs_default.ToString(), p.diff_vs_default.ToString());
  }
  EXPECT_EQ(serial.BestRuntimeChangePct(), parallel.BestRuntimeChangePct());
}

TEST(PipelineParallel, AnalyzeJobMatchesSerialAcrossWorkerCounts) {
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  SteeringPipeline serial(&optimizer, &simulator, Options(0));
  ASSERT_EQ(serial.pool(), nullptr);

  for (int workers : {1, 2, 8}) {
    SteeringPipeline parallel(&optimizer, &simulator, Options(workers));
    ASSERT_NE(parallel.pool(), nullptr);
    EXPECT_EQ(parallel.pool()->num_threads(), workers);
    for (int t = 0; t < 4; ++t) {
      Job job = workload.MakeJob(t, /*day=*/1);
      JobAnalysis a = serial.AnalyzeJob(job);
      JobAnalysis b = parallel.AnalyzeJob(job);
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " job=" << job.name);
      ExpectAnalysesEqual(a, b);
    }
  }
}

TEST(PipelineParallel, ExplorationStatsDoNotDependOnTiming) {
  // Candidates with equal exploration bits compile in runs, each in order
  // through its own session, and the runs depend on the worker count only:
  // which compiles reuse an exploration never depends on which worker got
  // there first.
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  auto stats_with = [&](int workers) {
    PipelineOptions options = Options(workers);
    options.compile_cache_mb = 0;
    SteeringPipeline pipeline(&optimizer, &simulator, options);
    for (int t = 0; t < 4; ++t) pipeline.Recompile(workload.MakeJob(t, /*day=*/1));
    return pipeline.exploration_stats();
  };
  const SteeringPipeline::ExplorationStats serial = stats_with(0);
  EXPECT_GT(serial.reused, 0);
  for (int workers : {2, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const SteeringPipeline::ExplorationStats first = stats_with(workers);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const SteeringPipeline::ExplorationStats again = stats_with(workers);
      EXPECT_EQ(again.run, first.run);
      EXPECT_EQ(again.reused, first.reused);
    }
    // The same compiles, split into more runs.
    EXPECT_EQ(first.run + first.reused, serial.run + serial.reused);
    EXPECT_GE(first.run, serial.run);
    EXPECT_GT(first.reused, 0);
  }
}

TEST(PipelineParallel, BatchEntryPointMatchesPerJobCalls) {
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  std::vector<Job> jobs;
  for (int t = 0; t < 6; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/2));

  SteeringPipeline serial(&optimizer, &simulator, Options(0));
  SteeringPipeline parallel(&optimizer, &simulator, Options(2));

  std::vector<JobAnalysis> batch = parallel.AnalyzeJobs(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job index " << i);
    ExpectAnalysesEqual(serial.AnalyzeJob(jobs[i]), batch[i]);
  }

  // Pool counters observed real fan-out work.
  ThreadPoolStats stats = parallel.pool_stats();
  EXPECT_EQ(stats.num_threads, 2);
  EXPECT_GT(stats.tasks_submitted, 0);
}

TEST(PipelineParallel, SerialPoolStatsAreZeroed) {
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  SteeringPipeline serial(&optimizer, &simulator, Options(0));
  ThreadPoolStats stats = serial.pool_stats();
  EXPECT_EQ(stats.num_threads, 0);
  EXPECT_EQ(stats.tasks_submitted, 0);
}

TEST(PipelineParallel, FaultInjectionMatchesSerialAcrossWorkerCounts) {
  // The determinism contract extends to fault injection: with a nonzero
  // fault profile and a retry policy, every injected failure, straggler and
  // retry must replay identically no matter how many workers executed the
  // analysis. Fault nonces are pure hashes of (job, plan, run nonce), so
  // evaluation order cannot leak into the draws.
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  SimulatorOptions sim_options;
  sim_options.fault_profile = FaultProfile::Flaky(2.0);
  ExecutionSimulator simulator(&workload.catalog(), sim_options);

  PipelineOptions options = Options(0);
  options.retry.max_attempts = 3;
  SteeringPipeline serial(&optimizer, &simulator, options);

  for (int workers : {1, 2, 8}) {
    PipelineOptions parallel_options = Options(workers);
    parallel_options.retry.max_attempts = 3;
    SteeringPipeline parallel(&optimizer, &simulator, parallel_options);
    for (int t = 0; t < 4; ++t) {
      Job job = workload.MakeJob(t, /*day=*/4);
      JobAnalysis a = serial.AnalyzeJob(job);
      JobAnalysis b = parallel.AnalyzeJob(job);
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " job=" << job.name);
      ExpectAnalysesEqual(a, b);
    }
  }

  // The profile actually injected something across these analyses (the
  // counters above compared more than all-zero fields).
  PipelineFailureStats stats = serial.failure_stats();
  Job probe = workload.MakeJob(0, /*day=*/4);
  JobAnalysis analysis = serial.AnalyzeJob(probe);
  bool saw_faults = analysis.default_metrics.retries > 0 ||
                    analysis.default_metrics.failed_vertices > 0 ||
                    analysis.default_metrics.token_revocations > 0 ||
                    analysis.default_metrics.wasted_cpu_time > 0.0 ||
                    stats.exec_retries > 0;
  for (const ConfigOutcome& outcome : analysis.executed) {
    saw_faults = saw_faults || outcome.metrics.retries > 0 ||
                 outcome.metrics.token_revocations > 0 ||
                 outcome.metrics.wasted_cpu_time > 0.0;
  }
  EXPECT_TRUE(saw_faults);
}

TEST(PipelineParallel, RecompileJobsMatchesSerial) {
  Workload workload(Spec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  std::vector<Job> jobs;
  for (int t = 0; t < 5; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/3));

  SteeringPipeline serial(&optimizer, &simulator, Options(0));
  SteeringPipeline parallel(&optimizer, &simulator, Options(8));
  std::vector<JobAnalysis> a = serial.RecompileJobs(jobs);
  std::vector<JobAnalysis> b = parallel.RecompileJobs(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job index " << i);
    ExpectAnalysesEqual(a[i], b[i]);
  }
}

}  // namespace
}  // namespace qsteer
