// Tests of the deterministic fault model: zero-profile bit-identity (the
// fault layer is strictly opt-in), per-nonce reproducibility of every
// injected failure, the individual fault channels (vertex failures, token
// revocation, job-level aborts), compile deadlines, and the
// pipeline's retry-with-fresh-nonce machinery.
#include <gtest/gtest.h>

#include "common/retry.h"
#include "core/pipeline.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.name = "FI";
  spec.seed = 777;
  spec.num_templates = 12;
  spec.num_stream_sets = 10;
  return spec;
}

void ExpectSameMetrics(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.cpu_time, b.cpu_time);
  EXPECT_EQ(a.io_time, b.io_time);
  EXPECT_EQ(a.bytes_moved, b.bytes_moved);
  EXPECT_EQ(a.output_rows, b.output_rows);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_vertices, b.failed_vertices);
  EXPECT_EQ(a.speculative_copies, b.speculative_copies);
  EXPECT_EQ(a.token_revocations, b.token_revocations);
  EXPECT_EQ(a.wasted_cpu_time, b.wasted_cpu_time);
  EXPECT_EQ(a.failed, b.failed);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : workload_(Spec()), optimizer_(&workload_.catalog()) {
    job_ = workload_.MakeJob(1, /*day=*/2);
    Result<CompiledPlan> plan = optimizer_.Compile(job_, RuleConfig::Default());
    EXPECT_TRUE(plan.ok());
    root_ = plan.value().root;
  }

  ExecutionSimulator Sim(FaultProfile profile) const {
    SimulatorOptions options;
    options.fault_profile = profile;
    return ExecutionSimulator(&workload_.catalog(), options);
  }

  Workload workload_;
  Optimizer optimizer_;
  Job job_;
  PlanNodePtr root_;
};

TEST_F(FaultInjectionTest, ProfileActivation) {
  EXPECT_FALSE(FaultProfile().Active());
  EXPECT_FALSE(FaultProfile::Off().Active());
  EXPECT_FALSE(FaultProfile::Flaky(0.0).Active());
  EXPECT_TRUE(FaultProfile::Flaky(1.0).Active());
  // Scaling saturates: probabilities stay valid at absurd levels.
  FaultProfile extreme = FaultProfile::Flaky(1e6);
  EXPECT_LE(extreme.vertex_failure_prob, 0.5);
  EXPECT_LE(extreme.straggler_prob, 0.5);
  EXPECT_LE(extreme.token_revocation_prob, 0.5);
  EXPECT_LE(extreme.job_failure_prob, 0.3);
}

TEST_F(FaultInjectionTest, ZeroProfileIsBitIdenticalToFaultFreeSimulator) {
  ExecutionSimulator plain(&workload_.catalog());
  ExecutionSimulator zeroed = Sim(FaultProfile::Off());
  for (uint64_t nonce : {0ull, 1ull, 42ull, 999ull}) {
    ExecMetrics a = plain.Execute(job_, root_, nonce);
    ExecMetrics b = zeroed.Execute(job_, root_, nonce);
    SCOPED_TRACE(testing::Message() << "nonce=" << nonce);
    ExpectSameMetrics(a, b);
    // And the fault layer reported nothing.
    EXPECT_EQ(b.retries, 0);
    EXPECT_EQ(b.failed_vertices, 0);
    EXPECT_EQ(b.speculative_copies, 0);
    EXPECT_EQ(b.token_revocations, 0);
    EXPECT_EQ(b.wasted_cpu_time, 0.0);
    EXPECT_FALSE(b.failed);
  }
}

TEST_F(FaultInjectionTest, FaultDrawsAreReproduciblePerNonce) {
  ExecutionSimulator sim = Sim(FaultProfile::Flaky(3.0));
  for (uint64_t nonce = 0; nonce < 16; ++nonce) {
    ExecMetrics first = sim.Execute(job_, root_, nonce);
    ExecMetrics second = sim.Execute(job_, root_, nonce);
    SCOPED_TRACE(testing::Message() << "nonce=" << nonce);
    ExpectSameMetrics(first, second);
  }
  // Different nonces draw different faults (at least the runtimes differ
  // somewhere across a handful of nonces).
  bool any_different = false;
  ExecMetrics base = sim.Execute(job_, root_, 0);
  for (uint64_t nonce = 1; nonce < 8 && !any_different; ++nonce) {
    any_different = sim.Execute(job_, root_, nonce).runtime != base.runtime;
  }
  EXPECT_TRUE(any_different);
}

TEST_F(FaultInjectionTest, VertexFailuresCostRetriesAndWaste) {
  FaultProfile profile;
  profile.vertex_failure_prob = 0.3;
  ExecutionSimulator faulty = Sim(profile);
  ExecutionSimulator clean = Sim(FaultProfile::Off());
  int total_retries = 0, total_failed_vertices = 0;
  double total_waste = 0.0;
  for (uint64_t nonce = 0; nonce < 12; ++nonce) {
    ExecMetrics f = faulty.Execute(job_, root_, nonce);
    ExecMetrics c = clean.Execute(job_, root_, nonce);
    total_retries += f.retries;
    total_failed_vertices += f.failed_vertices;
    total_waste += f.wasted_cpu_time;
    // Re-running vertices never makes the job faster or cheaper.
    EXPECT_GE(f.runtime, c.runtime);
    EXPECT_GE(f.cpu_time, c.cpu_time);
  }
  EXPECT_GT(total_retries, 0);
  EXPECT_GT(total_failed_vertices, 0);
  EXPECT_GT(total_waste, 0.0);
}

TEST_F(FaultInjectionTest, TokenRevocationSlowsTheRun) {
  FaultProfile profile;
  profile.token_revocation_prob = 1.0;
  ExecutionSimulator faulty = Sim(profile);
  ExecutionSimulator clean = Sim(FaultProfile::Off());
  ExecMetrics f = faulty.Execute(job_, root_, 5);
  ExecMetrics c = clean.Execute(job_, root_, 5);
  EXPECT_GT(f.token_revocations, 0);
  EXPECT_GE(f.runtime, c.runtime);
  EXPECT_FALSE(f.failed);  // preemption slows but does not kill the run
}

TEST_F(FaultInjectionTest, JobLevelFailureAbortsWithPartialMetrics) {
  FaultProfile profile;
  profile.job_failure_prob = 1.0;
  ExecutionSimulator faulty = Sim(profile);
  ExecutionSimulator clean = Sim(FaultProfile::Off());
  ExecMetrics f = faulty.Execute(job_, root_, 3);
  ExecMetrics c = clean.Execute(job_, root_, 3);
  EXPECT_TRUE(f.failed);
  EXPECT_GT(f.runtime, 0.0);
  EXPECT_LT(f.runtime, c.runtime);  // aborted partway
  EXPECT_GT(f.wasted_cpu_time, 0.0);
}

TEST_F(FaultInjectionTest, StragglersWasteSpeculativeCopies) {
  FaultProfile profile;
  profile.straggler_prob = 0.9;
  profile.straggler_mu = 1.5;  // heavy slowdowns: speculation will fire
  profile.speculation_threshold = 1.2;
  ExecutionSimulator faulty = Sim(profile);
  int copies = 0;
  double waste = 0.0;
  for (uint64_t nonce = 0; nonce < 8; ++nonce) {
    ExecMetrics f = faulty.Execute(job_, root_, nonce);
    copies += f.speculative_copies;
    waste += f.wasted_cpu_time;
    EXPECT_FALSE(f.failed);  // stragglers slow runs, they do not kill them
  }
  EXPECT_GT(copies, 0);
  EXPECT_GT(waste, 0.0);
}

TEST_F(FaultInjectionTest, ExecuteWithRetryRecoversTransientFailures) {
  FaultProfile profile;
  profile.job_failure_prob = 0.5;
  SimulatorOptions sim_options;
  sim_options.fault_profile = profile;
  ExecutionSimulator simulator(&workload_.catalog(), sim_options);
  PipelineOptions options;
  options.retry.max_attempts = 4;
  SteeringPipeline pipeline(&optimizer_, &simulator, options);

  bool recovered_one = false;
  for (uint64_t nonce = 0; nonce < 24 && !recovered_one; ++nonce) {
    if (!simulator.Execute(job_, root_, nonce).failed) continue;
    ExecMetrics retried = pipeline.ExecuteWithRetry(job_, root_, nonce);
    if (retried.failed) continue;  // all four attempts failed: rare but legal
    recovered_one = true;
    // The recovered run carries the failed attempts' cost.
    EXPECT_GT(retried.retries, 0);
    EXPECT_GT(retried.wasted_cpu_time, 0.0);
  }
  EXPECT_TRUE(recovered_one);
  EXPECT_GT(pipeline.failure_stats().exec_retries, 0);

  // Retries are part of the deterministic contract too.
  ExecMetrics a = pipeline.ExecuteWithRetry(job_, root_, 7);
  ExecMetrics b = pipeline.ExecuteWithRetry(job_, root_, 7);
  ExpectSameMetrics(a, b);
}

TEST_F(FaultInjectionTest, CompileDeadlineReturnsInsteadOfHanging) {
  CompileControl control;
  control.timeout_s = 1e-12;  // expires before the first progress poll
  Result<CompiledPlan> plan = optimizer_.Compile(job_, RuleConfig::Default(), control);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, UnboundedControlMatchesPlainCompile) {
  Result<CompiledPlan> plain = optimizer_.Compile(job_, RuleConfig::Default());
  Result<CompiledPlan> controlled =
      optimizer_.Compile(job_, RuleConfig::Default(), CompileControl{});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(controlled.ok());
  EXPECT_EQ(PlanHash(plain.value().root, false), PlanHash(controlled.value().root, false));
  EXPECT_EQ(plain.value().est_cost, controlled.value().est_cost);
}

TEST_F(FaultInjectionTest, PipelineCountsCompileTimeouts) {
  ExecutionSimulator simulator(&workload_.catalog());
  PipelineOptions options;
  options.compile_timeout_s = 1e-12;
  options.retry.max_attempts = 2;
  SteeringPipeline pipeline(&optimizer_, &simulator, options);
  JobAnalysis analysis = pipeline.AnalyzeJob(job_);
  // Even the default compilation misses an impossible deadline: the
  // pipeline degrades to an empty analysis instead of hanging or crashing.
  EXPECT_EQ(analysis.default_plan.root, nullptr);
  PipelineFailureStats stats = pipeline.failure_stats();
  EXPECT_GE(stats.compile_timeouts, 1);
  EXPECT_GE(stats.compile_retries, 1);
  EXPECT_GT(stats.Total(), 0);
}

TEST(RetryPolicyTest, BackoffMath) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 2.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 6.0;
  EXPECT_EQ(policy.max_retries(), 3);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeRetry(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeRetry(2), 4.0);
  EXPECT_DOUBLE_EQ(policy.BackoffBeforeRetry(3), 6.0);  // capped
  EXPECT_DOUBLE_EQ(policy.TotalBackoff(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.TotalBackoff(3), 12.0);
  RetryPolicy none;
  none.max_attempts = 1;
  EXPECT_EQ(none.max_retries(), 0);
}

}  // namespace
}  // namespace qsteer
