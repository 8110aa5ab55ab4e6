// Execution-simulator behaviour: token budget, metric relationships, DAG
// sharing, and the A/B harness.
#include "exec/simulator.h"

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace qsteer {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : workload_(Spec()), optimizer_(&workload_.catalog()) {}

  static WorkloadSpec Spec() {
    WorkloadSpec spec;
    spec.name = "E";
    spec.seed = 606;
    spec.num_templates = 20;
    spec.num_stream_sets = 16;
    return spec;
  }

  PlanNodePtr CompiledRoot(const Job& job) {
    Result<CompiledPlan> plan = optimizer_.Compile(job, RuleConfig::Default());
    EXPECT_TRUE(plan.ok());
    return plan.value().root;
  }

  Workload workload_;
  Optimizer optimizer_;
};

TEST_F(SimulatorTest, FewerTokensNeverFaster) {
  SimulatorOptions rich;
  rich.tokens = 200;
  rich.deterministic = true;
  SimulatorOptions poor;
  poor.tokens = 5;
  poor.deterministic = true;
  ExecutionSimulator rich_sim(&workload_.catalog(), rich);
  ExecutionSimulator poor_sim(&workload_.catalog(), poor);
  int strictly_slower = 0;
  for (int t = 0; t < 10; ++t) {
    Job job = workload_.MakeJob(t, 1);
    PlanNodePtr root = CompiledRoot(job);
    double fast = rich_sim.Execute(job, root).runtime;
    double slow = poor_sim.Execute(job, root).runtime;
    EXPECT_GE(slow, fast * 0.999) << t;
    if (slow > fast * 1.05) ++strictly_slower;
    // CPU work identical: tokens change scheduling, not total computation.
    EXPECT_NEAR(rich_sim.Execute(job, root).cpu_time, poor_sim.Execute(job, root).cpu_time,
                rich_sim.Execute(job, root).cpu_time * 1e-6);
  }
  EXPECT_GT(strictly_slower, 3);
}

TEST_F(SimulatorTest, DeterministicModeIsNoiseFree) {
  SimulatorOptions options;
  options.deterministic = true;
  ExecutionSimulator sim(&workload_.catalog(), options);
  Job job = workload_.MakeJob(2, 1);
  PlanNodePtr root = CompiledRoot(job);
  EXPECT_DOUBLE_EQ(sim.Execute(job, root, 1).runtime, sim.Execute(job, root, 2).runtime);
}

TEST_F(SimulatorTest, ShortJobsNoisierThanLongJobs) {
  ExecutionSimulator sim(&workload_.catalog());
  // Find a short and a long job under the default config.
  double short_rel_spread = -1, long_rel_spread = -1;
  for (int t = 0; t < 20; ++t) {
    Job job = workload_.MakeJob(t, 1);
    PlanNodePtr root = CompiledRoot(job);
    std::vector<double> runs;
    for (uint64_t n = 1; n <= 20; ++n) runs.push_back(sim.Execute(job, root, n).runtime);
    double lo = *std::min_element(runs.begin(), runs.end());
    double hi = *std::max_element(runs.begin(), runs.end());
    double mid = (lo + hi) / 2;
    double spread = (hi - lo) / mid;
    if (mid < kShortJobThreshold) {
      short_rel_spread = std::max(short_rel_spread, spread);
    } else {
      long_rel_spread = std::max(long_rel_spread, spread);
    }
  }
  if (short_rel_spread > 0 && long_rel_spread > 0) {
    EXPECT_GT(short_rel_spread, long_rel_spread);
  }
}

TEST_F(SimulatorTest, SharedFragmentsCostOnce) {
  // Build union-of-two-references over ONE shared subplan and compare to the
  // same plan with two physically distinct copies: the shared DAG must be
  // cheaper on CPU (evaluated once).
  const StreamSet& set = workload_.catalog().stream_set(0);
  auto universe = std::make_shared<ColumnUniverse>();
  std::vector<ColumnId> cols;
  for (size_t c = 0; c < set.columns.size(); ++c) {
    cols.push_back(universe->GetOrAddBaseColumn(0, static_cast<int>(c), set.columns[c].name));
  }
  Operator scan;
  scan.kind = OpKind::kRangeScan;
  scan.stream_id = set.stream_ids[0];
  scan.stream_set_id = 0;
  scan.scan_columns = cols;
  scan.dop = 8;
  Operator filter;
  filter.kind = OpKind::kFilter;
  filter.predicate = Expr::Cmp(cols[1], CmpOp::kLe, 10);
  filter.dop = 8;
  Operator union_op;
  union_op.kind = OpKind::kPhysicalUnionAll;
  union_op.dop = 8;
  Operator writer;
  writer.kind = OpKind::kOutputWriter;
  writer.dop = 8;

  PlanNodePtr shared_branch = PlanNode::Make(filter, {PlanNode::Make(scan, {})});
  PlanNodePtr shared_root = PlanNode::Make(
      writer, {PlanNode::Make(union_op, {shared_branch, shared_branch})});
  PlanNodePtr copy_a = PlanNode::Make(filter, {PlanNode::Make(scan, {})});
  PlanNodePtr copy_b = PlanNode::Make(filter, {PlanNode::Make(scan, {})});
  PlanNodePtr copied_root =
      PlanNode::Make(writer, {PlanNode::Make(union_op, {copy_a, copy_b})});

  Job job;
  job.name = "shared";
  job.day = 1;
  job.columns = universe;
  job.root = shared_root;  // only day/columns matter to the simulator

  SimulatorOptions options;
  options.deterministic = true;
  ExecutionSimulator sim(&workload_.catalog(), options);
  ExecMetrics shared = sim.Execute(job, shared_root);
  ExecMetrics copied = sim.Execute(job, copied_root);
  EXPECT_LT(shared.cpu_time, copied.cpu_time * 0.75);
  EXPECT_DOUBLE_EQ(shared.output_rows, copied.output_rows);
}

TEST_F(SimulatorTest, MetricsAreInternallyConsistent) {
  ExecutionSimulator sim(&workload_.catalog());
  for (int t = 0; t < 8; ++t) {
    Job job = workload_.MakeJob(t, 1);
    ExecMetrics m = sim.Execute(job, CompiledRoot(job));
    EXPECT_GT(m.runtime, 0.0);
    EXPECT_GT(m.cpu_time, 0.0);
    EXPECT_GE(m.io_time, 0.0);
    EXPECT_GE(m.bytes_moved, 0.0);
    EXPECT_GE(m.output_rows, 0.0);
  }
}

TEST_F(SimulatorTest, MetricAccessors) {
  ExecMetrics m;
  m.runtime = 1;
  m.cpu_time = 2;
  m.io_time = 3;
  EXPECT_DOUBLE_EQ(MetricOf(m, Metric::kRuntime), 1);
  EXPECT_DOUBLE_EQ(MetricOf(m, Metric::kCpuTime), 2);
  EXPECT_DOUBLE_EQ(MetricOf(m, Metric::kIoTime), 3);
  EXPECT_STREQ(MetricName(Metric::kRuntime), "Runtime");
  EXPECT_STREQ(MetricName(Metric::kCpuTime), "CPU time");
  EXPECT_STREQ(MetricName(Metric::kIoTime), "IO time");
}

TEST_F(SimulatorTest, AbHarnessCompilesAndExecutes) {
  ExecutionSimulator sim(&workload_.catalog());
  AbTestHarness harness(&optimizer_, &sim);
  Job job = workload_.MakeJob(1, 1);
  Result<AbRunResult> run = harness.Run(job, RuleConfig::Default(), 7);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.value().metrics.runtime, 0.0);
  EXPECT_NE(run.value().plan.root, nullptr);

  // A configuration that cannot compile propagates the failure.
  RuleConfig broken = RuleConfig::Default();
  for (RuleId id = kImplementationBegin; id < kNumRules; ++id) broken.Disable(id);
  bool any_failed = false;
  for (int t = 0; t < 10 && !any_failed; ++t) {
    any_failed = !harness.Run(workload_.MakeJob(t, 1), broken).ok();
  }
  EXPECT_TRUE(any_failed);
}

}  // namespace
}  // namespace qsteer
