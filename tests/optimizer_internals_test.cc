// Optimizer-internal behaviours on hand-built jobs: enforcer placement,
// broadcast-join resolution, DOP inheritance, virtual-dataset parallelism,
// index-apply extraction, and compilation-failure modes.
#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/rule_registry.h"

namespace qsteer {
namespace {

class OptimizerInternalsTest : public ::testing::Test {
 protected:
  OptimizerInternalsTest() {
    StreamSet logs;
    logs.name = "logs";
    logs.columns = {
        {.name = "k", .distinct_count = 100000},
        {.name = "a", .distinct_count = 500},
    };
    int logs_id = catalog_.AddStreamSet(std::move(logs));
    for (int d = 0; d < 3; ++d) {
      EXPECT_TRUE(catalog_.AddStream(logs_id, "logs_d" + std::to_string(d), 50'000'000, 32).ok());
    }
    StreamSet dim;
    dim.name = "dim";
    dim.columns = {
        {.name = "dk", .distinct_count = 90000},
        {.name = "dv", .distinct_count = 40},
    };
    int dim_id = catalog_.AddStreamSet(std::move(dim));
    EXPECT_TRUE(catalog_.AddStream(dim_id, "dim_d0", 100000, 8).ok());

    universe_ = std::make_shared<ColumnUniverse>();
    k_ = universe_->GetOrAddBaseColumn(0, 0, "k");
    a_ = universe_->GetOrAddBaseColumn(0, 1, "a");
    dk_ = universe_->GetOrAddBaseColumn(1, 0, "dk");
    dv_ = universe_->GetOrAddBaseColumn(1, 1, "dv");
  }

  PlanNodePtr Scan(int set, int variant = 0) {
    Operator op;
    op.kind = OpKind::kGet;
    op.stream_set_id = set;
    op.stream_id = catalog_.stream_set(set).stream_ids[static_cast<size_t>(variant)];
    op.scan_columns = set == 0 ? std::vector<ColumnId>{k_, a_}
                               : std::vector<ColumnId>{dk_, dv_};
    return PlanNode::Make(op, {});
  }

  Job WrapJob(PlanNodePtr body) {
    Operator output;
    output.kind = OpKind::kOutput;
    Job job;
    job.name = "internals";
    job.day = 1;
    job.columns = universe_;
    job.root = PlanNode::Make(output, {std::move(body)});
    return job;
  }

  int CountKind(const PlanNodePtr& root, OpKind kind) {
    int n = 0;
    VisitPlan(root, [&](const PlanNode& node) {
      if (node.op.kind == kind) ++n;
    });
    return n;
  }

  const PlanNode* FindKind(const PlanNodePtr& root, OpKind kind) {
    const PlanNode* found = nullptr;
    VisitPlan(root, [&](const PlanNode& node) {
      if (node.op.kind == kind) found = &node;
    });
    return found;
  }

  Catalog catalog_;
  std::shared_ptr<ColumnUniverse> universe_;
  ColumnId k_, a_, dk_, dv_;
};

TEST_F(OptimizerInternalsTest, GroupByGetsRepartitionEnforcer) {
  Operator gb;
  gb.kind = OpKind::kGroupBy;
  gb.group_keys = {a_};
  gb.aggs = {{AggFunc::kCount, kInvalidColumn, universe_->AddDerivedColumn("c", 500)}};
  Job job = WrapJob(PlanNode::Make(gb, {Scan(0)}));
  Optimizer optimizer(&catalog_);
  Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
  ASSERT_TRUE(plan.ok());
  // Scans deliver random partitioning; a hash aggregation needs a shuffle.
  const PlanNode* exchange = FindKind(plan.value().root, OpKind::kExchange);
  ASSERT_NE(exchange, nullptr);
  EXPECT_EQ(exchange->op.exchange, ExchangeKind::kRepartition);
  EXPECT_EQ(exchange->op.exchange_keys, (std::vector<ColumnId>{a_}));
  EXPECT_TRUE(plan.value().signature.Test(rules::kEnforceExchange));
  // The aggregation runs at the exchange's parallelism.
  const PlanNode* agg = FindKind(plan.value().root, OpKind::kHashAgg);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->op.dop, exchange->op.dop);
}

TEST_F(OptimizerInternalsTest, BroadcastJoinBroadcastsAtProbeParallelism) {
  Operator join;
  join.kind = OpKind::kJoin;
  join.join_type = JoinType::kInner;
  join.left_keys = {k_};
  join.right_keys = {dk_};
  Job job = WrapJob(PlanNode::Make(join, {Scan(0), Scan(1)}));
  Optimizer optimizer(&catalog_);
  // Leave only broadcast joins available.
  RuleConfig config = RuleConfig::Default();
  for (RuleId id : {224, 225, 228, 229, 232, 233, 234, 235}) config.Disable(id);
  Result<CompiledPlan> plan = optimizer.Compile(job, config);
  ASSERT_TRUE(plan.ok());
  const PlanNode* bcast_join = FindKind(plan.value().root, OpKind::kBroadcastHashJoin);
  ASSERT_NE(bcast_join, nullptr);
  const PlanNode* bcast_exchange = FindKind(plan.value().root, OpKind::kExchange);
  ASSERT_NE(bcast_exchange, nullptr);
  EXPECT_EQ(bcast_exchange->op.exchange, ExchangeKind::kBroadcast);
  // The broadcast fan-out matches the probe side's (and the join's) DOP.
  EXPECT_EQ(bcast_exchange->op.dop, bcast_join->op.dop);
  EXPECT_TRUE(plan.value().signature.Test(rules::kEnforceBroadcast));
  // The big log side is the probe: its scan keeps its own parallelism.
  EXPECT_GT(bcast_join->op.dop, 1);
}

TEST_F(OptimizerInternalsTest, BroadcastJoinOfAGroupWithItself) {
  // Both join inputs are one shared scan node, so they are one memo group:
  // the search optimizes that group for the probe's request and, inside
  // the same option, again for the broadcast build side.
  PlanNodePtr dim = Scan(1);
  Operator join;
  join.kind = OpKind::kJoin;
  join.join_type = JoinType::kInner;
  join.left_keys = {dk_};
  join.right_keys = {dk_};
  Job job = WrapJob(PlanNode::Make(join, {dim, dim}));
  Optimizer optimizer(&catalog_);
  RuleConfig config = RuleConfig::Default();
  for (RuleId id : {224, 225, 228, 229, 232, 233, 234, 235}) config.Disable(id);
  Result<CompiledPlan> plan = optimizer.Compile(job, config);
  ASSERT_TRUE(plan.ok());
  const PlanNode* bcast_join = FindKind(plan.value().root, OpKind::kBroadcastHashJoin);
  ASSERT_NE(bcast_join, nullptr);
  EXPECT_EQ(bcast_join->op.dop, 2);
  const PlanNode* bcast_exchange = FindKind(plan.value().root, OpKind::kExchange);
  ASSERT_NE(bcast_exchange, nullptr);
  EXPECT_EQ(bcast_exchange->op.exchange, ExchangeKind::kBroadcast);
  EXPECT_EQ(bcast_exchange->op.dop, 2);
  // Recorded before the winner table moved out of the memo.
  EXPECT_EQ(PlanHash(plan.value().root, /*for_template=*/false), 0xff73f78e1b9b0444ull);
  EXPECT_EQ(plan.value().est_cost, 2.568504855588345);
}

TEST_F(OptimizerInternalsTest, FilterInheritsChildDop) {
  Operator select;
  select.kind = OpKind::kSelect;
  select.predicate = Expr::Cmp(a_, CmpOp::kLe, 100);
  Job job = WrapJob(PlanNode::Make(select, {Scan(0)}));
  Optimizer optimizer(&catalog_);
  Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
  ASSERT_TRUE(plan.ok());
  const PlanNode* filter = FindKind(plan.value().root, OpKind::kFilter);
  const PlanNode* scan = FindKind(plan.value().root, OpKind::kRangeScan);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(filter->op.dop, scan->op.dop);
  EXPECT_GT(scan->op.dop, 1);  // 50M rows want parallelism
}

TEST_F(OptimizerInternalsTest, VirtualDatasetAggregatesSourceParallelism) {
  Operator u;
  u.kind = OpKind::kUnionAll;
  Job job = WrapJob(PlanNode::Make(u, {Scan(0, 0), Scan(0, 1), Scan(0, 2)}));
  Optimizer optimizer(&catalog_);
  RuleConfig config = RuleConfig::Default();
  config.Disable(rules::kUnionAllToUnionAll);  // force the virtual dataset
  Result<CompiledPlan> plan = optimizer.Compile(job, config);
  ASSERT_TRUE(plan.ok());
  const PlanNode* vd = FindKind(plan.value().root, OpKind::kVirtualDataset);
  ASSERT_NE(vd, nullptr);
  int scan_dop_total = 0;
  VisitPlan(plan.value().root, [&](const PlanNode& node) {
    if (node.op.kind == OpKind::kRangeScan) scan_dop_total += node.op.dop;
  });
  EXPECT_EQ(vd->op.dop, scan_dop_total);
}

TEST_F(OptimizerInternalsTest, IndexApplyJoinEmbedsInnerStream) {
  Operator join;
  join.kind = OpKind::kJoin;
  join.join_type = JoinType::kInner;
  join.left_keys = {k_};
  join.right_keys = {dk_};  // dim's leading column: seekable
  Job job = WrapJob(PlanNode::Make(join, {Scan(0), Scan(1)}));
  Optimizer optimizer(&catalog_);
  RuleConfig config = RuleConfig::Default();
  // Disable every other join implementation, the left-side apply variant,
  // and join commutativity (otherwise the optimizer commutes the join and
  // seeks into the big log per dimension row — a cheaper plan).
  for (RuleId id : {224, 225, 226, 227, 228, 229, 230, 231, 233, 234, 235, 104, 105}) {
    config.Disable(id);
  }
  Result<CompiledPlan> plan = optimizer.Compile(job, config);
  ASSERT_TRUE(plan.ok());
  const PlanNode* apply = FindKind(plan.value().root, OpKind::kIndexApplyJoin);
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->children.size(), 1u);
  EXPECT_EQ(apply->op.stream_id, catalog_.stream_set(1).stream_ids[0]);
  // The dim side is seeked, not scanned: only the probe scan remains.
  EXPECT_EQ(CountKind(plan.value().root, OpKind::kRangeScan), 1);
  EXPECT_TRUE(plan.value().signature.Test(232));
}

TEST_F(OptimizerInternalsTest, TopNRunsOnGatheredSingleton) {
  Operator top;
  top.kind = OpKind::kTop;
  top.limit = 10;
  top.sort_keys = {a_};
  Job job = WrapJob(PlanNode::Make(top, {Scan(0)}));
  Optimizer optimizer(&catalog_);
  Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
  ASSERT_TRUE(plan.ok());
  const PlanNode* topn = FindKind(plan.value().root, OpKind::kTopNSort);
  if (topn == nullptr) topn = FindKind(plan.value().root, OpKind::kTopNHeap);
  ASSERT_NE(topn, nullptr);
  EXPECT_EQ(topn->op.dop, 1);
  const PlanNode* gather = FindKind(plan.value().root, OpKind::kExchange);
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->op.exchange, ExchangeKind::kGather);
  EXPECT_TRUE(plan.value().signature.Test(rules::kEnforceGather));
}

TEST_F(OptimizerInternalsTest, NonOutputRootRejected) {
  Optimizer optimizer(&catalog_);
  Job job = WrapJob(Scan(0));
  job.root = Scan(0);  // missing the Output wrapper
  Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OptimizerInternalsTest, MemoBudgetsAreRespected) {
  // A join chain explores many alternatives; the memo must stay within the
  // configured budgets.
  PlanNodePtr body = Scan(0);
  Operator join;
  join.kind = OpKind::kJoin;
  join.join_type = JoinType::kInner;
  join.left_keys = {k_};
  join.right_keys = {dk_};
  body = PlanNode::Make(join, {body, Scan(1)});
  Job job = WrapJob(body);
  OptimizerOptions options;
  options.max_total_exprs = 200;
  options.max_exprs_per_group = 6;
  Optimizer optimizer(&catalog_, options);
  Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::AllEnabled());
  ASSERT_TRUE(plan.ok());
  // Implementations may exceed the exploration cap, but not unboundedly.
  EXPECT_LT(plan.value().memo_exprs, 1000);
}

}  // namespace
}  // namespace qsteer
