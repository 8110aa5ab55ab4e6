// Per-rule unit tests: each transformation/implementation rule fires exactly
// on its pattern (and produces the documented shape) and refuses invalid or
// out-of-window matches. The semantic correctness of the produced plans is
// covered separately by correctness_test.cc; these tests pin the matchers.
#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/rule_registry.h"
#include "optimizer/rules.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class RulesTest : public ::testing::Test {
 protected:
  RulesTest() {
    ctx_.memo = &memo_;
    ctx_.universe = &universe_;
    // Two stream sets: a 3-column log (set 0) and a 2-column dim (set 1).
    for (int c = 0; c < 3; ++c) {
      log_cols_.push_back(universe_.GetOrAddBaseColumn(0, c, "l" + std::to_string(c)));
    }
    for (int c = 0; c < 2; ++c) {
      dim_cols_.push_back(universe_.GetOrAddBaseColumn(1, c, "d" + std::to_string(c)));
    }
  }

  GroupId AddScan(int set, int stream, const std::vector<ColumnId>& cols) {
    Operator op;
    op.kind = OpKind::kGet;
    op.stream_set_id = set;
    op.stream_id = stream;
    op.scan_columns = cols;
    return GroupOf(memo_.AddExpr(op, {}, kInvalidGroup, -1, kInvalidExpr));
  }

  GroupId AddSelect(GroupId child, ExprPtr pred) {
    Operator op;
    op.kind = OpKind::kSelect;
    op.predicate = std::move(pred);
    return GroupOf(memo_.AddExpr(op, {child}, kInvalidGroup, -1, kInvalidExpr));
  }

  GroupId AddUnion(std::vector<GroupId> children) {
    Operator op;
    op.kind = OpKind::kUnionAll;
    return GroupOf(memo_.AddExpr(op, std::move(children), kInvalidGroup, -1, kInvalidExpr));
  }

  GroupId AddJoin(GroupId left, GroupId right, JoinType type, ColumnId lk, ColumnId rk) {
    Operator op;
    op.kind = OpKind::kJoin;
    op.join_type = type;
    op.left_keys = {lk};
    op.right_keys = {rk};
    return GroupOf(memo_.AddExpr(op, {left, right}, kInvalidGroup, -1, kInvalidExpr));
  }

  GroupId GroupOf(ExprId id) { return memo_.expr(id).group; }
  const GroupExpr& Top(GroupId g) { return memo_.expr(memo_.group(g).exprs.front()); }

  std::vector<OpTree> Apply(const Rule& rule, GroupId group) {
    std::vector<OpTree> out;
    rule.Apply(ctx_, Top(group), &out);
    return out;
  }

  Memo memo_;
  ColumnUniverse universe_;
  RuleContext ctx_;
  std::vector<ColumnId> log_cols_;
  std::vector<ColumnId> dim_cols_;
};

TEST_F(RulesTest, CollapseSelectsWindows) {
  GroupId scan = AddScan(0, 0, log_cols_);
  GroupId inner = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 1));
  GroupId outer = AddSelect(inner, Expr::Cmp(log_cols_[1], CmpOp::kLt, 5));

  CollapseSelectsRule pair(83, "t", IntWindow{2, 2});
  std::vector<OpTree> out = Apply(pair, outer);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].op.predicate->CountAtoms(), 2);
  ASSERT_EQ(out[0].children.size(), 1u);
  EXPECT_EQ(out[0].children[0].leaf_group, scan);

  // Window {3, inf} requires a deeper stack.
  CollapseSelectsRule deep(84, "t2", IntWindow{3, 1 << 30});
  EXPECT_TRUE(Apply(deep, outer).empty());
  GroupId third = AddSelect(outer, Expr::Cmp(log_cols_[2], CmpOp::kGe, 2));
  EXPECT_EQ(Apply(deep, third).size(), 1u);
  // Non-select expressions never match.
  EXPECT_TRUE(Apply(pair, scan).empty());
}

TEST_F(RulesTest, SelectOnTrueAliasesChild) {
  GroupId scan = AddScan(0, 0, log_cols_);
  GroupId noop = AddSelect(scan, Expr::True());
  SelectOnTrueRule rule(85, "t");
  std::vector<OpTree> out = Apply(rule, noop);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_leaf);
  EXPECT_EQ(out[0].leaf_group, scan);
  GroupId real = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 1));
  EXPECT_TRUE(Apply(rule, real).empty());
}

TEST_F(RulesTest, SelectSplitConjunctionWindow) {
  GroupId scan = AddScan(0, 0, log_cols_);
  GroupId both = AddSelect(scan, Expr::And({Expr::Cmp(log_cols_[0], CmpOp::kEq, 1),
                                            Expr::Cmp(log_cols_[1], CmpOp::kLt, 9)}));
  SelectSplitConjunctionRule rule(86, "t", IntWindow{2, 3});
  std::vector<OpTree> out = Apply(rule, both);
  ASSERT_EQ(out.size(), 1u);
  // A stack of two single-conjunct selects.
  EXPECT_EQ(out[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].op.predicate->CountAtoms(), 1);
  ASSERT_EQ(out[0].children.size(), 1u);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kSelect);
  // Single-conjunct selects are not split.
  GroupId single = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 3));
  EXPECT_TRUE(Apply(rule, single).empty());
}

TEST_F(RulesTest, SelectPredNormalizeOnlyWhenUnsorted) {
  GroupId scan = AddScan(0, 0, log_cols_);
  ExprPtr a = Expr::Cmp(log_cols_[0], CmpOp::kEq, 1);
  ExprPtr b = Expr::Cmp(log_cols_[1], CmpOp::kLt, 9);
  bool a_first = a->Hash(true) < b->Hash(true);
  GroupId sorted_sel = AddSelect(scan, a_first ? Expr::And({a, b}) : Expr::And({b, a}));
  GroupId unsorted_sel = AddSelect(scan, a_first ? Expr::And({b, a}) : Expr::And({a, b}));
  SelectPredNormalizeRule rule(87, "t");
  EXPECT_TRUE(Apply(rule, sorted_sel).empty());
  EXPECT_EQ(Apply(rule, unsorted_sel).size(), 1u);
}

TEST_F(RulesTest, PushSelectBelowJoinSidesAndOuterGuard) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId inner = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  ExprPtr left_pred = Expr::Cmp(log_cols_[1], CmpOp::kLt, 5);
  ExprPtr right_pred = Expr::Cmp(dim_cols_[1], CmpOp::kEq, 2);
  GroupId sel = AddSelect(inner, Expr::And({left_pred, right_pred}));

  PushSelectBelowJoinRule both(98, "t", 2, IntWindow{2, 1 << 30});
  std::vector<OpTree> out = Apply(both, sel);
  ASSERT_EQ(out.size(), 1u);
  // Both conjuncts pushed: root is the join, each side wrapped in a select.
  EXPECT_EQ(out[0].op.kind, OpKind::kJoin);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].children[1].op.kind, OpKind::kSelect);

  PushSelectBelowJoinRule left_only(95, "t", 0, IntWindow{2, 1 << 30});
  out = Apply(left_only, sel);
  ASSERT_EQ(out.size(), 1u);
  // Right conjunct stays above as residual select.
  EXPECT_EQ(out[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kJoin);

  // Outer join: the right (null-padded) side must not receive pushdowns.
  GroupId outer = AddJoin(log, dim, JoinType::kLeftOuter, log_cols_[0], dim_cols_[0]);
  GroupId outer_sel = AddSelect(outer, right_pred);
  PushSelectBelowJoinRule right_only(96, "t", 1, IntWindow{1, 1});
  EXPECT_TRUE(Apply(right_only, outer_sel).empty());
  // ...but the preserved left side may.
  GroupId outer_sel_left = AddSelect(outer, left_pred);
  PushSelectBelowJoinRule left_one(94, "t", 0, IntWindow{1, 1});
  EXPECT_EQ(Apply(left_one, outer_sel_left).size(), 1u);
}

TEST_F(RulesTest, PushSelectBelowUnionBranchWindow) {
  GroupId u = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_),
                        AddScan(0, 2, log_cols_)});
  GroupId sel = AddSelect(u, Expr::Cmp(log_cols_[0], CmpOp::kEq, 7));
  PushSelectBelowUnionRule narrow(99, "t", IntWindow{2, 5});
  std::vector<OpTree> out = Apply(narrow, sel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kUnionAll);
  EXPECT_EQ(out[0].children.size(), 3u);
  for (const OpTree& branch : out[0].children) {
    EXPECT_EQ(branch.op.kind, OpKind::kSelect);
  }
  PushSelectBelowUnionRule wide(100, "t", IntWindow{6, 1 << 30});
  EXPECT_TRUE(Apply(wide, sel).empty());
}

TEST_F(RulesTest, MergeSelectIntoJoinInnerOnly) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId inner = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  GroupId sel = AddSelect(inner, Expr::Cmp(log_cols_[1], CmpOp::kLt, 4));
  MergeSelectIntoJoinRule rule(101, "t", IntWindow{1, 8});
  std::vector<OpTree> out = Apply(rule, sel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kJoin);
  EXPECT_EQ(out[0].op.predicate->CountAtoms(), 1);

  GroupId outer = AddJoin(log, dim, JoinType::kLeftOuter, log_cols_[0], dim_cols_[0]);
  GroupId outer_sel = AddSelect(outer, Expr::Cmp(log_cols_[1], CmpOp::kLt, 4));
  EXPECT_TRUE(Apply(rule, outer_sel).empty());
}

TEST_F(RulesTest, SelectPartitionsRequiresLeadingColumnEquality) {
  GroupId scan = AddScan(0, 0, log_cols_);
  SelectPartitionsRule rule(103, "t");
  GroupId on_key = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 3));
  std::vector<OpTree> out = Apply(rule, on_key);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kSelect);       // the filter stays
  EXPECT_LT(out[0].children[0].op.partition_fraction, 1.0);
  // Range predicates and non-leading columns do not prune.
  GroupId range = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kLt, 3));
  EXPECT_TRUE(Apply(rule, range).empty());
  GroupId other_col = AddSelect(scan, Expr::Cmp(log_cols_[1], CmpOp::kEq, 3));
  EXPECT_TRUE(Apply(rule, other_col).empty());
}

TEST_F(RulesTest, JoinCommuteWindowsAndInnerOnly) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId inner = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  JoinCommuteRule single(104, "t", IntWindow{1, 1});
  std::vector<OpTree> out = Apply(single, inner);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].children[0].leaf_group, dim);
  EXPECT_EQ(out[0].children[1].leaf_group, log);
  EXPECT_EQ(out[0].op.left_keys[0], dim_cols_[0]);  // keys swapped

  JoinCommuteRule multi(105, "t", IntWindow{2, 8});
  EXPECT_TRUE(Apply(multi, inner).empty());
  GroupId outer = AddJoin(log, dim, JoinType::kLeftOuter, log_cols_[0], dim_cols_[0]);
  EXPECT_TRUE(Apply(single, outer).empty());
}

TEST_F(RulesTest, JoinAssocRequiresKeysBoundByMiddleInput) {
  // (A ⋈ B) ⋈ C with the outer keys on B -> A ⋈ (B ⋈ C).
  std::vector<ColumnId> a_cols, b_cols, c_cols;
  for (int c = 0; c < 2; ++c) a_cols.push_back(universe_.GetOrAddBaseColumn(2, c, "a"));
  for (int c = 0; c < 2; ++c) b_cols.push_back(universe_.GetOrAddBaseColumn(3, c, "b"));
  for (int c = 0; c < 2; ++c) c_cols.push_back(universe_.GetOrAddBaseColumn(4, c, "c"));
  GroupId a = AddScan(2, 20, a_cols);
  GroupId b = AddScan(3, 30, b_cols);
  GroupId c = AddScan(4, 40, c_cols);
  GroupId ab = AddJoin(a, b, JoinType::kInner, a_cols[0], b_cols[0]);
  GroupId ab_c_on_b = AddJoin(ab, c, JoinType::kInner, b_cols[1], c_cols[0]);
  JoinAssocRule assoc(106, "t", 0, IntWindow{1, 8});
  std::vector<OpTree> out = Apply(assoc, ab_c_on_b);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].children[0].leaf_group, a);
  EXPECT_EQ(out[0].children[1].op.kind, OpKind::kJoin);
  EXPECT_EQ(out[0].children[1].children[0].leaf_group, b);
  EXPECT_EQ(out[0].children[1].children[1].leaf_group, c);

  // Outer keys on A: this associativity direction is invalid.
  GroupId ab_c_on_a = AddJoin(ab, c, JoinType::kInner, a_cols[1], c_cols[0]);
  EXPECT_TRUE(Apply(assoc, ab_c_on_a).empty());
}

TEST_F(RulesTest, GroupByBelowUnionReaggregatesCount) {
  GroupId u = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_)});
  Operator gb;
  gb.kind = OpKind::kGroupBy;
  gb.group_keys = {log_cols_[0]};
  gb.aggs = {AggExpr{AggFunc::kCount, kInvalidColumn,
                     universe_.AddDerivedColumn("cnt", 100)},
             AggExpr{AggFunc::kMin, log_cols_[1], universe_.AddDerivedColumn("mn", 100)}};
  GroupId agg = GroupOf(memo_.AddExpr(gb, {u}, kInvalidGroup, -1, kInvalidExpr));
  PushGroupByBelowUnionRule rule(108, "t", IntWindow{2, 5});
  std::vector<OpTree> out = Apply(rule, agg);
  ASSERT_EQ(out.size(), 1u);
  // Final GroupBy over union of per-branch GroupBys; COUNT re-aggregates as
  // SUM, MIN stays MIN.
  EXPECT_EQ(out[0].op.kind, OpKind::kGroupBy);
  EXPECT_EQ(out[0].op.aggs[0].func, AggFunc::kSum);
  EXPECT_EQ(out[0].op.aggs[1].func, AggFunc::kMin);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kUnionAll);
  EXPECT_EQ(out[0].children[0].children[0].op.kind, OpKind::kGroupBy);
  EXPECT_EQ(out[0].children[0].children[0].op.aggs[0].func, AggFunc::kCount);
}

TEST_F(RulesTest, EagerAggregationOnlyForDuplicateInsensitiveAggs) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId join = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  Operator gb;
  gb.kind = OpKind::kGroupBy;
  gb.group_keys = {dim_cols_[1]};
  gb.aggs = {AggExpr{AggFunc::kMax, log_cols_[1], universe_.AddDerivedColumn("mx", 100)}};
  GroupId agg = GroupOf(memo_.AddExpr(gb, {join}, kInvalidGroup, -1, kInvalidExpr));
  PushGroupByBelowJoinRule left(43, "t", 0);
  std::vector<OpTree> out = Apply(left, agg);
  ASSERT_EQ(out.size(), 1u);
  // Outer GroupBy over Join over (inner GroupBy(left), dim).
  EXPECT_EQ(out[0].op.kind, OpKind::kGroupBy);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kJoin);
  EXPECT_EQ(out[0].children[0].children[0].op.kind, OpKind::kGroupBy);
  // The inner keys contain the join key.
  const Operator& inner = out[0].children[0].children[0].op;
  EXPECT_NE(std::find(inner.group_keys.begin(), inner.group_keys.end(), log_cols_[0]),
            inner.group_keys.end());

  // COUNT is duplicate-sensitive under join fan-out: must not fire.
  Operator gb_count = gb;
  gb_count.aggs = {AggExpr{AggFunc::kCount, kInvalidColumn,
                           universe_.AddDerivedColumn("c2", 100)}};
  GroupId agg_count =
      GroupOf(memo_.AddExpr(gb_count, {join}, kInvalidGroup, -1, kInvalidExpr));
  EXPECT_TRUE(Apply(left, agg_count).empty());
}

TEST_F(RulesTest, PartialAggregationSplitsAndReaggregates) {
  GroupId scan = AddScan(0, 0, log_cols_);
  Operator gb;
  gb.kind = OpKind::kGroupBy;
  gb.group_keys = {log_cols_[0]};
  gb.aggs = {AggExpr{AggFunc::kSum, log_cols_[1], universe_.AddDerivedColumn("s", 100)}};
  GroupId agg = GroupOf(memo_.AddExpr(gb, {scan}, kInvalidGroup, -1, kInvalidExpr));
  PartialAggregationRule rule(121, "t", IntWindow{1, 1});
  std::vector<OpTree> out = Apply(rule, agg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].op.partial_agg);
  EXPECT_TRUE(out[0].children[0].op.partial_agg);
  // Re-running on the partial half must not recurse.
  GroupId partial = GroupOf(memo_.AddExpr(out[0].children[0].op, {scan}, kInvalidGroup, -1,
                                          kInvalidExpr));
  EXPECT_TRUE(Apply(rule, partial).empty());
}

TEST_F(RulesTest, PushJoinBelowUnionVariants) {
  GroupId u = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_)});
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId join = AddJoin(u, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);

  PushJoinBelowUnionRule left_union(37, "t", 0, JoinType::kInner);
  std::vector<OpTree> out = Apply(left_union, join);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kUnionAll);
  EXPECT_EQ(out[0].children.size(), 2u);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kJoin);

  // The union is on the left: the right-side variant must not fire.
  PushJoinBelowUnionRule right_union(38, "t", 1, JoinType::kInner);
  EXPECT_TRUE(Apply(right_union, join).empty());
  // Join-type-restricted variants.
  PushJoinBelowUnionRule semi_only(40, "t", 0, JoinType::kLeftSemi);
  EXPECT_TRUE(Apply(semi_only, join).empty());
  GroupId semi = AddJoin(u, dim, JoinType::kLeftSemi, log_cols_[0], dim_cols_[0]);
  EXPECT_EQ(Apply(semi_only, semi).size(), 1u);
  // Branch-count cap.
  PushJoinBelowUnionRule capped(39, "t", 0, JoinType::kInner, /*max_branches=*/1);
  EXPECT_TRUE(Apply(capped, join).empty());
}

TEST_F(RulesTest, UnionFlattenSplicesNestedUnions) {
  GroupId inner = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_)});
  GroupId outer = AddUnion({inner, AddScan(0, 2, log_cols_)});
  UnionFlattenRule rule(123, "t");
  std::vector<OpTree> out = Apply(rule, outer);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].children.size(), 3u);
  // Already-flat unions do not fire.
  EXPECT_TRUE(Apply(rule, inner).empty());
}

TEST_F(RulesTest, TopPushdownAndSwap) {
  GroupId u = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_)});
  Operator top;
  top.kind = OpKind::kTop;
  top.limit = 10;
  top.sort_keys = {log_cols_[0]};
  GroupId top_group = GroupOf(memo_.AddExpr(top, {u}, kInvalidGroup, -1, kInvalidExpr));
  PushTopBelowUnionRule rule(112, "t");
  std::vector<OpTree> out = Apply(rule, top_group);
  ASSERT_EQ(out.size(), 1u);
  // Final Top over union of per-branch Tops.
  EXPECT_EQ(out[0].op.kind, OpKind::kTop);
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kUnionAll);
  EXPECT_EQ(out[0].children[0].children[0].op.kind, OpKind::kTop);

  // Top-project swap requires pass-through sort keys.
  GroupId scan = AddScan(2, 20, {universe_.GetOrAddBaseColumn(2, 0, "x")});
  ColumnId x = universe_.GetOrAddBaseColumn(2, 0, "x");
  Operator project;
  project.kind = OpKind::kProject;
  NamedExpr pass;
  pass.output = x;
  pass.pass_through = true;
  pass.inputs = {x};
  project.projections = {pass};
  GroupId proj = GroupOf(memo_.AddExpr(project, {scan}, kInvalidGroup, -1, kInvalidExpr));
  Operator top2;
  top2.kind = OpKind::kTop;
  top2.limit = 5;
  top2.sort_keys = {x};
  GroupId top2_group = GroupOf(memo_.AddExpr(top2, {proj}, kInvalidGroup, -1, kInvalidExpr));
  TopProjectSwapRule swap(113, "t");
  std::vector<OpTree> swapped = Apply(swap, top2_group);
  ASSERT_EQ(swapped.size(), 1u);
  EXPECT_EQ(swapped[0].op.kind, OpKind::kProject);
  EXPECT_EQ(swapped[0].children[0].op.kind, OpKind::kTop);
}

TEST_F(RulesTest, PredicateInferencePushesKeyEqualityToBothSides) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId join = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  GroupId sel = AddSelect(join, Expr::Cmp(log_cols_[0], CmpOp::kEq, 42));
  PredicateInferenceRule rule(124, "t");
  std::vector<OpTree> out = Apply(rule, sel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kJoin);
  // Both inputs filtered on their own key.
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].children[1].op.kind, OpKind::kSelect);
  std::vector<ColumnId> rcols;
  out[0].children[1].op.predicate->CollectColumns(&rcols);
  EXPECT_EQ(rcols, (std::vector<ColumnId>{dim_cols_[0]}));
  // Equality on a non-key column does not infer.
  GroupId sel_nonkey = AddSelect(join, Expr::Cmp(log_cols_[1], CmpOp::kEq, 42));
  EXPECT_TRUE(Apply(rule, sel_nonkey).empty());
}

TEST_F(RulesTest, JoinImplementationGuards) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  GroupId inner = AddJoin(log, dim, JoinType::kInner, log_cols_[0], dim_cols_[0]);
  GroupId outer = AddJoin(log, dim, JoinType::kLeftOuter, log_cols_[0], dim_cols_[0]);
  GroupId semi = AddJoin(log, dim, JoinType::kLeftSemi, log_cols_[0], dim_cols_[0]);
  const RuleRegistry& registry = RuleRegistry::Instance();

  auto fires = [&](RuleId id, GroupId g) { return !Apply(*registry.rule(id), g).empty(); };
  EXPECT_TRUE(fires(rules::kHashJoinImpl1, inner));
  EXPECT_TRUE(fires(rules::kHashJoinImpl1, outer));   // build the right side
  EXPECT_FALSE(fires(rules::kHashJoinImpl1, semi));   // semi has its own impls
  EXPECT_TRUE(fires(rules::kHashJoinImpl2, inner));
  EXPECT_FALSE(fires(rules::kHashJoinImpl2, outer));  // cannot build preserved side
  EXPECT_TRUE(fires(230, semi));                      // SemiJoinHashImpl
  EXPECT_FALSE(fires(230, inner));
  EXPECT_TRUE(fires(rules::kMergeJoinImpl, inner));
  EXPECT_TRUE(fires(rules::kLoopJoinImpl, inner));
  EXPECT_FALSE(fires(rules::kLoopJoinImpl, outer));
}

TEST_F(RulesTest, IndexApplyJoinRequiresLeadingKeyDirectScan) {
  GroupId log = AddScan(0, 0, log_cols_);
  GroupId dim = AddScan(1, 10, dim_cols_);
  // Key on dim's leading column: variant 1 (scan on the right) fires.
  GroupId join = AddJoin(log, dim, JoinType::kInner, log_cols_[1], dim_cols_[0]);
  IndexApplyJoinImplRule right_scan(232, "t", 0);
  std::vector<OpTree> out = Apply(right_scan, join);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kIndexApplyJoin);
  EXPECT_EQ(out[0].children.size(), 1u);  // single probe child
  EXPECT_EQ(out[0].op.stream_id, 10);

  // Key on a non-leading inner column: no index to seek.
  GroupId join_nonkey = AddJoin(log, dim, JoinType::kInner, log_cols_[1], dim_cols_[1]);
  EXPECT_TRUE(Apply(right_scan, join_nonkey).empty());
  // Inner side behind a select is not a direct scan.
  GroupId filtered_dim = AddSelect(dim, Expr::Cmp(dim_cols_[1], CmpOp::kEq, 1));
  GroupId join_filtered =
      AddJoin(log, filtered_dim, JoinType::kInner, log_cols_[1], dim_cols_[0]);
  EXPECT_TRUE(Apply(right_scan, join_filtered).empty());
}

TEST_F(RulesTest, UnionImplementationConditions) {
  GroupId raw_union = AddUnion({AddScan(0, 0, log_cols_), AddScan(0, 1, log_cols_)});
  const RuleRegistry& registry = RuleRegistry::Instance();
  EXPECT_FALSE(Apply(*registry.rule(rules::kUnionAllToUnionAll), raw_union).empty());
  EXPECT_FALSE(Apply(*registry.rule(rules::kUnionAllToVirtualDataset), raw_union).empty());

  // Filtered branches are not raw streams: virtual dataset must refuse.
  GroupId filtered = AddUnion({AddSelect(AddScan(0, 2, log_cols_),
                                         Expr::Cmp(log_cols_[0], CmpOp::kEq, 1)),
                               AddScan(0, 3, log_cols_)});
  EXPECT_TRUE(Apply(*registry.rule(rules::kUnionAllToVirtualDataset), filtered).empty());
  EXPECT_FALSE(Apply(*registry.rule(rules::kUnionAllToUnionAll), filtered).empty());

  // Mixed stream sets cannot form one virtual dataset.
  GroupId mixed = AddUnion({AddScan(0, 4, log_cols_), AddScan(1, 11, dim_cols_)});
  EXPECT_TRUE(Apply(*registry.rule(rules::kUnionAllToVirtualDataset), mixed).empty());
}

TEST_F(RulesTest, TopImplementationLimitGate) {
  GroupId scan = AddScan(0, 0, log_cols_);
  Operator top;
  top.kind = OpKind::kTop;
  top.limit = 1000000;
  top.sort_keys = {log_cols_[0]};
  GroupId big = GroupOf(memo_.AddExpr(top, {scan}, kInvalidGroup, -1, kInvalidExpr));
  TopImplRule sort_impl(244, "t", OpKind::kTopNSort);
  TopImplRule heap_impl(245, "t", OpKind::kTopNHeap, /*max_limit=*/100000);
  EXPECT_EQ(Apply(sort_impl, big).size(), 1u);
  EXPECT_TRUE(Apply(heap_impl, big).empty());  // limit above the heap gate
}

TEST_F(RulesTest, SelectOrExpansionSplitsDisjunction) {
  GroupId scan = AddScan(0, 0, log_cols_);
  ExprPtr a = Expr::Cmp(log_cols_[0], CmpOp::kEq, 1);
  ExprPtr b = Expr::Cmp(log_cols_[1], CmpOp::kLt, 9);
  GroupId sel = AddSelect(scan, Expr::And({Expr::Or({a, b}),
                                           Expr::Cmp(log_cols_[2], CmpOp::kGe, 3)}));
  SelectOrExpansionRule rule(125, "t");
  std::vector<OpTree> out = Apply(rule, sel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.kind, OpKind::kUnionAll);
  ASSERT_EQ(out[0].children.size(), 2u);
  // Both branches are selects over the SAME child; the second carries the
  // disjointness guard (b AND NOT a) plus the residual conjunct.
  EXPECT_EQ(out[0].children[0].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].children[1].op.kind, OpKind::kSelect);
  EXPECT_EQ(out[0].children[0].children[0].leaf_group, scan);
  EXPECT_EQ(out[0].children[1].children[0].leaf_group, scan);
  EXPECT_GE(out[0].children[1].op.predicate->CountAtoms(), 3);
  // Pure conjunctions do not match.
  GroupId plain = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 2));
  EXPECT_TRUE(Apply(rule, plain).empty());
}

TEST_F(RulesTest, RemoveDupPredicatesDedupsExactConjuncts) {
  GroupId scan = AddScan(0, 0, log_cols_);
  ExprPtr atom = Expr::Cmp(log_cols_[0], CmpOp::kEq, 5);
  GroupId dup = AddSelect(scan, Expr::And({atom, Expr::Cmp(log_cols_[1], CmpOp::kLt, 3),
                                           atom}));
  RemoveDupPredicatesRule rule(126, "t");
  std::vector<OpTree> out = Apply(rule, dup);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.predicate->CountAtoms(), 2);
  // Same column, different literal is NOT a duplicate.
  GroupId similar = AddSelect(scan, Expr::And({Expr::Cmp(log_cols_[0], CmpOp::kEq, 5),
                                               Expr::Cmp(log_cols_[0], CmpOp::kEq, 6)}));
  EXPECT_TRUE(Apply(rule, similar).empty());
}

TEST_F(RulesTest, ConstantFoldingDropsTrivialTruths) {
  GroupId scan = AddScan(0, 0, log_cols_);
  GroupId sel = AddSelect(
      scan, Expr::And({Expr::Cmp(log_cols_[0], CmpOp::kEq, 5),
                       Expr::Compare(CmpOp::kEq, Expr::Literal(1), Expr::Literal(1))}));
  ConstantFoldingRule rule(127, "t");
  std::vector<OpTree> out = Apply(rule, sel);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.predicate->CountAtoms(), 1);
  // A trivially-false conjunct is preserved (no empty-relation operator).
  GroupId contradiction = AddSelect(
      scan, Expr::And({Expr::Cmp(log_cols_[0], CmpOp::kEq, 5),
                       Expr::Compare(CmpOp::kEq, Expr::Literal(1), Expr::Literal(2))}));
  EXPECT_TRUE(Apply(rule, contradiction).empty());
}

TEST_F(RulesTest, TopTopCollapseTakesMinLimitSameKeysOnly) {
  GroupId scan = AddScan(0, 0, log_cols_);
  Operator inner;
  inner.kind = OpKind::kTop;
  inner.limit = 100;
  inner.sort_keys = {log_cols_[0]};
  GroupId inner_group = GroupOf(memo_.AddExpr(inner, {scan}, kInvalidGroup, -1, kInvalidExpr));
  Operator outer = inner;
  outer.limit = 500;
  GroupId outer_group =
      GroupOf(memo_.AddExpr(outer, {inner_group}, kInvalidGroup, -1, kInvalidExpr));
  TopTopCollapseRule rule(128, "t");
  std::vector<OpTree> out = Apply(rule, outer_group);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op.limit, 100);
  EXPECT_EQ(out[0].children[0].leaf_group, scan);
  // Different sort keys must not collapse (inner order defines the result).
  Operator other_keys = outer;
  other_keys.sort_keys = {log_cols_[1]};
  GroupId mismatched =
      GroupOf(memo_.AddExpr(other_keys, {inner_group}, kInvalidGroup, -1, kInvalidExpr));
  EXPECT_TRUE(Apply(rule, mismatched).empty());
}

TEST_F(RulesTest, RareShapeRulesNeverFire) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  GroupId scan = AddScan(0, 0, log_cols_);
  GroupId sel = AddSelect(scan, Expr::Cmp(log_cols_[0], CmpOp::kEq, 1));
  for (RuleId id : {47, 58, 130, 200, 250, 255}) {
    EXPECT_TRUE(Apply(*registry.rule(id), scan).empty()) << id;
    EXPECT_TRUE(Apply(*registry.rule(id), sel).empty()) << id;
  }
}

// The optimizer calls a rule only on expressions of its declared root kind
// (RuleRegistry's dispatch index). A rule that could propose, or mint a
// column, for any other kind would be silently disabled there, so every rule
// is offered every expression of real job plans and must stay silent off its
// kind.
TEST(RuleDispatch, NoRuleProposesOffItsRootKind) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  int off_kind_calls = 0;
  int on_kind_proposals = 0;
  for (const WorkloadSpec& spec :
       {WorkloadSpec::WorkloadA(0.004), WorkloadSpec::WorkloadB(0.004),
        WorkloadSpec::WorkloadC(0.004)}) {
    Workload workload(spec);
    for (int t = 0; t < 12; ++t) {
      const Job job = workload.MakeJob(t, /*day=*/1);
      Memo memo;
      memo.Insert(job.root);
      ColumnUniverse universe(job.columns);
      RuleContext ctx;
      ctx.memo = &memo;
      ctx.universe = &universe;
      for (ExprId id = 0; id < memo.num_exprs(); ++id) {
        const GroupExpr& expr = memo.expr(id);
        for (RuleId rule_id = 0; rule_id < kNumRules; ++rule_id) {
          const Rule& rule = *registry.rule(rule_id);
          std::vector<OpTree> out;
          const int columns_before = universe.size();
          rule.Apply(ctx, expr, &out);
          if (rule.root_kind() == expr.op.kind) {
            on_kind_proposals += static_cast<int>(out.size());
            continue;
          }
          ++off_kind_calls;
          EXPECT_TRUE(out.empty())
              << rule.name() << " proposed for " << OpKindName(expr.op.kind);
          EXPECT_EQ(universe.size(), columns_before)
              << rule.name() << " minted a column for " << OpKindName(expr.op.kind);
        }
      }
    }
  }
  EXPECT_GT(off_kind_calls, 0);
  EXPECT_GT(on_kind_proposals, 0);  // the seeded memos do make rules fire
}

// A compile's exploration family applies every implementation rule once
// and lets each later compile land its enabled rules' proposals. That is
// exact only because an implementation rule proposes at most one physical
// node over existing groups (so no group or expression beyond it) and mints
// no column. Every implementation rule is offered every logical expression
// of its kind in explored memos of real job plans.
TEST(RuleDispatch, ImplementationRulesProposeOneNodeOverExistingGroups) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  const RuleConfig all = RuleConfig::AllEnabled();
  int calls = 0;
  int proposals = 0;
  for (const WorkloadSpec& spec :
       {WorkloadSpec::WorkloadA(0.004), WorkloadSpec::WorkloadB(0.004),
        WorkloadSpec::WorkloadC(0.004)}) {
    Workload workload(spec);
    const Optimizer optimizer(&workload.catalog());
    for (int t = 0; t < 12; ++t) {
      const Job job = workload.MakeJob(t, /*day=*/1);
      CompileSession session;
      // qsteer-lint: allow(unchecked-status) only the stored family is read
      (void)optimizer.Compile(job, all, CompileControl{}, &session);
      std::shared_ptr<const CompileSession::Family> family =
          session.Find(CompileSession::ExplorationKey(all));
      ASSERT_NE(family, nullptr) << job.name;
      const Memo& memo = family->memo;
      ColumnUniverse universe = family->universe;
      RuleContext ctx;
      ctx.memo = &memo;
      ctx.universe = &universe;
      for (ExprId id = 0; id < memo.first_proposal(); ++id) {
        const GroupExpr& expr = memo.expr(id);
        if (!expr.is_logical) continue;
        for (const Rule* rule : registry.implementation_rules(expr.op.kind)) {
          std::vector<OpTree> out;
          rule->Apply(ctx, expr, &out);
          ++calls;
          ASSERT_LE(out.size(), 1u) << rule->name() << " on " << OpKindName(expr.op.kind);
          for (const OpTree& tree : out) {
            ++proposals;
            EXPECT_FALSE(tree.is_leaf) << rule->name();
            EXPECT_TRUE(tree.op.IsPhysical()) << rule->name();
            for (const OpTree& child : tree.children) {
              EXPECT_TRUE(child.is_leaf) << rule->name() << " proposed a nested node";
              EXPECT_GE(child.leaf_group, 0) << rule->name();
              EXPECT_LT(child.leaf_group, memo.num_groups()) << rule->name();
            }
          }
          EXPECT_EQ(universe.size(), family->universe.size())
              << rule->name() << " minted a column";
        }
      }
    }
  }
  EXPECT_GT(calls, 0);
  EXPECT_GT(proposals, 0);
}

}  // namespace
}  // namespace qsteer
