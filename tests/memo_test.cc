#include "optimizer/memo.h"

#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace qsteer {
namespace {

Operator Scan(int stream) {
  Operator op;
  op.kind = OpKind::kGet;
  op.stream_id = stream;
  op.stream_set_id = 0;
  op.scan_columns = {0, 1};
  return op;
}

Operator Select(int64_t literal) {
  Operator op;
  op.kind = OpKind::kSelect;
  op.predicate = Expr::Cmp(0, CmpOp::kEq, literal);
  return op;
}

TEST(Memo, InsertDeduplicatesSharedSubtrees) {
  // Union of two selects over the SAME shared scan node.
  PlanNodePtr scan = PlanNode::Make(Scan(0), {});
  PlanNodePtr a = PlanNode::Make(Select(1), {scan});
  PlanNodePtr b = PlanNode::Make(Select(2), {scan});
  Operator u;
  u.kind = OpKind::kUnionAll;
  PlanNodePtr root = PlanNode::Make(u, {a, b});

  Memo memo;
  GroupId root_group = memo.Insert(root);
  // Groups: scan, select1, select2, union = 4.
  EXPECT_EQ(memo.num_groups(), 4);
  EXPECT_EQ(memo.num_exprs(), 4);
  EXPECT_EQ(root_group, 3);
  // Both selects share the scan child group.
  const GroupExpr& ua = memo.expr(memo.group(root_group).exprs[0]);
  ASSERT_EQ(ua.children.size(), 2u);
  EXPECT_EQ(memo.expr(memo.group(ua.children[0]).exprs[0]).children[0],
            memo.expr(memo.group(ua.children[1]).exprs[0]).children[0]);
}

TEST(Memo, AddExprDeduplicatesIdenticalExpressions) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  ExprId again = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  EXPECT_EQ(scan, again);
  EXPECT_EQ(memo.num_groups(), 1);

  ExprId sel = memo.AddExpr(Select(5), {scan_group}, kInvalidGroup, 10, scan);
  ExprId sel_dup = memo.AddExpr(Select(5), {scan_group}, kInvalidGroup, 11, scan);
  EXPECT_EQ(sel, sel_dup);  // provenance of the first creator wins
  EXPECT_EQ(memo.expr(sel).rule_id, 10);
}

TEST(Memo, TargetGroupAttachesEquivalentExpr) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  ExprId sel = memo.AddExpr(Select(5), {scan_group}, kInvalidGroup, -1, kInvalidExpr);
  GroupId sel_group = memo.expr(sel).group;
  // A rewrite adds an equivalent expression into the select's group.
  ExprId alt = memo.AddExpr(Select(6), {scan_group}, sel_group, 42, sel);
  EXPECT_EQ(memo.expr(alt).group, sel_group);
  EXPECT_EQ(memo.group(sel_group).exprs.size(), 2u);
  EXPECT_EQ(memo.expr(alt).rule_id, 42);
  EXPECT_EQ(memo.expr(alt).source_expr, sel);
}

TEST(Memo, OutputColumnsDerivedOnGroupCreation) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  EXPECT_EQ(memo.group(scan_group).output_columns, (std::vector<ColumnId>{0, 1}));

  Operator gb;
  gb.kind = OpKind::kGroupBy;
  gb.group_keys = {1};
  gb.aggs = {AggExpr{AggFunc::kCount, kInvalidColumn, 7}};
  ExprId agg = memo.AddExpr(gb, {scan_group}, kInvalidGroup, -1, kInvalidExpr);
  EXPECT_EQ(memo.group(memo.expr(agg).group).output_columns, (std::vector<ColumnId>{1, 7}));
}

TEST(Memo, ProvenanceChainsThroughRewrites) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  ExprId sel = memo.AddExpr(Select(5), {scan_group}, kInvalidGroup, -1, kInvalidExpr);
  GroupId sel_group = memo.expr(sel).group;
  ExprId rewritten = memo.AddExpr(Select(7), {scan_group}, sel_group, 90, sel);
  // Implementation on top of the rewritten expression.
  Operator filter;
  filter.kind = OpKind::kFilter;
  filter.predicate = Expr::Cmp(0, CmpOp::kEq, 7);
  ExprId impl = memo.AddExpr(filter, {scan_group}, sel_group, 2, rewritten);

  std::vector<int> rule_ids;
  memo.CollectProvenance(impl, &rule_ids);
  EXPECT_EQ(rule_ids, (std::vector<int>{2, 90}));
}

TEST(Memo, PermutedChildrenAreDistinctExpressions) {
  // Regression: the old ExprKey mixed children with a plain order-sensitive
  // combine whose weakness could collide op(a, b) with op(b, a) for
  // commutative-looking child swaps. Swapped children must never dedup.
  Memo memo;
  ExprId s0 = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  ExprId s1 = memo.AddExpr(Scan(1), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId g0 = memo.expr(s0).group;
  GroupId g1 = memo.expr(s1).group;

  Operator u;
  u.kind = OpKind::kUnionAll;
  ExprId ab = memo.AddExpr(u, {g0, g1}, kInvalidGroup, -1, kInvalidExpr);
  ExprId ba = memo.AddExpr(u, {g1, g0}, kInvalidGroup, -1, kInvalidExpr);
  EXPECT_NE(ab, ba);
  EXPECT_NE(memo.expr(ab).group, memo.expr(ba).group);
  ASSERT_EQ(memo.expr(ab).children.size(), 2u);
  EXPECT_EQ(memo.expr(ab).children[0], g0);
  EXPECT_EQ(memo.expr(ba).children[0], g1);
}

TEST(Memo, PrecomputedOpHashMatchesComputed) {
  // AddExpr with an explicit op_hash (the group-alias fast path) must land
  // in the same dedup slot as the compute-it-yourself path.
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  Operator sel = Select(9);
  uint64_t op_hash = sel.Hash(/*for_template=*/false);
  ExprId a = memo.AddExpr(sel, {scan_group}, kInvalidGroup, -1, kInvalidExpr);
  ExprId b = memo.AddExpr(Select(9), {scan_group}, kInvalidGroup, -1, kInvalidExpr, op_hash);
  EXPECT_EQ(a, b);
  EXPECT_EQ(memo.expr(a).op_hash, op_hash);
}

TEST(HashRange, PermutationsAndPrefixesStayDistinct) {
  // The position-dependent mix must separate every permutation of a small
  // child set, every prefix, and the empty list, across several seeds.
  std::unordered_set<uint64_t> keys;
  int inserted = 0;
  std::vector<std::vector<int>> child_lists = {
      {},     {1},       {2},       {1, 2},    {2, 1},    {1, 2, 3},
      {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}, {1, 1},
      {1, 1, 1}, {0},       {0, 0},    {1, 2, 3, 4}, {4, 3, 2, 1}};
  for (uint64_t seed : {0ull, 1ull, 0x123456789abcdefull}) {
    for (const std::vector<int>& children : child_lists) {
      keys.insert(HashRange(children.begin(), children.end(), seed));
      ++inserted;
    }
  }
  EXPECT_EQ(static_cast<int>(keys.size()), inserted);
}

TEST(Memo, ProposalsLinkToTheFirstOfTheirKindAndDropExploredRepeats) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(0), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId scan_group = memo.expr(scan).group;
  ExprId sel = memo.AddExpr(Select(5), {scan_group}, kInvalidGroup, -1, kInvalidExpr);
  GroupId sel_group = memo.expr(sel).group;
  const int explored = memo.num_exprs();
  EXPECT_EQ(memo.first_proposal(), explored);

  Operator range = Scan(0);
  range.kind = OpKind::kRangeScan;
  Operator filter = Select(5);
  filter.kind = OpKind::kFilter;
  // A repeat of an explored expression never lands, so it is not added.
  EXPECT_EQ(memo.AddProposal(Select(5), {scan_group}, sel_group, 224, sel), kInvalidExpr);
  ExprId first = memo.AddProposal(filter, {scan_group}, sel_group, 230, sel);
  ExprId other = memo.AddProposal(range, {}, scan_group, 231, scan);
  // A repeat of a proposal is added, linked to the first of its kind.
  ExprId repeat = memo.AddProposal(filter, {scan_group}, sel_group, 240, sel);
  ExprId again = memo.AddProposal(filter, {scan_group}, sel_group, 241, sel);

  EXPECT_EQ(memo.first_proposal(), explored);
  EXPECT_EQ(first, explored);
  EXPECT_EQ(memo.num_exprs(), explored + 4);
  EXPECT_EQ(memo.num_groups(), 2);
  EXPECT_EQ(memo.expr(first).same_as, kInvalidExpr);
  EXPECT_EQ(memo.expr(other).same_as, kInvalidExpr);
  EXPECT_EQ(memo.expr(repeat).same_as, first);
  EXPECT_EQ(memo.expr(again).same_as, first);
  EXPECT_EQ(memo.expr(repeat).rule_id, 240);
  EXPECT_EQ(memo.expr(repeat).source_expr, sel);
  EXPECT_FALSE(memo.expr(repeat).is_logical);
  // Each group lists its explored expressions, then its proposals in order.
  EXPECT_EQ(memo.group(sel_group).exprs, (std::vector<ExprId>{sel, first, repeat, again}));
  EXPECT_EQ(memo.group(scan_group).exprs, (std::vector<ExprId>{scan, other}));
  EXPECT_EQ(memo.group(sel_group).representative, sel);
}

TEST(Memo, RepresentativeIsFirstLogicalExpr) {
  Memo memo;
  ExprId scan = memo.AddExpr(Scan(3), {}, kInvalidGroup, -1, kInvalidExpr);
  GroupId group = memo.expr(scan).group;
  EXPECT_EQ(memo.group(group).representative, scan);
  // Adding a physical expression does not change the representative.
  Operator range = Scan(3);
  range.kind = OpKind::kRangeScan;
  memo.AddExpr(range, {}, group, 1, scan);
  EXPECT_EQ(memo.group(group).representative, scan);
}

}  // namespace
}  // namespace qsteer
