#include "optimizer/rules.h"

#include <algorithm>
#include <map>

namespace qsteer {

OpTree OpTree::Leaf(GroupId group) {
  OpTree t;
  t.is_leaf = true;
  t.leaf_group = group;
  return t;
}

OpTree OpTree::Node(Operator op, std::vector<OpTree> children) {
  OpTree t;
  t.op = std::move(op);
  t.children = std::move(children);
  return t;
}

ExprId FindLogicalExpr(const Memo& memo, GroupId group, OpKind kind) {
  for (ExprId id : memo.group(group).exprs) {
    const GroupExpr& e = memo.expr(id);
    if (e.is_logical && e.op.kind == kind) return id;
  }
  return kInvalidExpr;
}

bool GroupProvidesColumns(const Memo& memo, GroupId group, const std::vector<ColumnId>& cols) {
  const std::vector<ColumnId>& have = memo.group(group).output_columns;
  for (ColumnId c : cols) {
    if (!std::binary_search(have.begin(), have.end(), c)) return false;
  }
  return true;
}

namespace {

bool PredicateBoundByGroup(const Memo& memo, GroupId group, const ExprPtr& predicate) {
  if (predicate == nullptr) return true;
  std::vector<ColumnId> cols;
  predicate->CollectColumns(&cols);
  return GroupProvidesColumns(memo, group, cols);
}

Operator MakeSelect(ExprPtr predicate) {
  Operator op;
  op.kind = OpKind::kSelect;
  op.predicate = std::move(predicate);
  return op;
}

/// Maps an aggregate function to the function that re-aggregates its partial
/// results (COUNT re-aggregates via SUM; the rest are idempotent).
AggFunc ReaggFunc(AggFunc f) { return f == AggFunc::kCount ? AggFunc::kSum : f; }

bool DuplicateInsensitive(AggFunc f) { return f == AggFunc::kMin || f == AggFunc::kMax; }

}  // namespace

// ---------------------------------------------------------------------------
// Select rules
// ---------------------------------------------------------------------------

void CollapseSelectsRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId inner_id = FindLogicalExpr(memo, expr.children[0], OpKind::kSelect);
  if (inner_id == kInvalidExpr) return;
  const GroupExpr& inner = memo.expr(inner_id);
  // Depth of the Select stack rooted here distinguishes the rule variants.
  int stack = 2;
  GroupId probe = inner.children[0];
  while (stack < 16) {
    ExprId next = FindLogicalExpr(memo, probe, OpKind::kSelect);
    if (next == kInvalidExpr) break;
    ++stack;
    probe = memo.expr(next).children[0];
  }
  if (!stack_window_.Contains(stack)) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  std::vector<ExprPtr> inner_conjuncts = SplitConjuncts(inner.op.predicate);
  conjuncts.insert(conjuncts.end(), inner_conjuncts.begin(), inner_conjuncts.end());
  out->push_back(OpTree::Node(MakeSelect(MakeConjunction(std::move(conjuncts))),
                              {OpTree::Leaf(inner.children[0])}));
}

void SelectOnTrueRule::Apply(const RuleContext&, const GroupExpr& expr,
                             std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  if (expr.op.predicate == nullptr || expr.op.predicate->kind() == ExprKind::kTrue) {
    out->push_back(OpTree::Leaf(expr.children[0]));
  }
}

void SelectSplitConjunctionRule::Apply(const RuleContext&, const GroupExpr& expr,
                                       std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  if (conjuncts.size() < 2 || !conjunct_window_.Contains(static_cast<int>(conjuncts.size()))) {
    return;
  }
  OpTree tree = OpTree::Leaf(expr.children[0]);
  for (size_t i = conjuncts.size(); i-- > 0;) {
    tree = OpTree::Node(MakeSelect(conjuncts[i]), {std::move(tree)});
  }
  out->push_back(std::move(tree));
}

void SelectPredNormalizeRule::Apply(const RuleContext&, const GroupExpr& expr,
                                    std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  if (conjuncts.size() < 2) return;
  std::vector<ExprPtr> sorted = conjuncts;
  std::sort(sorted.begin(), sorted.end(),
            [](const ExprPtr& a, const ExprPtr& b) { return a->Hash(true) < b->Hash(true); });
  bool changed = false;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != conjuncts[i]) changed = true;
  }
  if (!changed) return;
  out->push_back(
      OpTree::Node(MakeSelect(Expr::And(std::move(sorted))), {OpTree::Leaf(expr.children[0])}));
}

void PushSelectBelowUnaryRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                     std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  if (expr.op.predicate == nullptr ||
      !atom_window_.Contains(expr.op.predicate->CountAtoms())) {
    return;
  }
  const Memo& memo = *ctx.memo;
  ExprId target_id = FindLogicalExpr(memo, expr.children[0], target_);
  if (target_id == kInvalidExpr) return;
  const GroupExpr& target = memo.expr(target_id);
  if (target.children.empty()) return;
  GroupId grandchild = target.children[0];
  if (!PredicateBoundByGroup(memo, grandchild, expr.op.predicate)) return;
  if (target_ == OpKind::kGroupBy) {
    // Only predicates on grouping keys commute with aggregation.
    std::vector<ColumnId> cols;
    expr.op.predicate->CollectColumns(&cols);
    for (ColumnId c : cols) {
      if (std::find(target.op.group_keys.begin(), target.op.group_keys.end(), c) ==
          target.op.group_keys.end()) {
        return;
      }
    }
  }
  std::vector<OpTree> new_children;
  new_children.push_back(
      OpTree::Node(MakeSelect(expr.op.predicate), {OpTree::Leaf(grandchild)}));
  for (size_t i = 1; i < target.children.size(); ++i) {
    new_children.push_back(OpTree::Leaf(target.children[i]));
  }
  out->push_back(OpTree::Node(target.op, std::move(new_children)));
}

void PushSelectBelowJoinRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                    std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  if (expr.op.predicate == nullptr ||
      !atom_window_.Contains(expr.op.predicate->CountAtoms())) {
    return;
  }
  const Memo& memo = *ctx.memo;
  ExprId join_id = FindLogicalExpr(memo, expr.children[0], OpKind::kJoin);
  if (join_id == kInvalidExpr) return;
  const GroupExpr& join = memo.expr(join_id);
  GroupId left = join.children[0];
  GroupId right = join.children[1];

  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  if (conjuncts.empty()) return;
  std::vector<ExprPtr> to_left, to_right, residual;
  for (const ExprPtr& c : conjuncts) {
    bool left_ok = PredicateBoundByGroup(memo, left, c);
    // Pushing below the null-padding side of an outer join is invalid, and a
    // semi join exposes no right columns above it, so right-side pushdown is
    // inner-join-only.
    bool right_ok =
        join.op.join_type == JoinType::kInner && PredicateBoundByGroup(memo, right, c);
    if (left_ok && (side_ == 0 || side_ == 2)) {
      to_left.push_back(c);
    } else if (right_ok && (side_ == 1 || side_ == 2)) {
      to_right.push_back(c);
    } else {
      residual.push_back(c);
    }
  }
  if (to_left.empty() && to_right.empty()) return;

  OpTree left_tree = OpTree::Leaf(left);
  if (!to_left.empty()) {
    left_tree = OpTree::Node(MakeSelect(MakeConjunction(std::move(to_left))),
                             {std::move(left_tree)});
  }
  OpTree right_tree = OpTree::Leaf(right);
  if (!to_right.empty()) {
    right_tree = OpTree::Node(MakeSelect(MakeConjunction(std::move(to_right))),
                              {std::move(right_tree)});
  }
  OpTree join_tree = OpTree::Node(join.op, {std::move(left_tree), std::move(right_tree)});
  if (!residual.empty()) {
    join_tree = OpTree::Node(MakeSelect(MakeConjunction(std::move(residual))),
                             {std::move(join_tree)});
  }
  out->push_back(std::move(join_tree));
}

void PushSelectBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                     std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId union_id = FindLogicalExpr(memo, expr.children[0], OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  if (!branch_window_.Contains(static_cast<int>(u.children.size()))) return;
  std::vector<OpTree> branches;
  branches.reserve(u.children.size());
  for (GroupId child : u.children) {
    if (!PredicateBoundByGroup(memo, child, expr.op.predicate)) return;
    branches.push_back(OpTree::Node(MakeSelect(expr.op.predicate), {OpTree::Leaf(child)}));
  }
  out->push_back(OpTree::Node(u.op, std::move(branches)));
}

void MergeSelectIntoJoinRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                    std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId join_id = FindLogicalExpr(memo, expr.children[0], OpKind::kJoin);
  if (join_id == kInvalidExpr) return;
  const GroupExpr& join = memo.expr(join_id);
  if (join.op.join_type != JoinType::kInner) return;
  if (!key_window_.Contains(static_cast<int>(join.op.left_keys.size()))) return;
  Operator merged = join.op;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(merged.predicate);
  std::vector<ExprPtr> extra = SplitConjuncts(expr.op.predicate);
  if (extra.empty()) return;
  conjuncts.insert(conjuncts.end(), extra.begin(), extra.end());
  merged.predicate = MakeConjunction(std::move(conjuncts));
  out->push_back(OpTree::Node(std::move(merged),
                              {OpTree::Leaf(join.children[0]), OpTree::Leaf(join.children[1])}));
}

void SelectPartitionsRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                 std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId get_id = FindLogicalExpr(memo, expr.children[0], OpKind::kGet);
  if (get_id == kInvalidExpr) return;
  const GroupExpr& get = memo.expr(get_id);
  if (get.op.partition_fraction < 1.0) return;  // already pruned
  // The pruning predicate must be an equality on the stream's partition
  // column (schema column 0).
  ColumnId partition_col = kInvalidColumn;
  for (ColumnId c : get.op.scan_columns) {
    const ColumnInfo& info = ctx.universe->info(c);
    if (!info.derived && info.column_index == 0) partition_col = c;
  }
  if (partition_col == kInvalidColumn) return;
  bool has_eq = false;
  for (const ExprPtr& c : SplitConjuncts(expr.op.predicate)) {
    if (c->kind() == ExprKind::kCompare && c->cmp() == CmpOp::kEq &&
        c->children()[0]->kind() == ExprKind::kColumn &&
        c->children()[0]->column() == partition_col &&
        c->children()[1]->kind() == ExprKind::kLiteral) {
      has_eq = true;
    }
  }
  if (!has_eq) return;
  Operator pruned = get.op;
  // An equality keeps at most one hash partition of the stream.
  pruned.partition_fraction = 0.125;
  out->push_back(
      OpTree::Node(expr.op, {OpTree::Node(std::move(pruned), {})}));
}

// ---------------------------------------------------------------------------
// Project rules
// ---------------------------------------------------------------------------

void ProjectMergeRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                             std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kProject) return;
  const Memo& memo = *ctx.memo;
  ExprId inner_id = FindLogicalExpr(memo, expr.children[0], OpKind::kProject);
  if (inner_id == kInvalidExpr) return;
  const GroupExpr& inner = memo.expr(inner_id);
  std::map<ColumnId, const NamedExpr*> inner_defs;
  for (const NamedExpr& p : inner.op.projections) inner_defs[p.output] = &p;

  Operator merged;
  merged.kind = OpKind::kProject;
  for (const NamedExpr& p : expr.op.projections) {
    if (p.pass_through) {
      auto it = inner_defs.find(p.output);
      if (it == inner_defs.end()) return;
      merged.projections.push_back(*it->second);
    } else {
      // Composition is only attempted when all inputs pass through the
      // inner projection unchanged.
      for (ColumnId in : p.inputs) {
        auto it = inner_defs.find(in);
        if (it == inner_defs.end() || !it->second->pass_through) return;
      }
      merged.projections.push_back(p);
    }
  }
  out->push_back(OpTree::Node(std::move(merged), {OpTree::Leaf(inner.children[0])}));
}

void RemoveNoopProjectRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                  std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kProject) return;
  const Memo& memo = *ctx.memo;
  for (const NamedExpr& p : expr.op.projections) {
    if (!p.pass_through) return;
  }
  const Group& child = memo.group(expr.children[0]);
  std::vector<ColumnId> outputs;
  for (const NamedExpr& p : expr.op.projections) outputs.push_back(p.output);
  std::sort(outputs.begin(), outputs.end());
  outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
  if (outputs != child.output_columns) return;
  out->push_back(OpTree::Leaf(expr.children[0]));
}

void PushProjectBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                      std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kProject) return;
  const Memo& memo = *ctx.memo;
  ExprId union_id = FindLogicalExpr(memo, expr.children[0], OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  if (!branch_window_.Contains(static_cast<int>(u.children.size()))) return;
  std::vector<ColumnId> needed;
  for (const NamedExpr& p : expr.op.projections) {
    for (ColumnId in : p.inputs) needed.push_back(in);
  }
  std::vector<OpTree> branches;
  for (GroupId child : u.children) {
    if (!GroupProvidesColumns(memo, child, needed)) return;
    branches.push_back(OpTree::Node(expr.op, {OpTree::Leaf(child)}));
  }
  out->push_back(OpTree::Node(u.op, std::move(branches)));
}

// ---------------------------------------------------------------------------
// Join order rules
// ---------------------------------------------------------------------------

void JoinCommuteRule::Apply(const RuleContext&, const GroupExpr& expr,
                            std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kJoin || expr.op.join_type != JoinType::kInner) return;
  if (!key_window_.Contains(static_cast<int>(expr.op.left_keys.size()))) return;
  Operator swapped = expr.op;
  std::swap(swapped.left_keys, swapped.right_keys);
  out->push_back(
      OpTree::Node(std::move(swapped), {OpTree::Leaf(expr.children[1]), OpTree::Leaf(expr.children[0])}));
}

void JoinAssocRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                          std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kJoin || expr.op.join_type != JoinType::kInner) return;
  if (expr.op.predicate != nullptr && expr.op.predicate->kind() != ExprKind::kTrue) return;
  if (!key_window_.Contains(static_cast<int>(expr.op.left_keys.size()))) return;
  const Memo& memo = *ctx.memo;
  if (direction_ == 0) {
    // (A ⋈ B) ⋈ C  ->  A ⋈ (B ⋈ C); requires the outer keys to bind to B.
    ExprId inner_id = FindLogicalExpr(memo, expr.children[0], OpKind::kJoin);
    if (inner_id == kInvalidExpr) return;
    const GroupExpr& inner = memo.expr(inner_id);
    if (inner.op.join_type != JoinType::kInner) return;
    if (inner.op.predicate != nullptr && inner.op.predicate->kind() != ExprKind::kTrue) return;
    GroupId a = inner.children[0], b = inner.children[1], c = expr.children[1];
    if (!GroupProvidesColumns(memo, b, expr.op.left_keys)) return;
    Operator bc;
    bc.kind = OpKind::kJoin;
    bc.join_type = JoinType::kInner;
    bc.left_keys = expr.op.left_keys;
    bc.right_keys = expr.op.right_keys;
    Operator abc;
    abc.kind = OpKind::kJoin;
    abc.join_type = JoinType::kInner;
    abc.left_keys = inner.op.left_keys;
    abc.right_keys = inner.op.right_keys;
    out->push_back(OpTree::Node(
        std::move(abc),
        {OpTree::Leaf(a), OpTree::Node(std::move(bc), {OpTree::Leaf(b), OpTree::Leaf(c)})}));
  } else {
    // A ⋈ (B ⋈ C)  ->  (A ⋈ B) ⋈ C; requires the outer keys to bind to B.
    ExprId inner_id = FindLogicalExpr(memo, expr.children[1], OpKind::kJoin);
    if (inner_id == kInvalidExpr) return;
    const GroupExpr& inner = memo.expr(inner_id);
    if (inner.op.join_type != JoinType::kInner) return;
    if (inner.op.predicate != nullptr && inner.op.predicate->kind() != ExprKind::kTrue) return;
    GroupId a = expr.children[0], b = inner.children[0], c = inner.children[1];
    if (!GroupProvidesColumns(memo, b, expr.op.right_keys)) return;
    Operator ab;
    ab.kind = OpKind::kJoin;
    ab.join_type = JoinType::kInner;
    ab.left_keys = expr.op.left_keys;
    ab.right_keys = expr.op.right_keys;
    Operator abc;
    abc.kind = OpKind::kJoin;
    abc.join_type = JoinType::kInner;
    abc.left_keys = inner.op.left_keys;
    abc.right_keys = inner.op.right_keys;
    out->push_back(OpTree::Node(
        std::move(abc),
        {OpTree::Node(std::move(ab), {OpTree::Leaf(a), OpTree::Leaf(b)}), OpTree::Leaf(c)}));
  }
}

// ---------------------------------------------------------------------------
// Aggregation rules
// ---------------------------------------------------------------------------

void PushGroupByBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                      std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kGroupBy || expr.op.partial_agg) return;
  const Memo& memo = *ctx.memo;
  ExprId union_id = FindLogicalExpr(memo, expr.children[0], OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  if (!branch_window_.Contains(static_cast<int>(u.children.size()))) return;

  // Per-branch aggregates feed re-aggregation at the top: COUNT -> SUM of
  // counts; SUM/MIN/MAX are re-applied.
  Operator branch_agg;
  branch_agg.kind = OpKind::kGroupBy;
  branch_agg.group_keys = expr.op.group_keys;
  Operator final_agg;
  final_agg.kind = OpKind::kGroupBy;
  final_agg.group_keys = expr.op.group_keys;
  for (const AggExpr& agg : expr.op.aggs) {
    ColumnId mid = ctx.universe->AddDerivedColumn("partial_" + std::to_string(agg.output),
                                                  /*ndv_hint=*/1e6);
    branch_agg.aggs.push_back(AggExpr{agg.func, agg.arg, mid});
    final_agg.aggs.push_back(AggExpr{ReaggFunc(agg.func), mid, agg.output});
  }
  std::vector<OpTree> branches;
  for (GroupId child : u.children) {
    branches.push_back(OpTree::Node(branch_agg, {OpTree::Leaf(child)}));
  }
  out->push_back(
      OpTree::Node(std::move(final_agg), {OpTree::Node(u.op, std::move(branches))}));
}

void PushGroupByBelowJoinRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                     std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kGroupBy || expr.op.partial_agg) return;
  const Memo& memo = *ctx.memo;
  ExprId join_id = FindLogicalExpr(memo, expr.children[0], OpKind::kJoin);
  if (join_id == kInvalidExpr) return;
  const GroupExpr& join = memo.expr(join_id);
  if (join.op.join_type != JoinType::kInner) return;
  GroupId side_group = side_ == 0 ? join.children[0] : join.children[1];
  GroupId other_group = side_ == 0 ? join.children[1] : join.children[0];
  const std::vector<ColumnId>& side_join_keys = side_ == 0 ? join.op.left_keys
                                                           : join.op.right_keys;

  // Join fan-out duplicates rows, so only duplicate-insensitive aggregates
  // (MIN/MAX) whose arguments come from the pushed side are eligible.
  std::vector<ColumnId> needed_args;
  for (const AggExpr& agg : expr.op.aggs) {
    if (!DuplicateInsensitive(agg.func)) return;
    needed_args.push_back(agg.arg);
  }
  if (!GroupProvidesColumns(memo, side_group, needed_args)) return;

  // The inner aggregation keys: grouping keys from this side + join keys.
  std::vector<ColumnId> inner_keys;
  for (ColumnId key : expr.op.group_keys) {
    if (GroupProvidesColumns(memo, side_group, {key})) inner_keys.push_back(key);
  }
  inner_keys.insert(inner_keys.end(), side_join_keys.begin(), side_join_keys.end());
  std::sort(inner_keys.begin(), inner_keys.end());
  inner_keys.erase(std::unique(inner_keys.begin(), inner_keys.end()), inner_keys.end());

  Operator inner_agg;
  inner_agg.kind = OpKind::kGroupBy;
  inner_agg.group_keys = inner_keys;
  Operator outer_agg;
  outer_agg.kind = OpKind::kGroupBy;
  outer_agg.group_keys = expr.op.group_keys;
  for (const AggExpr& agg : expr.op.aggs) {
    ColumnId mid = ctx.universe->AddDerivedColumn("eager_" + std::to_string(agg.output),
                                                  /*ndv_hint=*/1e6);
    inner_agg.aggs.push_back(AggExpr{agg.func, agg.arg, mid});
    outer_agg.aggs.push_back(AggExpr{agg.func, mid, agg.output});
  }
  // The outer grouping keys from the other side must still be available.
  std::vector<ColumnId> outer_key_check;
  for (ColumnId key : expr.op.group_keys) {
    if (!GroupProvidesColumns(memo, side_group, {key})) outer_key_check.push_back(key);
  }
  if (!GroupProvidesColumns(memo, other_group, outer_key_check)) return;

  OpTree agg_side = OpTree::Node(std::move(inner_agg), {OpTree::Leaf(side_group)});
  std::vector<OpTree> join_children;
  if (side_ == 0) {
    join_children = {std::move(agg_side), OpTree::Leaf(other_group)};
  } else {
    join_children = {OpTree::Leaf(other_group), std::move(agg_side)};
  }
  out->push_back(OpTree::Node(
      std::move(outer_agg), {OpTree::Node(join.op, std::move(join_children))}));
}

void PartialAggregationRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                   std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kGroupBy || expr.op.partial_agg) return;
  if (expr.op.group_keys.empty()) return;
  if (!key_window_.Contains(static_cast<int>(expr.op.group_keys.size()))) return;
  Operator partial;
  partial.kind = OpKind::kGroupBy;
  partial.partial_agg = true;
  partial.group_keys = expr.op.group_keys;
  Operator final_agg;
  final_agg.kind = OpKind::kGroupBy;
  final_agg.group_keys = expr.op.group_keys;
  for (const AggExpr& agg : expr.op.aggs) {
    ColumnId mid = ctx.universe->AddDerivedColumn("local_" + std::to_string(agg.output),
                                                  /*ndv_hint=*/1e6);
    partial.aggs.push_back(AggExpr{agg.func, agg.arg, mid});
    final_agg.aggs.push_back(AggExpr{ReaggFunc(agg.func), mid, agg.output});
  }
  out->push_back(OpTree::Node(std::move(final_agg),
                              {OpTree::Node(std::move(partial), {OpTree::Leaf(expr.children[0])})}));
}

void NormalizeReduceRule::Apply(const RuleContext&, const GroupExpr& expr,
                                std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kGroupBy) return;
  std::vector<ColumnId> keys = expr.op.group_keys;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (keys == expr.op.group_keys) return;
  Operator normalized = expr.op;
  normalized.group_keys = std::move(keys);
  out->push_back(OpTree::Node(std::move(normalized), {OpTree::Leaf(expr.children[0])}));
}

// ---------------------------------------------------------------------------
// Union rules
// ---------------------------------------------------------------------------

void PushJoinBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                   std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kJoin || expr.op.join_type != only_type_) return;
  const Memo& memo = *ctx.memo;
  GroupId union_group = expr.children[union_side_ == 0 ? 0 : 1];
  GroupId other = expr.children[union_side_ == 0 ? 1 : 0];
  ExprId union_id = FindLogicalExpr(memo, union_group, OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  if (static_cast<int>(u.children.size()) > max_branches_) return;
  std::vector<OpTree> branches;
  for (GroupId branch : u.children) {
    std::vector<OpTree> join_children;
    if (union_side_ == 0) {
      join_children = {OpTree::Leaf(branch), OpTree::Leaf(other)};
    } else {
      join_children = {OpTree::Leaf(other), OpTree::Leaf(branch)};
    }
    branches.push_back(OpTree::Node(expr.op, std::move(join_children)));
  }
  Operator union_op;
  union_op.kind = OpKind::kUnionAll;
  out->push_back(OpTree::Node(std::move(union_op), std::move(branches)));
}

void PushProcessBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                      std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kProcess) return;
  const Memo& memo = *ctx.memo;
  ExprId union_id = FindLogicalExpr(memo, expr.children[0], OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  if (!branch_window_.Contains(static_cast<int>(u.children.size()))) return;
  std::vector<OpTree> branches;
  for (GroupId child : u.children) {
    branches.push_back(OpTree::Node(expr.op, {OpTree::Leaf(child)}));
  }
  out->push_back(OpTree::Node(u.op, std::move(branches)));
}

void UnionFlattenRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                             std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kUnionAll) return;
  const Memo& memo = *ctx.memo;
  bool flattened = false;
  std::vector<OpTree> children;
  for (GroupId child : expr.children) {
    ExprId nested = FindLogicalExpr(memo, child, OpKind::kUnionAll);
    // Guard against self-reference (a union expression whose child group is
    // its own group cannot occur, but nested unions resolve one level).
    if (nested != kInvalidExpr && memo.expr(nested).group != expr.group) {
      for (GroupId grandchild : memo.expr(nested).children) {
        children.push_back(OpTree::Leaf(grandchild));
      }
      flattened = true;
    } else {
      children.push_back(OpTree::Leaf(child));
    }
  }
  if (!flattened) return;
  out->push_back(OpTree::Node(expr.op, std::move(children)));
}

void PushTopBelowUnionRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                  std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kTop) return;
  const Memo& memo = *ctx.memo;
  ExprId union_id = FindLogicalExpr(memo, expr.children[0], OpKind::kUnionAll);
  if (union_id == kInvalidExpr) return;
  const GroupExpr& u = memo.expr(union_id);
  std::vector<OpTree> branches;
  for (GroupId child : u.children) {
    branches.push_back(OpTree::Node(expr.op, {OpTree::Leaf(child)}));
  }
  out->push_back(OpTree::Node(expr.op, {OpTree::Node(u.op, std::move(branches))}));
}

void TopProjectSwapRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                               std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kTop) return;
  const Memo& memo = *ctx.memo;
  ExprId project_id = FindLogicalExpr(memo, expr.children[0], OpKind::kProject);
  if (project_id == kInvalidExpr) return;
  const GroupExpr& project = memo.expr(project_id);
  // The sort keys must pass through the projection unchanged.
  for (ColumnId key : expr.op.sort_keys) {
    bool found = false;
    for (const NamedExpr& p : project.op.projections) {
      if (p.output == key && p.pass_through) found = true;
    }
    if (!found) return;
  }
  out->push_back(OpTree::Node(
      project.op, {OpTree::Node(expr.op, {OpTree::Leaf(project.children[0])})}));
}

void PredicateInferenceRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                   std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId join_id = FindLogicalExpr(memo, expr.children[0], OpKind::kJoin);
  if (join_id == kInvalidExpr) return;
  const GroupExpr& join = memo.expr(join_id);
  if (join.op.join_type != JoinType::kInner) return;

  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const ExprPtr& c = conjuncts[ci];
    if (c->kind() != ExprKind::kCompare || c->cmp() != CmpOp::kEq) continue;
    if (c->children()[0]->kind() != ExprKind::kColumn ||
        c->children()[1]->kind() != ExprKind::kLiteral) {
      continue;
    }
    ColumnId col = c->children()[0]->column();
    int64_t value = c->children()[1]->literal();
    for (size_t k = 0; k < join.op.left_keys.size(); ++k) {
      ColumnId lk = join.op.left_keys[k];
      ColumnId rk = join.op.right_keys[k];
      if (col != lk && col != rk) continue;
      // Move the equality to both join inputs: filter each side on its own
      // key before joining (the equi-join makes the values equal).
      std::vector<ExprPtr> remaining;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j != ci) remaining.push_back(conjuncts[j]);
      }
      OpTree left = OpTree::Node(MakeSelect(Expr::Cmp(lk, CmpOp::kEq, value)),
                                 {OpTree::Leaf(join.children[0])});
      OpTree right = OpTree::Node(MakeSelect(Expr::Cmp(rk, CmpOp::kEq, value)),
                                  {OpTree::Leaf(join.children[1])});
      OpTree join_tree = OpTree::Node(join.op, {std::move(left), std::move(right)});
      if (!remaining.empty()) {
        join_tree = OpTree::Node(MakeSelect(MakeConjunction(std::move(remaining))),
                                 {std::move(join_tree)});
      }
      out->push_back(std::move(join_tree));
      return;
    }
  }
}

void UnsafeSelectBelowProcessRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                         std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  const Memo& memo = *ctx.memo;
  ExprId process_id = FindLogicalExpr(memo, expr.children[0], OpKind::kProcess);
  if (process_id == kInvalidExpr) return;
  const GroupExpr& process = memo.expr(process_id);
  GroupId grandchild = process.children[0];
  if (!PredicateBoundByGroup(memo, grandchild, expr.op.predicate)) return;
  out->push_back(OpTree::Node(
      process.op,
      {OpTree::Node(MakeSelect(expr.op.predicate), {OpTree::Leaf(grandchild)})}));
}

void SelectOrExpansionRule::Apply(const RuleContext&, const GroupExpr& expr,
                                  std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const ExprPtr& c = conjuncts[i];
    if (c->kind() != ExprKind::kOr || c->children().size() != 2) continue;
    ExprPtr a = c->children()[0];
    ExprPtr b = c->children()[1];
    // Branch predicates: {a} and {b AND NOT a} (disjoint cover of the OR),
    // each conjoined with the remaining conjuncts.
    std::vector<ExprPtr> rest;
    for (size_t j = 0; j < conjuncts.size(); ++j) {
      if (j != i) rest.push_back(conjuncts[j]);
    }
    std::vector<ExprPtr> left = rest;
    left.push_back(a);
    std::vector<ExprPtr> right = rest;
    right.push_back(Expr::And({b, Expr::Not(a)}));
    Operator sel_a = MakeSelect(MakeConjunction(std::move(left)));
    Operator sel_b = MakeSelect(MakeConjunction(std::move(right)));
    Operator union_op;
    union_op.kind = OpKind::kUnionAll;
    out->push_back(OpTree::Node(
        std::move(union_op),
        {OpTree::Node(std::move(sel_a), {OpTree::Leaf(expr.children[0])}),
         OpTree::Node(std::move(sel_b), {OpTree::Leaf(expr.children[0])})}));
    return;  // expand one OR at a time; re-application handles the rest
  }
}

void RemoveDupPredicatesRule::Apply(const RuleContext&, const GroupExpr& expr,
                                    std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  std::vector<ExprPtr> unique;
  std::vector<uint64_t> seen;
  for (const ExprPtr& c : conjuncts) {
    uint64_t h = c->Hash(/*ignore_literals=*/false);
    if (std::find(seen.begin(), seen.end(), h) != seen.end()) continue;
    seen.push_back(h);
    unique.push_back(c);
  }
  if (unique.size() == conjuncts.size()) return;
  out->push_back(OpTree::Node(MakeSelect(MakeConjunction(std::move(unique))),
                              {OpTree::Leaf(expr.children[0])}));
}

void ConstantFoldingRule::Apply(const RuleContext&, const GroupExpr& expr,
                                std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kSelect) return;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(expr.op.predicate);
  std::vector<ExprPtr> kept;
  bool folded = false;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() == ExprKind::kCompare &&
        c->children()[0]->kind() == ExprKind::kLiteral &&
        c->children()[1]->kind() == ExprKind::kLiteral) {
      int64_t lhs = c->children()[0]->literal();
      int64_t rhs = c->children()[1]->literal();
      bool value = false;
      switch (c->cmp()) {
        case CmpOp::kEq: value = lhs == rhs; break;
        case CmpOp::kNe: value = lhs != rhs; break;
        case CmpOp::kLt: value = lhs < rhs; break;
        case CmpOp::kLe: value = lhs <= rhs; break;
        case CmpOp::kGt: value = lhs > rhs; break;
        case CmpOp::kGe: value = lhs >= rhs; break;
      }
      if (value) {
        folded = true;  // trivially-true conjunct drops out
        continue;
      }
    }
    kept.push_back(c);
  }
  if (!folded) return;
  out->push_back(OpTree::Node(MakeSelect(MakeConjunction(std::move(kept))),
                              {OpTree::Leaf(expr.children[0])}));
}

void TopTopCollapseRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                               std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kTop) return;
  const Memo& memo = *ctx.memo;
  ExprId inner_id = FindLogicalExpr(memo, expr.children[0], OpKind::kTop);
  if (inner_id == kInvalidExpr) return;
  const GroupExpr& inner = memo.expr(inner_id);
  if (inner.op.sort_keys != expr.op.sort_keys) return;
  Operator collapsed = expr.op;
  collapsed.limit = std::min(expr.op.limit, inner.op.limit);
  out->push_back(OpTree::Node(std::move(collapsed), {OpTree::Leaf(inner.children[0])}));
}

void RareShapeRule::Apply(const RuleContext&, const GroupExpr& expr,
                          std::vector<OpTree>* out) const {
  // Rare-feature rules: they only match operator kinds the workload (almost)
  // never produces, and even then require a second same-kind child — a shape
  // the generator never emits. They exist so the configuration-search space
  // is honest about unused rules (Table 2).
  (void)out;
  if (expr.op.kind != root_kind()) return;
  // Matching would additionally require a same-kind child; no plan in this
  // algebra stacks two identical rare operators, so the rule never fires.
}

// ---------------------------------------------------------------------------
// Implementation rules
// ---------------------------------------------------------------------------

void SimpleImplRule::Apply(const RuleContext&, const GroupExpr& expr,
                           std::vector<OpTree>* out) const {
  if (expr.op.kind != root_kind()) return;
  Operator physical = expr.op;
  physical.kind = physical_;
  std::vector<OpTree> children;
  for (GroupId c : expr.children) children.push_back(OpTree::Leaf(c));
  out->push_back(OpTree::Node(std::move(physical), std::move(children)));
}

void JoinImplRule::Apply(const RuleContext&, const GroupExpr& expr,
                         std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kJoin) return;
  switch (expr.op.join_type) {
    case JoinType::kInner:
      if (!options_.allow_inner) return;
      break;
    case JoinType::kLeftOuter:
      if (!options_.allow_outer) return;
      break;
    case JoinType::kLeftSemi:
      if (!options_.allow_semi) return;
      break;
  }
  int keys = static_cast<int>(expr.op.left_keys.size());
  if (keys == 0 && options_.physical != OpKind::kLoopJoin) return;
  if (keys > options_.max_keys) return;
  if (options_.require_multi_key && keys < 2) return;
  // Outer joins cannot build/broadcast the preserved side.
  if (expr.op.join_type == JoinType::kLeftOuter && options_.build_side == 1) return;
  Operator physical = expr.op;
  physical.kind = options_.physical;
  physical.build_side = options_.build_side;
  out->push_back(OpTree::Node(std::move(physical),
                              {OpTree::Leaf(expr.children[0]), OpTree::Leaf(expr.children[1])}));
}

void IndexApplyJoinImplRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                                   std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kJoin || expr.op.join_type != JoinType::kInner) return;
  if (expr.op.predicate != nullptr && expr.op.predicate->kind() != ExprKind::kTrue) return;
  const Memo& memo = *ctx.memo;
  GroupId scan_group = expr.children[scan_side_ == 0 ? 1 : 0];
  GroupId probe_group = expr.children[scan_side_ == 0 ? 0 : 1];
  ExprId get_id = FindLogicalExpr(memo, scan_group, OpKind::kGet);
  if (get_id == kInvalidExpr) return;
  const GroupExpr& get = memo.expr(get_id);
  // The seek key must be the stream's leading (index) column.
  const std::vector<ColumnId>& inner_keys =
      scan_side_ == 0 ? expr.op.right_keys : expr.op.left_keys;
  if (inner_keys.size() != 1) return;
  const ColumnInfo& info = ctx.universe->info(inner_keys[0]);
  if (info.derived || info.column_index != 0) return;

  Operator physical = expr.op;
  physical.kind = OpKind::kIndexApplyJoin;
  physical.stream_id = get.op.stream_id;
  physical.stream_set_id = get.op.stream_set_id;
  physical.scan_columns = get.op.scan_columns;
  if (scan_side_ == 1) {
    // Probe side is the original right input; normalize keys so left_keys
    // always refer to the probe child.
    std::swap(physical.left_keys, physical.right_keys);
  }
  out->push_back(OpTree::Node(std::move(physical), {OpTree::Leaf(probe_group)}));
}

void AggImplRule::Apply(const RuleContext&, const GroupExpr& expr,
                        std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kGroupBy) return;
  if (expr.op.partial_agg != partial_only_) return;
  if (static_cast<int>(expr.op.group_keys.size()) > max_keys_) return;
  Operator physical = expr.op;
  physical.kind = physical_;
  out->push_back(OpTree::Node(std::move(physical), {OpTree::Leaf(expr.children[0])}));
}

void UnionImplRule::Apply(const RuleContext& ctx, const GroupExpr& expr,
                          std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kUnionAll) return;
  const Memo& memo = *ctx.memo;
  if (physical_ == OpKind::kVirtualDataset) {
    // Metadata-only union: every branch must be a directly scannable stream
    // of the same stream set (the "aligned daily streams" case).
    int set_id = -1;
    for (GroupId child : expr.children) {
      ExprId get_id = FindLogicalExpr(memo, child, OpKind::kGet);
      if (get_id == kInvalidExpr) return;
      const GroupExpr& get = memo.expr(get_id);
      if (set_id == -1) set_id = get.op.stream_set_id;
      if (get.op.stream_set_id != set_id) return;
    }
    if (require_same_partitions_ && static_cast<int>(expr.children.size()) > 4) return;
  }
  if (physical_ == OpKind::kSortedUnionAll) {
    // Merging union requires per-branch sorted runs; only branches that are
    // Top results have a defined order in this algebra.
    for (GroupId child : expr.children) {
      if (FindLogicalExpr(memo, child, OpKind::kTop) == kInvalidExpr) return;
    }
  }
  Operator physical = expr.op;
  physical.kind = physical_;
  std::vector<OpTree> children;
  for (GroupId c : expr.children) children.push_back(OpTree::Leaf(c));
  out->push_back(OpTree::Node(std::move(physical), std::move(children)));
}

void TopImplRule::Apply(const RuleContext&, const GroupExpr& expr,
                        std::vector<OpTree>* out) const {
  if (expr.op.kind != OpKind::kTop) return;
  if (expr.op.limit > max_limit_) return;
  Operator physical = expr.op;
  physical.kind = physical_;
  out->push_back(OpTree::Node(std::move(physical), {OpTree::Leaf(expr.children[0])}));
}

}  // namespace qsteer
