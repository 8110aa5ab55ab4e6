#include "optimizer/memo.h"

#include <algorithm>

#include "common/hash.h"

namespace qsteer {

uint64_t Memo::ExprKey(uint64_t op_hash, const ChildVec& children) {
  // Position-dependent mix (common/hash.h): each child id is pre-mixed with
  // its position before the order-sensitive combine, so permuted children of
  // commutative operators — join(a,b) vs join(b,a) — can never share a key.
  return HashRange(children.begin(), children.end(), op_hash);
}

GroupId Memo::Insert(const PlanNodePtr& root) {
  if (exprs_.capacity() == 0) {
    // One up-front reservation replaces the first several vector growths and
    // dedup-table rehashes of a compile; typical exploration lands in the
    // low hundreds of expressions.
    exprs_.reserve(256);
    groups_.reserve(160);
    if (dedup_.empty()) GrowDedup(1024);
  }
  std::unordered_map<const PlanNode*, GroupId> visited;
  visited.reserve(64);
  return InsertNode(root.get(), &visited);
}

GroupId Memo::InsertNode(const PlanNode* node,
                         std::unordered_map<const PlanNode*, GroupId>* visited) {
  auto it = visited->find(node);
  if (it != visited->end()) return it->second;
  ChildVec children;
  children.reserve(node->children.size());
  for (const PlanNodePtr& child : node->children) {
    children.push_back(InsertNode(child.get(), visited));
  }
  ExprId expr_id = AddExpr(node->op, std::move(children), kInvalidGroup, /*rule_id=*/-1,
                           /*source_expr=*/kInvalidExpr);
  GroupId group_id = exprs_[static_cast<size_t>(expr_id)].group;
  (*visited)[node] = group_id;
  return group_id;
}

ExprId Memo::AddExpr(Operator op, ChildVec children, GroupId target_group, int rule_id,
                     ExprId source_expr, uint64_t op_hash) {
  if (op_hash == kNoOpHash) op_hash = op.Hash(/*for_template=*/false);
  uint64_t key = ExprKey(op_hash, children);
  DedupSlot& slot = DedupSlotFor(key);
  if (slot.id != kInvalidExpr) {
    // Verify it's a true duplicate, not a hash collision. The stored op_hash
    // makes this probe allocation- and rehash-free.
    const GroupExpr& existing = exprs_[static_cast<size_t>(slot.id)];
    if (existing.op_hash == op_hash && existing.children == children) {
      return slot.id;
    }
  } else {
    ++dedup_used_;
  }

  GroupExpr expr;
  expr.is_logical = op.IsLogical();
  expr.op = std::move(op);
  expr.children = std::move(children);
  expr.op_hash = op_hash;
  expr.rule_id = rule_id;
  expr.source_expr = source_expr;

  if (target_group == kInvalidGroup) {
    target_group = static_cast<GroupId>(groups_.size());
    groups_.emplace_back();
    std::vector<std::vector<ColumnId>> child_outputs;
    child_outputs.reserve(expr.children.size());
    for (GroupId c : expr.children) {
      child_outputs.push_back(groups_[static_cast<size_t>(c)].output_columns);
    }
    groups_.back().output_columns = OutputColumns(expr.op, child_outputs);
  }
  expr.group = target_group;

  ExprId id = Append(std::move(expr));
  slot.key = key;
  slot.id = id;
  return id;
}

ExprId Memo::AddProposal(Operator op, ChildVec children, GroupId target_group, int rule_id,
                         ExprId source_expr) {
  if (first_proposal_ == kInvalidExpr) first_proposal_ = num_exprs();
  const uint64_t op_hash = op.Hash(/*for_template=*/false);
  const uint64_t key = ExprKey(op_hash, children);
  DedupSlot& slot = DedupSlotFor(key);
  ExprId same_as = kInvalidExpr;
  if (slot.id != kInvalidExpr) {
    // The slot holds an explored expression or the first proposal of its
    // kind, never a repeat, so `same_as` always names the first.
    const GroupExpr& existing = exprs_[static_cast<size_t>(slot.id)];
    if (existing.op_hash == op_hash && existing.children == children) {
      if (slot.id < first_proposal_) return kInvalidExpr;
      same_as = slot.id;
    }
  } else {
    ++dedup_used_;
  }

  GroupExpr expr;
  expr.is_logical = op.IsLogical();
  expr.op = std::move(op);
  expr.children = std::move(children);
  expr.op_hash = op_hash;
  expr.group = target_group;
  expr.rule_id = rule_id;
  expr.source_expr = source_expr;
  expr.same_as = same_as;
  ExprId id = Append(std::move(expr));
  if (same_as == kInvalidExpr) {
    slot.key = key;
    slot.id = id;
  }
  return id;
}

ExprId Memo::Append(GroupExpr&& expr) {
  const ExprId id = num_exprs();
  exprs_.push_back(std::move(expr));
  const GroupExpr& added = exprs_.back();
  Group& grp = groups_[static_cast<size_t>(added.group)];
  grp.exprs.push_back(id);
  if (grp.representative == kInvalidExpr && added.is_logical) grp.representative = id;
  return id;
}

Memo::DedupSlot& Memo::DedupSlotFor(uint64_t key) {
  if (2 * (dedup_used_ + 1) > dedup_.size()) GrowDedup(std::max<size_t>(16, 2 * dedup_.size()));
  const size_t mask = dedup_.size() - 1;
  for (size_t i = key & mask;; i = (i + 1) & mask) {
    DedupSlot& slot = dedup_[i];
    if (slot.id == kInvalidExpr || slot.key == key) return slot;
  }
}

void Memo::GrowDedup(size_t capacity) {
  std::vector<DedupSlot> old = std::move(dedup_);
  dedup_.assign(capacity, DedupSlot{});
  const size_t mask = capacity - 1;
  for (const DedupSlot& entry : old) {
    if (entry.id == kInvalidExpr) continue;
    size_t i = entry.key & mask;
    while (dedup_[i].id != kInvalidExpr) i = (i + 1) & mask;
    dedup_[i] = entry;
  }
}

void Memo::CollectProvenance(ExprId id, std::vector<int>* rule_ids) const {
  while (id != kInvalidExpr) {
    const GroupExpr& e = exprs_[static_cast<size_t>(id)];
    if (e.rule_id >= 0) rule_ids->push_back(e.rule_id);
    id = e.source_expr;
  }
}

}  // namespace qsteer
