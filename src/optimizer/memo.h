// The Cascades memo: groups of equivalent expressions with provenance
// tracking. Provenance (which rule created each expression, derived from
// which source expression) is what lets the optimizer log *rule signatures* —
// the paper's central instrumentation ("we modified the SCOPE optimizer to
// log which rule contributes to any component of the final query plan").
#ifndef QSTEER_OPTIMIZER_MEMO_H_
#define QSTEER_OPTIMIZER_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/small_vector.h"
#include "optimizer/properties.h"
#include "plan/job.h"
#include "plan/operator.h"

namespace qsteer {

using GroupId = int32_t;
using ExprId = int32_t;
constexpr GroupId kInvalidGroup = -1;
constexpr ExprId kInvalidExpr = -1;

/// Child-group list of a memo expression. Nearly every operator has <= 4
/// inputs (only wide UnionAll fan-ins spill to the heap), so child lists
/// stay inline and the AddExpr hot path avoids a heap allocation per
/// expression.
using ChildVec = SmallVector<GroupId, 4>;

/// Sentinel for "compute op.Hash(false) yourself" in AddExpr.
constexpr uint64_t kNoOpHash = ~0ull;

struct GroupExpr {
  Operator op;
  ChildVec children;
  /// op.Hash(/*for_template=*/false), computed once at insertion. Dedup
  /// probes and group-alias copies re-use it instead of re-hashing the
  /// operator payload (the old hot-path cost of every AddExpr).
  uint64_t op_hash = 0;
  GroupId group = kInvalidGroup;
  /// Rule that created this expression; -1 for expressions of the initial
  /// (input) plan.
  int rule_id = -1;
  /// Expression this one was derived from (rewrite source / logical
  /// expression an implementation rule implemented); -1 for initial ones.
  ExprId source_expr = kInvalidExpr;
  /// For a proposal (Memo::AddProposal): the first earlier proposal that is
  /// the same expression; kInvalidExpr for the first of its kind and for
  /// every other expression.
  ExprId same_as = kInvalidExpr;
  bool is_logical = true;
};

/// An enforcer a winner places on top of its expression: an Exchange of
/// kind `exchange` (with `keys` when it repartitions) or a Sort on `keys`,
/// at `dop`. ExtractPlan turns it into the Operator.
struct Enforcer {
  bool present = false;
  ExchangeKind exchange = ExchangeKind::kRepartition;
  int dop = 1;
  PropKeys keys;
};

/// Best implementation found for a (group, required property) pair. The
/// optimizer keeps its winners in one per-compile table (CompileState), not
/// in the memo, and refers to them by index: the table grows while the
/// search recurses, so a reference into it does not survive a nested
/// OptimizeGroup call.
struct Winner {
  ExprId expr = kInvalidExpr;
  double cost = 0.0;
  /// Chosen degree of parallelism for the winning expression.
  int dop = 1;
  /// Winner-table index of each child's winner under the property this
  /// expression requested from it, recorded when the option was costed.
  SmallVector<int, 2> child_winners;
  /// Property the winning expression itself delivers (before enforcers).
  PhysProp delivered;
  /// Enforcers on top of the expression, bottom-up: an exchange, then a sort.
  Enforcer exchange;
  Enforcer sort;
  bool valid = false;
};

/// A set of equivalent expressions. It holds no search state: the
/// optimizer's winners and derived statistics live in tables indexed by
/// GroupId, which the memo never sees. No group is added once exploration
/// returns, so those tables are sized once.
struct Group {
  /// The group's explored expressions, then its proposals in table order.
  std::vector<ExprId> exprs;
  /// Sorted output column ids.
  std::vector<ColumnId> output_columns;
  /// Representative logical expression: the first logical expression the
  /// group ever contained. Statistics are derived from it, which makes
  /// estimates shape-sensitive across rule configurations (paper §5.3).
  ExprId representative = kInvalidExpr;
};

class Memo {
 public:
  Memo() = default;
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;
  Memo(Memo&&) = default;
  Memo& operator=(Memo&&) = default;

  /// Copies a logical plan DAG into the memo (deduplicating shared
  /// subtrees) and returns the root group.
  GroupId Insert(const PlanNodePtr& root);

  /// Adds an expression. If an identical (op, children) expression already
  /// exists anywhere, returns it unchanged (its group may differ from
  /// `target_group`; callers must check). Otherwise creates the expression
  /// in `target_group`, or in a fresh group when `target_group` is
  /// kInvalidGroup. `op_hash` may carry a precomputed op.Hash(false) (e.g.
  /// when aliasing an existing expression); kNoOpHash computes it here.
  ExprId AddExpr(Operator op, ChildVec children, GroupId target_group, int rule_id,
                 ExprId source_expr, uint64_t op_hash = kNoOpHash);

  /// Adds an implementation rule's proposal, a physical expression over
  /// existing groups, to `target_group`'s proposal table. A proposal that
  /// repeats an explored expression is dropped (returns kInvalidExpr), as
  /// AddExpr would drop it. One that repeats an earlier proposal is added
  /// all the same, with `same_as` naming the first of them: which of the
  /// two a compile keeps depends on the rules it enables. Proposals follow
  /// every explored expression; once one is added, AddExpr and Insert must
  /// not be called again.
  ExprId AddProposal(Operator op, ChildVec children, GroupId target_group, int rule_id,
                     ExprId source_expr);

  const Group& group(GroupId id) const { return groups_[static_cast<size_t>(id)]; }
  Group& group(GroupId id) { return groups_[static_cast<size_t>(id)]; }
  const GroupExpr& expr(ExprId id) const { return exprs_[static_cast<size_t>(id)]; }
  GroupExpr& expr(ExprId id) { return exprs_[static_cast<size_t>(id)]; }

  int num_groups() const { return static_cast<int>(groups_.size()); }
  int num_exprs() const { return static_cast<int>(exprs_.size()); }
  /// Id of the first proposal: every id below it is an explored expression.
  /// num_exprs() while no proposal has been added.
  ExprId first_proposal() const {
    return first_proposal_ == kInvalidExpr ? num_exprs() : first_proposal_;
  }

  /// Collects the transitive provenance rule ids of an expression: the rule
  /// that produced it plus the provenance of everything it was derived from.
  void CollectProvenance(ExprId id, std::vector<int>* rule_ids) const;

 private:
  /// One slot of the dedup table; `id == kInvalidExpr` marks it empty.
  struct DedupSlot {
    uint64_t key = 0;
    ExprId id = kInvalidExpr;
  };

  static uint64_t ExprKey(uint64_t op_hash, const ChildVec& children);
  GroupId InsertNode(const PlanNode* node,
                     std::unordered_map<const PlanNode*, GroupId>* visited);
  /// Appends `expr` to its group and returns its id.
  ExprId Append(GroupExpr&& expr);
  /// The slot holding `key`, or the empty slot where it belongs. Grows the
  /// table first, so the caller may claim an empty slot.
  DedupSlot& DedupSlotFor(uint64_t key);
  void GrowDedup(size_t capacity);

  std::vector<Group> groups_;
  std::vector<GroupExpr> exprs_;
  /// Open-addressing {ExprKey, ExprId} table, power-of-two sized, linear
  /// probing, at most half full. A key added again (a hash collision
  /// between distinct expressions) keeps the latest id.
  std::vector<DedupSlot> dedup_;
  size_t dedup_used_ = 0;
  ExprId first_proposal_ = kInvalidExpr;
};

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_MEMO_H_
