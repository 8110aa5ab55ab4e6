// Rule framework: transformation (logical -> logical) and implementation
// (logical -> physical) rules applied against the memo.
//
// Every rule has a fixed RuleId in [0, 256) assigned by the registry
// (rule_registry.h); the id determines its category and default state.
// Rules report alternatives as OpTree fragments; the optimizer driver
// materializes them into the memo with provenance (rule id + source
// expression) so rule signatures can be logged.
#ifndef QSTEER_OPTIMIZER_RULES_H_
#define QSTEER_OPTIMIZER_RULES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/memo.h"
#include "optimizer/rule_config.h"

namespace qsteer {

/// A new (sub)expression proposed by a rule: either a reference to an
/// existing memo group (leaf) or a new operator over child fragments.
struct OpTree {
  bool is_leaf = false;
  GroupId leaf_group = kInvalidGroup;
  Operator op;
  std::vector<OpTree> children;

  static OpTree Leaf(GroupId group);
  static OpTree Node(Operator op, std::vector<OpTree> children);
};

/// Inclusive integer match window used to split a rewrite family into
/// genuinely distinct registry variants (e.g. CorrelatedJoinOnUnionAll1..6
/// in SCOPE differ by shape restrictions).
struct IntWindow {
  int lo = 0;
  int hi = 1 << 30;
  bool Contains(int v) const { return v >= lo && v <= hi; }
};

struct RuleContext {
  const Memo* memo = nullptr;
  /// Mutable: rules may mint derived columns (e.g., partial-aggregate
  /// intermediates).
  ColumnUniverse* universe = nullptr;
};

class Rule {
 public:
  /// `root_kind` is the one operator kind Apply can match at the root of an
  /// expression; the registry dispatches the rule on expressions of that kind
  /// only. Marker rules, which never propose anything, have none.
  Rule(RuleId id, std::string name, std::optional<OpKind> root_kind)
      : id_(id), name_(std::move(name)), root_kind_(root_kind) {}
  virtual ~Rule() = default;
  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;

  RuleId id() const { return id_; }
  const std::string& name() const { return name_; }
  RuleCategory category() const { return CategoryOfRule(id_); }
  std::optional<OpKind> root_kind() const { return root_kind_; }

  /// True for implementation rules (logical -> physical).
  virtual bool is_implementation() const { return false; }

  /// Proposes alternative expressions equivalent to `expr` (appended to
  /// `out`). Must not mutate the memo. Proposes nothing, and mints no
  /// column, unless `expr.op.kind` is root_kind().
  virtual void Apply(const RuleContext& ctx, const GroupExpr& expr,
                     std::vector<OpTree>* out) const = 0;

 private:
  RuleId id_;
  std::string name_;
  std::optional<OpKind> root_kind_;
};

// ---------------------------------------------------------------------------
// Helpers shared by rule implementations
// ---------------------------------------------------------------------------

/// Finds a logical expression of the given kind in a group; kInvalidExpr if
/// none.
ExprId FindLogicalExpr(const Memo& memo, GroupId group, OpKind kind);

/// True when every column of `cols` appears in the group's output columns.
bool GroupProvidesColumns(const Memo& memo, GroupId group, const std::vector<ColumnId>& cols);

// ---------------------------------------------------------------------------
// Transformation rules
// ---------------------------------------------------------------------------

/// Select(Select(x)) -> Select(x) with the conjunction of both predicates.
/// `min_stack` controls the variant: 2 collapses any pair; 3 requires a
/// stack of three (a genuinely distinct, narrower rule variant).
class CollapseSelectsRule : public Rule {
 public:
  CollapseSelectsRule(RuleId id, std::string name, IntWindow stack_window = {2, 1 << 30})
      : Rule(id, std::move(name), OpKind::kSelect), stack_window_(stack_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow stack_window_;
};

/// Select with a trivially-true predicate -> child.
class SelectOnTrueRule : public Rule {
 public:
  SelectOnTrueRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Splits a conjunctive Select into a stack of single-conjunct Selects.
class SelectSplitConjunctionRule : public Rule {
 public:
  SelectSplitConjunctionRule(RuleId id, std::string name, IntWindow conjunct_window = {2, 6})
      : Rule(id, std::move(name), OpKind::kSelect), conjunct_window_(conjunct_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow conjunct_window_;
};

/// Canonicalizes a conjunctive predicate by sorting conjuncts (the
/// "SelectPredNormalized" rewrite). Changes estimate backoff ordering only.
class SelectPredNormalizeRule : public Rule {
 public:
  SelectPredNormalizeRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Pushes a Select below a target unary operator (Project, Process, Window,
/// GroupBy, Sample) when the predicate is bound by the grandchild's columns.
class PushSelectBelowUnaryRule : public Rule {
 public:
  PushSelectBelowUnaryRule(RuleId id, std::string name, OpKind target,
                           IntWindow atom_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kSelect),
        target_(target),
        atom_window_(atom_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  OpKind target_;
  /// Variant restriction on the predicate's atom count.
  IntWindow atom_window_;
};

/// Pushes Select conjuncts below a Join to the side(s) that bind them.
/// side: 0 = left only, 1 = right only, 2 = both sides at once.
class PushSelectBelowJoinRule : public Rule {
 public:
  PushSelectBelowJoinRule(RuleId id, std::string name, int side,
                          IntWindow atom_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kSelect),
        side_(side),
        atom_window_(atom_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  int side_;
  IntWindow atom_window_;
};

/// Select(UnionAll(a, b, ...)) -> UnionAll(Select(a), Select(b), ...).
class PushSelectBelowUnionRule : public Rule {
 public:
  PushSelectBelowUnionRule(RuleId id, std::string name, IntWindow branch_window = {2, 1 << 30})
      : Rule(id, std::move(name), OpKind::kSelect), branch_window_(branch_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow branch_window_;
};

/// Merges a Select above a Join into the join's residual predicate.
class MergeSelectIntoJoinRule : public Rule {
 public:
  MergeSelectIntoJoinRule(RuleId id, std::string name, IntWindow key_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kSelect), key_window_(key_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow key_window_;
};

/// Select(Get) with an equality conjunct on the stream's partition column
/// (column 0) -> Select(Get with reduced partition_fraction). Models
/// SCOPE's SelectPartitions partition-pruning rule.
class SelectPartitionsRule : public Rule {
 public:
  SelectPartitionsRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Project(Project(x)) -> Project(x) (composition of pass-through merges).
class ProjectMergeRule : public Rule {
 public:
  ProjectMergeRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kProject) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Removes a Project that is a pure pass-through of its child's columns.
class RemoveNoopProjectRule : public Rule {
 public:
  RemoveNoopProjectRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kProject) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Project(UnionAll(...)) -> UnionAll(Project(...), ...) ("SequenceProject
/// on union").
class PushProjectBelowUnionRule : public Rule {
 public:
  PushProjectBelowUnionRule(RuleId id, std::string name, IntWindow branch_window = {2, 1 << 30})
      : Rule(id, std::move(name), OpKind::kProject), branch_window_(branch_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow branch_window_;
};

/// Join commutativity (inner joins only).
class JoinCommuteRule : public Rule {
 public:
  JoinCommuteRule(RuleId id, std::string name, IntWindow key_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kJoin), key_window_(key_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow key_window_;
};

/// Join associativity. direction 0: (A⋈B)⋈C -> A⋈(B⋈C);
/// direction 1: A⋈(B⋈C) -> (A⋈B)⋈C. Inner equi-joins only; key/column
/// binding is validated against group outputs.
class JoinAssocRule : public Rule {
 public:
  JoinAssocRule(RuleId id, std::string name, int direction, IntWindow key_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kJoin),
        direction_(direction),
        key_window_(key_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  int direction_;
  IntWindow key_window_;
};

/// GroupBy(UnionAll(...)) -> GroupBy_final(UnionAll(GroupBy_partial(...)))
/// ("GroupbyBelowUnionAll"). Valid for min/max aggregates and count/sum via
/// re-aggregation; this library restricts to duplicate-insensitive and
/// summable aggregates which is all the workload generates.
class PushGroupByBelowUnionRule : public Rule {
 public:
  PushGroupByBelowUnionRule(RuleId id, std::string name, IntWindow branch_window = {2, 1 << 30})
      : Rule(id, std::move(name), OpKind::kGroupBy), branch_window_(branch_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow branch_window_;
};

/// Eager aggregation below a join ("GroupbyOnJoin"). side 0 pushes into the
/// left input, 1 into the right. Restricted to MIN/MAX aggregates whose
/// arguments come from the pushed side (duplicate-insensitive, so join fan-
/// out cannot corrupt results).
class PushGroupByBelowJoinRule : public Rule {
 public:
  PushGroupByBelowJoinRule(RuleId id, std::string name, int side)
      : Rule(id, std::move(name), OpKind::kGroupBy), side_(side) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  int side_;
};

/// Splits a GroupBy into partial + final ("PartialAggregation"): the partial
/// half can be implemented shuffle-free (PreHashAgg).
class PartialAggregationRule : public Rule {
 public:
  PartialAggregationRule(RuleId id, std::string name, IntWindow key_window = {1, 1 << 30})
      : Rule(id, std::move(name), OpKind::kGroupBy), key_window_(key_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow key_window_;
};

/// Canonicalizes GroupBy keys (dedup + sort) — "NormalizeReduce".
class NormalizeReduceRule : public Rule {
 public:
  NormalizeReduceRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kGroupBy) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Join pushdown below UnionAll ("CorrelatedJoinOnUnionAll" family, off by
/// default): Join(UnionAll(a,b,...), R) -> UnionAll(Join(a,R), Join(b,R),..).
/// union_side: 0 = union on the left input, 1 = on the right.
/// Join-type restriction and branch cap distinguish the numbered variants.
class PushJoinBelowUnionRule : public Rule {
 public:
  PushJoinBelowUnionRule(RuleId id, std::string name, int union_side, JoinType only_type,
                         int max_branches = 64)
      : Rule(id, std::move(name), OpKind::kJoin),
        union_side_(union_side),
        only_type_(only_type),
        max_branches_(max_branches) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  int union_side_;
  JoinType only_type_;
  int max_branches_;
};

/// Process(UnionAll(...)) -> UnionAll(Process(...), ...)
/// ("ProcessOnUnionAll"). UDOs are row-wise, so the rewrite is always valid.
class PushProcessBelowUnionRule : public Rule {
 public:
  PushProcessBelowUnionRule(RuleId id, std::string name, IntWindow branch_window = {2, 1 << 30})
      : Rule(id, std::move(name), OpKind::kProcess), branch_window_(branch_window) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  IntWindow branch_window_;
};

/// UnionAll(UnionAll(a,b), c) -> UnionAll(a,b,c).
class UnionFlattenRule : public Rule {
 public:
  UnionFlattenRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kUnionAll) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Top(UnionAll(...)) -> Top(UnionAll(Top(branch)...)): per-branch limits
/// feed a final Top ("TopNPushdownUnion"; off-by-default aggressive variant
/// pushes below joins too and is represented by a separate never-matching
/// guard in this workload).
class PushTopBelowUnionRule : public Rule {
 public:
  PushTopBelowUnionRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kTop) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Top(Project(x)) -> Project(Top(x)) when sort keys pass through
/// ("TopOnRestrRemap").
class TopProjectSwapRule : public Rule {
 public:
  TopProjectSwapRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kTop) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Infers an equivalent predicate on the other join side from an equality
/// join key + a select above the join ("PredicateInference"): adds a
/// redundant-but-useful filter conjunct on the opposite key.
class PredicateInferenceRule : public Rule {
 public:
  PredicateInferenceRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Pushes a Select below a Process even though the UDO is opaque
/// (off-by-default: unsafe in general, here valid because generated UDOs are
/// row-wise and column-preserving).
class UnsafeSelectBelowProcessRule : public Rule {
 public:
  UnsafeSelectBelowProcessRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Select with a disjunctive conjunct: Select(x, a OR b) ->
/// UnionAll(Select(x, a), Select(x, b AND NOT a)) — the branches are
/// disjoint, so bag semantics are preserved ("SelectOrExpansion").
class SelectOrExpansionRule : public Rule {
 public:
  SelectOrExpansionRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Removes duplicated conjuncts from a Select ("RemoveDupPredicates").
class RemoveDupPredicatesRule : public Rule {
 public:
  RemoveDupPredicatesRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Folds literal-vs-literal comparisons that are trivially true out of a
/// conjunction ("ConstantFolding"). Trivially-false conjuncts are left in
/// place (this algebra has no empty-relation operator).
class ConstantFoldingRule : public Rule {
 public:
  ConstantFoldingRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kSelect) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// Top(Top(x)) with identical sort keys -> Top(x) with the smaller limit
/// ("TopTopCollapse").
class TopTopCollapseRule : public Rule {
 public:
  TopTopCollapseRule(RuleId id, std::string name)
      : Rule(id, std::move(name), OpKind::kTop) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

/// A rule whose match pattern involves operators or shapes this workload
/// never produces (rare-feature rules: cube/pivot/spool/recursive variants).
/// It genuinely participates in rule application (and so in configuration
/// search) but never fires — the source of Table 2's "unused rules".
class RareShapeRule : public Rule {
 public:
  RareShapeRule(RuleId id, std::string name, OpKind match_kind)
      : Rule(id, std::move(name), match_kind) {}
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;
};

// ---------------------------------------------------------------------------
// Implementation rules
// ---------------------------------------------------------------------------

/// Single-node implementation: clones the logical operator payload into a
/// physical kind. Covers Get/Select/Project/Process/Window/Sample/Output and
/// simple operator families.
class SimpleImplRule : public Rule {
 public:
  SimpleImplRule(RuleId id, std::string name, OpKind logical, OpKind physical)
      : Rule(id, std::move(name), logical), physical_(physical) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  OpKind physical_;
};

/// Join implementations. Variants differ by algorithm, build side and match
/// restrictions (join type, key count) — mirroring HashJoinImpl1/2,
/// BroadcastJoinImpl, MergeJoinImpl, LoopJoinImpl, SemiJoin* etc.
class JoinImplRule : public Rule {
 public:
  struct Options {
    OpKind physical = OpKind::kHashJoin;
    int build_side = 0;  // 0 = right, 1 = left
    bool allow_inner = true;
    bool allow_outer = false;
    bool allow_semi = false;
    int max_keys = 8;
    /// Grace-hash style: extra IO, smaller spill penalty (modeled via a
    /// distinct physical cost path is overkill; the flag only gates match
    /// to multi-key joins to keep variants genuinely distinct).
    bool require_multi_key = false;
  };
  JoinImplRule(RuleId id, std::string name, Options options)
      : Rule(id, std::move(name), OpKind::kJoin), options_(options) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  Options options_;
};

/// IndexApplyJoin: right input must be a directly scannable Get; the join
/// seeks into the stream per probe row. Variant 2 applies on the left.
class IndexApplyJoinImplRule : public Rule {
 public:
  IndexApplyJoinImplRule(RuleId id, std::string name, int scan_side)
      : Rule(id, std::move(name), OpKind::kJoin), scan_side_(scan_side) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  int scan_side_;
};

/// Aggregation implementations (hash / stream / pre-aggregation).
class AggImplRule : public Rule {
 public:
  AggImplRule(RuleId id, std::string name, OpKind physical, bool partial_only,
              int max_keys = 16)
      : Rule(id, std::move(name), OpKind::kGroupBy),
        physical_(physical),
        partial_only_(partial_only),
        max_keys_(max_keys) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  OpKind physical_;
  bool partial_only_;
  int max_keys_;
};

/// UnionAll implementations: physical concat, or the metadata-only
/// VirtualDataset (children must all be scan-implementable groups of the
/// same stream set; `require_same_partition_count` marks the stricter
/// variant).
class UnionImplRule : public Rule {
 public:
  UnionImplRule(RuleId id, std::string name, OpKind physical,
                bool require_same_partition_count = false)
      : Rule(id, std::move(name), OpKind::kUnionAll),
        physical_(physical),
        require_same_partitions_(require_same_partition_count) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  OpKind physical_;
  bool require_same_partitions_;
};

/// Top-N implementations.
class TopImplRule : public Rule {
 public:
  TopImplRule(RuleId id, std::string name, OpKind physical, int64_t max_limit = 1 << 30)
      : Rule(id, std::move(name), OpKind::kTop),
        physical_(physical),
        max_limit_(max_limit) {}
  bool is_implementation() const override { return true; }
  void Apply(const RuleContext& ctx, const GroupExpr& expr,
             std::vector<OpTree>* out) const override;

 private:
  OpKind physical_;
  int64_t max_limit_;
};

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_RULES_H_
