#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <unordered_map>

#include "optimizer/cost_model.h"

namespace qsteer {

namespace {

using Family = CompileSession::Family;

/// Exploration budget (SCOPE-style caps keep huge DAG jobs tractable): the
/// logical expressions a rewrite to a bare group aliases into its target.
constexpr int kMaxGroupAliasCopies = 4;

/// Parallelism search.
constexpr int kMaxDop = 128;
constexpr double kBytesPerVertex = 2.56e8;  // sizing heuristic: ~256 MB per vertex

/// The parameters every compile costs with.
constexpr CostParams kCostParams = CostParams::OptimizerBeliefs();

/// A compile's wall-clock budget, shared by the family's exploration and
/// the search.
class Deadline {
 public:
  explicit Deadline(const CompileControl& control) : timeout_s_(control.timeout_s) {
    if (timeout_s_ > 0.0) {
      // qsteer-lint: allow(wall-clock) compile deadline; CompileControl documents timeouts as nondeterministic
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(timeout_s_));
    }
  }

  /// Polled between memo operations. The wall clock is only consulted
  /// under a timeout, and then every 64 polls, to keep the unbudgeted hot
  /// path unchanged.
  bool Expired() {
    if (expired_) return true;
    if (timeout_s_ > 0.0 && (poll_count_++ & 63) == 0 &&
        // qsteer-lint: allow(wall-clock) deadline poll; only reached when the caller opted into a timeout
        std::chrono::steady_clock::now() >= deadline_) {
      return expired_ = true;
    }
    return false;
  }

  /// Whether an earlier poll found the deadline passed.
  bool expired() const { return expired_; }

 private:
  double timeout_s_;
  std::chrono::steady_clock::time_point deadline_{};
  uint64_t poll_count_ = 0;
  bool expired_ = false;
};

/// Builds an exploration family: inserts the (config-dependently)
/// normalized input plan into the family's memo, explores it and fills the
/// proposal table. Rules mint their columns into the family's overlay.
class FamilyExplorer {
 public:
  FamilyExplorer(const OptimizerOptions& options, const RuleConfig& config, Deadline* deadline,
                Family* family)
      : options_(options),
        config_(config),
        deadline_(deadline),
        registry_(RuleRegistry::Instance()),
        family_(family),
        memo_(family->memo),
        normalization_rules_used_(family->normalization_rules) {
    ctx_.memo = &memo_;
    ctx_.universe = &family->universe;
  }

  /// `every_rule` proposes for every implementation rule, so that each
  /// configuration with the family's key finds its own rules' proposals (a
  /// family a session stores); otherwise only for the enabled rules (a
  /// family of one). Returns false when the deadline expired first.
  bool Build(const Job& job, bool every_rule) {
    family_->root = memo_.Insert(NormalizeInputPlan(job.root));
    Explore();
    Propose(every_rule);
    family_->stats.resize(static_cast<size_t>(memo_.num_groups()));
    return !deadline_->expired();
  }

 private:
  // -----------------------------------------------------------------------
  // Input normalization (config-dependent).
  //
  // SCOPE normalizes the script's plan with the enabled rewrite rules
  // before/while seeding the memo, and group logical properties come from
  // the first (normalized) expression. Because the estimator is
  // shape-sensitive (conjunct backoff, stacked selects), configurations
  // that disable normalization rules produce *different estimates* for the
  // same job — the paper §5.3 mechanism that makes estimated costs
  // incomparable across configurations.
  // -----------------------------------------------------------------------

  PlanNodePtr NormalizeInputPlan(const PlanNodePtr& root) {
    std::unordered_map<const PlanNode*, PlanNodePtr> done;
    return NormalizeNode(root, &done);
  }

  /// Output columns of a plan node (memoized).
  const std::vector<ColumnId>& ColsOf(const PlanNodePtr& node) {
    auto it = norm_cols_.find(node.get());
    if (it != norm_cols_.end()) return it->second;
    std::vector<std::vector<ColumnId>> child_cols;
    child_cols.reserve(node->children.size());
    for (const PlanNodePtr& child : node->children) child_cols.push_back(ColsOf(child));
    return norm_cols_.emplace(node.get(), OutputColumns(node->op, child_cols)).first->second;
  }

  static bool BoundByCols(const ExprPtr& e, const std::vector<ColumnId>& cols) {
    return e != nullptr && e->BoundBy(cols);
  }

  /// Normalization-time select pushdown (gated on the pushdown rules being
  /// enabled): determines the *shape the estimator sees*, so disabling these
  /// rules changes estimated properties — not just the search space.
  PlanNodePtr PushSelectDown(const PlanNodePtr& select,
                             std::unordered_map<const PlanNode*, PlanNodePtr>* done) {
    const PlanNodePtr& child = select->children[0];
    std::vector<ExprPtr> conjuncts = SplitConjuncts(select->op.predicate);
    if (conjuncts.empty()) return select;

    auto rebuild_select = [this](ExprPtr pred, PlanNodePtr input) {
      Operator op;
      op.kind = OpKind::kSelect;
      op.predicate = std::move(pred);
      PlanNodePtr node = PlanNode::Make(std::move(op), {std::move(input)});
      // Keep synthetic nodes alive: the normalization cache and column cache
      // are keyed by node address, so recycled addresses would alias.
      norm_keepalive_.push_back(node);
      return node;
    };

    if (child->op.kind == OpKind::kJoin) {
      // Variant-exact gating: single-atom selects are handled by
      // SelectOnJoinLeft/Right (94/96), multi-atom ones by the *2 variants
      // (95/97). Disabling exactly the variant that applies therefore
      // changes the normalized shape — and with it the estimates (§5.3).
      int atoms = select->op.predicate->CountAtoms();
      RuleId left_rule = atoms <= 1 ? 94 : 95;
      RuleId right_rule = atoms <= 1 ? 96 : 97;
      bool left_on = config_.IsEnabled(left_rule);
      bool right_on =
          config_.IsEnabled(right_rule) && child->op.join_type == JoinType::kInner;
      if (!left_on && !right_on) return select;
      std::vector<ExprPtr> to_left, to_right, residual;
      for (const ExprPtr& conj : conjuncts) {
        if (left_on && BoundByCols(conj, ColsOf(child->children[0]))) {
          to_left.push_back(conj);
        } else if (right_on && BoundByCols(conj, ColsOf(child->children[1]))) {
          to_right.push_back(conj);
        } else {
          residual.push_back(conj);
        }
      }
      if (to_left.empty() && to_right.empty()) return select;
      if (!to_left.empty()) normalization_rules_used_.push_back(left_rule);
      if (!to_right.empty()) normalization_rules_used_.push_back(right_rule);
      PlanNodePtr left = child->children[0];
      if (!to_left.empty()) {
        left = NormalizeNode(rebuild_select(MakeConjunction(std::move(to_left)), left), done);
      }
      PlanNodePtr right = child->children[1];
      if (!to_right.empty()) {
        right =
            NormalizeNode(rebuild_select(MakeConjunction(std::move(to_right)), right), done);
      }
      PlanNodePtr join = PlanNode::Make(child->op, {std::move(left), std::move(right)});
      if (residual.empty()) return join;
      return rebuild_select(MakeConjunction(std::move(residual)), std::move(join));
    }

    if (child->op.kind == OpKind::kUnionAll) {
      // Variant by branch count: SelectOnUnionAll covers 2-5 branches,
      // SelectOnUnionAll2 covers 6+.
      RuleId union_rule = child->children.size() <= 5 ? 99 : 100;
      if (!config_.IsEnabled(union_rule)) return select;
      for (const PlanNodePtr& branch : child->children) {
        if (!BoundByCols(select->op.predicate, ColsOf(branch))) return select;
      }
      normalization_rules_used_.push_back(union_rule);
      std::vector<PlanNodePtr> branches;
      for (const PlanNodePtr& branch : child->children) {
        branches.push_back(NormalizeNode(rebuild_select(select->op.predicate, branch), done));
      }
      return PlanNode::Make(child->op, std::move(branches));
    }

    if (child->op.kind == OpKind::kProject) {
      RuleId project_rule =
          select->op.predicate->CountAtoms() <= 1 ? rules::kSelectOnProject : 89;
      if (!config_.IsEnabled(project_rule)) return select;
      if (!BoundByCols(select->op.predicate, ColsOf(child->children[0]))) return select;
      normalization_rules_used_.push_back(project_rule);
      PlanNodePtr pushed =
          NormalizeNode(rebuild_select(select->op.predicate, child->children[0]), done);
      return PlanNode::Make(child->op, {std::move(pushed)});
    }
    return select;
  }

  PlanNodePtr NormalizeNode(const PlanNodePtr& node,
                            std::unordered_map<const PlanNode*, PlanNodePtr>* done) {
    auto it = done->find(node.get());
    if (it != done->end()) return it->second;
    std::vector<PlanNodePtr> children;
    children.reserve(node->children.size());
    bool changed = false;
    for (const PlanNodePtr& child : node->children) {
      PlanNodePtr normalized = NormalizeNode(child, done);
      changed |= normalized != child;
      children.push_back(std::move(normalized));
    }
    PlanNodePtr out = changed ? PlanNode::Make(node->op, children) : node;

    if (out->op.kind == OpKind::kSelect) {
      // SelectOnTrue: drop trivially-true selects.
      if (config_.IsEnabled(rules::kSelectOnTrue) &&
          (out->op.predicate == nullptr || out->op.predicate->kind() == ExprKind::kTrue)) {
        normalization_rules_used_.push_back(rules::kSelectOnTrue);
        out = out->children[0];
      } else if (config_.IsEnabled(rules::kCollapseSelects) &&
                 out->children[0]->op.kind == OpKind::kSelect) {
        // CollapseSelects: merge stacked selects into one conjunction. The
        // combined predicate estimates with exponential backoff, unlike the
        // stack's independent product.
        std::vector<ExprPtr> conjuncts = SplitConjuncts(out->op.predicate);
        std::vector<ExprPtr> inner = SplitConjuncts(out->children[0]->op.predicate);
        conjuncts.insert(conjuncts.end(), inner.begin(), inner.end());
        Operator merged;
        merged.kind = OpKind::kSelect;
        merged.predicate = MakeConjunction(std::move(conjuncts));
        normalization_rules_used_.push_back(rules::kCollapseSelects);
        out = PlanNode::Make(std::move(merged), {out->children[0]->children[0]});
        norm_keepalive_.push_back(out);
        // Collapsing can expose a deeper stack; renormalize this node.
        return (*done)[node.get()] = NormalizeNode(out, done);
      } else {
        const OpKind child_kind = out->children[0]->op.kind;
        if (child_kind == OpKind::kJoin || child_kind == OpKind::kUnionAll ||
            child_kind == OpKind::kProject) {
          PlanNodePtr pushed = PushSelectDown(out, done);
          if (pushed != out) return (*done)[node.get()] = pushed;
        }
        if (config_.IsEnabled(rules::kSelectPredNormalized)) {
          // SelectPredNormalized, also on a select that could not be pushed
          // down: canonical conjunct order (changes which conjuncts the
          // estimator's backoff dampens).
          std::vector<ExprPtr> conjuncts = SplitConjuncts(out->op.predicate);
          if (conjuncts.size() >= 2) {
            std::vector<ExprPtr> sorted = conjuncts;
            std::sort(sorted.begin(), sorted.end(), [](const ExprPtr& a, const ExprPtr& b) {
              return a->Hash(true) < b->Hash(true);
            });
            if (sorted != conjuncts) {
              Operator normalized_op;
              normalized_op.kind = OpKind::kSelect;
              normalized_op.predicate = Expr::And(std::move(sorted));
              normalization_rules_used_.push_back(rules::kSelectPredNormalized);
              out = PlanNode::Make(std::move(normalized_op), {out->children[0]});
            }
          }
        }
      }
    } else if (out->op.kind == OpKind::kUnionAll && config_.IsEnabled(123)) {
      // UnionAllFlatten.
      std::vector<PlanNodePtr> flat;
      bool flattened = false;
      for (const PlanNodePtr& child : out->children) {
        if (child->op.kind == OpKind::kUnionAll) {
          flat.insert(flat.end(), child->children.begin(), child->children.end());
          flattened = true;
        } else {
          flat.push_back(child);
        }
      }
      if (flattened) {
        normalization_rules_used_.push_back(123);
        out = PlanNode::Make(out->op, std::move(flat));
      }
    } else if (out->op.kind == OpKind::kGroupBy && config_.IsEnabled(120)) {
      // NormalizeReduce: dedup + sort grouping keys.
      std::vector<ColumnId> keys = out->op.group_keys;
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      if (keys != out->op.group_keys) {
        Operator normalized_op = out->op;
        normalized_op.group_keys = std::move(keys);
        normalization_rules_used_.push_back(120);
        out = PlanNode::Make(std::move(normalized_op), out->children);
      }
    }
    (*done)[node.get()] = out;
    return out;
  }

  /// Explore and Propose offer an expression only the rules indexed under
  /// its kind (RuleRegistry::transformation_rules/implementation_rules), in
  /// ascending id order; every other rule would have proposed nothing. The
  /// expression's kind and group are read once up front: adding to the memo
  /// grows its expression vector, so no GroupExpr& is held across it.
  void Explore() {
    std::vector<OpTree> proposals;
    // Iterating by ascending ExprId covers expressions added mid-loop, so a
    // single sweep reaches the rewrite fixpoint up to the budgets.
    for (ExprId id = 0; id < memo_.num_exprs(); ++id) {
      if (deadline_->Expired()) return;
      if (memo_.num_exprs() >= options_.max_total_exprs) break;
      if (!memo_.expr(id).is_logical) continue;
      const OpKind kind = memo_.expr(id).op.kind;
      const GroupId target = memo_.expr(id).group;
      for (const Rule* rule : registry_.transformation_rules(kind)) {
        if (!config_.IsEnabled(rule->id())) continue;
        if (static_cast<int>(memo_.group(target).exprs.size()) >=
            options_.max_exprs_per_group) {
          break;
        }
        proposals.clear();
        rule->Apply(ctx_, memo_.expr(id), &proposals);
        for (OpTree& tree : proposals) {
          Materialize(std::move(tree), target, rule->id(), id);
          if (memo_.num_exprs() >= options_.max_total_exprs) return;
        }
      }
    }
  }

  /// Applies the implementation rules to every logical expression, into the
  /// proposal table. An implementation rule proposes at most one physical
  /// node whose children are existing groups, so a proposal adds no group,
  /// and the group cap never applies: every implementation must be able to
  /// land, or groups saturated by rewrites could never get a physical plan.
  void Propose(bool every_rule) {
    const ExprId explored = memo_.num_exprs();  // snapshot: proposals follow
    std::vector<OpTree> proposals;
    for (ExprId id = 0; id < explored; ++id) {
      if (deadline_->Expired()) return;
      if (!memo_.expr(id).is_logical) continue;
      const OpKind kind = memo_.expr(id).op.kind;
      const GroupId target = memo_.expr(id).group;
      for (const Rule* rule : registry_.implementation_rules(kind)) {
        if (!every_rule && !config_.IsEnabled(rule->id())) continue;
        proposals.clear();
        rule->Apply(ctx_, memo_.expr(id), &proposals);
        for (OpTree& tree : proposals) {
          bool over_groups = !tree.is_leaf;
          ChildVec children;
          children.reserve(tree.children.size());
          for (const OpTree& child : tree.children) {
            over_groups &= child.is_leaf;
            children.push_back(child.leaf_group);
          }
          if (!over_groups) {
            std::fprintf(stderr, "optimizer: %s proposed more than one node over existing groups\n",
                         rule->name().c_str());
            std::abort();
          }
          memo_.AddProposal(std::move(tree.op), std::move(children), target, rule->id(), id);
        }
      }
    }
  }

  /// Materializes a rewrite into the memo, consuming it. Internal nodes
  /// land in fresh groups; the root is added to `target_group`. A leaf at
  /// the root aliases the leaf group's logical expressions into the target
  /// group (group equivalence without full merging).
  void Materialize(OpTree&& tree, GroupId target_group, int rule_id, ExprId source) {
    if (tree.is_leaf) {
      const Group& leaf = memo_.group(tree.leaf_group);
      int copied = 0;
      std::vector<ExprId> to_copy = leaf.exprs;  // snapshot: AddExpr mutates
      for (ExprId eid : to_copy) {
        if (copied >= kMaxGroupAliasCopies) break;
        if (!memo_.expr(eid).is_logical) continue;
        if (static_cast<int>(memo_.group(target_group).exprs.size()) >=
            options_.max_exprs_per_group) {
          break;
        }
        GroupExpr e = memo_.expr(eid);  // copy: AddExpr may reallocate the vector
        memo_.AddExpr(std::move(e.op), std::move(e.children), target_group, rule_id, source,
                      e.op_hash);
        ++copied;
      }
      return;
    }
    ChildVec children;
    children.reserve(tree.children.size());
    for (OpTree& child : tree.children) {
      children.push_back(MaterializeChild(std::move(child), rule_id, source));
    }
    if (static_cast<int>(memo_.group(target_group).exprs.size()) >=
        options_.max_exprs_per_group) {
      return;
    }
    memo_.AddExpr(std::move(tree.op), std::move(children), target_group, rule_id, source);
  }

  GroupId MaterializeChild(OpTree&& tree, int rule_id, ExprId source) {
    if (tree.is_leaf) return tree.leaf_group;
    ChildVec children;
    children.reserve(tree.children.size());
    for (OpTree& child : tree.children) {
      children.push_back(MaterializeChild(std::move(child), rule_id, source));
    }
    ExprId id =
        memo_.AddExpr(std::move(tree.op), std::move(children), kInvalidGroup, rule_id, source);
    return memo_.expr(id).group;
  }

  const OptimizerOptions& options_;
  const RuleConfig& config_;
  Deadline* deadline_;
  const RuleRegistry& registry_;
  Family* family_;
  Memo& memo_;
  RuleContext ctx_;
  std::vector<int>& normalization_rules_used_;
  std::unordered_map<const PlanNode*, std::vector<ColumnId>> norm_cols_;
  /// Synthetic normalization nodes pinned so address-keyed caches stay valid.
  std::vector<PlanNodePtr> norm_keepalive_;
};

/// Per-compilation search state (the "optimize context" of the threading
/// model, DESIGN.md "Threading model"): the landed proposals, the
/// statistics the family lacks, the winner table and search frames, and
/// the extraction caches live here, on the calling thread's stack. The
/// family is read through a const reference, so concurrent
/// Optimizer::Compile calls on one `const Optimizer` never share mutable
/// state, even when they read one family.
class CompileState {
 public:
  CompileState(const Optimizer& optimizer, const Job& job, const RuleConfig& config,
               const Family& family, Deadline* deadline)
      : config_(config),
        deadline_(deadline),
        family_(family),
        memo_(family.memo),
        first_proposal_(family.memo.first_proposal()),
        est_view_(optimizer.catalog(), &family.universe, job.day) {
    exchange_op_.kind = OpKind::kExchange;
    sort_op_.kind = OpKind::kSort;
  }

  Result<CompiledPlan> Run() {
    Land();
    // The family is final: size the per-group search state once.
    group_state_.resize(static_cast<size_t>(memo_.num_groups()));
    winners_.reserve(static_cast<size_t>(memo_.num_groups()));
    PhysProp any = PhysProp::Any();
    const int winner = OptimizeGroup(family_.root, any);
    if (deadline_->expired()) return Status::DeadlineExceeded("compile deadline exceeded");
    if (!Feasible(winner)) {
      return Status::CompilationFailed(
          "no complete physical plan under this rule configuration");
    }
    CompiledPlan plan;
    plan.est_cost = WinnerAt(winner).cost;
    extracted_.resize(winners_.size());
    plan.root = ExtractPlan(winner, &plan.signature);
    for (int rule_id : family_.normalization_rules) plan.signature.Set(rule_id);
    AttributeMarkerRules(plan.root, &plan.signature);
    plan.est_output_rows = GroupStats(family_.root).rows;
    plan.memo_groups = memo_.num_groups();
    plan.memo_exprs = first_proposal_ + num_landed_;
    return plan;
  }

  /// Hands the statistics this compile derived to `family`, the family it
  /// built and searched, before the family is stored.
  void MoveStatsInto(Family* family) {
    for (size_t g = 0; g < group_state_.size(); ++g) {
      if (group_state_[g].stats_ready) family->stats[g] = std::move(group_state_[g].stats);
    }
  }

 private:
  /// Lands the proposals of the enabled rules, in table order: a proposal
  /// lands unless an earlier landed one is the same expression. That is
  /// what Memo::AddExpr would keep of a fresh implementation under this
  /// configuration, so the expressions the search reads, their order and
  /// memo_exprs are the same.
  void Land() {
    landed_.assign(static_cast<size_t>(memo_.num_exprs() - first_proposal_), 0);
    for (ExprId id = first_proposal_; id < memo_.num_exprs(); ++id) {
      const GroupExpr& proposal = memo_.expr(id);
      if (!config_.IsEnabled(proposal.rule_id)) continue;
      const ExprId same = proposal.same_as == kInvalidExpr ? id : proposal.same_as;
      uint8_t& taken = landed_[static_cast<size_t>(same - first_proposal_)];
      if ((taken & kSameLanded) != 0) continue;
      taken |= kSameLanded;
      landed_[static_cast<size_t>(id - first_proposal_)] |= kLanded;
      ++num_landed_;
    }
  }

  /// True for the physical expressions the search reads: the proposals
  /// that landed, and any physical expression of the input plan.
  bool Landed(ExprId id) const {
    if (id >= first_proposal_) {
      return (landed_[static_cast<size_t>(id - first_proposal_)] & kLanded) != 0;
    }
    return !memo_.expr(id).is_logical;
  }

  // ---------------------------------------------------------------------
  // Logical statistics (estimated view, representative expression)
  // ---------------------------------------------------------------------

  /// The family's statistics for the group when the compile that explored
  /// it derived them; otherwise derived once into this compile's table.
  const LogicalStats& GroupStats(GroupId gid) {
    const std::optional<LogicalStats>& shared = family_.stats[static_cast<size_t>(gid)];
    if (shared.has_value()) return *shared;
    GroupSearch& state = group_state_[static_cast<size_t>(gid)];
    if (state.stats_ready) return state.stats;
    ExprId repr = memo_.group(gid).representative;
    if (repr != kInvalidExpr) {
      const GroupExpr& expr = memo_.expr(repr);
      // Children first, so the shared input vector is filled after every
      // nested derivation has returned.
      for (GroupId c : expr.children) GroupStats(c);
      stats_input_.clear();
      for (GroupId c : expr.children) stats_input_.push_back(&GroupStats(c));
      state.stats = DeriveStats(expr.op, stats_input_, est_view_);
    }
    state.stats_ready = true;
    return state.stats;
  }

  // ---------------------------------------------------------------------
  // Cost-based optimization with property enforcement
  // ---------------------------------------------------------------------

  /// DOP candidates for an operator processing ~`bytes` of data.
  SmallVector<int, 2> DopCandidates(double bytes, int required_dop) const {
    if (required_dop > 0) return {required_dop};
    int work = static_cast<int>(
        std::clamp(bytes / kBytesPerVertex, 1.0, static_cast<double>(kMaxDop)));
    SmallVector<int, 2> out = {work};
    int doubled = std::min(work * 2, kMaxDop);
    if (doubled != work) out.push_back(doubled);
    return out;
  }

  /// True when an operator's key columns equal a property's, in order.
  static bool SameKeys(const PropKeys& prop, const std::vector<ColumnId>& keys) {
    return std::equal(prop.begin(), prop.end(), keys.begin(), keys.end());
  }

  /// True when the property request can be delegated through a pipelined
  /// operator to a child with these output columns.
  static bool RequestCoveredBy(const PhysProp& req, const std::vector<ColumnId>& cols) {
    for (ColumnId c : req.part_keys) {
      if (!std::binary_search(cols.begin(), cols.end(), c)) return false;
    }
    for (ColumnId c : req.sort_keys) {
      if (!std::binary_search(cols.begin(), cols.end(), c)) return false;
    }
    return true;
  }

  /// Adds exchange/sort enforcers so `delivered` satisfies `required`.
  /// Returns the added cost and records the enforcers placed in `exchange`
  /// and `sort` (both start absent). Costs them through the reused
  /// exchange_op_/sort_op_, which differ from a fresh Operator only in the
  /// fields set here.
  double ApplyEnforcers(const PhysProp& required, const LogicalStats& stats,
                        PhysProp* delivered, Enforcer* exchange, Enforcer* sort) {
    double extra = 0.0;
    enforcer_input_[0] = &stats;
    if (!required.SatisfiedBy(*delivered)) {
      switch (required.scheme) {
        case PartScheme::kHash:
          if (delivered->scheme != PartScheme::kHash ||
              delivered->part_keys != required.part_keys ||
              (required.dop != 0 && delivered->dop != required.dop)) {
            exchange->present = true;
            exchange->exchange = ExchangeKind::kRepartition;
            exchange->keys = required.part_keys;
            exchange->dop = required.dop > 0 ? required.dop : std::max(1, delivered->dop);
            delivered->scheme = PartScheme::kHash;
            delivered->part_keys = required.part_keys;
            delivered->dop = exchange->dop;
            delivered->sort_keys.clear();  // repartition destroys order
          }
          break;
        case PartScheme::kSingleton:
          if (delivered->scheme != PartScheme::kSingleton) {
            exchange->present = true;
            exchange->exchange = ExchangeKind::kGather;
            exchange->dop = 1;
            delivered->scheme = PartScheme::kSingleton;
            delivered->part_keys.clear();
            delivered->dop = 1;
            // Merging gather preserves an existing order.
          }
          break;
        case PartScheme::kBroadcast:
          if (delivered->scheme != PartScheme::kBroadcast ||
              (required.dop != 0 && delivered->dop != required.dop)) {
            exchange->present = true;
            exchange->exchange = ExchangeKind::kBroadcast;
            exchange->dop = required.dop > 0 ? required.dop : std::max(1, delivered->dop);
            delivered->scheme = PartScheme::kBroadcast;
            delivered->part_keys.clear();
            delivered->dop = exchange->dop;
          }
          break;
        case PartScheme::kAny:
        case PartScheme::kRandom:
          break;
      }
      if (exchange->present) {
        exchange_op_.exchange = exchange->exchange;
        exchange_op_.exchange_keys.assign(exchange->keys.begin(), exchange->keys.end());
        exchange_op_.dop = exchange->dop;
        extra += ComputeOpCost(exchange_op_, stats, enforcer_input_, exchange_op_.dop,
                               kCostParams, est_view_)
                     .latency;
      }
    }
    if (!required.SortSatisfiedBy(*delivered)) {
      sort->present = true;
      sort->keys = required.sort_keys;
      sort->dop = std::max(1, delivered->dop);
      sort_op_.sort_keys.assign(sort->keys.begin(), sort->keys.end());
      sort_op_.dop = sort->dop;
      extra += ComputeOpCost(sort_op_, stats, enforcer_input_, sort_op_.dop, kCostParams,
                             est_view_)
                   .latency;
      delivered->sort_keys = required.sort_keys;
    }
    return extra;
  }

  struct Option {
    std::vector<PhysProp> child_requests;
    PhysProp delivered;
    int dop = 1;
    /// Pipelined: delivered/dop follow the first child's winner.
    bool inherit_from_child = false;
    /// Strip sort from the inherited delivered property.
    bool clears_sort = false;
  };

  /// Scratch of one OptimizeGroup call: its options, and the child
  /// statistics and child winners of the option being costed. Every call at
  /// the same recursion depth reuses one frame, and frames_ never moves a
  /// frame, so a call keeps its frame across nested calls and the options
  /// keep their child_requests' capacity from one call to the next.
  struct SearchFrame {
    std::vector<Option> options;
    size_t num_options = 0;
    std::vector<const LogicalStats*> child_stats;
    SmallVector<int, 2> child_winners;
  };

  /// Appends a default option to the frame, reusing a previous one's storage.
  static Option& NewOption(SearchFrame* frame) {
    if (frame->num_options == frame->options.size()) frame->options.emplace_back();
    Option& o = frame->options[frame->num_options++];
    o.child_requests.clear();
    o.delivered = PhysProp::Any();
    o.dop = 1;
    o.inherit_from_child = false;
    o.clears_sort = false;
    return o;
  }

  /// Enumerates implementation options (child property requests + delivered
  /// property) for a physical expression under a required property.
  void EnumerateOptions(const GroupExpr& expr, const PhysProp& required, SearchFrame* frame) {
    const Operator& op = expr.op;
    const LogicalStats& stats = GroupStats(expr.group);
    frame->num_options = 0;
    switch (op.kind) {
      case OpKind::kRangeScan: {
        double bytes = stats.Bytes();
        for (int dop : DopCandidates(bytes, 0)) {
          Option& o = NewOption(frame);
          o.delivered.scheme = PartScheme::kRandom;
          o.delivered.dop = dop;
          o.dop = dop;
        }
        break;
      }
      case OpKind::kFilter:
      case OpKind::kCompute:
      case OpKind::kProcessVertex:
      case OpKind::kSampleScan: {
        Option& o = NewOption(frame);
        o.inherit_from_child = true;
        const std::vector<ColumnId>& child_cols =
            memo_.group(expr.children[0]).output_columns;
        o.child_requests.push_back(RequestCoveredBy(required, child_cols) ? required
                                                                          : PhysProp::Any());
        break;
      }
      case OpKind::kPreHashAgg: {
        Option& o = NewOption(frame);
        o.inherit_from_child = true;
        o.clears_sort = true;
        PhysProp down = required;
        down.sort_keys.clear();
        const std::vector<ColumnId>& child_cols =
            memo_.group(expr.children[0]).output_columns;
        o.child_requests.push_back(RequestCoveredBy(down, child_cols) ? down
                                                                      : PhysProp::Any());
        break;
      }
      case OpKind::kTopNSort:
      case OpKind::kTopNHeap: {
        Option& o = NewOption(frame);
        o.child_requests.push_back(PhysProp::Singleton());
        o.delivered = PhysProp::Singleton();
        if (op.kind == OpKind::kTopNSort) o.delivered.sort_keys = op.sort_keys;
        o.dop = 1;
        break;
      }
      case OpKind::kHashJoin: {
        const LogicalStats& left = GroupStats(expr.children[0]);
        const LogicalStats& right = GroupStats(expr.children[1]);
        double bytes = left.Bytes() + right.Bytes();
        int req_dop = (required.scheme == PartScheme::kHash &&
                       SameKeys(required.part_keys, op.left_keys))
                          ? required.dop
                          : 0;
        for (int dop : DopCandidates(bytes, req_dop)) {
          Option& o = NewOption(frame);
          o.child_requests.push_back(PhysProp::Hash(op.left_keys, dop));
          o.child_requests.push_back(PhysProp::Hash(op.right_keys, dop));
          o.delivered = PhysProp::Hash(op.left_keys, dop);
          o.dop = dop;
        }
        break;
      }
      case OpKind::kBroadcastHashJoin: {
        // Probe keeps its own distribution; the build side is broadcast to
        // the probe's parallelism. The probe's dop is resolved by a
        // two-phase walk in OptimizeGroup (kResolveBroadcast marker below).
        Option& o = NewOption(frame);
        o.inherit_from_child = true;  // probe is child 0 in cost and plan
        o.clears_sort = true;
        o.child_requests.push_back(PhysProp::Any());
        o.child_requests.push_back(PhysProp::Broadcast(0));  // dop patched later
        break;
      }
      case OpKind::kMergeJoin: {
        const LogicalStats& left = GroupStats(expr.children[0]);
        const LogicalStats& right = GroupStats(expr.children[1]);
        double bytes = left.Bytes() + right.Bytes();
        int req_dop = (required.scheme == PartScheme::kHash &&
                       SameKeys(required.part_keys, op.left_keys))
                          ? required.dop
                          : 0;
        for (int dop : DopCandidates(bytes, req_dop)) {
          Option& o = NewOption(frame);
          PhysProp l = PhysProp::Hash(op.left_keys, dop);
          l.sort_keys = op.left_keys;
          PhysProp r = PhysProp::Hash(op.right_keys, dop);
          r.sort_keys = op.right_keys;
          o.child_requests = {std::move(l), std::move(r)};
          o.delivered = PhysProp::Hash(op.left_keys, dop);
          o.delivered.sort_keys = op.left_keys;
          o.dop = dop;
        }
        break;
      }
      case OpKind::kLoopJoin: {
        Option& o = NewOption(frame);
        o.child_requests = {PhysProp::Singleton(), PhysProp::Singleton()};
        o.delivered = PhysProp::Singleton();
        o.dop = 1;
        break;
      }
      case OpKind::kIndexApplyJoin: {
        Option& o = NewOption(frame);
        o.inherit_from_child = true;
        o.clears_sort = true;
        o.child_requests.push_back(PhysProp::Any());
        break;
      }
      case OpKind::kHashAgg:
      case OpKind::kStreamAgg: {
        const LogicalStats& child = GroupStats(expr.children[0]);
        if (op.group_keys.empty()) {
          Option& o = NewOption(frame);
          PhysProp req = PhysProp::Singleton();
          if (op.kind == OpKind::kStreamAgg) req.sort_keys = op.group_keys;
          o.child_requests.push_back(std::move(req));
          o.delivered = PhysProp::Singleton();
          o.dop = 1;
          break;
        }
        int req_dop = (required.scheme == PartScheme::kHash &&
                       SameKeys(required.part_keys, op.group_keys))
                          ? required.dop
                          : 0;
        for (int dop : DopCandidates(child.Bytes(), req_dop)) {
          Option& o = NewOption(frame);
          PhysProp req = PhysProp::Hash(op.group_keys, dop);
          if (op.kind == OpKind::kStreamAgg) req.sort_keys = op.group_keys;
          o.child_requests.push_back(std::move(req));
          o.delivered = PhysProp::Hash(op.group_keys, dop);
          if (op.kind == OpKind::kStreamAgg) o.delivered.sort_keys = op.group_keys;
          o.dop = dop;
        }
        break;
      }
      case OpKind::kPhysicalUnionAll: {
        const LogicalStats& stats_out = GroupStats(expr.group);
        for (int dop : DopCandidates(stats_out.Bytes(), 0)) {
          Option& o = NewOption(frame);
          o.child_requests.assign(expr.children.size(), PhysProp::Any());
          o.delivered.scheme = PartScheme::kRandom;
          o.delivered.dop = dop;
          o.dop = dop;
        }
        break;
      }
      case OpKind::kVirtualDataset: {
        Option& o = NewOption(frame);
        o.child_requests.assign(expr.children.size(), PhysProp::Any());
        o.delivered.scheme = PartScheme::kRandom;
        o.delivered.dop = 0;  // resolved to the sum of child dops
        o.dop = 0;
        break;
      }
      case OpKind::kSortedUnionAll: {
        Option& o = NewOption(frame);
        o.child_requests.assign(expr.children.size(), PhysProp::Singleton());
        o.delivered = PhysProp::Singleton();
        o.dop = 1;
        break;
      }
      case OpKind::kWindowSegment: {
        const LogicalStats& child = GroupStats(expr.children[0]);
        for (int dop : DopCandidates(child.Bytes(), 0)) {
          Option& o = NewOption(frame);
          PhysProp req = PhysProp::Hash(op.window_keys, dop);
          req.sort_keys = op.window_keys;
          o.child_requests.push_back(std::move(req));
          o.delivered = PhysProp::Hash(op.window_keys, dop);
          o.delivered.sort_keys = op.window_keys;
          o.dop = dop;
        }
        break;
      }
      case OpKind::kOutputWriter: {
        Option& o = NewOption(frame);
        o.inherit_from_child = true;
        o.child_requests.push_back(PhysProp::Any());
        break;
      }
      default:
        break;
    }
  }

  const Winner& WinnerAt(int index) const { return winners_[static_cast<size_t>(index)]; }

  /// False for kNoWinner, for the placeholder of a request still being
  /// optimized further up the recursion, and for a request nothing satisfies.
  bool Feasible(int index) const { return index != kNoWinner && WinnerAt(index).valid; }

  /// The winner-table index for the request with `key` in group `gid`, or
  /// kNoWinner.
  int FindWinner(GroupId gid, uint64_t key) const {
    for (const WinnerSlot& slot : group_state_[static_cast<size_t>(gid)].winners) {
      if (slot.key == key) return slot.index;
    }
    return kNoWinner;
  }

  /// Returns the index of the best implementation of `gid` under
  /// `required` in winners_, or kNoWinner when the compile was aborted.
  /// Nested calls grow winners_, so callers hold indices, never references,
  /// across them.
  int OptimizeGroup(GroupId gid, const PhysProp& required) {
    if (deadline_->Expired()) return kNoWinner;
    const uint64_t key = required.Key();
    const int found = FindWinner(gid, key);
    if (found != kNoWinner) return found;
    // Insert an invalid placeholder to terminate accidental recursion.
    const int index = static_cast<int>(winners_.size());
    winners_.emplace_back();
    group_state_[static_cast<size_t>(gid)].winners.push_back({key, index});

    if (depth_ == frames_.size()) frames_.emplace_back();
    SearchFrame& frame = frames_[depth_++];
    Winner best;
    const LogicalStats& stats = GroupStats(gid);

    // The family is immutable, so the group's expression list and every
    // GroupExpr stay put across the nested calls.
    for (ExprId eid : memo_.group(gid).exprs) {
      if (!Landed(eid)) continue;
      const GroupExpr& expr = memo_.expr(eid);
      EnumerateOptions(expr, required, &frame);
      for (size_t o = 0; o < frame.num_options; ++o) {
        Option& opt = frame.options[o];
        // Defensive: an option must request exactly one property per child.
        if (opt.child_requests.size() != expr.children.size()) continue;
        double cost = 0.0;
        std::vector<PhysProp>& child_reqs = opt.child_requests;
        std::vector<const LogicalStats*>& child_stats = frame.child_stats;
        SmallVector<int, 2>& child_winners = frame.child_winners;
        child_stats.clear();
        child_winners.clear();
        bool feasible = true;

        // Two-phase resolution for broadcast joins: probe first, then the
        // build side at the probe's parallelism.
        if (expr.op.kind == OpKind::kBroadcastHashJoin) {
          const int probe = OptimizeGroup(expr.children[0], child_reqs[0]);
          if (!Feasible(probe)) continue;
          int probe_dop = std::max(1, WinnerAt(probe).delivered.dop);
          child_reqs[1].dop = probe_dop;
          const int build = OptimizeGroup(expr.children[1], child_reqs[1]);
          if (!Feasible(build)) continue;
          // Read the probe winner only now: when probe and build are one
          // group, the build call grew winners_.
          const Winner& probe_winner = WinnerAt(probe);
          cost = probe_winner.cost + WinnerAt(build).cost;
          child_stats = {&GroupStats(expr.children[0]), &GroupStats(expr.children[1])};
          child_winners = {probe, build};
          opt.delivered = probe_winner.delivered;
          opt.delivered.sort_keys.clear();
          opt.dop = probe_dop;
        } else {
          for (size_t i = 0; i < expr.children.size(); ++i) {
            const int child = OptimizeGroup(expr.children[i], child_reqs[i]);
            if (!Feasible(child)) {
              feasible = false;
              break;
            }
            const Winner& child_winner = WinnerAt(child);
            cost += child_winner.cost;
            child_stats.push_back(&GroupStats(expr.children[i]));
            child_winners.push_back(child);
            if (i == 0 && opt.inherit_from_child) {
              opt.delivered = child_winner.delivered;
              if (opt.clears_sort) opt.delivered.sort_keys.clear();
              opt.dop = std::max(1, child_winner.delivered.dop);
            }
          }
          if (!feasible) continue;
          if (expr.op.kind == OpKind::kVirtualDataset) {
            // Delivered parallelism is the union of all source partitions.
            int total = 0;
            for (int child : child_winners) total += std::max(1, WinnerAt(child).delivered.dop);
            opt.delivered.dop = std::min(total, kMaxDop * 2);
            opt.dop = opt.delivered.dop;
          }
        }

        OpCost local = ComputeOpCost(expr.op, stats, child_stats, std::max(1, opt.dop),
                                     kCostParams, est_view_);
        cost += local.latency;

        PhysProp delivered = opt.delivered;
        Enforcer exchange;
        Enforcer sort;
        cost += ApplyEnforcers(required, stats, &delivered, &exchange, &sort);
        if (!required.SatisfiedBy(delivered)) continue;  // unsatisfiable request

        if (!best.valid || cost < best.cost) {
          best.valid = true;
          best.cost = cost;
          best.expr = eid;
          best.dop = std::max(1, opt.dop);
          best.child_winners = child_winners;
          best.delivered = delivered;
          best.exchange = exchange;
          best.sort = sort;
        }
      }
    }

    --depth_;
    winners_[static_cast<size_t>(index)] = std::move(best);
    return index;
  }

  // ---------------------------------------------------------------------
  // Plan extraction + signature logging
  // ---------------------------------------------------------------------

  /// The physical plan of a feasible winner, built once per winner: a
  /// subplan two parents share is one node.
  PlanNodePtr ExtractPlan(int index, RuleSignature* signature) {
    PlanNodePtr& extracted = extracted_[static_cast<size_t>(index)];
    if (extracted != nullptr) return extracted;
    // Extraction only reads winners_, so this reference outlives the
    // recursion below.
    const Winner& winner = WinnerAt(index);
    const GroupExpr& expr = memo_.expr(winner.expr);

    // Provenance: the implementation rule + the rewrite lineage of the
    // logical expression it implemented.
    std::vector<int> rule_ids;
    memo_.CollectProvenance(winner.expr, &rule_ids);
    for (int id : rule_ids) signature->Set(id);

    std::vector<PlanNodePtr> children;
    children.reserve(winner.child_winners.size());
    for (int child : winner.child_winners) children.push_back(ExtractPlan(child, signature));
    Operator op = expr.op;
    op.dop = winner.dop;
    PlanNodePtr node = PlanNode::Make(std::move(op), std::move(children));

    if (winner.exchange.present) {
      switch (winner.exchange.exchange) {
        case ExchangeKind::kRepartition:
          signature->Set(rules::kEnforceExchange);
          break;
        case ExchangeKind::kGather:
          signature->Set(rules::kEnforceGather);
          break;
        case ExchangeKind::kBroadcast:
          signature->Set(rules::kEnforceBroadcast);
          break;
      }
      Operator exchange;
      exchange.kind = OpKind::kExchange;
      exchange.exchange = winner.exchange.exchange;
      exchange.exchange_keys.assign(winner.exchange.keys.begin(), winner.exchange.keys.end());
      exchange.dop = winner.exchange.dop;
      node = PlanNode::Make(std::move(exchange), {std::move(node)});
    }
    if (winner.sort.present) {
      signature->Set(rules::kEnforceSort);
      Operator sort;
      sort.kind = OpKind::kSort;
      sort.sort_keys.assign(winner.sort.keys.begin(), winner.sort.keys.end());
      sort.dop = winner.sort.dop;
      node = PlanNode::Make(std::move(sort), {std::move(node)});
    }
    extracted = node;
    return node;
  }

  const RuleConfig& config_;
  Deadline* deadline_;
  const Family& family_;
  const Memo& memo_;
  const ExprId first_proposal_;
  EstimatedStatsView est_view_;

  /// Indexed by proposal (id - first_proposal_).
  static constexpr uint8_t kLanded = 1;
  /// Set on the first proposal of a kind once one of its kind has landed.
  static constexpr uint8_t kSameLanded = 2;
  std::vector<uint8_t> landed_;
  int num_landed_ = 0;

  // Search state. Sized once the proposals have landed; see Run.
  /// A group's winner for one request: the request's PhysProp::Key() and
  /// the winner's index in winners_.
  struct WinnerSlot {
    uint64_t key;
    int index;
  };
  struct GroupSearch {
    bool stats_ready = false;
    LogicalStats stats;
    SmallVector<WinnerSlot, 2> winners;
  };
  static constexpr int kNoWinner = -1;
  /// Indexed by GroupId.
  std::vector<GroupSearch> group_state_;
  std::vector<Winner> winners_;
  std::deque<SearchFrame> frames_;
  size_t depth_ = 0;
  /// Enforcer operators and their one-element input, reused by
  /// ApplyEnforcers for costing.
  Operator exchange_op_;
  Operator sort_op_;
  std::vector<const LogicalStats*> enforcer_input_ = {nullptr};
  /// Child statistics handed to DeriveStats by GroupStats.
  std::vector<const LogicalStats*> stats_input_;

  /// Indexed by winner; sized once the search returns.
  std::vector<PlanNodePtr> extracted_;
};

}  // namespace

BitVector256 CompileSession::ExplorationKey(const RuleConfig& config) {
  return config.bits().And(RuleRegistry::Instance().exploration_rules());
}

CompileSession CompileSession::Fork() const {
  CompileSession fork;
  fork.family_ = family_;
  return fork;
}

std::shared_ptr<const CompileSession::Family> CompileSession::Find(const BitVector256& key) {
  if (family_ == nullptr || family_->key != key) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return family_;
}

void CompileSession::Store(std::shared_ptr<const Family> family) {
  family_ = std::move(family);
}

RuleConfig ProductionConfig(const Job& job) {
  RuleConfig config = RuleConfig::Default();
  for (int id : job.customer_hints) config.Enable(id);
  return config;
}

Optimizer::Optimizer(const Catalog* catalog, OptimizerOptions options)
    : catalog_(catalog), options_(options) {}

Result<CompiledPlan> Optimizer::Compile(const Job& job, const RuleConfig& config,
                                        const CompileControl& control,
                                        CompileSession* session) const {
  if (job.root == nullptr || job.root->op.kind != OpKind::kOutput) {
    return Status::InvalidArgument("job root must be an Output operator");
  }
  Deadline deadline(control);
  const BitVector256 key =
      session != nullptr ? CompileSession::ExplorationKey(config) : BitVector256();
  std::shared_ptr<const Family> family = session != nullptr ? session->Find(key) : nullptr;
  std::shared_ptr<Family> built;
  if (family == nullptr) {
    built = std::make_shared<Family>();
    built->key = key;
    built->universe = ColumnUniverse(job.columns);
    if (!FamilyExplorer(options_, config, &deadline, built.get())
             .Build(job, /*every_rule=*/session != nullptr)) {
      return Status::DeadlineExceeded("compile deadline exceeded");
    }
    family = built;
  }
  CompileState state(*this, job, config, *family, &deadline);
  Result<CompiledPlan> plan = state.Run();
  if (session != nullptr && built != nullptr) {
    state.MoveStatsInto(built.get());
    session->Store(std::move(built));
  }
  return plan;
}

}  // namespace qsteer
