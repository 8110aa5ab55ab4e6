// The Cascades-style optimizer driver: exploration (transformation rules to
// fixpoint under budgets), implementation (logical -> physical), and
// cost-based extraction with property enforcement — the SCOPE-like query
// optimizer the steering pipeline operates on.
//
// Compile(job, rule_config) returns the chosen physical plan, its estimated
// cost, and the job's *rule signature* under that configuration — the three
// surfaces the paper's method needs.
#ifndef QSTEER_OPTIMIZER_OPTIMIZER_H_
#define QSTEER_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/memo.h"
#include "optimizer/rule_config.h"
#include "optimizer/rule_registry.h"
#include "optimizer/stats.h"
#include "plan/job.h"

namespace qsteer {

struct OptimizerOptions {
  /// Exploration budgets (SCOPE-style caps keep huge DAG jobs tractable).
  int max_exprs_per_group = 12;
  int max_total_exprs = 4000;
};

/// Result of one compilation.
struct CompiledPlan {
  PlanNodePtr root;  // physical plan (DAG; shared fragments are shared)
  double est_cost = 0.0;
  RuleSignature signature;
  double est_output_rows = 0.0;
  int memo_groups = 0;
  int memo_exprs = 0;
};

/// The configuration a job runs with in production: the default plus the
/// customer's rule hints (§3.3).
RuleConfig ProductionConfig(const Job& job);

/// Compile-time budget: a wall-clock deadline, polled between memo
/// operations, so a pathological exploration (huge DAG under an adversarial
/// configuration) returns kDeadlineExceeded instead of hanging the caller.
/// Default-constructed control imposes no budget.
struct CompileControl {
  /// Wall-clock compile budget in seconds; <= 0 means unlimited. Note a
  /// wall-clock budget is inherently nondeterministic under load — use it in
  /// services, not in bit-reproducibility tests.
  double timeout_s = 0.0;
};

/// Shares one exploration family across consecutive compiles of one job
/// (span probes, the default compile, candidate recompiles). Input
/// normalization and exploration read only the configuration's bits outside
/// every implementation-rule list (RuleRegistry::exploration_rules), so
/// configurations that differ only in implementation rules explore the same
/// memo. What implementation adds to it does not depend on the
/// configuration either, beyond which rules are enabled: each
/// implementation rule proposes at most one physical node over existing
/// groups, mints no column and reads only logical expressions. So the
/// compile that explores also applies every implementation rule once, into
/// the family's proposal table, and a later compile whose exploration bits
/// equal the family's key lands the proposals of its enabled rules and goes
/// straight to the cost search. The key is the masked bit vector itself,
/// compared whole.
///
/// One slot, not a map: the pipeline compiles a job's candidates in runs of
/// equal bits, one run per session, so the previous family is the one the
/// next compile can use, and memory stays at one family per session.
///
/// Not thread-safe: a session serves one compile at a time. To compile in
/// parallel, give each worker a Fork; forks share the stored family, which
/// is immutable once stored, so they read it concurrently without a lock. A
/// session must only ever see one job and one Optimizer.
class CompileSession {
 public:
  /// An exploration family: everything a compile under one exploration key
  /// reads. The compile that explores builds it; once stored it is only
  /// read.
  struct Family {
    BitVector256 key;
    /// The memo after input normalization and exploration, followed by the
    /// proposal table (ids from memo.first_proposal() on): every
    /// implementation rule applied once to every logical expression, in
    /// (ExprId, registry) order. A compile's search reads the proposals
    /// that land under its configuration (see Memo::AddProposal).
    Memo memo;
    GroupId root = kInvalidGroup;
    std::vector<int> normalization_rules;
    /// The column overlay, holding the columns exploration minted.
    ColumnUniverse universe;
    /// Indexed by GroupId: the statistics the building compile's search
    /// derived, empty for the groups it never reached. A group's statistics
    /// come from its representative logical expression and the overlay
    /// only, so every compile of the family would derive the same.
    std::vector<std::optional<LogicalStats>> stats;
  };

  /// The configuration's exploration bits: its bits restricted to
  /// RuleRegistry::exploration_rules().
  static BitVector256 ExplorationKey(const RuleConfig& config);

  /// A session that starts from this one's stored family, with zero counts.
  CompileSession Fork() const;

  /// The stored family when its key equals `key` (a hit), else null (a
  /// miss).
  std::shared_ptr<const Family> Find(const BitVector256& key);
  /// Replaces the stored family.
  void Store(std::shared_ptr<const Family> family);

  /// Compiles that reused the stored family, and compiles that explored.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  std::shared_ptr<const Family> family_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Thread-safety: an Optimizer is immutable after construction, and Compile
/// is reentrant — concurrent Compile calls on one `const Optimizer` (same or
/// different jobs, same or different configs) are data-race-free. All
/// mutable per-compilation state (the family being built, derived-stats
/// cache, extraction cache, column-universe overlay) lives in a per-call
/// context on the calling thread; the Catalog, the job's root
/// ColumnUniverse and a stored family are only read. The parallel steering pipeline
/// (core/pipeline.h) relies on this to fan candidate recompilations out
/// over a thread pool. See DESIGN.md "Threading model".
class Optimizer {
 public:
  explicit Optimizer(const Catalog* catalog, OptimizerOptions options = {});

  /// Compiles a job under a rule configuration. Fails with
  /// kCompilationFailed when the enabled implementation rules cannot cover
  /// some operator (the paper's "many configurations do not compile"), and
  /// with kDeadlineExceeded when `control`'s wall-clock budget expires
  /// before optimization finishes (checked between memo operations; a
  /// compilation never hangs on pathological memo growth).
  ///
  /// `session` (may be null) shares exploration across the compiles of one
  /// job: when the family it stored last has this configuration's
  /// exploration bits, the compile reads that family and skips
  /// normalization, insertion, exploration and implementation. Otherwise it
  /// builds a family, and stores it in `session` once exploration and
  /// implementation completed under the deadline. Without a session the
  /// compile builds a family of one, holding only its enabled rules'
  /// proposals. The result is bit-identical either way. Concurrent compiles
  /// need distinct sessions (CompileSession::Fork).
  ///
  /// Safe to call concurrently from multiple threads (see class comment).
  /// Deterministic: the same (job, config) yields a bit-identical plan no
  /// matter which thread runs it or what other compilations run in
  /// parallel. Rule-minted column ids restart at job.columns->size() for
  /// every call, so the returned plan must be interpreted against
  /// job.columns (ids beyond its size resolve to the canonical derived-
  /// column descriptor — plan/column.h).
  Result<CompiledPlan> Compile(const Job& job, const RuleConfig& config,
                               const CompileControl& control = {},
                               CompileSession* session = nullptr) const;

  const Catalog* catalog() const { return catalog_; }

 private:
  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_OPTIMIZER_H_
