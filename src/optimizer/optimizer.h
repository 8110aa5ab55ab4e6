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
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
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
  int max_group_alias_copies = 4;

  /// Parallelism search.
  int max_dop = 128;
  double bytes_per_vertex = 2.56e8;  // sizing heuristic: ~256 MB per vertex

  CostParams cost_params = CostParams::OptimizerBeliefs();
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

/// Shares one explored memo across consecutive compiles of one job (span
/// probes, the default compile, candidate recompiles). Input normalization
/// and exploration read only the configuration's bits outside every
/// implementation-rule list (RuleRegistry::exploration_rules), so
/// configurations that differ only in implementation rules explore the
/// same memo. The session keeps the last one explored: a compile whose
/// exploration bits equal the stored key clones it and goes straight to
/// implementation. Memo::Clone preserves every GroupId/ExprId, and the
/// stored column overlay restores the columns exploration minted, so the
/// result is bit-identical to a sessionless compile. The key is the masked
/// bit vector itself, compared whole.
///
/// One slot, not a map: the pipeline compiles a job's candidates in runs of
/// equal bits, one run per session, so the previous exploration is the one
/// the next compile can use, and memory stays at one explored memo per
/// session.
///
/// Not thread-safe: a session serves one compile at a time. To compile in
/// parallel, give each worker a Fork; forks share the stored exploration
/// read-only. A session must only ever see one job and one Optimizer.
class CompileSession {
 public:
  /// The memo after input normalization and exploration, and what the
  /// later phases need from them.
  struct ExploredMemo {
    BitVector256 key;
    Memo memo;
    GroupId root = kInvalidGroup;
    std::vector<int> normalization_rules;
    /// The compile's column overlay, holding the columns exploration minted.
    ColumnUniverse universe;
  };

  /// The configuration's exploration bits: its bits restricted to
  /// RuleRegistry::exploration_rules().
  static BitVector256 ExplorationKey(const RuleConfig& config);

  /// A session that starts from this one's stored exploration, with zero
  /// counts.
  CompileSession Fork() const;

  /// The stored exploration when its key equals `key` (a hit), else null (a
  /// miss).
  std::shared_ptr<const ExploredMemo> Find(const BitVector256& key);
  /// Replaces the stored exploration.
  void Store(std::shared_ptr<const ExploredMemo> explored);

  /// Compiles that reused the stored exploration, and compiles that
  /// explored.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  std::shared_ptr<const ExploredMemo> explored_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Thread-safety: an Optimizer is immutable after construction, and Compile
/// is reentrant — concurrent Compile calls on one `const Optimizer` (same or
/// different jobs, same or different configs) are data-race-free. All
/// mutable per-compilation state (memo, derived-stats cache, extraction
/// cache, rule-provenance log, column-universe overlay) lives in a per-call
/// context on the calling thread; the Catalog and the job's root
/// ColumnUniverse are only read. The parallel steering pipeline
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
  /// job: when the exploration it stored last was made under this
  /// configuration's exploration bits, the compile clones that memo and
  /// skips normalization, insertion and exploration. The result is
  /// bit-identical to a sessionless compile. Concurrent compiles need
  /// distinct sessions (CompileSession::Fork).
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

  const OptimizerOptions& options() const { return options_; }
  const Catalog* catalog() const { return catalog_; }

 private:
  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_OPTIMIZER_H_
