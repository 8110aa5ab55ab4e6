// Randomized configuration search (paper §5.2).
//
// Candidates are generated from the job span under the category-independence
// assumption: every rule outside the span stays enabled (including
// off-by-default rules — footnote 2: rules missed by the span heuristic can
// still matter), and within each category an independent random subset of
// the span is disabled.
#ifndef QSTEER_CORE_CONFIG_SEARCH_H_
#define QSTEER_CORE_CONFIG_SEARCH_H_

#include <vector>

#include "common/thread_pool.h"
#include "optimizer/rule_config.h"

namespace qsteer {

/// Attempt budget per candidate before giving up on uniqueness.
inline constexpr int kMaxAttemptsFactor = 8;

struct ConfigSearchOptions {
  /// M: number of unique candidate configurations to generate (§5 uses up
  /// to 1000 per job).
  int max_configs = 1000;
  uint64_t seed = 1;
  /// When false, ignore category structure and sample uniformly from the
  /// whole span (the §5.2 ablation baseline).
  bool per_category = true;
};

/// Where the attempt budget of one GenerateCandidateConfigs call went.
struct CandidateGenerationStats {
  /// Configurations emitted.
  int generated = 0;
  /// Draws discarded because another emitted configuration (or the default)
  /// already had the same span projection — span-equivalent candidates would
  /// compile to the identical plan (paper §4), so they are pruned here and
  /// never reach the compile cache.
  int span_duplicates_pruned = 0;
  /// Draws that repeated an earlier draw bit-for-bit (RNG re-draws).
  int repeated_draws = 0;
};

/// Generates up to `options.max_configs` candidate configurations for a job
/// with the given span, unique *by span projection*: no two emitted
/// configurations agree on every span rule, and none matches the default's
/// projection (span-equivalent duplicates would recompile to the default
/// plan — wasted work). `stats`, when non-null, reports the dedup breakdown.
std::vector<RuleConfig> GenerateCandidateConfigs(const BitVector256& span,
                                                 const ConfigSearchOptions& options,
                                                 CandidateGenerationStats* stats = nullptr);

/// Batch variant for workload-scale discovery: generates the candidate set
/// of every (span, options) pair, fanned out over `pool` (serial when pool
/// is null). out[i] equals GenerateCandidateConfigs(spans[i], options[i]) —
/// each pair draws from its own seeded generator, so results do not depend
/// on batch order or worker count. `spans` and `options` must be the same
/// length.
std::vector<std::vector<RuleConfig>> GenerateCandidateConfigsBatch(
    const std::vector<BitVector256>& spans, const std::vector<ConfigSearchOptions>& options,
    ThreadPool* pool = nullptr);

/// Size of the naive search space 2^|span| vs the category-factorized
/// sum of 2^|span ∩ category| (the §5.2 example: 2^5=32 vs 2^2+2^3=12).
/// Returned as log2 values to avoid overflow.
struct SearchSpaceSize {
  double log2_naive = 0.0;
  double log2_factorized = 0.0;
};
SearchSpaceSize ComputeSearchSpaceSize(const BitVector256& span);

}  // namespace qsteer

#endif  // QSTEER_CORE_CONFIG_SEARCH_H_
