#include "core/config_search.h"

#include <cmath>
#include <unordered_set>

#include "common/random.h"

namespace qsteer {

std::vector<RuleConfig> GenerateCandidateConfigs(const BitVector256& span,
                                                 const ConfigSearchOptions& options,
                                                 CandidateGenerationStats* stats) {
  CandidateGenerationStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = CandidateGenerationStats{};
  std::vector<RuleConfig> out;
  std::vector<int> span_ids = span.ToIndices();
  if (span_ids.empty()) return out;

  // Per-category views of the span.
  std::vector<std::vector<int>> by_category(4);
  for (int id : span_ids) {
    by_category[static_cast<int>(CategoryOfRule(id))].push_back(id);
  }

  Pcg32 rng(options.seed, /*stream=*/211);
  // Uniqueness is decided on the *span projection* (bits ∩ span): two
  // configurations that agree on every span rule compile to the same plan
  // (paper §4), so the weaker one is pure recompilation waste. Seeding with
  // the default's projection also prunes candidates that merely re-derive
  // the default plan. Full hashes are tracked separately only to tell RNG
  // re-draws apart from genuine span-equivalence in the stats.
  std::unordered_set<uint64_t> seen_projected;
  std::unordered_set<uint64_t> seen_full;
  seen_projected.insert(RuleConfig::Default().bits().And(span).Hash());

  int attempts_budget = options.max_configs * kMaxAttemptsFactor;
  while (static_cast<int>(out.size()) < options.max_configs && attempts_budget-- > 0) {
    // Start from everything enabled: rules outside the span cannot change
    // the plan if truly inapplicable, and keeping them on covers rules the
    // span heuristic missed.
    RuleConfig config = RuleConfig::AllEnabled();
    if (options.per_category) {
      // Independently per category, disable a random subset of the span.
      for (const std::vector<int>& ids : by_category) {
        if (ids.empty()) continue;
        int k = static_cast<int>(rng.UniformInt(0, static_cast<int>(ids.size())));
        for (int idx : rng.SampleWithoutReplacement(static_cast<int>(ids.size()), k)) {
          config.Disable(ids[static_cast<size_t>(idx)]);
        }
      }
    } else {
      int k = static_cast<int>(rng.UniformInt(0, static_cast<int>(span_ids.size())));
      for (int idx : rng.SampleWithoutReplacement(static_cast<int>(span_ids.size()), k)) {
        config.Disable(span_ids[static_cast<size_t>(idx)]);
      }
    }
    if (!seen_full.insert(config.Hash()).second) {
      ++stats->repeated_draws;
      continue;
    }
    if (!seen_projected.insert(config.bits().And(span).Hash()).second) {
      ++stats->span_duplicates_pruned;
      continue;
    }
    out.push_back(std::move(config));
  }
  stats->generated = static_cast<int>(out.size());
  return out;
}

std::vector<std::vector<RuleConfig>> GenerateCandidateConfigsBatch(
    const std::vector<BitVector256>& spans, const std::vector<ConfigSearchOptions>& options,
    ThreadPool* pool) {
  size_t n = spans.size() < options.size() ? spans.size() : options.size();
  return ParallelMap<std::vector<RuleConfig>>(
      pool, static_cast<int64_t>(n), [&](int64_t i) {
        return GenerateCandidateConfigs(spans[static_cast<size_t>(i)],
                                        options[static_cast<size_t>(i)]);
      });
}

SearchSpaceSize ComputeSearchSpaceSize(const BitVector256& span) {
  SearchSpaceSize size;
  int per_category[4] = {0, 0, 0, 0};
  int total = 0;
  for (int id : span.ToIndices()) {
    ++per_category[static_cast<int>(CategoryOfRule(id))];
    ++total;
  }
  size.log2_naive = static_cast<double>(total);
  double factorized = 0.0;
  for (int c = 0; c < 4; ++c) {
    if (per_category[c] > 0) factorized += std::exp2(static_cast<double>(per_category[c]));
  }
  size.log2_factorized = factorized > 0.0 ? std::log2(factorized) : 0.0;
  return size;
}

}  // namespace qsteer
