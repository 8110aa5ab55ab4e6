#include "core/independence.h"

#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/random.h"

namespace qsteer {

namespace {

/// Union-find over span indices.
class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

IndependenceResult DiscoverIndependentGroups(const Optimizer& optimizer, const Job& job,
                                             const BitVector256& span) {
  IndependenceResult result;
  std::vector<int> span_ids = span.ToIndices();
  if (span_ids.empty()) return result;

  Result<CompiledPlan> base = optimizer.Compile(job, RuleConfig::AllEnabled());
  ++result.compiles_used;
  if (!base.ok()) return result;

  // Footprint of each rule: signature bits changed by toggling it alone,
  // plus the rule itself (so a rule always belongs to its own footprint).
  result.footprints.resize(span_ids.size());
  for (size_t i = 0; i < span_ids.size(); ++i) {
    RuleConfig config = RuleConfig::AllEnabled();
    config.Disable(span_ids[i]);
    Result<CompiledPlan> plan = optimizer.Compile(job, config);
    ++result.compiles_used;
    BitVector256 footprint;
    footprint.Set(span_ids[i]);
    if (plan.ok()) {
      footprint = footprint.Or(base.value().signature.Xor(plan.value().signature));
    } else {
      // A rule whose removal breaks compilation touches everything it could
      // have implemented: treat its footprint as the whole base signature.
      footprint = footprint.Or(base.value().signature);
    }
    result.footprints[i] = footprint;
  }

  // Interaction graph: overlapping footprints -> same group.
  DisjointSets sets(span_ids.size());
  for (size_t i = 0; i < span_ids.size(); ++i) {
    for (size_t j = i + 1; j < span_ids.size(); ++j) {
      if (result.footprints[i].Intersects(result.footprints[j])) sets.Union(i, j);
    }
  }
  std::vector<std::vector<RuleId>> by_root(span_ids.size());
  for (size_t i = 0; i < span_ids.size(); ++i) {
    by_root[sets.Find(i)].push_back(span_ids[i]);
  }
  for (auto& group : by_root) {
    if (!group.empty()) result.groups.push_back(std::move(group));
  }

  result.log2_naive = static_cast<double>(span_ids.size());
  double combos = 0.0;
  for (const auto& group : result.groups) {
    combos += std::exp2(static_cast<double>(group.size()));
  }
  result.log2_grouped = combos > 0.0 ? std::log2(combos) : 0.0;
  return result;
}

std::vector<RuleConfig> GenerateGroupedConfigs(const IndependenceResult& independence,
                                               const ConfigSearchOptions& options) {
  std::vector<RuleConfig> out;
  if (independence.groups.empty()) return out;
  Pcg32 rng(options.seed, /*stream=*/613);
  std::unordered_set<uint64_t> seen = {RuleConfig::Default().Hash()};
  int attempts = options.max_configs * kMaxAttemptsFactor;
  while (static_cast<int>(out.size()) < options.max_configs && attempts-- > 0) {
    RuleConfig config = RuleConfig::AllEnabled();
    for (const std::vector<RuleId>& group : independence.groups) {
      int k = static_cast<int>(rng.UniformInt(0, static_cast<int>(group.size())));
      for (int idx : rng.SampleWithoutReplacement(static_cast<int>(group.size()), k)) {
        config.Disable(group[static_cast<size_t>(idx)]);
      }
    }
    if (seen.insert(config.Hash()).second) out.push_back(std::move(config));
  }
  return out;
}

}  // namespace qsteer
