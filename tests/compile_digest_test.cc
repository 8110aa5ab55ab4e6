// Golden compile digest: every observable output of Optimizer::Compile over
// a fixed set of generated A/B/C jobs, folded into one 64-bit value.
//
// Optimizer refactors (rule dispatch, memo ownership, costing plumbing) must
// leave plans, cost bits, signatures and memo ids byte-identical: the
// compile cache, the ranker's training bytes and every determinism test key
// off them. A single digest over a few hundred compiles under the default,
// the all-enabled and seeded random configurations pins that contract in
// one assertion. If a change is *meant* to alter compile output, re-record
// kGoldenDigest from the failure message and say why in the change log.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

constexpr uint64_t kGoldenDigest = 0x0b01e93d52befd7dull;

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every non-required rule independently disabled with probability 0.15:
/// enough disabled implementation rules that some compiles fail, so the
/// failure path is pinned too.
RuleConfig RandomConfig(Pcg32* rng) {
  RuleConfig config = RuleConfig::AllEnabled();
  for (RuleId id = 0; id < kNumRules; ++id) {
    if (rng->NextBool(0.15)) config.Disable(id);
  }
  return config;
}

uint64_t FoldCompile(uint64_t digest, const Result<CompiledPlan>& result) {
  digest = HashCombine(digest, static_cast<uint64_t>(result.status().code()));
  if (!result.ok()) return digest;
  const CompiledPlan& plan = result.value();
  digest = HashCombine(digest, PlanHash(plan.root, /*for_template=*/false));
  digest = HashCombine(digest, DoubleBits(plan.est_cost));
  digest = HashCombine(digest, DoubleBits(plan.est_output_rows));
  digest = HashCombine(digest, plan.signature.Hash());
  digest = HashCombine(digest, static_cast<uint64_t>(plan.memo_exprs));
  return HashCombine(digest, static_cast<uint64_t>(plan.memo_groups));
}

TEST(CompileDigest, MatchesGolden) {
  constexpr int kTemplates = 10;
  constexpr int kRandomConfigs = 4;
  uint64_t digest = 0xd16e57ull;
  int compiles = 0;
  int failures = 0;
  for (const WorkloadSpec& spec :
       {WorkloadSpec::WorkloadA(0.004), WorkloadSpec::WorkloadB(0.004),
        WorkloadSpec::WorkloadC(0.004)}) {
    Workload workload(spec);
    const Optimizer optimizer(&workload.catalog());
    Pcg32 rng(spec.seed);
    for (int day = 1; day <= 2; ++day) {
      for (int t = 0; t < kTemplates; ++t) {
        const Job job = workload.MakeJob(t, day);
        std::vector<RuleConfig> configs = {RuleConfig::Default(), RuleConfig::AllEnabled()};
        for (int i = 0; i < kRandomConfigs; ++i) configs.push_back(RandomConfig(&rng));
        for (const RuleConfig& config : configs) {
          Result<CompiledPlan> result = optimizer.Compile(job, config);
          digest = FoldCompile(digest, result);
          ++compiles;
          if (!result.ok()) ++failures;
        }
      }
    }
  }
  // The fixture must exercise both outcomes, or the digest pins only one.
  EXPECT_EQ(compiles, 3 * 2 * kTemplates * (2 + kRandomConfigs));
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, compiles);
  EXPECT_EQ(digest, kGoldenDigest) << "digest 0x" << std::hex << digest << " over " << std::dec
                                   << compiles << " compiles (" << failures << " failed)";
}

}  // namespace
}  // namespace qsteer
