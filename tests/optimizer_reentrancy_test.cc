// Reentrancy of Optimizer::Compile: one shared const Optimizer must produce
// the same plans when many compilations run concurrently (distinct jobs,
// distinct configs of the same job, and forks reading one stored
// exploration family) as when they run one at a time. All per-compilation
// state — the family being built, minted derived columns, estimate cache —
// lives in a per-call context, and a stored family is only read, so nothing
// here should race (run this test under -DQSTEER_SANITIZE=thread to prove
// it).
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/config_search.h"
#include "core/span.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.name = "RE";
  spec.seed = 777;
  spec.num_templates = 16;
  spec.num_stream_sets = 12;
  return spec;
}

struct PlanFingerprint {
  bool ok = false;
  uint64_t plan_hash = 0;
  double est_cost = 0.0;
  double est_output_rows = 0.0;
  int memo_groups = 0;
  int memo_exprs = 0;
};

PlanFingerprint Fingerprint(const Result<CompiledPlan>& plan) {
  PlanFingerprint fp;
  fp.ok = plan.ok();
  if (!plan.ok()) return fp;
  fp.plan_hash = PlanHash(plan.value().root, false);
  fp.est_cost = plan.value().est_cost;
  fp.est_output_rows = plan.value().est_output_rows;
  fp.memo_groups = plan.value().memo_groups;
  fp.memo_exprs = plan.value().memo_exprs;
  return fp;
}

void ExpectSame(const PlanFingerprint& a, const PlanFingerprint& b) {
  ASSERT_EQ(a.ok, b.ok);
  if (!a.ok) return;
  EXPECT_EQ(a.plan_hash, b.plan_hash);
  EXPECT_EQ(a.est_cost, b.est_cost);
  EXPECT_EQ(a.est_output_rows, b.est_output_rows);
  EXPECT_EQ(a.memo_groups, b.memo_groups);
  EXPECT_EQ(a.memo_exprs, b.memo_exprs);
}

TEST(OptimizerReentrancy, ConcurrentDistinctJobsMatchSequential) {
  Workload workload(Spec());
  const Optimizer optimizer(&workload.catalog());

  std::vector<Job> jobs;
  for (int t = 0; t < 12; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/1));

  // Sequential reference.
  std::vector<PlanFingerprint> reference;
  for (const Job& job : jobs) {
    reference.push_back(Fingerprint(optimizer.Compile(job, RuleConfig::Default())));
  }

  // The same compilations, all in flight at once on raw threads (not the
  // pool, so this also covers callers that bring their own threading).
  for (int round = 0; round < 3; ++round) {
    std::vector<PlanFingerprint> concurrent(jobs.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < jobs.size(); ++i) {
      threads.emplace_back([&, i] {
        concurrent[i] = Fingerprint(optimizer.Compile(jobs[i], RuleConfig::Default()));
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "round " << round << " job " << jobs[i].name);
      ExpectSame(reference[i], concurrent[i]);
    }
  }
}

TEST(OptimizerReentrancy, ConcurrentConfigsOfOneJobMatchSequential) {
  Workload workload(Spec());
  const Optimizer optimizer(&workload.catalog());
  Job job = workload.MakeJob(3, /*day=*/1);

  // Realistic contention: the §5 recompilation fan-out — many configs of
  // the SAME job (same shared column universe underneath) at once.
  ConfigSearchOptions search;
  search.max_configs = 24;
  search.seed = 99;
  std::vector<RuleConfig> configs =
      GenerateCandidateConfigs(ComputeJobSpan(optimizer, job).span, search);
  configs.push_back(RuleConfig::Default());
  ASSERT_GT(configs.size(), 4u);

  std::vector<PlanFingerprint> reference;
  for (const RuleConfig& config : configs) {
    reference.push_back(Fingerprint(optimizer.Compile(job, config)));
  }

  ThreadPool pool(8);
  std::vector<PlanFingerprint> concurrent = ParallelMap<PlanFingerprint>(
      &pool, static_cast<int64_t>(configs.size()),
      [&](int64_t i) { return Fingerprint(optimizer.Compile(job, configs[static_cast<size_t>(i)])); });

  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "config " << i);
    ExpectSame(reference[i], concurrent[i]);
  }
}

TEST(OptimizerReentrancy, ForksReadOneFamilyConcurrently) {
  Workload workload(Spec());
  const Optimizer optimizer(&workload.catalog());
  Job job = workload.MakeJob(3, /*day=*/1);
  const RuleConfig def = RuleConfig::Default();
  CompileSession session;
  ASSERT_TRUE(optimizer.Compile(job, def, CompileControl{}, &session).ok());

  // Each worker flips a different pair of implementation rules, so the
  // configurations share the default's exploration key.
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::vector<RuleId> impl;
  for (RuleId id = 0; id < kNumRules; ++id) {
    if (!registry.exploration_rules().Test(id)) impl.push_back(id);
  }
  constexpr int kWorkers = 8;
  constexpr int kConfigsPerWorker = 4;
  std::vector<RuleConfig> configs;
  for (int i = 0; i < kWorkers * kConfigsPerWorker; ++i) {
    RuleConfig config = def;
    for (RuleId id : {impl[static_cast<size_t>(i) % impl.size()],
                      impl[static_cast<size_t>(3 * i + 1) % impl.size()]}) {
      if (config.IsEnabled(id)) {
        config.Disable(id);
      } else {
        config.Enable(id);
      }
    }
    ASSERT_EQ(CompileSession::ExplorationKey(config), CompileSession::ExplorationKey(def));
    configs.push_back(config);
  }
  std::vector<PlanFingerprint> reference;
  for (const RuleConfig& config : configs) {
    reference.push_back(Fingerprint(optimizer.Compile(job, config)));
  }

  ThreadPool pool(kWorkers);
  std::vector<PlanFingerprint> concurrent(configs.size());
  std::vector<int64_t> hits(kWorkers), misses(kWorkers);
  ParallelFor(&pool, kWorkers, [&](int64_t w) {
    CompileSession fork = session.Fork();
    for (int k = 0; k < kConfigsPerWorker; ++k) {
      const size_t i = static_cast<size_t>(w * kConfigsPerWorker + k);
      concurrent[i] = Fingerprint(optimizer.Compile(job, configs[i], CompileControl{}, &fork));
    }
    hits[static_cast<size_t>(w)] = fork.hits();
    misses[static_cast<size_t>(w)] = fork.misses();
  });

  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "config " << i);
    ExpectSame(reference[i], concurrent[i]);
  }
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(hits[static_cast<size_t>(w)], kConfigsPerWorker) << "worker " << w;
    EXPECT_EQ(misses[static_cast<size_t>(w)], 0) << "worker " << w;
  }
}

TEST(OptimizerReentrancy, RepeatedCompileIsIdempotent) {
  // Compile mutates nothing observable: recompiling the same (job, config)
  // after many intervening compilations still yields the identical plan —
  // in particular, derived-column ids minted during optimization restart at
  // job.columns->size() on every call instead of accumulating.
  Workload workload(Spec());
  const Optimizer optimizer(&workload.catalog());
  Job job = workload.MakeJob(5, /*day=*/2);

  PlanFingerprint first = Fingerprint(optimizer.Compile(job, RuleConfig::Default()));
  for (int t = 0; t < 8; ++t) {
    // qsteer-lint: allow(unchecked-status) interleaved compiles only exercise reentrancy
    (void)optimizer.Compile(workload.MakeJob(t, /*day=*/2), RuleConfig::Default());
  }
  PlanFingerprint again = Fingerprint(optimizer.Compile(job, RuleConfig::Default()));
  ExpectSame(first, again);
}

}  // namespace
}  // namespace qsteer
