// Tests of the span-keyed compile cache and its pipeline/service plumbing:
// bit-identity with caching on vs off (the non-negotiable invariant), LRU
// eviction under a tiny budget, span-projection candidate dedup, compile
// session (shared exploration) equivalence, concurrent access, and the
// durable store's published recommendation snapshot.
#include "optimizer/compile_cache.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"

#include "core/config_search.h"
#include "core/hints.h"
#include "core/pipeline.h"
#include "core/span.h"
#include "service/durable_store.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

WorkloadSpec TestSpec() {
  WorkloadSpec spec;
  spec.name = "CC";
  spec.seed = 4242;
  spec.num_templates = 12;
  spec.num_stream_sets = 10;
  return spec;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Full bit-level digest of an analysis: plan identity, signature,
/// cost-model outputs, span, candidate costs, executed configs. Any
/// divergence between cached and uncached compilation shows up here.
uint64_t AnalysisDigest(const JobAnalysis& analysis) {
  uint64_t h = 0xc0ffee0ull;
  h = HashCombine(h, analysis.default_plan.root != nullptr
                         ? PlanHash(analysis.default_plan.root, /*for_template=*/false)
                         : 0);
  h = HashCombine(h, analysis.default_plan.signature.Hash());
  h = HashCombine(h, DoubleBits(analysis.default_plan.est_cost));
  h = HashCombine(h, analysis.span.span.Hash());
  h = HashCombine(h, static_cast<uint64_t>(analysis.candidates_generated));
  h = HashCombine(h, static_cast<uint64_t>(analysis.recompiled_ok));
  h = HashCombine(h, static_cast<uint64_t>(analysis.compile_failures));
  for (double cost : analysis.candidate_costs) h = HashCombine(h, DoubleBits(cost));
  for (const ConfigOutcome& outcome : analysis.executed) {
    h = HashCombine(h, outcome.config.Hash());
    h = HashCombine(h, PlanHash(outcome.plan.root, /*for_template=*/false));
    h = HashCombine(h, outcome.plan.signature.Hash());
    h = HashCombine(h, DoubleBits(outcome.plan.est_cost));
  }
  return h;
}

CompiledPlan MakePlan(int streams) {
  // A real small plan (cache byte accounting visits it).
  Operator get;
  get.kind = OpKind::kGet;
  get.stream_id = streams;
  get.stream_set_id = 0;
  get.scan_columns = {0};
  CompiledPlan plan;
  plan.root = PlanNode::Make(get, {});
  plan.est_cost = streams * 1.5;
  return plan;
}

TEST(CompileCacheUnit, HitReturnsIdenticalResultAndCountsStats) {
  CompileCache cache;
  CompileCache::Key key{/*fingerprint=*/7, RuleConfig::Default().bits()};
  EXPECT_FALSE(cache.Lookup(key).has_value());

  cache.Insert(key, Result<CompiledPlan>(MakePlan(3)));
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->ok());
  EXPECT_EQ(hit->value().est_cost, 4.5);

  CompileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(CompileCacheUnit, PermanentFailuresCachedTransientOnesNot) {
  CompileCache cache;
  CompileCache::Key failed{1, RuleConfig::Default().bits()};
  cache.Insert(failed, Result<CompiledPlan>(Status::CompilationFailed("no covering rule")));
  auto hit = cache.Lookup(failed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status().code(), StatusCode::kCompilationFailed);
  EXPECT_EQ(hit->status().message(), "no covering rule");

  CompileCache::Key timed_out{2, RuleConfig::Default().bits()};
  cache.Insert(timed_out, Result<CompiledPlan>(Status::DeadlineExceeded("busy")));
  EXPECT_FALSE(cache.Lookup(timed_out).has_value());
}

TEST(CompileCacheUnit, KeysDifferingOnlyInProjectionAreDistinct) {
  CompileCache cache;
  RuleConfig a = RuleConfig::AllEnabled();
  RuleConfig b = RuleConfig::AllEnabled();
  b.Disable(100);
  cache.Insert(CompileCache::Key{9, a.bits()}, Result<CompiledPlan>(MakePlan(1)));
  EXPECT_FALSE(cache.Lookup(CompileCache::Key{9, b.bits()}).has_value());
  EXPECT_FALSE(cache.Lookup(CompileCache::Key{8, a.bits()}).has_value());
  EXPECT_TRUE(cache.Lookup(CompileCache::Key{9, a.bits()}).has_value());
}

TEST(CompileCacheUnit, TinyCapacityEvictsLeastRecentlyUsed) {
  CompileCacheOptions options;
  options.shards = 1;               // deterministic LRU order
  options.capacity_bytes = 2'200;   // fits two ~900-byte single-node entries
  CompileCache cache(options);

  RuleConfig config = RuleConfig::AllEnabled();
  auto key = [&](uint64_t fp) { return CompileCache::Key{fp, config.bits()}; };
  cache.Insert(key(1), Result<CompiledPlan>(MakePlan(1)));
  cache.Insert(key(2), Result<CompiledPlan>(MakePlan(2)));
  // Touch 1 so 2 is the LRU victim.
  EXPECT_TRUE(cache.Lookup(key(1)).has_value());
  cache.Insert(key(3), Result<CompiledPlan>(MakePlan(3)));

  CompileCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytes, options.capacity_bytes);
  EXPECT_TRUE(cache.Lookup(key(1)).has_value());   // recently used: kept
  EXPECT_FALSE(cache.Lookup(key(2)).has_value());  // LRU: evicted
  EXPECT_TRUE(cache.Lookup(key(3)).has_value());
}

TEST(CompileCacheUnit, ZeroCapacityNeverStores) {
  CompileCacheOptions options;
  options.capacity_bytes = 0;
  CompileCache cache(options);
  CompileCache::Key key{1, RuleConfig::Default().bits()};
  cache.Insert(key, Result<CompiledPlan>(MakePlan(1)));
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(CompileCacheUnit, JobFingerprintSeparatesDaysAndSharesRecurrences) {
  Workload workload(TestSpec());
  Job day1 = workload.MakeJob(0, 1);
  Job day2 = workload.MakeJob(0, 2);
  Job other = workload.MakeJob(1, 1);
  EXPECT_NE(JobFingerprint(day1), JobFingerprint(day2));
  EXPECT_NE(JobFingerprint(day1), JobFingerprint(other));
  // Identical job value -> identical fingerprint (recurrence).
  Job again = workload.MakeJob(0, 1);
  EXPECT_EQ(JobFingerprint(day1), JobFingerprint(again));
}

// ------------------------------------------------- persistence (warm start)
//
// SaveToFile/WarmFromFile: the nightly discovery pass persists its compile
// cache; tomorrow's serving tier pre-warms from the file. The contract
// under test: an intact file restores plans AND permanent failures
// bit-identically; any damage — torn bytes, a missing footer, a foreign
// version tag, a day mismatch, a body that fails part-way — rejects the
// WHOLE file (cold start), and rejection can cost compiles but never change
// a single result.

class PersistDir {
 public:
  PersistDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_cc_persist_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~PersistDir() { std::filesystem::remove_all(dir_); }
  std::string File(const std::string& name) const { return (dir_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// qsteer-lint: allow(crc-before-trust) test helper reads bytes to corrupt or inspect them; verification is the code under test
std::string PersistRawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void PersistRawWrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(CompileCachePersist, SaveWarmRoundtripRestoresPlansAndPermanentFailures) {
  PersistDir dir;
  std::string path = dir.File("cache.qcc");
  CompileCache cache;
  CompileCache::Key plan_key{/*fingerprint=*/71, RuleConfig::Default().bits()};
  CompiledPlan plan = MakePlan(5);
  plan.signature = BitVector256::FromIndices({3, 99, 200});
  plan.est_output_rows = 12345.5;
  plan.memo_groups = 17;
  plan.memo_exprs = 41;
  cache.Insert(plan_key, Result<CompiledPlan>(std::move(plan)));
  CompileCache::Key fail_key{/*fingerprint=*/72, BitVector256::FromIndices({8})};
  cache.Insert(fail_key,
               Result<CompiledPlan>(Status::CompilationFailed("rule set unsatisfiable")));
  ASSERT_TRUE(cache.SaveToFile(path, /*day=*/11, /*sync=*/false).ok());

  CompileCache warmed;
  int64_t loaded = 0;
  ASSERT_TRUE(warmed.WarmFromFile(path, /*expected_day=*/11, &loaded).ok());
  EXPECT_EQ(loaded, 2);
  EXPECT_EQ(warmed.stats().warm_loaded, 2);
  EXPECT_EQ(warmed.stats().warm_rejected, 0);

  auto hit = warmed.Lookup(plan_key);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->ok());
  EXPECT_EQ(PlanHash(hit->value().root, /*for_template=*/false),
            PlanHash(MakePlan(5).root, /*for_template=*/false));
  EXPECT_EQ(hit->value().signature, BitVector256::FromIndices({3, 99, 200}));
  EXPECT_EQ(DoubleBits(hit->value().est_cost), DoubleBits(MakePlan(5).est_cost));
  EXPECT_EQ(DoubleBits(hit->value().est_output_rows), DoubleBits(12345.5));
  EXPECT_EQ(hit->value().memo_groups, 17);
  EXPECT_EQ(hit->value().memo_exprs, 41);

  auto failure = warmed.Lookup(fail_key);
  ASSERT_TRUE(failure.has_value());
  ASSERT_FALSE(failure->ok());
  EXPECT_EQ(failure->status().code(), StatusCode::kCompilationFailed);
  EXPECT_NE(failure->status().ToString().find("rule set unsatisfiable"), std::string::npos);
}

TEST(CompileCachePersist, SavedBytesAreDeterministicForEqualContents) {
  // Two caches holding the same entries (inserted in different orders)
  // must write identical files — save order is sorted key order, not
  // insertion or LRU order.
  PersistDir dir;
  CompileCache first, second;
  CompileCache::Key a{1, BitVector256::FromIndices({1})};
  CompileCache::Key b{2, BitVector256::FromIndices({2})};
  first.Insert(a, Result<CompiledPlan>(MakePlan(1)));
  first.Insert(b, Result<CompiledPlan>(MakePlan(2)));
  second.Insert(b, Result<CompiledPlan>(MakePlan(2)));
  second.Insert(a, Result<CompiledPlan>(MakePlan(1)));
  ASSERT_TRUE(first.SaveToFile(dir.File("a.qcc"), 1, false).ok());
  ASSERT_TRUE(second.SaveToFile(dir.File("b.qcc"), 1, false).ok());
  EXPECT_EQ(PersistRawRead(dir.File("a.qcc")), PersistRawRead(dir.File("b.qcc")));
}

TEST(CompileCachePersist, WarmRejectsDamageForeignVersionAndWrongDayWholly) {
  PersistDir dir;
  std::string path = dir.File("cache.qcc");
  CompileCache cache;
  cache.Insert({7, RuleConfig::Default().bits()}, Result<CompiledPlan>(MakePlan(2)));
  ASSERT_TRUE(cache.SaveToFile(path, /*day=*/5, /*sync=*/false).ok());
  std::string intact = PersistRawRead(path);

  // Day mismatch: pinned to the wrong day rejects; -1 accepts any day.
  {
    CompileCache warmed;
    int64_t loaded = -1;
    Status status = warmed.WarmFromFile(path, /*expected_day=*/6, &loaded);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(loaded, 0);
    EXPECT_EQ(warmed.stats().warm_rejected, 1);
    EXPECT_EQ(warmed.stats().entries, 0) << "rejection loads nothing";
    ASSERT_TRUE(warmed.WarmFromFile(path, /*expected_day=*/-1, &loaded).ok());
    EXPECT_EQ(loaded, 1);
  }
  // A flipped payload byte fails the crc32 footer.
  {
    std::string corrupt = intact;
    corrupt[corrupt.size() / 2] ^= 0x10;
    PersistRawWrite(path, corrupt);
    CompileCache warmed;
    EXPECT_FALSE(warmed.WarmFromFile(path, 5, nullptr).ok());
    EXPECT_EQ(warmed.stats().warm_rejected, 1);
  }
  // A torn prefix (crash mid-ship) fails the footer too.
  {
    PersistRawWrite(path, intact.substr(0, intact.size() / 3));
    CompileCache warmed;
    EXPECT_FALSE(warmed.WarmFromFile(path, 5, nullptr).ok());
  }
  // No footer at all: not a SaveToFile artifact, never trusted.
  {
    PersistRawWrite(path, "qsteer-compile-cache v1\nbut no checksum footer");
    CompileCache warmed;
    EXPECT_FALSE(warmed.WarmFromFile(path, 5, nullptr).ok());
  }
  // A checksummed file of some OTHER format: unknown version tag.
  {
    ASSERT_TRUE(
        WriteArtifact(path, "# qsteer-rulediff v1", "not a cache\n", /*sync=*/false).ok());
    CompileCache warmed;
    Status status = warmed.WarmFromFile(path, 5, nullptr);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  }
  // A valid footer over a body that fails late (one trailing byte after the
  // last entry): the entries parsed before the error must not stay behind.
  {
    CompileCache two;
    two.Insert({7, RuleConfig::Default().bits()}, Result<CompiledPlan>(MakePlan(2)));
    two.Insert({8, RuleConfig::Default().bits()}, Result<CompiledPlan>(MakePlan(3)));
    ASSERT_TRUE(two.SaveToFile(path, /*day=*/5, /*sync=*/false).ok());
    Result<std::string> body = ReadArtifact(path, "qsteer-compile-cache v1");
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    ASSERT_TRUE(WriteArtifact(path, "qsteer-compile-cache v1", body.value() + "x",
                              /*sync=*/false)
                    .ok());
    CompileCache warmed;
    int64_t loaded = -1;
    EXPECT_FALSE(warmed.WarmFromFile(path, 5, &loaded).ok());
    EXPECT_EQ(loaded, 0);
    EXPECT_EQ(warmed.stats().warm_rejected, 1);
    EXPECT_EQ(warmed.stats().warm_loaded, 0);
    EXPECT_EQ(warmed.stats().entries, 0) << "a rejected file loads nothing";
  }
  // Missing file: plain NotFound (the caller's cold-start path).
  {
    CompileCache warmed;
    EXPECT_EQ(warmed.WarmFromFile(dir.File("absent.qcc"), 5, nullptr).code(),
              StatusCode::kNotFound);
  }
}

TEST(SpanProjectionDedup, NoEmittedCandidateMatchesDefaultOrAnotherProjection) {
  BitVector256 span = BitVector256::FromIndices({38, 40, 90, 91, 120, 224, 228});
  ConfigSearchOptions options;
  options.max_configs = 200;
  options.seed = 77;
  CandidateGenerationStats stats;
  std::vector<RuleConfig> configs = GenerateCandidateConfigs(span, options, &stats);

  EXPECT_EQ(stats.generated, static_cast<int>(configs.size()));
  uint64_t default_projection = RuleConfig::Default().bits().And(span).Hash();
  std::set<uint64_t> projections;
  for (const RuleConfig& config : configs) {
    uint64_t projection = ProjectConfig(config, span).Hash();
    EXPECT_NE(projection, default_projection);
    EXPECT_TRUE(projections.insert(projection).second)
        << "two candidates share a span projection";
  }
  // The projected space of this span is small enough that the attempt
  // budget must have pruned span-equivalent draws.
  EXPECT_GT(stats.span_duplicates_pruned + stats.repeated_draws, 0);
}

TEST(SpanProjectionDedup, DeterministicAcrossCalls) {
  BitVector256 span = BitVector256::FromIndices({90, 91, 224, 228});
  ConfigSearchOptions options;
  options.max_configs = 50;
  options.seed = 5;
  CandidateGenerationStats first_stats, second_stats;
  std::vector<RuleConfig> first = GenerateCandidateConfigs(span, options, &first_stats);
  std::vector<RuleConfig> second = GenerateCandidateConfigs(span, options, &second_stats);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i].Hash(), second[i].Hash());
  EXPECT_EQ(first_stats.span_duplicates_pruned, second_stats.span_duplicates_pruned);
}

class CompileCachePipelineTest : public ::testing::Test {
 protected:
  CompileCachePipelineTest()
      : workload_(TestSpec()),
        optimizer_(&workload_.catalog()),
        simulator_(&workload_.catalog()) {}

  static PipelineOptions Options(int cache_mb, int threads) {
    PipelineOptions options;
    options.max_candidate_configs = 40;
    options.configs_to_execute = 6;
    options.compile_cache_mb = cache_mb;
    options.num_threads = threads;
    return options;
  }

  std::vector<Job> Jobs(int count, int day) {
    std::vector<Job> jobs;
    for (int t = 0; t < count; ++t) jobs.push_back(workload_.MakeJob(t, day));
    return jobs;
  }

  Workload workload_;
  Optimizer optimizer_;
  ExecutionSimulator simulator_;
};

TEST_F(CompileCachePipelineTest, CachedResultsBitIdenticalToUncachedAcrossWorkerCounts) {
  std::vector<Job> jobs = Jobs(6, /*day=*/1);
  SteeringPipeline uncached(&optimizer_, &simulator_, Options(/*cache_mb=*/0, /*threads=*/0));
  std::vector<JobAnalysis> baseline = uncached.RecompileJobs(jobs);
  ASSERT_EQ(uncached.compile_cache_stats().hits + uncached.compile_cache_stats().misses, 0);

  std::vector<uint64_t> baseline_digests;
  for (const JobAnalysis& analysis : baseline) {
    baseline_digests.push_back(AnalysisDigest(analysis));
  }

  for (int threads : {0, 1, 2, 8}) {
    SteeringPipeline cached(&optimizer_, &simulator_, Options(/*cache_mb=*/64, threads));
    // Two passes: cold (populates) and warm (hits must change nothing).
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<JobAnalysis> result = cached.RecompileJobs(jobs);
      ASSERT_EQ(result.size(), baseline.size());
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(AnalysisDigest(result[i]), baseline_digests[i])
            << "job " << i << " threads " << threads << " pass " << pass;
      }
    }
    CompileCacheStats stats = cached.compile_cache_stats();
    EXPECT_GT(stats.hits, 0) << "threads " << threads;
    // Recurring workload (second pass repeats every compile): at least the
    // ISSUE's 50% floor must hit.
    EXPECT_GE(stats.HitRate(), 0.5) << "threads " << threads;
  }
}

TEST_F(CompileCachePipelineTest, WarmStartedPipelineHitsAndStaysBitIdentical) {
  // The cross-process warm start: pipeline A analyzes a day and persists
  // its cache; a fresh pipeline B warms from the file and must (a) serve
  // its compiles as hits and (b) produce bit-identical analyses — the
  // cache can move work between days, never results.
  PersistDir dir;
  std::string path = dir.File("pipeline_cache.qcc");
  std::vector<Job> jobs = Jobs(5, /*day=*/3);

  SteeringPipeline writer(&optimizer_, &simulator_, Options(/*cache_mb=*/64, /*threads=*/0));
  std::vector<JobAnalysis> baseline = writer.RecompileJobs(jobs);
  ASSERT_TRUE(writer.SaveCompileCache(path, /*day=*/3, /*sync=*/false).ok());

  SteeringPipeline reader(&optimizer_, &simulator_, Options(/*cache_mb=*/64, /*threads=*/0));
  int64_t loaded = 0;
  ASSERT_TRUE(reader.WarmCompileCache(path, /*expected_day=*/3, &loaded).ok());
  EXPECT_GT(loaded, 0);
  EXPECT_EQ(reader.compile_cache_stats().warm_loaded, loaded);

  std::vector<JobAnalysis> warm = reader.RecompileJobs(jobs);
  ASSERT_EQ(warm.size(), baseline.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(AnalysisDigest(warm[i]), AnalysisDigest(baseline[i])) << "job " << i;
  }
  CompileCacheStats stats = reader.compile_cache_stats();
  EXPECT_GT(stats.hits, 0) << "warm entries must serve as hits";
  EXPECT_GE(stats.HitRate(), 0.5) << "the recurring day should mostly hit warm entries";
}

TEST_F(CompileCachePipelineTest, SaveAndWarmRequireAnEnabledCache) {
  PersistDir dir;
  SteeringPipeline disabled(&optimizer_, &simulator_, Options(/*cache_mb=*/0, /*threads=*/0));
  Status save = disabled.SaveCompileCache(dir.File("never.qcc"), 1, false);
  ASSERT_FALSE(save.ok());
  EXPECT_EQ(save.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(std::filesystem::exists(dir.File("never.qcc")));
  EXPECT_FALSE(disabled.WarmCompileCache(dir.File("never.qcc"), 1).ok());
}

TEST_F(CompileCachePipelineTest, RecurringInstancesAcrossDaysMissButSameDayHits) {
  SteeringPipeline pipeline(&optimizer_, &simulator_, Options(/*cache_mb=*/64, /*threads=*/0));
  Job job = workload_.MakeJob(2, 1);
  pipeline.Recompile(job);
  CompileCacheStats cold = pipeline.compile_cache_stats();
  pipeline.Recompile(job);
  CompileCacheStats warm = pipeline.compile_cache_stats();
  // The repeat compiles entirely from cache: inserts don't grow.
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(warm.inserts, cold.inserts);
  // A different day re-fingerprints (stats change daily): it must not hit
  // the day-1 entries' results.
  int64_t hits_before = warm.hits;
  pipeline.Recompile(workload_.MakeJob(2, 2));
  EXPECT_GT(pipeline.compile_cache_stats().misses, warm.misses);
  // Sanity: day-2 may legitimately share zero entries with day 1.
  EXPECT_GE(pipeline.compile_cache_stats().hits, hits_before);
}

TEST_F(CompileCachePipelineTest, SpanPrunedCounterAccumulates) {
  SteeringPipeline pipeline(&optimizer_, &simulator_, Options(/*cache_mb=*/64, /*threads=*/0));
  JobAnalysis analysis = pipeline.Recompile(workload_.MakeJob(0, 1));
  EXPECT_EQ(pipeline.budget_stats().span_duplicates_pruned,
            analysis.span_duplicates_pruned);
  JobAnalysis analysis2 = pipeline.Recompile(workload_.MakeJob(1, 1));
  EXPECT_EQ(pipeline.budget_stats().span_duplicates_pruned,
            analysis.span_duplicates_pruned + analysis2.span_duplicates_pruned);
}

TEST_F(CompileCachePipelineTest, CompileCachedMatchesDirectCompileAndHits) {
  SteeringPipeline pipeline(&optimizer_, &simulator_, Options(/*cache_mb=*/64, /*threads=*/0));
  Job job = workload_.MakeJob(3, 1);
  RuleConfig config = RuleConfig::Default();
  Result<CompiledPlan> direct = optimizer_.Compile(job, config);
  ASSERT_TRUE(direct.ok());

  Result<CompiledPlan> first = pipeline.CompileCached(job, config);
  Result<CompiledPlan> second = pipeline.CompileCached(job, config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (const Result<CompiledPlan>* result : {&first, &second}) {
    EXPECT_EQ(PlanHash(result->value().root, false), PlanHash(direct.value().root, false));
    EXPECT_EQ(result->value().signature, direct.value().signature);
    EXPECT_EQ(DoubleBits(result->value().est_cost), DoubleBits(direct.value().est_cost));
  }
  EXPECT_GE(pipeline.compile_cache_stats().hits, 1);
}

TEST_F(CompileCachePipelineTest, SessionExplorationEquivalentToSessionless) {
  Job job = workload_.MakeJob(5, 1);
  SpanResult span = ComputeJobSpan(optimizer_, job);
  const BitVector256& exploration = RuleRegistry::Instance().exploration_rules();
  const RuleConfig def = RuleConfig::Default();
  const RuleConfig all = RuleConfig::AllEnabled();
  // Span rules the default enables, so disabling one changes the config.
  std::vector<RuleId> implementation_ids, transformation_ids;
  for (RuleId id : span.span.ToIndices()) {
    if (!def.IsEnabled(id)) continue;
    (exploration.Test(id) ? transformation_ids : implementation_ids).push_back(id);
  }
  ASSERT_GE(implementation_ids.size(), 2u);
  ASSERT_GE(transformation_ids.size(), 1u);
  auto without = [](RuleConfig config, const std::vector<RuleId>& ids) {
    for (RuleId id : ids) config.Disable(id);
    return config;
  };
  const RuleId impl0 = implementation_ids[0];
  const RuleId impl1 = implementation_ids[1];
  const RuleId flip = transformation_ids[0];
  // Compiled in this order: a configuration differing from the one before
  // it only in implementation rules reuses its exploration; a flipped
  // transformation rule explores again.
  std::vector<RuleConfig> configs = {
      def,                            // miss
      without(def, {impl0}),          // hit
      without(def, {impl0, impl1}),   // hit
      without(def, {flip}),           // miss
      without(def, {flip, impl0}),    // hit
      def,                            // miss: the slot holds the flipped exploration
      all,                            // miss
      without(all, {impl1}),          // hit
  };
  const int64_t listed_hits = 4;
  const int64_t listed_misses = 4;
  ConfigSearchOptions search;
  search.max_configs = 10;
  search.seed = 9;
  for (RuleConfig& config : GenerateCandidateConfigs(span.span, search)) {
    configs.push_back(std::move(config));
  }
  // The generated candidates reuse exactly when they agree with their
  // predecessor outside the implementation lists.
  int64_t expected_hits = listed_hits;
  for (size_t i = static_cast<size_t>(listed_hits + listed_misses); i < configs.size(); ++i) {
    if (configs[i].bits().And(exploration) == configs[i - 1].bits().And(exploration)) {
      ++expected_hits;
    }
  }

  CompileSession session;
  for (size_t i = 0; i < configs.size(); ++i) {
    const RuleConfig& config = configs[i];
    Result<CompiledPlan> plain = optimizer_.Compile(job, config);
    Result<CompiledPlan> shared = optimizer_.Compile(job, config, CompileControl{}, &session);
    ASSERT_EQ(plain.ok(), shared.ok()) << "config " << i;
    if (i + 1 == static_cast<size_t>(listed_hits + listed_misses)) {
      EXPECT_EQ(session.hits(), listed_hits);
      EXPECT_EQ(session.misses(), listed_misses);
    }
    if (!plain.ok()) continue;
    EXPECT_EQ(PlanHash(plain.value().root, false), PlanHash(shared.value().root, false))
        << "config " << i;
    EXPECT_EQ(plain.value().signature, shared.value().signature) << "config " << i;
    EXPECT_EQ(DoubleBits(plain.value().est_cost), DoubleBits(shared.value().est_cost))
        << "config " << i;
    EXPECT_EQ(plain.value().memo_groups, shared.value().memo_groups) << "config " << i;
    EXPECT_EQ(plain.value().memo_exprs, shared.value().memo_exprs) << "config " << i;
  }
  EXPECT_EQ(session.hits(), expected_hits);
  EXPECT_EQ(session.misses(), static_cast<int64_t>(configs.size()) - expected_hits);
}

TEST_F(CompileCachePipelineTest, SessionDoesNotStoreAnAbortedExploration) {
  Job job = workload_.MakeJob(5, 1);
  const RuleConfig config = RuleConfig::Default();
  CompileSession session;
  Result<CompiledPlan> aborted =
      optimizer_.Compile(job, config, CompileControl{1e-9}, &session);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kDeadlineExceeded);

  // Had the cut-short memo been stored, this compile would clone it.
  Result<CompiledPlan> plain = optimizer_.Compile(job, config);
  Result<CompiledPlan> shared = optimizer_.Compile(job, config, CompileControl{}, &session);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(PlanHash(plain.value().root, false), PlanHash(shared.value().root, false));
  EXPECT_EQ(plain.value().signature, shared.value().signature);
  EXPECT_EQ(DoubleBits(plain.value().est_cost), DoubleBits(shared.value().est_cost));
  EXPECT_EQ(plain.value().memo_groups, shared.value().memo_groups);
  EXPECT_EQ(plain.value().memo_exprs, shared.value().memo_exprs);
  EXPECT_EQ(session.hits(), 0);
  EXPECT_EQ(session.misses(), 2);
}

TEST_F(CompileCachePipelineTest, ForkStartsFromTheStoredExploration) {
  Job job = workload_.MakeJob(5, 1);
  const RuleConfig def = RuleConfig::Default();
  const RuleConfig all = RuleConfig::AllEnabled();
  ASSERT_NE(CompileSession::ExplorationKey(def), CompileSession::ExplorationKey(all));
  CompileSession session;
  ASSERT_TRUE(optimizer_.Compile(job, def, CompileControl{}, &session).ok());

  CompileSession fork = session.Fork();
  EXPECT_EQ(fork.hits(), 0);
  EXPECT_EQ(fork.misses(), 0);
  Result<CompiledPlan> plain = optimizer_.Compile(job, def);
  Result<CompiledPlan> forked = optimizer_.Compile(job, def, CompileControl{}, &fork);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(forked.ok());
  EXPECT_EQ(PlanHash(plain.value().root, false), PlanHash(forked.value().root, false));
  EXPECT_EQ(DoubleBits(plain.value().est_cost), DoubleBits(forked.value().est_cost));
  EXPECT_EQ(fork.hits(), 1);

  // The fork's store replaces its own slot only.
  ASSERT_TRUE(optimizer_.Compile(job, all, CompileControl{}, &fork).ok());
  EXPECT_EQ(fork.misses(), 1);
  ASSERT_TRUE(optimizer_.Compile(job, def, CompileControl{}, &session).ok());
  EXPECT_EQ(session.hits(), 1);
  EXPECT_EQ(session.misses(), 1);
}

TEST(CompileSessionFamily, DisablingTheFirstOfTwoEqualProposalsLandsTheOther) {
  // HashJoinImpl1 and GraceHashJoinImpl propose the same operator for a
  // multi-key inner join, so with HashJoinImpl1 enabled its proposal lands
  // and GraceHashJoinImpl's is a duplicate. The job `qsteer compile B 16 4`
  // compiles; the counts were recorded before compiles shared proposals.
  Workload workload(WorkloadSpec::WorkloadB(0.005));
  const Optimizer optimizer(&workload.catalog());
  const Job job = workload.MakeJob(16, 4);
  const RuleConfig def = RuleConfig::Default();
  Result<RuleConfig> without_hash = ParseHintString("DISABLE(HashJoinImpl1)");
  ASSERT_TRUE(without_hash.ok());
  const RuleRegistry& registry = RuleRegistry::Instance();
  const RuleId hash = registry.FindByName("HashJoinImpl1");
  const RuleId grace = registry.FindByName("GraceHashJoinImpl");

  CompileSession session;
  Result<CompiledPlan> first = optimizer.Compile(job, def, CompileControl{}, &session);
  Result<CompiledPlan> second =
      optimizer.Compile(job, without_hash.value(), CompileControl{}, &session);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.misses(), 1);
  EXPECT_EQ(session.hits(), 1);
  EXPECT_EQ(first.value().memo_groups, 22);
  EXPECT_EQ(first.value().memo_exprs, 130);
  EXPECT_EQ(second.value().memo_groups, 22);
  EXPECT_EQ(second.value().memo_exprs, 126);
  EXPECT_TRUE(first.value().signature.Test(hash));
  EXPECT_FALSE(first.value().signature.Test(grace));
  EXPECT_TRUE(second.value().signature.Test(grace));
  EXPECT_FALSE(second.value().signature.Test(hash));
  EXPECT_EQ(PlanHash(first.value().root, false), PlanHash(second.value().root, false));
  EXPECT_EQ(DoubleBits(first.value().est_cost), DoubleBits(second.value().est_cost));

  for (const auto& [config, shared] :
       {std::pair{def, &first.value()}, std::pair{without_hash.value(), &second.value()}}) {
    Result<CompiledPlan> plain = optimizer.Compile(job, config);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(PlanHash(plain.value().root, false), PlanHash(shared->root, false));
    EXPECT_EQ(plain.value().signature, shared->signature);
    EXPECT_EQ(DoubleBits(plain.value().est_cost), DoubleBits(shared->est_cost));
    EXPECT_EQ(plain.value().memo_groups, shared->memo_groups);
    EXPECT_EQ(plain.value().memo_exprs, shared->memo_exprs);
  }
}

TEST_F(CompileCachePipelineTest, ConcurrentMixedAccessIsSafe) {
  // TSan target: batch recompiles, serving-path compiles, and stats readers
  // all hammer one pipeline's cache concurrently.
  SteeringPipeline pipeline(&optimizer_, &simulator_, Options(/*cache_mb=*/8, /*threads=*/2));
  std::vector<Job> jobs = Jobs(4, /*day=*/1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { pipeline.RecompileJobs(jobs); });
  threads.emplace_back([&] { pipeline.RecompileJobs(jobs); });
  threads.emplace_back([&] {
    for (int i = 0; i < 40; ++i) {
      // qsteer-lint: allow(unchecked-status) stress thread; only the cache traffic matters
      (void)pipeline.CompileCached(jobs[static_cast<size_t>(i) % jobs.size()],
                                   RuleConfig::Default());
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      CompileCacheStats stats = pipeline.compile_cache_stats();
      ASSERT_GE(stats.bytes, 0);
    }
  });
  for (std::thread& thread : threads) thread.join();
  CompileCacheStats stats = pipeline.compile_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
}

TEST(RecommendFast, MatchesLockedRecommendAndCountsServes) {
  DurableStoreOptions options;  // ephemeral
  options.recommender.validation_runs = 0;  // adopt immediately
  DurableRecommenderStore store(options);
  ASSERT_TRUE(store.Open().ok());

  RuleSignature known = BitVector256::FromIndices({1, 5, 90});
  RuleSignature unknown = BitVector256::FromIndices({2, 6, 91});
  SteeringRecommender::CandidateObservation observation;
  observation.signature = known;
  observation.config = RuleConfig::AllEnabled();
  observation.improvement_pct = -25.0;
  ASSERT_TRUE(store.LearnCandidate(observation));

  // Known adopted group: fast path must serve the stored config from the view.
  SteeringRecommender::Recommendation fast = store.RecommendFast(known);
  EXPECT_FALSE(fast.is_default);
  EXPECT_EQ(fast.config.Hash(), RuleConfig::AllEnabled().Hash());
  EXPECT_EQ(fast.expected_improvement_pct, -25.0);
  // Unknown group: pure default, also from the view.
  EXPECT_TRUE(store.RecommendFast(unknown).is_default);
  EXPECT_EQ(store.fast_recommends(), 2);
  EXPECT_EQ(store.locked_recommends(), 0);

  // Trip the breaker open: the cooldown tick must route to the locked,
  // journaled path and behave exactly like Recommend().
  store.ObserveOutcome(known, 50.0);
  store.ObserveOutcome(known, 50.0);
  SteeringRecommender::Recommendation open_rec = store.RecommendFast(known);
  EXPECT_TRUE(open_rec.is_default);
  EXPECT_EQ(store.locked_recommends(), 1);
  EXPECT_EQ(store.applied_seq(), 4u);  // learn + 2 outcomes + 1 journaled tick
}

TEST(RecommendFast, SnapshotTracksMutationsImmediately) {
  DurableStoreOptions options;
  options.recommender.validation_runs = 1;
  DurableRecommenderStore store(options);
  ASSERT_TRUE(store.Open().ok());

  RuleSignature sig = BitVector256::FromIndices({3, 7});
  SteeringRecommender::CandidateObservation observation;
  observation.signature = sig;
  observation.config = RuleConfig::AllEnabled();
  observation.improvement_pct = -30.0;
  ASSERT_TRUE(store.LearnCandidate(observation));
  // Pending validation: not yet adopted, fast path serves the default.
  EXPECT_TRUE(store.RecommendFast(sig).is_default);
  store.ObserveValidation(sig, -20.0);
  // Validated: the republished view serves it without any locked call.
  int64_t locked_before = store.locked_recommends();
  EXPECT_FALSE(store.RecommendFast(sig).is_default);
  EXPECT_EQ(store.locked_recommends(), locked_before);
}

}  // namespace
}  // namespace qsteer
