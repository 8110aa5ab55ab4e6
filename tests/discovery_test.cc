// Sharded discovery orchestrator: manifest/artifact roundtrip, partition
// determinism, the bit-identity of the sharded merge against the unsharded
// reference across shard and worker counts, lease/straggler accounting,
// resume classification (reuse / recompute / quarantine / stale), and the
// persistent compile-cache warm start. The crash-window kill schedule is
// exercised exhaustively by shard_chaos_test; here resume is driven by
// targeted single kills and hand-damaged files.
#include "discovery/orchestrator.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "discovery/manifest.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_discovery_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }
  std::string File(const std::string& name) const { return (dir_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// qsteer-lint: allow(crc-before-trust) test helper reads bytes to corrupt or inspect them; verification is the code under test
std::string RawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void RawWrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string HexSig(int bit) {
  RuleSignature s;
  s.Set(bit);
  return s.ToHexString();
}

// ------------------------------------------------------------- manifest

ShardArtifact SampleArtifact() {
  ShardArtifact artifact;
  artifact.workload = "D";
  artifact.day = 7;
  artifact.shard_index = 2;
  artifact.num_shards = 8;
  artifact.partition_hash = 0xdeadbeefcafe1234ull;
  artifact.jobs = 3;
  artifact.observations.push_back({HexSig(3), -33.333333333333336, "DISABLE(JoinCommute)"});
  artifact.observations.push_back({HexSig(9), -0.125, ""});
  ShardDiffRow row;
  row.signature_hex = HexSig(3);
  row.change_pct = -33.333333333333336;
  row.job_name = "D-t03-d007-s02";
  row.only_in_default = {4, 17, 102};
  row.only_in_new = {};
  artifact.diff_rows.push_back(row);
  ShardDiffRow empty_ids;
  empty_ids.signature_hex = HexSig(9);
  empty_ids.change_pct = -0.125;
  empty_ids.job_name = "D-t09-d007-s01";
  artifact.diff_rows.push_back(empty_ids);
  return artifact;
}

TEST(ShardArtifactTest, SerializeParseRoundtripIsExact) {
  ShardArtifact artifact = SampleArtifact();
  Result<ShardArtifact> parsed = ShardArtifact::Parse(artifact.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ShardArtifact& back = parsed.value();
  EXPECT_EQ(back.workload, "D");
  EXPECT_EQ(back.day, 7);
  EXPECT_EQ(back.shard_index, 2);
  EXPECT_EQ(back.num_shards, 8);
  EXPECT_EQ(back.partition_hash, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(back.jobs, 3);
  ASSERT_EQ(back.observations.size(), 2u);
  EXPECT_EQ(back.observations[0].signature_hex, HexSig(3));
  // %.17g preserves the double bit-for-bit through the text form.
  EXPECT_EQ(back.observations[0].improvement_pct, -33.333333333333336);
  EXPECT_EQ(back.observations[0].hints, "DISABLE(JoinCommute)");
  EXPECT_EQ(back.observations[1].hints, "");
  ASSERT_EQ(back.diff_rows.size(), 2u);
  EXPECT_EQ(back.diff_rows[0].only_in_default, (std::vector<int>{4, 17, 102}));
  EXPECT_TRUE(back.diff_rows[0].only_in_new.empty());
  EXPECT_TRUE(back.diff_rows[1].only_in_default.empty());
  // The roundtrip is byte-stable: parse(serialize(x)).serialize == serialize(x).
  EXPECT_EQ(back.Serialize(), artifact.Serialize());
}

TEST(ShardArtifactTest, ParseRejectsWrongHeaderAndTruncation) {
  EXPECT_FALSE(ShardArtifact::Parse("").ok());
  EXPECT_FALSE(ShardArtifact::Parse("# some other file v1\n").ok());
  std::string bytes = SampleArtifact().Serialize();
  EXPECT_FALSE(ShardArtifact::Parse(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(ShardManifestTest, RoundtripAndMatchesRequireSamePartitionIdentity) {
  ShardArtifact artifact = SampleArtifact();
  ShardManifest manifest;
  manifest.workload = artifact.workload;
  manifest.day = artifact.day;
  manifest.shard_index = artifact.shard_index;
  manifest.num_shards = artifact.num_shards;
  manifest.partition_hash = artifact.partition_hash;
  manifest.jobs = artifact.jobs;
  manifest.groups = 2;
  manifest.attempt = 2;
  manifest.artifact_file = ShardArtifactName(2);
  manifest.artifact_bytes = static_cast<int64_t>(artifact.Serialize().size());
  manifest.artifact_crc32 = 0x89abcdefu;

  Result<ShardManifest> parsed = ShardManifest::Parse(manifest.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Serialize(), manifest.Serialize());
  EXPECT_EQ(parsed.value().artifact_crc32, 0x89abcdefu);
  EXPECT_EQ(parsed.value().attempt, 2);

  EXPECT_TRUE(manifest.Matches(artifact));
  ShardArtifact foreign = artifact;
  foreign.partition_hash ^= 1;
  EXPECT_FALSE(manifest.Matches(foreign));
  foreign = artifact;
  foreign.day = 8;
  EXPECT_FALSE(manifest.Matches(foreign));
  foreign = artifact;
  foreign.num_shards = 16;
  EXPECT_FALSE(manifest.Matches(foreign));
}

TEST(ShardManifestTest, FileNamesAreStable) {
  EXPECT_EQ(ShardArtifactName(0), "shard_00000.artifact");
  EXPECT_EQ(ShardManifestName(13), "shard_00013.manifest");
}

// ----------------------------------------------------------- orchestrator

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest() : workload_(Spec()) {}

  static WorkloadSpec Spec() {
    WorkloadSpec spec;
    spec.name = "D";
    spec.seed = 7117;
    spec.num_templates = 12;
    spec.num_stream_sets = 10;
    return spec;
  }

  static DiscoveryOptions Options(const std::string& dir) {
    DiscoveryOptions options;
    options.dir = dir;
    options.num_shards = 4;
    options.max_jobs = 16;
    options.pipeline.max_candidate_configs = 24;
    options.pipeline.configs_to_execute = 4;
    return options;
  }

  UnshardedDiscovery Reference(int day, DiscoveryOptions options) {
    Result<UnshardedDiscovery> reference = DiscoverUnsharded(&workload_, day, options);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    return reference.value();
  }

  DiscoveryResult RunToCompletion(int day, const DiscoveryOptions& options) {
    ShardOrchestrator orchestrator(&workload_, day, options);
    Result<DiscoveryResult> run = orchestrator.Run();
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.value();
  }

  Workload workload_;
};

TEST_F(DiscoveryTest, MergeIsBitIdenticalAcrossShardAndWorkerCounts) {
  // The headline invariant: for every shard count and every worker count,
  // the merged recommender store and merged rule-diff table are the exact
  // bytes of the single-process unsharded pass.
  UnshardedDiscovery reference = Reference(3, Options(""));
  ASSERT_FALSE(reference.store.empty());
  ASSERT_FALSE(reference.diff_table.empty());
  for (int shards : {1, 3, 8}) {
    for (int workers : {0, 4}) {
      TempDir dir;
      DiscoveryOptions options = Options(dir.path());
      options.num_shards = shards;
      options.num_workers = workers;
      DiscoveryResult result = RunToCompletion(3, options);
      ASSERT_TRUE(result.completed);
      EXPECT_EQ(result.merged_store, reference.store)
          << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(result.merged_diff_table, reference.diff_table)
          << "shards=" << shards << " workers=" << workers;
      EXPECT_EQ(result.counters.jobs_analyzed, reference.jobs_analyzed);
      EXPECT_EQ(result.counters.shards_recomputed, shards);
    }
  }
}

TEST_F(DiscoveryTest, ResumeOfACompletedRunReusesEveryShardWithoutRecompute) {
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  DiscoveryResult first = RunToCompletion(5, options);
  ASSERT_TRUE(first.completed);

  options.resume = true;
  DiscoveryResult second = RunToCompletion(5, options);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.counters.shards_reused, options.num_shards);
  EXPECT_EQ(second.counters.shards_recomputed, 0);
  EXPECT_EQ(second.counters.shards_quarantined, 0);
  EXPECT_EQ(second.counters.jobs_analyzed, 0) << "no job re-analyzed";
  EXPECT_EQ(second.merged_store, first.merged_store);
  EXPECT_EQ(second.merged_diff_table, first.merged_diff_table);
}

TEST_F(DiscoveryTest, ResumeAfterMidRunKillIsByteIdenticalAcrossWorkerCounts) {
  // The golden crash-resume contract: kill the orchestrator mid-run (after
  // two shard commits), resume, and the merged RuleDiff tables must be
  // byte-identical to an uninterrupted run — for 1, 2, and 8 workers.
  UnshardedDiscovery reference = Reference(4, Options(""));
  for (int workers : {1, 2, 8}) {
    TempDir dir;
    DiscoveryOptions options = Options(dir.path());
    options.num_workers = workers;
    // Windows visit in order: post-partition, then 3 per committed shard.
    // Index 6 is the post-manifest window of the second commit: two shards
    // are durable, two are not.
    options.crash_hook_for_testing = [](const DiscoveryCrashPoint& point) {
      DiscoveryCrashDecision decision;
      decision.crash = point.index == 6;
      return decision;
    };
    DiscoveryResult killed = RunToCompletion(4, options);
    ASSERT_FALSE(killed.completed);
    EXPECT_EQ(killed.crash_window, "post-manifest");

    options.crash_hook_for_testing = nullptr;
    options.resume = true;
    DiscoveryResult resumed = RunToCompletion(4, options);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.counters.shards_reused, 2) << "workers=" << workers;
    EXPECT_EQ(resumed.counters.shards_recomputed, 2);
    EXPECT_EQ(resumed.counters.shards_quarantined, 0);
    EXPECT_EQ(resumed.merged_store, reference.store) << "workers=" << workers;
    EXPECT_EQ(resumed.merged_diff_table, reference.diff_table) << "workers=" << workers;
  }
}

TEST_F(DiscoveryTest, TornArtifactUnderValidManifestIsQuarantinedAndRecomputed) {
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  DiscoveryResult first = RunToCompletion(3, options);
  ASSERT_TRUE(first.completed);

  // Bit rot after commit: the manifest is intact but the artifact bytes no
  // longer match its fingerprint. Resume must quarantine, not trust.
  std::string artifact_path = dir.File(ShardArtifactName(1));
  std::string bytes = RawRead(artifact_path);
  ASSERT_FALSE(bytes.empty());
  RawWrite(artifact_path, bytes.substr(0, bytes.size() / 2));

  options.resume = true;
  DiscoveryResult second = RunToCompletion(3, options);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.counters.shards_quarantined, 1);
  EXPECT_EQ(second.counters.shards_reused, options.num_shards - 1);
  EXPECT_EQ(second.counters.shards_recomputed, 1);
  EXPECT_TRUE(std::filesystem::exists(artifact_path + ".quarantined"));
  EXPECT_EQ(second.merged_store, first.merged_store);
  EXPECT_EQ(second.merged_diff_table, first.merged_diff_table);
}

TEST_F(DiscoveryTest, CorruptManifestIsQuarantinedAndRecomputed) {
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  DiscoveryResult first = RunToCompletion(3, options);
  ASSERT_TRUE(first.completed);

  std::string manifest_path = dir.File(ShardManifestName(2));
  std::string bytes = RawRead(manifest_path);
  ASSERT_GT(bytes.size(), 10u);
  bytes[10] ^= 0x01;  // the crc32 footer no longer matches
  RawWrite(manifest_path, bytes);

  options.resume = true;
  DiscoveryResult second = RunToCompletion(3, options);
  ASSERT_TRUE(second.completed);
  EXPECT_GE(second.counters.shards_quarantined, 1);
  EXPECT_EQ(second.counters.shards_recomputed, 1);
  EXPECT_TRUE(std::filesystem::exists(manifest_path + ".quarantined"));
  EXPECT_EQ(second.merged_store, first.merged_store);
}

TEST_F(DiscoveryTest, MissingManifestMeansUncommittedRecomputeWithoutQuarantine) {
  // An artifact without its manifest is simply an uncommitted shard (the
  // crash fell between the two writes): recompute, nothing to quarantine.
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  DiscoveryResult first = RunToCompletion(3, options);
  ASSERT_TRUE(first.completed);
  std::filesystem::remove(dir.File(ShardManifestName(0)));

  options.resume = true;
  DiscoveryResult second = RunToCompletion(3, options);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(second.counters.shards_quarantined, 0);
  EXPECT_EQ(second.counters.shards_recomputed, 1);
  EXPECT_EQ(second.counters.shards_reused, options.num_shards - 1);
  EXPECT_EQ(second.merged_store, first.merged_store);
}

TEST_F(DiscoveryTest, ForeignPartitionArtifactsAreStaleNotTrusted) {
  // Artifacts from a run over a different job selection (different
  // partition hash) are intact but belong to another partition: resume
  // must recompute, counting them stale, and must not quarantine them.
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  ASSERT_TRUE(RunToCompletion(3, options).completed);

  options.resume = true;
  options.max_jobs = 12;  // different day selection => different partition hash
  UnshardedDiscovery reference = Reference(3, options);
  DiscoveryResult result = RunToCompletion(3, options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.counters.shards_stale, options.num_shards);
  EXPECT_EQ(result.counters.shards_quarantined, 0);
  EXPECT_EQ(result.counters.shards_recomputed, options.num_shards);
  EXPECT_EQ(result.merged_store, reference.store);
}

TEST_F(DiscoveryTest, StragglersAreSpeculativelyRedispatchedWithoutChangingOutput) {
  // Every dispatch is a straggler: leases expire and speculative copies are
  // dispatched up to the attempt cap. The schedule shapes counters and
  // commit order only — the merged bytes must not move.
  UnshardedDiscovery reference = Reference(3, Options(""));
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  options.straggler_fraction = 1.0;
  options.straggler_factor = 100.0;
  options.lease_ticks = 50;
  DiscoveryResult result = RunToCompletion(3, options);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.counters.stragglers, 0);
  EXPECT_GT(result.counters.leases_expired, 0);
  EXPECT_GT(result.counters.speculative_dispatches, 0);
  EXPECT_GT(result.counters.leases_granted,
            static_cast<int64_t>(options.num_shards));
  EXPECT_GT(result.counters.makespan_ticks, 0);
  EXPECT_EQ(result.merged_store, reference.store);
  EXPECT_EQ(result.merged_diff_table, reference.diff_table);
}

TEST_F(DiscoveryTest, CacheWarmStartLoadsEntriesAndPreservesOutput) {
  TempDir cold_dir;
  TempDir warm_dir;
  TempDir cache_dir;
  std::string cache_file = cache_dir.File("compile_cache.qcc");

  DiscoveryOptions options = Options(cold_dir.path());
  options.save_cache_file = cache_file;
  DiscoveryResult cold = RunToCompletion(3, options);
  ASSERT_TRUE(cold.completed);
  ASSERT_TRUE(std::filesystem::exists(cache_file));

  DiscoveryOptions warm_options = Options(warm_dir.path());
  warm_options.warm_cache_file = cache_file;
  DiscoveryResult warm = RunToCompletion(3, warm_options);
  ASSERT_TRUE(warm.completed);
  EXPECT_GT(warm.counters.cache_warm_loaded, 0);
  EXPECT_EQ(warm.counters.cache_warm_rejected, 0);
  EXPECT_EQ(warm.merged_store, cold.merged_store) << "warm cache never changes plans";
  EXPECT_EQ(warm.merged_diff_table, cold.merged_diff_table);
}

TEST_F(DiscoveryTest, CorruptWarmCacheDegradesToColdNeverWrongPlans) {
  TempDir cold_dir;
  TempDir warm_dir;
  TempDir cache_dir;
  std::string cache_file = cache_dir.File("compile_cache.qcc");
  DiscoveryOptions options = Options(cold_dir.path());
  options.save_cache_file = cache_file;
  DiscoveryResult cold = RunToCompletion(3, options);
  ASSERT_TRUE(cold.completed);

  std::string bytes = RawRead(cache_file);
  bytes[bytes.size() / 2] ^= 0x40;
  RawWrite(cache_file, bytes);

  DiscoveryOptions warm_options = Options(warm_dir.path());
  warm_options.warm_cache_file = cache_file;
  DiscoveryResult warm = RunToCompletion(3, warm_options);
  ASSERT_TRUE(warm.completed);
  EXPECT_EQ(warm.counters.cache_warm_loaded, 0);
  EXPECT_GE(warm.counters.cache_warm_rejected, 1);
  EXPECT_EQ(warm.merged_store, cold.merged_store);
  EXPECT_EQ(warm.merged_diff_table, cold.merged_diff_table);
}

TEST_F(DiscoveryTest, SummaryAndMergedFilesAreChecksummedOnDisk) {
  TempDir dir;
  DiscoveryOptions options = Options(dir.path());
  DiscoveryResult result = RunToCompletion(3, options);
  ASSERT_TRUE(result.completed);
  for (const char* name :
       {"merged_recommendations.qrs", "merged_rulediff.txt", "discovery_summary.txt"}) {
    std::string raw = RawRead(dir.File(name));
    ASSERT_FALSE(raw.empty()) << name;
    EXPECT_NE(raw.find("# crc32 "), std::string::npos) << name << " lacks a footer";
  }
  Result<std::string> summary =
      ReadArtifact(dir.File("discovery_summary.txt"), kDiscoverySummaryHeader);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_NE(summary.value().find("budget: " + result.counters.budget.ToString() + "\n"),
            std::string::npos)
      << summary.value();
}

}  // namespace
}  // namespace qsteer
