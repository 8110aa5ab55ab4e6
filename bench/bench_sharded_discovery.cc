// Sharded-discovery bench: the crash-resumable orchestrator against the
// single-process reference pass, plus the persistent compile-cache warm
// start that ships yesterday's compiles into today's run.
//
// Scenarios (all over the same day of workload B):
//   1. unsharded reference      — DiscoverUnsharded, the ground-truth bytes
//   2. sharded cold             — full orchestrator run, cache saved at exit
//   3. sharded warm             — fresh directory, cache pre-warmed from (2)
//   4. pipeline warm hit-rate   — a fresh pipeline warmed from (2) re-analyzes
//                                 the day; its compile-cache hit rate is the
//                                 number CI floors (--min-hit-rate)
//   5. kill/resume soak         — the orchestrator is killed at a protocol
//                                 window on every execution and resumed until
//                                 done; measures crash-recovery overhead
//
// Verdicts: every merged output bit-identical to (1); warm start loads
// entries and rejects none; the soak loses no committed shard. Exits 1 on
// any verdict failure or when the warm hit rate lands below --min-hit-rate.
// Machine-readable summary in BENCH_sharded.json (cwd).
//
//   $ ./bench/bench_sharded_discovery [--smoke] [--min-hit-rate=0.5]
//         [--jobs=N] [--shards=N] [--workers=N]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "discovery/orchestrator.h"

using namespace qsteer;
using namespace qsteer::bench;

namespace {

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Self-cleaning scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_bench_sharded_" + std::string(tag) + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }
  std::string File(const std::string& name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

}  // namespace

int main(int argc, char** argv) {
  Header("Crash-resumable sharded discovery: cold vs warm start vs kill/resume",
         "the nightly discovery pass runs sharded over worker executions that can "
         "die mid-run; completed shards must survive (checksummed manifests), the "
         "merge must equal the unsharded pass bit-for-bit, and a persisted compile "
         "cache turns tomorrow's recurring compiles into hits");

  bool smoke = false;
  double min_hit_rate = -1.0;
  int num_jobs = 48;
  int num_shards = 4;
  int num_workers = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--min-hit-rate=", 15) == 0) {
      min_hit_rate = DoubleArg("--min-hit-rate", argv[i] + 15, 0.0, 1.0);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      num_jobs = IntArg("--jobs", argv[i] + 7, 1, 100000);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      num_shards = IntArg("--shards", argv[i] + 9, 1, 4096);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      num_workers = IntArg("--workers", argv[i] + 10, 0, 256);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) {
    num_jobs = 24;
    num_shards = 3;
    if (min_hit_rate < 0.0) min_hit_rate = 0.5;
  }
  const int day = 3;

  Workload workload(BenchSpec('B'));
  DiscoveryOptions base;
  base.num_shards = num_shards;
  base.num_workers = num_workers;
  base.max_jobs = num_jobs;
  base.pipeline.max_candidate_configs = static_cast<int>(30 * BenchScale());
  base.pipeline.configs_to_execute = 4;

  std::printf("workload B day %d, %d jobs, %d shards, %d workers, %d candidates/job\n\n",
              day, num_jobs, num_shards, num_workers, base.pipeline.max_candidate_configs);

  // ---- 1. unsharded reference ----
  UnshardedDiscovery reference;
  double unsharded_s = SecondsOf([&] {
    Result<UnshardedDiscovery> run = DiscoverUnsharded(&workload, day, base);
    if (!run.ok()) {
      std::fprintf(stderr, "unsharded pass failed: %s\n", run.status().ToString().c_str());
      std::exit(1);
    }
    reference = run.value();
  });

  // ---- 2. sharded cold + cache save ----
  ScratchDir cold_dir("cold");
  ScratchDir cache_dir("cache");
  std::string cache_file = cache_dir.File("compile_cache.qcc");
  DiscoveryOptions cold_options = base;
  cold_options.dir = cold_dir.path();
  cold_options.save_cache_file = cache_file;
  DiscoveryResult cold;
  double cold_s = SecondsOf([&] {
    ShardOrchestrator orchestrator(&workload, day, cold_options);
    Result<DiscoveryResult> run = orchestrator.Run();
    if (!run.ok() || !run.value().completed) {
      std::fprintf(stderr, "cold sharded run failed\n");
      std::exit(1);
    }
    cold = run.value();
  });

  // ---- 3. sharded warm (fresh directory, yesterday's cache) ----
  ScratchDir warm_dir("warm");
  DiscoveryOptions warm_options = base;
  warm_options.dir = warm_dir.path();
  warm_options.warm_cache_file = cache_file;
  DiscoveryResult warm;
  double warm_s = SecondsOf([&] {
    ShardOrchestrator orchestrator(&workload, day, warm_options);
    Result<DiscoveryResult> run = orchestrator.Run();
    if (!run.ok() || !run.value().completed) {
      std::fprintf(stderr, "warm sharded run failed\n");
      std::exit(1);
    }
    warm = run.value();
  });

  // ---- 4. pipeline warm hit-rate (the serving-tier warm start) ----
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions warm_pipeline_options = base.pipeline;
  warm_pipeline_options.num_threads = 0;
  SteeringPipeline warm_pipeline(&optimizer, &simulator, warm_pipeline_options);
  int64_t pipeline_loaded = 0;
  Status warm_status = warm_pipeline.WarmCompileCache(cache_file, day, &pipeline_loaded);
  std::vector<Job> day_jobs = workload.JobsForDay(day);
  if (static_cast<int>(day_jobs.size()) > num_jobs) day_jobs.resize(num_jobs);
  double warm_analyze_s =
      SecondsOf([&] { (void)warm_pipeline.AnalyzeJobs(day_jobs); });
  CompileCacheStats warm_stats = warm_pipeline.compile_cache_stats();
  double hit_rate = warm_stats.HitRate();

  // ---- 5. kill/resume soak: die at a window on every execution ----
  ScratchDir soak_dir("soak");
  DiscoveryOptions soak_options = base;
  soak_options.dir = soak_dir.path();
  int executions = 0;
  int64_t soak_quarantined = 0;
  DiscoveryResult soak;
  double soak_s = SecondsOf([&] {
    while (true) {
      ++executions;
      DiscoveryOptions options = soak_options;
      // Post-manifest of the first freshly computed shard: exactly one new
      // shard commits per execution (worst-case crash cadence that still
      // makes progress).
      options.crash_hook_for_testing = [](const DiscoveryCrashPoint& point) {
        DiscoveryCrashDecision decision;
        decision.crash = point.index == 3;
        return decision;
      };
      if (executions > num_shards) options.crash_hook_for_testing = nullptr;
      ShardOrchestrator orchestrator(&workload, day, options);
      Result<DiscoveryResult> run = orchestrator.Run();
      if (!run.ok()) {
        std::fprintf(stderr, "soak run failed: %s\n", run.status().ToString().c_str());
        std::exit(1);
      }
      soak = run.value();
      soak_quarantined += soak.counters.shards_quarantined;
      if (soak.completed) break;
      soak_options.resume = true;
      if (executions > num_shards + 8) {
        std::fprintf(stderr, "soak did not converge\n");
        std::exit(1);
      }
    }
  });

  // ---- report ----
  std::printf("%-34s %9s %9s %9s\n", "scenario", "wall_s", "speedup", "identical");
  auto row = [&](const char* name, double seconds, const std::string& store,
                 const std::string& table) {
    bool identical = store == reference.store && table == reference.diff_table;
    std::printf("%-34s %9.3f %8.2fx %9s\n", name, seconds,
                seconds > 0 ? unsharded_s / seconds : 0.0, identical ? "yes" : "NO");
    return identical;
  };
  std::printf("%-34s %9.3f %9s %9s\n", "unsharded reference", unsharded_s, "1.00x", "-");
  bool cold_identical = row("sharded cold", cold_s, cold.merged_store, cold.merged_diff_table);
  bool warm_identical = row("sharded warm", warm_s, warm.merged_store, warm.merged_diff_table);
  bool soak_identical =
      row("kill/resume soak", soak_s, soak.merged_store, soak.merged_diff_table);

  std::printf("\nwarm start: loaded=%lld rejected=%lld (warm file %s)\n",
              (long long)warm.counters.cache_warm_loaded,
              (long long)warm.counters.cache_warm_rejected,
              warm_status.ok() ? "accepted" : "REJECTED");
  std::printf("pipeline warm re-analysis: %.3fs, hit rate %.0f%% "
              "(%lld hits / %lld misses, %lld entries pre-loaded)\n",
              warm_analyze_s, hit_rate * 100.0, (long long)warm_stats.hits,
              (long long)warm_stats.misses, (long long)pipeline_loaded);
  std::printf("soak: %d executions (%d kills), %d shards, quarantined=%lld, "
              "crash-recovery overhead %.2fx vs cold\n",
              executions, executions - 1, num_shards, (long long)soak_quarantined,
              cold_s > 0 ? soak_s / cold_s : 0.0);
  std::printf("lease schedule (cold run): granted=%lld expired=%lld speculative=%lld "
              "stragglers=%lld makespan=%lld ticks\n",
              (long long)cold.counters.leases_granted,
              (long long)cold.counters.leases_expired,
              (long long)cold.counters.speculative_dispatches,
              (long long)cold.counters.stragglers,
              (long long)cold.counters.makespan_ticks);

  bool warm_loaded_ok = warm_status.ok() && warm.counters.cache_warm_loaded > 0 &&
                        warm.counters.cache_warm_rejected == 0;
  bool soak_safe = soak_quarantined == 0;
  bool hit_rate_ok = min_hit_rate < 0.0 || hit_rate >= min_hit_rate;
  bool all_identical = cold_identical && warm_identical && soak_identical;
  std::printf("\nverdicts: identical=%s warm_loaded=%s soak_lost_nothing=%s",
              all_identical ? "PASS" : "FAIL", warm_loaded_ok ? "PASS" : "FAIL",
              soak_safe ? "PASS" : "FAIL");
  if (min_hit_rate >= 0.0) {
    std::printf(" hit_rate>=%.0f%%=%s", min_hit_rate * 100.0,
                hit_rate_ok ? "PASS" : "FAIL");
  }
  std::printf("\n");
  Footer();

  FILE* json = std::fopen("BENCH_sharded.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"bench_sharded_discovery\",\n");
    std::fprintf(json,
                 "  \"description\": \"Sharded discovery orchestrator vs the unsharded "
                 "reference: cold run, compile-cache warm start, and a kill-at-every-"
                 "execution resume soak; merged outputs must be bit-identical "
                 "throughout.\",\n");
    std::fprintf(json, "  \"command\": \"./build/bench/bench_sharded_discovery%s\",\n",
                 smoke ? " --smoke" : "");
    std::fprintf(json, "  \"jobs\": %d,\n  \"shards\": %d,\n  \"workers\": %d,\n",
                 num_jobs, num_shards, num_workers);
    std::fprintf(json,
                 "  \"wall_s\": { \"unsharded\": %.3f, \"sharded_cold\": %.3f, "
                 "\"sharded_warm\": %.3f, \"kill_resume_soak\": %.3f, "
                 "\"warm_pipeline_reanalysis\": %.3f },\n",
                 unsharded_s, cold_s, warm_s, soak_s, warm_analyze_s);
    std::fprintf(json,
                 "  \"warm_start\": { \"entries_loaded\": %lld, \"rejected\": %lld, "
                 "\"pipeline_hit_rate\": %.4f },\n",
                 (long long)warm.counters.cache_warm_loaded,
                 (long long)warm.counters.cache_warm_rejected, hit_rate);
    std::fprintf(json,
                 "  \"soak\": { \"executions\": %d, \"kills\": %d, \"quarantined\": "
                 "%lld, \"recovery_overhead_vs_cold\": %.3f },\n",
                 executions, executions - 1, (long long)soak_quarantined,
                 cold_s > 0 ? soak_s / cold_s : 0.0);
    std::fprintf(json,
                 "  \"leases\": { \"granted\": %lld, \"expired\": %lld, "
                 "\"speculative\": %lld, \"stragglers\": %lld, \"makespan_ticks\": "
                 "%lld },\n",
                 (long long)cold.counters.leases_granted,
                 (long long)cold.counters.leases_expired,
                 (long long)cold.counters.speculative_dispatches,
                 (long long)cold.counters.stragglers,
                 (long long)cold.counters.makespan_ticks);
    std::fprintf(json, "  \"verdicts\": {\n");
    std::fprintf(json, "    \"merged_bit_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(json, "    \"warm_start_loaded\": %s,\n", warm_loaded_ok ? "true" : "false");
    std::fprintf(json, "    \"soak_lost_no_committed_shard\": %s,\n",
                 soak_safe ? "true" : "false");
    std::fprintf(json, "    \"warm_hit_rate_above_floor\": %s\n",
                 hit_rate_ok ? "true" : "false");
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_sharded.json\n");
  }

  return (all_identical && warm_loaded_ok && soak_safe && hit_rate_ok) ? 0 : 1;
}
