// qsteer — command-line driver for the steering library.
//
// Subcommands:
//   rules [category]                       list the rule registry
//   workload <A|B|C> [day]                 generated-workload statistics
//   compile <A|B|C> <template> <day> [hint-string]
//                                          compile a job (EXPLAIN output)
//   span <A|B|C> <template> <day>          Algorithm 1 job span
//   analyze <A|B|C> <template> <day> [threads] [flags]
//                                          full §5-§6 pipeline for one job;
//                                          threads > 0 parallelizes candidate
//                                          recompilation (same results; the
//                                          explorations line depends on the
//                                          thread count); also reports the
//                                          default plan's
//                                          per-node estimate-vs-truth
//                                          cardinality q-error summary. Flags:
//                                            --wal-dir=<dir>  recover the
//                                              durable store there, learn
//                                              this analysis into it and
//                                              snapshot it
//                                            --discovery-dir=<dir> print the
//                                              last discover-sharded summary
//                                              written there
//                                            --compile-budget=<n>
//                                              candidate compiles (0 = all)
//                                            --rank-candidates  spend the
//                                              budget on the ranker's top
//                                              candidates
//                                            --ranker-in=<file> warm the
//                                              ranker (requires
//                                              --rank-candidates)
//   calibrate <A|B|C|S|K> [day] [flags]    cost-model calibration harness:
//                                          deterministic probe queries,
//                                          selectivity q-error percentiles
//                                          and fitted cost weights per
//                                          stats model. Flags:
//                                            --stats-model=scalar|histogram|both
//                                            --smoke  small probe budget plus
//                                              a run-twice determinism check
//   serve <A|B|C> <days> [fault_level] [flags]
//                                          asynchronous steering service:
//                                          day-1 offline learning, then
//                                          online serving through the
//                                          bounded-queue service with
//                                          admission control. Flags:
//                                            --wal-dir=<dir>  durable store
//                                              (WAL + snapshots; recovers
//                                              prior state on start)
//                                            --snapshot-interval=<n>
//                                              events between snapshots
//                                              (requires --wal-dir)
//                                            --queue-capacity=<n>
//                                            --workers=<n>
//                                            --deadline=<seconds> shed
//                                              requests that would wait
//                                              longer than this
//                                            --compile-cache-mb=<MiB>
//                                              compile-cache budget
//                                              (0 disables)
//                                            --warm-cache=<file> pre-warm
//                                              the compile cache from a
//                                              discover-sharded --cache-out
//                                              file at startup (damage ->
//                                              cold start, never fatal)
//                                            --warm-cache-day=<n> day stamp
//                                              the warm file must carry
//                                              (-1 = accept any)
//   serve-fleet <A|B|C> <days> [flags]     replicated serving tier: N
//                                          replica stores behind a
//                                          consistent-hash router, leader
//                                          mutations shipped to followers,
//                                          deterministic failover. Flags:
//                                            --dir=<dir>  root directory
//                                              (replica_<i> subdirs; empty
//                                              = ephemeral replicas)
//                                            --replicas=<n> fleet size
//                                            --snapshot-interval=<n>
//                                            --staleness-bound=<n> events a
//                                              follower may trail before
//                                              shedding reads to the leader
//                                            --kill-every=<days> scripted
//                                              churn: kill a hashed replica
//                                              every N days, restart it the
//                                              next day
//                                            --vnodes=<n> ring points per
//                                              replica
//   discover-sharded <A|B|C|S|K> <day> --dir=<dir> [flags]
//                                          crash-resumable sharded discovery:
//                                          partition the day's jobs by
//                                          rule-signature group onto shards
//                                          (consistent hashing), dispatch
//                                          under deadline leases, commit
//                                          checksummed artifact+manifest
//                                          pairs, merge bit-identically to
//                                          an unsharded pass. Flags:
//                                            --shards=<n> --workers=<n>
//                                            --max-jobs=<n> cap the day
//                                            --resume  trust checksum-valid
//                                              shard artifacts already in
//                                              --dir (quarantine damage)
//                                            --kill-every=<k> crash at every
//                                              k-th protocol window and
//                                              auto-resume until complete
//                                            --cache-in=<file> warm the
//                                              compile cache from a prior
//                                              --cache-out artifact
//                                            --cache-out=<file> persist the
//                                              compile cache after the run
//                                            --verify-unsharded  also run
//                                              the single-process reference
//                                              pass and assert the merged
//                                              bytes match
//
// Hint strings use the §3.2 flag syntax, e.g.
//   qsteer compile B 4 7 "DISABLE(UnionAllToUnionAll);ENABLE(CorrelatedJoinOnUnionAll2)"
//
// Environment:
//   QSTEER_SCALE  workload scale in [1e-9, 1000] (default 0.005); a value
//                 outside that range, or not a number, exits 2 naming the
//                 variable.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "catalog/calibration.h"
#include "catalog/stats_model.h"
#include "common/argparse.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "discovery/orchestrator.h"
#include "service/replication.h"
#include "core/hints.h"
#include "core/pipeline.h"
#include "core/recommender.h"
#include "core/span.h"
#include "service/steering_service.h"
#include "optimizer/explain.h"
#include "optimizer/rule_registry.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qsteer <command> [args]\n"
               "  rules [Required|Off-by-default|On-by-default|Implementation]\n"
               "  workload <A|B|C> [day]\n"
               "  compile <A|B|C> <template> <day> [hint-string]\n"
               "  span <A|B|C> <template> <day>\n"
               "  analyze <A|B|C> <template> <day> [threads] [--wal-dir=DIR]\n"
               "        [--discovery-dir=DIR] [--compile-budget=N] [--rank-candidates]\n"
               "        [--ranker-in=FILE]\n"
               "  calibrate <A|B|C|S|K> [day] [--stats-model=scalar|histogram|both] "
               "[--smoke]\n"
               "  serve <A|B|C> <days> [fault_level] [--wal-dir=DIR] "
               "[--snapshot-interval=N]\n"
               "        [--queue-capacity=N] [--workers=N] [--deadline=SECONDS]\n"
               "        [--compile-cache-mb=N] [--warm-cache=FILE] [--warm-cache-day=N]\n"
               "  serve-fleet <A|B|C> <days> [--dir=DIR] [--replicas=N]\n"
               "        [--snapshot-interval=N] [--staleness-bound=N] "
               "[--kill-every=DAYS]\n"
               "        [--vnodes=N]\n"
               "  discover-sharded <A|B|C|S|K> <day> --dir=DIR [--shards=N] "
               "[--workers=N]\n"
               "        [--max-jobs=N] [--resume] [--kill-every=K] "
               "[--cache-in=FILE]\n"
               "        [--cache-out=FILE] [--verify-unsharded] "
               "[--compile-budget=N]\n"
               "        [--rank-candidates] [--ranker-in=FILE] "
               "[--ranker-out=FILE]\n");
  return 2;
}

/// Validated positional-argument parsing: garbage or out-of-range values
/// name the offending argument instead of silently becoming 0 (atoi).
bool ParsePositional(const char* label, const char* arg, int min_value, int max_value,
                     int* out) {
  if (ParseIntArg(arg, min_value, max_value, out)) return true;
  std::fprintf(stderr, "qsteer: bad %s '%s' (expected integer in [%d, %d])\n", label, arg,
               min_value, max_value);
  return false;
}

/// Stores the value of a `--flag=PATH` argument in *out. An empty PATH is
/// an error: it would otherwise read as "flag not given".
bool ParsePathFlag(const char* command, const char* arg, std::string* out) {
  const char* eq = std::strchr(arg, '=');
  *out = eq + 1;
  if (!out->empty()) return true;
  std::fprintf(stderr, "qsteer %s: %.*s requires a value\n", command,
               static_cast<int>(eq - arg), arg);
  return false;
}

/// The named workload at QSTEER_SCALE. A malformed scale exits 2: running
/// at the default instead would silently change the workload.
WorkloadSpec SpecFor(const std::string& which) {
  double scale = 0.005;
  if (const char* env = std::getenv("QSTEER_SCALE")) {
    if (!ParseDoubleArg(env, 1e-9, 1000.0, &scale)) {
      std::fprintf(stderr,
                   "qsteer: bad QSTEER_SCALE '%s' (expected a number in [1e-9, 1000])\n", env);
      std::exit(2);
    }
  }
  if (which == "B") return WorkloadSpec::WorkloadB(scale);
  if (which == "C") return WorkloadSpec::WorkloadC(scale);
  if (which == "S") return WorkloadSpec::CorrelatedSkew(scale);
  if (which == "K") return WorkloadSpec::StaleHistogramCliff(scale);
  return WorkloadSpec::WorkloadA(scale);
}

int CmdRules(int argc, char** argv) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::string filter = argc > 0 ? argv[0] : "";
  for (RuleId id = 0; id < kNumRules; ++id) {
    const char* category = RuleCategoryName(CategoryOfRule(id));
    if (!filter.empty() && filter != category) continue;
    std::printf("%3d  %-16s %s\n", id, category, registry.name(id).c_str());
  }
  return 0;
}

int CmdWorkload(int argc, char** argv) {
  if (argc < 1) return Usage();
  Workload workload(SpecFor(argv[0]));
  int day = 1;
  if (argc > 1 && !ParsePositional("day", argv[1], 1, 1000000, &day)) return 2;
  std::vector<Job> jobs = workload.JobsForDay(day);
  std::printf("workload %s day %d: %zu jobs from %d templates over %d stream sets\n",
              argv[0], day, jobs.size(), workload.num_templates(),
              workload.catalog().num_stream_sets());
  double ops = 0;
  int with_hints = 0;
  for (const Job& job : jobs) {
    ops += job.NumOperators();
    if (!job.customer_hints.empty()) ++with_hints;
  }
  if (!jobs.empty()) {
    std::printf("mean operators/job: %.1f; jobs with customer hints: %d\n",
                ops / static_cast<double>(jobs.size()), with_hints);
  }
  return 0;
}

int CmdCompile(int argc, char** argv) {
  if (argc < 3) return Usage();
  Workload workload(SpecFor(argv[0]));
  int template_id = 0, day = 0;
  if (!ParsePositional("template", argv[1], 0, 1000000, &template_id) ||
      !ParsePositional("day", argv[2], 1, 1000000, &day)) {
    return 2;
  }
  Job job = workload.MakeJob(template_id, day);
  RuleConfig config = ProductionConfig(job);
  if (argc > 3) {
    Result<RuleConfig> parsed = ParseHintString(argv[3]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad hint string: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    config = parsed.value();
  }
  Optimizer optimizer(&workload.catalog());
  Result<CompiledPlan> plan = optimizer.Compile(job, config);
  if (!plan.ok()) {
    std::fprintf(stderr, "compilation failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n%s", job.name.c_str(),
              ExplainPlan(workload.catalog(), job, plan.value()).c_str());
  return 0;
}

int CmdSpan(int argc, char** argv) {
  if (argc < 3) return Usage();
  Workload workload(SpecFor(argv[0]));
  Optimizer optimizer(&workload.catalog());
  int template_id = 0, day = 0;
  if (!ParsePositional("template", argv[1], 0, 1000000, &template_id) ||
      !ParsePositional("day", argv[2], 1, 1000000, &day)) {
    return 2;
  }
  Job job = workload.MakeJob(template_id, day);
  SpanResult span = ComputeJobSpan(optimizer, job);
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::printf("%s: span of %d rules (%d iterations%s)\n", job.name.c_str(),
              span.span.Count(), span.iterations,
              span.ended_on_compile_failure ? ", ended on compile failure" : "");
  for (int id : span.span.ToIndices()) {
    std::printf("  %3d  %-16s %s\n", id, RuleCategoryName(CategoryOfRule(id)),
                registry.name(id).c_str());
  }
  return 0;
}

int CmdAnalyze(int argc, char** argv) {
  std::vector<const char*> positional;
  std::string wal_dir;
  std::string discovery_dir;
  std::string ranker_in;
  int compile_budget = 0;
  bool rank_candidates = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--wal-dir=", 10) == 0) {
      if (!ParsePathFlag("analyze", argv[i], &wal_dir)) return 2;
    } else if (std::strncmp(argv[i], "--discovery-dir=", 16) == 0) {
      if (!ParsePathFlag("analyze", argv[i], &discovery_dir)) return 2;
    } else if (std::strncmp(argv[i], "--compile-budget=", 17) == 0) {
      if (!ParseIntArg(argv[i] + 17, 0, 1 << 30, &compile_budget)) {
        std::fprintf(stderr, "qsteer analyze: bad --compile-budget '%s'\n", argv[i] + 17);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--rank-candidates") == 0) {
      rank_candidates = true;
    } else if (std::strncmp(argv[i], "--ranker-in=", 12) == 0) {
      if (!ParsePathFlag("analyze", argv[i], &ranker_in)) return 2;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "qsteer analyze: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 3) return Usage();
  if (!ranker_in.empty() && !rank_candidates) {
    std::fprintf(stderr, "qsteer analyze: --ranker-in requires --rank-candidates\n");
    return 2;
  }
  Workload workload(SpecFor(positional[0]));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions options;
  options.max_candidate_configs = 200;
  options.compile_budget = compile_budget;
  options.rank_candidates = rank_candidates;
  int template_id = 0, day = 0;
  if (!ParsePositional("template", positional[1], 0, 1000000, &template_id) ||
      !ParsePositional("day", positional[2], 1, 1000000, &day)) {
    return 2;
  }
  if (positional.size() > 3 &&
      !ParsePositional("threads", positional[3], -1, 1024, &options.num_threads)) {
    return 2;
  }
  SteeringPipeline pipeline(&optimizer, &simulator, options);
  if (!ranker_in.empty()) {
    // Rejection (corrupt, version mismatch) is non-fatal: rank cold.
    Status warm = pipeline.WarmRanker(ranker_in);
    if (!warm.ok()) {
      std::fprintf(stderr, "qsteer analyze: ranker warm-start rejected (%s); ranking cold\n",
                   warm.ToString().c_str());
    }
  }
  Job job = workload.MakeJob(template_id, day);
  JobAnalysis analysis = pipeline.AnalyzeJob(job);
  if (analysis.default_plan.root == nullptr) {
    std::fprintf(stderr, "default compilation failed\n");
    return 1;
  }
  std::printf("%s\n  span: %d rules; candidates: %d (%d compiled, %d failed, %d timed "
              "out, %d cheaper than default)\n  default runtime: %.1f s (cost %.2f)\n",
              job.name.c_str(), analysis.span.span.Count(), analysis.candidates_generated,
              analysis.recompiled_ok, analysis.compile_failures, analysis.compile_timeouts,
              analysis.cheaper_than_default, analysis.default_metrics.runtime,
              analysis.default_plan.est_cost);
  std::printf("  executed alternatives:\n");
  for (const ConfigOutcome& outcome : analysis.executed) {
    double change = (outcome.metrics.runtime - analysis.default_metrics.runtime) /
                    analysis.default_metrics.runtime * 100.0;
    std::printf("    %+7.1f%%  cost %.2f  hints: %s\n", change, outcome.plan.est_cost,
                ToHintString(outcome.config).substr(0, 110).c_str());
  }
  const ConfigOutcome* best = analysis.BestBy(Metric::kRuntime);
  if (best != nullptr) {
    std::printf("  best change: %+.1f%%\n  RuleDiff: %s\n", analysis.BestRuntimeChangePct(),
                best->diff_vs_default.ToString().c_str());
  }
  if (analysis.exec_failures > 0) {
    std::printf("  degraded: %d alternative run(s) stayed failed after retries "
                "(default plan kept)\n",
                analysis.exec_failures);
  }
  std::printf("  compile cache: %s\n  span-equivalent candidates pruned: %d\n",
              pipeline.compile_cache_stats().ToString().c_str(),
              analysis.span_duplicates_pruned);
  std::printf("  explorations: %s\n", pipeline.exploration_stats().ToString().c_str());
  if (rank_candidates || compile_budget > 0) {
    std::printf("  budget: %s\n", pipeline.budget_stats().ToString().c_str());
  }
  // How wrong the optimizer's beliefs were for this job: per-node
  // estimate-vs-truth cardinality q-error over the default plan, under the
  // catalog's active stats model.
  QErrorSummary gap =
      PlanCardinalityQError(workload.catalog(), job, analysis.default_plan.root);
  std::printf("  estimate-vs-truth cardinality q-error (%s model, %d plan nodes): "
              "p50 %.2f  p95 %.2f  max %.2f\n",
              workload.catalog().stats_model().name(), gap.count, gap.p50, gap.p95, gap.max);
  if (!discovery_dir.empty()) {
    // Surface the last sharded-discovery pass over this directory: shard /
    // lease / quarantine counters plus compile-cache warm stats, written
    // checksummed by the orchestrator's merge step.
    std::string summary_path = discovery_dir + "/discovery_summary.txt";
    Result<std::string> summary = ReadArtifact(summary_path, kDiscoverySummaryHeader);
    if (!summary.ok()) {
      std::fprintf(stderr, "qsteer analyze: cannot read %s: %s\n", summary_path.c_str(),
                   summary.status().ToString().c_str());
      return 1;
    }
    std::printf("  discovery summary (%s, checksum valid):\n", summary_path.c_str());
    // Indent the summary file under the analyze report.
    std::string indented = "    ";
    for (char c : summary.value()) {
      indented.push_back(c);
      if (c == '\n') indented += "    ";
    }
    while (!indented.empty() && indented.back() == ' ') indented.pop_back();
    std::printf("%s", indented.c_str());
  }
  if (!wal_dir.empty()) {
    // Durable mode: recover the store, report what recovery found (the
    // same RecoveryInfo the service status exposes), learn this analysis
    // into it, and say where the job's group stands.
    DurableStoreOptions store_options;
    store_options.dir = wal_dir;
    DurableRecommenderStore store(store_options);
    Status status = store.Open();
    if (!status.ok()) {
      std::fprintf(stderr, "qsteer analyze: store recovery failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("  durable store %s: %s; %d groups\n", wal_dir.c_str(),
                store.recovery().ToString().c_str(), store.num_groups());
    bool learned = store.LearnFromAnalysis(analysis);
    SteeringRecommender::Recommendation recommendation =
        store.Recommend(analysis.default_plan.signature);
    std::printf("  group %s: %s%s\n",
                analysis.default_plan.signature.ToHexString().substr(0, 16).c_str(),
                recommendation.is_default ? "serving default"
                                          : "steered recommendation available",
                learned ? " (this analysis learned as a candidate)" : "");
    status = store.Snapshot();
    if (!status.ok()) {
      std::fprintf(stderr, "qsteer analyze: final snapshot failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

int CmdCalibrate(int argc, char** argv) {
  std::vector<const char*> positional;
  std::string model_sel = "both";
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--stats-model=", 14) == 0) {
      model_sel = argv[i] + 14;
      if (model_sel != "scalar" && model_sel != "histogram" && model_sel != "both") {
        std::fprintf(stderr,
                     "qsteer calibrate: bad --stats-model '%s' "
                     "(scalar|histogram|both)\n",
                     model_sel.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "qsteer calibrate: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty()) return Usage();
  CalibrationOptions options;
  if (positional.size() > 1 &&
      !ParsePositional("day", positional[1], 0, 1000000, &options.day)) {
    return 2;
  }
  if (smoke) {
    options.probes_per_set = 2;
    options.max_sets = 6;
  }
  Workload workload(SpecFor(positional[0]));

  std::vector<std::shared_ptr<const StatsModel>> models;
  if (model_sel == "scalar" || model_sel == "both") {
    models.push_back(std::make_shared<ScalarStatsModel>());
  }
  if (model_sel == "histogram" || model_sel == "both") {
    models.push_back(std::make_shared<HistogramStatsModel>());
  }
  for (const std::shared_ptr<const StatsModel>& model : models) {
    CalibrationReport report = RunCalibration(workload.catalog(), *model, options);
    std::fputs(report.Serialize().c_str(), stdout);
    if (smoke) {
      // Purity check: the harness must be a function of (seed, catalog, day).
      CalibrationReport again = RunCalibration(workload.catalog(), *model, options);
      if (again.Serialize() != report.Serialize()) {
        std::fprintf(stderr, "qsteer calibrate: NON-DETERMINISTIC report for model %s\n",
                     model->name());
        return 1;
      }
    }
  }
  if (smoke) std::printf("smoke: reports deterministic across repeated runs\n");
  return 0;
}

struct ServeFlags {
  std::string wal_dir;
  int queue_capacity = 64;
  int snapshot_interval = 0;  // 0 = not set (store default applies)
  int workers = 2;
  double deadline_s = 0.0;
  int compile_cache_mb = 64;  // 0 disables the compile cache
  std::string warm_cache_file;
  int warm_cache_day = -1;  // -1 accepts any day stamp
};

/// Parses `--flag=value` arguments for `serve`. Returns false (after
/// printing a specific message) on unknown flags, missing values, values
/// outside their range, or conflicting combinations.
bool ParseServeFlag(const char* arg, ServeFlags* flags) {
  const char* eq = std::strchr(arg, '=');
  std::string name = eq != nullptr ? std::string(arg, eq - arg) : std::string(arg);
  const char* value = eq != nullptr ? eq + 1 : nullptr;
  if (value == nullptr || *value == '\0') {
    std::fprintf(stderr, "qsteer serve: flag %s requires a value (%s=...)\n", name.c_str(),
                 name.c_str());
    return false;
  }
  if (name == "--wal-dir") {
    flags->wal_dir = value;
    return true;
  }
  if (name == "--queue-capacity") {
    if (ParseIntArg(value, 1, 1 << 20, &flags->queue_capacity)) return true;
    std::fprintf(stderr, "qsteer serve: bad --queue-capacity '%s' (integer in [1, %d])\n",
                 value, 1 << 20);
    return false;
  }
  if (name == "--snapshot-interval") {
    if (ParseIntArg(value, 1, 1 << 30, &flags->snapshot_interval)) return true;
    std::fprintf(stderr, "qsteer serve: bad --snapshot-interval '%s' (integer >= 1)\n",
                 value);
    return false;
  }
  if (name == "--workers") {
    if (ParseIntArg(value, 1, 256, &flags->workers)) return true;
    std::fprintf(stderr, "qsteer serve: bad --workers '%s' (integer in [1, 256])\n", value);
    return false;
  }
  if (name == "--deadline") {
    if (ParseDoubleArg(value, 0.0, 1e9, &flags->deadline_s)) return true;
    std::fprintf(stderr, "qsteer serve: bad --deadline '%s' (seconds >= 0)\n", value);
    return false;
  }
  if (name == "--compile-cache-mb") {
    if (ParseIntArg(value, 0, 1 << 20, &flags->compile_cache_mb)) return true;
    std::fprintf(stderr,
                 "qsteer serve: bad --compile-cache-mb '%s' (MiB in [0, %d]; 0 disables)\n",
                 value, 1 << 20);
    return false;
  }
  if (name == "--warm-cache") {
    flags->warm_cache_file = value;
    return true;
  }
  if (name == "--warm-cache-day") {
    if (ParseIntArg(value, -1, 1000000, &flags->warm_cache_day)) return true;
    std::fprintf(stderr,
                 "qsteer serve: bad --warm-cache-day '%s' (day >= 1, or -1 for any)\n",
                 value);
    return false;
  }
  std::fprintf(stderr, "qsteer serve: unknown flag '%s'\n", name.c_str());
  return false;
}

int CmdServe(int argc, char** argv) {
  std::vector<const char*> positional;
  ServeFlags flags;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (!ParseServeFlag(argv[i], &flags)) return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) return Usage();
  if (flags.snapshot_interval > 0 && flags.wal_dir.empty()) {
    std::fprintf(stderr,
                 "qsteer serve: --snapshot-interval requires --wal-dir "
                 "(without a durable store there is nothing to snapshot)\n");
    return 2;
  }
  if (flags.warm_cache_file.empty() && flags.warm_cache_day >= 0) {
    std::fprintf(stderr,
                 "qsteer serve: --warm-cache-day requires --warm-cache "
                 "(there is no cache file to check the day stamp of)\n");
    return 2;
  }
  if (!flags.warm_cache_file.empty() && flags.compile_cache_mb <= 0) {
    std::fprintf(stderr,
                 "qsteer serve: --warm-cache requires --compile-cache-mb > 0 "
                 "(a disabled cache cannot be warmed)\n");
    return 2;
  }
  int days = 0;
  double fault_level = 0.0;
  if (!ParsePositional("days", positional[1], 1, 1000000, &days)) return 2;
  if (positional.size() > 2 && !ParseDoubleArg(positional[2], 0.0, 25.0, &fault_level)) {
    std::fprintf(stderr, "qsteer: bad fault_level '%s' (expected number in [0, 25])\n",
                 positional[2]);
    return 2;
  }

  Workload workload(SpecFor(positional[0]));
  Optimizer optimizer(&workload.catalog());
  SimulatorOptions sim_options;
  sim_options.fault_profile = FaultProfile::Flaky(fault_level);
  ExecutionSimulator simulator(&workload.catalog(), sim_options);

  ServiceOptions service_options;
  service_options.num_workers = flags.workers;
  service_options.queue_capacity = flags.queue_capacity;
  service_options.default_deadline_s = flags.deadline_s;
  service_options.pipeline.compile_cache_mb = flags.compile_cache_mb;
  service_options.warm_cache_file = flags.warm_cache_file;
  service_options.warm_cache_day = flags.warm_cache_day;
  service_options.store.dir = flags.wal_dir;
  if (flags.snapshot_interval > 0) {
    service_options.store.snapshot_interval = flags.snapshot_interval;
  }
  SteeringService service(&optimizer, &simulator, service_options);
  Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "qsteer serve: %s\n", started.ToString().c_str());
    return 1;
  }
  if (service.store().durable()) {
    std::printf("durable store %s: %s; %d groups recovered\n", flags.wal_dir.c_str(),
                service.store().recovery().ToString().c_str(),
                service.store().num_groups());
  }
  if (!flags.warm_cache_file.empty()) {
    CompileCacheStats cache = service.status().cache;
    std::printf("compile cache warm start %s: %lld entries loaded, %lld rejected%s\n",
                flags.warm_cache_file.c_str(), static_cast<long long>(cache.warm_loaded),
                static_cast<long long>(cache.warm_rejected),
                cache.warm_loaded == 0 ? " (cold start)" : "");
  }

  // Day 1 offline: learn and validate on the service's pipeline, so its
  // compile cache and counters see the analyses too.
  std::vector<Job> day1 = workload.JobsForDay(1);
  day1.resize(std::min<size_t>(day1.size(), 30));
  LearnDayStats day1_stats;
  // qsteer-lint: allow(unchecked-status) the store learns and takes the reports, and cannot fail them
  (void)LearnDay(service.pipeline(), day1, service.store(), &day1_stats);
  std::printf("day 1 offline: %d analyzed, %d learn events, %d groups\n", day1_stats.analyzed,
              day1_stats.learn_events, service.store().num_groups());
  std::printf("validation: %d groups serving, %d rejected\n", service.store().num_serving(),
              service.store().num_retired());

  // Days 2..N online: submit asynchronously through the bounded queue and
  // admission control, then collect the day's replies.
  for (int day = 2; day <= days; ++day) {
    double saved = 0, base = 0;
    int submitted = 0, steered = 0, shed = 0, rejected = 0;
    std::vector<std::future<ServiceReply>> replies;
    for (const Job& job : workload.JobsForDay(day)) {
      if (submitted >= 60) break;
      ++submitted;
      ServiceRequest request;
      request.job = job;
      std::future<ServiceReply> reply;
      switch (service.Submit(request, &reply)) {
        case AdmitResult::kAccepted:
          replies.push_back(std::move(reply));
          break;
        case AdmitResult::kShedDeadline:
          ++shed;
          break;
        default:
          ++rejected;
          break;
      }
    }
    for (std::future<ServiceReply>& reply : replies) {
      ServiceReply result = reply.get();
      if (!result.status.ok()) continue;
      if (result.steered) ++steered;
      base += result.default_runtime_s;
      saved += result.default_runtime_s - result.served_runtime_s;
    }
    std::printf("day %d: %d submitted (%d shed, %d rejected), %d steered, "
                "%.1f%% runtime saved\n",
                day, submitted, shed, rejected, steered,
                base > 0 ? saved / base * 100.0 : 0.0);
  }

  Status stopped = service.Shutdown();
  if (!stopped.ok()) {
    std::fprintf(stderr, "qsteer serve: final snapshot failed: %s\n",
                 stopped.ToString().c_str());
  }
  std::printf("%s", service.status().ToString().c_str());
  return 0;
}

struct ServeFleetFlags {
  std::string dir;
  int replicas = 3;
  int snapshot_interval = 32;
  int staleness_bound = 128;
  int kill_every = 0;  // kill one replica every N days (0 = no churn)
  int vnodes = 64;
};

bool ParseServeFleetFlag(const char* arg, ServeFleetFlags* flags) {
  const char* eq = std::strchr(arg, '=');
  std::string name = eq != nullptr ? std::string(arg, eq - arg) : std::string(arg);
  const char* value = eq != nullptr ? eq + 1 : nullptr;
  if (value == nullptr || *value == '\0') {
    std::fprintf(stderr, "qsteer serve-fleet: flag %s requires a value (%s=...)\n",
                 name.c_str(), name.c_str());
    return false;
  }
  if (name == "--dir") {
    flags->dir = value;
    return true;
  }
  if (name == "--replicas") {
    if (ParseIntArg(value, 1, 64, &flags->replicas)) return true;
    std::fprintf(stderr, "qsteer serve-fleet: bad --replicas '%s' (integer in [1, 64])\n",
                 value);
    return false;
  }
  if (name == "--snapshot-interval") {
    if (ParseIntArg(value, 1, 1 << 30, &flags->snapshot_interval)) return true;
    std::fprintf(stderr, "qsteer serve-fleet: bad --snapshot-interval '%s' (integer >= 1)\n",
                 value);
    return false;
  }
  if (name == "--staleness-bound") {
    if (ParseIntArg(value, 0, 1 << 30, &flags->staleness_bound)) return true;
    std::fprintf(stderr, "qsteer serve-fleet: bad --staleness-bound '%s' (integer >= 0)\n",
                 value);
    return false;
  }
  if (name == "--kill-every") {
    if (ParseIntArg(value, 0, 1 << 20, &flags->kill_every)) return true;
    std::fprintf(stderr,
                 "qsteer serve-fleet: bad --kill-every '%s' (days between kills; 0 off)\n",
                 value);
    return false;
  }
  if (name == "--vnodes") {
    if (ParseIntArg(value, 1, 4096, &flags->vnodes)) return true;
    std::fprintf(stderr, "qsteer serve-fleet: bad --vnodes '%s' (integer in [1, 4096])\n",
                 value);
    return false;
  }
  std::fprintf(stderr, "qsteer serve-fleet: unknown flag '%s'\n", name.c_str());
  return false;
}

/// Replicated serving: day-1 learning through the leader, days 2..N served
/// across the fleet by consistent-hashed routing, with optional scripted
/// kill/restart churn (the killed replica id is a hash of the day, so runs
/// are reproducible). Exits non-zero when the survivors' final states
/// diverge — the invariant the replication layer exists to keep.
int CmdServeFleet(int argc, char** argv) {
  std::vector<const char*> positional;
  ServeFleetFlags flags;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (!ParseServeFleetFlag(argv[i], &flags)) return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() != 2) return Usage();
  int days = 0;
  if (!ParsePositional("days", positional[1], 1, 1000000, &days)) return 2;

  Workload workload(SpecFor(positional[0]));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions pipeline_options;
  pipeline_options.max_candidate_configs = 60;
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);

  FleetOptions fleet_options;
  fleet_options.dir = flags.dir;
  fleet_options.num_replicas = flags.replicas;
  fleet_options.snapshot_interval = flags.snapshot_interval;
  fleet_options.staleness_bound = static_cast<uint64_t>(flags.staleness_bound);
  fleet_options.ring_vnodes = flags.vnodes;
  ReplicationFleet fleet(fleet_options);
  Status status = fleet.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "qsteer serve-fleet: %s\n", status.ToString().c_str());
    return 1;
  }
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    std::shared_ptr<DurableRecommenderStore> store =
        fleet.replica_store(static_cast<uint32_t>(i));
    std::printf("replica %d: %s\n", i, store->recovery().ToString().c_str());
  }

  // Day 1 offline: learn and report verdicts through the leader, which
  // replicates them to every follower; the gate reads its candidates.
  std::vector<Job> day1 = workload.JobsForDay(1);
  day1.resize(std::min<size_t>(day1.size(), 20));
  std::shared_ptr<DurableRecommenderStore> leader =
      fleet.replica_store(fleet.leader_id());
  LearnDayStats day1_stats;
  status = LearnDay(pipeline, day1, *leader, &day1_stats,
                    std::bind_front(&ReplicationFleet::LearnFromAnalysis, &fleet),
                    std::bind_front(&ReplicationFleet::ObserveValidation, &fleet));
  if (!status.ok()) {
    std::fprintf(stderr, "qsteer serve-fleet: day 1 failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("day 1 offline: %d analyzed, %d learn events, %d groups, %d serving, "
              "%d retired\n",
              day1_stats.analyzed, day1_stats.learn_events, leader->num_groups(),
              leader->num_serving(), leader->num_retired());

  // Days 2..N online: serve every job's signature through the fleet, with
  // hashed kill/restart churn at day boundaries.
  uint32_t killed = ConsistentHashRing::kNoReplica;
  for (int day = 2; day <= days; ++day) {
    if (flags.kill_every > 0 && fleet.num_replicas() > 1) {
      if (killed != ConsistentHashRing::kNoReplica) {
        // qsteer-lint: allow(unchecked-status) chaos driver; restarting an already-live replica is a no-op
        (void)fleet.Restart(killed);
        killed = ConsistentHashRing::kNoReplica;
      }
      if (day % flags.kill_every == 0) {
        killed = static_cast<uint32_t>(Mix64(0x9e3779b97f4a7c15ull ^ day) %
                                       fleet.num_replicas());
        // qsteer-lint: allow(unchecked-status) chaos driver; killing an already-dead replica is a no-op
        (void)fleet.Kill(killed);
      }
    }
    int served = 0, steered = 0, ticks = 0, rerouted = 0;
    for (const Job& job : workload.JobsForDay(day)) {
      if (served >= 60) break;
      Result<CompiledPlan> plan = pipeline.CompileCached(job, RuleConfig::Default());
      if (!plan.ok()) continue;
      ReplicationFleet::ServeResult result;
      status = fleet.Serve(plan.value().signature, &result);
      if (!status.ok()) continue;
      ++served;
      if (!result.recommendation.is_default) ++steered;
      if (result.ticked) ++ticks;
      if (result.rerouted) ++rerouted;
    }
    std::printf("day %d: %d served, %d steered, %d ticks, %d rerouted%s\n", day, served,
                steered, ticks, rerouted,
                killed != ConsistentHashRing::kNoReplica ? " [one replica down]" : "");
  }
  if (killed != ConsistentHashRing::kNoReplica) {
    // qsteer-lint: allow(unchecked-status) chaos driver; restarting an already-live replica is a no-op
    (void)fleet.Restart(killed);
  }

  status = fleet.CatchUpAll();
  if (!status.ok()) {
    std::fprintf(stderr, "qsteer serve-fleet: catch-up failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::string divergence;
  status = fleet.CheckConvergence(&divergence);
  std::printf("%s", fleet.status().ToString().c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "qsteer serve-fleet: DIVERGED: %s\n", divergence.c_str());
    return 1;
  }
  std::printf("convergence: all %d replicas bit-identical (epoch %llu)\n",
              fleet.num_replicas(), static_cast<unsigned long long>(fleet.epoch()));
  return 0;
}

int CmdDiscoverSharded(int argc, char** argv) {
  std::vector<const char*> positional;
  DiscoveryOptions options;
  int kill_every = 0;
  bool verify_unsharded = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      if (!ParsePathFlag("discover-sharded", argv[i], &options.dir)) return 2;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      if (!ParseIntArg(argv[i] + 9, 1, 4096, &options.num_shards)) {
        std::fprintf(stderr, "qsteer discover-sharded: bad --shards '%s'\n", argv[i] + 9);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      if (!ParseIntArg(argv[i] + 10, -1, 1024, &options.num_workers)) {
        std::fprintf(stderr, "qsteer discover-sharded: bad --workers '%s'\n",
                     argv[i] + 10);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-jobs=", 11) == 0) {
      if (!ParseIntArg(argv[i] + 11, 0, 1000000, &options.max_jobs)) {
        std::fprintf(stderr, "qsteer discover-sharded: bad --max-jobs '%s'\n",
                     argv[i] + 11);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--kill-every=", 13) == 0) {
      // The k-th crash window of a run is reached only after the windows
      // before it executed, and a shard is durable from its post-manifest
      // window (the 4th window a fresh run visits). k >= 4 therefore
      // guarantees every killed run first committed at least one new shard,
      // so the kill/resume loop always terminates.
      if (!ParseIntArg(argv[i] + 13, 4, 1000000, &kill_every)) {
        std::fprintf(stderr,
                     "qsteer discover-sharded: bad --kill-every '%s' (minimum 4: "
                     "smaller values can kill before any shard commits)\n",
                     argv[i] + 13);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      options.resume = true;
    } else if (std::strncmp(argv[i], "--cache-in=", 11) == 0) {
      if (!ParsePathFlag("discover-sharded", argv[i], &options.warm_cache_file)) return 2;
    } else if (std::strncmp(argv[i], "--cache-out=", 12) == 0) {
      if (!ParsePathFlag("discover-sharded", argv[i], &options.save_cache_file)) return 2;
    } else if (std::strncmp(argv[i], "--compile-budget=", 17) == 0) {
      int budget = 0;
      if (!ParseIntArg(argv[i] + 17, 0, 1 << 30, &budget)) {
        std::fprintf(stderr, "qsteer discover-sharded: bad --compile-budget '%s'\n",
                     argv[i] + 17);
        return 2;
      }
      options.fleet_compile_budget = budget;
    } else if (std::strcmp(argv[i], "--rank-candidates") == 0) {
      options.pipeline.rank_candidates = true;
    } else if (std::strncmp(argv[i], "--ranker-in=", 12) == 0) {
      if (!ParsePathFlag("discover-sharded", argv[i], &options.ranker_in)) return 2;
    } else if (std::strncmp(argv[i], "--ranker-out=", 13) == 0) {
      if (!ParsePathFlag("discover-sharded", argv[i], &options.ranker_out)) return 2;
    } else if (std::strcmp(argv[i], "--verify-unsharded") == 0) {
      verify_unsharded = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "qsteer discover-sharded: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.size() < 2) return Usage();
  if (options.dir.empty()) {
    std::fprintf(stderr, "qsteer discover-sharded: --dir=DIR is required\n");
    return 2;
  }
  if ((!options.ranker_in.empty() || !options.ranker_out.empty()) &&
      !options.pipeline.rank_candidates) {
    std::fprintf(stderr,
                 "qsteer discover-sharded: --ranker-in/--ranker-out require "
                 "--rank-candidates\n");
    return 2;
  }
  int day = 0;
  if (!ParsePositional("day", positional[1], 1, 1000000, &day)) return 2;
  Workload workload(SpecFor(positional[0]));

  if (kill_every > 0) {
    options.crash_hook_for_testing = [kill_every](const DiscoveryCrashPoint& point) {
      DiscoveryCrashDecision decision;
      decision.crash = (point.index + 1) % kill_every == 0;
      return decision;
    };
  }

  DiscoveryResult result;
  int executions = 0;
  while (true) {
    ShardOrchestrator orchestrator(&workload, day, options);
    Result<DiscoveryResult> run = orchestrator.Run();
    if (!run.ok()) {
      std::fprintf(stderr, "qsteer discover-sharded: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    result = std::move(run.value());
    ++executions;
    if (result.completed) break;
    std::printf("execution %d killed at window '%s' (shard %d) after %lld windows; "
                "resuming\n",
                executions, result.crash_window.c_str(), result.crash_shard,
                static_cast<long long>(result.counters.crash_windows));
    options.resume = true;
    if (executions >= 100000) {
      std::fprintf(stderr, "qsteer discover-sharded: no progress after %d executions\n",
                   executions);
      return 1;
    }
  }
  std::printf("discovery complete in %d execution(s)\n%s", executions,
              result.counters.ToString().c_str());
  std::printf("merged store: %zu bytes; merged rule-diff table: %zu bytes\n"
              "artifacts in %s (merged_recommendations.qrs, merged_rulediff.txt, "
              "discovery_summary.txt)\n",
              result.merged_store.size(), result.merged_diff_table.size(),
              options.dir.c_str());

  if (verify_unsharded) {
    Result<UnshardedDiscovery> reference = DiscoverUnsharded(&workload, day, options);
    if (!reference.ok()) {
      std::fprintf(stderr, "qsteer discover-sharded: unsharded reference failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    bool store_match = reference.value().store == result.merged_store;
    bool table_match = reference.value().diff_table == result.merged_diff_table;
    // A resumed run replays some shards from artifacts without their ranker
    // examples, so only a single-execution run is expected to reproduce the
    // unsharded ranker bytes.
    bool ranker_match = executions > 1 || result.ranker_bytes.empty() ||
                        reference.value().ranker_bytes == result.ranker_bytes;
    if (!store_match || !table_match || !ranker_match) {
      std::fprintf(stderr,
                   "qsteer discover-sharded: MERGE DIVERGED from unsharded run "
                   "(store %s, rule-diff table %s, ranker %s)\n",
                   store_match ? "match" : "MISMATCH",
                   table_match ? "match" : "MISMATCH",
                   ranker_match ? "match" : "MISMATCH");
      return 1;
    }
    std::printf("verify: merged output bit-identical to the unsharded reference "
                "(%lld jobs)\n",
                static_cast<long long>(reference.value().jobs_analyzed));
  }
  return 0;
}

}  // namespace
}  // namespace qsteer

int main(int argc, char** argv) {
  using namespace qsteer;
  if (argc < 2) return Usage();
  std::string command = argv[1];
  int rest_argc = argc - 2;
  char** rest_argv = argv + 2;
  if (command == "rules") return CmdRules(rest_argc, rest_argv);
  if (command == "workload") return CmdWorkload(rest_argc, rest_argv);
  if (command == "compile") return CmdCompile(rest_argc, rest_argv);
  if (command == "span") return CmdSpan(rest_argc, rest_argv);
  if (command == "analyze") return CmdAnalyze(rest_argc, rest_argv);
  if (command == "calibrate") return CmdCalibrate(rest_argc, rest_argv);
  if (command == "serve") return CmdServe(rest_argc, rest_argv);
  if (command == "serve-fleet") return CmdServeFleet(rest_argc, rest_argv);
  if (command == "discover-sharded") return CmdDiscoverSharded(rest_argc, rest_argv);
  return Usage();
}
