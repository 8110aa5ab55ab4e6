// Ranked vs unranked budgeted discovery: does the CandidateRanker spend a
// fixed compile budget where it pays?
//
// Protocol (workload B):
//   1. train   — a rank-enabled pipeline with an unlimited budget analyzes
//                the train days; every compiled candidate becomes a training
//                example (label = observed improvement). The trained ranker
//                is persisted with SaveRanker.
//   2. eval    — two budgeted pipelines analyze the held-out eval day at the
//                same compile budget (default 25% of the candidate stream):
//                  unranked: the budget goes to the stream prefix (status quo)
//                  ranked:   the budget goes to the top-scored slice, scored
//                            by the warmed (frozen) ranker
//                Jobs run serially in day order so wall-clock-to-first-
//                improvement is well-defined for both.
//   3. checks  — a second warmed ranked pipeline replays the eval day
//                (byte-equal ranker, equal outcomes: determinism), and an
//                unlimited-budget ranked pipeline must match the unranked
//                unlimited pipeline on a probe job (selection is a filter).
//
// Verdict: ranked improvements-per-compile must be strictly greater than
// unranked, and at least --min-improvement-ratio times it (CI floors this;
// exit 1 below the floor). Machine-readable summary in BENCH_ranker.json.
//
//   $ ./bench/bench_ranked_discovery [--smoke] [--min-improvement-ratio=R]
//         [--jobs=N] [--budget-fraction=F] [--train-days=N]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/bench_util.h"
#include "core/pipeline.h"

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
  ScratchDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_bench_ranked_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  std::string File(const std::string& name) const { return (dir_ / name).string(); }

 private:
  std::filesystem::path dir_;
};

int ImprovementsIn(const JobAnalysis& analysis) {
  int improvements = 0;
  for (const ConfigOutcome& outcome : analysis.executed) {
    if (outcome.executed && !outcome.metrics.failed &&
        outcome.metrics.runtime < analysis.default_metrics.runtime) {
      ++improvements;
    }
  }
  return improvements;
}

/// One serial eval pass over the day's jobs: total improvements, compiles
/// spent, and the wall clock at which the first improvement surfaced.
struct EvalRun {
  int64_t improvements = 0;
  int64_t compiles = 0;
  int64_t skipped = 0;
  double wall_s = 0.0;
  double first_improvement_s = -1.0;  // -1 = never
  double ImprovementsPerCompile() const {
    return compiles > 0 ? static_cast<double>(improvements) / static_cast<double>(compiles)
                        : 0.0;
  }
};

EvalRun Evaluate(const SteeringPipeline& pipeline, const std::vector<Job>& jobs) {
  EvalRun run;
  auto start = std::chrono::steady_clock::now();
  for (const Job& job : jobs) {
    JobAnalysis analysis = pipeline.AnalyzeJob(job);
    run.improvements += ImprovementsIn(analysis);
    run.compiles += analysis.candidates_compiled;
    run.skipped += analysis.budget_skipped;
    if (run.first_improvement_s < 0.0 && run.improvements > 0) {
      run.first_improvement_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
  }
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Header("Ranked candidate generation: improvements found per compile at a fixed budget",
         "discovery pays a full recompile per candidate; a learned ranker should "
         "spend a 25% compile budget on the candidates that actually improve "
         "runtimes, beating the stream-prefix baseline on both improvements-per-"
         "compile and time-to-first-improvement");

  bool smoke = false;
  double min_ratio = -1.0;
  int num_jobs = 36;
  int train_days = 2;
  double budget_fraction = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--min-improvement-ratio=", 24) == 0) {
      min_ratio = DoubleArg("--min-improvement-ratio", argv[i] + 24, 0.0, 1e9);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      num_jobs = IntArg("--jobs", argv[i] + 7, 1, 100000);
    } else if (std::strncmp(argv[i], "--budget-fraction=", 18) == 0) {
      budget_fraction = DoubleArg("--budget-fraction", argv[i] + 18, 0.01, 1.0);
    } else if (std::strncmp(argv[i], "--train-days=", 13) == 0) {
      train_days = IntArg("--train-days", argv[i] + 13, 1, 1000);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) {
    num_jobs = 20;
    if (min_ratio < 0.0) min_ratio = 1.0;
  }
  const int eval_day = 3;

  Workload workload(BenchSpec('B'));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  PipelineOptions base;
  base.max_candidate_configs = static_cast<int>(40 * BenchScale());
  if (base.max_candidate_configs < 8) base.max_candidate_configs = 8;
  base.configs_to_execute = 4;
  const int budget =
      std::max(1, static_cast<int>(base.max_candidate_configs * budget_fraction));

  auto jobs_for = [&](int day) {
    std::vector<Job> jobs = workload.JobsForDay(day);
    if (static_cast<int>(jobs.size()) > num_jobs) jobs.resize(num_jobs);
    return jobs;
  };

  std::printf("workload B, eval day %d, %d jobs, %d candidates/job, budget %d (%.0f%%), "
              "train days 1..%d\n\n",
              eval_day, num_jobs, base.max_candidate_configs, budget,
              budget_fraction * 100.0, train_days);

  // ---- 1. train: unlimited-budget ranked pipeline over the train days ----
  ScratchDir scratch;
  std::string ranker_file = scratch.File("ranker.qrk");
  PipelineOptions train_options = base;
  train_options.rank_candidates = true;
  train_options.compile_budget = 0;  // unlimited: label every candidate
  SteeringPipeline trainer(&optimizer, &simulator, train_options);
  double train_s = SecondsOf([&] {
    for (int day = 1; day <= train_days; ++day) {
      if (day == eval_day) continue;  // never train on the eval day
      (void)trainer.AnalyzeJobs(jobs_for(day));
    }
  });
  SteeringPipeline::BudgetStats train_stats = trainer.budget_stats();
  Status save_status = trainer.SaveRanker(ranker_file);
  if (!save_status.ok()) {
    std::fprintf(stderr, "SaveRanker failed: %s\n", save_status.ToString().c_str());
    return 1;
  }
  std::printf("trained on %lld examples (%lld compiles) in %.3fs; ranker saved (%lld "
              "bytes on disk)\n\n",
              (long long)train_stats.ranker_examples_trained,
              (long long)train_stats.candidates_compiled, train_s,
              (long long)std::filesystem::file_size(ranker_file));

  // ---- 2. eval: same budget, stream prefix vs ranked slice ----
  std::vector<Job> eval_jobs = jobs_for(eval_day);

  PipelineOptions unranked_options = base;
  unranked_options.compile_budget = budget;
  SteeringPipeline unranked(&optimizer, &simulator, unranked_options);
  EvalRun unranked_run = Evaluate(unranked, eval_jobs);

  PipelineOptions ranked_options = base;
  ranked_options.compile_budget = budget;
  ranked_options.rank_candidates = true;
  SteeringPipeline ranked(&optimizer, &simulator, ranked_options);
  Status warm_status = ranked.WarmRanker(ranker_file);
  if (!warm_status.ok()) {
    std::fprintf(stderr, "WarmRanker failed: %s\n", warm_status.ToString().c_str());
    return 1;
  }
  EvalRun ranked_run = Evaluate(ranked, eval_jobs);

  // ---- 3a. determinism: a second warmed pipeline replays the eval day ----
  SteeringPipeline replay(&optimizer, &simulator, ranked_options);
  // qsteer-lint: allow(unchecked-status) the file was written by this process two lines up
  (void)replay.WarmRanker(ranker_file);
  bool ranker_bytes_equal = replay.SerializeRanker() == ranked.SerializeRanker();
  EvalRun replay_run = Evaluate(replay, eval_jobs);
  bool replay_equal = replay_run.improvements == ranked_run.improvements &&
                      replay_run.compiles == ranked_run.compiles &&
                      replay_run.skipped == ranked_run.skipped;

  // ---- 3b. unlimited budget: ranked selection is a pure filter ----
  PipelineOptions full_ranked_options = base;
  full_ranked_options.rank_candidates = true;
  SteeringPipeline full_ranked(&optimizer, &simulator, full_ranked_options);
  // qsteer-lint: allow(unchecked-status) the file was written by this process earlier in the run
  (void)full_ranked.WarmRanker(ranker_file);
  SteeringPipeline full_unranked(&optimizer, &simulator, base);
  bool filter_ok = true;
  for (size_t i = 0; i < eval_jobs.size() && i < 3; ++i) {
    JobAnalysis a = full_unranked.AnalyzeJob(eval_jobs[i]);
    JobAnalysis b = full_ranked.AnalyzeJob(eval_jobs[i]);
    filter_ok = filter_ok && a.executed.size() == b.executed.size() &&
                a.recompiled_ok == b.recompiled_ok &&
                a.BestRuntimeChangePct() == b.BestRuntimeChangePct();
    for (size_t j = 0; filter_ok && j < a.executed.size(); ++j) {
      filter_ok = a.executed[j].config == b.executed[j].config &&
                  a.executed[j].metrics.runtime == b.executed[j].metrics.runtime;
    }
  }

  // ---- report ----
  auto row = [](const char* name, const EvalRun& run) {
    std::printf("%-10s %10lld %9lld %9lld %14.4f %11s\n", name, (long long)run.compiles,
                (long long)run.skipped, (long long)run.improvements,
                run.ImprovementsPerCompile(),
                run.first_improvement_s < 0.0
                    ? "never"
                    : (std::to_string(run.first_improvement_s).substr(0, 6) + "s").c_str());
  };
  std::printf("%-10s %10s %9s %9s %14s %11s\n", "policy", "compiles", "skipped",
              "improved", "improved/comp", "first_hit");
  row("unranked", unranked_run);
  row("ranked", ranked_run);

  double ratio = unranked_run.ImprovementsPerCompile() > 0.0
                     ? ranked_run.ImprovementsPerCompile() /
                           unranked_run.ImprovementsPerCompile()
                     : (ranked_run.improvements > 0 ? 1e9 : 0.0);
  bool strictly_better =
      ranked_run.ImprovementsPerCompile() > unranked_run.ImprovementsPerCompile();
  bool ratio_ok = min_ratio < 0.0 || ratio >= min_ratio;
  bool faster_first_hit =
      ranked_run.first_improvement_s >= 0.0 &&
      (unranked_run.first_improvement_s < 0.0 ||
       ranked_run.first_improvement_s <= unranked_run.first_improvement_s * 1.25);

  std::printf("\nranked/unranked improvements-per-compile ratio: %.3f\n", ratio);
  std::printf("wall clock: unranked %.3fs, ranked %.3fs (same compile budget)\n",
              unranked_run.wall_s, ranked_run.wall_s);
  std::printf("\nverdicts: ranked_strictly_better=%s replay_deterministic=%s "
              "ranker_bytes_stable=%s unlimited_budget_is_filter=%s",
              strictly_better ? "PASS" : "FAIL", replay_equal ? "PASS" : "FAIL",
              ranker_bytes_equal ? "PASS" : "FAIL", filter_ok ? "PASS" : "FAIL");
  if (min_ratio >= 0.0) {
    std::printf(" ratio>=%.2f=%s", min_ratio, ratio_ok ? "PASS" : "FAIL");
  }
  std::printf("\n");
  Footer();

  FILE* json = std::fopen("BENCH_ranker.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"bench_ranked_discovery\",\n");
    std::fprintf(json,
                 "  \"description\": \"Ranked vs unranked budgeted candidate generation "
                 "on workload B: a CandidateRanker trained on earlier days spends a "
                 "fixed compile budget on the eval day; improvements-per-compile must "
                 "strictly beat the stream-prefix baseline.\",\n");
    std::fprintf(json, "  \"command\": \"./build/bench/bench_ranked_discovery%s\",\n",
                 smoke ? " --smoke" : "");
    std::fprintf(json,
                 "  \"jobs\": %d,\n  \"candidates_per_job\": %d,\n  \"budget\": %d,\n"
                 "  \"budget_fraction\": %.2f,\n  \"train_days\": %d,\n",
                 num_jobs, base.max_candidate_configs, budget, budget_fraction,
                 train_days);
    std::fprintf(json,
                 "  \"train\": { \"examples\": %lld, \"compiles\": %lld, \"wall_s\": "
                 "%.3f },\n",
                 (long long)train_stats.ranker_examples_trained,
                 (long long)train_stats.candidates_compiled, train_s);
    auto json_run = [&](const char* name, const EvalRun& run, bool last) {
      std::fprintf(json,
                   "  \"%s\": { \"compiles\": %lld, \"skipped\": %lld, "
                   "\"improvements\": %lld, \"improvements_per_compile\": %.4f, "
                   "\"first_improvement_s\": %.3f, \"wall_s\": %.3f }%s\n",
                   name, (long long)run.compiles, (long long)run.skipped,
                   (long long)run.improvements, run.ImprovementsPerCompile(),
                   run.first_improvement_s, run.wall_s, last ? "" : ",");
    };
    json_run("unranked", unranked_run, false);
    json_run("ranked", ranked_run, false);
    std::fprintf(json, "  \"ratio\": %.4f,\n", ratio);
    std::fprintf(json, "  \"verdicts\": {\n");
    std::fprintf(json, "    \"ranked_strictly_better\": %s,\n",
                 strictly_better ? "true" : "false");
    std::fprintf(json, "    \"replay_deterministic\": %s,\n",
                 replay_equal ? "true" : "false");
    std::fprintf(json, "    \"ranker_bytes_stable\": %s,\n",
                 ranker_bytes_equal ? "true" : "false");
    std::fprintf(json, "    \"unlimited_budget_is_filter\": %s,\n",
                 filter_ok ? "true" : "false");
    std::fprintf(json, "    \"ratio_above_floor\": %s,\n", ratio_ok ? "true" : "false");
    std::fprintf(json, "    \"faster_first_improvement\": %s\n",
                 faster_first_hit ? "true" : "false");
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_ranker.json\n");
  }

  return (strictly_better && replay_equal && ranker_bytes_equal && filter_ok && ratio_ok)
             ? 0
             : 1;
}
