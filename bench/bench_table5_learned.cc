// Table 5: runtimes (mean / 90P / 99P) of the best-known, default and
// learned configurations for three Workload B job groups (§7.4).
#include "bench/bench_util.h"
#include "core/learned_steering.h"
#include "core/span.h"

using namespace qsteer;
using namespace qsteer::bench;

int main() {
  Header("Table 5: best / default / learned runtimes for 3 job groups (Workload B)",
         "group1: 5458/6461/5724 mean — learned close to best; group2 and group3 "
         "improve too but group3 leaves headroom");

  Workload workload(BenchSpec('B'));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  // QSTEER_BENCH_THREADS > 0 parallelizes dataset collection across jobs;
  // the dataset is bit-identical to the serial run.
  std::unique_ptr<ThreadPool> pool;
  if (BenchThreads() != 0) pool = std::make_unique<ThreadPool>(BenchThreads());
  LearnedSteering learner(&optimizer, &simulator, &workload.catalog(), pool.get());

  // Three recurring templates with multiple daily instances stand in for the
  // paper's three job groups (201/75/157 jobs, K = 10/7/10).
  const int kTemplates[3] = {36, 4, 30};
  const int kArms[3] = {10, 7, 10};
  int days = static_cast<int>(14 * BenchScale());

  std::printf("%-10s", "");
  for (int g = 0; g < 3; ++g) std::printf("   group%d: mean    90P    99P   ", g + 1);
  std::printf("\n");

  double mean_default[3] = {}, mean_best[3] = {}, mean_learned[3] = {};
  LearnedEvaluation evals[3];
  int sizes[3] = {};

  // Per-group job lists, spans, and candidate sets; candidate generation
  // runs as one parallel batch over the three groups.
  std::vector<Job> group_jobs[3];
  std::vector<BitVector256> spans;
  std::vector<ConfigSearchOptions> searches;
  for (int g = 0; g < 3; ++g) {
    for (int day = 1; day <= days; ++day) {
      int instances = workload.InstancesOnDay(kTemplates[g], day);
      for (int i = 0; i < std::max(1, instances); ++i) {
        group_jobs[g].push_back(workload.MakeJob(kTemplates[g], day, i));
      }
    }
    spans.push_back(ComputeJobSpan(optimizer, group_jobs[g].front()).span);
    ConfigSearchOptions search;
    search.max_configs = kArms[g] * 4;
    search.seed = 500 + static_cast<uint64_t>(g);
    searches.push_back(search);
  }
  std::vector<std::vector<RuleConfig>> batch_configs =
      GenerateCandidateConfigsBatch(spans, searches, pool.get());

  for (int g = 0; g < 3; ++g) {
    const std::vector<Job>& jobs = group_jobs[g];
    std::vector<RuleConfig> configs = {RuleConfig::Default()};
    for (const RuleConfig& c : batch_configs[static_cast<size_t>(g)]) {
      if (static_cast<int>(configs.size()) >= kArms[g]) break;
      configs.push_back(c);
    }
    GroupDataset dataset = learner.CollectDataset(jobs, configs, 7 + static_cast<uint64_t>(g));
    sizes[g] = dataset.size();

    MlpOptions options;
    options.hidden = 64;
    options.epochs = 150;
    options.seed = 21 + static_cast<uint64_t>(g);
    evals[g] = learner.TrainAndEvaluate(dataset, options);
    mean_default[g] = evals[g].mean_default;
    mean_best[g] = evals[g].mean_best;
    mean_learned[g] = evals[g].mean_learned;
  }

  auto print_policy = [&](const char* name, auto mean, auto p90, auto p99) {
    std::printf("%-10s", name);
    for (int g = 0; g < 3; ++g) {
      std::printf("   %13.0f %6.0f %6.0f   ", mean(evals[g]), p90(evals[g]), p99(evals[g]));
    }
    std::printf("\n");
  };
  print_policy("Best", [](const LearnedEvaluation& e) { return e.mean_best; },
               [](const LearnedEvaluation& e) { return e.p90_best; },
               [](const LearnedEvaluation& e) { return e.p99_best; });
  print_policy("Default", [](const LearnedEvaluation& e) { return e.mean_default; },
               [](const LearnedEvaluation& e) { return e.p90_default; },
               [](const LearnedEvaluation& e) { return e.p99_default; });
  print_policy("Learned", [](const LearnedEvaluation& e) { return e.mean_learned; },
               [](const LearnedEvaluation& e) { return e.p90_learned; },
               [](const LearnedEvaluation& e) { return e.p99_learned; });

  std::printf("\ngroup sizes: %d / %d / %d samples; shape check: best <= learned <= ~default "
              "per group:\n",
              sizes[0], sizes[1], sizes[2]);
  for (int g = 0; g < 3; ++g) {
    double recovered = mean_default[g] - mean_best[g] > 1e-9
                           ? 100.0 * (mean_default[g] - mean_learned[g]) /
                                 (mean_default[g] - mean_best[g])
                           : 0.0;
    std::printf("  group%d: learned recovers %.0f%% of oracle improvement (paper group1 "
                "~73%%, group2 ~56%%, group3 ~15%%)\n",
                g + 1, recovered);
  }
  Footer();
  return 0;
}
