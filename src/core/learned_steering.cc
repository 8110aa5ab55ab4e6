#include "core/learned_steering.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/stats.h"

namespace qsteer {

LearnedSteering::LearnedSteering(const Optimizer* optimizer,
                                 const ExecutionSimulator* simulator, const Catalog* catalog,
                                 ThreadPool* pool)
    : optimizer_(optimizer), simulator_(simulator), featurizer_(catalog), pool_(pool) {}

GroupDataset LearnedSteering::CollectDataset(const std::vector<Job>& jobs,
                                             const std::vector<RuleConfig>& configs,
                                             uint64_t seed) const {
  GroupDataset dataset;
  dataset.configs = configs;
  int k = dataset.k();

  // One row per job, built independently: the (job, arm) noise nonce is
  // hash(seed, job index, arm), so rows do not depend on collection order
  // and the whole loop fans out over the pool. Rows are merged in job order
  // below — the dataset is bit-identical for any worker count.
  struct JobRow {
    bool ok = false;
    RuleSignature default_signature;
    std::vector<double> features;
    std::vector<double> runtimes, cpu_times, io_times;
  };
  std::vector<JobRow> rows = ParallelMap<JobRow>(
      pool_, static_cast<int64_t>(jobs.size()), [&](int64_t j) {
        const Job& job = jobs[static_cast<size_t>(j)];
        JobRow row;
        std::vector<CompiledPlan> plans(static_cast<size_t>(k));
        std::vector<RuleDiff> diffs(static_cast<size_t>(k));
        std::vector<const CompiledPlan*> plan_ptrs(static_cast<size_t>(k), nullptr);
        std::vector<const RuleDiff*> diff_ptrs(static_cast<size_t>(k), nullptr);
        row.runtimes.assign(static_cast<size_t>(k), -1.0);
        row.cpu_times.assign(static_cast<size_t>(k), -1.0);
        row.io_times.assign(static_cast<size_t>(k), -1.0);

        Result<CompiledPlan> default_plan = optimizer_->Compile(job, RuleConfig::Default());
        if (!default_plan.ok()) return row;
        row.default_signature = default_plan.value().signature;

        for (int c = 0; c < k; ++c) {
          Result<CompiledPlan> plan =
              optimizer_->Compile(job, configs[static_cast<size_t>(c)]);
          if (!plan.ok()) continue;
          plans[static_cast<size_t>(c)] = std::move(plan.value());
          diffs[static_cast<size_t>(c)] = ComputeRuleDiff(
              default_plan.value().signature, plans[static_cast<size_t>(c)].signature);
          plan_ptrs[static_cast<size_t>(c)] = &plans[static_cast<size_t>(c)];
          diff_ptrs[static_cast<size_t>(c)] = &diffs[static_cast<size_t>(c)];
          uint64_t nonce = HashCombine(HashCombine(seed, static_cast<uint64_t>(j)),
                                       static_cast<uint64_t>(c));
          ExecMetrics metrics =
              simulator_->Execute(job, plans[static_cast<size_t>(c)].root, nonce);
          row.runtimes[static_cast<size_t>(c)] = metrics.runtime;
          row.cpu_times[static_cast<size_t>(c)] = metrics.cpu_time;
          row.io_times[static_cast<size_t>(c)] = metrics.io_time;
        }
        if (row.runtimes[0] < 0.0) return row;  // default must have executed

        row.features = featurizer_.Featurize(job, plan_ptrs, diff_ptrs, k);
        row.ok = true;
        return row;
      });

  for (size_t j = 0; j < rows.size(); ++j) {
    JobRow& row = rows[j];
    if (!row.ok) continue;
    if (dataset.features.empty()) dataset.group_signature = row.default_signature;
    dataset.features.push_back(std::move(row.features));
    dataset.runtimes.push_back(std::move(row.runtimes));
    dataset.cpu_times.push_back(std::move(row.cpu_times));
    dataset.io_times.push_back(std::move(row.io_times));
    dataset.job_names.push_back(jobs[j].name);
  }
  return dataset;
}

LearnedEvaluation LearnedSteering::TrainAndEvaluate(const GroupDataset& dataset,
                                                    const MlpOptions& options,
                                                    double train_frac, double val_frac,
                                                    Metric target) const {
  LearnedEvaluation eval;
  int n = dataset.size();
  int k = dataset.k();
  if (n < 5 || k < 2) return eval;
  const std::vector<std::vector<double>>& metric_matrix = dataset.MetricMatrix(target);

  // Random split (§7.4: 40% train / 20% validation / 40% test).
  Pcg32 rng(options.seed ^ 0x5b1d, 307);
  std::vector<size_t> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  int n_train = std::max(1, static_cast<int>(std::lround(train_frac * n)));
  int n_val = std::max(1, static_cast<int>(std::lround(val_frac * n)));
  n_val = std::min(n_val, n - n_train - 1);

  auto targets_for = [&](size_t idx) {
    // Missing (non-compiling) slots get the worst target (1.0).
    std::vector<double> runtimes = metric_matrix[idx];
    double worst = 0.0;
    for (double r : runtimes) worst = std::max(worst, r);
    for (double& r : runtimes) {
      if (r < 0.0) r = worst;
    }
    return NormalizeRuntimes(runtimes);
  };

  std::vector<std::vector<double>> train_x, train_y, val_x, val_y;
  std::vector<size_t> test_idx;
  MinMaxScaler scaler;
  {
    std::vector<std::vector<double>> raw_train;
    for (int i = 0; i < n_train; ++i) raw_train.push_back(dataset.features[order[i]]);
    // Encoded feature rows share one width per group; a ragged dataset means
    // the group was assembled wrong and no model trained on it is usable.
    if (!scaler.Fit(raw_train).ok()) return eval;
  }
  for (int i = 0; i < n; ++i) {
    size_t idx = order[static_cast<size_t>(i)];
    if (i < n_train) {
      train_x.push_back(scaler.Transform(dataset.features[idx]));
      train_y.push_back(targets_for(idx));
    } else if (i < n_train + n_val) {
      val_x.push_back(scaler.Transform(dataset.features[idx]));
      val_y.push_back(targets_for(idx));
    } else {
      test_idx.push_back(idx);
    }
  }

  Mlp model = Mlp::Train(train_x, train_y, val_x, val_y, k, options);
  eval.train_loss = model.Evaluate(train_x, train_y);

  std::vector<double> default_runtimes, best_runtimes, learned_runtimes;
  for (size_t idx : test_idx) {
    std::vector<double> prediction = model.Forward(scaler.Transform(dataset.features[idx]));
    const std::vector<double>& runtimes = metric_matrix[idx];
    // The model may prefer a non-compiling slot; fall back to default.
    int arm = 0;
    double best_pred = prediction[0];
    for (int c = 1; c < k; ++c) {
      if (runtimes[static_cast<size_t>(c)] < 0.0) continue;
      if (prediction[static_cast<size_t>(c)] < best_pred) {
        best_pred = prediction[static_cast<size_t>(c)];
        arm = c;
      }
    }
    double best_runtime = runtimes[0];
    for (double r : runtimes) {
      if (r >= 0.0) best_runtime = std::min(best_runtime, r);
    }
    LearnedChoice choice;
    choice.job_name = dataset.job_names[idx];
    choice.chosen_arm = arm;
    choice.chosen_runtime = runtimes[static_cast<size_t>(arm)];
    choice.default_runtime = runtimes[0];
    choice.best_runtime = best_runtime;
    eval.test_choices.push_back(choice);
    default_runtimes.push_back(choice.default_runtime);
    best_runtimes.push_back(choice.best_runtime);
    learned_runtimes.push_back(choice.chosen_runtime);
  }

  eval.mean_default = Mean(default_runtimes);
  eval.mean_best = Mean(best_runtimes);
  eval.mean_learned = Mean(learned_runtimes);
  eval.p90_default = Percentile(default_runtimes, 90.0);
  eval.p90_best = Percentile(best_runtimes, 90.0);
  eval.p90_learned = Percentile(learned_runtimes, 90.0);
  eval.p99_default = Percentile(default_runtimes, 99.0);
  eval.p99_best = Percentile(best_runtimes, 99.0);
  eval.p99_learned = Percentile(learned_runtimes, 99.0);
  return eval;
}

}  // namespace qsteer
