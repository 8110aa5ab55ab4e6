// Learned configuration selection (paper §7): per job group, collect
// runtimes of K candidate configurations over jobs from several weeks, train
// a small neural net to predict normalized runtimes (BCE loss), and choose
// the predicted-fastest configuration for unseen jobs.
#ifndef QSTEER_CORE_LEARNED_STEERING_H_
#define QSTEER_CORE_LEARNED_STEERING_H_

#include <vector>

#include "core/featurize.h"
#include "core/pipeline.h"
#include "ml/mlp.h"

namespace qsteer {

/// Training data for one job group.
struct GroupDataset {
  RuleSignature group_signature;
  /// The K candidate configurations. Slot 0 is always the default.
  std::vector<RuleConfig> configs;
  /// Per sample: the feature vector and the K measured values of each
  /// metric (a slot is negative when that configuration did not compile for
  /// the job).
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> runtimes;
  std::vector<std::vector<double>> cpu_times;
  std::vector<std::vector<double>> io_times;
  std::vector<std::string> job_names;

  const std::vector<std::vector<double>>& MetricMatrix(Metric metric) const {
    switch (metric) {
      case Metric::kCpuTime:
        return cpu_times;
      case Metric::kIoTime:
        return io_times;
      default:
        return runtimes;
    }
  }

  int k() const { return static_cast<int>(configs.size()); }
  int size() const { return static_cast<int>(features.size()); }
};

/// Per-test-job outcome of the learned model.
struct LearnedChoice {
  std::string job_name;
  int chosen_arm = 0;
  double chosen_runtime = 0.0;
  double default_runtime = 0.0;
  double best_runtime = 0.0;
};

struct LearnedEvaluation {
  std::vector<LearnedChoice> test_choices;
  /// Aggregates over the test set.
  double mean_default = 0.0;
  double mean_best = 0.0;
  double mean_learned = 0.0;
  double p90_default = 0.0, p90_best = 0.0, p90_learned = 0.0;
  double p99_default = 0.0, p99_best = 0.0, p99_learned = 0.0;
  double train_loss = 0.0;
};

/// Thread-safety: immutable after construction; all methods are const and
/// safe to call concurrently. Pass a ThreadPool to parallelize dataset
/// collection across jobs — per-sample noise nonces are pure functions of
/// (seed, job index, arm), so the dataset is bit-identical for any worker
/// count, including the serial pool == nullptr path.
class LearnedSteering {
 public:
  /// `pool` (optional, not owned, may outlive-requirement: must stay alive
  /// for the learner's lifetime) parallelizes CollectDataset over jobs.
  LearnedSteering(const Optimizer* optimizer, const ExecutionSimulator* simulator,
                  const Catalog* catalog, ThreadPool* pool = nullptr);

  /// Executes every configuration for every job, producing the training
  /// dataset (the paper's "execute each of the K configurations for every
  /// job sampled over two weeks"). Jobs are processed in parallel over the
  /// pool; rows keep job order.
  GroupDataset CollectDataset(const std::vector<Job>& jobs,
                              const std::vector<RuleConfig>& configs, uint64_t seed) const;

  /// Random 40/20/40 train/validation/test split (paper §7.4), model
  /// training, and test-set evaluation. `target` selects which metric the
  /// model optimizes — the paper's §6.2 "separate models per metric" idea.
  LearnedEvaluation TrainAndEvaluate(const GroupDataset& dataset, const MlpOptions& options,
                                     double train_frac = 0.4, double val_frac = 0.2,
                                     Metric target = Metric::kRuntime) const;

 private:
  const Optimizer* optimizer_;
  const ExecutionSimulator* simulator_;
  JobFeaturizer featurizer_;
  ThreadPool* pool_ = nullptr;  // not owned
};

}  // namespace qsteer

#endif  // QSTEER_CORE_LEARNED_STEERING_H_
