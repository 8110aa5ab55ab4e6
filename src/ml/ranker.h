// Learning-to-rank for candidate rule configurations (ROADMAP:
// "Learning-to-rank candidate generation"; cf. "Efficient Query Rewrite Rule
// Discovery via Standardized Enumeration and Learning-to-Rank", PAPERS.md).
//
// Discovery pays a full recompile per candidate draw; a compile budget caps
// that spend, and this ranker decides where the budget goes. It scores a
// candidate from cheap, fully deterministic signals — which span rules the
// candidate toggles, how many of those contributed to the default plan
// (rule-signature provenance), the default plan's estimated cost, and the
// historical improvement rate of each toggled rule — and is trained online
// from the outcomes of candidates the pipeline already compiled (label =
// observed improvement). Training order is caller-controlled and strictly
// sequential, so two rankers fed the same example stream are bit-identical,
// regardless of how many workers produced the examples.
#ifndef QSTEER_ML_RANKER_H_
#define QSTEER_ML_RANKER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "ml/mlp.h"
#include "optimizer/rule_config.h"

namespace qsteer {

/// Per-job inputs shared by every candidate's feature row.
struct RankerJobContext {
  BitVector256 span;
  RuleSignature default_signature;
  double default_est_cost = 0.0;
};

/// One training example: the feature row of a compiled candidate and the
/// improvement observed for it. `label` starts as the estimated-cost
/// improvement fraction and is replaced by the measured runtime improvement
/// when the candidate was A/B-executed (truth beats estimate).
struct RankerExample {
  std::vector<double> features;
  /// RuleConfig::Hash() of the candidate, to match executed outcomes back to
  /// their examples.
  uint64_t config_hash = 0;
  /// Span rules on which the candidate disagrees with the default config.
  std::vector<int> toggled_rules;
  /// Improvement in [0, 1]; 0 = no improvement.
  double label = 0.0;
};

/// Scores candidate RuleConfigs so a compile budget is spent where it pays.
///
/// Thread-safety: none — callers (SteeringPipeline) serialize access. The
/// pipeline's contract is that scoring happens only against a *frozen*
/// ranker (Train is called at batch boundaries, never concurrently with
/// Score), which is what makes budgeted analyses bit-identical across
/// worker counts.
class CandidateRanker {
 public:
  static constexpr int kNumFeatures = 15;

  CandidateRanker();

  /// Builds a candidate's example row: features + toggled rules + config
  /// hash, under the ranker's current historical state. `label` is left 0.
  RankerExample MakeExample(const RankerJobContext& ctx, const RuleConfig& config) const;

  /// Score from an already-extracted feature row; higher = spend a compile
  /// here first. Deterministic function of (ranker state, features).
  double Score(const std::vector<double>& features) const;

  /// Trains on the batch strictly in order: first the per-rule historical
  /// stats and scaler bounds, then a fixed number of sequential MLP passes.
  /// Two rankers fed equal example streams end up byte-identical.
  void Train(const std::vector<RankerExample>& examples);

  int64_t examples_trained() const { return examples_trained_; }

  /// Text serialization of the full state (an options line echoing the
  /// ranker's constants, per-rule stats, scaler, MLP incl. Adam moments),
  /// without the file header. Equal state => equal bytes; reloading it
  /// resumes the exact training trajectory.
  std::string Serialize() const;

  /// Writes Serialize() as an artifact headed `qsteer-ranker v1`
  /// (WriteArtifact: atomic rename + required crc32 footer).
  Status SaveToFile(const std::string& path, bool sync = false) const;

  /// Loads a SaveToFile artifact. Same contract as
  /// CompileCache::WarmFromFile: a missing or mismatching footer, another
  /// header (version), a dimension mismatch or any parse damage rejects
  /// the *whole* file and leaves this ranker untouched — discovery runs
  /// cold, never wrong.
  Status WarmFromFile(const std::string& path);

 private:
  struct RuleStats {
    int64_t count = 0;
    double label_sum = 0.0;
  };

  /// Mean historical improvement over `rules` (only rules with history
  /// contribute); the cold-start prior and a model feature.
  double HistoricalPrior(const std::vector<int>& toggled_rules) const;

  static Status ParseInto(const std::string& content, CandidateRanker* out);

  Mlp model_;
  MinMaxScaler scaler_;
  std::array<RuleStats, kNumRules> rule_stats_{};
  int64_t examples_trained_ = 0;
};

}  // namespace qsteer

#endif  // QSTEER_ML_RANKER_H_
