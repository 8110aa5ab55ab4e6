#include "ml/ranker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/file_io.h"

namespace qsteer {

namespace {

/// Version-tagged header; bumping it makes every older artifact reject
/// cleanly (same contract as the compile-cache file header).
constexpr char kRankerFileHeader[] = "qsteer-ranker v1";

/// Hidden width of the scoring MLP; the feature space is tiny, so a small
/// net converges in a handful of batches.
constexpr int kHidden = 16;
constexpr double kLearningRate = 5e-3;
/// Sequential passes over each training batch.
constexpr int kEpochsPerBatch = 2;
constexpr uint64_t kSeed = 1;
/// Blend between the per-rule historical prior and the MLP score once the
/// model has seen enough examples (1.0 = prior only, 0.0 = model only).
constexpr double kPriorWeight = 0.6;
/// Until this many examples are trained, Score returns the prior alone: a
/// freshly initialized MLP is noise and would scatter the budget.
constexpr int64_t kMinExamplesForModel = 48;

double SafeFrac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

CandidateRanker::CandidateRanker() : model_(kNumFeatures, kHidden, /*outputs=*/1, kSeed) {}

double CandidateRanker::HistoricalPrior(const std::vector<int>& toggled_rules) const {
  double sum = 0.0;
  int with_history = 0;
  for (int rule : toggled_rules) {
    const RuleStats& stats = rule_stats_[static_cast<size_t>(rule)];
    if (stats.count == 0) continue;
    sum += stats.label_sum / static_cast<double>(stats.count);
    ++with_history;
  }
  return with_history > 0 ? sum / with_history : 0.0;
}

RankerExample CandidateRanker::MakeExample(const RankerJobContext& ctx,
                                           const RuleConfig& config) const {
  // The candidate's identity for ranking purposes is which *span* rules it
  // toggles relative to the default configuration: rules outside the span
  // cannot change the plan (paper §4), and within a job's candidate stream
  // the off-span bits are constant anyway.
  static const BitVector256 kDefaultBits = RuleConfig::Default().bits();
  RankerExample example;
  example.config_hash = config.Hash();
  example.toggled_rules = config.bits().Xor(kDefaultBits).And(ctx.span).ToIndices();

  const double span_count = ctx.span.Count();
  const double toggled = static_cast<double>(example.toggled_rules.size());
  double per_category[3] = {0.0, 0.0, 0.0};  // off-by-default, on-by-default, impl
  double in_signature = 0.0;
  double with_history = 0.0;
  double positive_history = 0.0;
  double max_history = 0.0;
  for (int rule : example.toggled_rules) {
    switch (CategoryOfRule(rule)) {
      case RuleCategory::kOffByDefault: per_category[0] += 1.0; break;
      case RuleCategory::kOnByDefault: per_category[1] += 1.0; break;
      case RuleCategory::kImplementation: per_category[2] += 1.0; break;
      case RuleCategory::kRequired: break;  // required rules never toggle
    }
    if (ctx.default_signature.Test(rule)) in_signature += 1.0;
    const RuleStats& stats = rule_stats_[static_cast<size_t>(rule)];
    if (stats.count > 0) {
      with_history += 1.0;
      double mean = stats.label_sum / static_cast<double>(stats.count);
      max_history = std::max(max_history, mean);
      if (mean > 0.01) positive_history += 1.0;
    }
  }
  double sig_in_span = static_cast<double>(ctx.default_signature.And(ctx.span).Count());

  std::vector<double>& f = example.features;
  f.reserve(kNumFeatures);
  f.push_back(span_count / BitVector256::kBits);          // 0: span size
  f.push_back(SafeFrac(toggled, span_count));             // 1: fraction of span toggled
  f.push_back(SafeFrac(per_category[0], toggled));        // 2: off-by-default share
  f.push_back(SafeFrac(per_category[1], toggled));        // 3: on-by-default share
  f.push_back(SafeFrac(per_category[2], toggled));        // 4: implementation share
  f.push_back(SafeFrac(in_signature, toggled));           // 5: provenance share
  f.push_back(SafeFrac(sig_in_span, span_count));         // 6: signature density in span
  f.push_back(std::log1p(std::max(0.0, ctx.default_est_cost)) / 30.0);  // 7: default cost
  f.push_back(toggled / 32.0);                            // 8: raw toggle count
  f.push_back(SafeFrac(with_history, toggled));           // 9: history coverage
  f.push_back(HistoricalPrior(example.toggled_rules));    // 10: mean historical gain
  f.push_back(max_history);                               // 11: best historical gain
  f.push_back(SafeFrac(positive_history, toggled));       // 12: positive-history share
  f.push_back(SafeFrac(toggled - with_history, toggled));  // 13: never-seen share
  f.push_back(1.0);                                        // 14: bias
  return example;
}

double CandidateRanker::Score(const std::vector<double>& features) const {
  if (static_cast<int>(features.size()) != kNumFeatures) return 0.0;
  // Feature 10 *is* the historical prior (mean past improvement of the
  // toggled rules), so scoring needs no side channel beyond the row.
  double prior = features[10];
  if (examples_trained_ < kMinExamplesForModel) return prior;
  std::vector<double> scaled = scaler_.fitted() ? scaler_.Transform(features) : features;
  double model = model_.Forward(scaled)[0];
  return kPriorWeight * prior + (1.0 - kPriorWeight) * model;
}

void CandidateRanker::Train(const std::vector<RankerExample>& examples) {
  // Phase 1, in example order: historical stats + scaler bounds. These feed
  // *future* feature rows; the rows inside this batch were extracted against
  // the pre-batch state and train the model as-is below.
  std::vector<const RankerExample*> usable;
  usable.reserve(examples.size());
  for (const RankerExample& example : examples) {
    if (static_cast<int>(example.features.size()) != kNumFeatures) continue;
    usable.push_back(&example);
    double label = std::clamp(example.label, 0.0, 1.0);
    for (int rule : example.toggled_rules) {
      if (rule < 0 || rule >= kNumRules) continue;
      RuleStats& stats = rule_stats_[static_cast<size_t>(rule)];
      ++stats.count;
      stats.label_sum += label;
    }
    (void)scaler_.Update(example.features);  // width checked above
    ++examples_trained_;
  }
  // Phase 2: strictly sequential SGD passes — no shuffling, so the model's
  // final bytes depend only on the example stream, not on thread count.
  for (int epoch = 0; epoch < kEpochsPerBatch; ++epoch) {
    for (const RankerExample* example : usable) {
      model_.TrainStep(scaler_.Transform(example->features),
                       {std::clamp(example->label, 0.0, 1.0)}, kLearningRate);
    }
  }
}

std::string CandidateRanker::Serialize() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "options %d %llu %.17g %.17g %d %lld\n", kHidden,
                static_cast<unsigned long long>(kSeed), kPriorWeight, kLearningRate,
                kEpochsPerBatch, static_cast<long long>(kMinExamplesForModel));
  out.append(buf);
  std::snprintf(buf, sizeof(buf), "examples_trained %lld\n",
                static_cast<long long>(examples_trained_));
  out.append(buf);
  int nonzero = 0;
  for (const RuleStats& stats : rule_stats_) nonzero += stats.count > 0 ? 1 : 0;
  std::snprintf(buf, sizeof(buf), "rule_stats %d\n", nonzero);
  out.append(buf);
  // Fixed array scanned in ascending rule id: deterministic bytes.
  for (int rule = 0; rule < kNumRules; ++rule) {
    const RuleStats& stats = rule_stats_[static_cast<size_t>(rule)];
    if (stats.count == 0) continue;
    std::snprintf(buf, sizeof(buf), "%d %lld %.17g\n", rule,
                  static_cast<long long>(stats.count), stats.label_sum);
    out.append(buf);
  }
  out.append(scaler_.Serialize());
  out.append(model_.Serialize());
  return out;
}

Status CandidateRanker::ParseInto(const std::string& content, CandidateRanker* out) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line)) return Status::InvalidArgument("ranker: missing options line");
  {
    std::istringstream tokens(line);
    std::string tag;
    int hidden = 0;
    unsigned long long seed = 0;
    double prior_weight = 0.0, lr = 0.0;
    int epochs = 0;
    long long min_examples = 0;
    if (!(tokens >> tag >> hidden >> seed >> prior_weight >> lr >> epochs >> min_examples) ||
        tag != "options") {
      return Status::InvalidArgument("ranker: malformed options line");
    }
    if (hidden != kHidden) {
      return Status::FailedPrecondition("ranker: hidden width disagrees with this build");
    }
  }
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("ranker: missing examples_trained line");
  }
  {
    std::istringstream tokens(line);
    std::string tag;
    long long trained = 0;
    if (!(tokens >> tag >> trained) || tag != "examples_trained" || trained < 0) {
      return Status::InvalidArgument("ranker: malformed examples_trained line");
    }
    out->examples_trained_ = trained;
  }
  if (!std::getline(in, line)) return Status::InvalidArgument("ranker: missing rule_stats line");
  int nonzero = 0;
  {
    std::istringstream tokens(line);
    std::string tag;
    if (!(tokens >> tag >> nonzero) || tag != "rule_stats" || nonzero < 0 ||
        nonzero > kNumRules) {
      return Status::InvalidArgument("ranker: malformed rule_stats line");
    }
  }
  out->rule_stats_.fill(RuleStats{});
  int previous_rule = -1;
  for (int i = 0; i < nonzero; ++i) {
    if (!std::getline(in, line)) return Status::InvalidArgument("ranker: short rule_stats block");
    std::istringstream tokens(line);
    int rule = 0;
    long long count = 0;
    double label_sum = 0.0;
    if (!(tokens >> rule >> count >> label_sum) || rule <= previous_rule || rule >= kNumRules ||
        count <= 0) {
      return Status::InvalidArgument("ranker: malformed rule_stats entry");
    }
    previous_rule = rule;
    out->rule_stats_[static_cast<size_t>(rule)] = RuleStats{count, label_sum};
  }
  // Remainder: two scaler lines, then the MLP block.
  std::string scaler_text;
  for (int i = 0; i < 2; ++i) {
    if (!std::getline(in, line)) return Status::InvalidArgument("ranker: missing scaler block");
    scaler_text += line;
    scaler_text.push_back('\n');
  }
  Result<MinMaxScaler> scaler = MinMaxScaler::Deserialize(scaler_text);
  if (!scaler.ok()) return scaler.status();
  if (scaler.value().fitted() && scaler.value().width() != kNumFeatures) {
    return Status::InvalidArgument("ranker: scaler width disagrees with the feature space");
  }
  out->scaler_ = std::move(scaler).value();
  std::string mlp_text;
  while (std::getline(in, line)) {
    mlp_text += line;
    mlp_text.push_back('\n');
  }
  Result<Mlp> model = Mlp::Deserialize(mlp_text);
  if (!model.ok()) return model.status();
  if (model.value().inputs() != kNumFeatures || model.value().outputs() != 1) {
    return Status::InvalidArgument("ranker: model dimensions disagree with the feature space");
  }
  out->model_ = std::move(model).value();
  return Status::OK();
}

Status CandidateRanker::SaveToFile(const std::string& path, bool sync) const {
  return WriteArtifact(path, kRankerFileHeader, Serialize(), sync);
}

Status CandidateRanker::WarmFromFile(const std::string& path) {
  Result<std::string> read = ReadArtifact(path, kRankerFileHeader);
  if (!read.ok()) return read.status();
  // Parse into a scratch ranker so any damage rejects the whole file and
  // leaves this ranker exactly as it was (run cold, never wrong).
  CandidateRanker scratch;
  Status st = ParseInto(read.value(), &scratch);
  if (!st.ok()) return st;
  *this = std::move(scratch);
  return Status::OK();
}

}  // namespace qsteer
