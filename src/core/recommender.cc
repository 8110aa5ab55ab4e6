#include "core/recommender.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/hints.h"

namespace qsteer {

SteeringRecommender::SteeringRecommender(RecommenderOptions options) : options_(options) {}

std::optional<SteeringRecommender::CandidateObservation> SteeringRecommender::ExtractCandidate(
    const JobAnalysis& analysis, const RecommenderOptions& options) {
  if (analysis.default_plan.root == nullptr) return std::nullopt;
  // A failed default run has no trustworthy baseline to learn against.
  if (analysis.default_metrics.failed) return std::nullopt;
  const ConfigOutcome* best = analysis.BestBy(Metric::kRuntime);
  if (best == nullptr) return std::nullopt;
  double change = analysis.BestRuntimeChangePct();
  if (change > options.min_improvement_pct) return std::nullopt;
  CandidateObservation observation;
  observation.signature = analysis.default_plan.signature;
  observation.config = best->config;
  observation.improvement_pct = change;
  return observation;
}

bool SteeringRecommender::LearnCandidate(const CandidateObservation& observation) {
  Entry& entry = store_[observation.signature];
  if (entry.retired) return false;
  bool fresh = entry.support == 0;
  if (fresh || observation.improvement_pct < entry.improvement_pct) {
    if (fresh || !(entry.config == observation.config)) {
      // A new or replaced configuration must (re-)pass the validation gate
      // before it serves.
      entry.adopted = options_.validation_runs <= 0;
      entry.validation_successes = 0;
    }
    entry.config = observation.config;
    entry.improvement_pct = observation.improvement_pct;
  }
  ++entry.support;
  return true;
}

bool SteeringRecommender::LearnFromAnalysis(const JobAnalysis& analysis) {
  std::optional<CandidateObservation> observation = ExtractCandidate(analysis, options_);
  return observation.has_value() && LearnCandidate(*observation);
}

std::vector<SteeringRecommender::ValidationRequest> SteeringRecommender::PendingValidations()
    const {
  std::vector<ValidationRequest> pending;
  for (const auto& [signature, entry] : store_) {
    if (entry.retired || entry.adopted) continue;
    ValidationRequest request;
    request.signature = signature;
    request.config = entry.config;
    request.successes = entry.validation_successes;
    request.required = options_.validation_runs;
    pending.push_back(std::move(request));
  }
  // unordered_map iteration order is not deterministic; validation drivers
  // (and their printed output) should be.
  std::sort(pending.begin(), pending.end(),
            [](const ValidationRequest& a, const ValidationRequest& b) {
              return a.signature.ToHexString() < b.signature.ToHexString();
            });
  return pending;
}

void SteeringRecommender::ObserveValidation(const RuleSignature& signature,
                                            double runtime_change_pct) {
  auto it = store_.find(signature);
  if (it == store_.end() || it->second.retired || it->second.adopted) return;
  Entry& entry = it->second;
  if (runtime_change_pct > options_.regression_threshold_pct) {
    // A candidate that regresses under validation never reaches production.
    ++entry.regressions;
    Retire(&entry);
    return;
  }
  if (++entry.validation_successes >= options_.validation_runs) {
    entry.adopted = true;
  }
}

SteeringRecommender::SnapshotEntry SteeringRecommender::Decide(const RuleSignature& signature,
                                                               const Entry* entry) {
  SnapshotEntry decision;
  decision.signature = signature;
  decision.recommendation.config = RuleConfig::Default();
  if (entry == nullptr || entry->retired || !entry->adopted) return decision;
  if (entry->breaker == BreakerState::kOpen) {
    // Rolled back: the default serves while the cooldown clock runs.
    decision.mutates_on_recommend = true;
    return decision;
  }
  Recommendation& rec = decision.recommendation;
  rec.is_default = false;
  rec.config = entry->config;
  rec.expected_improvement_pct = entry->improvement_pct;
  rec.support = entry->support;
  rec.probing = entry->breaker == BreakerState::kHalfOpen;
  return decision;
}

SteeringRecommender::Recommendation SteeringRecommender::Recommend(
    const RuleSignature& default_signature) {
  auto it = store_.find(default_signature);
  if (it == store_.end()) return Decide(default_signature, nullptr).recommendation;
  Entry& entry = it->second;
  SnapshotEntry decision = Decide(default_signature, &entry);
  // An open breaker's lookup ticks its cooldown; at zero it half-opens.
  if (decision.mutates_on_recommend && --entry.cooldown_remaining <= 0) {
    entry.breaker = BreakerState::kHalfOpen;
    entry.probe_successes = 0;
  }
  return decision.recommendation;
}

std::vector<SteeringRecommender::SnapshotEntry> SteeringRecommender::SnapshotRecommendations()
    const {
  std::vector<SnapshotEntry> out;
  out.reserve(store_.size());
  // qsteer-lint: sorted consumer rebuilds an unordered map from these rows; order never reaches bytes
  for (const auto& [signature, entry] : store_) out.push_back(Decide(signature, &entry));
  return out;
}

bool SteeringRecommender::WouldMutateOnRecommend(const RuleSignature& default_signature) const {
  auto it = store_.find(default_signature);
  return it != store_.end() && Decide(default_signature, &it->second).mutates_on_recommend;
}

void SteeringRecommender::ObserveOutcome(const RuleSignature& default_signature,
                                         double runtime_change_pct) {
  auto it = store_.find(default_signature);
  if (it == store_.end() || it->second.retired || !it->second.adopted) return;
  Entry& entry = it->second;
  bool regressed = runtime_change_pct > options_.regression_threshold_pct;

  switch (entry.breaker) {
    case BreakerState::kClosed:
      if (regressed) {
        ++entry.regressions;
        if (++entry.consecutive_failures >= options_.breaker_open_after) {
          TripBreaker(&entry);
        }
      } else {
        entry.consecutive_failures = 0;
      }
      break;
    case BreakerState::kHalfOpen:
      if (regressed) {
        ++entry.regressions;
        TripBreaker(&entry);
      } else if (++entry.probe_successes >= options_.breaker_probe_successes) {
        entry.breaker = BreakerState::kClosed;
        entry.consecutive_failures = 0;
        entry.probe_successes = 0;
      }
      break;
    case BreakerState::kOpen:
      // Open groups serve the default; a stray outcome report is ignored.
      break;
  }
}

void SteeringRecommender::TripBreaker(Entry* entry) {
  entry->breaker = BreakerState::kOpen;
  entry->cooldown_remaining = std::max(1, options_.breaker_cooldown);
  entry->consecutive_failures = 0;
  entry->probe_successes = 0;
  ++entry->rollbacks;
  ++rollbacks_;
  if (entry->rollbacks >= options_.max_rollbacks) Retire(entry);
}

void SteeringRecommender::Retire(Entry* entry) {
  if (entry->retired) return;
  entry->retired = true;
  ++retired_;
}

int SteeringRecommender::num_serving() const {
  int count = 0;
  // qsteer-lint: sorted integer count; commutative over iteration order
  for (const auto& [signature, entry] : store_) {
    if (!entry.retired && entry.adopted && entry.breaker != BreakerState::kOpen) ++count;
  }
  return count;
}

int SteeringRecommender::num_pending_validation() const {
  int count = 0;
  // qsteer-lint: sorted integer count; commutative over iteration order
  for (const auto& [signature, entry] : store_) {
    if (!entry.retired && !entry.adopted) ++count;
  }
  return count;
}

int SteeringRecommender::num_open() const {
  int count = 0;
  // qsteer-lint: sorted integer count; commutative over iteration order
  for (const auto& [signature, entry] : store_) {
    if (!entry.retired && entry.breaker == BreakerState::kOpen) ++count;
  }
  return count;
}

std::string SteeringRecommender::Serialize() const {
  // Deterministic entry order: two equal stores must serialize to equal
  // bytes (snapshot comparison, chaos bit-identity).
  std::vector<const decltype(store_)::value_type*> sorted;
  sorted.reserve(store_.size());
  for (const auto& kv : store_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->first.ToHexString() < b->first.ToHexString();
  });
  std::ostringstream out;
  out.precision(17);  // round-trip doubles exactly
  for (const auto* kv : sorted) {
    const Entry& entry = kv->second;
    out << kv->first.ToHexString() << ' ' << entry.improvement_pct << ' ' << entry.support
        << ' ' << entry.regressions << ' ' << (entry.retired ? 1 : 0) << ' '
        << (entry.adopted ? 1 : 0) << ' ' << entry.validation_successes << ' '
        << static_cast<int>(entry.breaker) << ' ' << entry.consecutive_failures << ' '
        << entry.cooldown_remaining << ' ' << entry.probe_successes << ' ' << entry.rollbacks
        << ' ' << ToHintString(entry.config) << '\n';
  }
  return out.str();
}

Status SteeringRecommender::Deserialize(const std::string& content) {
  std::istringstream in(content);
  std::unordered_map<RuleSignature, Entry, BitVector256Hasher> loaded;
  int retired = 0;
  int rollbacks = 0;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string signature_hex, hints;
    Entry entry;
    int retired_flag = 0, adopted_flag = 0, breaker_int = 0;
    if (!(fields >> signature_hex >> entry.improvement_pct >> entry.support >>
          entry.regressions >> retired_flag >> adopted_flag >> entry.validation_successes >>
          breaker_int >> entry.consecutive_failures >> entry.cooldown_remaining >>
          entry.probe_successes >> entry.rollbacks)) {
      return Status::InvalidArgument("malformed store line " + std::to_string(line_number));
    }
    if (breaker_int < 0 || breaker_int > 2) {
      return Status::InvalidArgument("bad breaker state on line " + std::to_string(line_number));
    }
    std::getline(fields, hints);
    if (!hints.empty() && hints.front() == ' ') hints.erase(0, 1);
    RuleSignature signature = BitVector256::FromHexString(signature_hex);
    if (signature.None() && signature_hex != std::string(64, '0')) {
      return Status::InvalidArgument("bad signature on line " + std::to_string(line_number));
    }
    Result<RuleConfig> config = ParseHintString(hints);
    if (!config.ok()) return config.status();
    entry.config = config.value();
    entry.retired = retired_flag != 0;
    entry.adopted = adopted_flag != 0;
    entry.breaker = static_cast<BreakerState>(breaker_int);
    if (entry.retired) ++retired;
    rollbacks += entry.rollbacks;
    loaded.emplace(signature, std::move(entry));
  }
  store_ = std::move(loaded);
  retired_ = retired;
  rollbacks_ = rollbacks;
  return Status::OK();
}

}  // namespace qsteer
