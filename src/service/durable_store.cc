#include "service/durable_store.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/file_io.h"
#include "core/hints.h"

namespace qsteer {

namespace {

constexpr char kSnapshotFile[] = "snapshot.qrs";
constexpr char kWalFile[] = "wal.log";
constexpr char kSeqCommentPrefix[] = "# seq ";

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseDoubleExact(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

/// The `# seq N` watermark the store appends to every snapshot it writes
/// (the last such line wins). A missing, non-numeric or overflowing value is
/// an error: recovery would skip or replay the wrong WAL records.
Result<uint64_t> ParseSnapshotSeq(const std::string& content) {
  std::optional<uint64_t> seq;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(kSeqCommentPrefix, 0) != 0) continue;
    const char* first = line.data() + std::strlen(kSeqCommentPrefix);
    const char* last = line.data() + line.size();
    uint64_t value = 0;
    std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      return Status::InvalidArgument("malformed snapshot watermark '" + line + "'");
    }
    seq = value;
  }
  if (!seq.has_value()) return Status::InvalidArgument("snapshot has no '# seq' watermark");
  return *seq;
}

/// One journaled event, parsed from its single-line payload:
///   L <sig-hex> <improvement-pct> <hint-string (may be empty)>
///   V <sig-hex> <runtime-change-pct>
///   O <sig-hex> <runtime-change-pct>
///   R <sig-hex>
struct StoreEvent {
  char kind = 'R';
  RuleSignature signature;
  double change = 0.0;  // L: improvement; V, O: runtime change
  RuleConfig config;    // L only
};

/// The fallible half of applying a payload: WAL replay and the follower
/// apply path both parse first, so a bad payload changes nothing.
Result<StoreEvent> ParseEvent(const std::string& payload) {
  std::istringstream in(payload);
  std::string type, sig_hex;
  if (!(in >> type >> sig_hex)) {
    return Status::InvalidArgument("malformed wal event: " + payload);
  }
  if (type != "L" && type != "V" && type != "O" && type != "R") {
    return Status::InvalidArgument("unknown wal event type: " + payload);
  }
  StoreEvent event;
  event.kind = type[0];
  event.signature = BitVector256::FromHexString(sig_hex);
  if (event.signature.None() && sig_hex != std::string(64, '0')) {
    return Status::InvalidArgument("bad signature in wal event: " + payload);
  }
  if (event.kind == 'R') return event;
  std::string change_text;
  if (!(in >> change_text)) {
    return Status::InvalidArgument("missing change in wal event: " + payload);
  }
  if (!ParseDoubleExact(change_text, &event.change)) {
    return Status::InvalidArgument("bad change in wal event: " + payload);
  }
  if (event.kind == 'L') {
    std::string hints;
    std::getline(in, hints);
    if (!hints.empty() && hints.front() == ' ') hints.erase(0, 1);
    Result<RuleConfig> config = ParseHintString(hints);
    if (!config.ok()) return config.status();
    event.config = config.value();
  }
  return event;
}

/// The infallible half: every parsed event applies.
void ApplyEvent(const StoreEvent& event, SteeringRecommender* recommender) {
  if (event.kind == 'L') {
    recommender->LearnCandidate({event.signature, event.config, event.change});
  } else if (event.kind == 'V') {
    recommender->ObserveValidation(event.signature, event.change);
  } else if (event.kind == 'O') {
    recommender->ObserveOutcome(event.signature, event.change);
  } else {
    recommender->Recommend(event.signature);
  }
}

}  // namespace

std::string DurableRecommenderStore::RecoveryInfo::ToString() const {
  std::ostringstream out;
  out << "snapshot=" << (loaded_snapshot ? "loaded" : "none")
      << " snapshot_seq=" << snapshot_seq << " wal_replayed=" << wal_records_replayed
      << " wal_skipped=" << wal_records_skipped
      << " wal_truncated_bytes=" << wal_truncated_bytes;
  return out.str();
}

DurableRecommenderStore::DurableRecommenderStore(DurableStoreOptions options)
    : options_(std::move(options)), recommender_(options_.recommender) {}

// No snapshot on destruction on purpose: dropping the object is the chaos
// harness's crash simulation, and a crash does not get to flush. Clean
// shutdown paths call Snapshot() explicitly.
DurableRecommenderStore::~DurableRecommenderStore() = default;

std::string DurableRecommenderStore::snapshot_path() const {
  return options_.dir + "/" + kSnapshotFile;
}

std::string DurableRecommenderStore::wal_path() const {
  return options_.dir + "/" + kWalFile;
}

DurableRecommenderStore::RecoveryInfo DurableRecommenderStore::recovery() const {
  MutexLock lock(mu_);
  return recovery_;
}

Status DurableRecommenderStore::Open() {
  MutexLock lock(mu_);
  if (open_) return Status::FailedPrecondition("store already open");
  recovery_ = RecoveryInfo{};
  if (!durable()) {
    open_ = true;
    PublishViewLocked();
    return Status::OK();
  }

  // 1. Snapshot (atomic write + crc32 footer + `# seq` watermark). The store
  //    writes no other format, so a checksum mismatch, a missing footer (a
  //    file cut short at a line boundary), a foreign header or a missing or
  //    malformed watermark means external damage and is a hard error.
  Result<std::string> snapshot = ReadArtifact(snapshot_path(), kRecommenderStoreHeader);
  if (snapshot.ok()) {
    Result<uint64_t> seq = ParseSnapshotSeq(snapshot.value());
    if (!seq.ok()) {
      return Status::Internal("corrupt snapshot " + snapshot_path() + ": " +
                              seq.status().message());
    }
    Status status = recommender_.Deserialize(snapshot.value());
    if (!status.ok()) {
      return Status::Internal("corrupt snapshot " + snapshot_path() + ": " +
                              status.message());
    }
    recovery_.loaded_snapshot = true;
    recovery_.snapshot_seq = seq.value();
    applied_seq_ = seq.value();
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // 2. WAL tail: replay events the snapshot has not captured; skip the ones
  //    it has (crash between snapshot write and WAL reset). Recover()
  //    truncates any torn/corrupt suffix in place.
  Result<WriteAheadLog::RecoveryInfo> wal_info = WriteAheadLog::Recover(
      wal_path(), [&](uint64_t seq, std::string_view payload) -> Status {
        if (seq <= recovery_.snapshot_seq) {
          ++recovery_.wal_records_skipped;
          return Status::OK();
        }
        Result<StoreEvent> event = ParseEvent(std::string(payload));
        if (!event.ok()) return event.status();
        ApplyEvent(event.value(), &recommender_);
        applied_seq_ = seq;
        ++recovery_.wal_records_replayed;
        return Status::OK();
      });
  if (!wal_info.ok()) return wal_info.status();
  recovery_.wal_truncated_bytes = wal_info.value().truncated_bytes;
  events_since_snapshot_ = recovery_.wal_records_replayed;

  Status status = wal_.Open(wal_path(), options_.sync);
  if (!status.ok()) return status;
  open_ = true;
  PublishViewLocked();
  return Status::OK();
}

void DurableRecommenderStore::PublishViewLocked() {
  auto view = std::make_shared<RecommendationView>();
  for (SteeringRecommender::SnapshotEntry& row : recommender_.SnapshotRecommendations()) {
    RuleSignature signature = row.signature;
    view->rows.emplace(signature, std::move(row));
  }
  view_.Store(std::move(view));
}

SteeringRecommender::Recommendation DurableRecommenderStore::RecommendFast(
    const RuleSignature& signature) {
  SteeringRecommender::Recommendation rec;
  if (TryRecommendPure(signature, &rec)) return rec;
  // Open breaker (cooldown must tick and be journaled) or pre-Open call:
  // take the slow, locked path.
  locked_recommends_.fetch_add(1, std::memory_order_relaxed);
  return Recommend(signature);
}

Status DurableRecommenderStore::JournalAndMark(const std::string& payload) {
  if (durable()) {
    Status status = wal_.Append(applied_seq_ + 1, payload);
    // Fail-stop: an unjournalable event is never applied, preserving the
    // invariant that in-memory state is always recoverable from disk.
    if (!status.ok()) return status;
  }
  ++applied_seq_;
  ++events_since_snapshot_;
  if (mutation_listener_) mutation_listener_(applied_seq_, payload);
  return Status::OK();
}

Status DurableRecommenderStore::MaybeSnapshotLocked() {
  if (options_.snapshot_interval > 0 && events_since_snapshot_ >= options_.snapshot_interval) {
    return SnapshotLocked();
  }
  return Status::OK();
}

Status DurableRecommenderStore::SnapshotLocked() {
  if (!durable()) return Status::OK();
  std::string content = recommender_.Serialize();
  content += kSeqCommentPrefix + std::to_string(applied_seq_) + "\n";
  Status status = WriteArtifact(snapshot_path(), kRecommenderStoreHeader, content, options_.sync);
  if (!status.ok()) return status;
  ++snapshots_taken_;
  events_since_snapshot_ = 0;
  if (options_.testing_skip_wal_reset_after_snapshot) return Status::OK();
  return wal_.Reset();
}

Status DurableRecommenderStore::Snapshot() {
  MutexLock lock(mu_);
  return SnapshotLocked();
}

bool DurableRecommenderStore::LearnFromAnalysis(const JobAnalysis& analysis) {
  std::optional<SteeringRecommender::CandidateObservation> observation =
      SteeringRecommender::ExtractCandidate(analysis, options_.recommender);
  if (!observation.has_value()) return false;
  return LearnCandidate(*observation);
}

bool DurableRecommenderStore::LearnCandidate(
    const SteeringRecommender::CandidateObservation& observation) {
  MutexLock lock(mu_);
  std::string payload = "L " + observation.signature.ToHexString() + " " +
                        FormatDouble(observation.improvement_pct) + " " +
                        ToHintString(observation.config);
  if (!JournalAndMark(payload).ok()) return false;
  bool changed = recommender_.LearnCandidate(observation);
  if (changed) PublishViewLocked();
  // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
  return changed;
}

void DurableRecommenderStore::ObserveValidation(const RuleSignature& signature,
                                                double runtime_change_pct) {
  MutexLock lock(mu_);
  std::string payload =
      "V " + signature.ToHexString() + " " + FormatDouble(runtime_change_pct);
  if (!JournalAndMark(payload).ok()) return;
  recommender_.ObserveValidation(signature, runtime_change_pct);
  PublishViewLocked();
  // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
}

void DurableRecommenderStore::ObserveOutcome(const RuleSignature& signature,
                                             double runtime_change_pct) {
  MutexLock lock(mu_);
  std::string payload =
      "O " + signature.ToHexString() + " " + FormatDouble(runtime_change_pct);
  if (!JournalAndMark(payload).ok()) return;
  recommender_.ObserveOutcome(signature, runtime_change_pct);
  PublishViewLocked();
  // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
}

SteeringRecommender::Recommendation DurableRecommenderStore::Recommend(
    const RuleSignature& signature) {
  MutexLock lock(mu_);
  // Only journal lookups that tick an open breaker's cooldown clock; plain
  // lookups are pure reads and must not bloat the WAL under serving load.
  if (recommender_.WouldMutateOnRecommend(signature)) {
    std::string payload = "R " + signature.ToHexString();
    if (!JournalAndMark(payload).ok()) {
      // Unjournalable: serve the default without mutating (fail-stop).
      SteeringRecommender::Recommendation rec;
      rec.config = RuleConfig::Default();
      return rec;
    }
    SteeringRecommender::Recommendation rec = recommender_.Recommend(signature);
    PublishViewLocked();
    // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
    return rec;
  }
  return recommender_.Recommend(signature);
}

bool DurableRecommenderStore::TryRecommendPure(
    const RuleSignature& signature, SteeringRecommender::Recommendation* out) const {
  std::shared_ptr<const RecommendationView> view = view_.Load();
  if (view == nullptr) return false;
  auto it = view->rows.find(signature);
  if (it == view->rows.end()) {
    fast_recommends_.fetch_add(1, std::memory_order_relaxed);
    *out = SteeringRecommender::Recommendation{};
    out->config = RuleConfig::Default();
    return true;
  }
  if (it->second.mutates_on_recommend) return false;
  fast_recommends_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second.recommendation;
  return true;
}

void DurableRecommenderStore::SetMutationListener(MutationListener listener) {
  MutexLock lock(mu_);
  mutation_listener_ = std::move(listener);
}

Status DurableRecommenderStore::ApplyReplicated(uint64_t seq, const std::string& payload) {
  MutexLock lock(mu_);
  if (!open_) return Status::FailedPrecondition("store not open");
  if (seq <= applied_seq_) {
    // Idempotent skip: this entry is already part of the local state
    // (overlapping tail segment, duplicate shipment after a retry).
    ++replicated_skipped_;
    return Status::OK();
  }
  if (seq != applied_seq_ + 1) {
    return Status::FailedPrecondition(
        "replication gap: local watermark " + std::to_string(applied_seq_) +
        ", shipped seq " + std::to_string(seq) + " (snapshot install required)");
  }
  Result<StoreEvent> event = ParseEvent(payload);
  if (!event.ok()) return event.status();
  Status status = JournalAndMark(payload);
  if (!status.ok()) return status;
  ApplyEvent(event.value(), &recommender_);
  ++replicated_applied_;
  PublishViewLocked();
  // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
  return Status::OK();
}

std::string DurableRecommenderStore::SerializeForReplication() const {
  MutexLock lock(mu_);
  return recommender_.Serialize() + kSeqCommentPrefix + std::to_string(applied_seq_) + "\n";
}

Status DurableRecommenderStore::InstallSnapshot(const std::string& content) {
  MutexLock lock(mu_);
  if (!open_) return Status::FailedPrecondition("store not open");
  Result<uint64_t> seq = ParseSnapshotSeq(content);
  if (!seq.ok()) {
    return Status::InvalidArgument("corrupt snapshot install: " + seq.status().message());
  }
  // Validate into the live recommender only after parsing succeeds; a
  // corrupt install must leave the current state untouched.
  SteeringRecommender incoming(options_.recommender);
  Status status = incoming.Deserialize(content);
  if (!status.ok()) {
    return Status::InvalidArgument("corrupt snapshot install: " + status.message());
  }
  if (durable()) {
    // WAL first, snapshot second — deliberately the inverse of the
    // periodic SnapshotLocked() ordering. An install may REWIND the local
    // watermark (a rejoining ex-leader discards its unacknowledged
    // suffix), so the local WAL can hold entries with seq beyond the
    // incoming snapshot's that must never replay on top of it. Resetting
    // the WAL first means a crash in the window leaves the old on-disk
    // snapshot + empty WAL: a consistent, merely stale state that the next
    // catch-up repairs. Snapshot-first would leave installed-state +
    // divergent-tail — silently wrong after recovery.
    status = wal_.Reset();
    if (!status.ok()) return status;
    if (!options_.testing_skip_snapshot_write_after_install_reset) {
      status = WriteArtifact(snapshot_path(), kRecommenderStoreHeader, content, options_.sync);
      if (!status.ok()) return status;
      ++snapshots_taken_;
    }
  }
  recommender_ = std::move(incoming);
  applied_seq_ = seq.value();
  events_since_snapshot_ = 0;
  ++snapshot_installs_;
  PublishViewLocked();
  return Status::OK();
}

int64_t DurableRecommenderStore::replicated_applied() const {
  MutexLock lock(mu_);
  return replicated_applied_;
}

int64_t DurableRecommenderStore::replicated_skipped() const {
  MutexLock lock(mu_);
  return replicated_skipped_;
}

int64_t DurableRecommenderStore::snapshot_installs() const {
  MutexLock lock(mu_);
  return snapshot_installs_;
}

std::vector<SteeringRecommender::ValidationRequest>
DurableRecommenderStore::PendingValidations() const {
  MutexLock lock(mu_);
  return recommender_.PendingValidations();
}

std::string DurableRecommenderStore::SerializeState() const {
  MutexLock lock(mu_);
  return recommender_.Serialize();
}

int DurableRecommenderStore::num_groups() const {
  MutexLock lock(mu_);
  return recommender_.num_groups();
}

int DurableRecommenderStore::num_serving() const {
  MutexLock lock(mu_);
  return recommender_.num_serving();
}

int DurableRecommenderStore::num_pending_validation() const {
  MutexLock lock(mu_);
  return recommender_.num_pending_validation();
}

int DurableRecommenderStore::num_retired() const {
  MutexLock lock(mu_);
  return recommender_.num_retired();
}

int DurableRecommenderStore::num_rollbacks() const {
  MutexLock lock(mu_);
  return recommender_.num_rollbacks();
}

int DurableRecommenderStore::num_open() const {
  MutexLock lock(mu_);
  return recommender_.num_open();
}

uint64_t DurableRecommenderStore::applied_seq() const {
  MutexLock lock(mu_);
  return applied_seq_;
}

int64_t DurableRecommenderStore::wal_lag() const {
  MutexLock lock(mu_);
  return events_since_snapshot_;
}

int64_t DurableRecommenderStore::snapshots_taken() const {
  MutexLock lock(mu_);
  return snapshots_taken_;
}

}  // namespace qsteer
