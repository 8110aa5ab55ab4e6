#include "service/replication.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "common/hash.h"

namespace qsteer {

namespace {

/// Admission budget: concurrent serves per replica before re-routing.
constexpr int kMaxInflightPerReplica = 64;

std::string TailFrame(uint64_t epoch,
                      const std::vector<std::pair<uint64_t, std::string>>& entries) {
  std::string frame =
      "TAIL " + std::to_string(epoch) + " " + std::to_string(entries.size()) + "\n";
  for (const auto& [seq, payload] : entries) {
    frame += std::to_string(seq);
    frame += ' ';
    frame += payload;  // single-line by the WAL event grammar
    frame += '\n';
  }
  return frame;
}

}  // namespace

// ---------------------------------------------------------------- ReplicationLog

void ReplicationLog::Append(uint64_t seq, std::string payload) {
  MutexLock lock(mu_);
  // Entries must stay contiguous for Covers() to mean anything; a
  // non-adjacent append (possible only after a state rewind the caller
  // forgot to Clear() for) restarts the buffer rather than lying.
  if (!entries_.empty() && seq != entries_.back().first + 1) entries_.clear();
  entries_.emplace_back(seq, std::move(payload));
  while (entries_.size() > cap_) entries_.pop_front();
}

void ReplicationLog::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
}

bool ReplicationLog::Covers(uint64_t from_seq) const {
  MutexLock lock(mu_);
  if (entries_.empty()) return false;
  return entries_.front().first <= from_seq + 1 && from_seq <= entries_.back().first;
}

std::vector<std::pair<uint64_t, std::string>> ReplicationLog::TailFrom(
    uint64_t from_seq) const {
  MutexLock lock(mu_);
  std::vector<std::pair<uint64_t, std::string>> tail;
  for (const auto& entry : entries_) {
    if (entry.first > from_seq) tail.push_back(entry);
  }
  return tail;
}

size_t ReplicationLog::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

// ------------------------------------------------------------------ ReplicaNode

Status ReplicaNode::Open() {
  auto store = std::make_shared<DurableRecommenderStore>(store_options_);
  Status status = store->Open();
  if (!status.ok()) return status;
  // Every journaled event — locally originated on a leader, replicated on
  // a follower — lands in the tail buffer, so whichever replica wins the
  // next election can ship tails immediately.
  store->SetMutationListener([this](uint64_t seq, const std::string& payload) {
    log_.Append(seq, payload);
  });
  store_.Store(std::move(store));
  return Status::OK();
}

Status ReplicaNode::Reopen() {
  // Process death takes the in-memory tail buffer and epoch knowledge
  // with it; only the disk state (snapshot + WAL) survives into Open().
  log_.Clear();
  epoch_synced_.store(0, std::memory_order_release);
  return Open();
}

uint64_t ReplicaNode::watermark() const {
  std::shared_ptr<DurableRecommenderStore> store = this->store();
  return store == nullptr ? 0 : store->applied_seq();
}

bool ReplicaNode::TryAdmit(int max_inflight) {
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >= max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

Status ReplicaNode::Deliver(std::string_view payload) {
  std::shared_ptr<DurableRecommenderStore> store = this->store();
  if (store == nullptr) return Status::FailedPrecondition("replica store not open");
  size_t newline = payload.find('\n');
  if (newline == std::string_view::npos) {
    return Status::InvalidArgument("replication frame missing header line");
  }
  std::istringstream header{std::string(payload.substr(0, newline))};
  std::string kind;
  uint64_t epoch = 0;
  if (!(header >> kind >> epoch)) {
    return Status::InvalidArgument("malformed replication frame header");
  }
  if (epoch < epoch_synced()) {
    return Status::FailedPrecondition(
        "stale epoch " + std::to_string(epoch) + " < " +
        std::to_string(epoch_synced()) + " at replica " + std::to_string(id_));
  }
  std::string_view body = payload.substr(newline + 1);

  if (kind == "SNAP") {
    Status status = store->InstallSnapshot(std::string(body));
    if (!status.ok()) return status;
    // The buffer predates the install (and may diverge from it); the
    // listener refills it from the install watermark onward.
    log_.Clear();
    set_tainted(false);
    set_epoch_synced(epoch);
    return Status::OK();
  }
  if (kind == "TAIL") {
    uint64_t count = 0;
    if (!(header >> count)) {
      return Status::InvalidArgument("TAIL frame missing entry count");
    }
    set_epoch_synced(epoch);
    std::istringstream lines{std::string(body)};
    std::string line;
    uint64_t applied = 0;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      size_t space = line.find(' ');
      if (space == std::string::npos) {
        return Status::InvalidArgument("malformed TAIL entry: " + line);
      }
      uint64_t seq = 0;
      const char* seq_end = line.data() + space;
      std::from_chars_result parsed = std::from_chars(line.data(), seq_end, seq);
      if (parsed.ec != std::errc() || parsed.ptr != seq_end) {
        return Status::InvalidArgument("malformed TAIL entry seq: " + line);
      }
      Status status = store->ApplyReplicated(seq, line.substr(space + 1));
      if (!status.ok()) return status;  // gap → leader falls back to install
      ++applied;
    }
    if (applied != count) {
      return Status::InvalidArgument("TAIL entry count mismatch: header said " +
                                     std::to_string(count) + ", frame held " +
                                     std::to_string(applied));
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown replication frame kind: " + kind);
}

// ------------------------------------------------------------- ReplicationFleet

ReplicationFleet::ReplicationFleet(FleetOptions options)
    : options_(std::move(options)), ring_(options_.ring_vnodes) {}

uint64_t ReplicationFleet::RouteKey(const RuleSignature& signature) {
  // Hash of the signature bits only — identical across processes and
  // runs, so placement is reproducible (and QL004-clean: no pointers).
  return HashString(signature.ToHexString());
}

Status ReplicationFleet::Start() {
  MutexLock lock(mu_);
  if (!replicas_.empty()) return Status::FailedPrecondition("fleet already started");
  if (options_.num_replicas < 1) {
    return Status::InvalidArgument("fleet needs at least one replica");
  }
  for (int i = 0; i < options_.num_replicas; ++i) {
    DurableStoreOptions store_options;
    store_options.snapshot_interval = options_.snapshot_interval;
    store_options.sync = options_.sync;
    if (!options_.dir.empty()) {
      store_options.dir = options_.dir + "/replica_" + std::to_string(i);
      std::error_code ec;
      std::filesystem::create_directories(store_options.dir, ec);
      if (ec) {
        return Status::Internal("cannot create replica dir " + store_options.dir +
                                ": " + ec.message());
      }
    }
    auto node = std::make_unique<ReplicaNode>(static_cast<uint32_t>(i), store_options,
                                              options_.replication_log_cap);
    Status status = node->Open();
    if (!status.ok()) return status;
    status = transport_.Register(static_cast<uint32_t>(i), node.get());
    if (!status.ok()) return status;
    node->set_alive(true);
    ring_.AddReplica(static_cast<uint32_t>(i));
    replicas_.push_back(std::move(node));
  }
  // Initial election without a failover bump: a whole-fleet restart may
  // recover different watermarks per replica (some were behind at the
  // crash); the same rule as failover — max watermark, lowest id — picks
  // the leader, and everyone else catches up to it.
  epoch_ = 1;
  uint64_t best = 0;
  uint32_t winner = ConsistentHashRing::kNoReplica;
  for (const auto& node : replicas_) {
    uint64_t watermark = node->watermark();
    if (winner == ConsistentHashRing::kNoReplica || watermark > best) {
      winner = node->id();
      best = watermark;
    }
  }
  leader_id_ = winner;
  replicas_[leader_id_]->set_epoch_synced(epoch_);
  for (const auto& node : replicas_) {
    if (node->id() == leader_id_) continue;
    Status status = CatchUpLocked(node->id());
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status ReplicationFleet::EnsureLeaderLocked() {
  if (replicas_.empty()) return Status::FailedPrecondition("fleet not started");
  if (replicas_[leader_id_]->alive()) return Status::OK();
  return ElectLocked();
}

Status ReplicationFleet::ElectLocked() {
  // Deterministic: ascending id scan, strict > keeps the lowest id on
  // watermark ties. Every process running this over the same live set
  // picks the same leader.
  uint32_t winner = ConsistentHashRing::kNoReplica;
  uint64_t best = 0;
  for (const auto& node : replicas_) {
    // Partitioned (link-down) replicas are not electable: an acknowledged
    // mutation is guaranteed present only on replicas that were reachable
    // at ack time, so electing an unreachable one could lose acked data.
    if (!node->alive() || !transport_.link_up(node->id())) continue;
    uint64_t watermark = node->watermark();
    if (winner == ConsistentHashRing::kNoReplica || watermark > best) {
      winner = node->id();
      best = watermark;
    }
  }
  if (winner == ConsistentHashRing::kNoReplica) {
    return Status::Unavailable("no live reachable replica to elect");
  }
  leader_id_ = winner;
  ++epoch_;
  ++failovers_;
  replicas_[winner]->set_epoch_synced(epoch_);
  // Survivors may trail the winner (the dead leader acked only what every
  // reachable follower had, but the winner can still be ahead of the
  // rest); bring them level before serving resumes.
  for (const auto& node : replicas_) {
    if (!node->alive() || node->id() == leader_id_) continue;
    // qsteer-lint: allow(unchecked-status) best-effort; partitioned nodes heal on a later heartbeat
    (void)CatchUpLocked(node->id());
  }
  return Status::OK();
}

Status ReplicationFleet::ShipTailLocked(uint64_t from_seq) {
  ReplicaNode* leader = replicas_[leader_id_].get();
  std::vector<std::pair<uint64_t, std::string>> entries = leader->log().TailFrom(from_seq);
  if (entries.empty()) return Status::OK();
  std::string frame = TailFrame(epoch_, entries);
  for (const auto& node : replicas_) {
    if (!node->alive() || node->id() == leader_id_) continue;
    ++tail_ships_;
    Status status = transport_.Send(node->id(), frame);
    if (status.ok()) continue;
    if (status.code() == StatusCode::kUnavailable) continue;  // partitioned: heals later
    // Checksum reject or follower-side gap: re-derive what this follower
    // actually needs (fresh tail from its watermark, or an install).
    // qsteer-lint: allow(unchecked-status) best-effort; the next heartbeat retries the catch-up
    (void)CatchUpLocked(node->id());
  }
  return Status::OK();
}

Status ReplicationFleet::CatchUpLocked(uint32_t id) {
  ReplicaNode* node = replicas_[id].get();
  ReplicaNode* leader = replicas_[leader_id_].get();
  uint64_t follower_mark = node->watermark();
  uint64_t leader_mark = leader->watermark();
  bool tail_eligible =
      !node->tainted() && follower_mark <= leader_mark &&
      (follower_mark == leader_mark || leader->log().Covers(follower_mark));
  if (tail_eligible) {
    if (follower_mark == leader_mark) {
      node->set_epoch_synced(epoch_);
      return Status::OK();
    }
    std::string frame = TailFrame(epoch_, leader->log().TailFrom(follower_mark));
    ++tail_ships_;
    Status status = transport_.Send(id, frame);
    if (status.ok()) return Status::OK();
    if (status.code() == StatusCode::kUnavailable) return status;
    // fall through: a corrupted frame or unexpected reject → install
  }
  return ShipSnapshotLocked(id);
}

Status ReplicationFleet::ShipSnapshotLocked(uint32_t id) {
  ReplicaNode* leader = replicas_[leader_id_].get();
  std::shared_ptr<DurableRecommenderStore> store = leader->store();
  if (store == nullptr) return Status::FailedPrecondition("leader store not open");
  std::string frame = "SNAP " + std::to_string(epoch_) + "\n" +
                      store->SerializeForReplication();
  ++snapshot_ships_;
  Status status = transport_.Send(id, frame);
  if (status.ok() || status.code() == StatusCode::kUnavailable) return status;
  // One retry: a corrupted delivery consumed the fault-injection flag, so
  // the resend goes through (mirrors a real transport's retransmit).
  ++snapshot_ships_;
  return transport_.Send(id, frame);
}

Status ReplicationFleet::MutateOnLeader(
    const std::function<Status(DurableRecommenderStore&)>& fn) {
  MutexLock lock(mu_);
  Status status = EnsureLeaderLocked();
  if (!status.ok()) return status;
  std::shared_ptr<DurableRecommenderStore> store = replicas_[leader_id_]->store();
  uint64_t before = store->applied_seq();
  status = fn(*store);
  if (!status.ok()) return status;
  if (store->applied_seq() > before) return ShipTailLocked(before);
  return Status::OK();
}

Status ReplicationFleet::LearnFromAnalysis(const JobAnalysis& analysis, bool* learned) {
  return MutateOnLeader([&](DurableRecommenderStore& store) {
    bool did = store.LearnFromAnalysis(analysis);
    if (learned != nullptr) *learned = did;
    return Status::OK();
  });
}

Status ReplicationFleet::LearnCandidate(
    const SteeringRecommender::CandidateObservation& observation, bool* learned) {
  return MutateOnLeader([&](DurableRecommenderStore& store) {
    bool did = store.LearnCandidate(observation);
    if (learned != nullptr) *learned = did;
    return Status::OK();
  });
}

Status ReplicationFleet::ObserveValidation(const RuleSignature& signature,
                                           double runtime_change_pct) {
  return MutateOnLeader([&](DurableRecommenderStore& store) {
    store.ObserveValidation(signature, runtime_change_pct);
    return Status::OK();
  });
}

Status ReplicationFleet::ObserveOutcome(const RuleSignature& signature,
                                        double runtime_change_pct) {
  return MutateOnLeader([&](DurableRecommenderStore& store) {
    store.ObserveOutcome(signature, runtime_change_pct);
    return Status::OK();
  });
}

Status ReplicationFleet::Serve(const RuleSignature& signature, ServeResult* out) {
  Status status = ServeOnce(signature, out);
  int attempts = 1;
  while (!status.ok() && IsTransient(status.code()) &&
         attempts < std::max(1, options_.serve_retry.max_attempts)) {
    // A transient failure here means no live replica — usually a failover
    // window. Account the simulated backoff and retry: a Restart() racing
    // this serve makes the next attempt succeed.
    unavailable_retries_.fetch_add(1, std::memory_order_relaxed);
    retry_backoff_ms_.fetch_add(
        static_cast<int64_t>(options_.serve_retry.BackoffBeforeRetry(attempts) * 1000.0),
        std::memory_order_relaxed);
    ++attempts;
    status = ServeOnce(signature, out);
  }
  return status;
}

Status ReplicationFleet::ServeOnce(const RuleSignature& signature, ServeResult* out) {
  *out = ServeResult{};
  uint64_t key = RouteKey(signature);
  std::vector<uint32_t> preference;
  uint32_t leader = 0;
  uint64_t leader_mark = 0;
  {
    MutexLock lock(mu_);
    Status status = EnsureLeaderLocked();
    if (!status.ok()) return status;
    leader = leader_id_;
    leader_mark = replicas_[leader_id_]->watermark();
    preference = ring_.PreferenceFor(key, static_cast<int>(replicas_.size()));
  }
  serves_.fetch_add(1, std::memory_order_relaxed);

  for (uint32_t id : preference) {
    ReplicaNode* node = replicas_[id].get();
    if (!node->alive()) {
      out->rerouted = true;
      continue;
    }
    if (!node->TryAdmit(kMaxInflightPerReplica)) {
      out->rerouted = true;
      continue;
    }
    if (id != leader) {
      // Staleness shed: a follower too far behind the leader must not
      // answer — its view can predate what clients already saw acked.
      if (node->watermark() + options_.staleness_bound < leader_mark) {
        node->Release();
        out->shed_stale = true;
        sheds_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    std::shared_ptr<DurableRecommenderStore> store = node->store();
    bool served =
        store != nullptr && store->TryRecommendPure(signature, &out->recommendation);
    node->Release();
    if (served) {
      out->replica = id;
      node->count_serve();
      if (out->rerouted) rerouted_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    // The lookup must mutate (open-breaker cooldown tick): leader path.
    break;
  }
  if (out->rerouted) rerouted_.fetch_add(1, std::memory_order_relaxed);

  // Leader fallback: shed, tick, or the whole preference list dead/full.
  MutexLock lock(mu_);
  Status status = EnsureLeaderLocked();
  if (!status.ok()) return status;
  ReplicaNode* node = replicas_[leader_id_].get();
  std::shared_ptr<DurableRecommenderStore> store = node->store();
  if (store == nullptr) return Status::FailedPrecondition("leader store not open");
  uint64_t before = store->applied_seq();
  out->recommendation = store->Recommend(signature);
  out->replica = leader_id_;
  node->count_serve();
  if (store->applied_seq() > before) {
    out->ticked = true;
    return ShipTailLocked(before);
  }
  return Status::OK();
}

Status ReplicationFleet::Kill(uint32_t id) {
  MutexLock lock(mu_);
  if (id >= replicas_.size()) return Status::InvalidArgument("unknown replica");
  ReplicaNode* node = replicas_[id].get();
  if (!node->alive()) return Status::FailedPrecondition("replica already dead");
  node->set_alive(false);
  transport_.SetLinkUp(id, false);
  if (id == leader_id_) {
    // The dying leader may hold journaled-but-unshipped (therefore
    // unacknowledged) events; on rejoin that suffix must be discarded,
    // never tailed on top of the new leader's history.
    node->set_tainted(true);
    Status status = ElectLocked();
    // A fully-dead fleet is legal (kUnavailable until a Restart); the
    // kill itself still succeeded.
    if (!status.ok() && status.code() != StatusCode::kUnavailable) return status;
  }
  return Status::OK();
}

Status ReplicationFleet::Restart(uint32_t id) {
  MutexLock lock(mu_);
  if (id >= replicas_.size()) return Status::InvalidArgument("unknown replica");
  ReplicaNode* node = replicas_[id].get();
  if (node->alive()) return Status::FailedPrecondition("replica already alive");
  Status status = node->Reopen();
  if (!status.ok()) return status;
  node->set_alive(true);
  transport_.SetLinkUp(id, true);
  if (!replicas_[leader_id_]->alive()) return ElectLocked();
  if (id != leader_id_) return CatchUpLocked(id);
  return Status::OK();
}

void ReplicationFleet::SetPartitioned(uint32_t id, bool partitioned) {
  MutexLock lock(mu_);
  transport_.SetLinkUp(id, !partitioned);
}

Status ReplicationFleet::CatchUpAll() {
  MutexLock lock(mu_);
  Status status = EnsureLeaderLocked();
  if (!status.ok()) return status;
  for (const auto& node : replicas_) {
    if (!node->alive() || node->id() == leader_id_) continue;
    Status one = CatchUpLocked(node->id());
    if (!one.ok() && status.ok()) status = one;
  }
  return status;
}

Status ReplicationFleet::CheckConvergence(std::string* detail) const {
  MutexLock lock(mu_);
  std::string reference;
  uint32_t reference_id = ConsistentHashRing::kNoReplica;
  for (const auto& node : replicas_) {
    if (!node->alive()) continue;
    std::shared_ptr<DurableRecommenderStore> store = node->store();
    if (store == nullptr) continue;
    std::string state = store->SerializeState();
    if (reference_id == ConsistentHashRing::kNoReplica) {
      reference = std::move(state);
      reference_id = node->id();
      continue;
    }
    if (state != reference) {
      if (detail != nullptr) {
        *detail = "replica " + std::to_string(node->id()) + " (" +
                  std::to_string(state.size()) + " bytes) diverges from replica " +
                  std::to_string(reference_id) + " (" +
                  std::to_string(reference.size()) + " bytes)";
      }
      return Status::Internal("replica state divergence");
    }
  }
  return Status::OK();
}

uint32_t ReplicationFleet::leader_id() const {
  MutexLock lock(mu_);
  return leader_id_;
}

uint64_t ReplicationFleet::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

std::shared_ptr<DurableRecommenderStore> ReplicationFleet::replica_store(
    uint32_t id) const {
  if (id >= replicas_.size()) return nullptr;
  return replicas_[id]->store();
}

FleetStatus ReplicationFleet::status() const {
  MutexLock lock(mu_);
  FleetStatus fleet;
  fleet.epoch = epoch_;
  fleet.leader_id = leader_id_;
  fleet.serves = serves_.load(std::memory_order_relaxed);
  fleet.rerouted = rerouted_.load(std::memory_order_relaxed);
  fleet.sheds = sheds_.load(std::memory_order_relaxed);
  fleet.failovers = failovers_;
  fleet.tail_ships = tail_ships_;
  fleet.snapshot_ships = snapshot_ships_;
  fleet.transport_frames = transport_.frames_sent();
  fleet.transport_send_failures = transport_.send_failures();
  fleet.transport_checksum_failures = transport_.checksum_failures();
  fleet.unavailable_retries = unavailable_retries_.load(std::memory_order_relaxed);
  fleet.retry_backoff_s =
      static_cast<double>(retry_backoff_ms_.load(std::memory_order_relaxed)) / 1000.0;
  for (const auto& node : replicas_) {
    FleetStatus::Replica replica;
    replica.id = node->id();
    replica.alive = node->alive();
    replica.leader = node->id() == leader_id_;
    replica.tainted = node->tainted();
    replica.watermark = node->watermark();
    replica.epoch_synced = node->epoch_synced();
    replica.serves = node->serves();
    std::shared_ptr<DurableRecommenderStore> store = node->store();
    if (store != nullptr) {
      replica.replicated_applied = store->replicated_applied();
      replica.replicated_skipped = store->replicated_skipped();
      replica.snapshot_installs = store->snapshot_installs();
    }
    fleet.replicas.push_back(replica);
  }
  return fleet;
}

std::string FleetStatus::ToString() const {
  std::ostringstream out;
  out << "fleet: epoch=" << epoch << " leader=" << leader_id << " serves=" << serves
      << " rerouted=" << rerouted << " sheds=" << sheds << " failovers=" << failovers
      << " unavailable_retries=" << unavailable_retries
      << " retry_backoff_s=" << retry_backoff_s << "\n";
  out << "ships: tail=" << tail_ships << " snapshot=" << snapshot_ships
      << " frames=" << transport_frames << " send_failures=" << transport_send_failures
      << " checksum_failures=" << transport_checksum_failures << "\n";
  for (const auto& replica : replicas) {
    out << "replica " << replica.id << ": " << (replica.alive ? "up" : "DOWN")
        << (replica.leader ? " leader" : "") << (replica.tainted ? " tainted" : "")
        << " seq=" << replica.watermark << " epoch=" << replica.epoch_synced
        << " applied=" << replica.replicated_applied
        << " skipped=" << replica.replicated_skipped
        << " installs=" << replica.snapshot_installs << " serves=" << replica.serves
        << "\n";
  }
  return out.str();
}

}  // namespace qsteer
