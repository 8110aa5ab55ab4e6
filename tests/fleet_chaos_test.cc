// Chaos tests of the replicated serving tier: kill/restart churn,
// deterministic failover, tail vs. snapshot catch-up, staleness shedding,
// wire corruption, day-1 learning and validation re-runs reported through
// the leader, and concurrent serving during churn (TSan coverage).
#include "service/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/hash_ring.h"
#include "service/steering_service.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_fleet_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

RuleSignature Sig(int bit) {
  RuleSignature s;
  s.Set(bit);
  return s;
}

RuleConfig AltConfig(int n) {
  RuleConfig def = RuleConfig::Default();
  std::vector<int> toggleable;
  for (int id = 0; id < 256; ++id) {
    RuleConfig config = def;
    if (config.IsEnabled(id)) {
      config.Disable(id);
    } else {
      config.Enable(id);
    }
    if (config != def) toggleable.push_back(id);
  }
  RuleConfig config = def;
  int id = toggleable[static_cast<size_t>(n) % toggleable.size()];
  if (config.IsEnabled(id)) {
    config.Disable(id);
  } else {
    config.Enable(id);
  }
  return config;
}

SteeringRecommender::CandidateObservation Candidate(int sig_bit, int config_n,
                                                    double improvement) {
  SteeringRecommender::CandidateObservation observation;
  observation.signature = Sig(sig_bit);
  observation.config = AltConfig(config_n);
  observation.improvement_pct = improvement;
  return observation;
}

FleetOptions Options(const std::string& dir, int replicas = 3) {
  FleetOptions options;
  options.dir = dir;
  options.num_replicas = replicas;
  options.snapshot_interval = 16;
  options.sync = false;
  options.staleness_bound = 8;
  return options;
}

/// Acked-mutation journal: what golden replay reconstructs from.
struct AckedOp {
  int sig_bit;
  int config_n;
  double value;
  char type;  // 'L' learn, 'O' outcome, 'V' validation
};

void ApplyAcked(DurableRecommenderStore& store, const AckedOp& op) {
  switch (op.type) {
    case 'L':
      store.LearnCandidate(Candidate(op.sig_bit, op.config_n, op.value));
      break;
    case 'V':
      store.ObserveValidation(Sig(op.sig_bit), op.value);
      break;
    default:
      store.ObserveOutcome(Sig(op.sig_bit), op.value);
      break;
  }
}

/// Replays the acked-op journal into a fresh ephemeral store: the ground
/// truth every surviving replica must match bit-for-bit.
std::string GoldenState(const std::vector<AckedOp>& acked) {
  DurableRecommenderStore store;
  EXPECT_TRUE(store.Open().ok());
  for (const AckedOp& op : acked) ApplyAcked(store, op);
  return store.SerializeState();
}

TEST(FleetTest, MutationsReplicateToAllFollowers) {
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_EQ(fleet.leader_id(), 0u);
  EXPECT_EQ(fleet.epoch(), 1u);
  bool learned = false;
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0), &learned).ok());
  EXPECT_TRUE(learned);
  ASSERT_TRUE(fleet.ObserveValidation(Sig(1), -9.0).ok());
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    EXPECT_EQ(fleet.replica_store(static_cast<uint32_t>(i))->applied_seq(), 2u)
        << "replica " << i;
  }
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

TEST(FleetTest, ServingRoutesMatchAStandaloneRing) {
  // The fleet's routing must be exactly the documented consistent-hash
  // placement — a test ring built independently predicts which replica
  // serves each signature.
  TempDir dir;
  FleetOptions options = Options(dir.path());
  ReplicationFleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(3, 0, -10.0)).ok());
  ConsistentHashRing ring(options.ring_vnodes);
  for (uint32_t r = 0; r < 3; ++r) ring.AddReplica(r);
  for (int bit = 0; bit < 64; ++bit) {
    ReplicationFleet::ServeResult result;
    ASSERT_TRUE(fleet.Serve(Sig(bit), &result).ok());
    EXPECT_EQ(result.replica, ring.RouteFor(ReplicationFleet::RouteKey(Sig(bit))))
        << "bit " << bit;
    EXPECT_FALSE(result.rerouted);
  }
}

TEST(FleetTest, FollowerKillRestartCatchesUpByTail) {
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  ASSERT_TRUE(fleet.Kill(2).ok());
  // Mutations continue while replica 2 is down (still acked: 2 is dead,
  // not reachable).
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(fleet.ObserveOutcome(Sig(1), -8.0).ok());
  uint64_t leader_mark = fleet.replica_store(fleet.leader_id())->applied_seq();
  ASSERT_TRUE(fleet.Restart(2).ok());
  std::shared_ptr<DurableRecommenderStore> follower = fleet.replica_store(2);
  // Disk recovery + tail catch-up from the `# seq N` watermark — no
  // snapshot install needed for a clean follower restart.
  EXPECT_EQ(follower->snapshot_installs(), 0);
  EXPECT_GT(follower->replicated_applied(), 0);
  EXPECT_EQ(follower->applied_seq(), leader_mark);
  EXPECT_TRUE(fleet.CheckConvergence().ok());
  EXPECT_EQ(fleet.epoch(), 1u);  // no election happened
}

TEST(FleetTest, LeaderKillElectsDeterministicallyAndLosesNothing) {
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  std::vector<AckedOp> acked;
  auto learn = [&](int bit, int cfg, double v) {
    ASSERT_TRUE(fleet.LearnCandidate(Candidate(bit, cfg, v)).ok());
    acked.push_back({bit, cfg, v, 'L'});
  };
  auto outcome = [&](int bit, double v) {
    ASSERT_TRUE(fleet.ObserveOutcome(Sig(bit), v).ok());
    acked.push_back({bit, 0, v, 'O'});
  };
  learn(1, 0, -10.0);
  learn(2, 1, -12.0);
  outcome(1, -9.0);
  ASSERT_EQ(fleet.leader_id(), 0u);
  ASSERT_TRUE(fleet.Kill(0).ok());
  // All survivors share the max watermark; the tie breaks to the lowest
  // id — replica 1, on any machine, every run.
  EXPECT_EQ(fleet.leader_id(), 1u);
  EXPECT_EQ(fleet.epoch(), 2u);
  // Every acked mutation survived the failover.
  std::string golden = GoldenState(acked);
  EXPECT_EQ(fleet.replica_store(1)->SerializeState(), golden);
  EXPECT_EQ(fleet.replica_store(2)->SerializeState(), golden);
  // The fleet keeps accepting mutations under the new leader.
  outcome(2, -11.0);
  EXPECT_TRUE(fleet.CheckConvergence().ok());
  EXPECT_EQ(fleet.replica_store(2)->SerializeState(), GoldenState(acked));
}

TEST(FleetTest, RejoiningExLeaderDiscardsDivergentSuffixViaInstall) {
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  std::vector<AckedOp> acked;
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  acked.push_back({1, 0, -10.0, 'L'});
  ASSERT_TRUE(fleet.Kill(0).ok());
  ASSERT_EQ(fleet.leader_id(), 1u);
  // History moves on without replica 0; the new leader reuses sequence
  // numbers replica 0 may have journaled differently.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.ObserveOutcome(Sig(1), -7.0).ok());
    acked.push_back({1, 0, -7.0, 'O'});
  }
  ASSERT_TRUE(fleet.Restart(0).ok());
  // An ex-leader always snapshot-installs on rejoin: its unacknowledged
  // suffix (if any) must never be tailed on top of the new history.
  EXPECT_GE(fleet.replica_store(0)->snapshot_installs(), 1);
  EXPECT_EQ(fleet.replica_store(0)->SerializeState(), GoldenState(acked));
  EXPECT_TRUE(fleet.CheckConvergence().ok());
  // Replica 0 rejoined as a follower; leadership did not revert.
  EXPECT_EQ(fleet.leader_id(), 1u);
}

TEST(FleetTest, PartitionedFollowerShedsStaleReadsThenHeals) {
  TempDir dir;
  FleetOptions options = Options(dir.path());
  options.staleness_bound = 4;
  ReplicationFleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());

  // Find a signature whose primary is a follower (not the leader).
  ConsistentHashRing ring(options.ring_vnodes);
  for (uint32_t r = 0; r < 3; ++r) ring.AddReplica(r);
  int follower_bit = -1;
  uint32_t follower_id = 0;
  for (int bit = 0; bit < 256; ++bit) {
    uint32_t primary = ring.RouteFor(ReplicationFleet::RouteKey(Sig(bit)));
    if (primary != fleet.leader_id()) {
      follower_bit = bit;
      follower_id = primary;
      break;
    }
  }
  ASSERT_GE(follower_bit, 0);

  // Partition that follower and push the leader past the staleness bound.
  fleet.SetPartitioned(follower_id, true);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(fleet.ObserveOutcome(Sig(1), -6.0).ok());

  ReplicationFleet::ServeResult result;
  ASSERT_TRUE(fleet.Serve(Sig(follower_bit), &result).ok());
  EXPECT_TRUE(result.shed_stale);
  EXPECT_EQ(result.replica, fleet.leader_id());

  // Heal: the follower catches up and serves its keys again.
  fleet.SetPartitioned(follower_id, false);
  ASSERT_TRUE(fleet.CatchUpAll().ok());
  ASSERT_TRUE(fleet.Serve(Sig(follower_bit), &result).ok());
  EXPECT_FALSE(result.shed_stale);
  EXPECT_EQ(result.replica, follower_id);
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

TEST(FleetTest, DeadPrimaryReroutesDownPreferenceList) {
  TempDir dir;
  FleetOptions options = Options(dir.path());
  ReplicationFleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  ConsistentHashRing ring(options.ring_vnodes);
  for (uint32_t r = 0; r < 3; ++r) ring.AddReplica(r);
  // A signature primarily owned by follower 2 (kill target).
  int bit = -1;
  for (int b = 0; b < 256; ++b) {
    if (ring.RouteFor(ReplicationFleet::RouteKey(Sig(b))) == 2u && fleet.leader_id() != 2u) {
      bit = b;
      break;
    }
  }
  ASSERT_GE(bit, 0);
  ASSERT_TRUE(fleet.Kill(2).ok());
  ReplicationFleet::ServeResult result;
  ASSERT_TRUE(fleet.Serve(Sig(bit), &result).ok());
  EXPECT_TRUE(result.rerouted);
  EXPECT_NE(result.replica, 2u);
  ASSERT_TRUE(fleet.Restart(2).ok());
  ASSERT_TRUE(fleet.Serve(Sig(bit), &result).ok());
  EXPECT_EQ(result.replica, 2u);  // ownership returns with the replica
}

TEST(FleetTest, CorruptedFrameIsDetectedAndConvergesAnyway) {
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  int64_t before = fleet.transport().checksum_failures();
  fleet.transport().CorruptNextDelivery(1);
  // The corrupted shipment is rejected by the receiver-side crc; the
  // leader immediately re-derives the catch-up, so the mutation still
  // lands everywhere before the call returns.
  ASSERT_TRUE(fleet.ObserveOutcome(Sig(1), -5.0).ok());
  EXPECT_EQ(fleet.transport().checksum_failures(), before + 1);
  EXPECT_EQ(fleet.replica_store(1)->applied_seq(),
            fleet.replica_store(fleet.leader_id())->applied_seq());
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

TEST(FleetTest, TailEntryWithMalformedSeqIsRejectedNotSkipped) {
  // A TAIL entry's seq must parse strictly: read leniently, "x" becomes
  // seq 0, which is at or below the watermark, so the entry would be
  // dropped as an idempotent duplicate and the frame acknowledged.
  ReplicaNode node(/*id=*/1, DurableStoreOptions{});
  ASSERT_TRUE(node.Open().ok());
  node.store()->LearnCandidate(Candidate(1, 0, -10.0));
  node.store()->ObserveValidation(Sig(1), -9.0);
  const uint64_t applied = node.store()->applied_seq();
  const int64_t skipped = node.store()->replicated_skipped();
  const std::string state = node.store()->SerializeState();
  ASSERT_EQ(applied, 2u);
  for (const char* seq : {"", "x", "12x", "-1", "18446744073709551616"}) {
    const std::string frame = std::string("TAIL 0 1\n") + seq + " garbage\n";
    EXPECT_FALSE(node.Deliver(frame).ok()) << '"' << seq << '"';
    EXPECT_EQ(node.store()->applied_seq(), applied) << '"' << seq << '"';
    EXPECT_EQ(node.store()->replicated_skipped(), skipped) << '"' << seq << '"';
    EXPECT_EQ(node.store()->SerializeState(), state) << '"' << seq << '"';
  }
}

TEST(FleetTest, TailEntryWithMalformedPayloadIsRejectedBeforeJournaling) {
  // A TAIL entry with the next seq but a payload that does not parse must
  // change nothing. Journaled first, it would advance the watermark and sit
  // in the WAL as a record that recovery cannot replay: Reopen would fail.
  TempDir dir;
  DurableStoreOptions store_options;
  store_options.dir = dir.path();
  store_options.sync = false;
  ReplicaNode node(/*id=*/1, store_options);
  ASSERT_TRUE(node.Open().ok());
  node.store()->LearnCandidate(Candidate(1, 0, -10.0));
  const uint64_t applied = node.store()->applied_seq();
  const std::string state = node.store()->SerializeState();
  ASSERT_EQ(applied, 1u);
  const std::string sig = Sig(1).ToHexString();
  for (const std::string& payload : {"Z " + sig + " 1", "V " + sig + " abc",
                                     "L " + sig + " -5 BOGUS(", "O " + sig,
                                     std::string("V xyz 1")}) {
    const std::string frame =
        "TAIL 0 1\n" + std::to_string(applied + 1) + " " + payload + "\n";
    EXPECT_FALSE(node.Deliver(frame).ok()) << payload;
    EXPECT_EQ(node.store()->applied_seq(), applied) << payload;
    EXPECT_EQ(node.store()->SerializeState(), state) << payload;
    ASSERT_TRUE(node.Reopen().ok()) << payload;
    EXPECT_EQ(node.store()->applied_seq(), applied) << payload;
    EXPECT_EQ(node.store()->SerializeState(), state) << payload;
  }
}

TEST(FleetTest, EphemeralFleetRestartInstallsSnapshot) {
  // Without a durable dir a restarted replica recovers nothing from disk:
  // catch-up must fall back to a snapshot install (watermark 0 is outside
  // any bounded tail buffer once history is long enough).
  FleetOptions options = Options("");
  options.replication_log_cap = 4;
  ReplicationFleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  ASSERT_TRUE(fleet.Kill(2).ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(fleet.ObserveOutcome(Sig(1), -5.0).ok());
  ASSERT_TRUE(fleet.Restart(2).ok());
  EXPECT_GE(fleet.replica_store(2)->snapshot_installs(), 1);
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

TEST(FleetTest, WholeFleetRestartRecoversFromDisk) {
  TempDir dir;
  std::vector<AckedOp> acked;
  {
    ReplicationFleet fleet(Options(dir.path()));
    ASSERT_TRUE(fleet.Start().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(fleet.LearnCandidate(Candidate(i, i, -10.0 - i)).ok());
      acked.push_back({i, i, -10.0 - i, 'L'});
    }
  }  // every replica "crashes" (no clean shutdown snapshot beyond interval)
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  std::string golden = GoldenState(acked);
  for (int i = 0; i < fleet.num_replicas(); ++i) {
    EXPECT_EQ(fleet.replica_store(static_cast<uint32_t>(i))->SerializeState(), golden)
        << "replica " << i;
  }
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

TEST(FleetTest, ServeRetriesTransientUnavailableWithBackoff) {
  // A fully-dead fleet answers Serve with kUnavailable — a transient code
  // (common/status.h IsTransient) — so the serve wrapper must burn its
  // retry budget with accounted backoff, surface kUnavailable (never a
  // wrong answer), and recover as soon as a replica restarts.
  TempDir dir;
  FleetOptions options = Options(dir.path());
  options.serve_retry.max_attempts = 3;
  ReplicationFleet fleet(options);
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.LearnCandidate(Candidate(1, 0, -10.0)).ok());
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Kill(r).ok());

  ReplicationFleet::ServeResult result;
  Status status = fleet.Serve(Sig(1), &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  FleetStatus snapshot = fleet.status();
  EXPECT_EQ(snapshot.unavailable_retries, 2) << "max_attempts - 1 retries";
  EXPECT_GT(snapshot.retry_backoff_s, 0.0) << "backoff accounted, never slept";

  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Restart(r).ok());
  ASSERT_TRUE(fleet.Serve(Sig(1), &result).ok());
  EXPECT_EQ(fleet.status().unavailable_retries, 2)
      << "a healthy serve consumes no retries";
}

TEST(FleetTest, ValidationGateReportsThroughTheLeader) {
  // The gate reads the leader's pending candidates, re-runs them, and
  // reports through the fleet: the verdicts replicate like any mutation.
  Workload workload(WorkloadSpec::WorkloadB(0.003));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions pipeline_options;
  pipeline_options.max_candidate_configs = 60;
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  std::unordered_map<std::string, Job> group_jobs;
  std::vector<Job> jobs = workload.JobsForDay(1);
  for (size_t i = 0; i < 12 && i < jobs.size(); ++i) {
    JobAnalysis analysis = pipeline.AnalyzeJob(jobs[i]);
    bool learned = false;
    ASSERT_TRUE(fleet.LearnFromAnalysis(analysis, &learned).ok());
    if (learned) group_jobs.emplace(analysis.default_plan.signature.ToHexString(), jobs[i]);
  }
  ASSERT_FALSE(group_jobs.empty());
  ValidationReport report = [&fleet](const RuleSignature& signature, double change_pct) {
    return fleet.ObserveValidation(signature, change_pct);
  };

  // With every replica down the fleet refuses the first report, and the
  // gate returns the fleet's status.
  std::shared_ptr<DurableRecommenderStore> leader = fleet.replica_store(fleet.leader_id());
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Kill(r).ok());
  EXPECT_EQ(RunValidationGate(pipeline, group_jobs, *leader, report).code(),
            StatusCode::kUnavailable);
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Restart(r).ok());

  leader = fleet.replica_store(fleet.leader_id());
  ASSERT_GT(leader->num_pending_validation(), 0);
  ASSERT_TRUE(RunValidationGate(pipeline, group_jobs, *leader, report).ok());
  EXPECT_EQ(leader->num_pending_validation(), 0);
  ASSERT_TRUE(fleet.CatchUpAll().ok());
  std::string detail;
  EXPECT_TRUE(fleet.CheckConvergence(&detail).ok()) << detail;
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(fleet.replica_store(r)->num_serving(), leader->num_serving()) << "replica " << r;
  }
}

TEST(FleetTest, LearnDayStopsAtTheFirstRefusedLearn) {
  // Day-1 learning through the fleet, the way serve-fleet runs it: a learn
  // the fleet refuses ends the day with the fleet's status, before any
  // validation re-run.
  Workload workload(WorkloadSpec::WorkloadB(0.003));
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions pipeline_options;
  pipeline_options.max_candidate_configs = 60;
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  std::vector<Job> jobs = workload.JobsForDay(1);
  jobs.resize(std::min<size_t>(jobs.size(), 8));
  int reports = 0;
  ValidationReport report = [&](const RuleSignature& signature, double change_pct) {
    ++reports;
    return fleet.ObserveValidation(signature, change_pct);
  };
  LearnFunction learn = [&fleet](const JobAnalysis& analysis, bool* learned) {
    return fleet.LearnFromAnalysis(analysis, learned);
  };
  std::shared_ptr<DurableRecommenderStore> leader = fleet.replica_store(fleet.leader_id());

  // Every replica down: the first learn fails.
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Kill(r).ok());
  LearnDayStats stats;
  EXPECT_EQ(LearnDay(pipeline, jobs, *leader, &stats, learn, report).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(stats.analyzed, 1);
  EXPECT_EQ(stats.learn_events, 0);
  EXPECT_EQ(reports, 0);
  EXPECT_EQ(leader->num_groups(), 0);
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Restart(r).ok());

  // The fleet dies after the first learned candidate: that candidate has a
  // job to re-run, yet the refused learn after it skips the gate.
  leader = fleet.replica_store(fleet.leader_id());
  LearnFunction learn_then_die = [&](const JobAnalysis& analysis, bool* learned) {
    Status status = fleet.LearnFromAnalysis(analysis, learned);
    for (uint32_t r = 0; status.ok() && *learned && r < 3; ++r) {
      EXPECT_TRUE(fleet.Kill(r).ok());
    }
    return status;
  };
  EXPECT_EQ(LearnDay(pipeline, jobs, *leader, &stats, learn_then_die, report).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(stats.learn_events, 1);
  EXPECT_EQ(reports, 0);
  EXPECT_EQ(leader->num_pending_validation(), 1);
  for (uint32_t r = 0; r < 3; ++r) ASSERT_TRUE(fleet.Restart(r).ok());

  // With the fleet up, the day learns, validates through the leader and
  // converges.
  leader = fleet.replica_store(fleet.leader_id());
  ASSERT_TRUE(LearnDay(pipeline, jobs, *leader, &stats, learn, report).ok());
  EXPECT_EQ(stats.analyzed, static_cast<int>(jobs.size()));
  EXPECT_GT(stats.learn_events, 1);
  EXPECT_GT(reports, 0);
  EXPECT_EQ(leader->num_pending_validation(), 0);
  ASSERT_TRUE(fleet.CatchUpAll().ok());
  std::string detail;
  EXPECT_TRUE(fleet.CheckConvergence(&detail).ok()) << detail;
}

TEST(FleetTest, ConcurrentServesSurviveChurn) {
  // Serving threads hammer the fleet while the main thread kills and
  // restarts replicas — the snapshot-view read path and the topology mutex
  // must coexist without races (this is the TSan target).
  TempDir dir;
  ReplicationFleet fleet(Options(dir.path()));
  ASSERT_TRUE(fleet.Start().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fleet.LearnCandidate(Candidate(i, i, -12.0)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_acquire)) {
        state = Mix64(state);
        ReplicationFleet::ServeResult result;
        if (fleet.Serve(Sig(static_cast<int>(state % 256)), &result).ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    uint32_t victim = static_cast<uint32_t>(Mix64(round) % 3);
    if (fleet.Kill(victim).ok()) {
      // qsteer-lint: allow(unchecked-status) chaos window; a dead leader drops the outcome by design
      (void)fleet.ObserveOutcome(Sig(0), -5.0);
      ASSERT_TRUE(fleet.Restart(victim).ok());
    }
    // qsteer-lint: allow(unchecked-status) chaos window; a dead leader drops the outcome by design
    (void)fleet.ObserveOutcome(Sig(1), -4.0);
  }
  // On a loaded single-core machine the churn loop can finish before any
  // reader thread is ever scheduled; keep serving until at least one read
  // lands so the assertion probes fleet behaviour, not OS scheduling.
  for (int spin = 0; spin < 100000 && served.load() == 0; ++spin) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(served.load(), 0);
  ASSERT_TRUE(fleet.CatchUpAll().ok());
  EXPECT_TRUE(fleet.CheckConvergence().ok());
}

}  // namespace
}  // namespace qsteer
