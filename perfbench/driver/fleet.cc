// fleet_mixed_B: a 3-replica ReplicationFleet driven synchronously by one
// client thread with a seeded stream of 85% reads (Serve, zipf over the
// rule-signature groups of workload B) and 15% acknowledged writes
// (ObserveOutcome below the regression threshold, so every write is
// journaled and shipped and every read stays a pure lookup). A follower is
// killed and restarted at seeded op counts.
#include <memory>
#include <unordered_set>

#include "common/hash.h"
#include "common/random.h"
#include "layers.h"
#include "service/durable_store.h"
#include "service/replication.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qsteer::RuleConfig;
using qsteer::RuleSignature;
using qsteer::Status;

constexpr int kSignatureDays = 3;
constexpr int kReplicas = 3;
constexpr int kSnapshotInterval = 64;
constexpr double kWriteShare = 0.15;
constexpr double kZipfSkew = 0.9;
// Outcome changes stay below RecommenderOptions::regression_threshold_pct
// (5%), so breakers stay closed and reads never tick.
constexpr double kMinChangePct = -20.0;
constexpr double kMaxChangePct = 4.0;
constexpr double kReferenceOpsPerSecond = 49000.0;

/// One acknowledged set-up mutation, replayed into a fresh store by the
/// golden check.
struct Mutation {
  enum Kind { kLearn, kValidation } kind;
  RuleSignature signature;
  RuleConfig config;
  double value = 0.0;
};

struct Fleet {
  std::vector<RuleSignature> groups;
  std::unique_ptr<qsteer::ReplicationFleet> fleet;
  std::vector<Mutation> seeded;
};

/// The timed phase's seeded op stream: the group each op touches, whether
/// it writes, and the outcome a write reports. A pure function of the seed,
/// so the golden check regenerates the acknowledged writes instead of the
/// run keeping a log of them.
class OpStream {
 public:
  struct Op {
    size_t group = 0;
    bool write = false;
    double change_pct = 0.0;
  };

  OpStream(uint64_t seed, size_t groups)
      : rng_(seed, 0xf1ee7), zipf_(static_cast<int>(groups), kZipfSkew) {}

  Op Next() {
    Op op;
    op.group = static_cast<size_t>(zipf_.Sample(&rng_) - 1);
    op.write = rng_.NextDouble() < kWriteShare;
    if (op.write) op.change_pct = rng_.UniformDouble(kMinChangePct, kMaxChangePct);
    return op;
  }

 private:
  qsteer::Pcg32 rng_;
  qsteer::ZipfSampler zipf_;
};

/// What the timed phase did, for the golden replay: how many ops of the
/// stream ran, and the exceptions to "every write acknowledged, no read
/// mutated" (both empty on a healthy run).
struct Timed {
  int64_t ops = 0;
  std::vector<int64_t> unacked_writes;
  std::vector<int64_t> ticked_reads;
};

/// Kill/restart schedule in op counts: a follower goes down 10k-20k ops
/// after the previous restart (the first at 5k-15k) and comes back after a
/// short outage (2k-6k ops, a tail catch-up) or, on every second cycle, a
/// long one (32k-38k ops: more writes than the 4096-entry replication log
/// holds, so a snapshot install).
class Churn {
 public:
  explicit Churn(uint64_t seed) : rng_(seed, 0xc4a2), next_kill_(rng_.UniformInt(5000, 15000)) {}

  void Step(int64_t op, qsteer::ReplicationFleet& fleet, Tracer& tracer) {
    if (op == next_kill_) {
      uint32_t leader = fleet.leader_id();
      victim_ = (leader + 1 + static_cast<uint32_t>(rng_.UniformInt(0, kReplicas - 2))) %
                kReplicas;
      ScopedSpan span(tracer, "service.fleet.Kill");
      Require(fleet.Kill(victim_), "fleet kill");
      restart_at_ = op + (cycle_ % 2 == 0 ? rng_.UniformInt(2000, 6000)
                                          : rng_.UniformInt(32000, 38000));
    } else if (op == restart_at_) {
      Restart(fleet, tracer);
      ++cycle_;
      next_kill_ = op + rng_.UniformInt(10000, 20000);
    }
  }

  /// Brings a follower that is still down back (end of the timed phase).
  void Finish(qsteer::ReplicationFleet& fleet, Tracer& tracer) {
    if (restart_at_ >= 0) Restart(fleet, tracer);
  }

 private:
  void Restart(qsteer::ReplicationFleet& fleet, Tracer& tracer) {
    ScopedSpan span(tracer, "service.fleet.Restart");
    Require(fleet.Restart(victim_), "fleet restart");
    restart_at_ = -1;
  }

  qsteer::Pcg32 rng_;
  int64_t next_kill_;
  int64_t restart_at_ = -1;
  uint32_t victim_ = 0;
  int cycle_ = 0;
};

/// Default-compiles a few days of B for their rule signatures, starts the
/// fleet and seeds one validated candidate per signature group through the
/// leader.
Fleet SetUp(const RunOptions& run, const std::string& dir, Layers& layers) {
  Fleet f;
  {
    std::unique_ptr<qsteer::Workload> workload;
    {
      ScopedSpan span(layers.tracer, "workload.Workload");
      workload = std::make_unique<qsteer::Workload>(qsteer::WorkloadSpec::WorkloadB(kBenchScale));
    }
    qsteer::Optimizer optimizer(&workload->catalog());
    std::unordered_set<RuleSignature, qsteer::BitVector256Hasher> seen;
    for (int day = 1; day <= kSignatureDays; ++day) {
      std::vector<qsteer::Job> jobs = layers.JobsForDay(*workload, day);
      for (size_t i = 0; i < jobs.size(); ++i) {
        qsteer::Result<qsteer::CompiledPlan> plan = layers.Compile(
            optimizer, jobs[i], RuleConfig::Default(), qsteer::HashCombine(static_cast<uint64_t>(day), i));
        if (plan.ok() && seen.insert(plan.value().signature).second) {
          f.groups.push_back(plan.value().signature);
        }
      }
    }
  }

  FreshDir(dir);
  qsteer::FleetOptions options;
  options.dir = dir;
  options.num_replicas = kReplicas;
  options.snapshot_interval = kSnapshotInterval;
  options.sync = kFsync;
  f.fleet = std::make_unique<qsteer::ReplicationFleet>(options);
  {
    ScopedSpan span(layers.tracer, "service.fleet.Start");
    Require(f.fleet->Start(), "fleet start");
  }
  qsteer::Pcg32 rng(run.seed, 0x5eed);
  for (const RuleSignature& signature : f.groups) {
    RuleConfig config = RuleConfig::Default();
    for (int k = 0; k < 2; ++k) {
      config.Disable(qsteer::kOnByDefaultBegin +
                     static_cast<int>(rng.UniformInt(0, qsteer::kNumOnByDefault - 1)));
    }
    Mutation learn{Mutation::kLearn, signature, config, -rng.UniformDouble(12.0, 40.0)};
    {
      ScopedSpan span(layers.tracer, "service.fleet.LearnCandidate");
      Require(f.fleet->LearnCandidate({signature, config, learn.value}), "fleet learn");
    }
    f.seeded.push_back(learn);
    // RecommenderOptions::validation_runs clean re-runs adopt the candidate.
    for (int v = 0; v < 2; ++v) {
      Mutation validation{Mutation::kValidation, signature, {}, -rng.UniformDouble(5.0, 30.0)};
      ScopedSpan span(layers.tracer, "service.fleet.ObserveValidation");
      Require(f.fleet->ObserveValidation(signature, validation.value), "fleet validation");
      f.seeded.push_back(validation);
    }
  }
  return f;
}

std::vector<Check> CheckOutputs(Fleet& f, const Timed& timed, uint64_t seed, Layers& layers) {
  std::vector<Check> checks;
  Status caught_up = [&] {
    ScopedSpan span(layers.tracer, "service.fleet.CatchUpAll");
    return f.fleet->CatchUpAll();
  }();
  std::string divergence;
  Status converged = caught_up.ok() ? f.fleet->CheckConvergence(&divergence) : caught_up;
  checks.push_back(Check{"converged", converged.ok(),
                         converged.ok() ? "every replica caught up and bit-identical"
                                        : converged.ToString() + " " + divergence});

  // Golden replay: the acknowledged writes, in order, into a fresh store.
  qsteer::DurableRecommenderStore golden;
  Require(golden.Open(), "golden store open");
  for (const Mutation& m : f.seeded) {
    if (m.kind == Mutation::kLearn) {
      golden.LearnCandidate({m.signature, m.config, m.value});
    } else {
      golden.ObserveValidation(m.signature, m.value);
    }
  }
  OpStream stream(seed, f.groups.size());
  size_t next_unacked = 0, next_ticked = 0;
  int64_t writes = 0;
  for (int64_t i = 0; i < timed.ops; ++i) {
    OpStream::Op op = stream.Next();
    const RuleSignature& signature = f.groups[op.group];
    if (op.write) {
      if (next_unacked < timed.unacked_writes.size() && timed.unacked_writes[next_unacked] == i) {
        ++next_unacked;
        continue;
      }
      golden.ObserveOutcome(signature, op.change_pct);
      ++writes;
    } else if (next_ticked < timed.ticked_reads.size() && timed.ticked_reads[next_ticked] == i) {
      ++next_ticked;
      golden.Recommend(signature);
    }
  }
  std::string want = golden.SerializeState();
  int matching = 0;
  for (int i = 0; i < f.fleet->num_replicas(); ++i) {
    if (f.fleet->replica_store(static_cast<uint32_t>(i))->SerializeState() == want) ++matching;
  }
  checks.push_back(Check{"golden_replay", matching == f.fleet->num_replicas(),
                         std::to_string(matching) + " of " +
                             std::to_string(f.fleet->num_replicas()) +
                             " replicas equal a fresh store replaying the " +
                             std::to_string(f.seeded.size() + static_cast<size_t>(writes)) +
                             " acknowledged writes"});
  return checks;
}

}  // namespace

RunResult RunFleetMixedB(const RunOptions& run) {
  RunResult result;
  Layers layers(run.trace);
  const std::string dir = run.state_dir + "/fleet";
  const int64_t batch = BatchSize(run, kReferenceOpsPerSecond);

  std::vector<double> setup_seconds;
  Fleet f;
  for (int i = 0; i < kSetups; ++i) {
    f = Fleet{};
    layers.Reset();
    int64_t start = NowNs();
    f = SetUp(run, dir, layers);
    setup_seconds.push_back(SecondsSince(start));
  }

  OpStream stream(run.seed, f.groups.size());
  Churn churn(run.seed);
  Timed timed;
  int64_t acked_writes = 0;
  // Reserved up front: no reallocation copies inside the timed loop.
  std::vector<double> read_ms, write_ms;
  read_ms.reserve(1 << 22);
  write_ms.reserve(1 << 20);
  int64_t start = NowNs();
  for (int64_t op = 0;; ++op) {
    // Reading the clock every 64 ops keeps BatchDone off the read path.
    if (op >= batch || (op % 64 == 0 && BatchDone(run, batch, op, start))) break;
    timed.ops = op + 1;
    churn.Step(op, *f.fleet, layers.tracer);
    OpStream::Op next = stream.Next();
    const RuleSignature& signature = f.groups[next.group];
    uint64_t trace = static_cast<uint64_t>(op) + 1;
    if (next.write) {
      int64_t op_start = NowNs();
      Status status = [&] {
        ScopedSpan span(layers.tracer, "service.fleet.ObserveOutcome", trace);
        return f.fleet->ObserveOutcome(signature, next.change_pct);
      }();
      write_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6);
      if (status.ok()) {
        result.ops.Ok();
        ++acked_writes;
      } else {
        result.ops.Fail();
        timed.unacked_writes.push_back(op);
      }
    } else {
      qsteer::ReplicationFleet::ServeResult served;
      int64_t op_start = NowNs();
      Status status = [&] {
        ScopedSpan span(layers.tracer, "service.fleet.Serve", trace);
        return f.fleet->Serve(signature, &served);
      }();
      read_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6);
      if (!status.ok()) {
        result.ops.Fail();
      } else {
        result.ops.Ok();
        if (served.ticked) timed.ticked_reads.push_back(op);
      }
    }
  }
  double wall = SecondsSince(start);
  double peak_rss = PeakRssMb();
  churn.Finish(*f.fleet, layers.tracer);

  result.e2e.push_back(SetupMetric(setup_seconds));
  result.e2e.push_back(Metric{"throughput", "ops/s",
                              static_cast<double>(result.ops.attempted) / wall,
                              result.ops.attempted});
  AddLatencyMetrics("", read_ms, &result.e2e);
  AddLatencyMetrics("write_", write_ms, &result.e2e);
  result.e2e.push_back(
      Metric{"error_rate", "fraction", result.ops.ErrorRate(), result.ops.attempted});
  result.e2e.push_back(Metric{"peak_rss_mb", "MiB", peak_rss, 1});

  result.checks = CheckOutputs(f, timed, run.seed, layers);
  layers.in.fleet = f.fleet->status();
  layers.in.fleet_bytes_shipped = f.fleet->transport().bytes_sent();
  layers.in.fleet_acked_writes = static_cast<int64_t>(f.seeded.size()) + acked_writes;
  layers.in.fleet_ticks = static_cast<int64_t>(timed.ticked_reads.size());
  for (const auto& replica : layers.in.fleet.replicas) {
    layers.in.fleet_snapshot_installs += replica.snapshot_installs;
  }
  layers.in.store = StoreCounts::Of(*f.fleet->replica_store(f.fleet->leader_id()));
  result.layers = LayerMetrics(layers.in, layers.tracer);
  result.spans = SummarizeSpans(layers.tracer.spans());
  return result;
}

}  // namespace perfbench
