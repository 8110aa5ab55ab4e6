// Replicated-serving chaos soak: extends bench_service_soak from one
// crash-restarting process to an N-replica fleet (service/replication.h).
//
// Each simulated day: a hashed churn event (kill a replica, or partition
// it from the leader), acknowledged mutations pushed through the leader
// while the victim is down, then zipf-skewed serving traffic fanned over
// group-sharded client threads (requests for group g run on thread
// RouteKey(g) % T, so the request stream per thread — and therefore every
// result — is identical for any thread count). The victim is restarted /
// healed at the day barrier and the fleet re-converges.
//
// Asserts, exiting non-zero on any violation:
//   * zero lost acknowledged mutations — a golden replay of the acked-op
//     journal into a fresh store must match every replica bit-for-bit;
//   * bit-identical final recommendation tables across all survivors
//     (CheckConvergence);
//   * bounded unavailability during failover — a probe of every serving
//     group immediately after each churn event must find 0 unavailable
//     (election and re-routing are synchronous);
//   * bit-for-bit reproducibility — the whole soak runs twice, at two
//     different client-thread counts, and the final state + counter
//     digest must be identical.
//
// Writes the machine-readable summary to BENCH_fleet.json in the cwd.
//
//   $ ./bench/bench_serving_fleet [days] [replicas] [jobs_per_day]
//   $ ./bench/bench_serving_fleet --smoke        # small CI-sized run
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "service/replication.h"

using namespace qsteer;
using namespace qsteer::bench;

namespace {

constexpr int kGroups = 48;
constexpr uint64_t kSeed = 0xf1ee7;

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

/// Zipf-ish pick over [0, kGroups): group g has weight 1/(g+1). `x` is any
/// deterministic hash; the same x always picks the same group.
int ZipfGroup(uint64_t x) {
  static const std::vector<double> cum = [] {
    std::vector<double> c(kGroups);
    double total = 0.0;
    for (int g = 0; g < kGroups; ++g) {
      total += 1.0 / (g + 1);
      c[static_cast<size_t>(g)] = total;
    }
    return c;
  }();
  double u = static_cast<double>(Mix64(x) >> 11) * 0x1p-53 * cum.back();
  for (int g = 0; g < kGroups; ++g) {
    if (u <= cum[static_cast<size_t>(g)]) return g;
  }
  return kGroups - 1;
}

/// Acked-mutation journal entry; golden replay reconstructs ground truth
/// from these. Only mutations the fleet ACKNOWLEDGED (returned OK) are
/// recorded — losing anything else is the contract, not a violation.
struct AckedOp {
  int sig_bit;
  int config_n;
  double value;
  char type;  // 'L' learn, 'V' validation, 'O' outcome
};

struct SoakCounters {
  int64_t acked = 0;
  int64_t serves = 0;
  int64_t rerouted = 0;
  int64_t shed_stale = 0;
  int64_t ticked = 0;
  int64_t serve_failures = 0;
  int64_t probe_unavailable = 0;
  int64_t kills = 0;
  int64_t partitions = 0;
  int64_t failovers = 0;
  int64_t tail_ships = 0;
  int64_t snapshot_ships = 0;
  int64_t snapshot_installs = 0;
  int64_t checksum_failures = 0;
  double serve_seconds = 0.0;

  /// Everything that must be bit-identical across runs and thread counts
  /// (timing excluded).
  std::string Digest() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "acked=%lld serves=%lld rerouted=%lld shed=%lld ticked=%lld "
                  "fail=%lld probe=%lld kills=%lld parts=%lld failovers=%lld "
                  "tails=%lld snaps=%lld installs=%lld crc=%lld",
                  (long long)acked, (long long)serves, (long long)rerouted,
                  (long long)shed_stale, (long long)ticked, (long long)serve_failures,
                  (long long)probe_unavailable, (long long)kills, (long long)partitions,
                  (long long)failovers, (long long)tail_ships, (long long)snapshot_ships,
                  (long long)snapshot_installs, (long long)checksum_failures);
    return buf;
  }
};

struct SoakResult {
  SoakCounters counters;
  std::string final_state;           // leader's SerializeState after convergence
  std::vector<int64_t> replica_serves;
  std::vector<uint64_t> watermarks;
  bool converged = false;
  bool golden_match = false;
};

/// One full soak: seed, churn days, final convergence + golden replay.
/// Everything observable is a pure function of (days, replicas,
/// jobs_per_day) — `threads` and `dir` must not change any result.
SoakResult RunSoak(const std::string& dir, int days, int replicas, int jobs_per_day,
                   int threads) {
  SoakResult result;
  SoakCounters& c = result.counters;

  FleetOptions options;
  options.dir = dir;
  options.num_replicas = replicas;
  options.snapshot_interval = 32;
  options.sync = false;
  options.staleness_bound = 8;
  ReplicationFleet fleet(options);
  if (!fleet.Start().ok()) {
    std::fprintf(stderr, "fleet start failed\n");
    return result;
  }

  std::vector<AckedOp> acked;
  auto ack = [&](AckedOp op) {
    acked.push_back(op);
    ++c.acked;
  };

  // Seed: learn a steered candidate per group and validate it twice so the
  // group is promoted to serving. All improvements are negative (faster),
  // so no breaker ever opens and every serve stays a pure read — which is
  // what keeps results independent of the client-thread count.
  for (int g = 0; g < kGroups; ++g) {
    double improvement = -8.0 - (g % 7);
    if (fleet.LearnCandidate([&] {
               SteeringRecommender::CandidateObservation observation;
               observation.signature = Sig(g);
               observation.config = AltConfig(g);
               observation.improvement_pct = improvement;
               return observation;
             }())
            .ok()) {
      ack({g, g, improvement, 'L'});
    }
    for (int v = 0; v < 2; ++v) {
      if (fleet.ObserveValidation(Sig(g), improvement + 1.0).ok()) {
        ack({g, 0, improvement + 1.0, 'V'});
      }
    }
  }

  for (int day = 1; day <= days; ++day) {
    // Hashed churn: the victim is hash-picked; every 3rd day partitions it
    // (the replica keeps serving stale reads until shed), the rest kill it.
    uint64_t h = Mix64(kSeed ^ (static_cast<uint64_t>(day) << 20));
    uint32_t victim = static_cast<uint32_t>(h % static_cast<uint64_t>(replicas));
    bool partition = day % 3 == 0;
    if (partition) {
      fleet.SetPartitioned(victim, true);
      ++c.partitions;
    } else {
      if (!fleet.Kill(victim).ok()) {
        std::fprintf(stderr, "day %d: kill(%u) failed\n", day, victim);
        return result;
      }
      ++c.kills;
    }

    // Acked mutations while the victim is down/partitioned: more events
    // than the staleness bound, so a partitioned primary must shed.
    for (int m = 0; m < 12; ++m) {
      int g = ZipfGroup(Mix64(kSeed ^ 0xabcd ^ (static_cast<uint64_t>(day) << 8) ^
                              static_cast<uint64_t>(m)));
      double v = -1.0 - (m % 5);
      if (fleet.ObserveOutcome(Sig(g), v).ok()) ack({g, 0, v, 'O'});
    }

    // Bounded-unavailability probe: immediately after the churn event and
    // the mutation burst, every group must still be servable (election and
    // re-routing are synchronous — the bound is zero).
    for (int g = 0; g < kGroups; ++g) {
      ReplicationFleet::ServeResult probe;
      if (!fleet.Serve(Sig(g), &probe).ok()) ++c.probe_unavailable;
    }

    // Skewed serving traffic, group-sharded across client threads: thread
    // t handles exactly the requests whose group routes to shard t, so the
    // per-thread stream (and all counters) are thread-count invariant.
    std::vector<int> day_groups(static_cast<size_t>(jobs_per_day));
    for (int i = 0; i < jobs_per_day; ++i) {
      day_groups[static_cast<size_t>(i)] =
          ZipfGroup(kSeed ^ (static_cast<uint64_t>(day) << 32) ^ static_cast<uint64_t>(i));
    }
    std::vector<SoakCounters> per_thread(static_cast<size_t>(threads));
    auto serve_start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        SoakCounters& mine = per_thread[static_cast<size_t>(t)];
        for (int g : day_groups) {
          if (ReplicationFleet::RouteKey(Sig(g)) % static_cast<uint64_t>(threads) !=
              static_cast<uint64_t>(t)) {
            continue;
          }
          ReplicationFleet::ServeResult serve;
          if (fleet.Serve(Sig(g), &serve).ok()) {
            ++mine.serves;
            if (serve.rerouted) ++mine.rerouted;
            if (serve.shed_stale) ++mine.shed_stale;
            if (serve.ticked) ++mine.ticked;
          } else {
            ++mine.serve_failures;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    c.serve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - serve_start)
            .count();
    for (const SoakCounters& mine : per_thread) {
      c.serves += mine.serves;
      c.rerouted += mine.rerouted;
      c.shed_stale += mine.shed_stale;
      c.ticked += mine.ticked;
      c.serve_failures += mine.serve_failures;
    }

    // Day barrier: heal/restart the victim and re-converge the fleet.
    if (partition) {
      fleet.SetPartitioned(victim, false);
    } else if (!fleet.Restart(victim).ok()) {
      std::fprintf(stderr, "day %d: restart(%u) failed\n", day, victim);
      return result;
    }
    if (!fleet.CatchUpAll().ok()) {
      std::fprintf(stderr, "day %d: catch-up failed\n", day);
      return result;
    }
  }

  // Final verdicts.
  if (!fleet.CatchUpAll().ok()) return result;
  std::string divergence;
  result.converged = fleet.CheckConvergence(&divergence).ok();
  if (!result.converged) {
    std::fprintf(stderr, "survivor tables DIVERGED: %s\n", divergence.c_str());
  }

  // Golden replay: every acked mutation, replayed in ack order into a
  // fresh single-node store, must reproduce each replica bit-for-bit.
  DurableRecommenderStore golden_store;
  // qsteer-lint: allow(unchecked-status) pathless store opens in-memory and cannot fail
  (void)golden_store.Open();
  for (const AckedOp& op : acked) {
    switch (op.type) {
      case 'L': {
        SteeringRecommender::CandidateObservation observation;
        observation.signature = Sig(op.sig_bit);
        observation.config = AltConfig(op.config_n);
        observation.improvement_pct = op.value;
        golden_store.LearnCandidate(observation);
        break;
      }
      case 'V':
        golden_store.ObserveValidation(Sig(op.sig_bit), op.value);
        break;
      default:
        golden_store.ObserveOutcome(Sig(op.sig_bit), op.value);
        break;
    }
  }
  std::string golden = golden_store.SerializeState();
  result.golden_match = true;
  for (int i = 0; i < replicas; ++i) {
    if (fleet.replica_store(static_cast<uint32_t>(i))->SerializeState() != golden) {
      result.golden_match = false;
      std::fprintf(stderr, "replica %d LOST acked mutations (state != golden replay)\n", i);
    }
  }

  FleetStatus status = fleet.status();
  c.failovers = status.failovers;
  c.tail_ships = status.tail_ships;
  c.snapshot_ships = status.snapshot_ships;
  c.checksum_failures = status.transport_checksum_failures;
  for (const FleetStatus::Replica& replica : status.replicas) {
    c.snapshot_installs += replica.snapshot_installs;
    result.replica_serves.push_back(replica.serves);
    result.watermarks.push_back(replica.watermark);
  }
  result.final_state = fleet.replica_store(fleet.leader_id())->SerializeState();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  int days = smoke ? 4 : 8, replicas = 3, jobs_per_day = smoke ? 48 : 160;
  if (positional.size() > 0) days = IntArg("days", positional[0], 1, 100000);
  if (positional.size() > 1) replicas = IntArg("replicas", positional[1], 2, 16);
  if (positional.size() > 2) jobs_per_day = IntArg("jobs_per_day", positional[2], 1, 1000000);
  int threads = BenchThreads();
  if (threads < 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 2;

  Header("Replicated serving fleet: kill/partition churn, failover, zero acked loss",
         "recommendation serving must survive replica loss with no lost "
         "acknowledged learning (deployment concerns of paper §7)");
  std::printf("%d replicas, %d days x %d requests, %d client threads, churn every day\n\n",
              replicas, days, jobs_per_day, threads);

  std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("qsteer_fleet_bench_" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(root);

  // Run twice at two different client-thread counts: every counter and the
  // final state must be bit-identical (the determinism contract).
  SoakResult first = RunSoak((root / "run1").string(), days, replicas, jobs_per_day, threads);
  int threads2 = threads == 1 ? 2 : 1;
  SoakResult second =
      RunSoak((root / "run2").string(), days, replicas, jobs_per_day, threads2);
  bool deterministic = first.final_state == second.final_state &&
                       first.counters.Digest() == second.counters.Digest() &&
                       first.replica_serves == second.replica_serves;
  if (!deterministic) {
    std::fprintf(stderr, "NON-DETERMINISTIC: run1(T=%d) != run2(T=%d)\n  %s\n  %s\n",
                 threads, threads2, first.counters.Digest().c_str(),
                 second.counters.Digest().c_str());
  }

  const SoakCounters& c = first.counters;
  std::printf("%-36s %10lld\n", "acked mutations", (long long)c.acked);
  std::printf("%-36s %10lld\n", "requests served", (long long)c.serves);
  std::printf("%-36s %10lld   (down/over-budget primary)\n", "rerouted",
              (long long)c.rerouted);
  std::printf("%-36s %10lld   (stale follower -> leader)\n", "shed to leader",
              (long long)c.shed_stale);
  std::printf("%-36s %10lld\n", "serve failures", (long long)c.serve_failures);
  std::printf("%-36s %10lld   (bound: 0)\n", "unavailable during failover probes",
              (long long)c.probe_unavailable);
  std::printf("%-36s %10lld + %lld partitions\n", "churn events: kills",
              (long long)c.kills, (long long)c.partitions);
  std::printf("%-36s %10lld\n", "leader failovers", (long long)c.failovers);
  std::printf("%-36s %10lld tails, %lld snapshots (%lld installs)\n", "replication ships",
              (long long)c.tail_ships, (long long)c.snapshot_ships,
              (long long)c.snapshot_installs);
  std::printf("%-36s %10.0f\n", "serves/second",
              c.serve_seconds > 0 ? c.serves / c.serve_seconds : 0.0);
  std::printf("%-36s %10s\n", "zero lost acked mutations",
              first.golden_match ? "PASS" : "FAIL");
  std::printf("%-36s %10s\n", "survivor tables bit-identical",
              first.converged ? "PASS" : "FAIL");
  std::printf("%-36s %10s\n", "unavailability bounded",
              c.probe_unavailable == 0 && c.serve_failures == 0 ? "PASS" : "FAIL");
  std::printf("%-36s %10s   (T=%d vs T=%d)\n", "bit-identical across runs/threads",
              deterministic ? "PASS" : "FAIL", threads, threads2);
  Footer();

  FILE* json = std::fopen("BENCH_fleet.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"bench_serving_fleet\",\n");
    std::fprintf(json,
                 "  \"description\": \"N-replica serving fleet under zipf traffic with "
                 "hashed kill/partition churn: failover, catch-up (tail vs snapshot "
                 "install), staleness shedding, and the zero-lost-acked-mutations / "
                 "bit-identical-survivors / bounded-unavailability verdicts.\",\n");
    std::fprintf(json, "  \"command\": \"./build/bench/bench_serving_fleet %d %d %d\",\n",
                 days, replicas, jobs_per_day);
    std::fprintf(json, "  \"replicas\": %d,\n  \"days\": %d,\n  \"jobs_per_day\": %d,\n",
                 replicas, days, jobs_per_day);
    std::fprintf(json, "  \"client_threads\": [%d, %d],\n", threads, threads2);
    std::fprintf(json,
                 "  \"churn\": { \"kills\": %lld, \"partitions\": %lld, \"failovers\": "
                 "%lld },\n",
                 (long long)c.kills, (long long)c.partitions, (long long)c.failovers);
    std::fprintf(json,
                 "  \"serving\": { \"acked_mutations\": %lld, \"served\": %lld, "
                 "\"rerouted\": %lld, \"shed_stale\": %lld, \"failures\": %lld, "
                 "\"unavailable_probes\": %lld },\n",
                 (long long)c.acked, (long long)c.serves, (long long)c.rerouted,
                 (long long)c.shed_stale, (long long)c.serve_failures,
                 (long long)c.probe_unavailable);
    std::fprintf(json,
                 "  \"replication\": { \"tail_ships\": %lld, \"snapshot_ships\": %lld, "
                 "\"snapshot_installs\": %lld, \"checksum_failures\": %lld },\n",
                 (long long)c.tail_ships, (long long)c.snapshot_ships,
                 (long long)c.snapshot_installs, (long long)c.checksum_failures);
    std::fprintf(json, "  \"per_replica_serves\": [");
    for (size_t i = 0; i < first.replica_serves.size(); ++i) {
      std::fprintf(json, "%s%lld", i == 0 ? "" : ", ", (long long)first.replica_serves[i]);
    }
    std::fprintf(json, "],\n");
    std::fprintf(json, "  \"verdicts\": {\n");
    std::fprintf(json, "    \"zero_lost_acked_mutations\": %s,\n",
                 first.golden_match ? "true" : "false");
    std::fprintf(json, "    \"survivors_bit_identical\": %s,\n",
                 first.converged ? "true" : "false");
    std::fprintf(json, "    \"unavailability_bounded\": %s,\n",
                 c.probe_unavailable == 0 && c.serve_failures == 0 ? "true" : "false");
    std::fprintf(json, "    \"deterministic_across_runs_and_threads\": %s\n",
                 deterministic ? "true" : "false");
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_fleet.json\n");
  }

  std::filesystem::remove_all(root);
  bool pass = first.golden_match && first.converged && deterministic &&
              c.probe_unavailable == 0 && c.serve_failures == 0 && c.ticked == 0;
  return pass ? 0 : 1;
}
