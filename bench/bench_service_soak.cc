// Chaos soak driver for the crash-safe steering service.
//
// Runs many simulated serving "days" through the async service against a
// flaky cluster, crashing (Kill: no snapshot, queued requests failed) and
// restarting the service at hashed injection points mid-day. After every
// crash the recovered recommendation table must be bit-identical to the
// pre-crash store — the WAL-replay property the service tests assert, here
// soaked across many crash points under real concurrent load. A final
// clean shutdown is followed by one more cold reopen to confirm the
// snapshot path round-trips the end state byte-for-byte.
//
// Reports throughput, admission-control behavior under the bounded queue,
// recovery statistics (WAL replay sizes, snapshot cadence), and the
// bit-identity verdicts. Exits non-zero on any mismatch, making it usable
// as a long-running CI soak.
//
//   $ ./bench/bench_service_soak [days] [crashes_per_day] [jobs_per_day]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "service/steering_service.h"

using namespace qsteer;
using namespace qsteer::bench;

namespace {

ServiceOptions SoakOptions(const std::string& dir) {
  ServiceOptions options;
  options.num_workers = BenchThreads() > 0 ? BenchThreads() : 2;
  options.queue_capacity = 64;
  options.store.dir = dir;
  options.store.snapshot_interval = 32;
  options.store.sync = false;  // soak speed; rename atomicity still holds
  return options;
}

struct SoakStats {
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t queue_full = 0;
  int64_t crashes = 0;
  int64_t wal_replayed = 0;
  int64_t wal_skipped = 0;
  int64_t identity_checks = 0;
  int64_t identity_failures = 0;
};

/// Submits jobs[begin, end) without waiting; replies are collected later —
/// possibly after a crash, so the service dies with work still queued and
/// in flight.
void SubmitSlice(SteeringService& service, const std::vector<Job>& jobs, size_t begin,
                 size_t end, std::vector<std::future<ServiceReply>>& replies,
                 SoakStats& stats) {
  for (size_t i = begin; i < end && i < jobs.size(); ++i) {
    ServiceRequest request;
    request.job = jobs[i];
    std::future<ServiceReply> reply;
    switch (service.Submit(request, &reply)) {
      case AdmitResult::kAccepted:
        ++stats.submitted;
        replies.push_back(std::move(reply));
        break;
      case AdmitResult::kShedDeadline:
        ++stats.shed;
        break;
      case AdmitResult::kQueueFull:
        ++stats.queue_full;
        break;
      case AdmitResult::kNotRunning:
        break;
    }
  }
}

/// Drains collected replies. Crash-dropped requests come back as errors;
/// they were never acknowledged, so losing them is the contract, not a
/// violation.
void CollectReplies(std::vector<std::future<ServiceReply>>& replies, SoakStats& stats) {
  for (std::future<ServiceReply>& future : replies) {
    ServiceReply reply = future.get();
    if (reply.status.ok()) {
      ++stats.served;
    } else {
      ++stats.failed;
    }
  }
  replies.clear();
}

}  // namespace

int main(int argc, char** argv) {
  int days = argc > 1 ? IntArg("days", argv[1], 1, 100000) : 6;
  int crashes_per_day = argc > 2 ? IntArg("crashes_per_day", argv[2], 0, 1000) : 2;
  int jobs_per_day = argc > 3 ? IntArg("jobs_per_day", argv[3], 2, 1000000) : 40;

  Header("Service chaos soak: crash/restart under load, bit-identical recovery",
         "acknowledged learning survives arbitrary process crashes (WAL + "
         "snapshot recovery; deployment concerns of paper §7)");

  Workload workload(BenchSpec('B'));
  Optimizer optimizer(&workload.catalog());
  SimulatorOptions sim_options;
  sim_options.fault_profile = FaultProfile::Flaky(1.0);
  ExecutionSimulator simulator(&workload.catalog(), sim_options);

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("qsteer_service_soak_" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto service = std::make_unique<SteeringService>(&optimizer, &simulator,
                                                   SoakOptions(dir.string()));
  if (!service->Start().ok()) {
    std::fprintf(stderr, "start failed\n");
    return 1;
  }

  // Seed learning: analyze a slice of day 1 offline and validate the
  // candidates on re-runs, so serving has steered plans to recommend.
  std::vector<Job> day1 = workload.JobsForDay(1);
  day1.resize(std::min<size_t>(day1.size(), jobs_per_day / 2));
  LearnDayStats day1_stats;
  // qsteer-lint: allow(unchecked-status) the store learns and takes the reports, and cannot fail them
  (void)LearnDay(service->pipeline(), day1, service->store(), &day1_stats);
  std::printf("Seeded %d serving groups from %d analyzed jobs; soaking %d days "
              "x %d jobs, %d crash(es)/day.\n\n",
              service->store().num_serving(), day1_stats.analyzed, days, jobs_per_day,
              crashes_per_day);

  SoakStats stats;
  constexpr uint64_t kSeed = 0xc4a05;
  auto start = std::chrono::steady_clock::now();
  for (int day = 2; day < 2 + days; ++day) {
    std::vector<Job> jobs = workload.JobsForDay(day);
    if (static_cast<int>(jobs.size()) > jobs_per_day) jobs.resize(jobs_per_day);
    // Hashed injection points: where in the day this service incarnation dies.
    std::vector<size_t> cuts;
    for (int k = 0; k < crashes_per_day; ++k) {
      cuts.push_back(Mix64(kSeed ^ (static_cast<uint64_t>(day) << 16) ^
                           static_cast<uint64_t>(k)) %
                     (jobs.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.push_back(jobs.size());

    size_t at = 0;
    std::vector<std::future<ServiceReply>> replies;
    for (size_t c = 0; c < cuts.size(); ++c) {
      SubmitSlice(*service, jobs, at, cuts[c], replies, stats);
      at = cuts[c];
      if (c + 1 == cuts.size()) {
        CollectReplies(replies, stats);  // day finished without another crash
        break;
      }

      // Let the workers chew through half the outstanding requests, then
      // CRASH with the rest still queued/in flight: no snapshot, queued
      // requests fail, then recover and verify.
      for (size_t i = 0; i < replies.size() / 2; ++i) replies[i].wait();
      service->Kill();
      CollectReplies(replies, stats);  // mixture of served and crash-failed
      ++stats.crashes;
      std::string pre_crash = service->store().SerializeState();
      service = std::make_unique<SteeringService>(&optimizer, &simulator,
                                                  SoakOptions(dir.string()));
      if (!service->Start().ok()) {
        std::fprintf(stderr, "day %d: recovery failed\n", day);
        return 1;
      }
      const DurableRecommenderStore::RecoveryInfo& recovery = service->store().recovery();
      stats.wal_replayed += recovery.wal_records_replayed;
      stats.wal_skipped += recovery.wal_records_skipped;
      ++stats.identity_checks;
      if (service->store().SerializeState() != pre_crash) {
        ++stats.identity_failures;
        std::fprintf(stderr, "day %d crash %zu: recovered state DIVERGED\n", day, c);
      }
    }
  }
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Clean shutdown (snapshot), then one cold reopen: the snapshot path must
  // round-trip the final state byte-for-byte.
  Status stopped = service->Shutdown();
  ServiceStatusSnapshot status = service->status();
  std::string final_state = service->store().SerializeState();
  DurableRecommenderStore reopened([&] {
    DurableStoreOptions store_options;
    store_options.dir = dir.string();
    store_options.sync = false;
    return store_options;
  }());
  ++stats.identity_checks;
  bool reopen_matches = reopened.Open().ok() && reopened.SerializeState() == final_state;
  if (!reopen_matches) {
    ++stats.identity_failures;
    std::fprintf(stderr, "final cold reopen DIVERGED from shutdown state\n");
  }

  std::printf("%-36s %10lld\n", "requests submitted", (long long)stats.submitted);
  std::printf("%-36s %10lld\n", "requests served", (long long)stats.served);
  std::printf("%-36s %10lld   (crash-dropped; never acknowledged)\n",
              "requests failed", (long long)stats.failed);
  std::printf("%-36s %10lld\n", "shed (deadline)", (long long)stats.shed);
  std::printf("%-36s %10lld\n", "rejected (queue full)", (long long)stats.queue_full);
  std::printf("%-36s %10lld\n", "crashes injected", (long long)stats.crashes);
  std::printf("%-36s %10lld\n", "WAL records replayed", (long long)stats.wal_replayed);
  std::printf("%-36s %10lld   (snapshot-covered after crash-in-window)\n",
              "WAL records skipped", (long long)stats.wal_skipped);
  std::printf("%-36s %10lld\n", "snapshots taken (final incarnation)",
              (long long)status.snapshots_taken);
  std::printf("%-36s %10.1f\n", "requests/second", elapsed > 0 ? stats.served / elapsed : 0.0);
  std::printf("%-36s %10lld / %lld\n", "bit-identity checks passed",
              (long long)(stats.identity_checks - stats.identity_failures),
              (long long)stats.identity_checks);
  std::printf("%-36s %10s\n", "clean final shutdown",
              stopped.ok() ? "ok" : stopped.ToString().c_str());
  Footer();

  std::filesystem::remove_all(dir);
  return stats.identity_failures == 0 ? 0 : 1;
}
