// End-to-end *asynchronous* steering service over a simulated week on an
// unreliable cluster — including a mid-week process crash.
//
// The deployment story of paper §3.3 ("surface new rule configurations as
// plan hints") with the §6.4 signature-group extrapolation, hardened with
// the production guardrails (retries, validation gate, circuit breakers)
// and, new in this example, the crash-safety layer: every recommender
// mutation is write-ahead logged and periodically snapshotted, so a crash
// loses no acknowledged learning.
//
// Day 1:    the offline pipeline analyzes a sample of jobs under the fault
//           profile; improving configurations become *candidates* (each
//           learn event journaled through the durable store).
// Validate: every candidate must survive N clean validation re-runs before
//           it may serve; a candidate that regresses is rejected outright.
// Days 2-7: jobs are *submitted* to the service's bounded queue and served
//           asynchronously by compile workers; admission control sheds
//           work the service cannot finish in time.
// Day 5:    the service process "crashes" (Kill: no snapshot, queued
//           requests fail) mid-day. A new service instance recovers from
//           the snapshot + WAL tail and the example asserts the recovered
//           recommendation state is bit-identical before serving resumes.
// Day 6:    a simulated data-distribution shift makes steered plans
//           regress; the circuit breakers trip and roll the affected
//           groups back to the default automatically.
//
//   $ ./examples/steering_service [jobs_per_day] [fault_level]
//
// fault_level scales FaultProfile::Flaky; 0 disables fault injection.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.h"
#include "service/steering_service.h"
#include "workload/generator.h"

using namespace qsteer;

namespace {

ServiceOptions MakeServiceOptions(const std::string& dir) {
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 128;
  options.store.dir = dir;
  options.store.snapshot_interval = 16;
  options.store.sync = false;  // demo speed; correctness is rename-atomic
  options.pipeline.max_candidate_configs = 120;
  return options;
}

struct DayResult {
  int jobs = 0;
  int steered = 0;
  int regressed = 0;
  double default_s = 0.0;
  double served_s = 0.0;
};

/// Serves one day's jobs through the async service: submit everything, then
/// collect the replies and feed observed regressions back (the shift
/// penalty models a data-distribution change the simulator cannot see).
DayResult ServeDay(SteeringService& service, const std::vector<Job>& jobs,
                   int max_jobs, bool shifted, double shift_penalty) {
  DayResult day;
  std::vector<std::future<ServiceReply>> replies;
  for (const Job& job : jobs) {
    if (static_cast<int>(replies.size()) >= max_jobs) break;
    ServiceRequest request;
    request.job = job;
    std::future<ServiceReply> reply;
    if (service.Submit(request, &reply) == AdmitResult::kAccepted) {
      replies.push_back(std::move(reply));
    }
  }
  for (std::future<ServiceReply>& future : replies) {
    ServiceReply reply = future.get();
    if (!reply.status.ok()) continue;
    ++day.jobs;
    double served = reply.served_runtime_s;
    if (reply.steered && shifted) {
      // The service measured the pre-shift runtime; the shifted cluster
      // actually delivers a regression. Report it so the breakers hear it.
      served = reply.default_runtime_s * shift_penalty;
      double change = reply.default_runtime_s > 0.0
                          ? (served - reply.default_runtime_s) / reply.default_runtime_s * 100.0
                          : 0.0;
      service.store().ObserveOutcome(reply.default_signature, change);
    }
    if (reply.steered) ++day.steered;
    if (served > reply.default_runtime_s * 1.05) ++day.regressed;
    day.default_s += reply.default_runtime_s;
    day.served_s += served;
  }
  return day;
}

}  // namespace

int main(int argc, char** argv) {
  int max_jobs_per_day = 60;
  double fault_level = 1.0;
  if (argc > 3 || (argc > 1 && !ParseIntArg(argv[1], 2, 100000, &max_jobs_per_day)) ||
      (argc > 2 && !ParseDoubleArg(argv[2], 0.0, 25.0, &fault_level))) {
    std::fprintf(stderr,
                 "usage: steering_service [jobs_per_day] [fault_level]\n"
                 "  jobs_per_day: integer >= 2 (default 60)\n"
                 "  fault_level:  0..25 scaling FaultProfile::Flaky (default 1; 0 = off)\n");
    return 2;
  }

  Workload workload(WorkloadSpec::WorkloadB(0.004));
  Optimizer optimizer(&workload.catalog());
  SimulatorOptions sim_options;
  sim_options.fault_profile = FaultProfile::Flaky(fault_level);
  ExecutionSimulator simulator(&workload.catalog(), sim_options);

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "qsteer_steering_service_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto service = std::make_unique<SteeringService>(&optimizer, &simulator,
                                                   MakeServiceOptions(dir.string()));
  Status started = service->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("Cluster fault level %.2f (%s); durable store in %s.\n\n", fault_level,
              sim_options.fault_profile.Active() ? "fault injection active" : "fault-free",
              dir.c_str());

  // ------- Day 1: offline discovery (journaled), then the validation gate -------
  std::vector<Job> day1 = workload.JobsForDay(1);
  day1.resize(std::min<size_t>(day1.size(), max_jobs_per_day / 2));
  LearnDayStats day1_stats;
  // qsteer-lint: allow(unchecked-status) the store learns and takes the reports, and cannot fail them
  (void)LearnDay(service->pipeline(), day1, service->store(), &day1_stats);
  std::printf("Day 1 (offline): analyzed %d jobs (%d baselines lost to faults, "
              "%d learn events); %d signature groups have candidate configurations.\n",
              day1_stats.analyzed, day1_stats.failed_baselines, day1_stats.learn_events,
              service->store().num_groups());
  std::printf("Validation: %d groups validated for serving, %d rejected.\n\n",
              service->store().num_serving(), service->store().num_retired());

  // ---------------- Days 2-7: asynchronous online serving ----------------
  const int crash_day = 5;
  const int shift_day = 6;
  const double shift_penalty = 1.25;

  std::printf("%4s %6s %8s %10s %10s %12s %12s %8s\n", "day", "jobs", "steered",
              "regressed", "rollbacks", "default_s", "served_s", "saved");
  double total_default = 0.0, total_served = 0.0;
  int total_steered = 0;
  for (int day = 2; day <= 7; ++day) {
    std::vector<Job> jobs = workload.JobsForDay(day);
    int rollbacks_before = service->store().num_rollbacks();

    if (day == crash_day) {
      // Serve the first half of the day, then crash mid-day.
      std::vector<Job> first_half(jobs.begin(), jobs.begin() + jobs.size() / 2);
      DayResult before = ServeDay(*service, first_half, max_jobs_per_day / 2,
                                  /*shifted=*/false, shift_penalty);
      service->Kill();  // crash: no snapshot, no drain — the WAL is all we keep
      std::string pre_crash_state = service->store().SerializeState();
      service = std::make_unique<SteeringService>(&optimizer, &simulator,
                                                  MakeServiceOptions(dir.string()));
      Status restarted = service->Start();
      if (!restarted.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n", restarted.ToString().c_str());
        return 1;
      }
      bool identical = service->store().SerializeState() == pre_crash_state;
      std::printf("      -- CRASH mid-day %d: recovered (%s); "
                  "state bit-identical: %s --\n",
                  day, service->store().recovery().ToString().c_str(),
                  identical ? "yes" : "NO");
      if (!identical) return 1;
      std::vector<Job> second_half(jobs.begin() + jobs.size() / 2, jobs.end());
      DayResult after = ServeDay(*service, second_half, max_jobs_per_day / 2,
                                 /*shifted=*/false, shift_penalty);
      before.jobs += after.jobs;
      before.steered += after.steered;
      before.regressed += after.regressed;
      before.default_s += after.default_s;
      before.served_s += after.served_s;
      total_default += before.default_s;
      total_served += before.served_s;
      total_steered += before.steered;
      std::printf("%4d %6d %8d %10d %10d %12.0f %12.0f %7.1f%%\n", day, before.jobs,
                  before.steered, before.regressed,
                  service->store().num_rollbacks() - rollbacks_before, before.default_s,
                  before.served_s,
                  before.default_s > 0
                      ? (before.default_s - before.served_s) / before.default_s * 100.0
                      : 0.0);
      continue;
    }

    DayResult result =
        ServeDay(*service, jobs, max_jobs_per_day, day >= shift_day, shift_penalty);
    total_default += result.default_s;
    total_served += result.served_s;
    total_steered += result.steered;
    std::printf("%4d %6d %8d %10d %10d %12.0f %12.0f %7.1f%%\n", day, result.jobs,
                result.steered, result.regressed,
                service->store().num_rollbacks() - rollbacks_before, result.default_s,
                result.served_s,
                result.default_s > 0
                    ? (result.default_s - result.served_s) / result.default_s * 100.0
                    : 0.0);
    if (day == shift_day) {
      std::printf("      -- data-distribution shift: steered plans now run %.0f%% slower "
                  "than the default; breakers trip and groups roll back --\n",
                  (shift_penalty - 1.0) * 100.0);
    }
  }

  Status stopped = service->Shutdown();
  std::printf("\nWeek total: %.0f s default vs %.0f s served (%.1f%% saved) "
              "across %d steered runs.\n",
              total_default, total_served,
              total_default > 0 ? (total_default - total_served) / total_default * 100.0 : 0.0,
              total_steered);
  std::printf("Final service status:\n%s", service->status().ToString().c_str());
  std::printf("Clean shutdown snapshot: %s.\n", stopped.ok() ? "ok" : stopped.ToString().c_str());
  return 0;
}
