// serve_fresh_A: a freshly recovered SteeringService on workload A, driven
// in a closed loop by one client thread that keeps four requests
// outstanding. The batch of requests is the jobs of days 2, 3, ... in
// generation order, never repeated, so nearly every compile misses the
// cache.
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "layers.h"
#include "service/durable_store.h"
#include "service/steering_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qsteer::CompiledPlan;
using qsteer::Job;
using qsteer::Result;
using qsteer::RuleConfig;

constexpr int kLearnJobs = 30;
constexpr int kLearnCandidates = 40;
constexpr size_t kOutstanding = 4;
constexpr double kReferenceRequestsPerSecond = 280.0;
constexpr int kReferenceSamples = 3;
// A client that sees no reply for this long gives up (and fails the check).
constexpr double kStallSeconds = 60.0;

struct Serve {
  std::unique_ptr<qsteer::Workload> workload;
  std::unique_ptr<qsteer::Optimizer> optimizer;
  std::unique_ptr<qsteer::ExecutionSimulator> simulator;
  std::unique_ptr<qsteer::SteeringService> service;
};

/// Learns day 1's first jobs into a durable store and validates the
/// candidates the way `qsteer serve` does, snapshots, then starts a fresh
/// service over the same directory (so the service recovers the snapshot).
Serve SetUp(const RunOptions& run, const std::string& dir, Layers& layers) {
  Serve s;
  {
    ScopedSpan span(layers.tracer, "workload.Workload");
    s.workload = std::make_unique<qsteer::Workload>(qsteer::WorkloadSpec::WorkloadA(kBenchScale));
  }
  s.optimizer = std::make_unique<qsteer::Optimizer>(&s.workload->catalog());
  s.simulator = std::make_unique<qsteer::ExecutionSimulator>(&s.workload->catalog());
  qsteer::PipelineOptions learn_options;
  learn_options.max_candidate_configs = kLearnCandidates;
  learn_options.seed = run.seed;
  qsteer::SteeringPipeline pipeline(s.optimizer.get(), s.simulator.get(), learn_options);

  FreshDir(dir);
  {
    qsteer::DurableStoreOptions store_options;
    store_options.dir = dir;
    store_options.sync = kFsync;
    qsteer::DurableRecommenderStore store(store_options);
    {
      ScopedSpan span(layers.tracer, "service.store.Open");
      Require(store.Open(), "serve store open");
    }
    std::unordered_map<std::string, Job> group_rep;
    std::vector<Job> day1 = layers.JobsForDay(*s.workload, 1);
    for (size_t i = 0; i < day1.size() && i < kLearnJobs; ++i) {
      qsteer::JobAnalysis analysis = [&] {
        ScopedSpan span(layers.tracer, "core.AnalyzeJob", i + 1);
        return pipeline.AnalyzeJob(day1[i]);
      }();
      layers.in.analyses.Add(analysis);
      ScopedSpan span(layers.tracer, "service.store.LearnFromAnalysis", i + 1);
      if (store.LearnFromAnalysis(analysis)) {
        group_rep.emplace(analysis.default_plan.signature.ToHexString(), day1[i]);
      }
    }
    // The validation gate: candidates must survive clean re-runs.
    uint64_t nonce = 0;
    for (int round = 0; round < 8 && !store.PendingValidations().empty(); ++round) {
      for (const auto& request : store.PendingValidations()) {
        auto it = group_rep.find(request.signature.ToHexString());
        if (it == group_rep.end()) continue;
        const Job& job = it->second;
        Result<CompiledPlan> base_plan = [&] {
          ScopedSpan span(layers.tracer, "core.CompileCached");
          return pipeline.CompileCached(job, RuleConfig::Default());
        }();
        Result<CompiledPlan> alt_plan = [&] {
          ScopedSpan span(layers.tracer, "core.CompileCached");
          return pipeline.CompileCached(job, request.config);
        }();
        if (!base_plan.ok() || !alt_plan.ok()) continue;
        ScopedSpan span(layers.tracer, "core.ExecuteWithRetry");
        qsteer::ExecMetrics base = pipeline.ExecuteWithRetry(job, base_plan.value().root, ++nonce);
        qsteer::ExecMetrics alt = pipeline.ExecuteWithRetry(job, alt_plan.value().root, ++nonce);
        if (base.failed || base.runtime <= 0.0) continue;
        store.ObserveValidation(
            request.signature,
            alt.failed ? 100.0 : (alt.runtime - base.runtime) / base.runtime * 100.0);
      }
    }
    ScopedSpan span(layers.tracer, "service.store.Snapshot");
    Require(store.Snapshot(), "serve store snapshot");
  }
  layers.in.budget = pipeline.budget_stats();
  layers.in.failures = pipeline.failure_stats();

  qsteer::ServiceOptions options;
  options.num_workers = 2;
  options.seed = run.seed;
  // The client thread and two workers are the workload's three threads.
  options.enable_reanalysis = false;
  options.pipeline.compile_cache_mb = 64;
  options.pipeline.seed = run.seed;
  options.store.dir = dir;
  options.store.sync = kFsync;
  s.service = std::make_unique<qsteer::SteeringService>(s.optimizer.get(), s.simulator.get(),
                                                        options);
  ScopedSpan span(layers.tracer, "service.Start");
  Require(s.service->Start(), "service start");
  return s;
}

struct Pending {
  std::future<qsteer::ServiceReply> reply;
  uint64_t trace = 0;
  int64_t start_ns = 0;
  int64_t submitted_ns = 0;
  Job job;
};

/// A steered reply kept for the reference check.
struct Steered {
  Job job;
  RuleConfig config;
};

Check CheckSteered(const Serve& s, const std::vector<Steered>& steered) {
  qsteer::Optimizer fresh(&s.workload->catalog());
  for (const Steered& reply : steered) {
    Result<CompiledPlan> base = fresh.Compile(reply.job, RuleConfig::Default());
    Result<CompiledPlan> alt = fresh.Compile(reply.job, reply.config);
    if (!base.ok() || !alt.ok()) {
      return Check{"reference_results", false, reply.job.name + ": served plan does not compile"};
    }
    std::string mismatch =
        ReferenceMismatch(s.workload->catalog(), reply.job, {base.value().root, alt.value().root});
    if (!mismatch.empty()) return Check{"reference_results", false, mismatch};
  }
  return Check{"reference_results", !steered.empty(),
               steered.empty() ? "no steered reply to check"
                               : std::to_string(steered.size()) +
                                     " sampled steered replies: default and served plans return "
                                     "the logical plan's rows"};
}

}  // namespace

RunResult RunServeFreshA(const RunOptions& run) {
  RunResult result;
  Layers layers(run.trace);
  const std::string dir = run.state_dir + "/serve";
  const int64_t batch = BatchSize(run, kReferenceRequestsPerSecond);

  std::vector<double> setup_seconds;
  Serve s;
  for (int i = 0; i < kSetups; ++i) {
    if (s.service != nullptr) Require(s.service->Shutdown(), "service shutdown");
    s = Serve{};
    layers.Reset();
    int64_t start = NowNs();
    s = SetUp(run, dir, layers);
    setup_seconds.push_back(SecondsSince(start));
  }

  int day = 2;
  std::vector<Job> today = layers.JobsForDay(*s.workload, day);
  size_t next = 0;
  std::deque<Pending> outstanding;
  std::vector<double> latency_ms;
  std::vector<Steered> steered_sample;
  int64_t submitted = 0, accepted = 0, replies = 0, replies_ok = 0, steered = 0;
  double default_runtime = 0.0, saved_runtime = 0.0;
  bool stop = false, stalled = false;
  int64_t start = NowNs();
  int64_t last_progress = start;

  auto complete = [&](Pending& p) {
    qsteer::ServiceReply reply = p.reply.get();
    int64_t now = NowNs();
    last_progress = now;
    ++replies;
    latency_ms.push_back(static_cast<double>(now - p.start_ns) / 1e6);
    int parent = layers.tracer.Record("service.request", p.trace, -1, p.start_ns, now);
    layers.tracer.Record("service.Submit", p.trace, parent, p.start_ns, p.submitted_ns);
    if (!reply.status.ok()) {
      result.ops.Fail();
      return;
    }
    result.ops.Ok();
    ++replies_ok;
    default_runtime += reply.default_runtime_s;
    saved_runtime += reply.default_runtime_s - reply.served_runtime_s;
    if (!reply.steered) return;
    ++steered;
    if (steered_sample.size() < kReferenceSamples &&
        (steered_sample.empty() || qsteer::Mix64(run.seed ^ p.trace) % 8 == 0)) {
      steered_sample.push_back(Steered{std::move(p.job), reply.config});
    }
  };

  while (true) {
    while (!stop && outstanding.size() < kOutstanding) {
      if (next == today.size()) {
        today = layers.JobsForDay(*s.workload, ++day);
        next = 0;
      }
      Pending p;
      p.trace = static_cast<uint64_t>(++submitted);
      p.job = today[next++];
      qsteer::ServiceRequest request;
      request.job = p.job;
      p.start_ns = NowNs();
      qsteer::AdmitResult admit = s.service->Submit(request, &p.reply);
      p.submitted_ns = NowNs();
      if (admit == qsteer::AdmitResult::kAccepted) {
        ++accepted;
        outstanding.push_back(std::move(p));
      } else {
        result.ops.Fail();  // refused: queue full, shed or not running
        int parent = layers.tracer.Record("service.request", p.trace, -1, p.start_ns,
                                          p.submitted_ns);
        layers.tracer.Record("service.Submit", p.trace, parent, p.start_ns, p.submitted_ns);
      }
      stop = BatchDone(run, batch, submitted, start);
    }
    if (outstanding.empty()) break;
    bool any = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->reply.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        complete(*it);
        it = outstanding.erase(it);
        any = true;
      } else {
        ++it;
      }
    }
    if (!any) {
      outstanding.front().reply.wait_for(std::chrono::microseconds(100));
      if (stop && SecondsSince(last_progress) > kStallSeconds) {
        stalled = true;
        break;
      }
    }
    if (!stop) stop = BatchDone(run, batch, submitted, start);
  }
  double wall = SecondsSince(start);
  double peak_rss = PeakRssMb();

  result.e2e.push_back(SetupMetric(setup_seconds));
  result.e2e.push_back(
      Metric{"throughput", "ops/s", static_cast<double>(replies_ok) / wall, replies_ok});
  AddLatencyMetrics("", latency_ms, &result.e2e);
  result.e2e.push_back(Metric{"runtime_saved_pct", "%",
                              default_runtime > 0.0 ? saved_runtime / default_runtime * 100.0 : 0.0,
                              replies_ok});
  result.e2e.push_back(
      Metric{"error_rate", "fraction", result.ops.ErrorRate(), result.ops.attempted});
  result.e2e.push_back(Metric{"peak_rss_mb", "MiB", peak_rss, 1});

  qsteer::ServiceStatusSnapshot status = s.service->status();
  layers.in.cache = s.service->pipeline().compile_cache_stats();
  qsteer::PipelineFailureStats serving = s.service->pipeline().failure_stats();
  layers.in.failures.compile_retries += serving.compile_retries;
  layers.in.failures.exec_retries += serving.exec_retries;
  layers.in.failures.fallbacks += serving.fallbacks;
  layers.in.store = StoreCounts::Of(s.service->store());
  layers.in.service = status;
  layers.in.replies_ok = replies_ok;
  layers.in.replies_steered = steered;
  result.layers = LayerMetrics(layers.in, layers.tracer);
  result.spans = SummarizeSpans(layers.tracer.spans());

  bool all_replied = !stalled && replies == accepted &&
                     status.accepted == status.completed + status.failed;
  result.checks.push_back(Check{
      "every_accepted_replied", all_replied,
      std::to_string(replies) + " replies to " + std::to_string(accepted) + " accepted of " +
          std::to_string(submitted) + " submitted requests" + (stalled ? " (client stalled)" : "")});
  result.checks.push_back(CheckSteered(s, steered_sample));
  Require(s.service->Shutdown(), "service shutdown");
  return result;
}

}  // namespace perfbench
