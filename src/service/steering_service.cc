#include "service/steering_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/hash.h"

namespace qsteer {
namespace {

/// EWMA smoothing factor for observed service times.
constexpr double kEwmaAlpha = 0.2;

/// Runtime change of `alt` against `base`, in percent. A run that stayed
/// failed after retries is the worst regression we can observe (100).
double RuntimeChangePct(const ExecMetrics& base, const ExecMetrics& alt) {
  if (alt.failed) return 100.0;
  return base.runtime > 0.0 ? (alt.runtime - base.runtime) / base.runtime * 100.0 : 0.0;
}

}  // namespace

std::string ServiceStatusSnapshot::ToString() const {
  std::ostringstream out;
  out << "state: " << (running ? (draining ? "draining" : "running") : "stopped") << '\n'
      << "queue: depth=" << queue_depth << " high_water=" << queue_high_water << '\n'
      << "requests: accepted=" << accepted << " completed=" << completed
      << " failed=" << failed << " shed_deadline=" << shed_deadline
      << " queue_full=" << rejected_queue_full << " not_running=" << rejected_not_running
      << '\n'
      << "service_time_ewma_s: " << service_time_ewma_s << '\n'
      << "store: applied_seq=" << applied_seq << " wal_lag=" << wal_lag
      << " snapshots=" << snapshots_taken << '\n'
      << "recovery: " << recovery.ToString() << '\n'
      << "recommender: groups=" << groups << " serving=" << serving
      << " open=" << open_breakers << " retired=" << retired
      << " pending_validation=" << pending_validation << '\n'
      << "reanalysis: completed=" << reanalyses_completed
      << " abandoned=" << reanalyses_abandoned << '\n'
      << "compile_cache: " << cache.ToString() << '\n'
      << "budget: " << budget.ToString() << '\n'
      << "failures: " << failures.ToString() << '\n'
      << "recommend_serves: snapshot=" << rec_snapshot_serves
      << " locked=" << rec_locked_serves << '\n';
  return out.str();
}

Status RunValidationGate(const SteeringPipeline& pipeline,
                         const std::unordered_map<std::string, Job>& group_jobs,
                         DurableRecommenderStore& store, const ValidationReport& report) {
  constexpr int kRounds = 8;
  uint64_t nonce = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<SteeringRecommender::ValidationRequest> pending = store.PendingValidations();
    if (pending.empty()) break;
    for (const SteeringRecommender::ValidationRequest& request : pending) {
      auto it = group_jobs.find(request.signature.ToHexString());
      if (it == group_jobs.end()) continue;
      const Job& job = it->second;
      Result<CompiledPlan> base_plan = pipeline.CompileCached(job, RuleConfig::Default());
      Result<CompiledPlan> alt_plan = pipeline.CompileCached(job, request.config);
      if (!base_plan.ok() || !alt_plan.ok()) continue;
      ExecMetrics base = pipeline.ExecuteWithRetry(job, base_plan.value().root, ++nonce);
      ExecMetrics alt = pipeline.ExecuteWithRetry(job, alt_plan.value().root, ++nonce);
      if (base.failed || base.runtime <= 0.0) continue;
      double change_pct = RuntimeChangePct(base, alt);
      if (!report) {
        store.ObserveValidation(request.signature, change_pct);
        continue;
      }
      Status status = report(request.signature, change_pct);
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

Status LearnDay(const SteeringPipeline& pipeline, const std::vector<Job>& jobs,
                DurableRecommenderStore& store, LearnDayStats* stats,
                const LearnFunction& learn, const ValidationReport& report) {
  *stats = LearnDayStats();
  std::unordered_map<std::string, Job> group_jobs;  // signature hex -> first job
  for (const Job& job : jobs) {
    ++stats->analyzed;
    JobAnalysis analysis = pipeline.AnalyzeJob(job);
    if (analysis.default_metrics.failed) ++stats->failed_baselines;
    bool learned = false;
    if (learn) {
      Status status = learn(analysis, &learned);
      if (!status.ok()) return status;
    } else {
      learned = store.LearnFromAnalysis(analysis);
    }
    if (!learned) continue;
    ++stats->learn_events;
    group_jobs.emplace(analysis.default_plan.signature.ToHexString(), job);
  }
  return RunValidationGate(pipeline, group_jobs, store, report);
}

SteeringService::SteeringService(const Optimizer* optimizer,
                                 const ExecutionSimulator* simulator, ServiceOptions options)
    : options_(std::move(options)),
      pipeline_(optimizer, simulator, options_.pipeline),
      store_(options_.store),
      queue_(options_.queue_capacity) {}

SteeringService::~SteeringService() {
  // Unconditional: Shutdown() itself checks running_ under the lock (the
  // old `if (running_)` here read the flag without it).
  // qsteer-lint: allow(unchecked-status) destructors cannot propagate; Shutdown is idempotent
  (void)Shutdown();
}

Status SteeringService::Start() {
  MutexLock lock(mu_);
  if (running_) return Status::FailedPrecondition("service already running");
  if (queue_.closed()) {
    return Status::FailedPrecondition(
        "service cannot restart after Shutdown/Kill; create a new instance");
  }
  Status status = store_.Open();
  if (!status.ok()) return status;
  if (!options_.warm_cache_file.empty()) {
    // Never fatal: a rejected warm file (corrupt, torn, wrong version or
    // day) leaves the cache cold, and cold compiles are always correct.
    // The rejection is visible as cache.warm_rejected in the snapshot.
    // qsteer-lint: allow(unchecked-status) rejected warm files leave the cache cold, which is always correct
    (void)pipeline_.WarmCompileCache(options_.warm_cache_file, options_.warm_cache_day);
  }
  running_ = true;
  draining_ = false;
  stopping_ = false;
  service_time_ewma_s_ = options_.initial_service_time_ewma_s;
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.enable_reanalysis) {
    // mu_ -> reanalysis_mu_ is the only place both are held; nothing nests
    // the other way, so the ordering is acyclic.
    MutexLock reanalysis_lock(reanalysis_mu_);
    reanalysis_stop_ = false;
    reanalysis_thread_ = std::thread([this] { ReanalysisLoop(); });
  }
  return Status::OK();
}

AdmitResult SteeringService::Submit(const ServiceRequest& request,
                                    std::future<ServiceReply>* reply) {
  MutexLock lock(mu_);
  if (!running_ || draining_) {
    ++rejected_not_running_;
    return AdmitResult::kNotRunning;
  }
  // Load shedding: estimate how long this request would sit behind the work
  // already admitted (queued + in flight = accepted - finished). A request
  // that cannot make its deadline is rejected *now* — queueing it would only
  // delay requests that still can.
  int64_t ahead = accepted_ - finished_;
  double workers = static_cast<double>(std::max(1, options_.num_workers));
  double estimate = static_cast<double>(ahead) * service_time_ewma_s_ / workers;
  double deadline = request.deadline_s > 0.0 ? request.deadline_s : options_.default_deadline_s;
  if (deadline > 0.0 && estimate > deadline) {
    ++shed_deadline_;
    return AdmitResult::kShedDeadline;
  }
  QueueItem item;
  item.request = request;
  item.wait_estimate_s = estimate;
  std::future<ServiceReply> future = item.promise.get_future();
  if (!queue_.TryPush(std::move(item))) {
    ++rejected_queue_full_;
    return AdmitResult::kQueueFull;
  }
  ++accepted_;
  if (reply != nullptr) *reply = std::move(future);
  return AdmitResult::kAccepted;
}

void SteeringService::WorkerLoop() {
  QueueItem item;
  while (queue_.Pop(&item)) {
    ProcessRequest(std::move(item));
  }
}

void SteeringService::ProcessRequest(QueueItem item) {
  // qsteer-lint: allow(wall-clock) measures real service time for the admission-control EWMA
  auto start = std::chrono::steady_clock::now();
  ServiceReply reply;
  reply.wait_estimate_s = item.wait_estimate_s;
  const Job& job = item.request.job;
  auto elapsed = [&start] {
    // qsteer-lint: allow(wall-clock) same EWMA measurement as `start` above
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  uint64_t nonce = HashCombine(options_.seed, HashString(job.name));
  // Serving hot path: compile through the pipeline's compile cache
  // (recurring jobs hit; results are bit-identical to a fresh compile).
  Result<CompiledPlan> default_plan = pipeline_.CompileCached(job, RuleConfig::Default());
  if (!default_plan.ok()) {
    reply.status = default_plan.status();
    FinishRequest(std::move(item.promise), std::move(reply), elapsed(), /*failed=*/true);
    return;
  }
  reply.default_signature = default_plan.value().signature;
  ExecMetrics default_metrics =
      pipeline_.ExecuteWithRetry(job, default_plan.value().root, nonce);
  reply.default_runtime_s = default_metrics.runtime;
  reply.served_runtime_s = default_metrics.runtime;

  // The common pure lookups skip the store mutex; open-breaker ticks still
  // journal.
  SteeringRecommender::Recommendation rec =
      store_.RecommendFast(default_plan.value().signature);
  if (!rec.is_default) {
    Result<CompiledPlan> steered = pipeline_.CompileCached(job, rec.config);
    if (steered.ok()) {
      ExecMetrics steered_metrics = pipeline_.ExecuteWithRetry(
          job, steered.value().root, HashCombine(nonce, 0x9e3779b97f4a7c15ULL));
      store_.ObserveOutcome(default_plan.value().signature,
                            RuntimeChangePct(default_metrics, steered_metrics));
      if (!steered_metrics.failed) {
        reply.steered = true;
        reply.probing = rec.probing;
        reply.config = rec.config;
        reply.served_runtime_s = steered_metrics.runtime;
      }
    }
  }
  reply.status = Status::OK();
  FinishRequest(std::move(item.promise), std::move(reply), elapsed(), /*failed=*/false);
}

void SteeringService::FinishRequest(std::promise<ServiceReply> promise, ServiceReply reply,
                                    double elapsed_s, bool failed) {
  {
    MutexLock lock(mu_);
    if (service_time_ewma_s_ <= 0.0) {
      service_time_ewma_s_ = elapsed_s;
    } else {
      service_time_ewma_s_ =
          kEwmaAlpha * elapsed_s + (1.0 - kEwmaAlpha) * service_time_ewma_s_;
    }
    ++finished_;
    if (failed) {
      ++failed_;
    } else {
      ++completed_;
    }
  }
  drained_cv_.NotifyAll();
  promise.set_value(std::move(reply));
}

void SteeringService::Drain() {
  MutexLock lock(mu_);
  if (!running_) return;
  draining_ = true;
  while (finished_ != accepted_) drained_cv_.Wait(mu_);
}

bool SteeringService::BeginStop() {
  MutexLock lock(mu_);
  if (!running_ || stopping_) return false;
  stopping_ = true;
  draining_ = true;  // stop admission immediately
  return true;
}

void SteeringService::JoinWorkers() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) worker.join();
}

void SteeringService::StopReanalysisWorker() {
  std::thread worker;
  {
    MutexLock lock(reanalysis_mu_);
    reanalysis_stop_ = true;
    ++reanalysis_generation_;  // an analysis still in flight is abandoned
    worker = std::move(reanalysis_thread_);
  }
  reanalysis_cv_.NotifyAll();
  if (worker.joinable()) worker.join();
}

void SteeringService::MarkStopped() {
  MutexLock lock(mu_);
  running_ = false;
  draining_ = false;
  stopping_ = false;
}

Status SteeringService::Shutdown() {
  Drain();
  // First stopper wins; a concurrent Shutdown/Kill already owns the join
  // (the old code let both paths join workers_ — a double-join race).
  if (!BeginStop()) return Status::OK();
  queue_.Close();
  JoinWorkers();
  StopReanalysisWorker();
  Status snapshot_status = store_.Snapshot();
  MarkStopped();
  return snapshot_status;
}

void SteeringService::Kill() {
  if (!BeginStop()) return;
  std::vector<QueueItem> abandoned = queue_.CloseAndDrain();
  for (QueueItem& item : abandoned) {
    ServiceReply reply;
    reply.status = Status::Internal("service killed");
    FinishRequest(std::move(item.promise), std::move(reply), /*elapsed_s=*/0.0,
                  /*failed=*/true);
  }
  JoinWorkers();
  StopReanalysisWorker();
  // Deliberately no snapshot: recovery must come from the WAL.
  MarkStopped();
}

bool SteeringService::RequestReanalysis(const Job& job) {
  {
    MutexLock lock(mu_);
    if (!running_ || draining_ || !options_.enable_reanalysis) return false;
  }
  {
    MutexLock lock(reanalysis_mu_);
    // Newest request wins: supersede whatever is pending or in flight.
    ++reanalysis_generation_;
    if (reanalysis_pending_.has_value()) ++reanalyses_abandoned_;
    reanalysis_pending_ = job;
  }
  reanalysis_cv_.NotifyAll();
  return true;
}

void SteeringService::ReanalysisLoop() {
  for (;;) {
    Job job;
    uint64_t generation = 0;
    {
      MutexLock lock(reanalysis_mu_);
      while (!reanalysis_stop_ && !reanalysis_pending_.has_value()) {
        reanalysis_cv_.Wait(reanalysis_mu_);
      }
      if (reanalysis_stop_) return;
      job = std::move(*reanalysis_pending_);
      reanalysis_pending_.reset();
      generation = reanalysis_generation_;
    }
    JobAnalysis analysis = pipeline_.AnalyzeJob(job);
    {
      MutexLock lock(reanalysis_mu_);
      if (reanalysis_generation_ != generation) {
        // Superseded while analyzing: discard rather than apply stale work.
        ++reanalyses_abandoned_;
        continue;
      }
      ++reanalyses_completed_;
    }
    if (store_.LearnFromAnalysis(analysis)) {
      // qsteer-lint: allow(unchecked-status) reports go to the store, which cannot fail them
      (void)RunValidationGate(pipeline_, {{analysis.default_plan.signature.ToHexString(), job}},
                              store_);
    }
  }
}

ServiceStatusSnapshot SteeringService::status() const {
  ServiceStatusSnapshot snapshot;
  {
    MutexLock lock(mu_);
    snapshot.running = running_;
    snapshot.draining = draining_;
    snapshot.accepted = accepted_;
    snapshot.completed = completed_;
    snapshot.failed = failed_;
    snapshot.shed_deadline = shed_deadline_;
    snapshot.rejected_queue_full = rejected_queue_full_;
    snapshot.rejected_not_running = rejected_not_running_;
    snapshot.service_time_ewma_s = service_time_ewma_s_;
  }
  snapshot.queue_depth = static_cast<int>(queue_.size());
  snapshot.queue_high_water = queue_.high_water();
  snapshot.applied_seq = store_.applied_seq();
  snapshot.wal_lag = store_.wal_lag();
  snapshot.snapshots_taken = store_.snapshots_taken();
  snapshot.recovery = store_.recovery();
  snapshot.groups = store_.num_groups();
  snapshot.serving = store_.num_serving();
  snapshot.open_breakers = store_.num_open();
  snapshot.retired = store_.num_retired();
  snapshot.pending_validation = store_.num_pending_validation();
  snapshot.cache = pipeline_.compile_cache_stats();
  snapshot.budget = pipeline_.budget_stats();
  snapshot.failures = pipeline_.failure_stats();
  snapshot.rec_snapshot_serves = store_.fast_recommends();
  snapshot.rec_locked_serves = store_.locked_recommends();
  {
    MutexLock lock(reanalysis_mu_);
    snapshot.reanalyses_completed = reanalyses_completed_;
    snapshot.reanalyses_abandoned = reanalyses_abandoned_;
  }
  return snapshot;
}

}  // namespace qsteer
