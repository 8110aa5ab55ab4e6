// The asynchronous steering service: the online half of the paper's system
// run as a long-lived process instead of a batch tool.
//
// Requests (jobs to compile-and-serve) enter through a bounded queue with
// admission control in front of it:
//
//   Submit ──▶ [deadline shed? queue full?] ──▶ BoundedQueue ──▶ workers
//                      │                                           │
//                      ▼                                           ▼
//               AdmitResult (reject,                    compile default →
//               caller never blocks)                    recommend (durable
//                                                       store) → steered
//                                                       A/B run → outcome
//
// Admission control sheds load instead of queueing it: when the estimated
// wait (queue depth × EWMA service time / workers) already exceeds the
// request's deadline, the request is rejected with kShedDeadline — a doomed
// request in the queue only delays the ones behind it. A full queue rejects
// with kQueueFull. Submit never blocks.
//
// All recommender mutations go through a DurableRecommenderStore (WAL +
// snapshots), so a crash — simulated by Kill() — loses no acknowledged
// learning; restart recovery replays to a bit-identical store. Clean
// Shutdown() drains the queue, snapshots, and joins.
//
// A background re-analysis worker holds a single pending slot. Requests
// (and the stop) bump a generation number; an analysis overtaken by a newer
// generation is abandoned (counted, not applied) instead of clobbering
// fresher learning. An applied analysis that learns a candidate runs
// RunValidationGate on the re-analyzed job.
#ifndef QSTEER_SERVICE_STEERING_SERVICE_H_
#define QSTEER_SERVICE_STEERING_SERVICE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "service/durable_store.h"

namespace qsteer {

struct ServiceOptions {
  /// Compile/serve worker threads. 0 is a deterministic testing mode: the
  /// service accepts requests but never drains them (admission-control
  /// tests need a queue that stays put).
  int num_workers = 2;
  /// Bounded request queue capacity; a full queue rejects (kQueueFull).
  int queue_capacity = 64;
  /// Deadline applied to requests that do not carry their own; <= 0 means
  /// no deadline (no shedding for that request).
  double default_deadline_s = 0.0;
  /// Base seed for per-job execution nonces (deterministic simulation).
  uint64_t seed = 1;
  /// Seed of the service-time EWMA used by admission control, seconds.
  /// 0 starts the estimate at the first observed service time.
  double initial_service_time_ewma_s = 0.0;
  /// Enables the background re-analysis worker.
  bool enable_reanalysis = true;
  /// Pre-warm the compile cache from this SaveCompileCache artifact at
  /// Start() (empty = cold start). Rejection — corrupt, torn, version- or
  /// day-mismatched — is never fatal: the service starts cold and compiles
  /// fresh. The nightly sharded discovery pass ships these files.
  std::string warm_cache_file;
  /// Day the warm cache must be stamped with; -1 accepts any day.
  int warm_cache_day = -1;
  PipelineOptions pipeline;
  DurableStoreOptions store;
};

/// Outcome of Submit: exactly one of these, decided synchronously.
enum class AdmitResult {
  kAccepted = 0,
  /// Bounded queue at capacity.
  kQueueFull = 1,
  /// Estimated wait already exceeds the request's deadline: rejected now
  /// rather than timed out later (load shedding).
  kShedDeadline = 2,
  /// Service not started, draining, or shut down.
  kNotRunning = 3,
};

struct ServiceRequest {
  Job job;
  /// Seconds the caller is willing to wait; <= 0 falls back to
  /// ServiceOptions::default_deadline_s.
  double deadline_s = 0.0;
};

struct ServiceReply {
  Status status;
  /// True when a steered (non-default) plan was served.
  bool steered = false;
  /// True when the steered plan was a half-open breaker probe.
  bool probing = false;
  RuleConfig config;
  /// Signature of the default-compiled plan (the recommender group key);
  /// callers use it to report late outcome observations.
  RuleSignature default_signature;
  double default_runtime_s = 0.0;
  double served_runtime_s = 0.0;
  /// Admission-time wait estimate (what load shedding compared against).
  double wait_estimate_s = 0.0;
};

/// Health-endpoint-style status snapshot. Only the service's own flags and
/// request counters (running, draining, accepted through
/// service_time_ewma_s) are read together under the service lock; the
/// queue, the store, the pipeline and the re-analysis worker are each read
/// afterwards from their owner, so two parts can be a few events apart.
/// Counter sets that have an owner struct are embedded whole.
struct ServiceStatusSnapshot {
  bool running = false;
  bool draining = false;
  int queue_depth = 0;
  int64_t queue_high_water = 0;
  int64_t accepted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed_deadline = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_not_running = 0;
  double service_time_ewma_s = 0.0;
  // Durable-store health.
  uint64_t applied_seq = 0;
  int64_t wal_lag = 0;
  int64_t snapshots_taken = 0;
  /// What Start() found on disk (zeroes for a fresh or ephemeral store).
  DurableRecommenderStore::RecoveryInfo recovery;
  // Recommender health.
  int groups = 0;
  int serving = 0;
  int open_breakers = 0;
  int retired = 0;
  int pending_validation = 0;
  // Re-analysis worker.
  int64_t reanalyses_completed = 0;
  int64_t reanalyses_abandoned = 0;
  /// The pipeline's compile cache, which the serving path compiles through;
  /// warm_loaded/warm_rejected report the Start() warm load.
  CompileCacheStats cache;
  /// Candidate generation of every analysis run on the service's pipeline:
  /// the re-analysis worker's and any a caller runs through pipeline().
  SteeringPipeline::BudgetStats budget;
  /// Failure counters of the service's pipeline: every compile it runs
  /// (serving, validation, analyses) and every execution.
  PipelineFailureStats failures;
  // Recommendation-table serving split: snapshot view vs locked path.
  int64_t rec_snapshot_serves = 0;
  int64_t rec_locked_serves = 0;

  std::string ToString() const;
};

/// Receives one validation verdict: the candidate's runtime change against
/// the default, in percent (positive = regression).
using ValidationReport =
    std::function<Status(const RuleSignature& signature, double runtime_change_pct)>;

/// The validation gate, the one place validation re-runs happen: a learned
/// candidate serves only after it beats the default on re-execution (§6).
/// Up to 8 rounds, each over `store.PendingValidations()` (signature order),
/// stopping when none are pending. A candidate whose group has a job in
/// `group_jobs` (keyed by signature hex) is compiled under the default and
/// its own configuration (`CompileCached`; a failed compile skips it for the
/// round) and both plans run through `ExecuteWithRetry` with nonces 1, 2,
/// 3, ... per call: default first, then candidate, in request order. `qsteer
/// serve`'s durable files depend on that order. A failed or zero-length
/// default run skips the candidate; otherwise the verdict is
/// `(alt - base) / base * 100`, or 100 when the candidate's run failed. It
/// goes to `report` when given, else to `store.ObserveValidation`. Returns
/// the first non-OK report status.
Status RunValidationGate(const SteeringPipeline& pipeline,
                         const std::unordered_map<std::string, Job>& group_jobs,
                         DurableRecommenderStore& store,
                         const ValidationReport& report = nullptr);

/// Learns one analysis, setting `*learned` when it learned a candidate: the
/// shape of ReplicationFleet::LearnFromAnalysis.
using LearnFunction = std::function<Status(const JobAnalysis& analysis, bool* learned)>;

/// Counts of one LearnDay call; several learn events can strengthen one group.
struct LearnDayStats {
  int analyzed = 0;
  int learn_events = 0;
  int failed_baselines = 0;  // default run failed: no baseline to learn against
};

/// Day-1 learning, discovery then validation (§3.3, §6): analyzes `jobs` in
/// order on `pipeline` and learns each analysis into `store`, or through
/// `learn` when given. The first job of each group that learned a candidate
/// drives RunValidationGate(pipeline, ..., store, report). Returns the first
/// non-OK learn status, before any validation, else the gate's status;
/// `*stats` counts this call only.
Status LearnDay(const SteeringPipeline& pipeline, const std::vector<Job>& jobs,
                DurableRecommenderStore& store, LearnDayStats* stats,
                const LearnFunction& learn = nullptr,
                const ValidationReport& report = nullptr);

class SteeringService {
 public:
  SteeringService(const Optimizer* optimizer, const ExecutionSimulator* simulator,
                  ServiceOptions options = {});
  /// Best-effort Shutdown() when still running.
  ~SteeringService();

  SteeringService(const SteeringService&) = delete;
  SteeringService& operator=(const SteeringService&) = delete;

  /// Recovers the durable store and spawns the workers. Fails (and stays
  /// stopped) when recovery fails — serving from silently partial state is
  /// worse than not serving.
  Status Start() EXCLUDES(mu_);

  /// Non-blocking admission. On kAccepted, `*reply` receives a future that
  /// the serving worker fulfills; on any rejection `*reply` is untouched
  /// and the request was not enqueued.
  AdmitResult Submit(const ServiceRequest& request, std::future<ServiceReply>* reply)
      EXCLUDES(mu_);

  /// Stops admission and waits until every accepted request has finished.
  void Drain() EXCLUDES(mu_);

  /// Graceful stop: Drain + final snapshot + join. Returns the snapshot
  /// status (workers are joined regardless). Exactly one concurrent
  /// Shutdown/Kill performs the stop; latecomers return immediately.
  Status Shutdown() EXCLUDES(mu_);

  /// Crash simulation: close the queue immediately, fail still-queued
  /// requests with an error reply, join workers. NO snapshot — recovery
  /// must come from the WAL, exactly like a real crash.
  void Kill() EXCLUDES(mu_);

  /// Queues a background re-analysis of `job`, superseding any previously
  /// queued or in-flight one. Returns false when the service is not running
  /// or re-analysis is disabled.
  bool RequestReanalysis(const Job& job) EXCLUDES(mu_, reanalysis_mu_);

  ServiceStatusSnapshot status() const EXCLUDES(mu_, reanalysis_mu_);

  DurableRecommenderStore& store() { return store_; }
  const DurableRecommenderStore& store() const { return store_; }
  const ServiceOptions& options() const { return options_; }
  /// The service's pipeline (and thus its compile cache). Pass it to
  /// RunValidationGate so validation re-runs compile through the cache the
  /// serving path populates (and warm it for the requests that follow).
  const SteeringPipeline& pipeline() const { return pipeline_; }

 private:
  struct QueueItem {
    ServiceRequest request;
    std::promise<ServiceReply> promise;
    double wait_estimate_s = 0.0;
  };

  void WorkerLoop();
  void ProcessRequest(QueueItem item);
  void FinishRequest(std::promise<ServiceReply> promise, ServiceReply reply,
                     double elapsed_s, bool failed) EXCLUDES(mu_);
  void ReanalysisLoop() EXCLUDES(reanalysis_mu_);

  /// Claims the exclusive right to stop the service and halts admission.
  /// Returns false when the service is not running or another Shutdown/Kill
  /// already claimed the stop (they join; the claimant cleans up).
  bool BeginStop() EXCLUDES(mu_);
  /// Moves the compile workers out under the lock and joins them lock-free
  /// (they take mu_ in FinishRequest, so joining under it would deadlock).
  void JoinWorkers() EXCLUDES(mu_);
  /// Signals and joins the re-analysis worker (idempotent).
  void StopReanalysisWorker() EXCLUDES(reanalysis_mu_);
  void MarkStopped() EXCLUDES(mu_);

  ServiceOptions options_;
  SteeringPipeline pipeline_;
  DurableRecommenderStore store_;
  BoundedQueue<QueueItem> queue_;

  mutable Mutex mu_;
  CondVar drained_cv_;
  bool running_ GUARDED_BY(mu_) = false;
  bool draining_ GUARDED_BY(mu_) = false;
  /// Set by the one Shutdown/Kill that wins the stop race; concurrent
  /// stoppers bail out instead of double-joining the workers.
  bool stopping_ GUARDED_BY(mu_) = false;
  int64_t accepted_ GUARDED_BY(mu_) = 0;
  /// completed_ + failed_; Drain waits for == accepted_.
  int64_t finished_ GUARDED_BY(mu_) = 0;
  int64_t completed_ GUARDED_BY(mu_) = 0;
  int64_t failed_ GUARDED_BY(mu_) = 0;
  int64_t shed_deadline_ GUARDED_BY(mu_) = 0;
  int64_t rejected_queue_full_ GUARDED_BY(mu_) = 0;
  int64_t rejected_not_running_ GUARDED_BY(mu_) = 0;
  double service_time_ewma_s_ GUARDED_BY(mu_) = 0.0;
  /// Spawned by Start, moved out (under mu_) and joined lock-free by the
  /// stop path.
  std::vector<std::thread> workers_ GUARDED_BY(mu_);

  // Re-analysis worker: single pending slot, newest request wins.
  mutable Mutex reanalysis_mu_;
  CondVar reanalysis_cv_;
  bool reanalysis_stop_ GUARDED_BY(reanalysis_mu_) = false;
  std::optional<Job> reanalysis_pending_ GUARDED_BY(reanalysis_mu_);
  /// Bumped by every request and by the stop: an analysis that finishes
  /// under a newer generation than it started with was superseded.
  uint64_t reanalysis_generation_ GUARDED_BY(reanalysis_mu_) = 0;
  int64_t reanalyses_completed_ GUARDED_BY(reanalysis_mu_) = 0;
  int64_t reanalyses_abandoned_ GUARDED_BY(reanalysis_mu_) = 0;
  std::thread reanalysis_thread_ GUARDED_BY(reanalysis_mu_);
};

}  // namespace qsteer

#endif  // QSTEER_SERVICE_STEERING_SERVICE_H_
