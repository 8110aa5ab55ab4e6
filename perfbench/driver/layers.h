// The benchmark's view of qsteer's layers: spans around the calls the
// workloads make into each layer's public functions, and the fixed list of
// per-layer metrics every workload reports (zero where a layer does no work
// on that workload).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "harness.h"
#include "optimizer/compile_cache.h"
#include "service/replication.h"
#include "service/steering_service.h"
#include "workload/generator.h"

namespace perfbench {

/// JobAnalysis fields summed over every analysis in the measured window.
struct AnalysisTotals {
  int64_t span_iterations = 0;
  int64_t span_rules = 0;
  int64_t candidates_generated = 0;
  int64_t candidates_compiled = 0;
  int64_t budget_skipped = 0;
  int64_t span_pruned = 0;
  int64_t compile_failures = 0;
  int64_t alternatives_executed = 0;

  void Add(const qsteer::JobAnalysis& analysis);
};

/// Store counters read from a DurableRecommenderStore (or the service's
/// status, which copies them).
struct StoreCounts {
  int64_t snapshots = 0;
  int64_t wal_records = 0;
  int64_t groups = 0;
  int64_t serving = 0;
  int64_t open_breakers = 0;
  int64_t retired = 0;

  static StoreCounts Of(const qsteer::DurableRecommenderStore& store);
};

/// Everything the per-layer metrics are computed from. Workloads fill the
/// parts that apply; the rest stays zero.
struct LayerInputs {
  // optimizer: direct Optimizer::Compile calls made by the benchmark.
  int64_t compiles = 0;
  int64_t memo_exprs = 0;
  int64_t memo_groups = 0;
  // optimizer: the compile cache of the pipeline that does the work.
  qsteer::CompileCacheStats cache;
  int64_t cache_file_bytes = 0;
  // exec: direct ExecutionSimulator::Execute calls.
  int64_t executes = 0;
  // core and ml.
  AnalysisTotals analyses;
  qsteer::SteeringPipeline::BudgetStats budget;
  qsteer::PipelineFailureStats failures;
  // service: store, SteeringService and ReplicationFleet.
  StoreCounts store;
  qsteer::ServiceStatusSnapshot service;
  int64_t replies_ok = 0;
  int64_t replies_steered = 0;
  qsteer::FleetStatus fleet;
  int64_t fleet_bytes_shipped = 0;
  int64_t fleet_acked_writes = 0;
  int64_t fleet_ticks = 0;
  int64_t fleet_snapshot_installs = 0;
};

/// Spans plus the call counters that must exist without tracing (the
/// exact-repeat comparison runs one process untraced).
class Layers {
 public:
  explicit Layers(bool trace) : tracer(trace) {}

  qsteer::Result<qsteer::CompiledPlan> Compile(const qsteer::Optimizer& optimizer,
                                               const qsteer::Job& job,
                                               const qsteer::RuleConfig& config,
                                               uint64_t trace_id);
  qsteer::ExecMetrics Execute(const qsteer::ExecutionSimulator& simulator,
                              const qsteer::Job& job, const qsteer::PlanNodePtr& root,
                              uint64_t trace_id);
  std::vector<qsteer::Job> JobsForDay(const qsteer::Workload& workload, int day);

  /// Forgets spans and counters: the per-layer window restarts (each set-up
  /// repetition begins with this).
  void Reset();

  Tracer tracer;
  LayerInputs in;
};

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const LayerInputs& in, const Tracer& tracer);

/// A workload whose durable state could not be opened or written cannot be
/// measured: print why and exit non-zero.
void Require(const qsteer::Status& status, const char* what);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
