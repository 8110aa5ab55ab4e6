#include "layers.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string_view>

namespace perfbench {

using qsteer::CompiledPlan;
using qsteer::Result;

void AnalysisTotals::Add(const qsteer::JobAnalysis& analysis) {
  span_iterations += analysis.span.iterations;
  span_rules += analysis.span.span.Count();
  candidates_generated += analysis.candidates_generated;
  candidates_compiled += analysis.candidates_compiled;
  budget_skipped += analysis.budget_skipped;
  span_pruned += analysis.span_duplicates_pruned;
  compile_failures += analysis.compile_failures;
  alternatives_executed += static_cast<int64_t>(analysis.executed.size());
}

StoreCounts StoreCounts::Of(const qsteer::DurableRecommenderStore& store) {
  StoreCounts counts;
  counts.snapshots = store.snapshots_taken();
  counts.wal_records = static_cast<int64_t>(store.applied_seq());
  counts.groups = store.num_groups();
  counts.serving = store.num_serving();
  counts.open_breakers = store.num_open();
  counts.retired = store.num_retired();
  return counts;
}

Result<CompiledPlan> Layers::Compile(const qsteer::Optimizer& optimizer, const qsteer::Job& job,
                                     const qsteer::RuleConfig& config, uint64_t trace_id) {
  Result<CompiledPlan> plan = [&] {
    ScopedSpan span(tracer, "optimizer.Compile", trace_id);
    return optimizer.Compile(job, config);
  }();
  ++in.compiles;
  if (plan.ok()) {
    in.memo_exprs += plan.value().memo_exprs;
    in.memo_groups += plan.value().memo_groups;
  }
  return plan;
}

qsteer::ExecMetrics Layers::Execute(const qsteer::ExecutionSimulator& simulator,
                                    const qsteer::Job& job, const qsteer::PlanNodePtr& root,
                                    uint64_t trace_id) {
  ScopedSpan span(tracer, "exec.Execute", trace_id);
  ++in.executes;
  return simulator.Execute(job, root);
}

std::vector<qsteer::Job> Layers::JobsForDay(const qsteer::Workload& workload, int day) {
  ScopedSpan span(tracer, "workload.JobsForDay");
  return workload.JobsForDay(day);
}

void Layers::Reset() {
  tracer.Clear();
  in = LayerInputs{};
}

void Require(const qsteer::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInputs& in, const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<Metric> out;
  auto count = [&](const char* name, int64_t value, const char* unit = "count") {
    out.push_back(Metric{name, unit, static_cast<double>(value), 0});
  };
  auto value = [&](const char* name, const char* unit, double v, int64_t samples = 0) {
    out.push_back(Metric{name, unit, v, samples});
  };
  // Total ms of the spans whose names start with each prefix.
  auto busy = [&](const char* name, std::initializer_list<std::string_view> prefixes) {
    double total = 0.0;
    int64_t calls = 0;
    for (std::string_view prefix : prefixes) {
      std::vector<double> ms = SpanDurationsMs(spans, prefix);
      total = std::accumulate(ms.begin(), ms.end(), total);
      calls += static_cast<int64_t>(ms.size());
    }
    value(name, "ms", total, calls);
  };

  busy("workload.generate_ms", {"workload."});

  std::vector<double> compile_ms = SpanDurationsMs(spans, "optimizer.Compile");
  count("optimizer.compiles", in.compiles);
  busy("optimizer.compile_ms", {"optimizer.Compile"});
  value("optimizer.compile_p95_ms", "ms", Percentile(compile_ms, 0.95).value_or(0.0),
        static_cast<int64_t>(compile_ms.size()));
  count("optimizer.memo_exprs", in.memo_exprs);
  count("optimizer.memo_groups", in.memo_groups);

  count("optimizer.cache.hits", in.cache.hits);
  count("optimizer.cache.misses", in.cache.misses);
  value("optimizer.cache.hit_rate", "fraction", in.cache.HitRate(),
        in.cache.hits + in.cache.misses);
  count("optimizer.cache.evictions", in.cache.evictions);
  count("optimizer.cache.bytes", in.cache.bytes, "bytes");
  count("optimizer.cache.shard_contention", in.cache.shard_contention);
  busy("optimizer.cache.save_ms", {"optimizer.cache.SaveCompileCache"});
  count("optimizer.cache.file_bytes", in.cache_file_bytes, "bytes");

  count("exec.executes", in.executes);
  busy("exec.execute_ms", {"exec.Execute"});

  busy("core.analyze_ms", {"core.AnalyzeJob"});
  count("core.span_iterations", in.analyses.span_iterations);
  count("core.span_rules", in.analyses.span_rules);
  count("core.candidates_generated", in.analyses.candidates_generated);
  count("core.candidates_compiled", in.analyses.candidates_compiled);
  count("core.budget_skipped", in.analyses.budget_skipped);
  count("core.span_pruned", in.analyses.span_pruned);
  count("core.compile_failures", in.analyses.compile_failures);
  count("core.alternatives_executed", in.analyses.alternatives_executed);
  count("core.improvements", in.budget.improvements_found);
  value("core.improvements_per_compile", "ratio", in.budget.ImprovementsPerCompile(),
        in.budget.candidates_compiled);
  count("core.compile_retries", in.failures.compile_retries);
  count("core.exec_retries", in.failures.exec_retries);
  count("core.fallbacks", in.failures.fallbacks);

  busy("ml.ranker_train_ms", {"ml.TrainRanker"});
  count("ml.ranker_examples", in.budget.ranker_examples_trained);
  busy("ml.ranker_save_ms", {"ml.SaveRanker"});

  busy("service.store.open_ms", {"service.store.Open", "service.Start", "service.fleet.Start"});
  busy("service.store.learn_ms", {"service.store.LearnFromAnalysis"});
  busy("service.store.snapshot_ms", {"service.store.Snapshot"});
  count("service.store.snapshots", in.store.snapshots);
  count("service.store.wal_records", in.store.wal_records);
  count("service.store.groups", in.store.groups);
  count("service.store.serving", in.store.serving);
  count("service.store.open_breakers", in.store.open_breakers);
  count("service.store.retired", in.store.retired);

  std::vector<double> submit_ms = SpanDurationsMs(spans, "service.Submit");
  value("service.submit_us", "us", Percentile(submit_ms, 0.5).value_or(0.0) * 1e3,
        static_cast<int64_t>(submit_ms.size()));
  count("service.queue_high_water", in.service.queue_high_water);
  value("service.service_time_ewma_ms", "ms", in.service.service_time_ewma_s * 1e3);
  value("service.steered_share", "fraction",
        Ratio(static_cast<double>(in.replies_steered), static_cast<double>(in.replies_ok)),
        in.replies_ok);
  int64_t recs = in.service.rec_snapshot_serves + in.service.rec_locked_serves;
  value("service.lockfree_rec_share", "fraction",
        Ratio(static_cast<double>(in.service.rec_snapshot_serves), static_cast<double>(recs)),
        recs);
  count("service.failed", in.service.failed);
  count("service.shed", in.service.shed_deadline);
  count("service.queue_full", in.service.rejected_queue_full);

  count("service.fleet.tail_ships", in.fleet.tail_ships);
  count("service.fleet.snapshot_ships", in.fleet.snapshot_ships);
  count("service.fleet.frames", in.fleet.transport_frames);
  count("service.fleet.bytes_shipped", in.fleet_bytes_shipped, "bytes");
  value("service.fleet.bytes_per_write", "bytes",
        Ratio(static_cast<double>(in.fleet_bytes_shipped),
              static_cast<double>(in.fleet_acked_writes)),
        in.fleet_acked_writes);
  count("service.fleet.rerouted", in.fleet.rerouted);
  count("service.fleet.sheds", in.fleet.sheds);
  count("service.fleet.ticks", in.fleet_ticks);
  busy("service.fleet.restart_ms", {"service.fleet.Restart"});
  count("service.fleet.snapshot_installs", in.fleet_snapshot_installs);
  busy("service.fleet.catchup_ms", {"service.fleet.CatchUpAll"});
  count("service.fleet.checksum_failures", in.fleet.transport_checksum_failures);
  count("service.fleet.send_failures", in.fleet.transport_send_failures);
  count("service.fleet.unavailable_retries", in.fleet.unavailable_retries);
  return out;
}

}  // namespace perfbench
