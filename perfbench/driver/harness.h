// Measurement primitives of the end-to-end benchmark: percentiles under the
// "ten samples beyond" rule, failure accounting, an in-memory span recorder
// with self-time attribution, metric-name validation, the machine-speed
// probe and peak RSS. Independent of qsteer, so the unit tests link only
// this file.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile at q in (0, 1]: the sample at 1-based rank
/// ceil(q * n) of the sorted samples. Returns nullopt when fewer than
/// kMinBeyond samples rank above it; the rule holds for the median too.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Smallest sample count for which Percentile(samples, q) has a value.
int64_t MinSamplesFor(double q);

/// Operations attempted and failed. A refused operation (queue full,
/// shed, service not running) is attempted and failed: it missed every
/// latency limit.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Ok() { ++attempted; }
  void Fail() {
    ++attempted;
    ++failed;
  }
  double ErrorRate() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  }
};

/// One reported number. `samples` is how many observations it summarizes
/// (timings, replies, compiles); 0 for a counter read from an accessor.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;
};

/// Metric names are 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool ValidMetricName(std::string_view name);

/// Spans kept in memory for one process: name, start, end, parent span and
/// the trace id shared by every span of one job, request or op. Disabled
/// tracers record nothing and never read the clock. Single-threaded: every
/// span is opened on the thread that drives the workload.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    uint64_t trace_id = 0;
    int parent = -1;  // index into spans(); -1 for a root span
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open Begin() span. Returns its
  /// id, or -1 when disabled.
  int Begin(const char* name, uint64_t trace_id);
  /// Closes the innermost open Begin() span, which must be `id`.
  void End(int id);

  /// Records a span whose lifetime is not a scope (a request from Submit
  /// to its reply), with an explicit parent. Returns its id, or -1 when
  /// disabled.
  int Record(const char* name, uint64_t trace_id, int parent, int64_t start_ns, int64_t end_ns);

  /// Parent for spans nested in whatever is open now (-1 at top level).
  int current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t trace_id = 0)
      : tracer_(tracer), id_(tracer.Begin(name, trace_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent, so
/// overlapping or overhanging children are counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Tracer::Span>& spans);

/// Per-name aggregate of the span table.
struct SpanRow {
  std::string name;
  int64_t calls = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  std::optional<double> p50_ms;
  std::optional<double> p95_ms;
};
/// One row per distinct span name, in order of first appearance.
std::vector<SpanRow> SummarizeSpans(const std::vector<Tracer::Span>& spans);

/// Durations (ms) of every span whose name starts with `prefix`.
std::vector<double> SpanDurationsMs(const std::vector<Tracer::Span>& spans,
                                    std::string_view prefix);

/// Wall time of a fixed integer-hash and random-memory-access loop (a
/// 32 MiB table); a diagnostic of machine speed printed beside each
/// workload's metrics.
double ProbeMachineMs();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// JSON text helpers: numbers keep every digit (%.17g); non-finite
/// numbers become null.
std::string JsonNumber(double value);
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
