#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

// Rank (1-based) of the nearest-rank q-th percentile of n samples.
int64_t NearestRank(int64_t n, double q) {
  auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  auto n = static_cast<int64_t>(samples.size());
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  int64_t rank = NearestRank(n, q);
  if (n - rank < kMinBeyond) return std::nullopt;
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

int64_t MinSamplesFor(double q) {
  int64_t n = 1;
  while (n - NearestRank(n, q) < kMinBeyond) ++n;
  return n;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

int Tracer::Begin(const char* name, uint64_t trace_id) {
  if (!enabled_) return -1;
  int id = Record(name, trace_id, current(), NowNs(), 0);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Record(const char* name, uint64_t trace_id, int parent, int64_t start_ns,
                   int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, trace_id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Tracer::Span& span : spans) {
    if (span.parent < 0) continue;
    const Tracer::Span& parent = spans[static_cast<size_t>(span.parent)];
    int64_t start = std::max(span.start_ns, parent.start_ns);
    int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) children[static_cast<size_t>(span.parent)].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::vector<SpanRow> SummarizeSpans(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<SpanRow> rows;
  std::vector<std::vector<double>> durations;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t row = 0;
    while (row < rows.size() && rows[row].name != spans[i].name) ++row;
    if (row == rows.size()) {
      rows.emplace_back();
      rows.back().name = spans[i].name;
      durations.emplace_back();
    }
    double ms = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    rows[row].calls += 1;
    rows[row].busy_ms += ms;
    rows[row].self_ms += static_cast<double>(self[i]) / 1e6;
    durations[row].push_back(ms);
  }
  for (size_t row = 0; row < rows.size(); ++row) {
    rows[row].p50_ms = Percentile(durations[row], 0.50);
    rows[row].p95_ms = Percentile(durations[row], 0.95);
  }
  return rows;
}

std::vector<double> SpanDurationsMs(const std::vector<Tracer::Span>& spans,
                                    std::string_view prefix) {
  std::vector<double> out;
  for (const Tracer::Span& span : spans) {
    if (std::string_view(span.name).starts_with(prefix)) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

double ProbeMachineMs() {
  constexpr size_t kWords = (32u << 20) / sizeof(uint64_t);
  constexpr int kSteps = 1 << 23;
  std::vector<uint64_t> table(kWords);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  int64_t start = NowNs();
  for (size_t i = 0; i < kWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] = x;
  }
  uint64_t at = 0, sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    at = (table[at % kWords] ^ (at * 0xbf58476d1ce4e5b9ULL)) >> 3;
    sum += at;
  }
  int64_t end = NowNs();
  // Keeps the loop observable so it cannot be folded away.
  if (sum == 42) std::fprintf(stderr, "probe checksum %llu\n", static_cast<unsigned long long>(sum));
  return static_cast<double>(end - start) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
