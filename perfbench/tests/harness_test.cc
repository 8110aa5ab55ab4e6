// Unit tests of the benchmark's own measurement code: percentile selection
// and the "ten samples beyond" rule, failure accounting, span self time,
// metric names, and the per-layer metric list against BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> samples(static_cast<size_t>(n));
  std::iota(samples.begin(), samples.end(), 1.0);
  // Order must not matter.
  std::reverse(samples.begin(), samples.end());
  std::rotate(samples.begin(), samples.begin() + n / 3, samples.end());
  return samples;
}

TEST(PercentileTest, NearestRankOnSortedPosition) {
  EXPECT_EQ(Percentile(OneTo(100), 0.50), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.90), 90.0);
  EXPECT_EQ(Percentile(OneTo(200), 0.95), 190.0);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  // ceil(0.5 * 21) = 11.
  EXPECT_EQ(Percentile(OneTo(21), 0.50), 11.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  // p95 of 199 samples is rank 190 with only 9 beyond it.
  EXPECT_FALSE(Percentile(OneTo(199), 0.95).has_value());
  EXPECT_TRUE(Percentile(OneTo(200), 0.95).has_value());
  EXPECT_FALSE(Percentile(OneTo(99), 0.90).has_value());
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  // The rule holds for the median as well.
  EXPECT_FALSE(Percentile(OneTo(19), 0.50).has_value());
  EXPECT_TRUE(Percentile(OneTo(20), 0.50).has_value());
}

TEST(PercentileTest, MinSamplesMatchesTheRule) {
  EXPECT_EQ(MinSamplesFor(0.50), 20);
  EXPECT_EQ(MinSamplesFor(0.90), 100);
  EXPECT_EQ(MinSamplesFor(0.95), 200);
  EXPECT_EQ(MinSamplesFor(0.99), 1000);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    int64_t n = MinSamplesFor(q);
    EXPECT_TRUE(Percentile(OneTo(static_cast<int>(n)), q).has_value()) << q;
    EXPECT_FALSE(Percentile(OneTo(static_cast<int>(n - 1)), q).has_value()) << q;
  }
}

TEST(PercentileTest, RejectsEmptyAndOutOfRange) {
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 0.0).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 1.5).has_value());
}

TEST(OpCountTest, RefusedOperationsCountAsFailed) {
  OpCount ops;
  EXPECT_EQ(ops.ErrorRate(), 0.0);
  ops.Ok();
  ops.Ok();
  ops.Ok();
  ops.Fail();  // e.g. a request refused at admission
  EXPECT_EQ(ops.attempted, 4);
  EXPECT_EQ(ops.failed, 1);
  EXPECT_DOUBLE_EQ(ops.ErrorRate(), 0.25);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  std::vector<Tracer::Span> spans = {
      {"parent", 1, -1, 0, 100},
      {"a", 1, 0, 10, 30},
      {"b", 1, 0, 20, 50},  // overlaps a: the union covers 10..50
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTimeTest, NestingAttributesToTheDirectParent) {
  std::vector<Tracer::Span> spans = {
      {"root", 1, -1, 0, 100},
      {"child", 1, 0, 10, 60},
      {"grandchild", 1, 1, 20, 40},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);  // only the child covers root time
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  std::vector<Tracer::Span> spans = {
      {"request", 7, -1, 100, 200},
      {"late", 7, 0, 180, 260},    // overhangs the parent's end by 60
      {"before", 7, 0, 20, 90},    // entirely outside
      {"inside", 7, 0, 120, 130},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
}

TEST(TracerTest, BeginEndNestsAndDisabledRecordsNothing) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 3);
    { ScopedSpan inner(tracer, "inner", 3); }
    { ScopedSpan inner(tracer, "inner", 3); }
  }
  int request = tracer.Record("request", 4, -1, 10, 20);
  tracer.Record("submit", 4, request, 10, 12);
  ASSERT_EQ(tracer.spans().size(), 5u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  EXPECT_EQ(tracer.spans()[4].parent, 3);
  EXPECT_EQ(tracer.current(), -1);
  for (const Tracer::Span& span : tracer.spans()) EXPECT_GE(span.end_ns, span.start_ns);

  std::vector<SpanRow> rows = SummarizeSpans(tracer.spans());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1].name, "inner");
  EXPECT_EQ(rows[1].calls, 2);
  EXPECT_FALSE(rows[1].p50_ms.has_value());  // two samples are too few
  EXPECT_DOUBLE_EQ(rows[2].busy_ms, 10e-6);
  EXPECT_DOUBLE_EQ(rows[2].self_ms, 8e-6);

  Tracer off(false);
  { ScopedSpan span(off, "outer", 1); }
  EXPECT_EQ(off.Record("request", 1, -1, 0, 1), -1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(MetricNameTest, Charset) {
  for (const char* good : {"p50_ms", "setup_s", "service.fleet.bytes_per_write", "a-b", "9x",
                           "X.y_z-1"}) {
    EXPECT_TRUE(ValidMetricName(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "a/b", "a b", "p50%", "caf\xc3\xa9",
                          "quote\"d"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(JsonTest, NumbersKeepEveryDigitAndNonFiniteIsNull) {
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

// The per-layer metrics every workload prints are exactly BENCHMARK.json's
// per_layer list, in order, with valid and unique names. per_layer is the
// file's last list, so every "name" after its key belongs to it.
TEST(LayerMetricsTest, MatchBenchmarkSpec) {
  std::vector<Metric> metrics = LayerMetrics(LayerInputs{}, Tracer(false));
  std::set<std::string> unique;
  for (const Metric& m : metrics) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_TRUE(unique.insert(m.name).second) << m.name;
  }

  std::ifstream file(PERFBENCH_SPEC);
  ASSERT_TRUE(file) << PERFBENCH_SPEC;
  std::stringstream text;
  text << file.rdbuf();
  std::string spec = text.str();
  std::vector<std::pair<std::string, std::string>> declared;  // name, unit
  const std::string key = "\"name\": \"";
  for (size_t at = spec.find(key, spec.find("\"per_layer\"")); at != std::string::npos;
       at = spec.find(key, at + 1)) {
    size_t begin = at + key.size();
    std::string name = spec.substr(begin, spec.find('"', begin) - begin);
    size_t unit_at = spec.find("\"unit\": \"", begin) + 9;
    declared.emplace_back(name, spec.substr(unit_at, spec.find('"', unit_at) - unit_at));
  }
  ASSERT_EQ(declared.size(), metrics.size());
  for (size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(declared[i].first, metrics[i].name);
    EXPECT_EQ(declared[i].second, metrics[i].unit) << metrics[i].name;
  }
}

}  // namespace
}  // namespace perfbench
