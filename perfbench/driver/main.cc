// perfbench_driver: runs one workload of the end-to-end benchmark in this
// process and prints its result as one JSON line. run.py builds and calls
// it; see README.md.
//
//   perfbench_driver run <nightly_B|serve_fresh_A|fleet_mixed_B>
//       --seed=N --seconds=S --state-dir=DIR [--trace]
//   perfbench_driver probe        # machine-speed probe, prints ms
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::Metric;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver run <nightly_B|serve_fresh_A|fleet_mixed_B> --seed=N "
               "--seconds=S --state-dir=DIR [--trace]\n"
               "       perfbench_driver probe\n");
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Appends `"key":value` (with a leading comma unless first) to a JSON
/// object or array under construction.
void Field(std::string* out, const char* key, const std::string& value) {
  if (out->back() != '{' && out->back() != '[') *out += ',';
  if (key != nullptr) {
    *out += JsonString(key);
    *out += ':';
  }
  *out += value;
}

std::string Optional(const std::optional<double>& value) {
  return value ? JsonNumber(*value) : "null";
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool* names_ok) {
  std::string out = "[";
  for (const Metric& m : metrics) {
    if (!perfbench::ValidMetricName(m.name)) *names_ok = false;
    std::string item = "{";
    Field(&item, "name", JsonString(m.name));
    Field(&item, "unit", JsonString(m.unit));
    Field(&item, "value", JsonNumber(m.value));
    Field(&item, "samples", std::to_string(m.samples));
    Field(&out, nullptr, item + "}");
  }
  return out + "]";
}

std::string ResultJson(const std::string& workload, const perfbench::RunOptions& options,
                       const perfbench::RunResult& result, bool* correct) {
  bool names_ok = true;
  std::string e2e = MetricsJson(result.e2e, &names_ok);
  std::string layers = MetricsJson(result.layers, &names_ok);
  *correct = names_ok;
  std::string checks = "[";
  for (const perfbench::Check& check : result.checks) {
    *correct = *correct && check.ok;
    std::string item = "{";
    Field(&item, "name", JsonString(check.name));
    Field(&item, "ok", check.ok ? "true" : "false");
    Field(&item, "detail", JsonString(check.detail));
    Field(&checks, nullptr, item + "}");
  }
  checks += "]";
  std::string spans = "[";
  for (const perfbench::SpanRow& row : result.spans) {
    std::string item = "{";
    Field(&item, "name", JsonString(row.name));
    Field(&item, "calls", std::to_string(row.calls));
    Field(&item, "busy_ms", JsonNumber(row.busy_ms));
    Field(&item, "self_ms", JsonNumber(row.self_ms));
    Field(&item, "p50_ms", Optional(row.p50_ms));
    Field(&item, "p95_ms", Optional(row.p95_ms));
    Field(&spans, nullptr, item + "}");
  }
  spans += "]";
  std::string out = "{";
  Field(&out, "workload", JsonString(workload));
  Field(&out, "seed", std::to_string(options.seed));
  Field(&out, "trace", options.trace ? "true" : "false");
  Field(&out, "correct", *correct ? "true" : "false");
  Field(&out, "attempted", std::to_string(result.ops.attempted));
  Field(&out, "failed", std::to_string(result.ops.failed));
  Field(&out, "e2e", e2e);
  Field(&out, "layers", layers);
  Field(&out, "checks", checks);
  Field(&out, "spans", spans);
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "probe") == 0) {
    std::printf("%s\n", JsonNumber(perfbench::ProbeMachineMs()).c_str());
    return 0;
  }
  if (argc < 3 || std::strcmp(argv[1], "run") != 0) return Usage();
  std::string workload = argv[2];
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false;
  for (int i = 3; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0.0;
    } else if (ParseFlag(argv[i], "--state-dir", &value)) {
      options.state_dir = value;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = true;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown argument '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || options.state_dir.empty()) {
    return Usage();
  }

  perfbench::RunResult result;
  if (workload == "nightly_B") {
    result = perfbench::RunNightlyB(options);
  } else if (workload == "serve_fresh_A") {
    result = perfbench::RunServeFreshA(options);
  } else if (workload == "fleet_mixed_B") {
    result = perfbench::RunFleetMixedB(options);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", workload.c_str());
    return Usage();
  }
  bool correct = false;
  std::printf("%s\n", ResultJson(workload, options, result, &correct).c_str());
  return correct ? 0 : 1;
}
