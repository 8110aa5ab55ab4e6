#include "core/span.h"

namespace qsteer {

namespace {

/// Safety cap on disable-recompile iterations.
constexpr int kMaxIterations = 24;

}  // namespace

SpanResult ComputeJobSpan(const Optimizer& optimizer, const Job& job,
                          const SpanCompileFn& compile) {
  SpanResult result;
  RuleConfig config = RuleConfig::AllEnabled();

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    Result<CompiledPlan> plan = compile ? compile(config) : optimizer.Compile(job, config);
    if (!plan.ok()) {
      result.ended_on_compile_failure = true;
      break;
    }
    ++result.iterations;
    // on-rules of this signature, restricted to non-required rules (required
    // rules cannot be disabled, so they are not part of the span).
    BitVector256 on_rules;
    for (int id : plan.value().signature.ToIndices()) {
      if (CategoryOfRule(id) != RuleCategory::kRequired) on_rules.Set(id);
    }
    BitVector256 fresh = on_rules.AndNot(result.span);
    if (fresh.None()) break;
    result.span = result.span.Or(fresh);
    for (int id : fresh.ToIndices()) config.Disable(id);
  }

  for (int id : result.span.ToIndices()) {
    switch (CategoryOfRule(id)) {
      case RuleCategory::kOffByDefault:
        ++result.off_by_default;
        break;
      case RuleCategory::kOnByDefault:
        ++result.on_by_default;
        break;
      case RuleCategory::kImplementation:
        ++result.implementation;
        break;
      case RuleCategory::kRequired:
        break;
    }
  }
  return result;
}

}  // namespace qsteer
