// Job span (paper Definition 5.1 + Algorithm 1): the set of non-required
// rules that can affect a job's final plan, approximated by iteratively
// disabling every rule observed in the signature and recompiling to surface
// the alternatives.
#ifndef QSTEER_CORE_SPAN_H_
#define QSTEER_CORE_SPAN_H_

#include <functional>

#include "optimizer/optimizer.h"

namespace qsteer {

/// Compiles the span loop's job under one configuration.
using SpanCompileFn = std::function<Result<CompiledPlan>(const RuleConfig& config)>;

struct SpanResult {
  /// Non-required rules that can impact the final plan.
  BitVector256 span;
  /// Iterations of the disable-recompile loop.
  int iterations = 0;
  /// Whether the loop ended because a configuration stopped compiling
  /// (implicit rule dependencies, §4 challenge 1).
  bool ended_on_compile_failure = false;
  /// Span size per rule category (required excluded by definition).
  int off_by_default = 0;
  int on_by_default = 0;
  int implementation = 0;
};

/// Approximates the job span per Algorithm 1. Starts from the configuration
/// enabling all 219 non-required rules ("config <- all rule ids w/o required
/// rules"), repeatedly removes the signature's on-rules, and recompiles
/// until no new rules appear or compilation fails.
///
/// Each probe compiles through `compile`, or through
/// `optimizer.Compile(job, config)` when it is null. The pipeline passes its
/// own compile path, so probes share the job's compile-cache entries (keyed
/// by the full configuration bits, always sound), its compile session's
/// explored memo, and the pipeline's timeout, retries and failure counters.
SpanResult ComputeJobSpan(const Optimizer& optimizer, const Job& job,
                          const SpanCompileFn& compile = nullptr);

}  // namespace qsteer

#endif  // QSTEER_CORE_SPAN_H_
