// The full registry of the optimizer's 256 rules (paper Table 2):
//   37 Required, 46 Off-by-default, 141 On-by-default, 32 Implementation.
//
// Three kinds of entries:
//  * real transformation/implementation rules (Rule subclasses from
//    rules.h) that participate in exploration and implementation;
//  * enforcer/marker rules: correctness glue the optimizer applies itself
//    (exchanges, sorts, parallelism assignment, schema validation); they
//    cannot be disabled and are attributed in rule signatures when the
//    plan feature they govern appears;
//  * rare-feature rules whose match patterns this workload never produces —
//    the honest source of Table 2's "unused rules".
#ifndef QSTEER_OPTIMIZER_RULE_REGISTRY_H_
#define QSTEER_OPTIMIZER_RULE_REGISTRY_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/rules.h"

namespace qsteer {

/// Well-known rule ids referenced by the optimizer driver.
namespace rules {
// Required implementation / enforcer rules.
constexpr RuleId kBuildOutput = 0;
constexpr RuleId kGetToRange = 1;
constexpr RuleId kSelectToFilter = 2;
constexpr RuleId kProjectToCompute = 3;
constexpr RuleId kProcessToVertex = 4;
constexpr RuleId kEnforceExchange = 5;
constexpr RuleId kEnforceSort = 6;
constexpr RuleId kEnforceGather = 7;
constexpr RuleId kEnforceBroadcast = 8;
// Required markers attributed from final-plan features.
constexpr RuleId kAssignParallelism = 9;
constexpr RuleId kInitialPartitioning = 10;
constexpr RuleId kSerializeOutput = 11;
constexpr RuleId kNormalizePredicates = 12;
constexpr RuleId kResolveUdoSchema = 13;
constexpr RuleId kWindowToSegment = 14;
constexpr RuleId kSampleToScan = 15;
constexpr RuleId kValidateUnionSchema = 16;
constexpr RuleId kEnforceRowLimit = 17;
constexpr RuleId kAggOutputNormalize = 19;
constexpr RuleId kJoinKeyTypeCheck = 20;
constexpr RuleId kUnionBranchValidate = 21;
constexpr RuleId kIndexGetToSeek = 23;
constexpr RuleId kStreamSetVersionCheck = 28;
constexpr RuleId kDefaultColumnResolver = 29;
constexpr RuleId kPartitionSpecValidate = 30;
constexpr RuleId kTokenBudgetGuard = 32;
// Frequently-referenced non-required rules.
constexpr RuleId kCorrelatedJoinOnUnionAll1 = 37;
constexpr RuleId kCorrelatedJoinOnUnionAll2 = 38;
constexpr RuleId kGroupbyOnJoin1 = 43;
constexpr RuleId kGroupbyOnJoin2 = 44;
constexpr RuleId kCollapseSelects = 83;
constexpr RuleId kSelectOnTrue = 85;
constexpr RuleId kSelectPredNormalized = 87;
constexpr RuleId kSelectOnProject = 88;
constexpr RuleId kJoinCommute = 104;
constexpr RuleId kGroupbyBelowUnionAll = 108;
constexpr RuleId kProcessOnUnionAll = 110;
constexpr RuleId kTopOnRestrRemap = 113;
constexpr RuleId kHashJoinImpl1 = 224;
constexpr RuleId kHashJoinImpl2 = 225;
constexpr RuleId kBroadcastJoinImpl1 = 226;
constexpr RuleId kMergeJoinImpl = 228;
constexpr RuleId kLoopJoinImpl = 229;
constexpr RuleId kHashAggImpl = 236;
constexpr RuleId kStreamAggImpl = 237;
constexpr RuleId kPreHashAggImpl = 238;
constexpr RuleId kUnionAllToUnionAll = 240;
constexpr RuleId kUnionAllToVirtualDataset = 241;
}  // namespace rules

/// Number of OpKind values (kOutputWriter is the last).
constexpr size_t kNumOpKinds = static_cast<size_t>(OpKind::kOutputWriter) + 1;

class RuleRegistry {
 public:
  /// The singleton registry (construction is deterministic and immutable).
  static const RuleRegistry& Instance();

  RuleRegistry(const RuleRegistry&) = delete;
  RuleRegistry& operator=(const RuleRegistry&) = delete;

  /// Rule object for an id (a marker id holds a rule that never proposes).
  const Rule* rule(RuleId id) const { return rules_[static_cast<size_t>(id)].get(); }

  const std::string& name(RuleId id) const { return names_[static_cast<size_t>(id)]; }

  /// RuleId for a name; -1 if unknown.
  RuleId FindByName(const std::string& name) const;

  /// Dispatch index: the transformation (logical -> logical) rules whose
  /// root_kind() is `kind`, ascending id. Every other rule's Apply returns at
  /// once on an expression of this kind, so calling only these — in this
  /// order — proposes exactly what calling every rule would.
  const std::vector<const Rule*>& transformation_rules(OpKind kind) const {
    return transformations_[static_cast<size_t>(kind)];
  }
  /// As above for implementation (logical -> physical) rules.
  const std::vector<const Rule*>& implementation_rules(OpKind kind) const {
    return implementations_[static_cast<size_t>(kind)];
  }

  /// Every rule that no implementation_rules list holds. Input
  /// normalization and exploration consult no other bit of a configuration,
  /// so two configurations equal on these bits explore the same memo. Ids
  /// 250-255 lie in the implementation id range but are transformation
  /// rules, and so are in this set.
  const BitVector256& exploration_rules() const { return exploration_rules_; }

  /// All ids in a category.
  std::vector<RuleId> IdsInCategory(RuleCategory category) const;

 private:
  RuleRegistry();

  std::vector<std::unique_ptr<Rule>> rules_;
  std::vector<std::string> names_;
  /// Indexed by OpKind; marker rules are in no list.
  std::array<std::vector<const Rule*>, kNumOpKinds> transformations_;
  std::array<std::vector<const Rule*>, kNumOpKinds> implementations_;
  BitVector256 exploration_rules_;
};

/// Marker attribution: required-rule bits implied by features of the final
/// physical plan (see registry docs above). Sets bits in `signature`.
void AttributeMarkerRules(const PlanNodePtr& physical_root, RuleSignature* signature);

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_RULE_REGISTRY_H_
