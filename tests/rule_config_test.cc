#include "optimizer/rule_config.h"

#include <vector>

#include <gtest/gtest.h>

#include "optimizer/optimizer.h"
#include "optimizer/rule_registry.h"

namespace qsteer {
namespace {

TEST(RuleCategories, LayoutMatchesTable2) {
  // Paper Table 2: 37 required, 46 off-by-default, 141 on-by-default,
  // 32 implementation; 256 total, 219 non-required.
  EXPECT_EQ(kNumRequired + kNumOffByDefault + kNumOnByDefault + kNumImplementation, 256);
  EXPECT_EQ(kNumNonRequired, 219);
  int counts[4] = {0, 0, 0, 0};
  for (RuleId id = 0; id < kNumRules; ++id) {
    counts[static_cast<int>(CategoryOfRule(id))]++;
  }
  EXPECT_EQ(counts[static_cast<int>(RuleCategory::kRequired)], 37);
  EXPECT_EQ(counts[static_cast<int>(RuleCategory::kOffByDefault)], 46);
  EXPECT_EQ(counts[static_cast<int>(RuleCategory::kOnByDefault)], 141);
  EXPECT_EQ(counts[static_cast<int>(RuleCategory::kImplementation)], 32);
}

TEST(RuleConfig, DefaultDisablesExactlyOffByDefault) {
  RuleConfig config = RuleConfig::Default();
  for (RuleId id = 0; id < kNumRules; ++id) {
    bool expected = CategoryOfRule(id) != RuleCategory::kOffByDefault;
    EXPECT_EQ(config.IsEnabled(id), expected) << id;
  }
  EXPECT_EQ(config.EnabledNonRequiredCount(), kNumNonRequired - kNumOffByDefault);
  EXPECT_TRUE(config.DisabledVsDefault().empty());
}

TEST(RuleConfig, RequiredRulesCannotBeDisabled) {
  RuleConfig config = RuleConfig::Default();
  config.Disable(rules::kGetToRange);
  config.Disable(rules::kEnforceExchange);
  EXPECT_TRUE(config.IsEnabled(rules::kGetToRange));
  EXPECT_TRUE(config.IsEnabled(rules::kEnforceExchange));
}

TEST(RuleConfig, HintsEnableAndDisable) {
  RuleConfig config = RuleConfig::WithHints({rules::kCorrelatedJoinOnUnionAll2},
                                            {rules::kHashJoinImpl1, rules::kJoinCommute});
  EXPECT_TRUE(config.IsEnabled(rules::kCorrelatedJoinOnUnionAll2));
  EXPECT_FALSE(config.IsEnabled(rules::kHashJoinImpl1));
  EXPECT_FALSE(config.IsEnabled(rules::kJoinCommute));
  std::vector<RuleId> diff = config.DisabledVsDefault();
  EXPECT_EQ(diff, (std::vector<RuleId>{rules::kJoinCommute, rules::kHashJoinImpl1}));
}

TEST(RuleConfig, EqualityAndHash) {
  RuleConfig a = RuleConfig::Default();
  RuleConfig b = RuleConfig::Default();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Disable(rules::kMergeJoinImpl);
  EXPECT_NE(a, b);
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(RuleRegistry, Has256RulesWithUniqueNames) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::set<std::string> names;
  for (RuleId id = 0; id < kNumRules; ++id) {
    ASSERT_NE(registry.rule(id), nullptr) << id;
    EXPECT_EQ(registry.rule(id)->id(), id);
    EXPECT_FALSE(registry.name(id).empty());
    names.insert(registry.name(id));
  }
  EXPECT_EQ(names.size(), 256u);
}

TEST(RuleRegistry, PaperExampleRulesExist) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  // Rules named in the paper (Tables 2 and 4).
  for (const char* name :
       {"EnforceExchange", "BuildOutput", "GetToRange", "SelectToFilter",
        "CorrelatedJoinOnUnionAll1", "GroupbyOnJoin1", "NormalizeReduce", "CollapseSelects",
        "SelectPartitions", "SequenceProjectOnUnion", "HashJoinImpl1", "JoinToApplyIndex1",
        "UnionAllToVirtualDataset", "SelectOnProject", "GroupbyBelowUnionAll",
        "UnionAllToUnionAll", "TopOnRestrRemap", "SelectOnTrue", "ProcessOnUnionAll",
        "SelectPredNormalized"}) {
    EXPECT_GE(registry.FindByName(name), 0) << name;
  }
  EXPECT_EQ(registry.FindByName("NoSuchRule"), -1);
}

TEST(RuleRegistry, CategoriesOfKnownRules) {
  EXPECT_EQ(CategoryOfRule(rules::kGetToRange), RuleCategory::kRequired);
  EXPECT_EQ(CategoryOfRule(rules::kCorrelatedJoinOnUnionAll1), RuleCategory::kOffByDefault);
  EXPECT_EQ(CategoryOfRule(rules::kCollapseSelects), RuleCategory::kOnByDefault);
  EXPECT_EQ(CategoryOfRule(rules::kHashJoinImpl1), RuleCategory::kImplementation);
}

TEST(RuleRegistry, ImplementationRulesPartitioned) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  size_t implementations = 0;
  size_t transformations = 0;
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    for (const Rule* rule : registry.implementation_rules(kind)) {
      EXPECT_TRUE(rule->is_implementation()) << rule->name();
      ++implementations;
    }
    for (const Rule* rule : registry.transformation_rules(kind)) {
      EXPECT_FALSE(rule->is_implementation()) << rule->name();
      ++transformations;
    }
  }
  EXPECT_GT(implementations, 15u);
  EXPECT_GT(transformations, 100u);
}

// The optimizer offers an expression only the rules listed under its kind
// (ImplementationRulesPartitioned checks which of the two lists), so a rule
// missing from the index, or listed twice, would silently change plans.
TEST(RuleRegistry, DispatchIndexListsEveryProposingRuleOnceUnderItsRootKind) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::vector<int> listed(kNumRules, 0);
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    for (bool implementation : {false, true}) {
      RuleId previous = -1;
      for (const Rule* rule : implementation ? registry.implementation_rules(kind)
                                             : registry.transformation_rules(kind)) {
        EXPECT_TRUE(rule->root_kind() == kind) << rule->name();
        EXPECT_GT(rule->id(), previous) << OpKindName(kind) << " list out of id order";
        previous = rule->id();
        ++listed[static_cast<size_t>(rule->id())];
      }
    }
  }
  int markers = 0;
  for (RuleId id = 0; id < kNumRules; ++id) {
    const Rule* rule = registry.rule(id);
    if (rule->root_kind().has_value()) {
      EXPECT_EQ(listed[static_cast<size_t>(id)], 1) << rule->name();
    } else {
      // Markers are required glue the optimizer applies itself.
      EXPECT_EQ(listed[static_cast<size_t>(id)], 0) << rule->name();
      EXPECT_EQ(rule->category(), RuleCategory::kRequired) << rule->name();
      ++markers;
    }
  }
  EXPECT_EQ(markers, 30);
}

// A compile session keys its explored memo by the configuration's bits
// outside the implementation lists. A rule exploration reads but the key
// dropped would hand one configuration another's exploration.
TEST(RuleRegistry, ExplorationKeyCoversEveryRuleOutsideTheImplementationLists) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  std::vector<bool> implementation(kNumRules, false);
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    for (const Rule* rule : registry.implementation_rules(static_cast<OpKind>(k))) {
      implementation[static_cast<size_t>(rule->id())] = true;
    }
  }
  const RuleConfig all = RuleConfig::AllEnabled();
  const BitVector256 all_key = CompileSession::ExplorationKey(all);
  for (RuleId id = 0; id < kNumRules; ++id) {
    RuleConfig config = all;
    config.Disable(id);
    const bool changed = CompileSession::ExplorationKey(config) != all_key;
    const bool expected = CategoryOfRule(id) != RuleCategory::kRequired &&
                          !implementation[static_cast<size_t>(id)];
    EXPECT_EQ(changed, expected) << id << " " << registry.name(id);
  }
  // Ids 250-255 sit in the implementation id range, but RareShapeRule
  // registers them as transformation rules on kOutputWriter.
  for (RuleId id = 250; id <= 255; ++id) {
    EXPECT_EQ(CategoryOfRule(id), RuleCategory::kImplementation) << id;
    EXPECT_FALSE(registry.rule(id)->is_implementation()) << registry.name(id);
    RuleConfig config = all;
    config.Disable(id);
    EXPECT_NE(CompileSession::ExplorationKey(config), all_key) << registry.name(id);
  }
}

TEST(RuleRegistry, IdsInCategorySizes) {
  const RuleRegistry& registry = RuleRegistry::Instance();
  EXPECT_EQ(registry.IdsInCategory(RuleCategory::kRequired).size(), 37u);
  EXPECT_EQ(registry.IdsInCategory(RuleCategory::kOffByDefault).size(), 46u);
  EXPECT_EQ(registry.IdsInCategory(RuleCategory::kOnByDefault).size(), 141u);
  EXPECT_EQ(registry.IdsInCategory(RuleCategory::kImplementation).size(), 32u);
}

}  // namespace
}  // namespace qsteer
