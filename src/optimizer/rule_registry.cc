#include "optimizer/rule_registry.h"

#include <cstdio>
#include <cstdlib>
#include <map>

namespace qsteer {

namespace {

/// A rule that exists in the catalog but is pure glue or targets a feature
/// this algebra cannot express; it never proposes alternatives. Required
/// markers among these are attributed via AttributeMarkerRules.
class MarkerRule : public Rule {
 public:
  MarkerRule(RuleId id, std::string name) : Rule(id, std::move(name), std::nullopt) {}
  void Apply(const RuleContext&, const GroupExpr&, std::vector<OpTree>*) const override {}
};

}  // namespace

const RuleRegistry& RuleRegistry::Instance() {
  static const RuleRegistry* registry = new RuleRegistry();
  return *registry;
}

RuleId RuleRegistry::FindByName(const std::string& name) const {
  for (RuleId id = 0; id < kNumRules; ++id) {
    if (names_[static_cast<size_t>(id)] == name) return id;
  }
  return -1;
}

std::vector<RuleId> RuleRegistry::IdsInCategory(RuleCategory category) const {
  std::vector<RuleId> out;
  for (RuleId id = 0; id < kNumRules; ++id) {
    if (CategoryOfRule(id) == category) out.push_back(id);
  }
  return out;
}

RuleRegistry::RuleRegistry() {
  rules_.resize(kNumRules);
  names_.resize(kNumRules);
  int next_auto = 0;  // detects gaps at construction time

  auto add = [&](RuleId id, std::unique_ptr<Rule> rule) {
    if (id != next_auto) {
      std::fprintf(stderr, "rule registry: id %d out of order (expected %d)\n", id, next_auto);
      std::abort();
    }
    next_auto = id + 1;
    names_[static_cast<size_t>(id)] = rule->name();
    rules_[static_cast<size_t>(id)] = std::move(rule);
  };
  auto marker = [&](RuleId id, const char* name) {
    add(id, std::make_unique<MarkerRule>(id, name));
  };
  auto rare = [&](RuleId id, const char* name, OpKind kind) {
    add(id, std::make_unique<RareShapeRule>(id, name, kind));
  };

  // =========================================================================
  // Required rules [0, 37): correctness glue, cannot be disabled.
  // =========================================================================
  add(0, std::make_unique<SimpleImplRule>(0, "BuildOutput", OpKind::kOutput,
                                          OpKind::kOutputWriter));
  add(1, std::make_unique<SimpleImplRule>(1, "GetToRange", OpKind::kGet, OpKind::kRangeScan));
  add(2, std::make_unique<SimpleImplRule>(2, "SelectToFilter", OpKind::kSelect,
                                          OpKind::kFilter));
  add(3, std::make_unique<SimpleImplRule>(3, "ProjectToCompute", OpKind::kProject,
                                          OpKind::kCompute));
  add(4, std::make_unique<SimpleImplRule>(4, "ProcessToVertex", OpKind::kProcess,
                                          OpKind::kProcessVertex));
  marker(5, "EnforceExchange");
  marker(6, "EnforceSort");
  marker(7, "EnforceGather");
  marker(8, "EnforceBroadcast");
  marker(9, "AssignParallelism");
  marker(10, "InitialPartitioning");
  marker(11, "SerializeOutput");
  marker(12, "NormalizePredicates");
  marker(13, "ResolveUdoSchema");
  add(14, std::make_unique<SimpleImplRule>(14, "WindowToSegment", OpKind::kWindow,
                                           OpKind::kWindowSegment));
  add(15, std::make_unique<SimpleImplRule>(15, "SampleToScan", OpKind::kSample,
                                           OpKind::kSampleScan));
  marker(16, "ValidateUnionSchema");
  marker(17, "EnforceRowLimit");
  marker(18, "CubeToCompute");
  marker(19, "AggOutputNormalize");
  marker(20, "JoinKeyTypeCheck");
  marker(21, "UnionBranchValidate");
  marker(22, "SpoolInsert");
  marker(23, "IndexGetToSeek");
  marker(24, "CrossApplyNormalize");
  marker(25, "RecursiveCteGuard");
  marker(26, "OuterUnionNormalize");
  marker(27, "ScriptCombinerGlue");
  marker(28, "StreamSetVersionCheck");
  marker(29, "DefaultColumnResolver");
  marker(30, "PartitionSpecValidate");
  marker(31, "CheckpointInsert");
  marker(32, "TokenBudgetGuard");
  marker(33, "LineageAnnotate");
  marker(34, "DeterminismGuard");
  marker(35, "LegacyDecimalRewrite");
  marker(36, "UnicodeNormalizeGuard");

  // =========================================================================
  // Off-by-default rules [37, 83): experimental / estimate-sensitive.
  // =========================================================================
  add(37, std::make_unique<PushJoinBelowUnionRule>(37, "CorrelatedJoinOnUnionAll1", 0,
                                                   JoinType::kInner));
  add(38, std::make_unique<PushJoinBelowUnionRule>(38, "CorrelatedJoinOnUnionAll2", 1,
                                                   JoinType::kInner));
  add(39, std::make_unique<PushJoinBelowUnionRule>(39, "CorrelatedJoinOnUnionAll3", 0,
                                                   JoinType::kInner, /*max_branches=*/4));
  add(40, std::make_unique<PushJoinBelowUnionRule>(40, "CorrelatedJoinOnUnionAll4", 0,
                                                   JoinType::kLeftSemi));
  add(41, std::make_unique<PushJoinBelowUnionRule>(41, "CorrelatedJoinOnUnionAll5", 0,
                                                   JoinType::kLeftOuter));
  add(42, std::make_unique<PushJoinBelowUnionRule>(42, "CorrelatedJoinOnUnionAll6", 1,
                                                   JoinType::kInner, /*max_branches=*/4));
  add(43, std::make_unique<PushGroupByBelowJoinRule>(43, "GroupbyOnJoin1", 0));
  add(44, std::make_unique<PushGroupByBelowJoinRule>(44, "GroupbyOnJoin2", 1));
  add(45, std::make_unique<UnsafeSelectBelowProcessRule>(45, "SelectBelowUdo"));
  add(46, std::make_unique<PredicateInferenceRule>(46, "TransitivePredicateExperimental"));
  // Experimental rules for features/shapes this workload never produces.
  rare(47, "CrossJoinToUnion", OpKind::kWindow);
  rare(48, "NestedAggDecompose", OpKind::kWindow);
  rare(49, "RecursiveUnionUnroll", OpKind::kWindow);
  rare(50, "PivotOnJoin", OpKind::kWindow);
  rare(51, "MapJoinExperimental", OpKind::kWindow);
  rare(52, "AdaptiveBloomFilter", OpKind::kWindow);
  rare(53, "DynamicPartitionElim2", OpKind::kWindow);
  rare(54, "SkewHintJoin", OpKind::kWindow);
  rare(55, "RangeJoinRewrite", OpKind::kWindow);
  rare(56, "IntervalJoinRewrite", OpKind::kWindow);
  rare(57, "TemporalUnionMerge", OpKind::kWindow);
  rare(58, "ApproxDistinctRewrite", OpKind::kSample);
  rare(59, "SketchAggRewrite", OpKind::kSample);
  rare(60, "StratifiedSampleRewrite", OpKind::kSample);
  rare(61, "BernoulliToSystemSample", OpKind::kSample);
  rare(62, "SampleBelowJoin", OpKind::kSample);
  rare(63, "SampleBelowUnion", OpKind::kSample);
  rare(64, "WindowSplitExperimental", OpKind::kWindow);
  rare(65, "WindowMergeExperimental", OpKind::kWindow);
  rare(66, "WindowBelowJoin", OpKind::kWindow);
  rare(67, "CorrelatedApplyDecorrelate", OpKind::kWindow);
  rare(68, "SubqueryToSemiJoin2", OpKind::kWindow);
  rare(69, "AntiJoinReorder", OpKind::kWindow);
  rare(70, "OuterJoinSimplify2", OpKind::kWindow);
  rare(71, "StarJoinCollapse", OpKind::kWindow);
  rare(72, "SnowflakeFlatten", OpKind::kWindow);
  rare(73, "FactDimSwap", OpKind::kWindow);
  rare(74, "GroupingSetsExpand", OpKind::kWindow);
  rare(75, "RollupDecompose", OpKind::kWindow);
  rare(76, "CubeToUnionAll", OpKind::kWindow);
  rare(77, "MultiAggFusion", OpKind::kSample);
  rare(78, "CommonPlanDedup", OpKind::kSample);
  rare(79, "ViewMaterializeHint", OpKind::kSample);
  rare(80, "ResultCacheRewrite", OpKind::kSample);
  rare(81, "ShuffleElimExperimental", OpKind::kSample);
  rare(82, "ColocatedJoinExperimental", OpKind::kSample);

  // =========================================================================
  // On-by-default rules [83, 224): the stock rewrite catalog.
  // =========================================================================
  add(83, std::make_unique<CollapseSelectsRule>(83, "CollapseSelects", IntWindow{2, 2}));
  add(84, std::make_unique<CollapseSelectsRule>(84, "CollapseSelects2", IntWindow{3, 1 << 30}));
  add(85, std::make_unique<SelectOnTrueRule>(85, "SelectOnTrue"));
  add(86, std::make_unique<SelectSplitConjunctionRule>(86, "SelectSplitConjunction",
                                                       IntWindow{2, 3}));
  add(87, std::make_unique<SelectPredNormalizeRule>(87, "SelectPredNormalized"));
  add(88, std::make_unique<PushSelectBelowUnaryRule>(88, "SelectOnProject", OpKind::kProject,
                                                     IntWindow{1, 1}));
  add(89, std::make_unique<PushSelectBelowUnaryRule>(89, "SelectOnProject2", OpKind::kProject,
                                                     IntWindow{2, 1 << 30}));
  add(90, std::make_unique<PushSelectBelowUnaryRule>(90, "SelectOnGroupBy", OpKind::kGroupBy,
                                                     IntWindow{1, 1}));
  add(91, std::make_unique<PushSelectBelowUnaryRule>(91, "SelectOnGroupBy2", OpKind::kGroupBy,
                                                     IntWindow{2, 1 << 30}));
  add(92, std::make_unique<PushSelectBelowUnaryRule>(92, "SelectOnWindow", OpKind::kWindow));
  add(93, std::make_unique<PushSelectBelowUnaryRule>(93, "SelectOnSample", OpKind::kSample));
  add(94, std::make_unique<PushSelectBelowJoinRule>(94, "SelectOnJoinLeft", 0,
                                                    IntWindow{1, 1}));
  add(95, std::make_unique<PushSelectBelowJoinRule>(95, "SelectOnJoinLeft2", 0,
                                                    IntWindow{2, 1 << 30}));
  add(96, std::make_unique<PushSelectBelowJoinRule>(96, "SelectOnJoinRight", 1,
                                                    IntWindow{1, 1}));
  add(97, std::make_unique<PushSelectBelowJoinRule>(97, "SelectOnJoinRight2", 1,
                                                    IntWindow{2, 1 << 30}));
  add(98, std::make_unique<PushSelectBelowJoinRule>(98, "SelectOnJoinBoth", 2,
                                                    IntWindow{2, 1 << 30}));
  add(99, std::make_unique<PushSelectBelowUnionRule>(99, "SelectOnUnionAll", IntWindow{2, 5}));
  add(100, std::make_unique<PushSelectBelowUnionRule>(100, "SelectOnUnionAll2",
                                                      IntWindow{6, 1 << 30}));
  add(101, std::make_unique<MergeSelectIntoJoinRule>(101, "SelectIntoJoin", IntWindow{1, 1}));
  add(102, std::make_unique<MergeSelectIntoJoinRule>(102, "SelectIntoJoin2",
                                                     IntWindow{2, 1 << 30}));
  add(103, std::make_unique<SelectPartitionsRule>(103, "SelectPartitions"));
  add(104, std::make_unique<JoinCommuteRule>(104, "JoinCommute", IntWindow{1, 1}));
  add(105, std::make_unique<JoinCommuteRule>(105, "JoinCommute2", IntWindow{2, 1 << 30}));
  add(106, std::make_unique<JoinAssocRule>(106, "JoinAssocLeft", 0, IntWindow{1, 1}));
  add(107, std::make_unique<JoinAssocRule>(107, "JoinAssocLeft2", 0, IntWindow{2, 1 << 30}));
  add(108, std::make_unique<PushGroupByBelowUnionRule>(108, "GroupbyBelowUnionAll",
                                                       IntWindow{2, 5}));
  add(109, std::make_unique<PushGroupByBelowUnionRule>(109, "GroupbyBelowUnionAll2",
                                                       IntWindow{6, 1 << 30}));
  add(110, std::make_unique<PushProcessBelowUnionRule>(110, "ProcessOnUnionAll",
                                                       IntWindow{2, 5}));
  add(111, std::make_unique<PushProcessBelowUnionRule>(111, "ProcessOnUnionAll2",
                                                       IntWindow{6, 1 << 30}));
  add(112, std::make_unique<PushTopBelowUnionRule>(112, "TopNPushdownUnion"));
  add(113, std::make_unique<TopProjectSwapRule>(113, "TopOnRestrRemap"));
  add(114, std::make_unique<ProjectMergeRule>(114, "ProjectMerge"));
  add(115, std::make_unique<RemoveNoopProjectRule>(115, "RemoveNoopProject"));
  add(116, std::make_unique<PushProjectBelowUnionRule>(116, "SequenceProjectOnUnion",
                                                       IntWindow{2, 5}));
  add(117, std::make_unique<PushProjectBelowUnionRule>(117, "SequenceProjectOnUnion2",
                                                       IntWindow{6, 1 << 30}));
  add(118, std::make_unique<JoinAssocRule>(118, "JoinAssocRight", 1, IntWindow{1, 1}));
  add(119, std::make_unique<JoinAssocRule>(119, "JoinAssocRight2", 1, IntWindow{2, 1 << 30}));
  add(120, std::make_unique<NormalizeReduceRule>(120, "NormalizeReduce"));
  add(121, std::make_unique<PartialAggregationRule>(121, "PartialAggregation",
                                                    IntWindow{1, 1}));
  add(122, std::make_unique<PartialAggregationRule>(122, "PartialAggregation2",
                                                    IntWindow{2, 1 << 30}));
  add(123, std::make_unique<UnionFlattenRule>(123, "UnionAllFlatten"));
  add(124, std::make_unique<PredicateInferenceRule>(124, "PredicateInference"));
  add(125, std::make_unique<SelectOrExpansionRule>(125, "SelectOrExpansion"));
  add(126, std::make_unique<RemoveDupPredicatesRule>(126, "RemoveDupPredicates"));
  add(127, std::make_unique<ConstantFoldingRule>(127, "ConstantFolding"));
  add(128, std::make_unique<TopTopCollapseRule>(128, "TopTopCollapse"));
  // The remainder of the on-by-default catalog: rewrites for operator
  // shapes and features (windows, samples, rare combinations) that this
  // workload seldom or never produces. These participate in configuration
  // search and span computation but do not fire — matching Table 2's
  // observation that dozens of on-by-default rules go unused.
  static constexpr const char* kOnByDefaultTail[] = {
      "SelectRangeMerge",         "SelectInlineCast",
      "FilterIntoScanHint",       "ProjectFunctionHoist",     "ProjectConstantInline",
      "ProjectDedupColumns",      "ColumnPruneJoin",          "ColumnPruneGroupBy",
      "ColumnPruneUnionAll",      "ColumnPruneProcess",       "ColumnPruneWindow",
      "JoinToSemiRewrite",        "SemiToInnerRewrite",       "OuterToInnerSimplify",
      "JoinPredSimplify",         "JoinNullRejectInfer",      "JoinKeyDedup",
      "GroupByKeyPrune",          "GroupByEmptyElim",         "AggDistinctSplit",
      "AggCaseRewrite",           "CountStarShortcut",        "MinMaxIndexShortcut",
      "TopEliminate",             "TopIntoSortMerge",
      "WindowToAggRewrite",       "WindowFrameSimplify",      "WindowPartitionPrune",
      "SampleFractionFold",       "SampleEliminate",          "UnionBranchPruneEmpty",
      "UnionDuplicateBranch",     "ExchangeElimCoLocated",    "ExchangeMergeAdjacent",
      "SortElimSorted",           "SortBelowUnionMerge",      "IsNullSimplify",
      "NotNotElim",
      "CmpLiteralFold",           "BetweenToRange",           "InListToJoin",
      "InListPrune",              "LikePrefixToRange",        "CaseToFilter",
      "CoalesceSimplify",         "CastElim",                 "ArithmeticIdentityFold",
      "BooleanShortCircuit",      "DeMorganNormalize",        "CnfConversion",
      "DnfConversionLimited",     "PredicateRangeIntersect",  "PredicateContradictionDetect",
      "JoinInputSwapHint",        "BroadcastThresholdHint",   "ShuffleHashHint",
      "ScanCombineAdjacent",      "ScanShareCommon",          "SubplanMemoizeHint",
      "UdoFusionAdjacent",        "UdoSplitParallel",         "UdoPushdownHint",
      "ReduceCombinerInsert",     "ReduceRecursiveSplit",     "PairwiseUnionBalance",
      "UnionToAppendHint",        "VirtualViewInline",        "ViewPredicatePush",
      "NestedFieldPrune",         "ComplexTypeFlatten",       "JsonPathSimplify",
      "StringFunctionFold",       "DateRangeNormalize",       "PartitionKeyAlign",
      "BucketJoinAlign",          "SortMergeBucketHint",      "ZOrderScanHint",
      "StatisticsInjectHint",     "CardinalityClampGuard",    "RowGoalInsert",
      "RowGoalRemove",            "ParallelInsertHint",       "SerialFallbackGuard",
      "MemoryGrantHint",          "SpillAvoidanceHint",       "PipelineBreakInsert",
      "VectorizeHint",            "CodegenFusionHint",        "LateMaterializeHint",
      "EarlyMaterializeHint",     "DictionaryEncodeHint",     "RunLengthEncodeHint",
      "CompressionSelectHint",    "ColumnGroupSelect",        "PrefetchDepthHint",
  };
  RuleId next = 129;
  for (const char* name : kOnByDefaultTail) {
    if (next >= kImplementationBegin) {
      std::fprintf(stderr, "rule registry: on-by-default tail overflows into id %d\n", next);
      std::abort();
    }
    // Alternate the rare anchor kinds so the dead rules are spread over the
    // rare operators rather than piling on one.
    OpKind anchor = (next % 2 == 0) ? OpKind::kWindow : OpKind::kSample;
    rare(next, name, anchor);
    ++next;
  }
  if (next != kImplementationBegin) {
    std::fprintf(stderr, "rule registry: on-by-default block ends at %d, want %d\n", next,
                 kImplementationBegin);
    std::abort();
  }

  // =========================================================================
  // Implementation rules [224, 256).
  // =========================================================================
  using JO = JoinImplRule::Options;
  add(224, std::make_unique<JoinImplRule>(
               224, "HashJoinImpl1",
               JO{OpKind::kHashJoin, /*build_side=*/0, true, true, false, 8, false}));
  add(225, std::make_unique<JoinImplRule>(
               225, "HashJoinImpl2",
               JO{OpKind::kHashJoin, /*build_side=*/1, true, false, false, 8, false}));
  add(226, std::make_unique<JoinImplRule>(
               226, "BroadcastJoinImpl1",
               JO{OpKind::kBroadcastHashJoin, /*build_side=*/0, true, true, false, 8, false}));
  add(227, std::make_unique<JoinImplRule>(
               227, "BroadcastJoinImpl2",
               JO{OpKind::kBroadcastHashJoin, /*build_side=*/1, true, false, false, 8, false}));
  add(228, std::make_unique<JoinImplRule>(
               228, "MergeJoinImpl",
               JO{OpKind::kMergeJoin, /*build_side=*/0, true, true, true, 4, false}));
  add(229, std::make_unique<JoinImplRule>(
               229, "LoopJoinImpl",
               JO{OpKind::kLoopJoin, /*build_side=*/0, true, false, false, 8, false}));
  add(230, std::make_unique<JoinImplRule>(
               230, "SemiJoinHashImpl",
               JO{OpKind::kHashJoin, /*build_side=*/0, false, false, true, 8, false}));
  add(231, std::make_unique<JoinImplRule>(
               231, "SemiJoinBroadcastImpl",
               JO{OpKind::kBroadcastHashJoin, /*build_side=*/0, false, false, true, 8, false}));
  add(232, std::make_unique<IndexApplyJoinImplRule>(232, "JoinToApplyIndex1", 0));
  add(233, std::make_unique<IndexApplyJoinImplRule>(233, "JoinToApplyIndex2", 1));
  add(234, std::make_unique<JoinImplRule>(
               234, "GraceHashJoinImpl",
               JO{OpKind::kHashJoin, /*build_side=*/0, true, false, false, 8, true}));
  add(235, std::make_unique<JoinImplRule>(
               235, "MergeJoinImpl2",
               JO{OpKind::kMergeJoin, /*build_side=*/0, true, false, false, 8, true}));
  add(236, std::make_unique<AggImplRule>(236, "HashAggImpl", OpKind::kHashAgg,
                                         /*partial_only=*/false));
  add(237, std::make_unique<AggImplRule>(237, "StreamAggImpl", OpKind::kStreamAgg,
                                         /*partial_only=*/false));
  add(238, std::make_unique<AggImplRule>(238, "PreHashAggImpl", OpKind::kPreHashAgg,
                                         /*partial_only=*/true));
  add(239, std::make_unique<AggImplRule>(239, "HashAggDictImpl", OpKind::kHashAgg,
                                         /*partial_only=*/false, /*max_keys=*/1));
  add(240, std::make_unique<UnionImplRule>(240, "UnionAllToUnionAll",
                                           OpKind::kPhysicalUnionAll));
  add(241, std::make_unique<UnionImplRule>(241, "UnionAllToVirtualDataset",
                                           OpKind::kVirtualDataset));
  add(242, std::make_unique<UnionImplRule>(242, "UnionAllToVirtualDataset2",
                                           OpKind::kVirtualDataset,
                                           /*require_same_partition_count=*/true));
  add(243, std::make_unique<UnionImplRule>(243, "SortedUnionAllImpl",
                                           OpKind::kSortedUnionAll));
  add(244, std::make_unique<TopImplRule>(244, "TopNSortImpl", OpKind::kTopNSort));
  add(245, std::make_unique<TopImplRule>(245, "TopNHeapImpl", OpKind::kTopNHeap,
                                         /*max_limit=*/100000));
  // Implementation slots for rare features; the window/sample impls live in
  // the required block, and these variants target shapes that do not occur.
  add(246, std::make_unique<JoinImplRule>(
               246, "RangePartitionJoinImpl",
               JO{OpKind::kMergeJoin, /*build_side=*/0, true, false, false, 1, true}));
  add(247, std::make_unique<JoinImplRule>(
               247, "BroadcastLoopJoinImpl",
               JO{OpKind::kLoopJoin, /*build_side=*/0, false, true, false, 0, false}));
  add(248, std::make_unique<AggImplRule>(248, "StreamAggSegmentedImpl", OpKind::kStreamAgg,
                                         /*partial_only=*/true, /*max_keys=*/1));
  add(249, std::make_unique<TopImplRule>(249, "TopNSampledImpl", OpKind::kTopNHeap,
                                         /*max_limit=*/0));
  rare(250, "WindowHashImpl", OpKind::kOutputWriter);
  rare(251, "SampleBlockImpl", OpKind::kOutputWriter);
  rare(252, "SpoolImpl", OpKind::kOutputWriter);
  rare(253, "CrossApplyImpl", OpKind::kOutputWriter);
  rare(254, "PivotImpl", OpKind::kOutputWriter);
  rare(255, "UnpivotImpl", OpKind::kOutputWriter);

  if (next_auto != kNumRules) {
    std::fprintf(stderr, "rule registry: %d rules registered, want %d\n", next_auto, kNumRules);
    std::abort();
  }

  for (const auto& rule : rules_) {
    std::optional<OpKind> kind = rule->root_kind();
    if (!kind.has_value()) continue;  // markers never propose
    const size_t index = static_cast<size_t>(*kind);
    if (index >= kNumOpKinds) {
      std::fprintf(stderr, "rule registry: rule %d has root kind %zu, past kNumOpKinds\n",
                   rule->id(), index);
      std::abort();
    }
    (rule->is_implementation() ? implementations_ : transformations_)[index].push_back(
        rule.get());
  }
  exploration_rules_ = BitVector256::AllSet();
  for (const std::vector<const Rule*>& list : implementations_) {
    for (const Rule* rule : list) exploration_rules_.Reset(rule->id());
  }
}

void AttributeMarkerRules(const PlanNodePtr& physical_root, RuleSignature* signature) {
  if (physical_root == nullptr) return;
  signature->Set(rules::kAssignParallelism);
  int exchanges = 0;
  VisitPlan(physical_root, [&](const PlanNode& node) {
    switch (node.op.kind) {
      case OpKind::kRangeScan:
        signature->Set(rules::kInitialPartitioning);
        signature->Set(rules::kStreamSetVersionCheck);
        if (node.op.partition_fraction < 1.0) signature->Set(rules::kPartitionSpecValidate);
        break;
      case OpKind::kOutputWriter:
        signature->Set(rules::kSerializeOutput);
        break;
      case OpKind::kFilter:
        if (node.op.predicate != nullptr && node.op.predicate->CountAtoms() >= 2) {
          signature->Set(rules::kNormalizePredicates);
        }
        break;
      case OpKind::kCompute:
        signature->Set(rules::kDefaultColumnResolver);
        break;
      case OpKind::kProcessVertex:
        signature->Set(rules::kResolveUdoSchema);
        break;
      case OpKind::kHashJoin:
      case OpKind::kBroadcastHashJoin:
      case OpKind::kMergeJoin:
      case OpKind::kLoopJoin:
        signature->Set(rules::kJoinKeyTypeCheck);
        break;
      case OpKind::kIndexApplyJoin:
        signature->Set(rules::kJoinKeyTypeCheck);
        signature->Set(rules::kIndexGetToSeek);
        break;
      case OpKind::kHashAgg:
      case OpKind::kStreamAgg:
      case OpKind::kPreHashAgg:
        signature->Set(rules::kAggOutputNormalize);
        break;
      case OpKind::kPhysicalUnionAll:
      case OpKind::kSortedUnionAll:
        signature->Set(rules::kValidateUnionSchema);
        break;
      case OpKind::kVirtualDataset:
        signature->Set(rules::kValidateUnionSchema);
        signature->Set(rules::kUnionBranchValidate);
        break;
      case OpKind::kTopNSort:
      case OpKind::kTopNHeap:
        signature->Set(rules::kEnforceRowLimit);
        break;
      case OpKind::kExchange:
        ++exchanges;
        break;
      default:
        break;
    }
  });
  if (exchanges >= 2) signature->Set(rules::kTokenBudgetGuard);
}

}  // namespace qsteer
