// Ranked, compile-budgeted candidate generation: the CandidateRanker's
// deterministic-training and persistence contracts, the SteeringPipeline's
// budget/filter semantics (ranking off or budget unlimited => bit-identical
// to the unbudgeted pipeline), and the sharded-vs-unsharded ranker-byte
// parity of the discovery orchestrator.
#include "ml/ranker.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "core/pipeline.h"
#include "discovery/orchestrator.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_ranker_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }
  std::string File(const std::string& name) const { return (dir_ / name).string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// qsteer-lint: allow(crc-before-trust) test helper reads bytes to corrupt or inspect them; verification is the code under test
std::string RawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void RawWrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// ------------------------------------------------------------- scaler/mlp

TEST(MinMaxScaler, FitRejectsRaggedRows) {
  MinMaxScaler scaler;
  std::vector<std::vector<double>> ragged = {{1.0, 2.0, 3.0}, {4.0, 5.0}};
  Status status = scaler.Fit(ragged);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(scaler.fitted());

  // A rectangular fit afterwards still works.
  std::vector<std::vector<double>> rows = {{0.0, 0.0}, {2.0, 4.0}};
  ASSERT_TRUE(scaler.Fit(rows).ok());
  EXPECT_TRUE(scaler.fitted());
  EXPECT_EQ(scaler.width(), 2);
}

TEST(MinMaxScaler, UpdateRejectsWidthMismatchAfterFirstRow) {
  MinMaxScaler scaler;
  ASSERT_TRUE(scaler.Update({1.0, 2.0}).ok());
  EXPECT_FALSE(scaler.Update({1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(scaler.width(), 2);
}

TEST(Mlp, SerializeRoundTripsExactBytesAndBehavior) {
  Mlp model(4, 8, 2, /*seed=*/17);
  // Exercise Adam state so the serialization covers the full trajectory.
  for (int i = 0; i < 20; ++i) model.TrainStep({0.1, 0.9, 0.4, 0.2}, {1.0, 0.0}, 1e-2);

  std::string bytes = model.Serialize();
  Result<Mlp> restored = Mlp::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().Forward({0.3, 0.3, 0.3, 0.3}),
            model.Forward({0.3, 0.3, 0.3, 0.3}));

  // Continuing training from the restored state replays the original
  // trajectory exactly.
  Mlp continued = std::move(restored.value());
  double a = model.TrainStep({0.5, 0.5, 0.5, 0.5}, {0.0, 1.0}, 1e-2);
  double b = continued.TrainStep({0.5, 0.5, 0.5, 0.5}, {0.0, 1.0}, 1e-2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(continued.Serialize(), model.Serialize());
}

TEST(Mlp, DeserializeRejectsDamage) {
  Mlp model(3, 4, 1, 5);
  std::string bytes = model.Serialize();
  EXPECT_FALSE(Mlp::Deserialize("").ok());
  EXPECT_FALSE(Mlp::Deserialize("not an mlp").ok());
  // Truncation loses vector lines.
  EXPECT_FALSE(Mlp::Deserialize(bytes.substr(0, bytes.size() / 2)).ok());
}

// ----------------------------------------------------------------- ranker

RankerJobContext SyntheticContext() {
  RankerJobContext ctx;
  for (int r : {40, 41, 90, 91, 120, 230}) ctx.span.Set(r);
  ctx.default_signature.Set(90);
  ctx.default_signature.Set(120);
  ctx.default_est_cost = 1234.5;
  return ctx;
}

std::vector<RankerExample> SyntheticExamples(const CandidateRanker& ranker, int n) {
  RankerJobContext ctx = SyntheticContext();
  std::vector<RankerExample> examples;
  for (int i = 0; i < n; ++i) {
    RuleConfig config = RuleConfig::Default();
    if (i % 2 == 0) config.Disable(90 + (i % 3));
    if (i % 3 == 0) config.Enable(40 + (i % 2));
    if (i % 5 == 0) config.Disable(230);
    RankerExample example = ranker.MakeExample(ctx, config);
    // Deterministic synthetic label: candidates toggling rule 90 "help".
    example.label = config.IsEnabled(90) ? 0.05 : 0.6;
    examples.push_back(std::move(example));
  }
  return examples;
}

TEST(CandidateRanker, FeatureRowsAreWellFormed) {
  CandidateRanker ranker;
  RankerJobContext ctx = SyntheticContext();
  RuleConfig config = RuleConfig::Default();
  config.Disable(90);
  config.Enable(41);
  RankerExample example = ranker.MakeExample(ctx, config);
  ASSERT_EQ(example.features.size(),
            static_cast<size_t>(CandidateRanker::kNumFeatures));
  EXPECT_EQ(example.config_hash, config.Hash());
  EXPECT_EQ(example.toggled_rules, (std::vector<int>{41, 90}));
  for (double f : example.features) {
    EXPECT_TRUE(std::isfinite(f));
  }
  // Bias feature.
  EXPECT_EQ(example.features.back(), 1.0);
}

TEST(CandidateRanker, OptionsLineKeepsItsBytes) {
  // Every persisted ranker starts with its constants: hidden width, seed,
  // prior weight, learning rate, epochs per batch and the examples trained
  // before the model is trusted. A changed constant changes these bytes.
  const std::string line = "options 16 1 0.59999999999999998 0.0050000000000000001 2 48\n";
  EXPECT_EQ(CandidateRanker().Serialize().substr(0, line.size()), line);
}

TEST(CandidateRanker, TrainingIsDeterministic) {
  CandidateRanker a, b;
  std::vector<RankerExample> batch = SyntheticExamples(a, 120);
  a.Train(batch);
  b.Train(batch);
  EXPECT_EQ(a.examples_trained(), 120);
  EXPECT_EQ(a.Serialize(), b.Serialize());

  // Scores agree and are a pure function of state + features.
  for (const RankerExample& example : batch) {
    EXPECT_EQ(a.Score(example.features), b.Score(example.features));
  }

  // Chunked training is deterministic too: the same stream split at the
  // same batch boundaries replays to identical bytes. (Different boundaries
  // legitimately differ — the MLP's epoch passes are per-batch — which is
  // why the pipeline trains at fixed, worker-independent batch points.)
  CandidateRanker c, d;
  for (CandidateRanker* r : {&c, &d}) {
    r->Train(std::vector<RankerExample>(batch.begin(), batch.begin() + 50));
    r->Train(std::vector<RankerExample>(batch.begin() + 50, batch.end()));
  }
  EXPECT_EQ(c.Serialize(), d.Serialize());
  EXPECT_EQ(c.examples_trained(), 120);
}

TEST(CandidateRanker, LearnsToPreferHistoricallyGoodToggles) {
  CandidateRanker ranker;
  std::vector<RankerExample> batch = SyntheticExamples(ranker, 200);
  ranker.Train(batch);
  RankerJobContext ctx = SyntheticContext();
  RuleConfig good = RuleConfig::Default();
  good.Disable(90);  // labeled 0.6 in the synthetic stream
  RuleConfig bad = RuleConfig::Default();
  bad.Disable(91);  // stays enabled-90, labeled 0.05
  double good_score = ranker.Score(ranker.MakeExample(ctx, good).features);
  double bad_score = ranker.Score(ranker.MakeExample(ctx, bad).features);
  EXPECT_GT(good_score, bad_score);
}

TEST(CandidateRanker, SaveLoadRoundTripAndCorruptionRejectsWholeFile) {
  TempDir dir;
  CandidateRanker trained;
  trained.Train(SyntheticExamples(trained, 90));
  std::string path = dir.File("ranker.qrk");
  ASSERT_TRUE(trained.SaveToFile(path).ok());

  CandidateRanker loaded;
  ASSERT_TRUE(loaded.WarmFromFile(path).ok());
  EXPECT_EQ(loaded.Serialize(), trained.Serialize());
  EXPECT_EQ(loaded.examples_trained(), trained.examples_trained());

  // Flip one byte: the checksum no longer matches, the load is rejected,
  // and the target ranker is untouched (cold, never wrong).
  std::string bytes = RawRead(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x01;
  RawWrite(path, bytes);
  CandidateRanker other;
  other.Train(SyntheticExamples(other, 10));
  std::string before = other.Serialize();
  EXPECT_FALSE(other.WarmFromFile(path).ok());
  EXPECT_EQ(other.Serialize(), before);

  // A footer-less file (header line + Serialize bytes) is also rejected.
  RawWrite(path, "qsteer-ranker v1\n" + trained.Serialize());
  EXPECT_FALSE(other.WarmFromFile(path).ok());
  EXPECT_EQ(other.Serialize(), before);

  // A valid footer over another format's header: a foreign version.
  ASSERT_TRUE(WriteArtifact(path, "qsteer-ranker v2", trained.Serialize(), /*sync=*/false).ok());
  EXPECT_EQ(other.WarmFromFile(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(other.Serialize(), before);

  // Missing file.
  EXPECT_FALSE(other.WarmFromFile(dir.File("absent.qrk")).ok());
}

// --------------------------------------------------------------- pipeline

WorkloadSpec PipelineSpec() {
  WorkloadSpec spec;
  spec.name = "RK";
  spec.seed = 6502;
  spec.num_templates = 12;
  spec.num_stream_sets = 10;
  return spec;
}

PipelineOptions BaseOptions(int num_threads) {
  PipelineOptions options;
  options.max_candidate_configs = 60;
  options.configs_to_execute = 6;
  options.num_threads = num_threads;
  return options;
}

void ExpectOutcomesEqual(const JobAnalysis& a, const JobAnalysis& b) {
  ASSERT_EQ(a.executed.size(), b.executed.size());
  for (size_t i = 0; i < a.executed.size(); ++i) {
    EXPECT_TRUE(a.executed[i].config == b.executed[i].config);
    EXPECT_EQ(a.executed[i].plan.est_cost, b.executed[i].plan.est_cost);
    EXPECT_EQ(a.executed[i].metrics.runtime, b.executed[i].metrics.runtime);
  }
  EXPECT_EQ(a.candidate_costs, b.candidate_costs);
  EXPECT_EQ(a.recompiled_ok, b.recompiled_ok);
  EXPECT_EQ(a.cheaper_than_default, b.cheaper_than_default);
  EXPECT_EQ(a.BestRuntimeChangePct(), b.BestRuntimeChangePct());
}

TEST(PipelineRanking, UnlimitedBudgetRankedEqualsUnranked) {
  // Selection is a filter, never a reorder: with the budget unlimited the
  // ranked pipeline compiles the identical stream and must produce a
  // bit-identical analysis.
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  SteeringPipeline unranked(&optimizer, &simulator, BaseOptions(0));
  PipelineOptions ranked_options = BaseOptions(0);
  ranked_options.rank_candidates = true;
  ranked_options.compile_budget = 0;  // unlimited
  SteeringPipeline ranked(&optimizer, &simulator, ranked_options);

  for (int t = 0; t < 4; ++t) {
    Job job = workload.MakeJob(t, /*day=*/1);
    SCOPED_TRACE(testing::Message() << "job=" << job.name);
    JobAnalysis a = unranked.AnalyzeJob(job);
    JobAnalysis b = ranked.AnalyzeJob(job);
    ExpectOutcomesEqual(a, b);
    EXPECT_EQ(b.candidates_scored, b.candidates_generated);
    EXPECT_EQ(b.budget_skipped, 0);
  }
}

TEST(PipelineRanking, UnrankedBudgetCompilesTheStreamPrefix) {
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  SteeringPipeline full(&optimizer, &simulator, BaseOptions(0));
  PipelineOptions budgeted_options = BaseOptions(0);
  budgeted_options.compile_budget = 15;
  SteeringPipeline budgeted(&optimizer, &simulator, budgeted_options);

  Job job = workload.MakeJob(1, /*day=*/2);
  JobAnalysis all = full.AnalyzeJob(job);
  JobAnalysis capped = budgeted.AnalyzeJob(job);
  EXPECT_EQ(capped.candidates_generated, all.candidates_generated);
  EXPECT_EQ(capped.candidates_compiled, 15);
  EXPECT_EQ(capped.budget_skipped, capped.candidates_generated - 15);
  EXPECT_EQ(capped.candidates_scored, 0) << "no ranker => nothing scored";
  // The compiled slice is the first 15 candidates of the full stream.
  ASSERT_LE(capped.candidate_costs.size(), all.candidate_costs.size());
  for (size_t i = 0; i < capped.candidate_costs.size(); ++i) {
    EXPECT_EQ(capped.candidate_costs[i], all.candidate_costs[i]);
  }
}

TEST(PipelineRanking, BudgetedRankedAnalysisIsDeterministicAcrossWorkerCounts) {
  // The headline determinism contract with ranking + budget on: analyses
  // and the trained ranker bytes are identical for 0, 1, 2 and 8 workers.
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());

  std::vector<Job> jobs;
  for (int t = 0; t < 6; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/3));

  auto options_for = [](int workers) {
    PipelineOptions options = BaseOptions(workers);
    options.rank_candidates = true;
    options.compile_budget = 12;
    return options;
  };

  SteeringPipeline serial(&optimizer, &simulator, options_for(0));
  std::vector<JobAnalysis> reference = serial.AnalyzeJobs(jobs);
  std::string reference_bytes = serial.SerializeRanker();
  ASSERT_FALSE(reference_bytes.empty());

  for (int workers : {1, 2, 8}) {
    SteeringPipeline parallel(&optimizer, &simulator, options_for(workers));
    std::vector<JobAnalysis> batch = parallel.AnalyzeJobs(jobs);
    ASSERT_EQ(batch.size(), reference.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " job index " << i);
      ExpectOutcomesEqual(reference[i], batch[i]);
      EXPECT_EQ(reference[i].candidates_compiled, batch[i].candidates_compiled);
      EXPECT_EQ(reference[i].budget_skipped, batch[i].budget_skipped);
    }
    EXPECT_EQ(parallel.SerializeRanker(), reference_bytes) << "workers=" << workers;
  }

  // Two identical serial runs produce identical ranker bytes (run-to-run
  // determinism, not just worker-count independence).
  SteeringPipeline repeat(&optimizer, &simulator, options_for(0));
  repeat.AnalyzeJobs(jobs);
  EXPECT_EQ(repeat.SerializeRanker(), reference_bytes);
}

TEST(PipelineRanking, BudgetCountersAndStatsAreConsistent) {
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions options = BaseOptions(0);
  options.rank_candidates = true;
  options.compile_budget = 10;
  SteeringPipeline pipeline(&optimizer, &simulator, options);

  std::vector<Job> jobs;
  for (int t = 0; t < 4; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/5));
  std::vector<JobAnalysis> analyses = pipeline.AnalyzeJobs(jobs);

  int64_t scored = 0, compiled = 0, skipped = 0;
  for (const JobAnalysis& analysis : analyses) {
    EXPECT_EQ(analysis.candidates_scored, analysis.candidates_generated);
    EXPECT_LE(analysis.candidates_compiled, 10);
    EXPECT_EQ(analysis.candidates_compiled + analysis.budget_skipped,
              analysis.candidates_generated);
    scored += analysis.candidates_scored;
    compiled += analysis.candidates_compiled;
    skipped += analysis.budget_skipped;
  }
  SteeringPipeline::BudgetStats stats = pipeline.budget_stats();
  EXPECT_EQ(stats.candidates_scored, scored);
  EXPECT_EQ(stats.candidates_compiled, compiled);
  EXPECT_EQ(stats.budget_skipped, skipped);
  EXPECT_GT(stats.ranker_examples_trained, 0);

  // The one rendering every report prints.
  SteeringPipeline::BudgetStats filled{40, 10, 30, 3, 12, 7};
  EXPECT_EQ(filled.ToString(),
            "scored=40 compiled=10 skipped=30 improvements=3 "
            "improvements_per_compile=0.3 ranker_examples=12 span_pruned=7");
}

TEST(PipelineRanking, RankerPersistenceEndpointsRequireRanking) {
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  SteeringPipeline off(&optimizer, &simulator, BaseOptions(0));
  EXPECT_EQ(off.SaveRanker("/tmp/unused.qrk").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(off.WarmRanker("/tmp/unused.qrk").code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(off.SerializeRanker().empty());
  EXPECT_EQ(off.TrainRanker({}), 0);
}

TEST(PipelineRanking, SaveAndWarmRoundTripThroughThePipeline) {
  TempDir dir;
  Workload workload(PipelineSpec());
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  PipelineOptions options = BaseOptions(0);
  options.rank_candidates = true;
  options.compile_budget = 12;

  SteeringPipeline trained(&optimizer, &simulator, options);
  std::vector<Job> jobs;
  for (int t = 0; t < 4; ++t) jobs.push_back(workload.MakeJob(t, /*day=*/6));
  trained.AnalyzeJobs(jobs);
  std::string path = dir.File("pipeline_ranker.qrk");
  ASSERT_TRUE(trained.SaveRanker(path).ok());

  SteeringPipeline warmed(&optimizer, &simulator, options);
  ASSERT_TRUE(warmed.WarmRanker(path).ok());
  EXPECT_EQ(warmed.SerializeRanker(), trained.SerializeRanker());
}

// -------------------------------------------------------------- discovery

TEST(DiscoveryRanking, ShardedRankerBytesMatchUnsharded) {
  WorkloadSpec spec;
  spec.name = "DR";
  spec.seed = 9091;
  spec.num_templates = 12;
  spec.num_stream_sets = 10;
  Workload workload(spec);

  DiscoveryOptions options;
  options.num_shards = 4;
  options.max_jobs = 12;
  options.pipeline.max_candidate_configs = 24;
  options.pipeline.configs_to_execute = 4;
  options.pipeline.rank_candidates = true;
  options.fleet_compile_budget = 12 * 8;  // ~8 compiles per job

  Result<UnshardedDiscovery> reference = DiscoverUnsharded(&workload, 3, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference.value().ranker_bytes.empty());

  for (int workers : {0, 4}) {
    TempDir dir;
    DiscoveryOptions run_options = options;
    run_options.dir = dir.path();
    run_options.num_workers = workers;
    ShardOrchestrator orchestrator(&workload, 3, run_options);
    Result<DiscoveryResult> run = orchestrator.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run.value().completed);
    EXPECT_EQ(run.value().merged_store, reference.value().store)
        << "workers=" << workers;
    EXPECT_EQ(run.value().merged_diff_table, reference.value().diff_table)
        << "workers=" << workers;
    EXPECT_EQ(run.value().ranker_bytes, reference.value().ranker_bytes)
        << "workers=" << workers;
    EXPECT_GT(run.value().counters.budget.candidates_compiled, 0);
    EXPECT_GT(run.value().counters.budget.budget_skipped, 0);
    EXPECT_EQ(run.value().counters.ranker_warm_loaded, 0);
  }
}

TEST(DiscoveryRanking, RankerPersistsAcrossRunsAndRejectsDamage) {
  WorkloadSpec spec;
  spec.name = "DR";
  spec.seed = 9091;
  spec.num_templates = 12;
  spec.num_stream_sets = 10;
  Workload workload(spec);

  TempDir dir;
  DiscoveryOptions options;
  options.dir = dir.File("run1");
  options.num_shards = 2;
  options.max_jobs = 8;
  options.pipeline.max_candidate_configs = 20;
  options.pipeline.configs_to_execute = 4;
  options.pipeline.rank_candidates = true;
  options.fleet_compile_budget = 40;
  options.ranker_out = dir.File("ranker.qrk");

  ShardOrchestrator first(&workload, 2, options);
  Result<DiscoveryResult> day2 = first.Run();
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  ASSERT_TRUE(day2.value().completed);
  ASSERT_TRUE(std::filesystem::exists(options.ranker_out));

  // Day 3 warms from day 2's ranker.
  DiscoveryOptions warm_options = options;
  warm_options.dir = dir.File("run2");
  warm_options.ranker_in = options.ranker_out;
  warm_options.ranker_out.clear();
  ShardOrchestrator second(&workload, 3, warm_options);
  Result<DiscoveryResult> day3 = second.Run();
  ASSERT_TRUE(day3.ok()) << day3.status().ToString();
  ASSERT_TRUE(day3.value().completed);
  EXPECT_EQ(day3.value().counters.ranker_warm_loaded, 1);
  EXPECT_EQ(day3.value().counters.ranker_warm_rejected, 0);

  // Damage the artifact: the warm load is rejected and the run proceeds
  // cold (non-fatal), flagged in the counters.
  std::string bytes = RawRead(options.ranker_out);
  ASSERT_GT(bytes.size(), 20u);
  bytes[bytes.size() - 3] ^= 0x01;
  RawWrite(options.ranker_out, bytes);
  DiscoveryOptions damaged_options = warm_options;
  damaged_options.dir = dir.File("run3");
  ShardOrchestrator third(&workload, 3, damaged_options);
  Result<DiscoveryResult> cold = third.Run();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold.value().completed);
  EXPECT_EQ(cold.value().counters.ranker_warm_loaded, 0);
  EXPECT_EQ(cold.value().counters.ranker_warm_rejected, 1);
}

}  // namespace
}  // namespace qsteer
