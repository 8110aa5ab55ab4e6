#include "discovery/orchestrator.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "common/hash_ring.h"
#include "common/thread_pool.h"
#include "core/hints.h"
#include "exec/simulator.h"
#include "optimizer/optimizer.h"

namespace qsteer {

namespace {

/// Consistent-hash ring points per shard.
constexpr int kRingVnodes = 64;

std::vector<Job> SelectJobs(const Workload& workload, int day, int max_jobs) {
  std::vector<Job> jobs = workload.JobsForDay(day);
  if (max_jobs > 0 && static_cast<int>(jobs.size()) > max_jobs) {
    jobs.resize(static_cast<size_t>(max_jobs));
  }
  return jobs;
}

/// Folds the fleet-wide compile budget into per-job pipeline options: both
/// the sharded and the unsharded pass divide the same fleet budget by the
/// same job selection, so their per-job budgets — and therefore their
/// analyses — agree exactly.
PipelineOptions ApplyFleetBudget(const PipelineOptions& pipeline,
                                 const DiscoveryOptions& options, int64_t jobs_selected) {
  PipelineOptions out = pipeline;
  if (options.fleet_compile_budget > 0) {
    out.compile_budget = static_cast<int>(std::max<int64_t>(
        1, options.fleet_compile_budget / std::max<int64_t>(1, jobs_selected)));
  }
  return out;
}

/// The per-job reduction both passes share: the recommender learn event
/// (if the analysis yields one) and the group diff-row candidate (if the
/// best executed alternative improved on the default). Pure per job.
struct JobOutput {
  bool has_obs = false;
  ShardObservation obs;
  bool has_row = false;
  ShardDiffRow row;
  /// Ranker training examples of this job's analysis (rank mode only);
  /// replayed into the pipeline's ranker in day order after the compute
  /// phase, so training is independent of shard placement and worker count.
  std::vector<RankerExample> ranker_examples;
};

JobOutput ReduceAnalysis(const JobAnalysis& analysis) {
  JobOutput out;
  std::optional<SteeringRecommender::CandidateObservation> candidate =
      SteeringRecommender::ExtractCandidate(analysis, RecommenderOptions{});
  if (candidate.has_value()) {
    out.has_obs = true;
    out.obs.signature_hex = candidate->signature.ToHexString();
    out.obs.improvement_pct = candidate->improvement_pct;
    out.obs.hints = ToHintString(candidate->config);
  }
  const ConfigOutcome* best = analysis.BestBy(Metric::kRuntime);
  double change = analysis.BestRuntimeChangePct();
  if (analysis.default_plan.root != nullptr && best != nullptr && change < 0.0) {
    out.has_row = true;
    out.row.signature_hex = analysis.default_plan.signature.ToHexString();
    out.row.change_pct = change;
    out.row.job_name = analysis.job.name;
    out.row.only_in_default = best->diff_vs_default.only_in_default;
    out.row.only_in_new = best->diff_vs_default.only_in_new;
  }
  return out;
}

/// Keeps the better of two diff-row candidates for one group: smaller
/// (more negative) change, ties to the lexicographically smaller job name.
/// Group-local and order-free, so shard boundaries cannot change the
/// winner.
void KeepBetterRow(std::map<std::string, ShardDiffRow>* rows, const ShardDiffRow& row) {
  auto it = rows->find(row.signature_hex);
  if (it == rows->end()) {
    (*rows)[row.signature_hex] = row;
    return;
  }
  ShardDiffRow& held = it->second;
  if (row.change_pct < held.change_pct ||
      (row.change_pct == held.change_pct && row.job_name < held.job_name)) {
    held = row;
  }
}

std::vector<ShardDiffRow> RowsInOrder(const std::map<std::string, ShardDiffRow>& rows) {
  std::vector<ShardDiffRow> out;
  out.reserve(rows.size());
  for (const auto& [signature, row] : rows) out.push_back(row);
  return out;
}

/// Replays one artifact's observations into the store. Exact text round
/// trips (hex signature, %.17g improvement, minimal hint string) make this
/// bit-equivalent to learning the original in-memory observations.
Status ReplayObservations(const ShardArtifact& artifact, SteeringRecommender* store) {
  for (const ShardObservation& obs : artifact.observations) {
    SteeringRecommender::CandidateObservation candidate;
    candidate.signature = BitVector256::FromHexString(obs.signature_hex);
    if (candidate.signature.ToHexString() != obs.signature_hex) {
      return Status::InvalidArgument("artifact observation signature corrupt: " +
                                     obs.signature_hex);
    }
    Result<RuleConfig> config = ParseHintString(obs.hints);
    if (!config.ok()) return config.status();
    candidate.config = config.value();
    candidate.improvement_pct = obs.improvement_pct;
    store->LearnCandidate(candidate);
  }
  return Status::OK();
}

}  // namespace

std::string DiscoveryCounters::ToString() const {
  std::ostringstream out;
  out << "shards: total=" << shards_total << " reused=" << shards_reused
      << " recomputed=" << shards_recomputed << " quarantined=" << shards_quarantined
      << " stale=" << shards_stale << "\n";
  out << "leases: granted=" << leases_granted << " expired=" << leases_expired
      << " speculative=" << speculative_dispatches << " stragglers=" << stragglers
      << " makespan_ticks=" << makespan_ticks << "\n";
  out << "jobs: total=" << jobs_total << " analyzed=" << jobs_analyzed
      << " groups=" << groups_total << "\n";
  out << "crash_windows=" << crash_windows << "\n";
  out << "cache: warm_loaded=" << cache_warm_loaded
      << " warm_rejected=" << cache_warm_rejected << "\n";
  out << "budget: " << budget.ToString() << "\n";
  out << "ranker: warm_loaded=" << ranker_warm_loaded
      << " warm_rejected=" << ranker_warm_rejected << "\n";
  return out.str();
}

struct ShardOrchestrator::Impl {
  Impl(const Workload* workload, int day, const DiscoveryOptions& options)
      : optimizer(&workload->catalog()),
        simulator(&workload->catalog()) {
    PipelineOptions pipeline_options = ApplyFleetBudget(
        options.pipeline, options,
        static_cast<int64_t>(SelectJobs(*workload, day, options.max_jobs).size()));
    // The orchestrator fans out across jobs; one job's analysis runs
    // serially on its claiming worker (same layering as AnalyzeJobs).
    pipeline_options.num_threads = 0;
    pipeline = std::make_unique<SteeringPipeline>(&optimizer, &simulator, pipeline_options);
    if (options.num_workers > 1) {
      pool = std::make_unique<ThreadPool>(options.num_workers);
    }
  }

  Optimizer optimizer;
  ExecutionSimulator simulator;
  std::unique_ptr<SteeringPipeline> pipeline;
  std::unique_ptr<ThreadPool> pool;
  /// Monotonic crash-window position within the run.
  int64_t window_index = 0;
};

ShardOrchestrator::ShardOrchestrator(const Workload* workload, int day,
                                     DiscoveryOptions options)
    : workload_(workload), day_(day), options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  impl_ = std::make_unique<Impl>(workload_, day_, options_);
}

ShardOrchestrator::~ShardOrchestrator() = default;

namespace {

// Lease simulation (deterministic logical ticks).
constexpr int64_t kBaseCostTicks = 40;
constexpr int64_t kPerJobCostTicks = 7;
/// Dispatches per shard before the last one runs to completion without
/// a lease (bounds speculative re-execution).
constexpr int kMaxLeaseAttempts = 3;
/// Seed of the straggler draws.
constexpr uint64_t kLeaseSeed = 1;

/// Deterministic lease-and-speculation schedule over the shards that need
/// computing, in logical ticks. Returns shard positions in completion
/// order; content never depends on this — only commit order and counters.
std::vector<int> SimulateLeases(const std::vector<int64_t>& shard_jobs,
                                const DiscoveryOptions& options,
                                DiscoveryCounters* counters) {
  struct Dispatch {
    int64_t release = 0;
    int shard_pos = 0;
    int attempt = 1;
  };
  std::vector<Dispatch> pending;
  pending.reserve(shard_jobs.size());
  for (int pos = 0; pos < static_cast<int>(shard_jobs.size()); ++pos) {
    pending.push_back(Dispatch{0, pos, 1});
  }
  int workers = std::max(1, options.num_workers);
  std::vector<int64_t> worker_free(static_cast<size_t>(workers), 0);
  std::vector<int64_t> finish(shard_jobs.size(), -1);

  const int64_t frac_per_myriad =
      static_cast<int64_t>(options.straggler_fraction * 10000.0);
  while (!pending.empty()) {
    // Earliest release first; (shard, attempt) breaks ties deterministically.
    auto next = std::min_element(
        pending.begin(), pending.end(), [](const Dispatch& a, const Dispatch& b) {
          if (a.release != b.release) return a.release < b.release;
          if (a.shard_pos != b.shard_pos) return a.shard_pos < b.shard_pos;
          return a.attempt < b.attempt;
        });
    Dispatch d = *next;
    pending.erase(next);

    size_t w = 0;
    for (size_t i = 1; i < worker_free.size(); ++i) {
      if (worker_free[i] < worker_free[w]) w = i;
    }
    int64_t start = std::max(worker_free[w], d.release);
    int64_t cost =
        kBaseCostTicks + kPerJobCostTicks * shard_jobs[static_cast<size_t>(d.shard_pos)];
    uint64_t draw = Mix64(HashCombine(HashCombine(kLeaseSeed, 0x5ea5e5ull),
                                      HashCombine(static_cast<uint64_t>(d.shard_pos),
                                                  static_cast<uint64_t>(d.attempt))));
    if (static_cast<int64_t>(draw % 10000) < frac_per_myriad) {
      cost = static_cast<int64_t>(static_cast<double>(cost) * options.straggler_factor);
      ++counters->stragglers;
    }
    ++counters->leases_granted;
    int64_t end = start + cost;
    if (cost > options.lease_ticks && d.attempt < kMaxLeaseAttempts) {
      // Deadline miss: the lease expires mid-run and a speculative copy is
      // re-dispatched the moment it does. The original is not preempted —
      // whichever copy finishes first completes the shard.
      ++counters->leases_expired;
      ++counters->speculative_dispatches;
      pending.push_back(Dispatch{start + options.lease_ticks, d.shard_pos, d.attempt + 1});
    }
    worker_free[w] = end;
    int64_t& best = finish[static_cast<size_t>(d.shard_pos)];
    if (best < 0 || end < best) best = end;
  }

  for (int64_t f : finish) counters->makespan_ticks = std::max(counters->makespan_ticks, f);
  std::vector<int> order(shard_jobs.size());
  for (int i = 0; i < static_cast<int>(order.size()); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&finish](int a, int b) {
    if (finish[static_cast<size_t>(a)] != finish[static_cast<size_t>(b)]) {
      return finish[static_cast<size_t>(a)] < finish[static_cast<size_t>(b)];
    }
    return a < b;
  });
  return order;
}

void QuarantineFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  // A failed rename (e.g. the file vanished) is not fatal: the shard is
  // recomputed and its fresh commit overwrites whatever remains.
}

/// Writes the first half of `content` straight to `path` (no temp file, no
/// rename): the torn-file injection modeling bit rot or a non-atomic
/// filesystem.
void WriteTornFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(content.data(), 1, content.size() / 2, f);
  std::fclose(f);
}

}  // namespace

Result<DiscoveryResult> ShardOrchestrator::Run() {
  DiscoveryResult result;
  DiscoveryCounters& counters = result.counters;
  counters.shards_total = options_.num_shards;

  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("cannot create discovery dir " + options_.dir + ": " +
                            ec.message());
  }

  // Crash-window helper: every protocol window consults the hook; a firing
  // hook ends the run with completed == false (resume picks it back up).
  auto crash_at = [&](const char* window, int shard_index, bool* tear) -> bool {
    if (tear != nullptr) *tear = false;
    ++counters.crash_windows;
    DiscoveryCrashPoint point{window, shard_index, impl_->window_index++};
    if (options_.crash_hook_for_testing == nullptr) return false;
    DiscoveryCrashDecision decision = options_.crash_hook_for_testing(point);
    if (!decision.crash) return false;
    if (tear != nullptr) *tear = decision.tear_artifact;
    result.completed = false;
    result.crash_window = window;
    result.crash_shard = shard_index;
    return true;
  };

  // ---- Compile-cache pre-warm (never fatal: rejection = cold start) ----
  if (!options_.warm_cache_file.empty()) {
    Status warm = impl_->pipeline->WarmCompileCache(options_.warm_cache_file, day_,
                                                    &counters.cache_warm_loaded);
    if (!warm.ok()) counters.cache_warm_rejected = 1;
  }

  // ---- Ranker pre-warm (same contract: rejection = cold start) ----
  if (!options_.ranker_in.empty() && impl_->pipeline->ranker_enabled()) {
    Status warm = impl_->pipeline->WarmRanker(options_.ranker_in);
    if (warm.ok()) {
      counters.ranker_warm_loaded = 1;
    } else {
      counters.ranker_warm_rejected = 1;
    }
  }

  // ---- Phase 1: deterministic partition by default-plan signature ----
  std::vector<Job> jobs = SelectJobs(*workload_, day_, options_.max_jobs);
  counters.jobs_total = static_cast<int64_t>(jobs.size());

  std::vector<std::string> job_signature_hex =
      ParallelMap<std::string>(impl_->pool.get(), static_cast<int64_t>(jobs.size()),
                               [&](int64_t i) -> std::string {
                                 Result<CompiledPlan> plan = impl_->pipeline->CompileCached(
                                     jobs[static_cast<size_t>(i)], RuleConfig::Default());
                                 if (!plan.ok()) return std::string();
                                 return plan.value().signature.ToHexString();
                               });

  ConsistentHashRing ring(kRingVnodes);
  for (int s = 0; s < options_.num_shards; ++s) ring.AddReplica(static_cast<uint32_t>(s));

  std::map<std::string, int> group_shard;  // signature hex -> shard
  std::vector<std::vector<int>> shard_jobs(static_cast<size_t>(options_.num_shards));
  uint64_t partition_hash = HashCombine(HashString(workload_->spec().name),
                                        static_cast<uint64_t>(day_));
  partition_hash = HashCombine(partition_hash, static_cast<uint64_t>(options_.num_shards));
  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string& hex = job_signature_hex[i];
    if (hex.empty()) continue;  // default compile failed; nothing to learn
    auto it = group_shard.find(hex);
    if (it == group_shard.end()) {
      uint32_t shard = ring.RouteFor(BitVector256::FromHexString(hex).Hash());
      it = group_shard.emplace(hex, static_cast<int>(shard)).first;
    }
    shard_jobs[static_cast<size_t>(it->second)].push_back(static_cast<int>(i));
    partition_hash = HashCombine(partition_hash, HashString(jobs[i].name));
    partition_hash = HashCombine(partition_hash, static_cast<uint64_t>(it->second));
  }
  counters.groups_total = static_cast<int64_t>(group_shard.size());

  if (crash_at("post-partition", -1, nullptr)) return result;

  // ---- Phase 2: resume scan — trust only checksum-valid commits ----
  std::vector<std::optional<ShardArtifact>> artifacts(
      static_cast<size_t>(options_.num_shards));
  std::vector<int> to_compute;
  for (int s = 0; s < options_.num_shards; ++s) {
    const std::string manifest_path = options_.dir + "/" + ShardManifestName(s);
    const std::string artifact_path = options_.dir + "/" + ShardArtifactName(s);
    if (!options_.resume) {
      to_compute.push_back(s);
      continue;
    }
    Result<std::string> manifest_read = ReadArtifact(manifest_path, kShardManifestHeader);
    if (!manifest_read.ok()) {
      if (manifest_read.status().code() != StatusCode::kNotFound) {
        // Torn or corrupt manifest: the commit record itself is untrusted,
        // so the artifact it may fingerprint is untrusted too.
        QuarantineFile(manifest_path);
        QuarantineFile(artifact_path);
        ++counters.shards_quarantined;
      }
      to_compute.push_back(s);
      continue;
    }
    Result<ShardManifest> manifest = ShardManifest::Parse(manifest_read.value());
    if (!manifest.ok()) {
      QuarantineFile(manifest_path);
      QuarantineFile(artifact_path);
      ++counters.shards_quarantined;
      to_compute.push_back(s);
      continue;
    }
    if (manifest.value().workload != workload_->spec().name ||
        manifest.value().day != day_ || manifest.value().shard_index != s ||
        manifest.value().num_shards != options_.num_shards ||
        manifest.value().partition_hash != partition_hash) {
      // Intact commit from a different partitioning (other --shards value,
      // other day...): not damage, just not ours. Recompute over it.
      ++counters.shards_stale;
      to_compute.push_back(s);
      continue;
    }
    Result<std::string> artifact_read = ReadFileToString(artifact_path);
    if (!artifact_read.ok()) {
      to_compute.push_back(s);  // artifact vanished: plain recompute
      continue;
    }
    const std::string& artifact_bytes = artifact_read.value();
    if (static_cast<int64_t>(artifact_bytes.size()) != manifest.value().artifact_bytes ||
        Crc32(artifact_bytes) != manifest.value().artifact_crc32) {
      QuarantineFile(artifact_path);
      ++counters.shards_quarantined;
      to_compute.push_back(s);
      continue;
    }
    Result<ShardArtifact> artifact = ShardArtifact::Parse(artifact_bytes);
    if (!artifact.ok() || !manifest.value().Matches(artifact.value())) {
      QuarantineFile(artifact_path);
      ++counters.shards_quarantined;
      to_compute.push_back(s);
      continue;
    }
    artifacts[static_cast<size_t>(s)] = std::move(artifact.value());
    ++counters.shards_reused;
  }
  counters.shards_recomputed = static_cast<int>(to_compute.size());

  // ---- Phase 3: lease schedule over the shards to compute ----
  std::vector<int64_t> compute_job_counts;
  compute_job_counts.reserve(to_compute.size());
  for (int s : to_compute) {
    compute_job_counts.push_back(
        static_cast<int64_t>(shard_jobs[static_cast<size_t>(s)].size()));
  }
  std::vector<int> completion_order =
      SimulateLeases(compute_job_counts, options_, &counters);

  // ---- Phase 4: compute every needed job (parallel, shared cache) ----
  std::vector<std::pair<int, int>> flat;  // (shard, job index)
  for (int s : to_compute) {
    for (int j : shard_jobs[static_cast<size_t>(s)]) flat.emplace_back(s, j);
  }
  std::vector<JobOutput> outputs = ParallelMap<JobOutput>(
      impl_->pool.get(), static_cast<int64_t>(flat.size()), [&](int64_t i) -> JobOutput {
        const Job& job = jobs[static_cast<size_t>(flat[static_cast<size_t>(i)].second)];
        JobAnalysis analysis = impl_->pipeline->AnalyzeJob(job);
        JobOutput output = ReduceAnalysis(analysis);
        output.ranker_examples = std::move(analysis.ranker_examples);
        return output;
      });
  counters.jobs_analyzed = static_cast<int64_t>(flat.size());

  // Batch boundary for the ranker: replay this run's training examples in
  // *day order* (job index), not shard-flat order, so a full compute trains
  // the exact example stream of the unsharded pass — bit-identical ranker
  // bytes regardless of shard count, worker count, or lease schedule.
  if (impl_->pipeline->ranker_enabled()) {
    std::vector<size_t> day_order(flat.size());
    for (size_t i = 0; i < day_order.size(); ++i) day_order[i] = i;
    std::sort(day_order.begin(), day_order.end(), [&flat](size_t a, size_t b) {
      return flat[a].second < flat[b].second;
    });
    std::vector<RankerExample> examples;
    for (size_t i : day_order) {
      examples.insert(examples.end(), outputs[i].ranker_examples.begin(),
                      outputs[i].ranker_examples.end());
    }
    impl_->pipeline->TrainRankerExamples(examples);
    result.ranker_bytes = impl_->pipeline->SerializeRanker();
  }
  counters.budget = impl_->pipeline->budget_stats();

  std::map<int, std::vector<int>> shard_output_index;  // shard -> indices into outputs
  for (size_t i = 0; i < flat.size(); ++i) {
    shard_output_index[flat[i].first].push_back(static_cast<int>(i));
  }

  // ---- Phase 5: commit shards in lease completion order ----
  for (int pos : completion_order) {
    int s = to_compute[static_cast<size_t>(pos)];
    ShardArtifact artifact;
    artifact.workload = workload_->spec().name;
    artifact.day = day_;
    artifact.shard_index = s;
    artifact.num_shards = options_.num_shards;
    artifact.partition_hash = partition_hash;
    artifact.jobs = static_cast<int64_t>(shard_jobs[static_cast<size_t>(s)].size());
    std::map<std::string, ShardDiffRow> rows;
    for (int i : shard_output_index[s]) {
      const JobOutput& output = outputs[static_cast<size_t>(i)];
      if (output.has_obs) artifact.observations.push_back(output.obs);
      if (output.has_row) KeepBetterRow(&rows, output.row);
    }
    artifact.diff_rows = RowsInOrder(rows);

    const std::string artifact_path = options_.dir + "/" + ShardArtifactName(s);
    const std::string artifact_bytes = artifact.Serialize();

    bool tear = false;
    if (crash_at("pre-artifact", s, &tear)) {
      if (tear) WriteTornFile(artifact_path, artifact_bytes);
      return result;
    }
    Status status = AtomicWriteFile(artifact_path, artifact_bytes, options_.sync);
    if (!status.ok()) return status;

    if (crash_at("pre-manifest", s, &tear)) {
      if (tear) WriteTornFile(artifact_path, artifact_bytes);
      return result;
    }
    ShardManifest manifest;
    manifest.workload = artifact.workload;
    manifest.day = artifact.day;
    manifest.shard_index = s;
    manifest.num_shards = artifact.num_shards;
    manifest.partition_hash = partition_hash;
    manifest.jobs = artifact.jobs;
    manifest.groups = static_cast<int64_t>(artifact.diff_rows.size());
    manifest.attempt = 1;
    manifest.artifact_file = ShardArtifactName(s);
    manifest.artifact_bytes = static_cast<int64_t>(artifact_bytes.size());
    manifest.artifact_crc32 = Crc32(artifact_bytes);
    status = WriteArtifact(options_.dir + "/" + ShardManifestName(s), kShardManifestHeader,
                           manifest.Serialize(), options_.sync);
    if (!status.ok()) return status;

    artifacts[static_cast<size_t>(s)] = std::move(artifact);

    if (crash_at("post-manifest", s, &tear)) {
      // Tear here models post-commit bit rot: the manifest is valid but the
      // artifact bytes no longer match its fingerprint — resume must
      // quarantine and recompute, never merge.
      if (tear) WriteTornFile(artifact_path, artifact_bytes);
      return result;
    }
  }

  if (crash_at("pre-merge", -1, nullptr)) return result;

  // ---- Phase 6: pure deterministic union of the shard artifacts ----
  SteeringRecommender merged;
  std::map<std::string, ShardDiffRow> merged_rows;
  for (int s = 0; s < options_.num_shards; ++s) {
    if (!artifacts[static_cast<size_t>(s)].has_value()) continue;
    const ShardArtifact& artifact = *artifacts[static_cast<size_t>(s)];
    Status status = ReplayObservations(artifact, &merged);
    if (!status.ok()) return status;
    for (const ShardDiffRow& row : artifact.diff_rows) KeepBetterRow(&merged_rows, row);
  }
  result.merged_store = merged.Serialize();
  result.merged_diff_table = RenderDiffTable(RowsInOrder(merged_rows));

  Status status = WriteArtifact(options_.dir + "/merged_recommendations.qrs",
                                kRecommenderStoreHeader, result.merged_store, options_.sync);
  if (!status.ok()) return status;
  status = WriteArtifact(options_.dir + "/merged_rulediff.txt", kRuleDiffHeader,
                         result.merged_diff_table, options_.sync);
  if (!status.ok()) return status;

  if (!options_.save_cache_file.empty()) {
    status = impl_->pipeline->SaveCompileCache(options_.save_cache_file, day_,
                                               options_.sync);
    if (!status.ok()) return status;
  }
  if (!options_.ranker_out.empty()) {
    // SaveRanker returns kFailedPrecondition when ranking is off: asking to
    // persist a ranker that never existed is a configuration error.
    status = impl_->pipeline->SaveRanker(options_.ranker_out, options_.sync);
    if (!status.ok()) return status;
  }

  if (crash_at("post-merge", -1, nullptr)) return result;

  result.completed = true;
  std::ostringstream summary;
  summary << "workload " << workload_->spec().name << "\n";
  summary << "day " << day_ << "\n";
  summary << "shards " << options_.num_shards << "\n";
  summary << "merged_groups " << merged_rows.size() << "\n";
  summary << counters.ToString();
  status = WriteArtifact(options_.dir + "/discovery_summary.txt", kDiscoverySummaryHeader,
                         summary.str(), options_.sync);
  if (!status.ok()) return status;
  return result;
}

Result<UnshardedDiscovery> DiscoverUnsharded(const Workload* workload, int day,
                                             const DiscoveryOptions& options) {
  Optimizer optimizer(&workload->catalog());
  ExecutionSimulator simulator(&workload->catalog());
  std::vector<Job> jobs = SelectJobs(*workload, day, options.max_jobs);
  PipelineOptions pipeline_options =
      ApplyFleetBudget(options.pipeline, options, static_cast<int64_t>(jobs.size()));
  pipeline_options.num_threads = options.num_workers;
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  if (!options.warm_cache_file.empty()) {
    // qsteer-lint: allow(unchecked-status) rejection means a cold start, which is always correct
    (void)pipeline.WarmCompileCache(options.warm_cache_file, day);
  }
  if (!options.ranker_in.empty() && pipeline.ranker_enabled()) {
    // qsteer-lint: allow(unchecked-status) a rejected ranker file leaves the fresh ranker, which is valid
    (void)pipeline.WarmRanker(options.ranker_in);
  }

  // AnalyzeJobs trains the ranker at the batch boundary in job (= day)
  // order — the reference example stream the sharded pass must reproduce.
  std::vector<JobAnalysis> analyses = pipeline.AnalyzeJobs(jobs);

  UnshardedDiscovery out;
  out.jobs_analyzed = static_cast<int64_t>(analyses.size());
  out.ranker_bytes = pipeline.SerializeRanker();
  SteeringRecommender store;
  std::map<std::string, ShardDiffRow> rows;
  for (const JobAnalysis& analysis : analyses) {
    // Learn the in-memory observation directly — the sharded pass goes
    // through the artifact text round trip, so byte-equality of the two
    // stores also proves the round trip exact.
    std::optional<SteeringRecommender::CandidateObservation> candidate =
        SteeringRecommender::ExtractCandidate(analysis, RecommenderOptions{});
    if (candidate.has_value()) store.LearnCandidate(*candidate);
    JobOutput output = ReduceAnalysis(analysis);
    if (output.has_row) KeepBetterRow(&rows, output.row);
  }
  out.store = store.Serialize();
  out.diff_table = RenderDiffTable(RowsInOrder(rows));
  return out;
}

}  // namespace qsteer
