// Deterministic chaos soak of the crash-safe steering service.
//
// Store-level soak: a fixed script of recommender events (learns,
// validations, outcomes, breaker-ticking lookups) runs once uninterrupted
// to produce a golden serialized store, then re-runs with a simulated crash
// (the store object dropped — no snapshot, no drain) at injection points
// chosen by hashing a fixed seed. After every crash the recovered store
// must be bit-identical to an uninterrupted run of the same prefix, and
// finishing the script must land bit-identical on the golden bytes.
//
// Corruption soak: WAL tails torn at arbitrary byte lengths and corrupt
// snapshots must be detected (truncated / hard error), never mis-parsed.
//
// Service-level: admission control (deadline shedding, bounded-queue
// rejection), Kill() failing queued requests with a distinct status,
// drain/shutdown losing no acknowledged learning across a restart, the
// validation gate retiring a candidate that regresses on re-run, and the
// re-analysis worker validating what it learns.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/file_io.h"
#include "common/hash.h"
#include "service/steering_service.h"
#include "workload/generator.h"

namespace qsteer {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_chaos_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

RuleSignature Sig(int bit) {
  RuleSignature s;
  s.Set(bit);
  return s;
}

RuleConfig AltConfig(int n) {
  // The n-th distinct single-rule deviation from the default configuration
  // (toggling an arbitrary id can be a no-op; pick toggles that stick).
  RuleConfig def = RuleConfig::Default();
  std::vector<int> toggleable;
  for (int id = 0; id < 256; ++id) {
    RuleConfig config = def;
    if (config.IsEnabled(id)) {
      config.Disable(id);
    } else {
      config.Enable(id);
    }
    if (config != def) toggleable.push_back(id);
  }
  RuleConfig config = def;
  int id = toggleable[static_cast<size_t>(n) % toggleable.size()];
  if (config.IsEnabled(id)) {
    config.Disable(id);
  } else {
    config.Enable(id);
  }
  return config;
}

struct Event {
  char type;  // 'L' learn, 'V' validation, 'O' outcome, 'R' recommend
  int sig;
  int cfg;
  double change;
};

void ApplyEvent(DurableRecommenderStore& store, const Event& event) {
  switch (event.type) {
    case 'L': {
      SteeringRecommender::CandidateObservation observation;
      observation.signature = Sig(event.sig);
      observation.config = AltConfig(event.cfg);
      observation.improvement_pct = event.change;
      store.LearnCandidate(observation);
      break;
    }
    case 'V':
      store.ObserveValidation(Sig(event.sig), event.change);
      break;
    case 'O':
      store.ObserveOutcome(Sig(event.sig), event.change);
      break;
    case 'R':
      store.Recommend(Sig(event.sig));
      break;
  }
}

/// One simulated "day" of recommender traffic exercising every journaled
/// event type and every breaker transition: candidates learned and
/// validated, groups serving cleanly, groups regressing until their
/// breakers trip (rollback), cooldown ticks while open (the mutating
/// lookups), half-open probes, replacement candidates, and retirement.
std::vector<Event> MakeScript() {
  std::vector<Event> script;
  constexpr int kGroups = 6;
  for (int g = 0; g < kGroups; ++g) {
    script.push_back({'L', g, g, -20.0 - g});
    script.push_back({'V', g, 0, -10.0});
    script.push_back({'V', g, 0, -12.0});
  }
  // Serving rounds: groups 0 and 1 regress persistently (their breakers
  // trip, cool down, probe, trip again, and eventually retire); the rest
  // serve cleanly.
  for (int round = 0; round < 8; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      script.push_back({'R', g, 0, 0.0});
      script.push_back({'O', g, 0, g < 2 ? 40.0 + round : -8.0});
    }
    // Extra lookups against the troubled groups: while their breakers are
    // open these tick the cooldown clock — the mutation Recommend journals.
    for (int i = 0; i < 4; ++i) script.push_back({'R', i % 2, 0, 0.0});
  }
  // A better replacement candidate for group 3 (must re-validate), one that
  // regresses under validation for group 4 (rejected outright), and a
  // brand-new group that never finishes validating.
  script.push_back({'L', 3, 17, -45.0});
  script.push_back({'V', 3, 0, -30.0});
  script.push_back({'V', 3, 0, -28.0});
  script.push_back({'L', 4, 23, -60.0});
  script.push_back({'V', 4, 0, 55.0});
  script.push_back({'L', 40, 29, -33.0});
  script.push_back({'V', 40, 0, -15.0});
  for (int g = 0; g < kGroups; ++g) {
    script.push_back({'R', g, 0, 0.0});
    script.push_back({'O', g, 0, -6.0});
  }
  return script;
}

DurableStoreOptions StoreOptions(const std::string& dir, int snapshot_interval = 7) {
  DurableStoreOptions options;
  options.dir = dir;
  options.snapshot_interval = snapshot_interval;
  options.sync = false;  // tmpfs-friendly; rename atomicity is what matters
  return options;
}

std::string RunScriptEphemeral(const std::vector<Event>& script, size_t count) {
  DurableRecommenderStore store;  // empty dir: ephemeral
  EXPECT_TRUE(store.Open().ok());
  for (size_t i = 0; i < count && i < script.size(); ++i) ApplyEvent(store, script[i]);
  return store.SerializeState();
}

TEST(DurableStoreChaosTest, UninterruptedDurableRunMatchesEphemeral) {
  std::vector<Event> script = MakeScript();
  TempDir dir;
  DurableRecommenderStore store(StoreOptions(dir.path()));
  ASSERT_TRUE(store.Open().ok());
  for (const Event& event : script) ApplyEvent(store, event);
  EXPECT_EQ(store.SerializeState(), RunScriptEphemeral(script, script.size()));
  EXPECT_GT(store.snapshots_taken(), 0);
  EXPECT_GT(store.applied_seq(), 0u);
}

// The tentpole assertion: crash anywhere, recover, finish the day, and the
// final recommendation table is bit-identical to the uninterrupted run.
TEST(DurableStoreChaosTest, CrashAtHashedInjectionPointsRecoversBitIdentical) {
  std::vector<Event> script = MakeScript();
  const std::string golden = RunScriptEphemeral(script, script.size());
  constexpr uint64_t kSeed = 0x5eed5eed;
  constexpr int kCrashes = 12;
  for (int k = 0; k < kCrashes; ++k) {
    size_t crash_at = Mix64(kSeed ^ static_cast<uint64_t>(k)) % (script.size() + 1);
    SCOPED_TRACE("crash after event " + std::to_string(crash_at));
    TempDir dir;
    auto store = std::make_unique<DurableRecommenderStore>(StoreOptions(dir.path()));
    ASSERT_TRUE(store->Open().ok());
    for (size_t i = 0; i < crash_at; ++i) ApplyEvent(*store, script[i]);
    store.reset();  // crash: no snapshot, no drain — disk is all that survives

    DurableRecommenderStore recovered(StoreOptions(dir.path()));
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_EQ(recovered.SerializeState(), RunScriptEphemeral(script, crash_at))
        << "recovered state diverges from the pre-crash store";
    for (size_t i = crash_at; i < script.size(); ++i) ApplyEvent(recovered, script[i]);
    EXPECT_EQ(recovered.SerializeState(), golden)
        << "post-recovery run diverges from the uninterrupted run";
  }
}

// Crash in the window between snapshot write and WAL reset: the WAL still
// holds events the snapshot already captured; recovery must skip them by
// sequence number instead of applying them twice.
TEST(DurableStoreChaosTest, CrashBetweenSnapshotAndWalResetDoesNotDoubleApply) {
  std::vector<Event> script = MakeScript();
  const std::string golden = RunScriptEphemeral(script, script.size());
  for (size_t crash_at : {static_cast<size_t>(21), script.size() / 2, script.size()}) {
    SCOPED_TRACE("crash after event " + std::to_string(crash_at));
    TempDir dir;
    DurableStoreOptions options = StoreOptions(dir.path());
    options.testing_skip_wal_reset_after_snapshot = true;  // simulate the window
    auto store = std::make_unique<DurableRecommenderStore>(options);
    ASSERT_TRUE(store->Open().ok());
    for (size_t i = 0; i < crash_at; ++i) ApplyEvent(*store, script[i]);
    store.reset();

    DurableRecommenderStore recovered(StoreOptions(dir.path()));
    ASSERT_TRUE(recovered.Open().ok());
    EXPECT_GT(recovered.recovery().wal_records_skipped, 0)
        << "the crash window should leave already-snapshotted records in the WAL";
    EXPECT_EQ(recovered.SerializeState(), RunScriptEphemeral(script, crash_at));
    for (size_t i = crash_at; i < script.size(); ++i) ApplyEvent(recovered, script[i]);
    EXPECT_EQ(recovered.SerializeState(), golden);
  }
}

// Torn WAL tails (crash mid-append) at arbitrary byte lengths: recovery
// truncates back to the longest intact record prefix and resumes from
// exactly the state those records produce.
TEST(DurableStoreChaosTest, TornWalTailIsTruncatedToIntactPrefix) {
  std::vector<Event> script = MakeScript();
  TempDir dir;
  std::string wal_path;
  // Reference state keyed by sequence number. Not every event journals (a
  // Recommend on a closed breaker is a pure read — no WAL record and no
  // state change), so the map, not a script index, is what a recovered
  // applied_seq maps back to.
  std::vector<std::string> state_at_seq;
  {
    // Large snapshot interval: the whole script stays in the WAL.
    DurableRecommenderStore store(StoreOptions(dir.path(), /*snapshot_interval=*/100000));
    ASSERT_TRUE(store.Open().ok());
    state_at_seq.assign(1, store.SerializeState());  // seq 0 = empty store
    for (const Event& event : script) {
      ApplyEvent(store, event);
      state_at_seq.resize(store.applied_seq() + 1);
      state_at_seq[store.applied_seq()] = store.SerializeState();
    }
    wal_path = store.wal_path();
  }
  std::ifstream in(wal_path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  constexpr uint64_t kSeed = 0x7042;
  for (int k = 0; k < 8; ++k) {
    size_t cut = Mix64(kSeed ^ static_cast<uint64_t>(k)) % full.size();
    SCOPED_TRACE("wal cut to " + std::to_string(cut) + " of " + std::to_string(full.size()));
    std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, cut);
    out.close();

    DurableRecommenderStore recovered(StoreOptions(dir.path(), 100000));
    ASSERT_TRUE(recovered.Open().ok()) << "a torn tail must not fail recovery";
    uint64_t intact = recovered.applied_seq();
    ASSERT_LT(intact, state_at_seq.size());
    EXPECT_EQ(recovered.SerializeState(), state_at_seq[intact]);
  }
}

TEST(DurableStoreChaosTest, CorruptSnapshotIsAHardError) {
  std::vector<Event> script = MakeScript();
  TempDir dir;
  std::string snapshot_path;
  {
    DurableRecommenderStore store(StoreOptions(dir.path(), /*snapshot_interval=*/5));
    ASSERT_TRUE(store.Open().ok());
    for (const Event& event : script) ApplyEvent(store, event);
    ASSERT_TRUE(store.Snapshot().ok());
    snapshot_path = store.snapshot_path();
  }
  std::fstream file(snapshot_path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(24);
  char byte = 0;
  file.seekg(24);
  file.get(byte);
  file.seekp(24);
  file.put(static_cast<char>(byte ^ 0x01));
  file.close();

  DurableRecommenderStore corrupted(StoreOptions(dir.path(), 5));
  Status status = corrupted.Open();
  ASSERT_FALSE(status.ok()) << "a corrupt snapshot must not load silently";
}

// Writes a store's snapshot for the script and returns its path.
std::string WriteScriptSnapshot(const std::string& dir) {
  DurableRecommenderStore store(StoreOptions(dir, /*snapshot_interval=*/5));
  EXPECT_TRUE(store.Open().ok());
  for (const Event& event : MakeScript()) ApplyEvent(store, event);
  EXPECT_TRUE(store.Snapshot().ok());
  return store.snapshot_path();
}

TEST(DurableStoreChaosTest, SnapshotCutBeforeFooterIsAHardError) {
  TempDir dir;
  std::string path = WriteScriptSnapshot(dir.path());
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  size_t footer = bytes.value().rfind("# crc32 ");
  ASSERT_NE(footer, std::string::npos);
  // Every line before the footer is intact: only the missing footer tells.
  ASSERT_TRUE(AtomicWriteFile(path, bytes.value().substr(0, footer), /*sync=*/false).ok());

  DurableRecommenderStore reopened(StoreOptions(dir.path(), 5));
  EXPECT_FALSE(reopened.Open().ok()) << "a snapshot without its footer must not load";
}

TEST(DurableStoreChaosTest, SnapshotWithoutSeqWatermarkIsAHardError) {
  TempDir dir;
  std::string path = WriteScriptSnapshot(dir.path());
  Result<std::string> content = ReadArtifact(path, kRecommenderStoreHeader);
  ASSERT_TRUE(content.ok());
  std::string stripped;
  std::istringstream lines(content.value());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# seq ", 0) != 0) stripped += line + "\n";
  }
  ASSERT_NE(stripped, content.value());
  // A valid footer over the rest: the checksum alone cannot catch this.
  ASSERT_TRUE(WriteArtifact(path, kRecommenderStoreHeader, stripped, /*sync=*/false).ok());

  DurableRecommenderStore reopened(StoreOptions(dir.path(), 5));
  EXPECT_FALSE(reopened.Open().ok()) << "a snapshot without its watermark must not load";
}

TEST(DurableStoreChaosTest, SnapshotUnderAnotherHeaderIsAHardError) {
  // A footered file whose first line is not the store header is some other
  // format; its lines must never load as store entries.
  TempDir dir;
  std::string path = WriteScriptSnapshot(dir.path());
  Result<std::string> body = ReadArtifact(path, kRecommenderStoreHeader);
  ASSERT_TRUE(body.ok());
  ASSERT_TRUE(
      WriteArtifact(path, "# qsteer-recommender-store v1", body.value(), /*sync=*/false).ok());

  DurableRecommenderStore reopened(StoreOptions(dir.path(), 5));
  Status status = reopened.Open();
  ASSERT_FALSE(status.ok()) << "a snapshot under another header must not load";
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(DurableStoreChaosTest, MalformedSeqInstallLeavesStateUntouched) {
  TempDir dir;
  DurableRecommenderStore store(StoreOptions(dir.path(), 5));
  ASSERT_TRUE(store.Open().ok());
  for (const Event& event : MakeScript()) ApplyEvent(store, event);
  const std::string before = store.SerializeForReplication();
  const std::string body = before.substr(0, before.rfind("# seq "));
  for (const char* watermark :
       {"", "# seq \n", "# seq 12x\n", "# seq -1\n", "# seq 18446744073709551616\n"}) {
    EXPECT_FALSE(store.InstallSnapshot(body + watermark).ok()) << '"' << watermark << '"';
    EXPECT_EQ(store.SerializeForReplication(), before) << '"' << watermark << '"';
  }
}

TEST(DurableStoreChaosTest, EphemeralStoreNeedsNoFiles) {
  DurableRecommenderStore store;
  ASSERT_TRUE(store.Open().ok());
  ApplyEvent(store, {'L', 1, 1, -25.0});
  EXPECT_EQ(store.num_groups(), 1);
  EXPECT_FALSE(store.durable());
  EXPECT_EQ(store.snapshots_taken(), 0);
}

// ------------------------------------------------------------ service level

struct ServiceFixture {
  ServiceFixture()
      : workload(WorkloadSpec::WorkloadB(0.003)),
        optimizer(&workload.catalog()),
        simulator(&workload.catalog(), [] {
          SimulatorOptions options;
          options.deterministic = true;
          return options;
        }()) {}

  Workload workload;
  Optimizer optimizer;
  ExecutionSimulator simulator;
};

TEST(SteeringServiceTest, WarmCacheFileWarmsAtStartAndDegradesColdOnDamage) {
  // ServiceOptions::warm_cache_file: a discovery-shipped cache artifact
  // pre-warms the serving pipeline at Start(); the health snapshot reports
  // the warm-load counters; damage is never fatal — the service starts
  // cold and counts the rejection.
  ServiceFixture fx;
  TempDir dir;
  std::string cache_file = dir.path() + "/warm.qcc";
  {
    SteeringPipeline pipeline(&fx.optimizer, &fx.simulator, {});
    std::vector<Job> jobs = fx.workload.JobsForDay(1);
    for (size_t i = 0; i < 3 && i < jobs.size(); ++i) pipeline.AnalyzeJob(jobs[i]);
    ASSERT_TRUE(pipeline.SaveCompileCache(cache_file, /*day=*/1, /*sync=*/false).ok());
  }
  ServiceOptions options;
  options.num_workers = 1;
  options.warm_cache_file = cache_file;
  options.warm_cache_day = 1;
  {
    SteeringService service(&fx.optimizer, &fx.simulator, options);
    ASSERT_TRUE(service.Start().ok());
    ServiceStatusSnapshot status = service.status();
    EXPECT_GT(status.cache.warm_loaded, 0);
    EXPECT_EQ(status.cache.warm_rejected, 0);
    EXPECT_NE(status.ToString().find("warm_loaded"), std::string::npos);
    ASSERT_TRUE(service.Shutdown().ok());
  }
  {
    std::ifstream in(cache_file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream out(cache_file, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  {
    SteeringService service(&fx.optimizer, &fx.simulator, options);
    ASSERT_TRUE(service.Start().ok()) << "a damaged warm file must not block startup";
    ServiceStatusSnapshot status = service.status();
    EXPECT_EQ(status.cache.warm_loaded, 0);
    EXPECT_EQ(status.cache.warm_rejected, 1);
    ASSERT_TRUE(service.Shutdown().ok());
  }
}

TEST(SteeringServiceTest, ShedsDeadlineDoomedRequestsWithDistinctStatus) {
  ServiceFixture fx;
  ServiceOptions options;
  options.num_workers = 0;  // deterministic: nothing drains the queue
  options.queue_capacity = 16;
  options.initial_service_time_ewma_s = 10.0;  // every queued item "costs" 10s
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<Job> jobs = fx.workload.JobsForDay(1);
  ASSERT_GE(jobs.size(), 3u);

  // Queue empty: estimated wait 0, any deadline is satisfiable.
  ServiceRequest first;
  first.job = jobs[0];
  first.deadline_s = 5.0;
  EXPECT_EQ(service.Submit(first, nullptr), AdmitResult::kAccepted);

  // One item ahead at 10s EWMA: a 5s deadline cannot be met -> shed.
  ServiceRequest doomed;
  doomed.job = jobs[1];
  doomed.deadline_s = 5.0;
  EXPECT_EQ(service.Submit(doomed, nullptr), AdmitResult::kShedDeadline);

  // Same load, patient deadline -> accepted.
  ServiceRequest patient;
  patient.job = jobs[2];
  patient.deadline_s = 1000.0;
  EXPECT_EQ(service.Submit(patient, nullptr), AdmitResult::kAccepted);

  ServiceStatusSnapshot status = service.status();
  EXPECT_EQ(status.accepted, 2);
  EXPECT_EQ(status.shed_deadline, 1);
  EXPECT_EQ(status.queue_depth, 2);
  service.Kill();
}

TEST(SteeringServiceTest, RejectsWhenQueueFullAndNeverBlocks) {
  ServiceFixture fx;
  ServiceOptions options;
  options.num_workers = 0;
  options.queue_capacity = 3;
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<Job> jobs = fx.workload.JobsForDay(1);
  ASSERT_GE(jobs.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    ServiceRequest request;
    request.job = jobs[static_cast<size_t>(i)];
    EXPECT_EQ(service.Submit(request, nullptr), AdmitResult::kAccepted);
  }
  ServiceRequest overflow;
  overflow.job = jobs[3];
  EXPECT_EQ(service.Submit(overflow, nullptr), AdmitResult::kQueueFull);
  ServiceStatusSnapshot status = service.status();
  EXPECT_EQ(status.rejected_queue_full, 1);
  EXPECT_EQ(status.queue_high_water, 3);
  service.Kill();
}

TEST(SteeringServiceTest, KillFailsQueuedRequestsAndRejectsNewOnes) {
  ServiceFixture fx;
  ServiceOptions options;
  options.num_workers = 0;
  options.queue_capacity = 8;
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<Job> jobs = fx.workload.JobsForDay(1);
  std::vector<std::future<ServiceReply>> replies;
  for (int i = 0; i < 3; ++i) {
    ServiceRequest request;
    request.job = jobs[static_cast<size_t>(i)];
    std::future<ServiceReply> reply;
    ASSERT_EQ(service.Submit(request, &reply), AdmitResult::kAccepted);
    replies.push_back(std::move(reply));
  }
  service.Kill();
  for (std::future<ServiceReply>& reply : replies) {
    ServiceReply result = reply.get();  // must not hang
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  }
  ServiceRequest late;
  late.job = jobs[0];
  EXPECT_EQ(service.Submit(late, nullptr), AdmitResult::kNotRunning);
  EXPECT_EQ(service.status().failed, 3);
}

TEST(SteeringServiceTest, ServesRequestsAndShutsDownCleanly) {
  ServiceFixture fx;
  TempDir dir;
  ServiceOptions options;
  options.num_workers = 2;
  options.store = [&] {
    DurableStoreOptions store;
    store.dir = dir.path();
    store.snapshot_interval = 4;
    store.sync = false;
    return store;
  }();
  std::string final_state;
  {
    SteeringService service(&fx.optimizer, &fx.simulator, options);
    ASSERT_TRUE(service.Start().ok());
    // Teach it one group so serving has something to recommend.
    std::vector<Job> jobs = fx.workload.JobsForDay(1);
    SteeringPipeline pipeline(&fx.optimizer, &fx.simulator, {});
    for (size_t i = 0; i < 4 && i < jobs.size(); ++i) {
      service.store().LearnFromAnalysis(pipeline.AnalyzeJob(jobs[i]));
    }
    for (const SteeringRecommender::ValidationRequest& request :
         service.store().PendingValidations()) {
      service.store().ObserveValidation(request.signature, -10.0);
      service.store().ObserveValidation(request.signature, -10.0);
    }
    std::vector<std::future<ServiceReply>> replies;
    for (size_t i = 0; i < 8 && i < jobs.size(); ++i) {
      ServiceRequest request;
      request.job = jobs[i];
      std::future<ServiceReply> reply;
      if (service.Submit(request, &reply) == AdmitResult::kAccepted) {
        replies.push_back(std::move(reply));
      }
    }
    for (std::future<ServiceReply>& reply : replies) {
      ServiceReply result = reply.get();
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_GT(result.default_runtime_s, 0.0);
    }
    ASSERT_TRUE(service.Shutdown().ok());
    ServiceStatusSnapshot status = service.status();
    EXPECT_FALSE(status.running);
    EXPECT_EQ(status.completed, status.accepted);
    EXPECT_EQ(status.queue_depth, 0);
    EXPECT_EQ(status.wal_lag, 0) << "clean shutdown must leave no WAL replay debt";
    final_state = service.store().SerializeState();
    // Each counter set is embedded whole from its owner and rendered once.
    const std::string cache = service.pipeline().compile_cache_stats().ToString();
    const std::string budget = service.pipeline().budget_stats().ToString();
    const std::string recovery = service.store().recovery().ToString();
    const std::string failures = service.pipeline().failure_stats().ToString();
    EXPECT_EQ(status.cache.ToString(), cache);
    EXPECT_EQ(status.budget.ToString(), budget);
    EXPECT_EQ(status.recovery.ToString(), recovery);
    EXPECT_EQ(status.failures.ToString(), failures);
    const std::string text = status.ToString();
    for (const std::string& part : {cache, budget, recovery, failures}) {
      size_t at = text.find(part);
      ASSERT_NE(at, std::string::npos) << part;
      EXPECT_EQ(text.find(part, at + 1), std::string::npos) << part;
    }
  }
  // Every acknowledged mutation survives the restart.
  DurableRecommenderStore reopened([&] {
    DurableStoreOptions store;
    store.dir = dir.path();
    store.sync = false;
    return store;
  }());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.SerializeState(), final_state);
}

TEST(SteeringServiceTest, CrashMidServingRecoversBitIdentical) {
  ServiceFixture fx;
  TempDir dir;
  ServiceOptions options;
  options.num_workers = 2;
  options.store.dir = dir.path();
  options.store.snapshot_interval = 3;
  options.store.sync = false;
  std::string pre_crash_state;
  {
    SteeringService service(&fx.optimizer, &fx.simulator, options);
    ASSERT_TRUE(service.Start().ok());
    std::vector<Job> jobs = fx.workload.JobsForDay(2);
    SteeringPipeline pipeline(&fx.optimizer, &fx.simulator, {});
    for (size_t i = 0; i < 5 && i < jobs.size(); ++i) {
      service.store().LearnFromAnalysis(pipeline.AnalyzeJob(jobs[i]));
    }
    for (const SteeringRecommender::ValidationRequest& request :
         service.store().PendingValidations()) {
      service.store().ObserveValidation(request.signature, -10.0);
      service.store().ObserveValidation(request.signature, -10.0);
    }
    std::vector<std::future<ServiceReply>> replies;
    for (size_t i = 0; i < 6 && i < jobs.size(); ++i) {
      ServiceRequest request;
      request.job = jobs[i];
      std::future<ServiceReply> reply;
      if (service.Submit(request, &reply) == AdmitResult::kAccepted) {
        replies.push_back(std::move(reply));
      }
    }
    service.Kill();  // crash mid-day: some requests served, some failed
    for (std::future<ServiceReply>& reply : replies) reply.get();  // none hang
    pre_crash_state = service.store().SerializeState();
  }
  SteeringService recovered(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.store().SerializeState(), pre_crash_state)
      << "recovered recommendation table must be bit-identical to the "
         "pre-crash store";
  recovered.Kill();
}

TEST(SteeringServiceTest, ReanalysisSupersededBeforeStartIsAbandoned) {
  ServiceFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  // Tiny pipeline so the background analysis is cheap when it does run.
  options.pipeline.max_candidate_configs = 4;
  options.pipeline.configs_to_execute = 1;
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(service.Start().ok());
  std::vector<Job> jobs = fx.workload.JobsForDay(1);
  ASSERT_GE(jobs.size(), 2u);
  EXPECT_TRUE(service.RequestReanalysis(jobs[0]));
  // Superseding request: the first one now belongs to an older generation
  // (whether still pending or mid-analysis) and must be counted abandoned,
  // not applied twice.
  EXPECT_TRUE(service.RequestReanalysis(jobs[1]));
  ASSERT_TRUE(service.Shutdown().ok());
  ServiceStatusSnapshot status = service.status();
  EXPECT_GE(status.reanalyses_abandoned + status.reanalyses_completed, 1);
}

TEST(SteeringServiceTest, ValidationGateRetiresACandidateThatRegressesOnReRun) {
  // A candidate learned with a claimed -20% improvement whose configuration
  // actually ran >= 10% slower than the default in its analysis. The
  // fixture's simulator is deterministic, so the gate's re-run regresses
  // too: the candidate is retired and never serves.
  ServiceFixture fx;
  SteeringPipeline pipeline(&fx.optimizer, &fx.simulator, {});
  std::unordered_map<std::string, Job> group_jobs;
  SteeringRecommender::CandidateObservation observation;
  observation.improvement_pct = -20.0;
  for (const Job& job : fx.workload.JobsForDay(1)) {
    JobAnalysis analysis = pipeline.AnalyzeJob(job);
    if (analysis.default_metrics.failed) continue;
    for (const ConfigOutcome& outcome : analysis.executed) {
      if (outcome.metrics.failed ||
          outcome.metrics.runtime < 1.1 * analysis.default_metrics.runtime) {
        continue;
      }
      observation.signature = analysis.default_plan.signature;
      observation.config = outcome.config;
      group_jobs.emplace(observation.signature.ToHexString(), job);
      break;
    }
    if (!group_jobs.empty()) break;
  }
  ASSERT_FALSE(group_jobs.empty()) << "no executed alternative ran 10% slower";
  DurableRecommenderStore store;
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.LearnCandidate(observation));
  ASSERT_TRUE(RunValidationGate(pipeline, group_jobs, store).ok());
  EXPECT_EQ(store.num_retired(), 1);
  EXPECT_EQ(store.num_serving(), 0);
  EXPECT_EQ(store.num_pending_validation(), 0);
  EXPECT_TRUE(store.RecommendFast(observation.signature).is_default);
}

TEST(SteeringServiceTest, ReanalysisValidatesWhatItLearns) {
  ServiceFixture fx;
  ServiceOptions options;
  options.num_workers = 1;
  // A day-1 job whose analysis (under the service's pipeline options)
  // yields a candidate.
  SteeringPipeline pipeline(&fx.optimizer, &fx.simulator, options.pipeline);
  std::optional<Job> learning_job;
  for (const Job& job : fx.workload.JobsForDay(1)) {
    if (SteeringRecommender::ExtractCandidate(pipeline.AnalyzeJob(job),
                                              options.store.recommender)) {
      learning_job = job;
      break;
    }
  }
  ASSERT_TRUE(learning_job.has_value());
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  ASSERT_TRUE(service.Start().ok());
  ASSERT_TRUE(service.RequestReanalysis(*learning_job));
  // Shutdown abandons an analysis still in flight, so wait for this one.
  for (int i = 0; i < 120000 && service.status().reanalyses_completed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.status().reanalyses_completed, 1);
  ASSERT_TRUE(service.Shutdown().ok());
  ServiceStatusSnapshot status = service.status();
  EXPECT_EQ(status.pending_validation, 0) << "the worker's candidate was never validated";
  EXPECT_EQ(status.serving + status.retired, 1);
}

TEST(SteeringServiceTest, StartFailsOnUnreadableStoreDirectory) {
  ServiceFixture fx;
  ServiceOptions options;
  options.store.dir = "/nonexistent/qsteer/store/dir";
  SteeringService service(&fx.optimizer, &fx.simulator, options);
  EXPECT_FALSE(service.Start().ok());
  // A failed start leaves the service stopped; submits are rejected.
  EXPECT_EQ(service.Submit(ServiceRequest{}, nullptr), AdmitResult::kNotRunning);
}

}  // namespace
}  // namespace qsteer
