// Unit tests of the durability primitives under the steering service:
// CRC32, atomic file I/O, the checksummed artifact codec, the write-ahead
// log (roundtrip, torn-tail truncation, corrupt-record truncation, snapshot
// reset), and the bounded MPMC request queue.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "common/wal.h"
#include "service/durable_store.h"

namespace qsteer {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("qsteer_wal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

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

// ---------------------------------------------------------------- crc32

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
}

TEST(Crc32Test, EmptyAndIncremental) {
  EXPECT_EQ(Crc32(""), 0u);
  std::string data = "the quick brown fox";
  uint32_t one_shot = Crc32(data);
  uint32_t incremental = Crc32Update(0, data.data(), 10);
  incremental = Crc32Update(incremental, data.data() + 10, data.size() - 10);
  EXPECT_EQ(one_shot, incremental);
  EXPECT_NE(Crc32("the quick brown fox!"), one_shot);
}

// -------------------------------------------------------------- file_io

TEST(FileIoTest, ReadMissingFileIsNotFound) {
  TempDir dir;
  Result<std::string> result = ReadFileToString(dir.Path("absent"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FileIoTest, AtomicWriteRoundTripsAndReplacesWholly) {
  TempDir dir;
  std::string path = dir.Path("state.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "first version", /*sync=*/false).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "first version");
  ASSERT_TRUE(AtomicWriteFile(path, "v2", /*sync=*/false).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "v2");
  // No temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FileIoTest, ArtifactRoundTrip) {
  TempDir dir;
  std::string path = dir.Path("store.qrs");
  std::string body = "line one\nline two\n";
  ASSERT_TRUE(WriteArtifact(path, "fmt v1", body, /*sync=*/false).ok());
  Result<std::string> loaded = ReadArtifact(path, "fmt v1");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), body);
}

TEST(FileIoTest, ArtifactFramingIsHeaderBodyFooter) {
  // The exact bytes every durable file has on disk; the crc32 covers the
  // header line and the body.
  TempDir dir;
  std::string path = dir.Path("pinned.txt");
  ASSERT_TRUE(WriteArtifact(path, "fmt v1", "x\n", /*sync=*/false).ok());
  EXPECT_EQ(RawRead(path), "fmt v1\nx\n# crc32 a9b4bd79\n");
}

TEST(FileIoTest, CorruptArtifactIsRejected) {
  TempDir dir;
  std::string path = dir.Path("store.qrs");
  ASSERT_TRUE(WriteArtifact(path, "fmt v1", "important state\n", /*sync=*/false).ok());
  std::string raw = RawRead(path);
  raw[10] ^= 0x20;  // flip one body bit
  RawWrite(path, raw);
  Result<std::string> loaded = ReadArtifact(path, "fmt v1");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileIoTest, TornArtifactIsRejected) {
  TempDir dir;
  std::string path = dir.Path("store.qrs");
  ASSERT_TRUE(WriteArtifact(path, "fmt v1", "0123456789abcdef\nmore\n", /*sync=*/false).ok());
  std::string raw = RawRead(path);
  // Simulate a torn non-atomic rewrite that kept the footer but lost middle
  // content (the checksum no longer matches).
  RawWrite(path, raw.substr(0, 4) + raw.substr(10));
  EXPECT_FALSE(ReadArtifact(path, "fmt v1").ok());
}

TEST(FileIoTest, FileWithoutFooterIsRejected) {
  TempDir dir;
  std::string path = dir.Path("unfooted.qrs");
  RawWrite(path, "fmt v1\ncontent, no footer\n");
  Result<std::string> loaded = ReadArtifact(path, "fmt v1");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileIoTest, EveryBitFlipAndTruncationOfAnArtifactIsRejected) {
  TempDir dir;
  std::string path = dir.Path("small.txt");
  ASSERT_TRUE(WriteArtifact(path, "fmt v1", "x\n", /*sync=*/false).ok());
  const std::string intact = RawRead(path);
  ASSERT_TRUE(ReadArtifact(path, "fmt v1").ok());

  for (size_t byte = 0; byte < intact.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = intact;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      RawWrite(path, damaged);
      Result<std::string> loaded = ReadArtifact(path, "fmt v1");
      EXPECT_FALSE(loaded.ok()) << "bit " << bit << " of byte " << byte;
    }
  }
  // Every shorter prefix, including a cut just before the footer, where
  // every line that is left is intact.
  for (size_t size = 0; size < intact.size(); ++size) {
    RawWrite(path, intact.substr(0, size));
    Result<std::string> loaded = ReadArtifact(path, "fmt v1");
    ASSERT_FALSE(loaded.ok()) << "prefix of " << size << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << size;
  }

  RawWrite(path, intact);
  for (const char* other : {"fmt v2", "fmt v", "fmt v1 "}) {
    Result<std::string> loaded = ReadArtifact(path, other);
    ASSERT_FALSE(loaded.ok()) << other;
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition) << other;
  }
  Result<std::string> missing = ReadArtifact(dir.Path("absent.txt"), "fmt v1");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------ wal

std::vector<std::pair<uint64_t, std::string>> Replay(const std::string& path,
                                                     WriteAheadLog::RecoveryInfo* info) {
  std::vector<std::pair<uint64_t, std::string>> records;
  Result<WriteAheadLog::RecoveryInfo> result =
      WriteAheadLog::Recover(path, [&](uint64_t seq, std::string_view payload) {
        records.emplace_back(seq, std::string(payload));
        return Status::OK();
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (info != nullptr && result.ok()) *info = result.value();
  return records;
}

TEST(WalTest, AppendAndRecoverRoundTrip) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, /*sync_each_append=*/false).ok());
    ASSERT_TRUE(wal.Append(1, "first").ok());
    ASSERT_TRUE(wal.Append(2, "").ok());  // empty payloads are legal
    ASSERT_TRUE(wal.Append(3, std::string(1000, 'x')).ok());
    EXPECT_EQ(wal.appended_records(), 3);
  }
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::pair<uint64_t, std::string>{1, "first"}));
  EXPECT_EQ(records[1].second, "");
  EXPECT_EQ(records[2].second, std::string(1000, 'x'));
  EXPECT_EQ(info.last_seq, 3u);
  EXPECT_EQ(info.truncated_bytes, 0);
}

TEST(WalTest, MissingFileIsFreshLog) {
  TempDir dir;
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(dir.Path("absent.log"), &info);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(info.records, 0);
}

TEST(WalTest, TornTailIsTruncatedAndStaysTruncated) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "intact one").ok());
    ASSERT_TRUE(wal.Append(2, "intact two").ok());
  }
  // Crash mid-append: half a header plus garbage.
  std::string raw = RawRead(path);
  std::string torn = raw + std::string("\x07\x00\x00\x00garbage", 11);
  RawWrite(path, torn);

  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(info.truncated_bytes, 11);
  // The truncation is persisted: the file is back to the intact prefix and
  // a second recovery finds nothing to remove.
  EXPECT_EQ(RawRead(path), raw);
  WriteAheadLog::RecoveryInfo again;
  Replay(path, &again);
  EXPECT_EQ(again.truncated_bytes, 0);
}

TEST(WalTest, CorruptRecordTruncatesFromThatPoint) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "record aaaaaaaa").ok());
    ASSERT_TRUE(wal.Append(2, "record bbbbbbbb").ok());
    ASSERT_TRUE(wal.Append(3, "record cccccccc").ok());
  }
  std::string raw = RawRead(path);
  size_t record_size = raw.size() / 3;
  // Flip a payload bit inside the second record: records 2 and 3 are lost
  // (replay keeps the longest intact *prefix*), record 1 survives.
  std::string corrupt = raw;
  corrupt[record_size + 20] ^= 0x01;
  RawWrite(path, corrupt);

  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 1u);
  EXPECT_EQ(info.truncated_bytes, static_cast<int64_t>(raw.size() - record_size));
}

TEST(WalTest, AppendAfterRecoveryContinuesTheLog) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "one").ok());
  }
  RawWrite(path, RawRead(path) + "torn!");
  Replay(path, nullptr);
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(2, "two").ok());
  }
  auto records = Replay(path, nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].second, "two");
}

TEST(WalTest, ResetEmptiesTheLog) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, false).ok());
  ASSERT_TRUE(wal.Append(1, "pre-snapshot").ok());
  ASSERT_TRUE(wal.Reset().ok());
  ASSERT_TRUE(wal.Append(2, "post-snapshot").ok());
  wal.Close();
  auto records = Replay(path, nullptr);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 2u);
}

TEST(WalTest, ImplausibleLengthFieldIsTreatedAsTornTail) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "ok").ok());
  }
  // A "record" whose length field says 256 MiB: corruption, not a record.
  std::string huge_header(16, '\0');
  huge_header[0] = '\0';
  huge_header[3] = 0x10;  // payload_size = 0x10000000
  RawWrite(path, RawRead(path) + huge_header);
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(info.truncated_bytes, 16);
}

// -------------------------------------------------- short-write injection
//
// The fail-stop contract of Append under a short write (ENOSPC, device
// yanked, kill -9 between write() calls): the failed Append must surface an
// error, the short frame must NEVER be replayed, and the log must keep
// working after a reopen. SetShortWriteForTesting arms a one-shot fault
// that writes only a prefix of the next record, exactly like a full disk.

TEST(WalTest, ShortWriteMidHeaderIsFailStopAndTruncated) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "intact before the fault").ok());
    // Fault: only 8 of the 16 header bytes reach the disk.
    wal.SetShortWriteForTesting(8);
    Status st = wal.Append(2, "this record is torn");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInternal);
  }
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 1u);
  EXPECT_EQ(info.truncated_bytes, 8);
}

TEST(WalTest, ShortWriteMidPayloadNeverReplaysTheTornFrame) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "aaaa").ok());
    // Full header plus half the payload: the length field promises more
    // bytes than exist, so recovery must classify the frame as torn even
    // though its header parses.
    wal.SetShortWriteForTesting(16 + 10);
    ASSERT_FALSE(wal.Append(2, std::string(100, 'b')).ok());
  }
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "aaaa");
  EXPECT_EQ(info.truncated_bytes, 16 + 10);
}

TEST(WalTest, ZeroByteShortWriteLosesOnlyTheFailedAppend) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "one").ok());
    wal.SetShortWriteForTesting(0);  // nothing of the record lands
    ASSERT_FALSE(wal.Append(2, "two").ok());
  }
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(info.truncated_bytes, 0);  // nothing torn to remove either
}

TEST(WalTest, LogKeepsWorkingAfterShortWriteAndReopen) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(1, "one").ok());
    wal.SetShortWriteForTesting(5);
    ASSERT_FALSE(wal.Append(2, "lost to the fault").ok());
  }
  // Recovery truncates the torn frame; the reopened log appends cleanly
  // after the intact prefix (the application re-journals the failed event).
  Replay(path, nullptr);
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path, false).ok());
    ASSERT_TRUE(wal.Append(2, "retried after reopen").ok());
  }
  WriteAheadLog::RecoveryInfo info;
  auto records = Replay(path, &info);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (std::pair<uint64_t, std::string>{2, "retried after reopen"}));
  EXPECT_EQ(info.truncated_bytes, 0);
}

TEST(WalTest, ShortWriteFaultIsOneShot) {
  TempDir dir;
  std::string path = dir.Path("wal.log");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path, false).ok());
  wal.SetShortWriteForTesting(3);
  ASSERT_FALSE(wal.Append(1, "fails").ok());
  // The hook disarmed itself: the very next append succeeds without a
  // recovery pass (the torn frame is later truncated by Recover; appends
  // after it are unreachable by replay, which is why the production owner
  // fail-stops instead of appending past an error).
  ASSERT_TRUE(wal.Append(2, "succeeds").ok());
}

// ------------------------------------------- snapshot install crash windows
//
// Store-level regressions for the replication seam: InstallSnapshot's
// durability ordering is the *inverse* of the periodic snapshot path (WAL
// reset first, snapshot write second), because the local WAL can hold a
// suffix the incoming snapshot does not subsume. These tests pin both
// crash windows.

RuleSignature InstallSig(int bit) {
  RuleSignature s;
  s.Set(bit);
  return s;
}

RuleConfig InstallAltConfig(int n) {
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

void Learn(DurableRecommenderStore& store, int sig_bit, int config_n,
           double improvement) {
  SteeringRecommender::CandidateObservation observation;
  observation.signature = InstallSig(sig_bit);
  observation.config = InstallAltConfig(config_n);
  observation.improvement_pct = improvement;
  ASSERT_TRUE(store.LearnCandidate(observation));
}

DurableStoreOptions InstallStoreOptions(const std::string& dir) {
  DurableStoreOptions options;
  options.dir = dir;
  options.snapshot_interval = 1000;  // no automatic snapshots mid-test
  options.sync = false;
  return options;
}

TEST(DurableStoreInstallTest, InstallReplacesStateAndSurvivesReopen) {
  TempDir dir;
  std::string content;
  uint64_t leader_seq = 0;
  {
    DurableRecommenderStore leader;  // ephemeral
    ASSERT_TRUE(leader.Open().ok());
    Learn(leader, 1, 0, -12.0);
    Learn(leader, 2, 1, -8.0);
    content = leader.SerializeForReplication();
    leader_seq = leader.applied_seq();
  }
  DurableStoreOptions options = InstallStoreOptions(dir.Path("follower"));
  std::filesystem::create_directories(options.dir);
  std::string expected;
  {
    DurableRecommenderStore follower(options);
    ASSERT_TRUE(follower.Open().ok());
    Learn(follower, 7, 2, -5.0);  // local state the install must replace
    ASSERT_TRUE(follower.InstallSnapshot(content).ok());
    EXPECT_EQ(follower.applied_seq(), leader_seq);
    EXPECT_EQ(follower.snapshot_installs(), 1);
    expected = follower.SerializeState();
  }
  // Crash after a completed install: reopen recovers the installed state
  // (the install wrote the snapshot and the reset WAL holds nothing).
  DurableRecommenderStore reopened(options);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.SerializeState(), expected);
  EXPECT_EQ(reopened.applied_seq(), leader_seq);
  EXPECT_EQ(reopened.recovery().wal_records_replayed, 0);
  // The one rendering the service status and the CLI print.
  EXPECT_EQ((DurableRecommenderStore::RecoveryInfo{true, 82, 3, 1, 17}.ToString()),
            "snapshot=loaded snapshot_seq=82 wal_replayed=3 wal_skipped=1 "
            "wal_truncated_bytes=17");
}

TEST(DurableStoreInstallTest, CrashInInstallWindowNeverYieldsMixedState) {
  // The follower's WAL holds a *divergent* suffix: entries with sequence
  // numbers at/beyond the incoming snapshot's watermark but different
  // content (it was a leader whose tail nobody acknowledged). A crash
  // between InstallSnapshot's two durable steps must leave a consistent
  // pre-install state — never installed-state-plus-replayed-suffix, which
  // is the corruption the reset-first ordering exists to prevent.
  TempDir dir;
  std::string installed;
  {
    DurableRecommenderStore leader;
    ASSERT_TRUE(leader.Open().ok());
    Learn(leader, 1, 0, -12.0);  // seq 1 on the leader's history
    installed = leader.SerializeForReplication();
  }
  DurableStoreOptions options = InstallStoreOptions(dir.Path("follower"));
  std::filesystem::create_directories(options.dir);
  options.testing_skip_snapshot_write_after_install_reset = true;  // crash window
  {
    DurableRecommenderStore follower(options);
    ASSERT_TRUE(follower.Open().ok());
    // Divergent local history: same seq numbers, different payloads.
    Learn(follower, 9, 3, -20.0);  // seq 1, diverges from leader's seq 1
    Learn(follower, 5, 4, -15.0);  // seq 2, beyond the install watermark
    ASSERT_TRUE(follower.InstallSnapshot(installed).ok());
    // In-memory the install completed...
    EXPECT_EQ(follower.applied_seq(), 1u);
  }  // ...but the process dies before the snapshot write (hook): the WAL
     // was reset and no snapshot exists on disk.
  options.testing_skip_snapshot_write_after_install_reset = false;
  DurableRecommenderStore reopened(options);
  ASSERT_TRUE(reopened.Open().ok());
  // "Behind, never wrong": the store recovered to its pre-install durable
  // base (here: empty — no snapshot had ever been written) with ZERO
  // divergent-suffix replay. Snapshot-first ordering would instead have
  // recovered the installed state with the divergent seq-2 event on top.
  EXPECT_EQ(reopened.applied_seq(), 0u);
  EXPECT_EQ(reopened.recovery().wal_records_replayed, 0);
  EXPECT_FALSE(reopened.recovery().loaded_snapshot);
  DurableRecommenderStore empty;
  ASSERT_TRUE(empty.Open().ok());
  EXPECT_EQ(reopened.SerializeState(), empty.SerializeState());
  // The node is merely behind: a fresh install catches it up fully.
  ASSERT_TRUE(reopened.InstallSnapshot(installed).ok());
  EXPECT_EQ(reopened.applied_seq(), 1u);
}

TEST(DurableStoreInstallTest, FollowerOfLeaderDeadMidSnapshotDoesNotDoubleApply) {
  // The leader crashed in ITS snapshot window (snapshot written, WAL not
  // yet reset — testing_skip_wal_reset_after_snapshot), so its recovered
  // WAL still holds every record at/below the snapshot watermark. A
  // follower that installs the snapshot and is then caught up from that
  // overlapping WAL must skip the already-installed window idempotently —
  // applying it twice would double-count observations.
  TempDir dir;
  std::string leader_dir = dir.Path("leader");
  std::filesystem::create_directories(leader_dir);
  DurableStoreOptions leader_options = InstallStoreOptions(leader_dir);
  leader_options.testing_skip_wal_reset_after_snapshot = true;

  std::vector<std::pair<uint64_t, std::string>> shipped;
  std::string leader_state;
  uint64_t watermark = 0;
  std::string snapshot_content;
  {
    DurableRecommenderStore leader(leader_options);
    ASSERT_TRUE(leader.Open().ok());
    leader.SetMutationListener([&](uint64_t seq, const std::string& payload) {
      shipped.emplace_back(seq, payload);
    });
    Learn(leader, 1, 0, -12.0);
    Learn(leader, 2, 1, -9.0);
    ASSERT_TRUE(leader.Snapshot().ok());  // crash window: WAL keeps seq 1-2
    watermark = leader.applied_seq();
    snapshot_content = leader.SerializeForReplication();
    Learn(leader, 3, 2, -7.0);  // post-snapshot tail
    leader_state = leader.SerializeState();
  }
  ASSERT_EQ(watermark, 2u);
  ASSERT_EQ(shipped.size(), 3u);

  // Follower: install the snapshot, then receive the leader's ENTIRE
  // journal as catch-up (the overlap is exactly what a recovered
  // crashed-mid-snapshot leader would ship).
  DurableRecommenderStore follower;
  ASSERT_TRUE(follower.Open().ok());
  ASSERT_TRUE(follower.InstallSnapshot(snapshot_content).ok());
  for (const auto& [seq, payload] : shipped) {
    ASSERT_TRUE(follower.ApplyReplicated(seq, payload).ok()) << "seq " << seq;
  }
  EXPECT_EQ(follower.replicated_skipped(), 2);  // the snapshot window
  EXPECT_EQ(follower.replicated_applied(), 1);  // the genuine tail
  EXPECT_EQ(follower.SerializeState(), leader_state);
  EXPECT_EQ(follower.applied_seq(), 3u);
}

TEST(DurableStoreInstallTest, ApplyReplicatedRejectsGaps) {
  DurableRecommenderStore store;
  ASSERT_TRUE(store.Open().ok());
  std::vector<std::pair<uint64_t, std::string>> events;
  {
    DurableRecommenderStore source;
    ASSERT_TRUE(source.Open().ok());
    source.SetMutationListener([&](uint64_t seq, const std::string& payload) {
      events.emplace_back(seq, payload);
    });
    Learn(source, 1, 0, -10.0);
    Learn(source, 2, 1, -10.0);
  }
  ASSERT_EQ(events.size(), 2u);
  // Shipping seq 2 to a store at watermark 0 is a gap: the follower must
  // refuse (the leader's cue to send a snapshot), not apply out of order.
  Status status = store.ApplyReplicated(events[1].first, events[1].second);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.ApplyReplicated(events[0].first, events[0].second).ok());
  EXPECT_TRUE(store.ApplyReplicated(events[1].first, events[1].second).ok());
  EXPECT_EQ(store.applied_seq(), 2u);
}

// -------------------------------------------------------- bounded queue

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: shed, don't block
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 2);
  EXPECT_EQ(queue.high_water(), 2);
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<int> queue(8);
  queue.TryPush(1);
  queue.TryPush(2);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // closed and empty
}

TEST(BoundedQueueTest, CloseAndDrainReturnsQueuedItems) {
  BoundedQueue<int> queue(8);
  queue.TryPush(7);
  queue.TryPush(8);
  std::vector<int> drained = queue.CloseAndDrain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 7);
  int out = 0;
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, ConcurrentProducersAndConsumersLoseNothing) {
  BoundedQueue<int> queue(64);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int item = 0;
      while (queue.Pop(&item)) {
        sum.fetch_add(item);
        consumed.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<int> produced{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i + 1;
        while (!queue.TryPush(value)) std::this_thread::yield();
        produced.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.Close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  long long n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

}  // namespace
}  // namespace qsteer
