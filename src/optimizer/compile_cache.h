// Sharded, thread-safe cache of compile results keyed by
// hash(job fingerprint, config ∩ job span).
//
// The paper's §4 span insight says two configurations that agree on a job's
// rule span must produce identical plans; projecting each configuration onto
// the span before keying therefore dedupes every span-equivalent candidate
// recompile to a single cached compile. Callers without a span in hand (the
// span loop itself, the serving path) key by the full configuration bits —
// a projection onto the universe, always sound.
//
// Entries store the full key (fingerprint + projected bits), so a 64-bit
// table collision degrades to a miss, never a wrong plan. Both successful
// compiles and permanent kCompilationFailed results are cached ("many
// configurations do not compile" — §5 — and they fail identically every
// time); transient kDeadlineExceeded results are not.
#ifndef QSTEER_OPTIMIZER_COMPILE_CACHE_H_
#define QSTEER_OPTIMIZER_COMPILE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "optimizer/optimizer.h"

namespace qsteer {

struct CompileCacheOptions {
  /// Total byte budget across all shards; each shard evicts LRU entries past
  /// its share. <= 0 never stores anything (every lookup misses).
  int64_t capacity_bytes = 64ll << 20;
  /// Shard count (rounded up to a power of two). Keys distribute by hash, so
  /// pipeline workers rarely contend on one shard mutex.
  int shards = 8;
};

struct CompileCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t inserts = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
  int64_t bytes = 0;
  /// Lookups/inserts that found their shard's mutex already held (the
  /// sharding-efficiency signal: should stay ~0 under normal fan-out).
  int64_t shard_contention = 0;
  /// Entries pre-loaded from a persisted cache file (WarmFromFile).
  int64_t warm_loaded = 0;
  /// Warm-load attempts rejected whole (missing/corrupt/torn file, version
  /// or day mismatch). Each rejection degrades to cold compiles — never a
  /// wrong plan.
  int64_t warm_rejected = 0;

  double HitRate() const {
    int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
  std::string ToString() const;
};

class CompileCache {
 public:
  struct Key {
    /// JobFingerprint(job).
    uint64_t fingerprint = 0;
    /// config.bits() ∩ span (or the full bits when no span applies).
    BitVector256 projected;

    uint64_t Hash() const { return HashCombine(fingerprint, projected.Hash()); }
    bool operator==(const Key& other) const {
      return fingerprint == other.fingerprint && projected == other.projected;
    }
  };

  explicit CompileCache(CompileCacheOptions options = {});

  /// Returns the cached compile result — a plan or a permanent failure — or
  /// nullopt on miss. A hit refreshes the entry's LRU position. The returned
  /// CompiledPlan shares the immutable plan DAG with the cache (PlanNode is
  /// const; sharing across threads is safe).
  std::optional<Result<CompiledPlan>> Lookup(const Key& key);

  /// Stores a compile result. Transient failures (kDeadlineExceeded and
  /// anything other than kCompilationFailed) are ignored, as is everything
  /// when the capacity is <= 0.
  void Insert(const Key& key, const Result<CompiledPlan>& result);

  CompileCacheStats stats() const;

  /// Persists every cached entry (plans serialized via plan/serde.h,
  /// permanent failures as their message) to `path` as an artifact headed
  /// `qsteer-compile-cache v1` (WriteArtifact: atomic rename + required
  /// crc32 footer): a day stamp, then binary entry records in sorted key
  /// order (two caches with equal contents write identical bytes). The
  /// nightly discovery pass ships these files to pre-warm tomorrow's
  /// serving caches.
  Status SaveToFile(const std::string& path, int day, bool sync = true) const;

  /// Pre-loads entries from a SaveToFile artifact. The whole file is
  /// rejected (kFailedPrecondition / kInvalidArgument, warm_rejected
  /// bumped) when the footer is missing or does not match, the header
  /// names another format or version, any entry fails to parse, or
  /// `expected_day` >= 0 disagrees with the recorded day — the cache then
  /// stays exactly as it was: entries are inserted only after the whole
  /// file parsed. Loaded entries still carry their full keys, so the
  /// existing full-key verification guards collisions exactly as for fresh
  /// inserts; a stale or foreign entry can cost a miss, never a wrong
  /// plan. `loaded` (optional) receives the number of entries inserted.
  Status WarmFromFile(const std::string& path, int expected_day, int64_t* loaded = nullptr);

 private:
  struct Entry {
    Key key;
    bool ok = false;
    CompiledPlan plan;          // valid when ok
    std::string error_message;  // kCompilationFailed message when !ok
    int64_t bytes = 0;
    std::list<uint64_t>::iterator lru_pos;
  };
  struct Shard {
    Mutex mu;
    std::unordered_map<uint64_t, Entry> entries GUARDED_BY(mu);  // by Key::Hash()
    std::list<uint64_t> lru GUARDED_BY(mu);                      // front = most recent
    int64_t bytes GUARDED_BY(mu) = 0;
    int64_t hits GUARDED_BY(mu) = 0;
    int64_t misses GUARDED_BY(mu) = 0;
    int64_t inserts GUARDED_BY(mu) = 0;
    int64_t evictions GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t key_hash) const;
  /// Locks a shard, counting failed first tries as contention. Pair with
  /// `MutexLock lock(shard.mu, kAdoptLock)` for scoped release.
  void AcquireShard(Shard& shard) const ACQUIRE(shard.mu);

  CompileCacheOptions options_;
  int64_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<int64_t> contention_{0};
  std::atomic<int64_t> warm_loaded_{0};
  std::atomic<int64_t> warm_rejected_{0};
};

/// Cache identity of a job: the full structural plan hash (literals and all
/// operator payload included — exactly the identity the memo's own dedup
/// uses), the day (statistics change daily) and the column-universe size
/// (rule-minted column ids start there, so plans compiled against different
/// universes are not interchangeable). The job *name* is deliberately
/// excluded: recurring instances of one script share compiles.
uint64_t JobFingerprint(const Job& job);

/// The span projection of a configuration: its enabled bits restricted to
/// the span. Configurations with equal projections compile to identical
/// plans (paper §4).
BitVector256 ProjectConfig(const RuleConfig& config, const BitVector256& span);

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_COMPILE_CACHE_H_
