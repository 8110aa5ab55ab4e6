#include "optimizer/compile_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/file_io.h"
#include "plan/serde.h"

namespace qsteer {

namespace {

int RoundUpPow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Rough resident-size estimate of a cache entry: bookkeeping plus the plan
// DAG. PlanNode carries an Operator (payload vectors, strings) and a child
// vector; 384 bytes/node is a deliberate overestimate so the byte budget errs
// toward evicting early rather than blowing past --compile-cache-mb.
int64_t EstimateBytes(const Result<CompiledPlan>& result) {
  int64_t bytes = 512;  // entry bookkeeping, key, LRU node, hash slot
  if (result.ok()) {
    int nodes = 0;
    VisitPlan(result.value().root, [&nodes](const PlanNode&) { ++nodes; });
    bytes += static_cast<int64_t>(nodes) * 384;
  } else {
    bytes += static_cast<int64_t>(result.status().message().size());
  }
  return bytes;
}

}  // namespace

std::string CompileCacheStats::ToString() const {
  std::ostringstream os;
  os << "hits=" << hits << " misses=" << misses << " hit_rate=" << HitRate()
     << " inserts=" << inserts << " evictions=" << evictions << " entries=" << entries
     << " bytes=" << bytes << " shard_contention=" << shard_contention
     << " warm_loaded=" << warm_loaded << " warm_rejected=" << warm_rejected;
  return os.str();
}

CompileCache::CompileCache(CompileCacheOptions options) : options_(options) {
  int shards = RoundUpPow2(options_.shards < 1 ? 1 : options_.shards);
  options_.shards = shards;
  per_shard_capacity_ =
      options_.capacity_bytes > 0 ? options_.capacity_bytes / shards : 0;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

CompileCache::Shard& CompileCache::ShardFor(uint64_t key_hash) const {
  // Entries map by the raw key hash; pick the shard from independent (high)
  // bits so one shard's map doesn't see a systematically truncated key space.
  uint64_t mixed = Mix64(key_hash);
  return *shards_[static_cast<size_t>(mixed & static_cast<uint64_t>(options_.shards - 1))];
}

void CompileCache::AcquireShard(Shard& shard) const {
  if (!shard.mu.TryLock()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    shard.mu.Lock();
  }
}

std::optional<Result<CompiledPlan>> CompileCache::Lookup(const Key& key) {
  const uint64_t hash = key.Hash();
  Shard& shard = ShardFor(hash);
  AcquireShard(shard);
  MutexLock lock(shard.mu, kAdoptLock);
  auto it = shard.entries.find(hash);
  if (it == shard.entries.end() || !(it->second.key == key)) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  const Entry& entry = it->second;
  if (entry.ok) return Result<CompiledPlan>(entry.plan);
  return Result<CompiledPlan>(Status::CompilationFailed(entry.error_message));
}

void CompileCache::Insert(const Key& key, const Result<CompiledPlan>& result) {
  if (per_shard_capacity_ <= 0) return;
  // Only deterministic outcomes are cacheable: a successful plan, or the
  // permanent "configuration cannot cover some operator" failure. Timeouts
  // and an unavailable compile tier depend on load, not on the key.
  if (!result.ok() && result.status().code() != StatusCode::kCompilationFailed) return;

  const uint64_t hash = key.Hash();
  Shard& shard = ShardFor(hash);
  AcquireShard(shard);
  MutexLock lock(shard.mu, kAdoptLock);
  if (shard.entries.count(hash) > 0) return;  // first writer wins

  Entry entry;
  entry.key = key;
  entry.ok = result.ok();
  if (result.ok()) {
    entry.plan = result.value();
  } else {
    entry.error_message = result.status().message();
  }
  entry.bytes = EstimateBytes(result);
  if (entry.bytes > per_shard_capacity_) return;  // would evict everything

  shard.lru.push_front(hash);
  entry.lru_pos = shard.lru.begin();
  shard.bytes += entry.bytes;
  shard.entries.emplace(hash, std::move(entry));
  ++shard.inserts;

  while (shard.bytes > per_shard_capacity_ && !shard.lru.empty()) {
    uint64_t victim = shard.lru.back();
    shard.lru.pop_back();
    auto vit = shard.entries.find(victim);
    shard.bytes -= vit->second.bytes;
    shard.entries.erase(vit);
    ++shard.evictions;
  }
}

CompileCacheStats CompileCache::stats() const {
  CompileCacheStats stats;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    AcquireShard(shard);
    MutexLock lock(shard.mu, kAdoptLock);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.inserts += shard.inserts;
    stats.evictions += shard.evictions;
    stats.entries += static_cast<int64_t>(shard.entries.size());
    stats.bytes += shard.bytes;
  }
  stats.shard_contention = contention_.load(std::memory_order_relaxed);
  stats.warm_loaded = warm_loaded_.load(std::memory_order_relaxed);
  stats.warm_rejected = warm_rejected_.load(std::memory_order_relaxed);
  return stats;
}

namespace {

/// Version-tagged text header ahead of the binary entry records. Bumping the
/// version (incompatible serde change) makes every older file reject cleanly.
constexpr char kCacheFileHeader[] = "qsteer-compile-cache v1";
constexpr size_t kHexKeyLen = 64;  // BitVector256::ToHexString length

}  // namespace

Status CompileCache::SaveToFile(const std::string& path, int day, bool sync) const {
  struct Saved {
    Key key;
    bool ok = false;
    CompiledPlan plan;
    std::string error_message;
  };
  std::vector<Saved> saved;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    AcquireShard(shard);
    MutexLock lock(shard.mu, kAdoptLock);
    for (const auto& [hash, entry] : shard.entries) {
      (void)hash;
      saved.push_back(Saved{entry.key, entry.ok, entry.plan, entry.error_message});
    }
  }
  // Deterministic bytes: two caches with equal contents serialize identically
  // regardless of shard hash order or insertion history.
  std::sort(saved.begin(), saved.end(), [](const Saved& a, const Saved& b) {
    if (a.key.fingerprint != b.key.fingerprint) return a.key.fingerprint < b.key.fingerprint;
    return a.key.projected < b.key.projected;
  });

  ByteWriter writer;
  writer.PutU32(static_cast<uint32_t>(day));
  writer.PutU64(static_cast<uint64_t>(saved.size()));
  for (const Saved& s : saved) {
    writer.PutU64(s.key.fingerprint);
    writer.PutString(s.key.projected.ToHexString());
    writer.PutU8(s.ok ? 1 : 0);
    if (s.ok) {
      SerializePlan(s.plan.root, &writer);
      writer.PutDouble(s.plan.est_cost);
      writer.PutString(s.plan.signature.ToHexString());
      writer.PutDouble(s.plan.est_output_rows);
      writer.PutI32(s.plan.memo_groups);
      writer.PutI32(s.plan.memo_exprs);
    } else {
      writer.PutString(s.error_message);
    }
  }
  return WriteArtifact(path, kCacheFileHeader, writer.Take(), sync);
}

Status CompileCache::WarmFromFile(const std::string& path, int expected_day, int64_t* loaded) {
  if (loaded != nullptr) *loaded = 0;
  auto reject = [this](Status status) {
    warm_rejected_.fetch_add(1, std::memory_order_relaxed);
    return status;
  };

  Result<std::string> read = ReadArtifact(path, kCacheFileHeader);
  if (!read.ok()) return reject(read.status());

  ByteReader reader(read.value());
  uint32_t day = 0;
  Status st = reader.GetU32(&day);
  if (!st.ok()) return reject(st);
  if (expected_day >= 0 && static_cast<int>(day) != expected_day) {
    return reject(Status::FailedPrecondition(
        "compile-cache day mismatch (statistics change daily): " + path));
  }
  uint64_t count = 0;
  st = reader.GetU64(&count);
  if (!st.ok()) return reject(st);
  // Each entry occupies at least fingerprint + key length prefix + ok byte.
  if (count > reader.remaining()) {
    return reject(Status::InvalidArgument("compile-cache entry count exceeds file size"));
  }

  // Parse every entry before inserting any: a file rejected part-way
  // through must leave the cache exactly as it was.
  std::vector<std::pair<Key, Result<CompiledPlan>>> parsed;
  for (uint64_t i = 0; i < count; ++i) {
    Key key;
    st = reader.GetU64(&key.fingerprint);
    if (!st.ok()) return reject(st);
    std::string projected_hex;
    st = reader.GetString(&projected_hex);
    if (!st.ok()) return reject(st);
    if (projected_hex.size() != kHexKeyLen) {
      return reject(Status::InvalidArgument("compile-cache key is not 64 hex digits"));
    }
    key.projected = BitVector256::FromHexString(projected_hex);
    // FromHexString yields all-zero on malformed input — disambiguate from a
    // legal all-zero projection by re-encoding.
    if (key.projected.ToHexString() != projected_hex) {
      return reject(Status::InvalidArgument("compile-cache key has non-hex digits"));
    }
    uint8_t ok = 0;
    st = reader.GetU8(&ok);
    if (!st.ok()) return reject(st);
    if (ok > 1) return reject(Status::InvalidArgument("compile-cache entry flag corrupt"));

    if (ok == 1) {
      CompiledPlan plan;
      Result<PlanNodePtr> root = DeserializePlan(&reader);
      if (!root.ok()) return reject(root.status());
      plan.root = std::move(root.value());
      if (plan.root == nullptr) {
        return reject(Status::InvalidArgument("compile-cache entry has a null plan"));
      }
      st = reader.GetDouble(&plan.est_cost);
      if (!st.ok()) return reject(st);
      std::string signature_hex;
      st = reader.GetString(&signature_hex);
      if (!st.ok()) return reject(st);
      if (signature_hex.size() != kHexKeyLen) {
        return reject(Status::InvalidArgument("compile-cache signature is not 64 hex digits"));
      }
      plan.signature = BitVector256::FromHexString(signature_hex);
      if (plan.signature.ToHexString() != signature_hex) {
        return reject(Status::InvalidArgument("compile-cache signature has non-hex digits"));
      }
      st = reader.GetDouble(&plan.est_output_rows);
      if (!st.ok()) return reject(st);
      st = reader.GetI32(&plan.memo_groups);
      if (!st.ok()) return reject(st);
      st = reader.GetI32(&plan.memo_exprs);
      if (!st.ok()) return reject(st);
      parsed.emplace_back(key, Result<CompiledPlan>(std::move(plan)));
    } else {
      std::string error_message;
      st = reader.GetString(&error_message);
      if (!st.ok()) return reject(st);
      parsed.emplace_back(key, Result<CompiledPlan>(Status::CompilationFailed(error_message)));
    }
  }
  if (!reader.AtEnd()) {
    return reject(Status::InvalidArgument("compile-cache file has trailing bytes"));
  }

  for (const auto& [key, result] : parsed) Insert(key, result);
  const int64_t inserted = static_cast<int64_t>(parsed.size());
  warm_loaded_.fetch_add(inserted, std::memory_order_relaxed);
  if (loaded != nullptr) *loaded = inserted;
  return Status::OK();
}

uint64_t JobFingerprint(const Job& job) {
  uint64_t h = PlanHash(job.root, /*for_template=*/false);
  h = HashCombine(h, static_cast<uint64_t>(job.day));
  h = HashCombine(h, job.columns != nullptr ? static_cast<uint64_t>(job.columns->size()) : 0);
  return h;
}

BitVector256 ProjectConfig(const RuleConfig& config, const BitVector256& span) {
  return config.bits().And(span);
}

}  // namespace qsteer
