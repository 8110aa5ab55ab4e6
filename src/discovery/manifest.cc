#include "discovery/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace qsteer {

namespace {

constexpr char kArtifactHeader[] = "# qsteer-shard-artifact v1";

/// %.17g preserves every bit of a double across a text round trip.
std::string DoubleText(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string IdsText(const std::vector<int>& ids) {
  if (ids.empty()) return "-";
  std::ostringstream out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ',';
    out << ids[i];
  }
  return out.str();
}

Status ParseIds(const std::string& text, std::vector<int>* out) {
  out->clear();
  if (text == "-") return Status::OK();
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) return Status::InvalidArgument("empty rule id");
    char* end = nullptr;
    long v = std::strtol(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("malformed rule id: " + token);
    }
    out->push_back(static_cast<int>(v));
  }
  return Status::OK();
}

/// Splits `line` on tabs into exactly `min_fields`-or-more fields.
Status SplitTabs(const std::string& line, size_t min_fields,
                 std::vector<std::string>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields->push_back(line.substr(start));
      break;
    }
    fields->push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  if (fields->size() < min_fields) {
    return Status::InvalidArgument("too few fields in line: " + line);
  }
  return Status::OK();
}

Status ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::InvalidArgument("malformed double: " + text);
  }
  return Status::OK();
}

/// Line-oriented "key value" scanner over a header section.
class KeyValueLines {
 public:
  explicit KeyValueLines(std::istringstream* in) : in_(in) {}

  /// Reads the next line and checks its key; the remainder is the value.
  Status Expect(const std::string& key, std::string* value) {
    std::string line;
    if (!std::getline(*in_, line)) {
      return Status::InvalidArgument("missing field: " + key);
    }
    if (line.compare(0, key.size(), key) != 0 || line.size() <= key.size() ||
        line[key.size()] != ' ') {
      return Status::InvalidArgument("expected field '" + key + "', got: " + line);
    }
    *value = line.substr(key.size() + 1);
    return Status::OK();
  }

  Status ExpectInt(const std::string& key, int64_t* value) {
    std::string text;
    Status status = Expect(key, &text);
    if (!status.ok()) return status;
    char* end = nullptr;
    *value = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || text.empty()) {
      return Status::InvalidArgument("malformed integer for '" + key + "': " + text);
    }
    return Status::OK();
  }

 private:
  std::istringstream* in_;
};

Status ParseShardOfLine(const std::string& value, int* index, int* total) {
  // "2 of 8"
  int i = 0;
  int n = 0;
  if (std::sscanf(value.c_str(), "%d of %d", &i, &n) != 2) {
    return Status::InvalidArgument("malformed shard line: " + value);
  }
  *index = i;
  *total = n;
  return Status::OK();
}

Status ParseHex64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 16) {
    return Status::InvalidArgument("malformed 64-bit hex: " + text);
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 16);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("malformed 64-bit hex: " + text);
  }
  return Status::OK();
}

}  // namespace

std::string ShardArtifactName(int shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%05d.artifact", shard_index);
  return buf;
}

std::string ShardManifestName(int shard_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%05d.manifest", shard_index);
  return buf;
}

std::string ShardArtifact::Serialize() const {
  std::ostringstream out;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, partition_hash);
  out << kArtifactHeader << "\n";
  out << "workload " << workload << "\n";
  out << "day " << day << "\n";
  out << "shard " << shard_index << " of " << num_shards << "\n";
  out << "partition_hash " << hex << "\n";
  out << "jobs " << jobs << "\n";
  for (const ShardObservation& obs : observations) {
    out << "obs\t" << obs.signature_hex << '\t' << DoubleText(obs.improvement_pct)
        << '\t' << obs.hints << "\n";
  }
  for (const ShardDiffRow& row : diff_rows) {
    out << "diff\t" << row.signature_hex << '\t' << DoubleText(row.change_pct) << '\t'
        << row.job_name << '\t' << IdsText(row.only_in_default) << '\t'
        << IdsText(row.only_in_new) << "\n";
  }
  return out.str();
}

Result<ShardArtifact> ShardArtifact::Parse(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line) || line != kArtifactHeader) {
    return Status::InvalidArgument("not a shard artifact (bad header)");
  }
  ShardArtifact artifact;
  KeyValueLines kv(&in);
  Status status = kv.Expect("workload", &artifact.workload);
  if (!status.ok()) return status;
  int64_t v = 0;
  status = kv.ExpectInt("day", &v);
  if (!status.ok()) return status;
  artifact.day = static_cast<int>(v);
  std::string shard_of;
  status = kv.Expect("shard", &shard_of);
  if (!status.ok()) return status;
  status = ParseShardOfLine(shard_of, &artifact.shard_index, &artifact.num_shards);
  if (!status.ok()) return status;
  std::string hash_hex;
  status = kv.Expect("partition_hash", &hash_hex);
  if (!status.ok()) return status;
  status = ParseHex64(hash_hex, &artifact.partition_hash);
  if (!status.ok()) return status;
  status = kv.ExpectInt("jobs", &v);
  if (!status.ok()) return status;
  artifact.jobs = v;

  std::vector<std::string> fields;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.compare(0, 4, "obs\t") == 0) {
      status = SplitTabs(line, 4, &fields);
      if (!status.ok()) return status;
      ShardObservation obs;
      obs.signature_hex = fields[1];
      status = ParseDouble(fields[2], &obs.improvement_pct);
      if (!status.ok()) return status;
      // The hint string is the final field and may itself contain no tabs
      // (§3.2 syntax: names, commas, parens, semicolons) — rejoin defensively
      // in case a rule name ever gains one.
      obs.hints = fields[3];
      for (size_t i = 4; i < fields.size(); ++i) obs.hints += "\t" + fields[i];
      artifact.observations.push_back(std::move(obs));
    } else if (line.compare(0, 5, "diff\t") == 0) {
      status = SplitTabs(line, 6, &fields);
      if (!status.ok()) return status;
      ShardDiffRow row;
      row.signature_hex = fields[1];
      status = ParseDouble(fields[2], &row.change_pct);
      if (!status.ok()) return status;
      row.job_name = fields[3];
      status = ParseIds(fields[4], &row.only_in_default);
      if (!status.ok()) return status;
      status = ParseIds(fields[5], &row.only_in_new);
      if (!status.ok()) return status;
      artifact.diff_rows.push_back(std::move(row));
    } else {
      return Status::InvalidArgument("unknown artifact line: " + line);
    }
  }
  return artifact;
}

std::string ShardManifest::Serialize() const {
  std::ostringstream out;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, partition_hash);
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", artifact_crc32);
  out << "workload " << workload << "\n";
  out << "day " << day << "\n";
  out << "shard " << shard_index << " of " << num_shards << "\n";
  out << "partition_hash " << hex << "\n";
  out << "jobs " << jobs << "\n";
  out << "groups " << groups << "\n";
  out << "attempt " << attempt << "\n";
  out << "artifact " << artifact_file << "\n";
  out << "artifact_bytes " << artifact_bytes << "\n";
  out << "artifact_crc32 " << crc_hex << "\n";
  return out.str();
}

Result<ShardManifest> ShardManifest::Parse(const std::string& content) {
  std::istringstream in(content);
  ShardManifest manifest;
  KeyValueLines kv(&in);
  Status status = kv.Expect("workload", &manifest.workload);
  if (!status.ok()) return status;
  int64_t v = 0;
  status = kv.ExpectInt("day", &v);
  if (!status.ok()) return status;
  manifest.day = static_cast<int>(v);
  std::string shard_of;
  status = kv.Expect("shard", &shard_of);
  if (!status.ok()) return status;
  status = ParseShardOfLine(shard_of, &manifest.shard_index, &manifest.num_shards);
  if (!status.ok()) return status;
  std::string hash_hex;
  status = kv.Expect("partition_hash", &hash_hex);
  if (!status.ok()) return status;
  status = ParseHex64(hash_hex, &manifest.partition_hash);
  if (!status.ok()) return status;
  status = kv.ExpectInt("jobs", &v);
  if (!status.ok()) return status;
  manifest.jobs = v;
  status = kv.ExpectInt("groups", &v);
  if (!status.ok()) return status;
  manifest.groups = v;
  status = kv.ExpectInt("attempt", &v);
  if (!status.ok()) return status;
  manifest.attempt = static_cast<int>(v);
  status = kv.Expect("artifact", &manifest.artifact_file);
  if (!status.ok()) return status;
  status = kv.ExpectInt("artifact_bytes", &v);
  if (!status.ok()) return status;
  manifest.artifact_bytes = v;
  std::string crc_hex;
  status = kv.Expect("artifact_crc32", &crc_hex);
  if (!status.ok()) return status;
  uint64_t crc = 0;
  status = ParseHex64(crc_hex, &crc);
  if (!status.ok()) return status;
  if (crc > 0xffffffffull) return Status::InvalidArgument("crc32 out of range");
  manifest.artifact_crc32 = static_cast<uint32_t>(crc);
  return manifest;
}

std::string RenderDiffTable(const std::vector<ShardDiffRow>& rows) {
  std::ostringstream out;
  out << "# signature\tchange_pct\tjob\tonly_in_default\tonly_in_new\n";
  for (const ShardDiffRow& row : rows) {
    out << row.signature_hex << '\t' << DoubleText(row.change_pct) << '\t'
        << row.job_name << '\t' << IdsText(row.only_in_default) << '\t'
        << IdsText(row.only_in_new) << "\n";
  }
  return out.str();
}

bool ShardManifest::Matches(const ShardArtifact& artifact) const {
  return workload == artifact.workload && day == artifact.day &&
         shard_index == artifact.shard_index && num_shards == artifact.num_shards &&
         partition_hash == artifact.partition_hash && jobs == artifact.jobs;
}

}  // namespace qsteer
