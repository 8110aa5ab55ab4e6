// Durable per-shard artifacts of the sharded discovery orchestrator.
//
// A shard's unit of progress is a pair of files, committed in a fixed
// order that makes recovery unambiguous:
//
//   shard_<i>.artifact   — the shard's reduced discovery output: the
//     recommender learn events its jobs yielded (in shard job order, which
//     is day order restricted to the shard) and one reduced rule-diff row
//     per improving rule-signature group. Written atomically (temp +
//     rename); its exact bytes are fingerprinted by the manifest.
//   shard_<i>.manifest   — the commit record: identity of the partition
//     the shard belongs to (workload, day, i of n, partition hash) plus
//     the byte count and crc32 of the artifact. Written atomically with a
//     crc32 footer of its own, strictly AFTER the artifact.
//
// Because the manifest is written last, a crash leaves one of three
// states, each of which resume classifies without guessing:
//   * manifest valid + artifact bytes match its fingerprint  -> reuse;
//   * manifest missing (artifact absent, torn, or complete
//     but uncommitted)                                       -> recompute;
//   * manifest present but corrupt, or its fingerprint
//     disagrees with the artifact                            -> quarantine
//     the damaged file(s) (rename to *.quarantined) and recompute.
//
// The reduction stored in an artifact is group-local (a rule-signature
// group never spans shards), so the merge of all shard artifacts is a pure
// union — bit-identical to an unsharded run over the same day.
#ifndef QSTEER_DISCOVERY_MANIFEST_H_
#define QSTEER_DISCOVERY_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace qsteer {

/// One recommender learn event (SteeringRecommender::CandidateObservation
/// in its journal-able text form: signature hex + hint string roundtrip
/// exactly; the improvement uses %.17g so the double is bit-preserved).
struct ShardObservation {
  std::string signature_hex;
  double improvement_pct = 0.0;
  /// §3.2 hint-string rendering of the observed configuration.
  std::string hints;
};

/// The reduced rule-diff row of one improving rule-signature group: the
/// group's best observed improvement and the rule-usage diff of the plan
/// that achieved it (paper Definition 6.1).
struct ShardDiffRow {
  std::string signature_hex;
  double change_pct = 0.0;
  std::string job_name;
  std::vector<int> only_in_default;
  std::vector<int> only_in_new;
};

/// The artifact body. Serialize() is deterministic: observations in shard
/// job order, diff rows sorted by (signature hex, job name).
struct ShardArtifact {
  std::string workload;
  int day = 0;
  int shard_index = 0;
  int num_shards = 0;
  /// Hash of the shard's job partition (see ShardOrchestrator); ties the
  /// artifact to one exact partitioning so artifacts from a run with a
  /// different --shards value or workload config are never merged.
  uint64_t partition_hash = 0;
  int64_t jobs = 0;
  std::vector<ShardObservation> observations;
  std::vector<ShardDiffRow> diff_rows;

  std::string Serialize() const;
  static Result<ShardArtifact> Parse(const std::string& content);
};

/// Header lines of the manifest and the merged rule-diff table files
/// (WriteArtifact / ReadArtifact); the bodies come from
/// ShardManifest::Serialize and RenderDiffTable.
inline constexpr char kShardManifestHeader[] = "# qsteer-shard-manifest v1";
inline constexpr char kRuleDiffHeader[] = "# qsteer-rulediff v1";

/// The commit record fingerprinting an artifact.
struct ShardManifest {
  std::string workload;
  int day = 0;
  int shard_index = 0;
  int num_shards = 0;
  uint64_t partition_hash = 0;
  int64_t jobs = 0;
  int64_t groups = 0;
  /// Lease attempt that produced the artifact (observability only).
  int attempt = 1;
  /// Basename of the artifact file this manifest commits.
  std::string artifact_file;
  int64_t artifact_bytes = 0;
  uint32_t artifact_crc32 = 0;

  std::string Serialize() const;
  static Result<ShardManifest> Parse(const std::string& content);

  /// True when this manifest commits `artifact` under the same partition
  /// identity (workload/day/shard/partition hash all agree).
  bool Matches(const ShardArtifact& artifact) const;
};

/// File naming within a discovery directory.
std::string ShardArtifactName(int shard_index);
std::string ShardManifestName(int shard_index);

/// Renders the merged rule-diff table (one reduced row per improving
/// group). Deterministic given row order; callers pass rows sorted by
/// (signature hex, job name).
std::string RenderDiffTable(const std::vector<ShardDiffRow>& rows);

}  // namespace qsteer

#endif  // QSTEER_DISCOVERY_MANIFEST_H_
