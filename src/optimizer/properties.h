// Physical properties: how a plan fragment's output is distributed across
// vertices (partitioning scheme + degree of parallelism) and ordered.
// Property requests drive enforcer placement (Exchange, Sort) during
// cost-based optimization, exactly as in Cascades-style engines.
#ifndef QSTEER_OPTIMIZER_PROPERTIES_H_
#define QSTEER_OPTIMIZER_PROPERTIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/small_vector.h"
#include "plan/column.h"

namespace qsteer {

enum class PartScheme : uint8_t {
  /// Request-side only: any distribution is acceptable.
  kAny,
  /// Round-robin / unknown partitioning (what scans deliver).
  kRandom,
  /// Hash partitioned on `keys` across `dop` partitions.
  kHash,
  /// All rows on a single vertex.
  kSingleton,
  /// Full copy of the data on each of `dop` vertices.
  kBroadcast,
};

/// Partitioning or sort columns of a property. Keys rarely exceed four
/// columns, so the property search copies requests without a heap
/// allocation.
using PropKeys = SmallVector<ColumnId, 4>;

/// A required or delivered physical property.
struct PhysProp {
  PartScheme scheme = PartScheme::kAny;
  PropKeys part_keys;
  /// Required/delivered sort order; satisfaction is prefix-based.
  PropKeys sort_keys;
  /// Partition count. 0 on the request side means "optimizer's choice".
  int dop = 0;

  static PhysProp Any() { return PhysProp{}; }
  static PhysProp Hash(const std::vector<ColumnId>& keys, int dop);
  static PhysProp Singleton();
  static PhysProp Broadcast(int dop);

  /// True when a fragment delivering `delivered` satisfies this request.
  bool SatisfiedBy(const PhysProp& delivered) const;

  /// True when `delivered`'s sort order satisfies this request's.
  bool SortSatisfiedBy(const PhysProp& delivered) const;

  /// Hashable key for winner memoization.
  uint64_t Key() const;

  std::string ToString() const;
};

}  // namespace qsteer

#endif  // QSTEER_OPTIMIZER_PROPERTIES_H_
