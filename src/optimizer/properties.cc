#include "optimizer/properties.h"

#include "common/hash.h"

namespace qsteer {

PhysProp PhysProp::Hash(const std::vector<ColumnId>& keys, int dop) {
  PhysProp p;
  p.scheme = PartScheme::kHash;
  p.part_keys = keys;
  p.dop = dop;
  return p;
}

PhysProp PhysProp::Singleton() {
  PhysProp p;
  p.scheme = PartScheme::kSingleton;
  p.dop = 1;
  return p;
}

PhysProp PhysProp::Broadcast(int dop) {
  PhysProp p;
  p.scheme = PartScheme::kBroadcast;
  p.dop = dop;
  return p;
}

bool PhysProp::SortSatisfiedBy(const PhysProp& delivered) const {
  if (sort_keys.empty()) return true;
  if (delivered.sort_keys.size() < sort_keys.size()) return false;
  for (size_t i = 0; i < sort_keys.size(); ++i) {
    if (delivered.sort_keys[i] != sort_keys[i]) return false;
  }
  return true;
}

bool PhysProp::SatisfiedBy(const PhysProp& delivered) const {
  if (!SortSatisfiedBy(delivered)) return false;
  switch (scheme) {
    case PartScheme::kAny:
      return true;
    case PartScheme::kRandom:
      // A request never asks for kRandom explicitly; treat as kAny.
      return true;
    case PartScheme::kSingleton:
      return delivered.scheme == PartScheme::kSingleton;
    case PartScheme::kBroadcast:
      return delivered.scheme == PartScheme::kBroadcast &&
             (dop == 0 || delivered.dop == dop);
    case PartScheme::kHash: {
      // Singleton data trivially satisfies any hash partitioning.
      if (delivered.scheme == PartScheme::kSingleton) return true;
      if (delivered.scheme != PartScheme::kHash) return false;
      if (dop != 0 && delivered.dop != dop) return false;
      return delivered.part_keys == part_keys;
    }
  }
  return false;
}

uint64_t PhysProp::Key() const {
  uint64_t h = Mix64(static_cast<uint64_t>(scheme) * 0x51 + 3);
  for (ColumnId c : part_keys) h = HashCombine(h, static_cast<uint64_t>(c) + 1);
  h = HashCombine(h, 0xbeef);
  for (ColumnId c : sort_keys) h = HashCombine(h, static_cast<uint64_t>(c) + 1);
  h = HashCombine(h, static_cast<uint64_t>(dop));
  return h;
}

std::string PhysProp::ToString() const {
  std::string out;
  switch (scheme) {
    case PartScheme::kAny:
      out = "any";
      break;
    case PartScheme::kRandom:
      out = "random";
      break;
    case PartScheme::kHash: {
      out = "hash(";
      for (size_t i = 0; i < part_keys.size(); ++i) {
        if (i > 0) out += ",";
        out += "c" + std::to_string(part_keys[i]);
      }
      out += ")";
      break;
    }
    case PartScheme::kSingleton:
      out = "singleton";
      break;
    case PartScheme::kBroadcast:
      out = "broadcast";
      break;
  }
  if (dop > 0) out += "@" + std::to_string(dop);
  if (!sort_keys.empty()) {
    out += " sorted(";
    for (size_t i = 0; i < sort_keys.size(); ++i) {
      if (i > 0) out += ",";
      out += "c" + std::to_string(sort_keys[i]);
    }
    out += ")";
  }
  return out;
}

}  // namespace qsteer
