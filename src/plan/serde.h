// Binary (de)serialization of physical/logical plan DAGs and their scalar
// expressions — the foundation of compile-cache persistence (the nightly
// discovery pass ships warm caches to the serving tier).
//
// Fidelity contract: a round trip reconstructs the DAG *shape* exactly.
// Distinct nodes are written exactly once (children before parents, the
// VisitPlan order) and children are encoded as indices into that node
// table, so shared subtrees stay shared — NumOperators, PlanHash, the
// execution simulator and the memory estimator all count distinct nodes
// and must not see a tree-expanded copy. Expressions are deduplicated the
// same way through one per-plan expression table.
//
// Robustness contract: DeserializePlan never trusts the bytes. Every enum
// is range-checked, every index bounds-checked (children must precede
// parents), every length capped by the remaining input. A corrupt or
// truncated blob returns a Status — callers (the compile-cache loader)
// degrade to a cold compile, never to a wrong plan.
#ifndef QSTEER_PLAN_SERDE_H_
#define QSTEER_PLAN_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "plan/job.h"

namespace qsteer {

/// Little-endian append-only byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Bit-exact: the IEEE-754 image, so round trips preserve every payload
  /// bit (NaNs included) and serialized caches stay bit-identical.
  void PutDouble(double v);
  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  const std::string& buffer() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a ByteWriter buffer. Every getter fails with
/// kInvalidArgument instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* v);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Serializes a plan DAG (may be null: an explicit empty marker).
void SerializePlan(const PlanNodePtr& root, ByteWriter* writer);

/// Reconstructs a DAG serialized by SerializePlan. Shared subtrees come
/// back shared; a corrupt blob returns a non-OK status.
Result<PlanNodePtr> DeserializePlan(ByteReader* reader);

}  // namespace qsteer

#endif  // QSTEER_PLAN_SERDE_H_
