#include "exec/reference_executor.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>

#include "catalog/datagen.h"
#include "common/hash.h"
#include "optimizer/stats.h"

namespace qsteer {

namespace {

/// Cap on rows materialized per stream (keeps tests fast).
constexpr int64_t kMaxRowsPerStream = 4000;

/// RowAccessor over one row of a Relation.
class RelationRow : public RowAccessor {
 public:
  RelationRow(const std::vector<ColumnId>& columns, const std::vector<int64_t>* row)
      : columns_(columns), row_(row) {}
  void SetRow(const std::vector<int64_t>* row) { row_ = row; }

  int64_t Get(ColumnId column) const override {
    auto it = std::lower_bound(columns_.begin(), columns_.end(), column);
    if (it == columns_.end() || *it != column) return kNullValue;
    return (*row_)[static_cast<size_t>(it - columns_.begin())];
  }

 private:
  const std::vector<ColumnId>& columns_;
  const std::vector<int64_t>* row_;
};

int IndexOf(const std::vector<ColumnId>& columns, ColumnId col) {
  auto it = std::lower_bound(columns.begin(), columns.end(), col);
  if (it == columns.end() || *it != col) return -1;
  return static_cast<int>(it - columns.begin());
}

/// Deterministic computed-column function (matches nothing in the optimizer;
/// only result equality across plans matters).
int64_t ComputeDerived(uint64_t seed, const std::vector<int64_t>& inputs, double ndv_hint) {
  uint64_t h = Mix64(seed + 0x51);
  for (int64_t v : inputs) h = HashCombine(h, static_cast<uint64_t>(v) + 3);
  int64_t domain = std::max<int64_t>(1, static_cast<int64_t>(ndv_hint));
  return 1 + static_cast<int64_t>(Mix64(h) % static_cast<uint64_t>(domain));
}

/// True row-wise UDO decision; keyed by name and row content so it commutes
/// with selects and unions.
bool UdoKeepsRow(const std::string& name, double job_latent, const std::vector<int64_t>& row) {
  double rate = std::clamp(UdoTrueSelectivity(name) * job_latent, 0.005, 1.0);
  uint64_t h = HashString(name);
  for (int64_t v : row) h = HashCombine(h, static_cast<uint64_t>(v) + 17);
  return (static_cast<double>(Mix64(h) & 0xffffff) / 16777215.0) < rate;
}

struct AggState {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  bool has_value = false;

  void Update(AggFunc func, int64_t value, bool is_null) {
    if (func == AggFunc::kCount) {
      ++count;
      return;
    }
    if (is_null) return;
    if (!has_value) {
      has_value = true;
      sum = min = max = value;
      return;
    }
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }

  int64_t Result(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return count;
      case AggFunc::kSum:
        return has_value ? sum : kNullValue;
      case AggFunc::kMin:
        return has_value ? min : kNullValue;
      case AggFunc::kMax:
        return has_value ? max : kNullValue;
    }
    return kNullValue;
  }
};

}  // namespace

std::string Relation::Fingerprint(const std::vector<ColumnId>& restrict_to) const {
  std::vector<int> keep;
  if (restrict_to.empty()) {
    for (size_t i = 0; i < columns.size(); ++i) keep.push_back(static_cast<int>(i));
  } else {
    for (ColumnId c : restrict_to) {
      int idx = IndexOf(columns, c);
      if (idx >= 0) keep.push_back(idx);
    }
  }
  // Order-insensitive bag fingerprint: sort per-row hashes, then hash the
  // sorted sequence.
  std::vector<uint64_t> row_hashes;
  row_hashes.reserve(rows.size());
  for (const std::vector<int64_t>& row : rows) {
    uint64_t h = 0x5115;
    for (int idx : keep) h = HashCombine(h, static_cast<uint64_t>(row[static_cast<size_t>(idx)]));
    row_hashes.push_back(h);
  }
  std::sort(row_hashes.begin(), row_hashes.end());
  uint64_t h = 0x900d;
  for (uint64_t rh : row_hashes) h = HashCombine(h, rh);
  return std::to_string(keep.size()) + ":" + std::to_string(rows.size()) + ":" +
         std::to_string(h);
}

ReferenceExecutor::ReferenceExecutor(const Catalog* catalog) : catalog_(catalog) {}

Relation ReferenceExecutor::Execute(const Job& job, const PlanNodePtr& root) const {
  std::unordered_map<const PlanNode*, Relation> cache;

  std::function<const Relation&(const PlanNode*)> exec =
      [&](const PlanNode* node) -> const Relation& {
    auto it = cache.find(node);
    if (it != cache.end()) return it->second;
    const Operator& op = node->op;
    Relation out;

    auto scan = [&](int stream_id, const std::vector<ColumnId>& scan_columns) {
      Relation rel;
      RowBatch batch = MaterializeStream(*catalog_, stream_id, job.day, kMaxRowsPerStream);
      rel.columns = scan_columns;
      std::sort(rel.columns.begin(), rel.columns.end());
      rel.rows.reserve(static_cast<size_t>(batch.num_rows()));
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<int64_t> row;
        row.reserve(rel.columns.size());
        for (ColumnId c : rel.columns) {
          const ColumnInfo& info = job.columns->info(c);
          row.push_back(batch.columns[static_cast<size_t>(info.column_index)]
                                     [static_cast<size_t>(r)]);
        }
        rel.rows.push_back(std::move(row));
      }
      return rel;
    };

    switch (op.kind) {
      case OpKind::kGet:
      case OpKind::kRangeScan: {
        out = scan(op.stream_id, op.scan_columns);
        break;
      }
      case OpKind::kSample:
      case OpKind::kSampleScan: {
        // Both forms are unary samplers over their child.
        Relation in = exec(node->children[0].get());
        out.columns = in.columns;
        for (const auto& row : in.rows) {
          uint64_t h = 0x5a;
          for (int64_t v : row) h = HashCombine(h, static_cast<uint64_t>(v));
          if ((static_cast<double>(Mix64(h) & 0xffffff) / 16777215.0) < op.sample_fraction) {
            out.rows.push_back(row);
          }
        }
        break;
      }
      case OpKind::kSelect:
      case OpKind::kFilter: {
        const Relation& in = exec(node->children[0].get());
        out.columns = in.columns;
        RelationRow accessor(in.columns, nullptr);
        for (const auto& row : in.rows) {
          accessor.SetRow(&row);
          if (op.predicate == nullptr || op.predicate->EvalPredicate(accessor)) {
            out.rows.push_back(row);
          }
        }
        break;
      }
      case OpKind::kProject:
      case OpKind::kCompute: {
        const Relation& in = exec(node->children[0].get());
        std::vector<ColumnId> outputs;
        for (const NamedExpr& p : op.projections) outputs.push_back(p.output);
        std::sort(outputs.begin(), outputs.end());
        outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
        out.columns = outputs;
        for (const auto& row : in.rows) {
          std::vector<int64_t> new_row(out.columns.size(), kNullValue);
          for (const NamedExpr& p : op.projections) {
            int out_idx = IndexOf(out.columns, p.output);
            if (p.pass_through) {
              int in_idx = IndexOf(in.columns, p.inputs.empty() ? p.output : p.inputs[0]);
              new_row[static_cast<size_t>(out_idx)] =
                  in_idx >= 0 ? row[static_cast<size_t>(in_idx)] : kNullValue;
            } else {
              std::vector<int64_t> args;
              for (ColumnId c : p.inputs) {
                int in_idx = IndexOf(in.columns, c);
                args.push_back(in_idx >= 0 ? row[static_cast<size_t>(in_idx)] : kNullValue);
              }
              new_row[static_cast<size_t>(out_idx)] = ComputeDerived(
                  p.fn_seed, args, job.columns->info(p.output).derived_ndv);
            }
          }
          out.rows.push_back(std::move(new_row));
        }
        break;
      }
      case OpKind::kJoin:
      case OpKind::kHashJoin:
      case OpKind::kBroadcastHashJoin:
      case OpKind::kMergeJoin:
      case OpKind::kLoopJoin:
      case OpKind::kIndexApplyJoin: {
        const Relation& left = exec(node->children[0].get());
        Relation right_local;
        const Relation* right = nullptr;
        if (op.kind == OpKind::kIndexApplyJoin) {
          right_local = scan(op.stream_id, op.scan_columns);
          right = &right_local;
        } else {
          right = &exec(node->children[1].get());
        }

        // Column layout of the join output.
        if (op.join_type == JoinType::kLeftSemi) {
          out.columns = left.columns;
        } else {
          out.columns = left.columns;
          out.columns.insert(out.columns.end(), right->columns.begin(),
                             right->columns.end());
          std::sort(out.columns.begin(), out.columns.end());
          out.columns.erase(std::unique(out.columns.begin(), out.columns.end()),
                            out.columns.end());
        }

        // Hash the right side on its keys.
        std::vector<int> right_key_idx;
        for (ColumnId k : op.right_keys) right_key_idx.push_back(IndexOf(right->columns, k));
        std::unordered_map<uint64_t, std::vector<const std::vector<int64_t>*>> hash_table;
        for (const auto& row : right->rows) {
          uint64_t h = 0xbeef;
          bool null_key = false;
          for (int idx : right_key_idx) {
            int64_t v = idx >= 0 ? row[static_cast<size_t>(idx)] : kNullValue;
            if (v == kNullValue) null_key = true;
            h = HashCombine(h, static_cast<uint64_t>(v));
          }
          if (!null_key) hash_table[h].push_back(&row);
        }

        std::vector<int> left_key_idx;
        for (ColumnId k : op.left_keys) left_key_idx.push_back(IndexOf(left.columns, k));

        auto keys_equal = [&](const std::vector<int64_t>& lrow,
                              const std::vector<int64_t>& rrow) {
          for (size_t i = 0; i < left_key_idx.size(); ++i) {
            int64_t lv = left_key_idx[i] >= 0
                             ? lrow[static_cast<size_t>(left_key_idx[i])]
                             : kNullValue;
            int64_t rv = right_key_idx[i] >= 0
                             ? rrow[static_cast<size_t>(right_key_idx[i])]
                             : kNullValue;
            if (lv == kNullValue || rv == kNullValue || lv != rv) return false;
          }
          return true;
        };

        auto emit = [&](const std::vector<int64_t>& lrow,
                        const std::vector<int64_t>* rrow) {
          std::vector<int64_t> row(out.columns.size(), kNullValue);
          for (size_t i = 0; i < left.columns.size(); ++i) {
            int idx = IndexOf(out.columns, left.columns[i]);
            if (idx >= 0) row[static_cast<size_t>(idx)] = lrow[i];
          }
          if (rrow != nullptr) {
            for (size_t i = 0; i < right->columns.size(); ++i) {
              int idx = IndexOf(out.columns, right->columns[i]);
              if (idx >= 0) row[static_cast<size_t>(idx)] = (*rrow)[i];
            }
          }
          out.rows.push_back(std::move(row));
        };

        // Residual predicate evaluated over the combined row.
        RelationRow accessor(out.columns, nullptr);
        for (const auto& lrow : left.rows) {
          uint64_t h = 0xbeef;
          bool null_key = false;
          for (int idx : left_key_idx) {
            int64_t v = idx >= 0 ? lrow[static_cast<size_t>(idx)] : kNullValue;
            if (v == kNullValue) null_key = true;
            h = HashCombine(h, static_cast<uint64_t>(v));
          }
          bool matched = false;
          if (!null_key) {
            auto bucket = hash_table.find(h);
            if (bucket != hash_table.end()) {
              for (const auto* rrow : bucket->second) {
                if (!keys_equal(lrow, *rrow)) continue;
                if (op.join_type == JoinType::kLeftSemi) {
                  matched = true;
                  break;
                }
                size_t before = out.rows.size();
                emit(lrow, rrow);
                if (op.predicate != nullptr && op.predicate->kind() != ExprKind::kTrue) {
                  accessor.SetRow(&out.rows.back());
                  if (!op.predicate->EvalPredicate(accessor)) {
                    out.rows.resize(before);
                    continue;
                  }
                }
                matched = true;
              }
            }
          }
          if (op.join_type == JoinType::kLeftSemi && matched) {
            out.rows.push_back(lrow);
          } else if (op.join_type == JoinType::kLeftOuter && !matched) {
            emit(lrow, nullptr);
          }
        }
        break;
      }
      case OpKind::kGroupBy:
      case OpKind::kHashAgg:
      case OpKind::kStreamAgg:
      case OpKind::kPreHashAgg: {
        // Partial aggregation executes as a full grouping: re-aggregation at
        // the final stage yields identical results, and result equality is
        // all this executor asserts.
        const Relation& in = exec(node->children[0].get());
        std::vector<ColumnId> outputs = op.group_keys;
        for (const AggExpr& a : op.aggs) outputs.push_back(a.output);
        std::sort(outputs.begin(), outputs.end());
        outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
        out.columns = outputs;

        std::vector<int> key_idx;
        for (ColumnId k : op.group_keys) key_idx.push_back(IndexOf(in.columns, k));
        std::vector<int> arg_idx;
        for (const AggExpr& a : op.aggs) arg_idx.push_back(IndexOf(in.columns, a.arg));

        std::map<std::vector<int64_t>, std::vector<AggState>> groups;
        for (const auto& row : in.rows) {
          std::vector<int64_t> key;
          key.reserve(key_idx.size());
          for (int idx : key_idx) {
            key.push_back(idx >= 0 ? row[static_cast<size_t>(idx)] : kNullValue);
          }
          auto& states = groups[key];
          if (states.empty()) states.resize(op.aggs.size());
          for (size_t a = 0; a < op.aggs.size(); ++a) {
            int64_t v = arg_idx[a] >= 0 ? row[static_cast<size_t>(arg_idx[a])] : kNullValue;
            states[a].Update(op.aggs[a].func, v, v == kNullValue);
          }
        }
        for (const auto& [key, states] : groups) {
          std::vector<int64_t> row(out.columns.size(), kNullValue);
          for (size_t i = 0; i < op.group_keys.size(); ++i) {
            int idx = IndexOf(out.columns, op.group_keys[i]);
            if (idx >= 0) row[static_cast<size_t>(idx)] = key[i];
          }
          for (size_t a = 0; a < op.aggs.size(); ++a) {
            int idx = IndexOf(out.columns, op.aggs[a].output);
            if (idx >= 0) row[static_cast<size_t>(idx)] = states[a].Result(op.aggs[a].func);
          }
          out.rows.push_back(std::move(row));
        }
        break;
      }
      case OpKind::kUnionAll:
      case OpKind::kPhysicalUnionAll:
      case OpKind::kVirtualDataset:
      case OpKind::kSortedUnionAll: {
        const Relation& first = exec(node->children[0].get());
        out.columns = first.columns;
        for (const PlanNodePtr& child : node->children) {
          const Relation& in = exec(child.get());
          for (const auto& row : in.rows) {
            if (in.columns == out.columns) {
              out.rows.push_back(row);
            } else {
              // Align by column id (schemas are id-compatible by builder
              // contract, but physical plans may order differently).
              std::vector<int64_t> aligned(out.columns.size(), kNullValue);
              for (size_t i = 0; i < out.columns.size(); ++i) {
                int idx = IndexOf(in.columns, out.columns[i]);
                if (idx >= 0) aligned[i] = row[static_cast<size_t>(idx)];
              }
              out.rows.push_back(std::move(aligned));
            }
          }
        }
        break;
      }
      case OpKind::kProcess:
      case OpKind::kProcessVertex: {
        const Relation& in = exec(node->children[0].get());
        out.columns = in.columns;
        for (const auto& row : in.rows) {
          if (UdoKeepsRow(op.udo_name, job.udo_true_selectivity, row)) {
            out.rows.push_back(row);
          }
        }
        break;
      }
      case OpKind::kWindow:
      case OpKind::kWindowSegment: {
        const Relation& in = exec(node->children[0].get());
        std::vector<ColumnId> outputs = in.columns;
        for (const NamedExpr& p : op.projections) outputs.push_back(p.output);
        std::sort(outputs.begin(), outputs.end());
        outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
        out.columns = outputs;
        for (const auto& row : in.rows) {
          std::vector<int64_t> new_row(out.columns.size(), kNullValue);
          for (size_t i = 0; i < in.columns.size(); ++i) {
            int idx = IndexOf(out.columns, in.columns[i]);
            if (idx >= 0) new_row[static_cast<size_t>(idx)] = row[i];
          }
          for (const NamedExpr& p : op.projections) {
            std::vector<int64_t> args;
            for (ColumnId c : p.inputs) {
              int idx = IndexOf(in.columns, c);
              args.push_back(idx >= 0 ? row[static_cast<size_t>(idx)] : kNullValue);
            }
            int idx = IndexOf(out.columns, p.output);
            if (idx >= 0) {
              new_row[static_cast<size_t>(idx)] = ComputeDerived(
                  p.fn_seed, args, job.columns->info(p.output).derived_ndv);
            }
          }
          out.rows.push_back(std::move(new_row));
        }
        break;
      }
      case OpKind::kTop:
      case OpKind::kTopNSort:
      case OpKind::kTopNHeap: {
        Relation in = exec(node->children[0].get());  // copy: we sort it
        out.columns = in.columns;
        std::vector<int> key_idx;
        for (ColumnId k : op.sort_keys) key_idx.push_back(IndexOf(in.columns, k));
        // Deterministic total order: sort keys ascending (nulls last), then
        // whole-row lexicographic tiebreak.
        std::sort(in.rows.begin(), in.rows.end(),
                  [&](const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
                    for (int idx : key_idx) {
                      if (idx < 0) continue;
                      int64_t av = a[static_cast<size_t>(idx)];
                      int64_t bv = b[static_cast<size_t>(idx)];
                      bool an = av == kNullValue, bn = bv == kNullValue;
                      if (an != bn) return bn;  // nulls last
                      if (av != bv) return av < bv;
                    }
                    return a < b;
                  });
        int64_t limit = std::max<int64_t>(op.limit, 0);
        for (int64_t i = 0; i < limit && i < in.num_rows(); ++i) {
          out.rows.push_back(in.rows[static_cast<size_t>(i)]);
        }
        break;
      }
      case OpKind::kSort:
      case OpKind::kExchange:
      case OpKind::kOutput:
      case OpKind::kOutputWriter: {
        out = exec(node->children[0].get());
        break;
      }
      default: {
        if (!node->children.empty()) out = exec(node->children[0].get());
        break;
      }
    }
    return cache.emplace(node, std::move(out)).first->second;
  };

  return exec(root.get());
}

}  // namespace qsteer
