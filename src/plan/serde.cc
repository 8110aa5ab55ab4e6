#include "plan/serde.h"

#include <cstring>
#include <unordered_map>
#include <vector>

namespace qsteer {

void ByteWriter::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

Status ByteReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::InvalidArgument("serde: truncated input (u8)");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::InvalidArgument("serde: truncated input (u32)");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::InvalidArgument("serde: truncated input (u64)");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status ByteReader::GetI32(int32_t* v) {
  uint32_t raw = 0;
  Status status = GetU32(&raw);
  if (!status.ok()) return status;
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status ByteReader::GetI64(int64_t* v) {
  uint64_t raw = 0;
  Status status = GetU64(&raw);
  if (!status.ok()) return status;
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status ByteReader::GetDouble(double* v) {
  uint64_t bits = 0;
  Status status = GetU64(&bits);
  if (!status.ok()) return status;
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::GetString(std::string* v) {
  uint32_t size = 0;
  Status status = GetU32(&size);
  if (!status.ok()) return status;
  if (size > remaining()) return Status::InvalidArgument("serde: truncated input (string)");
  v->assign(data_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

namespace {

// ---------------------------------------------------------------------------
// Expression table
// ---------------------------------------------------------------------------

/// Distinct expressions in children-first emission order: lookups by
/// pointer identity (an unordered map — never iterated, see QL003/QL004),
/// emission over the order vector.
struct ExprTable {
  std::unordered_map<const Expr*, uint32_t> index;
  std::vector<const Expr*> order;

  void Add(const ExprPtr& expr) {
    if (expr == nullptr) return;
    if (index.find(expr.get()) != index.end()) return;
    for (const ExprPtr& child : expr->children()) Add(child);
    index.emplace(expr.get(), static_cast<uint32_t>(order.size()));
    order.push_back(expr.get());
  }

  uint32_t IndexOf(const Expr* expr) const { return index.at(expr); }
};

void WriteExprNode(const Expr& expr, const ExprTable& table, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(expr.kind()));
  writer->PutI32(expr.column());
  writer->PutI64(expr.literal());
  writer->PutU8(static_cast<uint8_t>(expr.cmp()));
  writer->PutString(expr.udf_name());
  writer->PutDouble(expr.udf_selectivity_guess());
  writer->PutU32(static_cast<uint32_t>(expr.children().size()));
  for (const ExprPtr& child : expr.children()) {
    writer->PutU32(table.IndexOf(child.get()));
  }
}

void WriteExprTable(const ExprTable& table, ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(table.order.size()));
  for (const Expr* expr : table.order) WriteExprNode(*expr, table, writer);
}

Result<std::vector<ExprPtr>> ReadExprTable(ByteReader* reader) {
  uint32_t count = 0;
  Status status = reader->GetU32(&count);
  if (!status.ok()) return status;
  // Every node costs at least a header's worth of bytes; a count that
  // cannot fit in the remaining input is a torn length field.
  if (count > reader->remaining()) {
    return Status::InvalidArgument("serde: expression count exceeds input");
  }
  std::vector<ExprPtr> exprs;
  exprs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind_raw = 0;
    int32_t column = 0;
    int64_t literal = 0;
    uint8_t cmp_raw = 0;
    std::string udf_name;
    double udf_selectivity = 0.0;
    uint32_t num_children = 0;
    if (!(status = reader->GetU8(&kind_raw)).ok()) return status;
    if (!(status = reader->GetI32(&column)).ok()) return status;
    if (!(status = reader->GetI64(&literal)).ok()) return status;
    if (!(status = reader->GetU8(&cmp_raw)).ok()) return status;
    if (!(status = reader->GetString(&udf_name)).ok()) return status;
    if (!(status = reader->GetDouble(&udf_selectivity)).ok()) return status;
    if (!(status = reader->GetU32(&num_children)).ok()) return status;
    if (kind_raw > static_cast<uint8_t>(ExprKind::kTrue)) {
      return Status::InvalidArgument("serde: unknown expression kind");
    }
    if (cmp_raw > static_cast<uint8_t>(CmpOp::kGe)) {
      return Status::InvalidArgument("serde: unknown comparison op");
    }
    if (num_children > reader->remaining() / 4 + 1) {
      return Status::InvalidArgument("serde: expression child count exceeds input");
    }
    std::vector<ExprPtr> children;
    children.reserve(num_children);
    for (uint32_t c = 0; c < num_children; ++c) {
      uint32_t child_index = 0;
      if (!(status = reader->GetU32(&child_index)).ok()) return status;
      // Children precede parents in the table; a forward or self reference
      // is corruption (and would otherwise build a cycle).
      if (child_index >= i) {
        return Status::InvalidArgument("serde: expression child index out of range");
      }
      children.push_back(exprs[child_index]);
    }
    ExprKind kind = static_cast<ExprKind>(kind_raw);
    ExprPtr expr;
    switch (kind) {
      case ExprKind::kColumn:
        expr = Expr::Column(column);
        break;
      case ExprKind::kLiteral:
        expr = Expr::Literal(literal);
        break;
      case ExprKind::kCompare:
        if (children.size() != 2) {
          return Status::InvalidArgument("serde: compare needs exactly two children");
        }
        expr = Expr::Compare(static_cast<CmpOp>(cmp_raw), children[0], children[1]);
        break;
      case ExprKind::kAnd:
      case ExprKind::kOr:
        // The factories collapse 0/1-child conjunctions, so a well-formed
        // blob never contains them; reject instead of silently reshaping.
        if (children.size() < 2) {
          return Status::InvalidArgument("serde: and/or needs at least two children");
        }
        expr = kind == ExprKind::kAnd ? Expr::And(std::move(children))
                                      : Expr::Or(std::move(children));
        break;
      case ExprKind::kNot:
        if (children.size() != 1) {
          return Status::InvalidArgument("serde: not needs exactly one child");
        }
        expr = Expr::Not(children[0]);
        break;
      case ExprKind::kIsNotNull:
        expr = Expr::IsNotNull(column);
        break;
      case ExprKind::kUdfPredicate:
        expr = Expr::UdfPredicate(std::move(udf_name), udf_selectivity, column);
        break;
      case ExprKind::kTrue:
        expr = Expr::True();
        break;
    }
    exprs.push_back(std::move(expr));
  }
  return exprs;
}

// ---------------------------------------------------------------------------
// Operator payload
// ---------------------------------------------------------------------------

void WriteColumnVec(const std::vector<ColumnId>& columns, ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(columns.size()));
  for (ColumnId column : columns) writer->PutI32(column);
}

Status ReadColumnVec(ByteReader* reader, std::vector<ColumnId>* out) {
  uint32_t count = 0;
  Status status = reader->GetU32(&count);
  if (!status.ok()) return status;
  if (count > reader->remaining() / 4 + 1) {
    return Status::InvalidArgument("serde: column count exceeds input");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ColumnId column = 0;
    if (!(status = reader->GetI32(&column)).ok()) return status;
    out->push_back(column);
  }
  return Status::OK();
}

void WriteOperator(const Operator& op, const ExprTable& exprs, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(op.kind));
  writer->PutI32(op.stream_id);
  writer->PutI32(op.stream_set_id);
  WriteColumnVec(op.scan_columns, writer);
  writer->PutDouble(op.partition_fraction);
  // Predicate: 0 = none, else expression-table index + 1.
  writer->PutU32(op.predicate == nullptr ? 0 : exprs.IndexOf(op.predicate.get()) + 1);
  writer->PutU8(static_cast<uint8_t>(op.join_type));
  WriteColumnVec(op.left_keys, writer);
  WriteColumnVec(op.right_keys, writer);
  writer->PutI32(op.build_side);
  WriteColumnVec(op.group_keys, writer);
  writer->PutU32(static_cast<uint32_t>(op.aggs.size()));
  for (const AggExpr& agg : op.aggs) {
    writer->PutU8(static_cast<uint8_t>(agg.func));
    writer->PutI32(agg.arg);
    writer->PutI32(agg.output);
  }
  writer->PutU8(op.partial_agg ? 1 : 0);
  writer->PutU32(static_cast<uint32_t>(op.projections.size()));
  for (const NamedExpr& projection : op.projections) {
    writer->PutI32(projection.output);
    writer->PutU8(projection.pass_through ? 1 : 0);
    WriteColumnVec(projection.inputs, writer);
    writer->PutU64(projection.fn_seed);
  }
  writer->PutI64(op.limit);
  WriteColumnVec(op.sort_keys, writer);
  writer->PutString(op.udo_name);
  writer->PutDouble(op.udo_selectivity_guess);
  writer->PutDouble(op.udo_cost_per_row_guess);
  WriteColumnVec(op.window_keys, writer);
  writer->PutDouble(op.sample_fraction);
  writer->PutU8(static_cast<uint8_t>(op.exchange));
  WriteColumnVec(op.exchange_keys, writer);
  writer->PutI32(op.dop);
}

Status ReadOperator(ByteReader* reader, const std::vector<ExprPtr>& exprs, Operator* op) {
  uint8_t kind_raw = 0;
  Status status = reader->GetU8(&kind_raw);
  if (!status.ok()) return status;
  if (kind_raw > static_cast<uint8_t>(OpKind::kOutputWriter)) {
    return Status::InvalidArgument("serde: unknown operator kind");
  }
  op->kind = static_cast<OpKind>(kind_raw);
  if (!(status = reader->GetI32(&op->stream_id)).ok()) return status;
  if (!(status = reader->GetI32(&op->stream_set_id)).ok()) return status;
  if (!(status = ReadColumnVec(reader, &op->scan_columns)).ok()) return status;
  if (!(status = reader->GetDouble(&op->partition_fraction)).ok()) return status;
  uint32_t predicate_ref = 0;
  if (!(status = reader->GetU32(&predicate_ref)).ok()) return status;
  if (predicate_ref != 0) {
    if (predicate_ref > exprs.size()) {
      return Status::InvalidArgument("serde: predicate index out of range");
    }
    op->predicate = exprs[predicate_ref - 1];
  }
  uint8_t join_type_raw = 0;
  if (!(status = reader->GetU8(&join_type_raw)).ok()) return status;
  if (join_type_raw > static_cast<uint8_t>(JoinType::kLeftSemi)) {
    return Status::InvalidArgument("serde: unknown join type");
  }
  op->join_type = static_cast<JoinType>(join_type_raw);
  if (!(status = ReadColumnVec(reader, &op->left_keys)).ok()) return status;
  if (!(status = ReadColumnVec(reader, &op->right_keys)).ok()) return status;
  if (!(status = reader->GetI32(&op->build_side)).ok()) return status;
  if (!(status = ReadColumnVec(reader, &op->group_keys)).ok()) return status;
  uint32_t num_aggs = 0;
  if (!(status = reader->GetU32(&num_aggs)).ok()) return status;
  if (num_aggs > reader->remaining() / 9 + 1) {
    return Status::InvalidArgument("serde: aggregate count exceeds input");
  }
  op->aggs.clear();
  op->aggs.reserve(num_aggs);
  for (uint32_t i = 0; i < num_aggs; ++i) {
    uint8_t func_raw = 0;
    AggExpr agg;
    if (!(status = reader->GetU8(&func_raw)).ok()) return status;
    if (func_raw > static_cast<uint8_t>(AggFunc::kMax)) {
      return Status::InvalidArgument("serde: unknown aggregate function");
    }
    agg.func = static_cast<AggFunc>(func_raw);
    if (!(status = reader->GetI32(&agg.arg)).ok()) return status;
    if (!(status = reader->GetI32(&agg.output)).ok()) return status;
    op->aggs.push_back(agg);
  }
  uint8_t partial_agg = 0;
  if (!(status = reader->GetU8(&partial_agg)).ok()) return status;
  op->partial_agg = partial_agg != 0;
  uint32_t num_projections = 0;
  if (!(status = reader->GetU32(&num_projections)).ok()) return status;
  if (num_projections > reader->remaining() / 17 + 1) {
    return Status::InvalidArgument("serde: projection count exceeds input");
  }
  op->projections.clear();
  op->projections.reserve(num_projections);
  for (uint32_t i = 0; i < num_projections; ++i) {
    NamedExpr projection;
    uint8_t pass_through = 0;
    if (!(status = reader->GetI32(&projection.output)).ok()) return status;
    if (!(status = reader->GetU8(&pass_through)).ok()) return status;
    projection.pass_through = pass_through != 0;
    if (!(status = ReadColumnVec(reader, &projection.inputs)).ok()) return status;
    if (!(status = reader->GetU64(&projection.fn_seed)).ok()) return status;
    op->projections.push_back(std::move(projection));
  }
  if (!(status = reader->GetI64(&op->limit)).ok()) return status;
  if (!(status = ReadColumnVec(reader, &op->sort_keys)).ok()) return status;
  if (!(status = reader->GetString(&op->udo_name)).ok()) return status;
  if (!(status = reader->GetDouble(&op->udo_selectivity_guess)).ok()) return status;
  if (!(status = reader->GetDouble(&op->udo_cost_per_row_guess)).ok()) return status;
  if (!(status = ReadColumnVec(reader, &op->window_keys)).ok()) return status;
  if (!(status = reader->GetDouble(&op->sample_fraction)).ok()) return status;
  uint8_t exchange_raw = 0;
  if (!(status = reader->GetU8(&exchange_raw)).ok()) return status;
  if (exchange_raw > static_cast<uint8_t>(ExchangeKind::kBroadcast)) {
    return Status::InvalidArgument("serde: unknown exchange kind");
  }
  op->exchange = static_cast<ExchangeKind>(exchange_raw);
  if (!(status = ReadColumnVec(reader, &op->exchange_keys)).ok()) return status;
  if (!(status = reader->GetI32(&op->dop)).ok()) return status;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan DAG
// ---------------------------------------------------------------------------

void SerializePlan(const PlanNodePtr& root, ByteWriter* writer) {
  if (root == nullptr) {
    writer->PutU8(0);
    return;
  }
  writer->PutU8(1);

  // Distinct plan nodes, children before parents (the VisitPlan order).
  std::unordered_map<const PlanNode*, uint32_t> node_index;
  std::vector<const PlanNode*> nodes;
  VisitPlan(root, [&](const PlanNode& node) {
    node_index.emplace(&node, static_cast<uint32_t>(nodes.size()));
    nodes.push_back(&node);
  });

  // One expression table for the whole plan: rules copy ExprPtrs between
  // operators, so expressions shared across nodes serialize once too.
  ExprTable exprs;
  for (const PlanNode* node : nodes) exprs.Add(node->op.predicate);
  WriteExprTable(exprs, writer);

  writer->PutU32(static_cast<uint32_t>(nodes.size()));
  for (const PlanNode* node : nodes) {
    WriteOperator(node->op, exprs, writer);
    writer->PutU32(static_cast<uint32_t>(node->children.size()));
    for (const PlanNodePtr& child : node->children) {
      writer->PutU32(node_index.at(child.get()));
    }
  }
  writer->PutU32(node_index.at(root.get()));
}

Result<PlanNodePtr> DeserializePlan(ByteReader* reader) {
  uint8_t present = 0;
  Status status = reader->GetU8(&present);
  if (!status.ok()) return status;
  if (present == 0) return PlanNodePtr();
  if (present != 1) return Status::InvalidArgument("serde: bad plan presence marker");

  Result<std::vector<ExprPtr>> exprs = ReadExprTable(reader);
  if (!exprs.ok()) return exprs.status();

  uint32_t num_nodes = 0;
  if (!(status = reader->GetU32(&num_nodes)).ok()) return status;
  if (num_nodes == 0) return Status::InvalidArgument("serde: plan with zero nodes");
  if (num_nodes > reader->remaining()) {
    return Status::InvalidArgument("serde: plan node count exceeds input");
  }
  std::vector<PlanNodePtr> nodes;
  nodes.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    Operator op;
    if (!(status = ReadOperator(reader, exprs.value(), &op)).ok()) return status;
    uint32_t num_children = 0;
    if (!(status = reader->GetU32(&num_children)).ok()) return status;
    if (num_children > reader->remaining() / 4 + 1) {
      return Status::InvalidArgument("serde: plan child count exceeds input");
    }
    std::vector<PlanNodePtr> children;
    children.reserve(num_children);
    for (uint32_t c = 0; c < num_children; ++c) {
      uint32_t child_index = 0;
      if (!(status = reader->GetU32(&child_index)).ok()) return status;
      if (child_index >= i) {
        return Status::InvalidArgument("serde: plan child index out of range");
      }
      children.push_back(nodes[child_index]);
    }
    nodes.push_back(PlanNode::Make(std::move(op), std::move(children)));
  }
  uint32_t root_index = 0;
  if (!(status = reader->GetU32(&root_index)).ok()) return status;
  if (root_index >= nodes.size()) {
    return Status::InvalidArgument("serde: plan root index out of range");
  }
  return nodes[root_index];
}

}  // namespace qsteer
