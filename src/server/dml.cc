#include "server/dml.h"

#include <algorithm>
#include <map>
#include <set>

#include "optimizer/expr_eval.h"

namespace hive {

/// One statement's ACID writes to a table under one write id. Every row
/// routes to the partition its partition values name, and records its write
/// set and shared lock on that partition before reaching the partition's
/// AcidWriter.
class TableWriter {
 public:
  TableWriter(HiveServer2* server, const TableDesc& desc, int64_t txn, int64_t write_id)
      : server_(server), desc_(desc), txn_(txn), write_id_(write_id) {}

  /// Deletes record `id` from the partition `part_values` name (none for an
  /// unpartitioned table).
  Status Delete(const std::vector<Value>& part_values, const RecordId& id) {
    HIVE_ASSIGN_OR_RETURN(AcidWriter * writer,
                          Route(part_values, WriteOpKind::kUpdateDelete));
    writer->Delete(id);
    return Status::OK();
  }

  /// Inserts `row`: the data columns, then the partition values.
  Status Insert(const std::vector<Value>& row) {
    auto data_end = row.begin() + std::min(row.size(), desc_.schema.num_fields());
    HIVE_ASSIGN_OR_RETURN(AcidWriter * writer,
                          Route({data_end, row.end()}, WriteOpKind::kInsert));
    writer->Insert({row.begin(), data_end});
    return Status::OK();
  }

  /// Registers the partitions inserts created, then flushes every writer.
  Status Commit() {
    for (const auto& [dir, values] : new_partitions_)
      HIVE_RETURN_IF_ERROR(server_->catalog()->AddPartition(desc_.db, desc_.name, values));
    for (auto& [location, writer] : writers_) HIVE_RETURN_IF_ERROR(writer->Commit());
    return Status::OK();
  }

 private:
  Result<AcidWriter*> Route(const std::vector<Value>& part_values, WriteOpKind kind) {
    std::string location = desc_.location;
    std::string resource = desc_.FullName();
    if (desc_.IsPartitioned()) {
      std::string dir = Catalog::PartitionDirName(desc_.partition_cols, part_values);
      location = JoinPath(location, dir);
      resource += "/" + dir;
      if (kind == WriteOpKind::kInsert) new_partitions_.emplace(dir, part_values);
    }
    HIVE_RETURN_IF_ERROR(server_->txns()->RecordWriteSet(txn_, resource, kind));
    HIVE_RETURN_IF_ERROR(server_->txns()->AcquireLock(txn_, resource, LockMode::kShared));
    std::unique_ptr<AcidWriter>& writer = writers_[location];
    if (!writer)
      writer = std::make_unique<AcidWriter>(server_->filesystem(), location,
                                            desc_.schema, write_id_);
    return writer.get();
  }

  HiveServer2* server_;
  const TableDesc& desc_;
  int64_t txn_;
  int64_t write_id_;
  std::map<std::string, std::unique_ptr<AcidWriter>> writers_;  // by location
  std::map<std::string, std::vector<Value>> new_partitions_;    // by directory
};

namespace {

/// `SELECT <items> FROM <from> [WHERE <where>]` as a statement tree.
SelectStmt MakeSelect(std::vector<SelectItem> items, TableRefPtr from, ExprPtr where) {
  auto body = std::make_shared<QueryExpr>();
  body->core.items = std::move(items);
  body->core.from = std::move(from);
  body->core.where = std::move(where);
  SelectStmt stmt;
  stmt.body = body;
  return stmt;
}

/// The DML target as a FROM item that also yields its record-id columns.
TableRefPtr TargetRef(const TableDesc& desc, const std::string& alias) {
  auto ref = std::make_shared<TableRef>();
  ref->db = desc.db;
  ref->table = desc.name;
  ref->alias = alias;
  ref->with_record_id = true;
  return ref;
}

SelectItem Column(const std::string& alias, const std::string& name) {
  return {MakeColumnRef(alias, name), ""};
}

/// The leading items of every DML read: the target's record id, then its
/// partition values (which route the row's writes).
std::vector<SelectItem> RecordIdAndPartition(const TableDesc& desc,
                                             const std::string& alias) {
  std::vector<SelectItem> items;
  for (const char* name : kAcidRecordIdCols) items.push_back(Column(alias, name));
  for (const Field& f : desc.partition_cols) items.push_back(Column(alias, f.name));
  return items;
}

/// The target's data columns, each SET column replaced by its new value.
Result<std::vector<SelectItem>> UpdatedRow(
    const TableDesc& desc, const std::string& alias,
    const std::vector<std::pair<std::string, ExprPtr>>& assignments) {
  std::vector<SelectItem> items;
  for (const Field& f : desc.schema.fields()) items.push_back(Column(alias, f.name));
  for (const auto& [column, expr] : assignments) {
    if (auto idx = desc.schema.IndexOf(column)) {
      items[*idx].expr = expr;
    } else if (desc.FullSchema().IndexOf(column)) {
      return Status::NotSupported("cannot UPDATE a partition column");
    } else {
      return Status::PlanError("unknown column " + column);
    }
  }
  return items;
}

/// A column value converted to its declared type; a failed cast is NULL.
Value CastOrNull(const Value& v, const DataType& type) {
  auto cast = v.CastTo(type);
  return cast.ok() ? *cast : Value::Null();
}

RecordId RecordIdOf(const std::vector<Value>& row) {
  return {row[0].i64(), row[1].i64(), row[2].i64()};
}

/// The partition values that follow the record id in a DML read's row.
std::vector<Value> PartitionValues(const TableDesc& desc, const std::vector<Value>& row) {
  auto begin = row.begin() + kNumAcidMetaCols;
  return {begin, begin + desc.partition_cols.size()};
}

/// An UPDATE or matched MERGE row: deletes the record and inserts its new
/// version, read from `row` at `updated_at`, into the same partition.
Status WriteUpdate(const TableDesc& desc, const std::vector<Value>& row, size_t updated_at,
                   TableWriter* writer) {
  std::vector<Value> part_values = PartitionValues(desc, row);
  HIVE_RETURN_IF_ERROR(writer->Delete(part_values, RecordIdOf(row)));
  std::vector<Value> updated;
  for (size_t c = 0; c < desc.schema.num_fields(); ++c)
    updated.push_back(CastOrNull(row[updated_at + c], desc.schema.field(c).type));
  updated.insert(updated.end(), part_values.begin(), part_values.end());
  return writer->Insert(updated);
}

}  // namespace

TableStatistics DmlDriver::ComputeStats(const Schema& schema,
                                        const std::vector<std::vector<Value>>& rows) {
  TableStatistics stats;
  stats.row_count = static_cast<int64_t>(rows.size());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnStatistics col;
    for (const auto& row : rows) {
      if (c >= row.size()) continue;
      ++col.num_values;
      if (row[c].is_null()) {
        ++col.num_nulls;
        continue;
      }
      if (col.min.is_null() || Value::Compare(row[c], col.min) < 0) col.min = row[c];
      if (col.max.is_null() || Value::Compare(row[c], col.max) > 0) col.max = row[c];
      col.ndv.Add(row[c]);
    }
    stats.columns[ToLower(schema.field(c).name)] = std::move(col);
  }
  return stats;
}

Result<QueryResult> DmlDriver::RunSelect(const SelectStmt& stmt) {
  return server_->ExecuteSelect(session_, stmt, /*cache_key=*/"", /*bypass_cache=*/true);
}

std::pair<std::string, std::string> DmlDriver::ResolveTarget(
    const std::string& db, const std::string& table) const {
  std::string out_db = db;
  std::string out_table = table;
  if (out_db.empty()) {
    session_->ResolveTempTable(&out_db, &out_table);
    if (out_db.empty()) out_db = session_->database;
  }
  return {out_db, out_table};
}

Result<QueryResult> DmlDriver::CreateTable(const CreateTableStatement& stmt) {
  if (stmt.temporary) {
    // Session temp table: physically a normal table in the hidden temp
    // database under a session-mangled name, registered with the session
    // so unqualified references resolve to it and close drops it.
    if (!stmt.db.empty())
      return Status::InvalidArgument(
          "TEMPORARY tables cannot be database-qualified");
    CreateTableStatement physical = stmt;
    physical.temporary = false;
    physical.db = kTempDatabase;
    physical.table = Session::TempPhysicalName(session_->id, stmt.table);
    HIVE_RETURN_IF_ERROR(session_->AddTempTable(stmt.table, physical.table));
    auto result = CreateTable(physical);
    if (!result.ok()) {
      std::string unused;
      // lint: allow-discard(undoing the registration we just made)
      (void)session_->RemoveTempTable(stmt.table, &unused);
    }
    return result;
  }
  TableDesc desc;
  desc.db = stmt.db.empty() ? session_->database : stmt.db;
  desc.name = stmt.table;
  for (const ColumnDef& col : stmt.columns) desc.schema.AddField(col.name, col.type);
  for (const ColumnDef& col : stmt.partition_columns)
    desc.partition_cols.push_back({col.name, col.type});
  desc.storage_handler = stmt.stored_by;
  desc.properties = stmt.properties;
  desc.is_acid = stmt.stored_by.empty() && !stmt.external;
  if (stmt.properties.count("transactional") &&
      stmt.properties.at("transactional") == "false")
    desc.is_acid = false;
  for (const auto& constraint : stmt.constraints) {
    ConstraintDef def;
    switch (constraint.kind) {
      case CreateTableStatement::Constraint::Kind::kPrimaryKey:
        def.kind = ConstraintDef::Kind::kPrimaryKey;
        break;
      case CreateTableStatement::Constraint::Kind::kForeignKey:
        def.kind = ConstraintDef::Kind::kForeignKey;
        break;
      case CreateTableStatement::Constraint::Kind::kUnique:
        def.kind = ConstraintDef::Kind::kUnique;
        break;
      case CreateTableStatement::Constraint::Kind::kNotNull:
        def.kind = ConstraintDef::Kind::kNotNull;
        break;
    }
    def.columns = constraint.columns;
    def.ref_table = constraint.ref_table;
    def.ref_columns = constraint.ref_columns;
    desc.constraints.push_back(std::move(def));
  }

  // CTAS: derive missing columns from the query output.
  std::vector<std::vector<Value>> ctas_rows;
  if (stmt.as_select) {
    HIVE_ASSIGN_OR_RETURN(QueryResult source, RunSelect(*stmt.as_select));
    if (desc.schema.num_fields() == 0) desc.schema = source.schema;
    ctas_rows = std::move(source.rows);
  }

  // Metastore hook for storage handlers (may infer the schema).
  if (!desc.storage_handler.empty()) {
    StorageHandler* handler = server_->handlers_.Get(desc.storage_handler);
    if (!handler)
      return Status::NotSupported("unknown storage handler: " + desc.storage_handler);
    HIVE_RETURN_IF_ERROR(handler->OnCreateTable(&desc));
  }

  Status status = server_->catalog_.CreateTable(desc);
  if (!status.ok()) {
    if (stmt.if_not_exists && status.code() == StatusCode::kAlreadyExists)
      return QueryResult{};
    return status;
  }
  if (!ctas_rows.empty()) {
    HIVE_ASSIGN_OR_RETURN(TableDesc created,
                          server_->catalog_.GetTable(desc.db, desc.name));
    int64_t txn = server_->txns_.OpenTxn();
    HIVE_RETURN_IF_ERROR(Finish(txn, InsertRows(created, ctas_rows, txn).status()));
  }
  return QueryResult{};
}

Result<int64_t> DmlDriver::InsertRows(const TableDesc& desc,
                                      const std::vector<std::vector<Value>>& rows,
                                      int64_t txn) {
  // External tables route through their handler's output format.
  if (!desc.storage_handler.empty()) {
    StorageHandler* handler = server_->handlers_.Get(desc.storage_handler);
    if (!handler)
      return Status::NotSupported("unknown storage handler: " + desc.storage_handler);
    RowBatch batch(desc.FullSchema());
    for (const auto& row : rows)
      for (size_t c = 0; c < batch.num_columns(); ++c)
        batch.column(c)->AppendValue(c < row.size() ? row[c] : Value::Null());
    batch.set_num_rows(rows.size());
    HIVE_RETURN_IF_ERROR(handler->Insert(desc, batch));
    return static_cast<int64_t>(rows.size());
  }

  HIVE_ASSIGN_OR_RETURN(int64_t write_id,
                        server_->txns_.AllocateWriteId(txn, desc.FullName()));
  TableWriter writer(server_, desc, txn, write_id);
  for (const auto& row : rows) HIVE_RETURN_IF_ERROR(writer.Insert(row));
  HIVE_RETURN_IF_ERROR(writer.Commit());

  // Statistics merge additively (Section 4.1).
  TableStatistics stats = ComputeStats(desc.FullSchema(), rows);
  HIVE_RETURN_IF_ERROR(server_->catalog_.MergeStats(desc.db, desc.name, stats));
  return static_cast<int64_t>(rows.size());
}

Status DmlDriver::Finish(int64_t txn, const Status& status) {
  if (status.ok()) return server_->txns_.CommitTxn(txn);
  // lint: allow-discard(best-effort abort while propagating the original error)
  (void)server_->txns_.AbortTxn(txn);
  return status;
}

Result<QueryResult> DmlDriver::Insert(const InsertStatement& stmt) {
  auto [db, table] = ResolveTarget(stmt.db, stmt.table);
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, server_->catalog_.GetTable(db, table));
  Schema full = desc.FullSchema();

  // Gather source rows.
  std::vector<std::vector<Value>> rows;
  if (stmt.source) {
    HIVE_ASSIGN_OR_RETURN(QueryResult source, RunSelect(*stmt.source));
    rows = std::move(source.rows);
  } else {
    // VALUES rows are constant expressions, each evaluated on one row.
    Config config = server_->EffectiveConfig(session_);
    Binder binder(&server_->catalog_, &config, session_->database);
    binder.set_table_resolver(server_->TempResolver(session_));
    for (const auto& exprs : stmt.values_rows) {
      std::vector<Value> row;
      for (const ExprPtr& e : exprs) {
        HIVE_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(e, Schema(), ""));
        HIVE_ASSIGN_OR_RETURN(Value v, EvalConstant(*bound));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }

  // Column-list reordering and cast to declared types.
  std::vector<int> target_index(full.num_fields(), -1);
  if (!stmt.columns.empty()) {
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      auto idx = full.IndexOf(stmt.columns[i]);
      if (!idx) return Status::PlanError("unknown column " + stmt.columns[i]);
      target_index[*idx] = static_cast<int>(i);
    }
  }
  std::vector<std::vector<Value>> shaped;
  shaped.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<Value> out(full.num_fields(), Value::Null());
    for (size_t c = 0; c < full.num_fields(); ++c) {
      int src = stmt.columns.empty() ? static_cast<int>(c) : target_index[c];
      if (src < 0 || static_cast<size_t>(src) >= row.size()) continue;
      out[c] = CastOrNull(row[src], full.field(c).type);
    }
    // NOT NULL constraint enforcement.
    for (const ConstraintDef& constraint : desc.constraints) {
      if (constraint.kind != ConstraintDef::Kind::kNotNull) continue;
      for (const std::string& column : constraint.columns) {
        auto idx = full.IndexOf(column);
        if (idx && out[*idx].is_null())
          return Status::InvalidArgument("NOT NULL constraint violated on " + column);
      }
    }
    shaped.push_back(std::move(out));
  }

  int64_t txn = server_->txns_.OpenTxn();
  auto inserted = InsertRows(desc, shaped, txn);
  HIVE_RETURN_IF_ERROR(Finish(txn, inserted.status()));
  // Automatic compaction check (Section 3.2). Post-commit and advisory:
  // the insert already committed, and a failed check simply retries after
  // the next write surpasses the thresholds again.
  if (desc.is_acid) {
    // lint: allow-discard(post-commit compaction is advisory)
    (void)server_->compaction_.MaybeCompact(db, table);
  }
  QueryResult result;
  result.rows_affected = *inserted;
  return result;
}

Result<TableDesc> DmlDriver::AcidTarget(const std::string& db, const std::string& table,
                                        const std::string& verb) const {
  auto [resolved_db, resolved_table] = ResolveTarget(db, table);
  HIVE_ASSIGN_OR_RETURN(TableDesc desc,
                        server_->catalog_.GetTable(resolved_db, resolved_table));
  if (!desc.is_acid) return Status::NotSupported(verb + " requires a transactional table");
  return desc;
}

Result<QueryResult> DmlDriver::ReadAndWrite(const TableDesc& desc, const SelectStmt& read,
                                            const ApplyRow& apply) {
  // The txn must open BEFORE the read: first-commit-wins compares
  // conflicting commits against the txn's start sequence, so a read
  // performed before the start would let a peer's commit slip between read
  // and open undetected.
  int64_t txn = server_->txns_.OpenTxn();
  QueryResult result;
  auto write = [&]() -> Status {
    HIVE_ASSIGN_OR_RETURN(QueryResult targets, RunSelect(read));
    HIVE_ASSIGN_OR_RETURN(int64_t write_id,
                          server_->txns_.AllocateWriteId(txn, desc.FullName()));
    TableWriter writer(server_, desc, txn, write_id);
    for (const std::vector<Value>& row : targets.rows) {
      HIVE_ASSIGN_OR_RETURN(int64_t affected, apply(row, &writer));
      result.rows_affected += affected;
    }
    return writer.Commit();
  };
  HIVE_RETURN_IF_ERROR(Finish(txn, write()));
  // lint: allow-discard(post-commit compaction is advisory)
  (void)server_->compaction_.MaybeCompact(desc.db, desc.name);
  return result;
}

Result<QueryResult> DmlDriver::Update(const UpdateStatement& stmt) {
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, AcidTarget(stmt.db, stmt.table, "UPDATE"));
  // SELECT <record id>, <partition values>, <updated row> FROM t WHERE p:
  // each output row becomes a delete plus an insert (Section 3.2).
  std::vector<SelectItem> items = RecordIdAndPartition(desc, stmt.table);
  const size_t updated_at = items.size();
  HIVE_ASSIGN_OR_RETURN(std::vector<SelectItem> updated,
                        UpdatedRow(desc, stmt.table, stmt.assignments));
  items.insert(items.end(), updated.begin(), updated.end());
  return ReadAndWrite(
      desc, MakeSelect(std::move(items), TargetRef(desc, stmt.table), stmt.where),
      [&](const std::vector<Value>& row, TableWriter* writer) -> Result<int64_t> {
        HIVE_RETURN_IF_ERROR(WriteUpdate(desc, row, updated_at, writer));
        return 1;
      });
}

Result<QueryResult> DmlDriver::Delete(const DeleteStatement& stmt) {
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, AcidTarget(stmt.db, stmt.table, "DELETE"));
  // SELECT <record id>, <partition values> FROM t WHERE p.
  return ReadAndWrite(
      desc,
      MakeSelect(RecordIdAndPartition(desc, stmt.table), TargetRef(desc, stmt.table),
                 stmt.where),
      [&](const std::vector<Value>& row, TableWriter* writer) -> Result<int64_t> {
        HIVE_RETURN_IF_ERROR(writer->Delete(PartitionValues(desc, row), RecordIdOf(row)));
        return 1;
      });
}

Result<QueryResult> DmlDriver::Merge(const MergeStatement& stmt) {
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, AcidTarget(stmt.db, stmt.table, "MERGE"));
  const bool has_matched = stmt.has_matched_update || stmt.has_matched_delete;
  if (!has_matched && !stmt.has_not_matched_insert) return QueryResult{};
  const std::string alias = stmt.target_alias.empty() ? stmt.table : stmt.target_alias;

  // One read over source LEFT JOIN target ON <on> (an inner join when no
  // NOT MATCHED clause can insert). Each output row carries the target's
  // record id and partition values (NULL when unmatched), the updated
  // target row, the values to insert, and last the action its WHEN clauses
  // pick: CASE [WHEN <unmatched> THEN 'insert'] [WHEN <cond> THEN 'delete']
  // [WHEN <cond> THEN 'update'] END — a matched DELETE before UPDATE.
  std::vector<SelectItem> items = RecordIdAndPartition(desc, alias);
  auto action = std::make_shared<Expr>();
  action->kind = ExprKind::kCase;
  auto when = [&](ExprPtr condition, const char* name) {
    action->children.push_back(condition ? condition : MakeLiteral(Value::Boolean(true)));
    action->children.push_back(MakeLiteral(Value::String(name)));
  };
  if (stmt.has_not_matched_insert) {
    auto unmatched = std::make_shared<Expr>();
    unmatched->kind = ExprKind::kIsNull;
    unmatched->children = {MakeColumnRef(alias, kAcidWriteIdCol)};
    when(unmatched, "insert");
  }
  if (stmt.has_matched_delete) when(stmt.matched_delete_condition, "delete");
  const size_t updated_at = items.size();
  if (stmt.has_matched_update) {
    when(stmt.matched_update_condition, "update");
    HIVE_ASSIGN_OR_RETURN(std::vector<SelectItem> updated,
                          UpdatedRow(desc, alias, stmt.matched_assignments));
    items.insert(items.end(), updated.begin(), updated.end());
  }
  const size_t insert_at = items.size();
  for (const ExprPtr& value : stmt.insert_values) items.push_back({value, ""});
  items.push_back({action, ""});

  auto join = std::make_shared<TableRef>();
  join->kind = TableRef::Kind::kJoin;
  join->join_type = stmt.has_not_matched_insert ? TableRef::JoinType::kLeft
                                                : TableRef::JoinType::kInner;
  join->left = stmt.source;
  join->right = TargetRef(desc, alias);
  join->condition = stmt.on;

  Schema full = desc.FullSchema();
  // Record ids are unique within one partition directory.
  std::map<std::string, std::set<RecordId>> matched;
  return ReadAndWrite(
      desc, MakeSelect(std::move(items), join, nullptr),
      [&](const std::vector<Value>& row, TableWriter* writer) -> Result<int64_t> {
        std::vector<Value> part_values = PartitionValues(desc, row);
        if (has_matched && !row[0].is_null()) {
          std::string dir = Catalog::PartitionDirName(desc.partition_cols, part_values);
          if (!matched[dir].insert(RecordIdOf(row)).second)
            return Status::InvalidArgument(
                "MERGE cardinality violation: a target row matches more than one "
                "source row");
        }
        const Value& act = row.back();
        if (act.is_null()) return 0;
        if (act.str() == "insert") {
          std::vector<Value> inserted(full.num_fields(), Value::Null());
          for (size_t c = 0; c < inserted.size() && c < stmt.insert_values.size(); ++c)
            inserted[c] = CastOrNull(row[insert_at + c], full.field(c).type);
          HIVE_RETURN_IF_ERROR(writer->Insert(inserted));
        } else if (act.str() == "delete") {
          HIVE_RETURN_IF_ERROR(writer->Delete(part_values, RecordIdOf(row)));
        } else {
          HIVE_RETURN_IF_ERROR(WriteUpdate(desc, row, updated_at, writer));
        }
        return 1;
      });
}

Result<QueryResult> DmlDriver::CreateMaterializedView(
    const CreateMaterializedViewStatement& stmt) {
  std::string db = stmt.db.empty() ? session_->database : stmt.db;
  // Materialize the definition.
  HIVE_ASSIGN_OR_RETURN(QueryResult rows, RunSelect(*stmt.query));

  // Referenced tables + current snapshot for staleness tracking.
  Config config = server_->EffectiveConfig(session_);
  Binder binder(&server_->catalog_, &config, session_->database);
  binder.set_table_resolver(server_->TempResolver(session_));
  HIVE_RETURN_IF_ERROR(binder.BindSelect(*stmt.query).status());

  TableDesc desc;
  desc.db = db;
  desc.name = stmt.name;
  desc.schema = rows.schema;
  desc.is_materialized_view = true;
  desc.view_sql = stmt.query->ToString();
  desc.view_ast = stmt.query;
  desc.properties = stmt.properties;
  auto window = stmt.properties.find("rewriting.time.window");
  if (window != stmt.properties.end())
    desc.mv_staleness_window_us =
        std::strtoll(window->second.c_str(), nullptr, 10) * 1000000LL;
  for (const std::string& table : binder.referenced_tables()) {
    desc.mv_source_snapshot[table] = server_->txns_.TableWriteIdHighWatermark(table);
    desc.mv_source_upd_counts[table] = server_->txns_.UpdateDeleteCount(table);
  }
  desc.mv_last_rebuild_us = SimClock::WallMicros();
  HIVE_RETURN_IF_ERROR(server_->catalog_.CreateTable(desc));
  HIVE_ASSIGN_OR_RETURN(TableDesc created, server_->catalog_.GetTable(db, stmt.name));
  created.is_materialized_view = true;
  created.view_sql = desc.view_sql;
  created.view_ast = desc.view_ast;
  created.mv_source_snapshot = desc.mv_source_snapshot;
  created.mv_source_upd_counts = desc.mv_source_upd_counts;
  created.mv_staleness_window_us = desc.mv_staleness_window_us;
  created.mv_last_rebuild_us = desc.mv_last_rebuild_us;
  HIVE_RETURN_IF_ERROR(server_->catalog_.UpdateTable(created));

  int64_t txn = server_->txns_.OpenTxn();
  auto inserted = InsertRows(created, rows.rows, txn);
  HIVE_RETURN_IF_ERROR(Finish(txn, inserted.status()));
  QueryResult result;
  result.rows_affected = *inserted;
  return result;
}

Result<QueryResult> DmlDriver::RebuildMaterializedView(
    const AlterMaterializedViewRebuildStatement& stmt) {
  std::string db = stmt.db.empty() ? session_->database : stmt.db;
  HIVE_ASSIGN_OR_RETURN(TableDesc view, server_->catalog_.GetTable(db, stmt.name));
  if (!view.is_materialized_view)
    return Status::InvalidArgument(stmt.name + " is not a materialized view");
  HIVE_ASSIGN_OR_RETURN(StatementPtr parsed, Parser::Parse(view.view_sql));
  auto* select = dynamic_cast<SelectStatement*>(parsed.get());
  if (!select) return Status::Internal("bad view definition");

  // Incremental eligibility: definition is SPJ (no aggregate in the plan)
  // and every source only saw INSERTs since the last rebuild.
  Config config = server_->EffectiveConfig(session_);
  Binder binder(&server_->catalog_, &config, db);
  HIVE_ASSIGN_OR_RETURN(RelNodePtr bound, binder.BindSelect(select->select));
  std::function<bool(const RelNodePtr&)> has_agg = [&](const RelNodePtr& node) {
    if (node->kind == RelKind::kAggregate) return true;
    for (const RelNodePtr& input : node->inputs)
      if (has_agg(input)) return true;
    return false;
  };
  bool inserts_only = true;
  for (const auto& [table, count] : view.mv_source_upd_counts)
    if (server_->txns_.UpdateDeleteCount(table) != count) inserts_only = false;
  bool incremental = inserts_only && !has_agg(bound);

  QueryResult result;
  if (incremental) {
    // Incremental maintenance: evaluate the definition over the delta
    // snapshot — only write ids above the recorded high watermark — and
    // append the result (the INSERT path of Section 4.4).
    HIVE_ASSIGN_OR_RETURN(
        QueryResult delta,
        server_->ExecuteIncrementalMvQuery(session_, select->select, view));
    result.rows_affected = static_cast<int64_t>(delta.rows.size());
    if (!delta.rows.empty()) {
      int64_t txn = server_->txns_.OpenTxn();
      HIVE_RETURN_IF_ERROR(Finish(txn, InsertRows(view, delta.rows, txn).status()));
    }
  } else {
    // Full rebuild: recompute under an exclusive lock and replace contents.
    int64_t txn = server_->txns_.OpenTxn();
    auto rebuild = [&]() -> Status {
      HIVE_RETURN_IF_ERROR(
          server_->txns_.AcquireLock(txn, view.FullName(), LockMode::kExclusive));
      HIVE_ASSIGN_OR_RETURN(QueryResult rows, RunSelect(select->select));
      HIVE_RETURN_IF_ERROR(server_->fs_->DeleteRecursive(view.location));
      HIVE_RETURN_IF_ERROR(server_->fs_->MakeDirs(view.location));
      TableDesc reset = view;
      reset.stats = TableStatistics{};
      HIVE_RETURN_IF_ERROR(server_->catalog_.UpdateTable(reset));
      HIVE_ASSIGN_OR_RETURN(result.rows_affected, InsertRows(view, rows.rows, txn));
      return Status::OK();
    };
    HIVE_RETURN_IF_ERROR(Finish(txn, rebuild()));
  }

  // Refresh the staleness bookkeeping.
  HIVE_ASSIGN_OR_RETURN(TableDesc updated, server_->catalog_.GetTable(db, stmt.name));
  for (auto& [table, hwm] : updated.mv_source_snapshot)
    hwm = server_->txns_.TableWriteIdHighWatermark(table);
  for (auto& [table, count] : updated.mv_source_upd_counts)
    count = server_->txns_.UpdateDeleteCount(table);
  updated.mv_last_rebuild_us = SimClock::WallMicros();
  HIVE_RETURN_IF_ERROR(server_->catalog_.UpdateTable(updated));
  return result;
}

Result<QueryResult> DmlDriver::Analyze(const AnalyzeTableStatement& stmt) {
  auto [db, table] = ResolveTarget(stmt.db, stmt.table);
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, server_->catalog_.GetTable(db, table));
  // Recompute statistics with a full scan of the table.
  auto star = std::make_shared<Expr>();
  star->kind = ExprKind::kStar;
  auto from = std::make_shared<TableRef>();
  from->db = db;
  from->table = table;
  HIVE_ASSIGN_OR_RETURN(QueryResult rows, RunSelect(MakeSelect({{star, ""}}, from, nullptr)));

  HIVE_ASSIGN_OR_RETURN(TableDesc updated, server_->catalog_.GetTable(db, table));
  updated.stats = ComputeStats(desc.FullSchema(), rows.rows);
  HIVE_RETURN_IF_ERROR(server_->catalog_.UpdateTable(updated));
  QueryResult result;
  result.rows_affected = static_cast<int64_t>(rows.rows.size());
  return result;
}

}  // namespace hive
