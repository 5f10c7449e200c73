#ifndef HIVE_SERVER_DML_H_
#define HIVE_SERVER_DML_H_

#include <functional>

#include "server/hive_server.h"

namespace hive {

class TableWriter;

/// Drives DML statements and materialized-view lifecycle against the ACID
/// layer (Section 3.2):
///  * INSERT writes delta directories (routing rows to partitions and
///    registering new partitions on the fly),
///  * UPDATE, DELETE and MERGE compile into one SELECT over the target that
///    returns the record id — (WriteId, BucketId, RowId) — of every affected
///    row plus the values to write, run it through the normal statement
///    path, and turn its output rows into delete/insert deltas under one
///    transaction (an UPDATE is a delete plus an insert). MERGE reads
///    `source LEFT JOIN target ON ...`; its WHEN clauses come back as an
///    action column, so DmlDriver evaluates no expression. The reads get
///    everything a SELECT has: LLAP cache, row-group skipping, morsel
///    parallelism, the memory governor, deadlines, cancellation, task
///    retries and re-execution. Write sets and shared locks are recorded
///    per partition for first-commit-wins conflict resolution,
///  * CREATE MATERIALIZED VIEW materializes its definition and records the
///    per-source write-id snapshot; REBUILD maintains it incrementally when
///    the sources only saw inserts, falling back to a full rebuild
///    otherwise (Section 4.4).
class DmlDriver {
 public:
  DmlDriver(HiveServer2* server, Session* session)
      : server_(server), session_(session) {}

  Result<QueryResult> CreateTable(const CreateTableStatement& stmt);
  Result<QueryResult> Insert(const InsertStatement& stmt);
  Result<QueryResult> Update(const UpdateStatement& stmt);
  Result<QueryResult> Delete(const DeleteStatement& stmt);
  Result<QueryResult> Merge(const MergeStatement& stmt);
  Result<QueryResult> CreateMaterializedView(
      const CreateMaterializedViewStatement& stmt);
  Result<QueryResult> RebuildMaterializedView(
      const AlterMaterializedViewRebuildStatement& stmt);
  Result<QueryResult> Analyze(const AnalyzeTableStatement& stmt);

 private:
  /// Runs a SELECT the way a client's SELECT runs — re-execution on an
  /// execution error included — without touching the result cache (DML
  /// sources and reads).
  Result<QueryResult> RunSelect(const SelectStmt& stmt);

  /// Resolves a statement's (db, table): for unqualified names, session
  /// temp tables shadow the current database.
  std::pair<std::string, std::string> ResolveTarget(const std::string& db,
                                                    const std::string& table) const;

  /// Writes `rows` (full-schema order: data then partition columns) into
  /// the table under `txn`, routing partitioned rows into per-partition
  /// delta directories, merging statistics, and recording the write set.
  Result<int64_t> InsertRows(const TableDesc& desc,
                             const std::vector<std::vector<Value>>& rows, int64_t txn);

  /// Commits `txn` when `status` is OK; otherwise aborts it (best effort)
  /// and returns `status`.
  Status Finish(int64_t txn, const Status& status);

  /// Resolves the target of `verb` (UPDATE/DELETE/MERGE), which must be a
  /// transactional table.
  Result<TableDesc> AcidTarget(const std::string& db, const std::string& table,
                               const std::string& verb) const;

  /// Writes one output row of a DML read; returns the rows it affected.
  using ApplyRow =
      std::function<Result<int64_t>(const std::vector<Value>& row, TableWriter* writer)>;

  /// Opens a transaction, runs `read` (a SELECT over `desc` led by its
  /// record id and partition values), applies every output row through one
  /// writer, commits, and runs the post-commit compaction check.
  Result<QueryResult> ReadAndWrite(const TableDesc& desc, const SelectStmt& read,
                                   const ApplyRow& apply);

  /// Computes additive column statistics for freshly inserted rows.
  static TableStatistics ComputeStats(const Schema& schema,
                                      const std::vector<std::vector<Value>>& rows);

  HiveServer2* server_;
  Session* session_;
};

}  // namespace hive

#endif  // HIVE_SERVER_DML_H_
