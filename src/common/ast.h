#ifndef HIVE_COMMON_AST_H_
#define HIVE_COMMON_AST_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace hive {

struct SelectStmt;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,
  kColumnRef,   // [qualifier.]name; resolved to an input ordinal by binding
  kStar,        // * or qualifier.*
  kBinary,
  kUnary,
  kFunction,    // scalar, aggregate or window call
  kCase,        // operands: [when,then]... (+ else if has_else)
  kCast,
  kInList,      // operand IN (v1, v2, ...)
  kBetween,     // operand BETWEEN lo AND hi
  kIsNull,      // IS [NOT] NULL via negated flag
  kSubquery,    // scalar / EXISTS / IN subquery
  kParam,       // ? placeholder in a PREPAREd statement; 1-based index
};

enum class BinaryOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
  kLike, kConcat,
};

enum class UnaryOp { kNot, kNegate };

enum class SubqueryKind { kScalar, kExists, kNotExists, kIn, kNotIn };

/// Window specification for OVER clauses (unbounded frames only).
struct WindowSpec {
  std::vector<std::shared_ptr<struct Expr>> partition_by;
  std::vector<std::pair<std::shared_ptr<struct Expr>, bool>> order_by;  // expr, asc
};

/// A SQL expression. Shared pointers keep subtree sharing cheap during
/// optimization (trees are treated as immutable once built).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef / kStar
  std::string qualifier;
  std::string column;
  /// Ordinal into the binder's input row; -1 until bound.
  int binding = -1;

  // kBinary / kUnary
  BinaryOp bin_op = BinaryOp::kEq;
  UnaryOp un_op = UnaryOp::kNot;

  // kFunction
  std::string func_name;  // upper-cased
  bool distinct = false;  // COUNT(DISTINCT x)
  std::shared_ptr<WindowSpec> window;  // non-null for window calls

  // kCase
  bool has_else = false;

  // kCast
  DataType cast_type;

  // kIsNull
  bool negated = false;  // IS NOT NULL / NOT IN / NOT BETWEEN / NOT LIKE

  // kSubquery
  SubqueryKind subquery_kind = SubqueryKind::kScalar;
  std::shared_ptr<SelectStmt> subquery;

  // kParam: 1-based position of the `?` in the prepared statement's text.
  // Parameters never survive to binding: EXECUTE substitutes literals first.
  int param_index = 0;

  std::vector<std::shared_ptr<Expr>> children;

  /// Resolved result type (filled by the binder).
  DataType type;

  /// Canonical SQL-ish rendering; doubles as the plan-cache key fragment.
  std::string ToString() const;
};

using ExprPtr = std::shared_ptr<Expr>;

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeCast(ExprPtr operand, DataType type);

/// FROM-clause item.
struct TableRef {
  enum class Kind { kTable, kSubquery, kJoin } kind = Kind::kTable;

  // kTable
  std::string db;     // empty = current database
  std::string table;
  std::string alias;  // empty = table name
  /// Set only by the UPDATE/DELETE/MERGE rewrites (never by the parser): the
  /// table also yields its ACID record id — _acid_write_id, _acid_bucket and
  /// _acid_row_id — after its full schema.
  bool with_record_id = false;

  // kSubquery
  std::shared_ptr<SelectStmt> subquery;

  // kJoin
  enum class JoinType { kInner, kLeft, kRight, kFull, kCross, kSemi, kAnti };
  JoinType join_type = JoinType::kInner;
  std::shared_ptr<TableRef> left;
  std::shared_ptr<TableRef> right;
  ExprPtr condition;

  std::string ToString() const;
};
using TableRefPtr = std::shared_ptr<TableRef>;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty = derived
};

/// One SELECT core (before set operations / ORDER BY).
struct SelectCore {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRefPtr from;  // null for SELECT <exprs> with no FROM
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  /// GROUPING SETS: each entry is a list of indexes into group_by; empty
  /// vector means plain GROUP BY (single implicit set of all keys).
  std::vector<std::vector<size_t>> grouping_sets;
  ExprPtr having;

  std::string ToString() const;
};

enum class SetOpKind { kNone, kUnionAll, kUnionDistinct, kIntersect, kExcept };

/// Query expression tree: a core or a set operation over two subtrees.
struct QueryExpr {
  SetOpKind op = SetOpKind::kNone;   // kNone => `core` is active
  SelectCore core;
  std::shared_ptr<QueryExpr> left;
  std::shared_ptr<QueryExpr> right;

  std::string ToString() const;
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

struct CteDef {
  std::string name;
  std::shared_ptr<SelectStmt> query;
};

/// Full SELECT statement: CTEs + query expression + ORDER BY + LIMIT.
struct SelectStmt {
  std::vector<CteDef> ctes;
  std::shared_ptr<QueryExpr> body;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;

  std::string ToString() const;
};

// --- statements ---

enum class StatementKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kMerge,
  kCreateTable,
  kCreateMaterializedView,
  kAlterMaterializedViewRebuild,
  kDropTable,
  kExplain,
  kCreateDatabase,
  kAnalyzeTable,
  kResourcePlanDdl,
  kShowTables,
  kShowMetrics,
  kPrepare,
  kExecute,
  kDeallocate,
};

struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
  virtual std::string ToString() const = 0;
};
using StatementPtr = std::shared_ptr<Statement>;

struct SelectStatement : Statement {
  SelectStmt select;
  StatementKind kind() const override { return StatementKind::kSelect; }
  std::string ToString() const override { return select.ToString(); }
};

struct InsertStatement : Statement {
  std::string db, table;
  std::vector<std::string> columns;  // optional explicit column list
  std::shared_ptr<SelectStmt> source;             // INSERT ... SELECT
  std::vector<std::vector<ExprPtr>> values_rows;  // INSERT ... VALUES
  StatementKind kind() const override { return StatementKind::kInsert; }
  std::string ToString() const override;
};

struct UpdateStatement : Statement {
  std::string db, table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
  StatementKind kind() const override { return StatementKind::kUpdate; }
  std::string ToString() const override;
};

struct DeleteStatement : Statement {
  std::string db, table;
  ExprPtr where;
  StatementKind kind() const override { return StatementKind::kDelete; }
  std::string ToString() const override;
};

struct MergeStatement : Statement {
  std::string db, table;      // target
  std::string target_alias;
  TableRefPtr source;         // table or subquery with alias
  ExprPtr on;
  /// WHEN MATCHED THEN UPDATE SET ... (optional extra condition)
  bool has_matched_update = false;
  std::vector<std::pair<std::string, ExprPtr>> matched_assignments;
  ExprPtr matched_update_condition;
  /// WHEN MATCHED THEN DELETE
  bool has_matched_delete = false;
  ExprPtr matched_delete_condition;
  /// WHEN NOT MATCHED THEN INSERT VALUES (...)
  bool has_not_matched_insert = false;
  std::vector<ExprPtr> insert_values;
  StatementKind kind() const override { return StatementKind::kMerge; }
  std::string ToString() const override;
};

struct ColumnDef {
  std::string name;
  DataType type;
};

struct CreateTableStatement : Statement {
  std::string db, table;
  bool if_not_exists = false;
  bool external = false;
  /// CREATE TEMPORARY TABLE: session-scoped, dropped when the connection
  /// closes, invisible to every other session. May not be db-qualified.
  bool temporary = false;
  std::vector<ColumnDef> columns;
  std::vector<ColumnDef> partition_columns;
  /// Constraint clauses (PRIMARY KEY, FOREIGN KEY ... REFERENCES, ...).
  struct Constraint {
    enum class Kind { kPrimaryKey, kForeignKey, kUnique, kNotNull } kind;
    std::vector<std::string> columns;
    std::string ref_table;
    std::vector<std::string> ref_columns;
  };
  std::vector<Constraint> constraints;
  std::string stored_by;  // storage handler class ("droid", "jdbc", ...)
  std::map<std::string, std::string> properties;
  std::shared_ptr<SelectStmt> as_select;  // CTAS
  StatementKind kind() const override { return StatementKind::kCreateTable; }
  std::string ToString() const override;
};

struct CreateMaterializedViewStatement : Statement {
  std::string db, name;
  std::map<std::string, std::string> properties;
  std::shared_ptr<SelectStmt> query;
  std::string query_sql;  // original text of the definition
  StatementKind kind() const override {
    return StatementKind::kCreateMaterializedView;
  }
  std::string ToString() const override;
};

struct AlterMaterializedViewRebuildStatement : Statement {
  std::string db, name;
  StatementKind kind() const override {
    return StatementKind::kAlterMaterializedViewRebuild;
  }
  std::string ToString() const override;
};

struct DropTableStatement : Statement {
  std::string db, table;
  bool if_exists = false;
  bool is_materialized_view = false;
  StatementKind kind() const override { return StatementKind::kDropTable; }
  std::string ToString() const override;
};

struct ExplainStatement : Statement {
  StatementPtr inner;
  /// EXPLAIN ANALYZE: execute the statement and annotate the plan tree with
  /// per-operator actuals (rows, batches, wall + virtual time, memory).
  bool analyze = false;
  StatementKind kind() const override { return StatementKind::kExplain; }
  std::string ToString() const override {
    return (analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ") + inner->ToString();
  }
};

struct CreateDatabaseStatement : Statement {
  std::string name;
  bool if_not_exists = false;
  StatementKind kind() const override { return StatementKind::kCreateDatabase; }
  std::string ToString() const override { return "CREATE DATABASE " + name; }
};

struct AnalyzeTableStatement : Statement {
  std::string db, table;
  StatementKind kind() const override { return StatementKind::kAnalyzeTable; }
  std::string ToString() const override {
    return "ANALYZE TABLE " + table + " COMPUTE STATISTICS";
  }
};

struct ShowTablesStatement : Statement {
  std::string db;
  StatementKind kind() const override { return StatementKind::kShowTables; }
  std::string ToString() const override { return "SHOW TABLES"; }
};

/// SHOW METRICS: one row per engine metric from the server's registry
/// (counters, gauges, callback gauges and histogram summaries).
struct ShowMetricsStatement : Statement {
  StatementKind kind() const override { return StatementKind::kShowMetrics; }
  std::string ToString() const override { return "SHOW METRICS"; }
};

/// Renders an expression list: "a, b, c".
std::string ExprListToString(const std::vector<ExprPtr>& exprs);

/// PREPARE name AS <select>: parses and stores a parameterized SELECT
/// template under a session-scoped name. `?` placeholders become kParam
/// expressions numbered in textual order.
struct PrepareStatement : Statement {
  std::string name;
  std::shared_ptr<SelectStmt> query;
  int param_count = 0;  // number of ? placeholders seen by the parser
  StatementKind kind() const override { return StatementKind::kPrepare; }
  std::string ToString() const override {
    return "PREPARE " + name + " AS " + query->ToString();
  }
};

/// EXECUTE name [(arg, ...)]: runs a prepared statement with literal
/// arguments substituted for its ? placeholders in order.
struct ExecuteStatement : Statement {
  std::string name;
  std::vector<ExprPtr> args;
  StatementKind kind() const override { return StatementKind::kExecute; }
  std::string ToString() const override {
    std::string out = "EXECUTE " + name;
    if (!args.empty()) out += " (" + ExprListToString(args) + ")";
    return out;
  }
};

/// DEALLOCATE [PREPARE] name: drops a prepared statement.
struct DeallocateStatement : Statement {
  std::string name;
  StatementKind kind() const override { return StatementKind::kDeallocate; }
  std::string ToString() const override { return "DEALLOCATE " + name; }
};

/// Workload-management DDL (Section 5.2): CREATE RESOURCE PLAN / POOL /
/// RULE / MAPPING, ALTER PLAN ... Parsed into one statement kind with a
/// sub-operation tag; the server applies them to the WorkloadManager.
struct ResourcePlanStatement : Statement {
  enum class Op {
    kCreatePlan,
    kCreatePool,
    kCreateRule,
    kAddRuleToPool,
    kCreateMapping,
    kSetDefaultPool,
    kEnableActivate,
  };
  Op op = Op::kCreatePlan;
  std::string plan;        // resource plan name
  std::string pool;        // pool name (plan-relative)
  double alloc_fraction = 0;
  int query_parallelism = 0;
  std::string rule_name;
  std::string rule_metric;   // e.g. "total_runtime"
  int64_t rule_threshold = 0;
  std::string rule_action;   // "MOVE" or "KILL"
  std::string rule_target_pool;
  std::string mapping_application;
  StatementKind kind() const override { return StatementKind::kResourcePlanDdl; }
  std::string ToString() const override;
};

}  // namespace hive

#endif  // HIVE_COMMON_AST_H_
