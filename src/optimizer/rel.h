#ifndef HIVE_OPTIMIZER_REL_H_
#define HIVE_OPTIMIZER_REL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metastore/catalog.h"
#include "common/ast.h"
#include "storage/sarg.h"

namespace hive {

/// Logical relational operators, the Calcite-style plan representation the
/// optimizer rules rewrite. Column references inside a node's expressions
/// are bound by ordinal (`Expr::binding`) into the concatenation of the
/// node's input schemas (left then right for joins).
enum class RelKind {
  kScan,       // base table (native or storage-handler backed)
  kValues,     // literal rows
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kWindow,
  kSort,       // sort + optional fetch
  kLimit,
  kUnion,      // n-ary UNION ALL (distinct applied via aggregate on top)
  kMinus,      // EXCEPT (distinct semantics)
  kIntersect,  // INTERSECT (distinct semantics)
};

/// One aggregate call inside an Aggregate node.
struct AggCall {
  std::string func;   // SUM, COUNT, MIN, MAX, AVG (upper-case)
  ExprPtr arg;        // null for COUNT(*)
  bool distinct = false;
  DataType result_type;
  std::string name;   // output column name
};

/// One window function inside a Window node.
struct WindowCall {
  std::string func;  // ROW_NUMBER, RANK, DENSE_RANK, SUM, COUNT, AVG, MIN, MAX
  ExprPtr arg;       // null for ROW_NUMBER/RANK
  std::vector<ExprPtr> partition_by;
  std::vector<std::pair<ExprPtr, bool>> order_by;
  DataType result_type;
  std::string name;
};

/// A dynamic semijoin reducer attached to a scan (Section 4.6): at runtime
/// the engine evaluates the `build_plan`, collects `build_key` values into a
/// min/max range + Bloom filter, and pushes them into this scan's sarg on
/// `target_column`. `partition_pruning` marks the variant where the target
/// column is the scan's partition column, enabling dynamic partition
/// elimination instead of row-group skipping.
struct SemiJoinReducer {
  std::shared_ptr<struct RelNode> build_plan;
  ExprPtr build_key;           // bound into build_plan's schema
  std::string target_column;   // column name in the scan's output
  bool partition_pruning = false;
};

struct RelNode {
  RelKind kind = RelKind::kScan;
  std::vector<std::shared_ptr<RelNode>> inputs;
  /// Output schema; field names are unique within the node.
  Schema schema;
  /// Optimizer cardinality estimate (rows); < 0 until derived.
  double row_estimate = -1;

  // --- kScan ---
  TableDesc table;
  std::string scan_alias;
  /// Ordinals of `table.FullSchema()` columns this scan produces; ordinals
  /// past the full schema name the ACID record-id columns (DML rewrites).
  std::vector<size_t> projected;
  /// Conjuncts evaluated by the scan (pushed-down predicates), bound into
  /// the scan's *output* schema.
  std::vector<ExprPtr> scan_filters;
  /// Partitions surviving static pruning; empty = all (or unpartitioned).
  std::vector<PartitionInfo> pruned_partitions;
  bool partitions_pruned = false;
  std::vector<SemiJoinReducer> semijoin_reducers;
  /// For storage-handler scans: the query generated by federation pushdown
  /// (a JSON query object for droid, SQL text for JDBC handlers). Empty =
  /// plain scan. The scan's output schema reflects the pushed query.
  std::string federated_query;

  // --- kValues ---
  std::vector<std::vector<Value>> rows;

  // --- kFilter ---
  ExprPtr predicate;

  // --- kProject ---
  std::vector<ExprPtr> exprs;

  // --- kJoin ---
  TableRef::JoinType join_type = TableRef::JoinType::kInner;
  ExprPtr condition;  // bound into concat(left, right)

  // --- kAggregate ---
  std::vector<ExprPtr> group_keys;
  std::vector<AggCall> aggs;

  // --- kWindow ---
  std::vector<WindowCall> window_calls;

  // --- kSort / kLimit ---
  std::vector<std::pair<ExprPtr, bool>> sort_keys;  // expr, ascending
  int64_t limit = -1;

  /// True for a scan that yields the ACID record-id columns.
  bool ReadsRecordId() const;

  /// Structural digest used by the shared-work optimizer and the plan
  /// printer; equal digests => equal subtrees.
  std::string Digest() const;

  /// Pretty-printed plan tree for EXPLAIN.
  std::string ToString(int indent = 0) const;
};

using RelNodePtr = std::shared_ptr<RelNode>;

/// Constructors that derive output schemas from inputs.
RelNodePtr MakeFilter(RelNodePtr input, ExprPtr predicate);
RelNodePtr MakeProject(RelNodePtr input, std::vector<ExprPtr> exprs,
                       std::vector<std::string> names);
RelNodePtr MakeJoin(TableRef::JoinType type, RelNodePtr left, RelNodePtr right,
                    ExprPtr condition);
RelNodePtr MakeLimit(RelNodePtr input, int64_t limit);

/// True when `agg` can be computed from its own results over finer groups.
/// AVG and DISTINCT calls cannot.
bool RollsUp(const AggCall& agg);

/// The call that computes `agg` for coarser groups from `partial`, a column
/// of its results over finer groups, as materialized-view rewriting rolls a
/// query up (Section 4.4): SUM and COUNT become the SUM of the partial
/// results, MIN and MAX keep their function. Requires RollsUp(agg).
AggCall RollUp(const AggCall& agg, ExprPtr partial);

/// `rolled`, a column holding RollUp(agg, ...)'s result, as `agg`'s value.
/// The SUM of no counts is NULL, where a COUNT of no rows is 0.
ExprPtr RolledUpValue(const AggCall& agg, ExprPtr rolled);

/// Deep-copies a plan tree, expressions included.
RelNodePtr CloneRel(const RelNodePtr& node);

/// Visits every expression held by `node` (not recursing into inputs).
void ForEachExpr(RelNode* node, const std::function<void(ExprPtr&)>& fn);

/// Deep-copies an expression tree (bindings included).
ExprPtr CloneExpr(const ExprPtr& e);

/// Collects the input ordinals referenced by `e` into `used`.
void CollectBindings(const ExprPtr& e, std::vector<bool>* used);

/// Rewrites bindings through `mapping` (old ordinal -> new ordinal).
void RemapBindings(const ExprPtr& e, const std::vector<int>& mapping);

/// True when the expression contains a call to `func_name`.
bool ExprContainsFunction(const ExprPtr& e, const std::string& func_name);

}  // namespace hive

#endif  // HIVE_OPTIMIZER_REL_H_
