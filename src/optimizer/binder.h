#ifndef HIVE_OPTIMIZER_BINDER_H_
#define HIVE_OPTIMIZER_BINDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "metastore/catalog.h"
#include "optimizer/normalize.h"
#include "optimizer/rel.h"
#include "common/ast.h"

namespace hive {

/// Converts parsed SELECT statements into bound logical plans (the
/// SqlToRelConverter analogue). Responsibilities:
///   * name resolution against the catalog and CTEs (case-insensitive),
///   * type derivation,
///   * aggregate/window separation,
///   * grouping sets as one aggregation of the finest set plus roll-ups,
///   * subquery decorrelation: IN/EXISTS -> semi/anti joins, correlated
///     scalar aggregates -> left joins on the correlation keys,
///   * SQL-surface checks for the legacy "Hive 1.2" compatibility mode
///     (set operations, interval notation, order-by-unselected-column and
///     grouping sets are rejected there, reproducing the Figure 7 gaps).
class Binder {
 public:
  Binder(Catalog* catalog, const Config* config, std::string current_db = "default");

  /// Installs a resolver consulted for unqualified table names before the
  /// current-database fallback (sessions use it to redirect temp-table
  /// names into the hidden temp database). CTE names in scope still win.
  void set_table_resolver(TableResolver resolver) {
    table_resolver_ = std::move(resolver);
  }

  /// Binds a full SELECT statement into a logical plan.
  Result<RelNodePtr> BindSelect(const SelectStmt& stmt);

  /// Binds a standalone scalar expression against a schema (INSERT VALUES).
  Result<ExprPtr> BindScalar(const ExprPtr& expr, const Schema& schema,
                             const std::string& alias);

  /// Tables referenced by the last BindSelect call ("db.table" names);
  /// feeds the result cache's validity tracking and MV staleness checks.
  const std::vector<std::string>& referenced_tables() const {
    return referenced_tables_;
  }

  /// True when any referenced expression calls a non-deterministic or
  /// runtime-constant function (rand, current_date...); such queries are
  /// not cacheable (Section 4.3).
  bool uses_nondeterministic() const { return uses_nondeterministic_; }

 private:
  /// One level of name-resolution scope: the FROM items visible at this
  /// query level, plus a link to the enclosing query's scope for
  /// correlated references.
  struct Scope {
    /// (alias, schema) pairs in FROM order; ordinals are cumulative.
    std::vector<std::pair<std::string, Schema>> tables;
    Scope* outer = nullptr;

    size_t TotalColumns() const;
  };

  /// Result of resolving a column name.
  struct Resolution {
    int ordinal = -1;   // within the scope level that matched
    int depth = 0;      // 0 = current scope, 1 = enclosing, ...
    DataType type;
  };

  Result<RelNodePtr> BindQueryExpr(const QueryExpr& query, Scope* outer);
  Result<RelNodePtr> BindCore(const SelectCore& core, Scope* outer);
  Result<RelNodePtr> BindTableRef(const TableRef& ref, Scope* scope, Scope* outer);
  /// Binds a nested SELECT (subquery / CTE body) with its own CTE frame.
  Result<RelNodePtr> BindSelectSubtree(const std::shared_ptr<SelectStmt>& stmt);
  Status BindExprInPlace(const ExprPtr& e, Scope* scope, bool allow_aggregates);

  /// Binds `expr` in `scope`; outer references become column refs with
  /// qualifier "$outer" (resolved depth 1). `allow_aggregates` gates agg
  /// calls (false inside WHERE).
  Result<ExprPtr> BindExpr(const ExprPtr& expr, Scope* scope, bool allow_aggregates);

  Result<Resolution> ResolveColumn(Scope* scope, const std::string& qualifier,
                                   const std::string& name);

  /// Applies WHERE handling: plain conjuncts become a Filter; IN/EXISTS
  /// subquery conjuncts become semi/anti joins; scalar subqueries in
  /// comparisons become joins appending the scalar column.
  Result<RelNodePtr> ApplyWhere(RelNodePtr plan, Scope* scope, const ExprPtr& where);

  /// Transforms one subquery expression into a join against `plan`,
  /// returning the rewritten plan. For scalar subqueries, `*replacement`
  /// is set to a column ref addressing the appended scalar column.
  Result<RelNodePtr> ApplySubquery(RelNodePtr plan, Scope* scope, const ExprPtr& sub,
                                   ExprPtr* replacement);

  Result<DataType> DeriveFunctionType(Expr* e);
  Status DeriveType(Expr* e);

  /// Splits AND trees into conjuncts.
  static void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

  Catalog* catalog_;
  const Config* config_;
  std::string current_db_;
  TableResolver table_resolver_;
  /// CTEs visible while binding (per BindSelect invocation).
  std::vector<std::map<std::string, std::pair<std::shared_ptr<SelectStmt>, RelNodePtr>>>
      cte_stack_;
  std::vector<std::string> referenced_tables_;
  bool uses_nondeterministic_ = false;
  /// Stack of frames collecting correlated conjuncts while binding
  /// subqueries; ApplySubquery pushes/pops.
  std::vector<std::vector<ExprPtr>> correlated_frames_;
};

/// True when `func` (upper-case) is an aggregate function name.
bool IsAggregateFunction(const std::string& func);

}  // namespace hive

#endif  // HIVE_OPTIMIZER_BINDER_H_
