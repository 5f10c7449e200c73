#include "optimizer/binder.h"

#include <algorithm>
#include <set>

#include "storage/acid.h"

namespace hive {

namespace {

constexpr const char* kOuterMarker = "$outer";

bool ContainsOuterRef(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == ExprKind::kColumnRef && e->qualifier == kOuterMarker) return true;
  for (const ExprPtr& c : e->children)
    if (ContainsOuterRef(c)) return true;
  return false;
}

bool ContainsOnlyOuterRefs(const ExprPtr& e) {
  if (!e) return true;
  if (e->kind == ExprKind::kColumnRef) return e->qualifier == kOuterMarker;
  for (const ExprPtr& c : e->children)
    if (!ContainsOnlyOuterRefs(c)) return false;
  return true;
}

bool ContainsNoOuterRefs(const ExprPtr& e) { return !ContainsOuterRef(e); }

/// Rewrites a correlated conjunct into a join condition over
/// concat(left, right): $outer refs keep their binding (left side), inner
/// refs shift by `left_width`.
void RewriteCorrelated(const ExprPtr& e, size_t left_width) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef) {
    if (e->qualifier == kOuterMarker) {
      e->qualifier.clear();
    } else {
      e->binding += static_cast<int>(left_width);
    }
  }
  for (const ExprPtr& c : e->children) RewriteCorrelated(c, left_width);
}

void ShiftBindings(const ExprPtr& e, int delta) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef && e->binding >= 0) e->binding += delta;
  for (const ExprPtr& c : e->children) ShiftBindings(c, delta);
  if (e->window) {
    for (const ExprPtr& p : e->window->partition_by) ShiftBindings(p, delta);
    for (const auto& [o, asc] : e->window->order_by) ShiftBindings(o, delta);
  }
}

void CollectAggCalls(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kFunction && !e->window && IsAggregateFunction(e->func_name)) {
    out->push_back(e);
    return;  // no nested aggregates
  }
  for (const ExprPtr& c : e->children) CollectAggCalls(c, out);
}

void CollectWindowCalls(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kFunction && e->window) {
    out->push_back(e);
    return;
  }
  for (const ExprPtr& c : e->children) CollectWindowCalls(c, out);
}

DataType AggResultType(const std::string& func, const DataType& arg) {
  if (func == "COUNT") return DataType::Bigint();
  if (func == "AVG") return DataType::Double();
  if (func == "SUM") {
    if (arg.kind == TypeKind::kDouble) return DataType::Double();
    if (arg.kind == TypeKind::kDecimal) return DataType::Decimal(18, arg.scale);
    return DataType::Bigint();
  }
  return arg;  // MIN/MAX
}

/// The type a set operation's column takes from its two inputs' types: the
/// shared kind, the wider numeric kind (DOUBLE, else DECIMAL at the larger
/// scale), TIMESTAMP for DATE with TIMESTAMP, the non-NULL side, or STRING.
DataType SetOpColumnType(const DataType& a, const DataType& b) {
  if (a.kind == TypeKind::kNull) return b;
  if (b.kind == TypeKind::kNull || (a.kind == b.kind && a.scale == b.scale)) return a;
  if (a.IsNumeric() && b.IsNumeric()) {
    if (a.kind == TypeKind::kDouble || b.kind == TypeKind::kDouble) return DataType::Double();
    return DataType::Decimal(18, std::max(a.kind == TypeKind::kDecimal ? a.scale : 0,
                                          b.kind == TypeKind::kDecimal ? b.scale : 0));
  }
  if ((a.kind == TypeKind::kDate || a.kind == TypeKind::kTimestamp) &&
      (b.kind == TypeKind::kDate || b.kind == TypeKind::kTimestamp))
    return DataType::Timestamp();
  return DataType::String();
}

/// `input`, with a projection that casts every column whose kind or scale
/// differs from `schema`'s to that type.
RelNodePtr CastColumns(RelNodePtr input, const Schema& schema) {
  bool same = true;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = input->schema.field(i);
    const DataType& to = schema.field(i).type;
    ExprPtr ref = MakeColumnRef("", field.name);
    ref->binding = static_cast<int>(i);
    ref->type = field.type;
    if (field.type.kind != to.kind || field.type.scale != to.scale) {
      same = false;
      ref = MakeCast(ref, to);
      ref->type = to;
    }
    exprs.push_back(std::move(ref));
    names.push_back(field.name);
  }
  return same ? input : MakeProject(input, std::move(exprs), std::move(names));
}

/// A reference to column `i` of `input`.
ExprPtr ColumnOf(const RelNodePtr& input, size_t i) {
  ExprPtr ref = MakeColumnRef("", input->schema.field(i).name);
  ref->binding = static_cast<int>(i);
  ref->type = input->schema.field(i).type;
  return ref;
}

std::vector<size_t> AllKeys(size_t n) {
  std::vector<size_t> ids(n);
  for (size_t k = 0; k < n; ++k) ids[k] = k;
  return ids;
}

/// An Aggregate over `input` that groups by `keys[k]` for each k in `ids`,
/// naming that column `_k<k>`, and computes `aggs`. It holds copies of the
/// keys and arguments, which rules rewrite in place.
RelNodePtr MakeAggregate(RelNodePtr input, const std::vector<ExprPtr>& keys,
                         const std::vector<size_t>& ids, std::vector<AggCall> aggs) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kAggregate;
  for (size_t k : ids) {
    node->group_keys.push_back(CloneExpr(keys[k]));
    node->schema.AddField("_k" + std::to_string(k), keys[k]->type);
  }
  for (AggCall& agg : aggs) {
    agg.arg = CloneExpr(agg.arg);
    node->schema.AddField(agg.name, agg.result_type);
  }
  node->aggs = std::move(aggs);
  node->inputs = {std::move(input)};
  return node;
}

/// GROUPING SETS over `input`: the sets' aggregations unioned in set order,
/// each projecting every key, NULL for those its set leaves out, then every
/// call. The finest set (every key some set uses) aggregates `input` once,
/// and each coarser set re-aggregates that small result. A call that does
/// not roll up makes every set aggregate `input` itself: DISTINCT, AVG, and
/// a DOUBLE SUM, whose bits follow the order it adds in. Each branch reads
/// its own copy of the shared subtree, and shared work computes it once.
RelNodePtr AggregateGroupingSets(const RelNodePtr& input,
                                 const std::vector<ExprPtr>& keys,
                                 const std::vector<AggCall>& aggs,
                                 const std::vector<std::vector<size_t>>& sets) {
  std::vector<bool> in_finest(keys.size(), false);
  for (const std::vector<size_t>& set : sets)
    for (size_t k : set) in_finest[k] = true;
  std::vector<size_t> finest;
  for (size_t k = 0; k < keys.size(); ++k)
    if (in_finest[k]) finest.push_back(k);
  bool rolls_up = std::all_of(aggs.begin(), aggs.end(), [](const AggCall& agg) {
    return RollsUp(agg) &&
           !(agg.func == "SUM" && agg.result_type.kind == TypeKind::kDouble);
  });

  // What every set aggregates, with its key columns and calls.
  RelNodePtr base = input;
  std::vector<ExprPtr> base_keys = keys;
  std::vector<AggCall> base_aggs = aggs;
  if (rolls_up) {
    base = MakeAggregate(input, keys, finest, aggs);
    for (size_t i = 0; i < finest.size(); ++i) base_keys[finest[i]] = ColumnOf(base, i);
    for (size_t j = 0; j < aggs.size(); ++j)
      base_aggs[j] = RollUp(aggs[j], ColumnOf(base, finest.size() + j));
  }

  auto all_sets = std::make_shared<RelNode>();
  all_sets->kind = RelKind::kUnion;
  for (const std::vector<size_t>& set : sets) {
    std::vector<bool> active(keys.size(), false);
    for (size_t k : set) active[k] = true;
    std::vector<size_t> ids;
    for (size_t k = 0; k < keys.size(); ++k)
      if (active[k]) ids.push_back(k);
    bool rolled = rolls_up && ids != finest;
    RelNodePtr branch = rolls_up && !rolled
                            ? CloneRel(base)
                            : MakeAggregate(CloneRel(base), base_keys, ids, base_aggs);
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    size_t next_key = 0;
    for (size_t k = 0; k < keys.size(); ++k) {
      if (active[k]) {
        exprs.push_back(ColumnOf(branch, next_key++));
      } else {
        ExprPtr null_key = MakeLiteral(Value::Null());
        null_key->type = keys[k]->type;
        exprs.push_back(null_key);
      }
      names.push_back("_k" + std::to_string(k));
    }
    for (size_t j = 0; j < aggs.size(); ++j) {
      // Only the () set can roll up no rows.
      ExprPtr value = ColumnOf(branch, ids.size() + j);
      exprs.push_back(rolled && ids.empty() ? RolledUpValue(aggs[j], value) : value);
      names.push_back(aggs[j].name);
    }
    all_sets->inputs.push_back(MakeProject(branch, std::move(exprs), std::move(names)));
  }
  if (all_sets->inputs.size() == 1) return all_sets->inputs[0];
  all_sets->schema = all_sets->inputs[0]->schema;
  return all_sets;
}

}  // namespace

bool IsAggregateFunction(const std::string& func) {
  return func == "SUM" || func == "COUNT" || func == "MIN" || func == "MAX" ||
         func == "AVG";
}

size_t Binder::Scope::TotalColumns() const {
  size_t n = 0;
  for (const auto& [alias, schema] : tables) n += schema.num_fields();
  return n;
}

Binder::Binder(Catalog* catalog, const Config* config, std::string current_db)
    : catalog_(catalog), config_(config), current_db_(std::move(current_db)) {}

Result<RelNodePtr> Binder::BindSelect(const SelectStmt& stmt) {
  referenced_tables_.clear();
  uses_nondeterministic_ = false;
  cte_stack_.emplace_back();
  for (const CteDef& cte : stmt.ctes)
    cte_stack_.back()[ToLower(cte.name)] = {cte.query, nullptr};

  auto cleanup = [this]() { cte_stack_.pop_back(); };
  auto result = BindQueryExpr(*stmt.body, nullptr);
  if (!result.ok()) {
    cleanup();
    return result.status();
  }
  RelNodePtr plan = *result;

  // ORDER BY / LIMIT.
  if (!stmt.order_by.empty()) {
    auto sort = std::make_shared<RelNode>();
    sort->kind = RelKind::kSort;
    sort->schema = plan->schema;
    size_t original_width = plan->schema.num_fields();
    bool extended = false;

    for (const OrderItem& item : stmt.order_by) {
      ExprPtr key;
      // Ordinal reference: ORDER BY 2.
      if (item.expr->kind == ExprKind::kLiteral &&
          item.expr->literal.kind() == TypeKind::kBigint) {
        int64_t ordinal = item.expr->literal.i64();
        if (ordinal < 1 || ordinal > static_cast<int64_t>(original_width)) {
          cleanup();
          return Status::PlanError("ORDER BY ordinal out of range");
        }
        key = MakeColumnRef("", plan->schema.field(ordinal - 1).name);
        key->binding = static_cast<int>(ordinal - 1);
        key->type = plan->schema.field(ordinal - 1).type;
        sort->sort_keys.push_back({key, item.ascending});
        continue;
      }
      // Try resolving against the output schema; qualified references fall
      // back to bare names (output columns lose their table qualifiers).
      Scope out_scope;
      out_scope.tables.push_back({"", plan->schema});
      auto bound = BindExpr(item.expr, &out_scope, true);
      if (!bound.ok()) {
        ExprPtr stripped = CloneExpr(item.expr);
        std::function<void(const ExprPtr&)> strip = [&](const ExprPtr& e) {
          if (!e) return;
          if (e->kind == ExprKind::kColumnRef) e->qualifier.clear();
          for (const ExprPtr& c : e->children) strip(c);
        };
        strip(stripped);
        bound = BindExpr(stripped, &out_scope, true);
      }
      if (bound.ok()) {
        sort->sort_keys.push_back({*bound, item.ascending});
        continue;
      }
      // Order by an unselected column: push it through the final project.
      if (plan->kind == RelKind::kProject) {
        if (config_->legacy_sql_only) {
          cleanup();
          return Status::NotSupported(
              "ORDER BY on unselected column requires Hive > 1.2");
        }
        Scope in_scope;
        in_scope.tables.push_back({"", plan->inputs[0]->schema});
        auto inner = BindExpr(item.expr, &in_scope, false);
        if (inner.ok()) {
          plan->exprs.push_back(*inner);
          plan->schema.AddField("_sort" + std::to_string(plan->exprs.size()),
                                (*inner)->type);
          ExprPtr ref = MakeColumnRef("", "_sort");
          ref->binding = static_cast<int>(plan->schema.num_fields() - 1);
          ref->type = (*inner)->type;
          sort->sort_keys.push_back({ref, item.ascending});
          extended = true;
          continue;
        }
      }
      cleanup();
      return Status::PlanError("cannot resolve ORDER BY expression " +
                               item.expr->ToString());
    }
    sort->schema = plan->schema;
    sort->inputs = {plan};
    if (stmt.limit >= 0) sort->limit = stmt.limit;
    plan = sort;
    if (extended) {
      // Drop the hidden sort columns again.
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < original_width; ++i) {
        ExprPtr ref = MakeColumnRef("", plan->schema.field(i).name);
        ref->binding = static_cast<int>(i);
        ref->type = plan->schema.field(i).type;
        exprs.push_back(ref);
        names.push_back(plan->schema.field(i).name);
      }
      plan = MakeProject(plan, std::move(exprs), std::move(names));
    }
  } else if (stmt.limit >= 0) {
    plan = MakeLimit(plan, stmt.limit);
  }
  cleanup();
  return plan;
}

Result<RelNodePtr> Binder::BindQueryExpr(const QueryExpr& query, Scope* outer) {
  if (query.op == SetOpKind::kNone) return BindCore(query.core, outer);

  if (config_->legacy_sql_only &&
      (query.op == SetOpKind::kIntersect || query.op == SetOpKind::kExcept)) {
    return Status::NotSupported(
        "INTERSECT/EXCEPT set operations require Hive > 1.2");
  }
  HIVE_ASSIGN_OR_RETURN(RelNodePtr left, BindQueryExpr(*query.left, outer));
  HIVE_ASSIGN_OR_RETURN(RelNodePtr right, BindQueryExpr(*query.right, outer));
  if (left->schema.num_fields() != right->schema.num_fields())
    return Status::PlanError("set operation inputs differ in arity");

  // Both inputs are cast to one type per column, so every operator above
  // reads the type the schema states.
  auto node = std::make_shared<RelNode>();
  for (size_t i = 0; i < left->schema.num_fields(); ++i)
    node->schema.AddField(left->schema.field(i).name,
                          SetOpColumnType(left->schema.field(i).type,
                                          right->schema.field(i).type));
  node->inputs = {CastColumns(left, node->schema), CastColumns(right, node->schema)};
  switch (query.op) {
    case SetOpKind::kUnionAll:
      node->kind = RelKind::kUnion;
      return node;
    case SetOpKind::kUnionDistinct: {
      node->kind = RelKind::kUnion;
      // Distinct via aggregate-on-all-columns.
      auto distinct = std::make_shared<RelNode>();
      distinct->kind = RelKind::kAggregate;
      distinct->schema = node->schema;
      for (size_t i = 0; i < node->schema.num_fields(); ++i) {
        ExprPtr ref = MakeColumnRef("", node->schema.field(i).name);
        ref->binding = static_cast<int>(i);
        ref->type = node->schema.field(i).type;
        distinct->group_keys.push_back(ref);
      }
      distinct->inputs = {node};
      return distinct;
    }
    case SetOpKind::kIntersect:
      node->kind = RelKind::kIntersect;
      return node;
    case SetOpKind::kExcept:
      node->kind = RelKind::kMinus;
      return node;
    case SetOpKind::kNone:
      break;
  }
  return Status::Internal("unreachable set op");
}

Result<RelNodePtr> Binder::BindTableRef(const TableRef& ref, Scope* scope, Scope* outer) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      std::string alias = ref.alias.empty() ? ref.table : ref.alias;
      // CTE reference?
      if (ref.db.empty()) {
        for (auto it = cte_stack_.rbegin(); it != cte_stack_.rend(); ++it) {
          auto cte = it->find(ref.table);
          if (cte != it->end()) {
            HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, BindSelectSubtree(cte->second.first));
            scope->tables.push_back({alias, plan->schema});
            return plan;
          }
        }
      }
      std::string db = ref.db;
      std::string table = ref.table;
      if (db.empty()) {
        if (table_resolver_) table_resolver_(&db, &table);
        if (db.empty()) db = current_db_;
      }
      HIVE_ASSIGN_OR_RETURN(TableDesc desc, catalog_->GetTable(db, table));
      referenced_tables_.push_back(desc.FullName());
      auto scan = std::make_shared<RelNode>();
      scan->kind = RelKind::kScan;
      scan->table = desc;
      scan->scan_alias = alias;
      Schema full = desc.FullSchema();
      for (size_t i = 0; i < full.num_fields(); ++i) {
        scan->projected.push_back(i);
        scan->schema.AddField(full.field(i).name, full.field(i).type);
      }
      if (ref.with_record_id) {
        if (!desc.is_acid)
          return Status::NotSupported(desc.FullName() + " is not transactional");
        // The record-id columns take the ordinals past the full schema.
        for (const char* name : kAcidRecordIdCols) {
          scan->projected.push_back(scan->schema.num_fields());
          scan->schema.AddField(name, DataType::Bigint());
        }
      }
      scope->tables.push_back({alias, scan->schema});
      return RelNodePtr(scan);
    }
    case TableRef::Kind::kSubquery: {
      HIVE_ASSIGN_OR_RETURN(RelNodePtr plan, BindSelectSubtree(ref.subquery));
      scope->tables.push_back({ref.alias, plan->schema});
      return plan;
    }
    case TableRef::Kind::kJoin: {
      HIVE_ASSIGN_OR_RETURN(RelNodePtr left, BindTableRef(*ref.left, scope, outer));
      HIVE_ASSIGN_OR_RETURN(RelNodePtr right, BindTableRef(*ref.right, scope, outer));
      ExprPtr condition;
      if (ref.condition) {
        Scope join_scope;
        join_scope.tables = scope->tables;  // includes both sides now
        join_scope.outer = outer;
        HIVE_ASSIGN_OR_RETURN(condition, BindExpr(ref.condition, &join_scope, false));
      }
      TableRef::JoinType type = ref.join_type;
      if (type == TableRef::JoinType::kCross && condition)
        type = TableRef::JoinType::kInner;
      return MakeJoin(type, std::move(left), std::move(right), std::move(condition));
    }
  }
  return Status::Internal("unreachable table ref");
}

// Helper wrapper so CTE/subquery binds keep the current CTE environment.
Result<RelNodePtr> Binder::BindSelectSubtree(const std::shared_ptr<SelectStmt>& stmt) {
  cte_stack_.emplace_back();
  for (const CteDef& cte : stmt->ctes)
    cte_stack_.back()[ToLower(cte.name)] = {cte.query, nullptr};
  auto result = BindQueryExpr(*stmt->body, nullptr);
  RelNodePtr plan;
  if (result.ok()) plan = *result;
  cte_stack_.pop_back();
  if (!result.ok()) return result.status();
  // ORDER BY inside subqueries only matters with LIMIT.
  if (!stmt->order_by.empty()) {
    auto sort = std::make_shared<RelNode>();
    sort->kind = RelKind::kSort;
    sort->schema = plan->schema;
    Scope out_scope;
    out_scope.tables.push_back({"", plan->schema});
    for (const OrderItem& item : stmt->order_by) {
      HIVE_ASSIGN_OR_RETURN(ExprPtr key, BindExpr(item.expr, &out_scope, true));
      sort->sort_keys.push_back({key, item.ascending});
    }
    sort->inputs = {plan};
    sort->limit = stmt->limit;
    return RelNodePtr(sort);
  }
  if (stmt->limit >= 0) return MakeLimit(plan, stmt->limit);
  return plan;
}

Result<Binder::Resolution> Binder::ResolveColumn(Scope* scope,
                                                 const std::string& qualifier,
                                                 const std::string& name) {
  int depth = 0;
  for (Scope* s = scope; s != nullptr; s = s->outer, ++depth) {
    size_t base = 0;
    int found = -1;
    DataType type;
    for (const auto& [alias, schema] : s->tables) {
      if (qualifier.empty() || ToLower(alias) == ToLower(qualifier)) {
        auto idx = schema.IndexOf(name);
        if (idx) {
          if (found >= 0)
            return Status::PlanError("ambiguous column reference: " + name);
          found = static_cast<int>(base + *idx);
          type = schema.field(*idx).type;
        }
      }
      base += schema.num_fields();
    }
    if (found >= 0) return Resolution{found, depth, type};
  }
  return Status::PlanError("cannot resolve column " +
                           (qualifier.empty() ? name : qualifier + "." + name));
}

Result<ExprPtr> Binder::BindExpr(const ExprPtr& expr, Scope* scope,
                                 bool allow_aggregates) {
  ExprPtr e = CloneExpr(expr);
  HIVE_RETURN_IF_ERROR(BindExprInPlace(e, scope, allow_aggregates));
  return e;
}

Status Binder::BindExprInPlace(const ExprPtr& e, Scope* scope, bool allow_aggregates) {
  if (!e) return Status::OK();
  switch (e->kind) {
    case ExprKind::kLiteral:
      e->type.kind = e->literal.kind();
      if (e->literal.kind() == TypeKind::kDecimal)
        e->type = DataType::Decimal(18, e->literal.scale());
      return Status::OK();
    case ExprKind::kColumnRef: {
      HIVE_ASSIGN_OR_RETURN(Resolution res, ResolveColumn(scope, e->qualifier, e->column));
      if (res.depth > 1)
        return Status::NotSupported("correlation depth > 1 not supported");
      e->binding = res.ordinal;
      e->type = res.type;
      if (res.depth == 1) {
        e->qualifier = kOuterMarker;
      } else {
        e->qualifier.clear();
      }
      return Status::OK();
    }
    case ExprKind::kStar:
      return Status::PlanError("'*' not allowed here");
    case ExprKind::kSubquery:
      // Subqueries are handled by ApplyWhere/ApplySubquery before generic
      // binding; reaching here means an unsupported position.
      return Status::NotSupported("subquery not supported in this position: " +
                                  e->ToString());
    case ExprKind::kParam:
      // EXECUTE substitutes literals before planning; a surviving parameter
      // means a raw PREPARE template leaked into the binder.
      return Status::PlanError("unbound parameter " + e->ToString() +
                               " (use EXECUTE to run a prepared statement)");
    default:
      break;
  }
  // COUNT(*) keeps its star child unbound.
  if (e->kind == ExprKind::kFunction && e->func_name == "COUNT" &&
      e->children.size() == 1 && e->children[0]->kind == ExprKind::kStar) {
    e->children.clear();
  }
  for (const ExprPtr& child : e->children)
    HIVE_RETURN_IF_ERROR(BindExprInPlace(child, scope, allow_aggregates));
  if (e->window) {
    for (const ExprPtr& p : e->window->partition_by)
      HIVE_RETURN_IF_ERROR(BindExprInPlace(p, scope, allow_aggregates));
    for (const auto& [o, asc] : e->window->order_by)
      HIVE_RETURN_IF_ERROR(BindExprInPlace(o, scope, allow_aggregates));
  }
  if (e->kind == ExprKind::kFunction && !allow_aggregates && !e->window &&
      IsAggregateFunction(e->func_name))
    return Status::PlanError("aggregate not allowed here: " + e->ToString());
  return DeriveType(e.get());
}

Status Binder::DeriveType(Expr* e) {
  switch (e->kind) {
    case ExprKind::kBinary: {
      const DataType& l = e->children[0]->type;
      const DataType& r = e->children[1]->type;
      switch (e->bin_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub: {
          // date +/- interval days stays a date.
          if (l.kind == TypeKind::kDate || l.kind == TypeKind::kTimestamp) {
            e->type = l;
            return Status::OK();
          }
          [[fallthrough]];
        }
        case BinaryOp::kMul:
        case BinaryOp::kMod: {
          if (l.kind == TypeKind::kDouble || r.kind == TypeKind::kDouble)
            e->type = DataType::Double();
          else if (l.kind == TypeKind::kDecimal || r.kind == TypeKind::kDecimal)
            e->type = DataType::Decimal(
                18, std::max(l.kind == TypeKind::kDecimal ? l.scale : 0,
                             r.kind == TypeKind::kDecimal ? r.scale : 0));
          else
            e->type = DataType::Bigint();
          return Status::OK();
        }
        case BinaryOp::kDiv:
          e->type = DataType::Double();
          return Status::OK();
        case BinaryOp::kConcat:
          e->type = DataType::String();
          return Status::OK();
        default:
          e->type = DataType::Boolean();
          return Status::OK();
      }
    }
    case ExprKind::kUnary:
      e->type = e->un_op == UnaryOp::kNot ? DataType::Boolean() : e->children[0]->type;
      return Status::OK();
    case ExprKind::kCase: {
      // The first branch (THENs, then ELSE) that is not a bare NULL.
      size_t pair_count = (e->children.size() - (e->has_else ? 1 : 0)) / 2;
      e->type = DataType::Null();
      for (size_t p = 0; p < pair_count && e->type.kind == TypeKind::kNull; ++p)
        e->type = e->children[2 * p + 1]->type;
      if (e->type.kind == TypeKind::kNull && e->has_else)
        e->type = e->children.back()->type;
      return Status::OK();
    }
    case ExprKind::kCast:
      e->type = e->cast_type;
      return Status::OK();
    case ExprKind::kInList:
    case ExprKind::kBetween:
    case ExprKind::kIsNull:
      e->type = DataType::Boolean();
      return Status::OK();
    case ExprKind::kFunction: {
      HIVE_ASSIGN_OR_RETURN(e->type, DeriveFunctionType(e));
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<DataType> Binder::DeriveFunctionType(Expr* e) {
  const std::string& f = e->func_name;
  auto arg_type = [&](size_t i) {
    return i < e->children.size() ? e->children[i]->type : DataType::Null();
  };
  // A scalar built-in reads its first `k` arguments unchecked, so a call
  // with fewer is rejected here.
  auto needs = [&](size_t k, const DataType& type) -> Result<DataType> {
    if (e->children.size() < k)
      return Status::PlanError(f + " needs at least " + std::to_string(k) + " argument(s)");
    return type;
  };
  if (IsAggregateFunction(f)) return AggResultType(f, arg_type(0));
  if (f == "ROW_NUMBER" || f == "RANK" || f == "DENSE_RANK") return DataType::Bigint();
  if (f.rfind("EXTRACT_", 0) == 0 || f == "YEAR" || f == "MONTH" || f == "DAY")
    return needs(1, DataType::Bigint());
  if (f.rfind("INTERVAL_", 0) == 0) {
    if (config_->legacy_sql_only)
      return Status::NotSupported("INTERVAL notation requires Hive > 1.2");
    return needs(1, DataType::Bigint());
  }
  if (f == "UPPER" || f == "LOWER" || f == "TRIM") return needs(1, DataType::String());
  if (f == "SUBSTR" || f == "SUBSTRING") return needs(2, DataType::String());
  if (f == "CONCAT") return DataType::String();
  if (f == "LENGTH") return needs(1, DataType::Bigint());
  if (f == "ABS") return needs(1, arg_type(0));
  if (f == "ROUND")
    return needs(1, arg_type(0).kind == TypeKind::kDecimal ? arg_type(0) : DataType::Double());
  if (f == "FLOOR" || f == "CEIL" || f == "CEILING") return needs(1, DataType::Bigint());
  if (f == "COALESCE" || f == "NVL" || f == "IF" || f == "GREATEST" || f == "LEAST") {
    // IF's first argument is its condition, not a result.
    DataType type = DataType::Null();
    for (size_t i = f == "IF" ? 1 : 0; i < e->children.size() && type.kind == TypeKind::kNull;
         ++i)
      type = e->children[i]->type;
    return needs(f == "IF" ? 2 : 0, type);
  }
  if (f == "RAND") {
    uses_nondeterministic_ = true;
    return DataType::Double();
  }
  if (f == "CURRENT_DATE") {
    uses_nondeterministic_ = true;
    return DataType::Date();
  }
  if (f == "CURRENT_TIMESTAMP") {
    uses_nondeterministic_ = true;
    return DataType::Timestamp();
  }
  return Status::PlanError("unknown function: " + f);
}

void Binder::SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e && e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  if (e) out->push_back(e);
}

Result<RelNodePtr> Binder::ApplyWhere(RelNodePtr plan, Scope* scope,
                                      const ExprPtr& where) {
  if (!where) return plan;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(where, &conjuncts);
  std::vector<ExprPtr> residual;
  for (ExprPtr& conjunct : conjuncts) {
    // Normalize NOT(subquery).
    ExprPtr c = conjunct;
    if (c->kind == ExprKind::kUnary && c->un_op == UnaryOp::kNot &&
        c->children[0]->kind == ExprKind::kSubquery) {
      auto flipped = std::make_shared<Expr>(*c->children[0]);
      switch (flipped->subquery_kind) {
        case SubqueryKind::kExists: flipped->subquery_kind = SubqueryKind::kNotExists; break;
        case SubqueryKind::kNotExists: flipped->subquery_kind = SubqueryKind::kExists; break;
        case SubqueryKind::kIn: flipped->subquery_kind = SubqueryKind::kNotIn; break;
        case SubqueryKind::kNotIn: flipped->subquery_kind = SubqueryKind::kIn; break;
        case SubqueryKind::kScalar: return Status::PlanError("NOT on scalar subquery");
      }
      c = flipped;
    }
    if (c->kind == ExprKind::kSubquery) {
      HIVE_ASSIGN_OR_RETURN(plan, ApplySubquery(plan, scope, c, nullptr));
      continue;
    }
    // Comparison against a scalar subquery?
    if (c->kind == ExprKind::kBinary &&
        (c->children[0]->kind == ExprKind::kSubquery ||
         c->children[1]->kind == ExprKind::kSubquery)) {
      size_t sub_idx = c->children[0]->kind == ExprKind::kSubquery ? 0 : 1;
      ExprPtr replacement;
      HIVE_ASSIGN_OR_RETURN(
          plan, ApplySubquery(plan, scope, c->children[sub_idx], &replacement));
      auto rewritten = std::make_shared<Expr>(*c);
      rewritten->children = c->children;
      rewritten->children[sub_idx] = replacement;
      HIVE_ASSIGN_OR_RETURN(ExprPtr bound_other,
                            BindExpr(rewritten->children[1 - sub_idx], scope, false));
      rewritten->children[1 - sub_idx] = bound_other;
      rewritten->type = DataType::Boolean();
      residual.push_back(rewritten);
      continue;
    }
    HIVE_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(c, scope, false));
    if (ContainsOuterRef(bound)) {
      if (correlated_frames_.empty())
        return Status::PlanError("correlated reference outside subquery");
      correlated_frames_.back().push_back(bound);
      continue;
    }
    residual.push_back(bound);
  }
  for (const ExprPtr& f : residual) plan = MakeFilter(plan, f);
  return plan;
}

Result<RelNodePtr> Binder::ApplySubquery(RelNodePtr plan, Scope* scope,
                                         const ExprPtr& sub, ExprPtr* replacement) {
  const SelectStmt& stmt = *sub->subquery;
  size_t left_width = plan->schema.num_fields();

  // Correlation is only supported for single-core subqueries.
  bool simple_core = stmt.body->op == SetOpKind::kNone && stmt.ctes.empty();

  if (simple_core) {
    const SelectCore& core = stmt.body->core;
    // Bind the subquery's FROM/WHERE manually, collecting correlated
    // conjuncts into a fresh frame.
    Scope sub_scope;
    sub_scope.outer = scope;
    correlated_frames_.emplace_back();
    Result<RelNodePtr> inner_result =
        core.from ? BindTableRef(*core.from, &sub_scope, scope)
                  : Status::PlanError("subquery without FROM");
    if (!inner_result.ok()) {
      correlated_frames_.pop_back();
      return inner_result.status();
    }
    RelNodePtr inner = *inner_result;
    Result<RelNodePtr> filtered = ApplyWhere(inner, &sub_scope, core.where);
    if (!filtered.ok()) {
      correlated_frames_.pop_back();
      return filtered.status();
    }
    inner = *filtered;
    std::vector<ExprPtr> correlated = std::move(correlated_frames_.back());
    correlated_frames_.pop_back();

    if (!correlated.empty()) {
      // --- correlated paths ---
      if (sub->subquery_kind == SubqueryKind::kExists ||
          sub->subquery_kind == SubqueryKind::kNotExists ||
          sub->subquery_kind == SubqueryKind::kIn ||
          sub->subquery_kind == SubqueryKind::kNotIn) {
        ExprPtr condition;
        for (const ExprPtr& c : correlated) {
          ExprPtr cc = CloneExpr(c);
          RewriteCorrelated(cc, left_width);
          condition = condition ? MakeBinary(BinaryOp::kAnd, condition, cc) : cc;
          if (condition) condition->type = DataType::Boolean();
        }
        if (sub->subquery_kind == SubqueryKind::kIn ||
            sub->subquery_kind == SubqueryKind::kNotIn) {
          if (core.items.size() != 1)
            return Status::PlanError("IN subquery must select one column");
          HIVE_ASSIGN_OR_RETURN(ExprPtr outer_item,
                                BindExpr(sub->children[0], scope, false));
          HIVE_ASSIGN_OR_RETURN(ExprPtr inner_item,
                                BindExpr(core.items[0].expr, &sub_scope, false));
          if (ContainsOuterRef(inner_item))
            return Status::NotSupported("correlated IN select item");
          ExprPtr inner_shifted = CloneExpr(inner_item);
          ShiftBindings(inner_shifted, static_cast<int>(left_width));
          ExprPtr eq = MakeBinary(BinaryOp::kEq, outer_item, inner_shifted);
          eq->type = DataType::Boolean();
          condition = condition ? MakeBinary(BinaryOp::kAnd, condition, eq) : eq;
          condition->type = DataType::Boolean();
        }
        bool anti = sub->subquery_kind == SubqueryKind::kNotExists ||
                    sub->subquery_kind == SubqueryKind::kNotIn;
        return MakeJoin(anti ? TableRef::JoinType::kAnti : TableRef::JoinType::kSemi,
                        plan, inner, condition);
      }
      // Correlated scalar subquery: must be a lone aggregate over the
      // correlation groups, decorrelated into a LEFT JOIN on the keys.
      if (config_->legacy_sql_only)
        return Status::NotSupported(
            "correlated scalar subqueries require Hive > 1.2");
      if (core.items.size() != 1 || !core.group_by.empty())
        return Status::NotSupported("unsupported correlated scalar subquery shape");
      std::vector<ExprPtr> agg_calls;
      CollectAggCalls(core.items[0].expr, &agg_calls);
      if (agg_calls.size() != 1 || core.items[0].expr->kind != ExprKind::kFunction)
        return Status::NotSupported(
            "correlated scalar subquery must be a single aggregate");
      // Every correlated conjunct must be outer = inner equality.
      std::vector<ExprPtr> outer_keys, inner_keys;
      for (const ExprPtr& c : correlated) {
        if (c->kind != ExprKind::kBinary || c->bin_op != BinaryOp::kEq)
          return Status::NotSupported(
              "correlated scalar subquery with non-equi condition");
        ExprPtr a = c->children[0], b = c->children[1];
        if (ContainsOnlyOuterRefs(a) && ContainsNoOuterRefs(b)) {
          outer_keys.push_back(a);
          inner_keys.push_back(b);
        } else if (ContainsOnlyOuterRefs(b) && ContainsNoOuterRefs(a)) {
          outer_keys.push_back(b);
          inner_keys.push_back(a);
        } else {
          return Status::NotSupported(
              "correlated scalar subquery with non-equi condition");
        }
      }
      HIVE_ASSIGN_OR_RETURN(ExprPtr agg_arg_holder,
                            BindExpr(core.items[0].expr, &sub_scope, true));
      // Build Aggregate(group by inner keys, the agg call).
      auto agg = std::make_shared<RelNode>();
      agg->kind = RelKind::kAggregate;
      agg->inputs = {inner};
      for (size_t i = 0; i < inner_keys.size(); ++i) {
        agg->group_keys.push_back(inner_keys[i]);
        agg->schema.AddField("_ck" + std::to_string(i), inner_keys[i]->type);
      }
      AggCall call;
      call.func = agg_arg_holder->func_name;
      call.arg = agg_arg_holder->children.empty() ? nullptr : agg_arg_holder->children[0];
      call.distinct = agg_arg_holder->distinct;
      call.result_type = agg_arg_holder->type;
      call.name = "_scalar";
      agg->schema.AddField(call.name, call.result_type);
      agg->aggs.push_back(call);

      ExprPtr condition;
      for (size_t i = 0; i < outer_keys.size(); ++i) {
        ExprPtr outer_expr = CloneExpr(outer_keys[i]);
        RewriteCorrelated(outer_expr, left_width);  // clears $outer markers
        ExprPtr key_ref = MakeColumnRef("", agg->schema.field(i).name);
        key_ref->binding = static_cast<int>(left_width + i);
        key_ref->type = agg->schema.field(i).type;
        ExprPtr eq = MakeBinary(BinaryOp::kEq, outer_expr, key_ref);
        eq->type = DataType::Boolean();
        condition = condition ? MakeBinary(BinaryOp::kAnd, condition, eq) : eq;
        condition->type = DataType::Boolean();
      }
      RelNodePtr joined = MakeJoin(TableRef::JoinType::kLeft, plan, agg, condition);
      if (replacement) {
        ExprPtr ref = MakeColumnRef("", "_scalar");
        ref->binding = static_cast<int>(left_width + inner_keys.size());
        ref->type = call.result_type;
        *replacement = ref;
      }
      // Extend the caller's scope with the appended columns so later
      // conjuncts/items still resolve by ordinal.
      scope->tables.push_back({"$scalar", agg->schema});
      return joined;
    }
    // fall through: uncorrelated simple core handled by the generic path
  }

  // --- uncorrelated general path: bind the whole subquery normally ---
  HIVE_ASSIGN_OR_RETURN(RelNodePtr subplan, BindSelectSubtree(sub->subquery));
  switch (sub->subquery_kind) {
    case SubqueryKind::kExists:
    case SubqueryKind::kNotExists: {
      ExprPtr condition = MakeLiteral(Value::Boolean(true));
      condition->type = DataType::Boolean();
      return MakeJoin(sub->subquery_kind == SubqueryKind::kExists
                          ? TableRef::JoinType::kSemi
                          : TableRef::JoinType::kAnti,
                      plan, subplan, condition);
    }
    case SubqueryKind::kIn:
    case SubqueryKind::kNotIn: {
      if (subplan->schema.num_fields() != 1)
        return Status::PlanError("IN subquery must produce one column");
      HIVE_ASSIGN_OR_RETURN(ExprPtr outer_item, BindExpr(sub->children[0], scope, false));
      ExprPtr inner_ref = MakeColumnRef("", subplan->schema.field(0).name);
      inner_ref->binding = static_cast<int>(left_width);
      inner_ref->type = subplan->schema.field(0).type;
      ExprPtr eq = MakeBinary(BinaryOp::kEq, outer_item, inner_ref);
      eq->type = DataType::Boolean();
      return MakeJoin(sub->subquery_kind == SubqueryKind::kIn
                          ? TableRef::JoinType::kSemi
                          : TableRef::JoinType::kAnti,
                      plan, subplan, eq);
    }
    case SubqueryKind::kScalar: {
      if (config_->legacy_sql_only)
        return Status::NotSupported("scalar subqueries require Hive > 1.2");
      if (subplan->schema.num_fields() != 1)
        return Status::PlanError("scalar subquery must produce one column");
      // Guarantee at most one row.
      bool single_row = subplan->kind == RelKind::kAggregate &&
                        subplan->group_keys.empty();
      if (!single_row) subplan = MakeLimit(subplan, 1);
      RelNodePtr joined =
          MakeJoin(TableRef::JoinType::kLeft, plan, subplan,
                   [&] {
                     ExprPtr t = MakeLiteral(Value::Boolean(true));
                     t->type = DataType::Boolean();
                     return t;
                   }());
      if (replacement) {
        ExprPtr ref = MakeColumnRef("", subplan->schema.field(0).name);
        ref->binding = static_cast<int>(left_width);
        ref->type = subplan->schema.field(0).type;
        *replacement = ref;
      }
      scope->tables.push_back({"$scalar", subplan->schema});
      return joined;
    }
  }
  return Status::Internal("unreachable subquery kind");
}

namespace {

std::string AggDigest(const std::string& func, const ExprPtr& arg, bool distinct) {
  std::string d = func;
  d += "|";
  d += arg ? arg->ToString() : "*";
  if (distinct) d += "|D";
  return d;
}

/// Rewrites a bound expression into one over the aggregate output: group
/// key subtrees become refs to [0, num_keys), aggregate calls become refs
/// to [num_keys, num_keys + num_aggs).
Status RewriteForAgg(ExprPtr& e, const std::vector<std::string>& key_digests,
                     const std::vector<DataType>& key_types,
                     const std::vector<AggCall>& aggs) {
  if (!e) return Status::OK();
  std::string digest = e->ToString();
  for (size_t i = 0; i < key_digests.size(); ++i) {
    if (digest == key_digests[i]) {
      ExprPtr ref = MakeColumnRef("", "_k" + std::to_string(i));
      ref->binding = static_cast<int>(i);
      ref->type = key_types[i];
      e = ref;
      return Status::OK();
    }
  }
  if (e->kind == ExprKind::kFunction && !e->window && IsAggregateFunction(e->func_name)) {
    std::string want =
        AggDigest(e->func_name, e->children.empty() ? nullptr : e->children[0],
                  e->distinct);
    for (size_t j = 0; j < aggs.size(); ++j) {
      if (AggDigest(aggs[j].func, aggs[j].arg, aggs[j].distinct) == want) {
        ExprPtr ref = MakeColumnRef("", aggs[j].name);
        ref->binding = static_cast<int>(key_digests.size() + j);
        ref->type = aggs[j].result_type;
        e = ref;
        return Status::OK();
      }
    }
    return Status::PlanError("aggregate call not found: " + e->ToString());
  }
  if (e->kind == ExprKind::kColumnRef)
    return Status::PlanError("column " + e->ToString() +
                             " is neither grouped nor aggregated");
  for (ExprPtr& c : e->children) HIVE_RETURN_IF_ERROR(RewriteForAgg(c, key_digests, key_types, aggs));
  if (e->window) {
    for (ExprPtr& p : e->window->partition_by)
      HIVE_RETURN_IF_ERROR(RewriteForAgg(p, key_digests, key_types, aggs));
    for (auto& [o, asc] : e->window->order_by)
      HIVE_RETURN_IF_ERROR(RewriteForAgg(o, key_digests, key_types, aggs));
  }
  return Status::OK();
}

/// Replaces window-call subtrees with refs into the window node's output.
void RewriteForWindow(ExprPtr& e, const std::vector<std::string>& digests,
                      size_t base, const std::vector<WindowCall>& calls) {
  if (!e) return;
  if (e->kind == ExprKind::kFunction && e->window) {
    std::string digest = e->ToString();
    for (size_t i = 0; i < digests.size(); ++i) {
      if (digest == digests[i]) {
        ExprPtr ref = MakeColumnRef("", calls[i].name);
        ref->binding = static_cast<int>(base + i);
        ref->type = calls[i].result_type;
        e = ref;
        return;
      }
    }
  }
  for (ExprPtr& c : e->children) RewriteForWindow(c, digests, base, calls);
}

}  // namespace

Result<RelNodePtr> Binder::BindCore(const SelectCore& core, Scope* outer) {
  if (!core.grouping_sets.empty() && config_->legacy_sql_only)
    return Status::NotSupported("GROUPING SETS require Hive > 1.2");
  Scope scope;
  scope.outer = outer;
  RelNodePtr plan;
  if (core.from) {
    HIVE_ASSIGN_OR_RETURN(plan, BindTableRef(*core.from, &scope, outer));
  } else {
    // SELECT <exprs> without FROM: a single empty row.
    plan = std::make_shared<RelNode>();
    plan->kind = RelKind::kValues;
    plan->rows.push_back({});
  }
  HIVE_ASSIGN_OR_RETURN(plan, ApplyWhere(plan, &scope, core.where));

  // Expand stars and handle scalar subqueries appearing as select items.
  std::vector<SelectItem> items;
  for (const SelectItem& item : core.items) {
    if (item.expr->kind == ExprKind::kStar) {
      size_t base = 0;
      for (const auto& [alias, schema] : scope.tables) {
        bool match = item.expr->qualifier.empty() ||
                     ToLower(alias) == ToLower(item.expr->qualifier);
        if (alias == "$scalar") match = false;  // internal columns stay hidden
        for (size_t i = 0; i < schema.num_fields(); ++i) {
          if (!match) continue;
          SelectItem expanded;
          ExprPtr ref = MakeColumnRef(alias, schema.field(i).name);
          expanded.expr = ref;
          expanded.alias = schema.field(i).name;
          items.push_back(std::move(expanded));
        }
        base += schema.num_fields();
      }
      continue;
    }
    items.push_back(item);
  }

  // Bind the select items; scalar subqueries become joins first.
  std::vector<ExprPtr> bound_items;
  std::vector<std::string> names;
  for (size_t i = 0; i < items.size(); ++i) {
    ExprPtr raw = items[i].expr;
    if (raw->kind == ExprKind::kSubquery &&
        raw->subquery_kind == SubqueryKind::kScalar) {
      ExprPtr replacement;
      HIVE_ASSIGN_OR_RETURN(plan, ApplySubquery(plan, &scope, raw, &replacement));
      bound_items.push_back(replacement);
    } else {
      HIVE_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(raw, &scope, true));
      if (ContainsOuterRef(bound))
        return Status::NotSupported("correlated reference in select list");
      bound_items.push_back(bound);
    }
    std::string name = items[i].alias;
    if (name.empty()) {
      name = bound_items[i]->kind == ExprKind::kColumnRef ? bound_items[i]->column
                                                          : "_c" + std::to_string(i);
    }
    names.push_back(ToLower(name));
  }

  // HAVING is bound against the same scope (aggregates allowed).
  ExprPtr bound_having;
  if (core.having) {
    HIVE_ASSIGN_OR_RETURN(bound_having, BindExpr(core.having, &scope, true));
  }

  // Aggregation phase.
  std::vector<ExprPtr> bound_keys;
  for (const ExprPtr& key : core.group_by) {
    HIVE_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(key, &scope, false));
    bound_keys.push_back(bound);
  }
  std::vector<ExprPtr> agg_exprs;
  for (const ExprPtr& item : bound_items) CollectAggCalls(item, &agg_exprs);
  if (bound_having) CollectAggCalls(bound_having, &agg_exprs);

  bool has_agg = !bound_keys.empty() || !agg_exprs.empty();
  if (has_agg) {
    // Deduplicate aggregate calls by digest.
    std::vector<AggCall> aggs;
    std::set<std::string> seen;
    for (const ExprPtr& call : agg_exprs) {
      ExprPtr arg = call->children.empty() ? nullptr : call->children[0];
      std::string digest = AggDigest(call->func_name, arg, call->distinct);
      if (!seen.insert(digest).second) continue;
      AggCall agg;
      agg.func = call->func_name;
      agg.arg = arg;
      agg.distinct = call->distinct;
      agg.result_type = call->type;
      agg.name = "_a" + std::to_string(aggs.size());
      aggs.push_back(std::move(agg));
    }

    plan = core.grouping_sets.empty()
               ? MakeAggregate(plan, bound_keys, AllKeys(bound_keys.size()), aggs)
               : AggregateGroupingSets(plan, bound_keys, aggs, core.grouping_sets);

    // Rewrite items/having over the aggregate output.
    std::vector<std::string> key_digests;
    std::vector<DataType> key_types;
    for (const ExprPtr& key : bound_keys) {
      key_digests.push_back(key->ToString());
      key_types.push_back(key->type);
    }
    for (ExprPtr& item : bound_items)
      HIVE_RETURN_IF_ERROR(RewriteForAgg(item, key_digests, key_types, aggs));
    if (bound_having) {
      HIVE_RETURN_IF_ERROR(RewriteForAgg(bound_having, key_digests, key_types, aggs));
      plan = MakeFilter(plan, bound_having);
    }
  } else if (bound_having) {
    plan = MakeFilter(plan, bound_having);
  }

  // Window phase.
  std::vector<ExprPtr> window_exprs;
  for (const ExprPtr& item : bound_items) CollectWindowCalls(item, &window_exprs);
  if (!window_exprs.empty()) {
    auto window_node = std::make_shared<RelNode>();
    window_node->kind = RelKind::kWindow;
    window_node->schema = plan->schema;
    std::vector<std::string> digests;
    for (const ExprPtr& call : window_exprs) {
      std::string digest = call->ToString();
      bool dup = false;
      for (const std::string& d : digests)
        if (d == digest) dup = true;
      if (dup) continue;
      WindowCall w;
      w.func = call->func_name;
      w.arg = call->children.empty() ? nullptr : call->children[0];
      w.partition_by = call->window->partition_by;
      w.order_by = call->window->order_by;
      w.result_type = call->type;
      w.name = "_w" + std::to_string(window_node->window_calls.size());
      window_node->schema.AddField(w.name, w.result_type);
      window_node->window_calls.push_back(std::move(w));
      digests.push_back(digest);
    }
    size_t base = plan->schema.num_fields();
    window_node->inputs = {plan};
    plan = window_node;
    for (ExprPtr& item : bound_items)
      RewriteForWindow(item, digests, base, plan->window_calls);
  }

  plan = MakeProject(plan, bound_items, names);

  if (core.distinct) {
    auto distinct = std::make_shared<RelNode>();
    distinct->kind = RelKind::kAggregate;
    distinct->schema = plan->schema;
    for (size_t i = 0; i < plan->schema.num_fields(); ++i) {
      ExprPtr ref = MakeColumnRef("", plan->schema.field(i).name);
      ref->binding = static_cast<int>(i);
      ref->type = plan->schema.field(i).type;
      distinct->group_keys.push_back(ref);
    }
    distinct->inputs = {plan};
    plan = distinct;
  }
  return plan;
}

Result<ExprPtr> Binder::BindScalar(const ExprPtr& expr, const Schema& schema,
                                   const std::string& alias) {
  Scope scope;
  scope.tables.push_back({alias, schema});
  return BindExpr(expr, &scope, false);
}

}  // namespace hive
