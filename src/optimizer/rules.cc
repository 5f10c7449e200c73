#include "optimizer/rules.h"

#include <algorithm>
#include <set>

#include "optimizer/binder.h"
#include "optimizer/expr_eval.h"
#include "optimizer/stats.h"

namespace hive {

namespace {

bool IsDeterministicFunc(const std::string& f) {
  return f != "RAND" && f != "CURRENT_DATE" && f != "CURRENT_TIMESTAMP";
}

bool IsFoldable(const ExprPtr& e) {
  if (!e) return false;
  switch (e->kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
    case ExprKind::kSubquery:
    case ExprKind::kParam:
      return false;
    case ExprKind::kFunction:
      if (!IsDeterministicFunc(e->func_name) || e->window ||
          IsAggregateFunction(e->func_name))
        return false;
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e->children)
    if (!IsFoldable(c)) return false;
  return true;
}

ExprPtr FoldExpr(ExprPtr e) {
  if (!e) return e;
  for (ExprPtr& c : e->children) c = FoldExpr(c);
  // Logical simplifications with constant sides.
  if (e->kind == ExprKind::kBinary &&
      (e->bin_op == BinaryOp::kAnd || e->bin_op == BinaryOp::kOr)) {
    bool is_and = e->bin_op == BinaryOp::kAnd;
    for (int side = 0; side < 2; ++side) {
      const ExprPtr& c = e->children[side];
      if (c->kind == ExprKind::kLiteral && c->literal.kind() == TypeKind::kBoolean) {
        bool value = c->literal.bool_value();
        if (is_and && value) return e->children[1 - side];
        if (!is_and && !value) return e->children[1 - side];
        if (is_and && !value) return c;  // FALSE
        if (!is_and && value) return c;  // TRUE
      }
    }
  }
  if (e->kind != ExprKind::kLiteral && IsFoldable(e)) {
    auto v = EvalConstant(*e);
    if (v.ok()) {
      ExprPtr lit = MakeLiteral(*v);
      lit->type = e->type;
      return lit;
    }
  }
  return e;
}

RelNodePtr EmptyValues(const Schema& schema) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kValues;
  node->schema = schema;
  return node;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    if (!out) {
      out = c;
    } else {
      out = MakeBinary(BinaryOp::kAnd, out, c);
      out->type = DataType::Boolean();
    }
  }
  return out;
}

void SplitAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e && e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
    SplitAnd(e->children[0], out);
    SplitAnd(e->children[1], out);
    return;
  }
  if (e) out->push_back(e);
}

/// Substitutes project expressions for column refs; returns nullptr when
/// the substituted tree would duplicate a non-trivial/non-deterministic
/// computation below the project.
ExprPtr Substitute(const ExprPtr& e, const std::vector<ExprPtr>& sources) {
  if (!e) return nullptr;
  if (e->kind == ExprKind::kColumnRef) {
    if (e->binding < 0 || static_cast<size_t>(e->binding) >= sources.size())
      return nullptr;
    const ExprPtr& src = sources[e->binding];
    if (ExprContainsFunction(src, "RAND") || src->window) return nullptr;
    return CloneExpr(src);
  }
  auto copy = std::make_shared<Expr>(*e);
  copy->children.clear();
  for (const ExprPtr& c : e->children) {
    ExprPtr sub = Substitute(c, sources);
    if (!sub) return nullptr;
    copy->children.push_back(sub);
  }
  return copy;
}

bool BindingsInRange(const ExprPtr& e, int lo, int hi) {
  if (!e) return true;
  if (e->kind == ExprKind::kColumnRef)
    return e->binding >= lo && e->binding < hi;
  for (const ExprPtr& c : e->children)
    if (!BindingsInRange(c, lo, hi)) return false;
  return true;
}

RelNodePtr PushFilterInto(RelNodePtr node, ExprPtr conjunct);

RelNodePtr WrapFilter(RelNodePtr node, ExprPtr conjunct) {
  return MakeFilter(std::move(node), std::move(conjunct));
}

RelNodePtr PushFilterInto(RelNodePtr node, ExprPtr conjunct) {
  switch (node->kind) {
    case RelKind::kScan:
      node->scan_filters.push_back(conjunct);
      return node;
    case RelKind::kFilter:
      node->inputs[0] = PushFilterInto(node->inputs[0], conjunct);
      return node;
    case RelKind::kProject: {
      ExprPtr substituted = Substitute(conjunct, node->exprs);
      if (substituted) {
        node->inputs[0] = PushFilterInto(node->inputs[0], substituted);
        return node;
      }
      return WrapFilter(node, conjunct);
    }
    case RelKind::kJoin: {
      int left_width = static_cast<int>(node->inputs[0]->schema.num_fields());
      bool left_only = BindingsInRange(conjunct, 0, left_width);
      bool right_only =
          BindingsInRange(conjunct, left_width,
                          left_width + static_cast<int>(
                                           node->inputs[1]->schema.num_fields()));
      bool is_inner = node->join_type == TableRef::JoinType::kInner ||
                      node->join_type == TableRef::JoinType::kCross;
      // A side produces NULL-padded rows when the *other* side is the
      // preserved one; filters only push into non-null-producing sides.
      bool left_null_producing = node->join_type == TableRef::JoinType::kRight ||
                                 node->join_type == TableRef::JoinType::kFull;
      bool right_null_producing = node->join_type == TableRef::JoinType::kLeft ||
                                  node->join_type == TableRef::JoinType::kFull;
      if (left_only && !left_null_producing) {
        node->inputs[0] = PushFilterInto(node->inputs[0], conjunct);
        return node;
      }
      if (right_only && !right_null_producing) {
        ExprPtr shifted = CloneExpr(conjunct);
        RemapBindings(shifted, [&] {
          std::vector<int> mapping(left_width + node->inputs[1]->schema.num_fields());
          for (size_t i = 0; i < mapping.size(); ++i)
            mapping[i] = static_cast<int>(i) - left_width;
          return mapping;
        }());
        node->inputs[1] = PushFilterInto(node->inputs[1], shifted);
        return node;
      }
      if (is_inner) {
        node->join_type = TableRef::JoinType::kInner;
        node->condition = node->condition
                              ? [&] {
                                  ExprPtr both = MakeBinary(BinaryOp::kAnd,
                                                            node->condition, conjunct);
                                  both->type = DataType::Boolean();
                                  return both;
                                }()
                              : conjunct;
        return node;
      }
      return WrapFilter(node, conjunct);
    }
    case RelKind::kUnion:
    case RelKind::kMinus:
    case RelKind::kIntersect: {
      for (RelNodePtr& input : node->inputs)
        input = PushFilterInto(input, CloneExpr(conjunct));
      return node;
    }
    case RelKind::kAggregate: {
      int num_keys = static_cast<int>(node->group_keys.size());
      if (BindingsInRange(conjunct, 0, num_keys)) {
        ExprPtr substituted = Substitute(conjunct, node->group_keys);
        if (substituted) {
          node->inputs[0] = PushFilterInto(node->inputs[0], substituted);
          return node;
        }
      }
      return WrapFilter(node, conjunct);
    }
    case RelKind::kWindow: {
      int base = static_cast<int>(node->inputs[0]->schema.num_fields());
      if (BindingsInRange(conjunct, 0, base)) {
        node->inputs[0] = PushFilterInto(node->inputs[0], conjunct);
        return node;
      }
      return WrapFilter(node, conjunct);
    }
    default:
      return WrapFilter(node, conjunct);
  }
}

}  // namespace

RelNodePtr FoldConstants(RelNodePtr plan) {
  for (RelNodePtr& input : plan->inputs) input = FoldConstants(input);
  ForEachExpr(plan.get(), [](ExprPtr& e) { e = FoldExpr(e); });
  if (plan->kind == RelKind::kFilter && plan->predicate &&
      plan->predicate->kind == ExprKind::kLiteral) {
    const Value& v = plan->predicate->literal;
    if (!v.is_null() && v.bool_value()) return plan->inputs[0];
    return EmptyValues(plan->schema);
  }
  return plan;
}

RelNodePtr PushDownFilters(RelNodePtr plan) {
  for (RelNodePtr& input : plan->inputs) input = PushDownFilters(input);
  if (plan->kind == RelKind::kFilter) {
    std::vector<ExprPtr> conjuncts;
    SplitAnd(plan->predicate, &conjuncts);
    RelNodePtr child = plan->inputs[0];
    for (const ExprPtr& conjunct : conjuncts)
      child = PushFilterInto(child, conjunct);
    return child;
  }
  if (plan->kind == RelKind::kJoin && plan->condition &&
      (plan->join_type == TableRef::JoinType::kInner)) {
    // Single-side conjuncts inside the ON clause move into the inputs.
    std::vector<ExprPtr> conjuncts;
    SplitAnd(plan->condition, &conjuncts);
    int left_width = static_cast<int>(plan->inputs[0]->schema.num_fields());
    int total = left_width + static_cast<int>(plan->inputs[1]->schema.num_fields());
    std::vector<ExprPtr> kept;
    for (const ExprPtr& c : conjuncts) {
      if (BindingsInRange(c, 0, left_width) && c->kind != ExprKind::kLiteral) {
        plan->inputs[0] = PushFilterInto(plan->inputs[0], c);
      } else if (BindingsInRange(c, left_width, total) &&
                 c->kind != ExprKind::kLiteral) {
        ExprPtr shifted = CloneExpr(c);
        std::vector<int> mapping(total);
        for (int i = 0; i < total; ++i) mapping[i] = i - left_width;
        RemapBindings(shifted, mapping);
        plan->inputs[1] = PushFilterInto(plan->inputs[1], shifted);
      } else {
        kept.push_back(c);
      }
    }
    plan->condition = kept.empty() ? [&] {
      ExprPtr t = MakeLiteral(Value::Boolean(true));
      t->type = DataType::Boolean();
      return t;
    }()
                                   : AndAll(kept);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Column pruning
// ---------------------------------------------------------------------------

namespace {

/// Prunes `node` to produce only `needed` columns (bitset over its current
/// output). Returns the new node; `mapping` maps old output ordinals to new
/// ones (-1 = dropped).
RelNodePtr Prune(RelNodePtr node, std::vector<bool> needed, std::vector<int>* mapping) {
  size_t width = node->schema.num_fields();
  needed.resize(width, false);
  mapping->assign(width, -1);

  auto identity = [&]() {
    for (size_t i = 0; i < width; ++i) (*mapping)[i] = static_cast<int>(i);
    return node;
  };

  switch (node->kind) {
    case RelKind::kScan: {
      for (const ExprPtr& f : node->scan_filters) CollectBindings(f, &needed);
      bool any = false;
      for (bool b : needed) any |= b;
      if (!any) needed[0] = true;  // COUNT(*)-style scans still read a column
      std::vector<size_t> new_projected;
      Schema new_schema;
      int next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (!needed[i]) continue;
        (*mapping)[i] = next++;
        new_projected.push_back(node->projected[i]);
        new_schema.AddField(node->schema.field(i).name, node->schema.field(i).type);
      }
      node->projected = std::move(new_projected);
      node->schema = std::move(new_schema);
      for (const ExprPtr& f : node->scan_filters) RemapBindings(f, *mapping);
      return node;
    }
    case RelKind::kValues: {
      Schema new_schema;
      int next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (!needed[i]) continue;
        (*mapping)[i] = next++;
        new_schema.AddField(node->schema.field(i).name, node->schema.field(i).type);
      }
      for (auto& row : node->rows) {
        std::vector<Value> new_row;
        for (size_t i = 0; i < row.size() && i < width; ++i)
          if (needed[i]) new_row.push_back(row[i]);
        row = std::move(new_row);
      }
      node->schema = std::move(new_schema);
      return node;
    }
    case RelKind::kFilter: {
      std::vector<bool> child_needed = needed;
      CollectBindings(node->predicate, &child_needed);
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], child_needed, &child_map);
      RemapBindings(node->predicate, child_map);
      node->schema = node->inputs[0]->schema;
      *mapping = child_map;
      return node;
    }
    case RelKind::kProject: {
      std::vector<bool> child_needed(node->inputs[0]->schema.num_fields(), false);
      for (size_t i = 0; i < width; ++i)
        if (needed[i]) CollectBindings(node->exprs[i], &child_needed);
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], child_needed, &child_map);
      std::vector<ExprPtr> new_exprs;
      Schema new_schema;
      int next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (!needed[i]) continue;
        RemapBindings(node->exprs[i], child_map);
        new_exprs.push_back(node->exprs[i]);
        new_schema.AddField(node->schema.field(i).name, node->schema.field(i).type);
        (*mapping)[i] = next++;
      }
      node->exprs = std::move(new_exprs);
      node->schema = std::move(new_schema);
      return node;
    }
    case RelKind::kJoin: {
      size_t left_width = node->inputs[0]->schema.num_fields();
      size_t right_width = node->inputs[1]->schema.num_fields();
      bool semi = node->join_type == TableRef::JoinType::kSemi ||
                  node->join_type == TableRef::JoinType::kAnti;
      std::vector<bool> cond_needed(left_width + right_width, false);
      CollectBindings(node->condition, &cond_needed);
      std::vector<bool> left_needed(left_width, false), right_needed(right_width, false);
      for (size_t i = 0; i < left_width; ++i)
        left_needed[i] = cond_needed[i] || (i < width && needed[i]);
      for (size_t j = 0; j < right_width; ++j)
        right_needed[j] = cond_needed[left_width + j] ||
                          (!semi && left_width + j < width && needed[left_width + j]);
      std::vector<int> lmap, rmap;
      node->inputs[0] = Prune(node->inputs[0], left_needed, &lmap);
      node->inputs[1] = Prune(node->inputs[1], right_needed, &rmap);
      size_t new_left_width = node->inputs[0]->schema.num_fields();
      // Remap the condition.
      std::vector<int> cond_map(left_width + right_width, -1);
      for (size_t i = 0; i < left_width; ++i) cond_map[i] = lmap[i];
      for (size_t j = 0; j < right_width; ++j)
        cond_map[left_width + j] =
            rmap[j] < 0 ? -1 : static_cast<int>(new_left_width) + rmap[j];
      RemapBindings(node->condition, cond_map);
      // Output schema + parent mapping.
      Schema new_schema = node->inputs[0]->schema;
      if (!semi)
        for (const Field& f : node->inputs[1]->schema.fields())
          new_schema.AddField(f.name, f.type);
      node->schema = std::move(new_schema);
      for (size_t i = 0; i < left_width && i < width; ++i) (*mapping)[i] = lmap[i];
      if (!semi)
        for (size_t j = 0; j < right_width && left_width + j < width; ++j)
          (*mapping)[left_width + j] =
              rmap[j] < 0 ? -1 : static_cast<int>(new_left_width) + rmap[j];
      return node;
    }
    case RelKind::kAggregate: {
      std::vector<bool> child_needed(node->inputs[0]->schema.num_fields(), false);
      for (const ExprPtr& k : node->group_keys) CollectBindings(k, &child_needed);
      for (const AggCall& a : node->aggs) CollectBindings(a.arg, &child_needed);
      bool any = false;
      for (bool b : child_needed) any |= b;
      if (!any && node->inputs[0]->schema.num_fields() > 0) child_needed[0] = true;
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], child_needed, &child_map);
      for (const ExprPtr& k : node->group_keys) RemapBindings(k, child_map);
      for (AggCall& a : node->aggs) RemapBindings(a.arg, child_map);
      return identity();
    }
    case RelKind::kWindow: {
      std::vector<bool> all(node->inputs[0]->schema.num_fields(), true);
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], all, &child_map);
      return identity();
    }
    case RelKind::kUnion:
    case RelKind::kMinus:
    case RelKind::kIntersect: {
      // Set semantics (minus/intersect) compare whole rows: keep all.
      if (node->kind != RelKind::kUnion) {
        for (RelNodePtr& input : node->inputs) {
          std::vector<bool> all(input->schema.num_fields(), true);
          std::vector<int> child_map;
          input = Prune(input, all, &child_map);
        }
        return identity();
      }
      Schema new_schema;
      int next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (!needed[i]) continue;
        (*mapping)[i] = next++;
        new_schema.AddField(node->schema.field(i).name, node->schema.field(i).type);
      }
      for (RelNodePtr& input : node->inputs) {
        std::vector<int> child_map;
        input = Prune(input, needed, &child_map);
        // Force positional agreement with a project when required.
        bool aligned = true;
        int expect = 0;
        for (size_t i = 0; i < width; ++i) {
          if (!needed[i]) continue;
          if (child_map[i] != expect++) aligned = false;
        }
        if (!aligned ||
            input->schema.num_fields() != static_cast<size_t>(next)) {
          std::vector<ExprPtr> refs;
          std::vector<std::string> names;
          for (size_t i = 0; i < width; ++i) {
            if (!needed[i]) continue;
            ExprPtr ref = MakeColumnRef("", input->schema.field(child_map[i]).name);
            ref->binding = child_map[i];
            ref->type = input->schema.field(child_map[i]).type;
            refs.push_back(ref);
            names.push_back(new_schema.field(refs.size() - 1).name);
          }
          input = MakeProject(input, std::move(refs), std::move(names));
        }
      }
      node->schema = std::move(new_schema);
      return node;
    }
    case RelKind::kSort: {
      std::vector<bool> child_needed = needed;
      for (const auto& [k, asc] : node->sort_keys) CollectBindings(k, &child_needed);
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], child_needed, &child_map);
      for (const auto& [k, asc] : node->sort_keys) RemapBindings(k, child_map);
      node->schema = node->inputs[0]->schema;
      *mapping = child_map;
      return node;
    }
    case RelKind::kLimit: {
      std::vector<int> child_map;
      node->inputs[0] = Prune(node->inputs[0], needed, &child_map);
      node->schema = node->inputs[0]->schema;
      *mapping = child_map;
      return node;
    }
  }
  return identity();
}

}  // namespace

RelNodePtr PruneColumns(RelNodePtr plan) {
  std::vector<bool> all(plan->schema.num_fields(), true);
  std::vector<int> mapping;
  return Prune(std::move(plan), std::move(all), &mapping);
}

Status PrunePartitions(const RelNodePtr& plan, Catalog* catalog) {
  for (const RelNodePtr& input : plan->inputs)
    HIVE_RETURN_IF_ERROR(PrunePartitions(input, catalog));
  if (plan->kind != RelKind::kScan) return Status::OK();
  if (!plan->table.IsPartitioned() || !plan->table.storage_handler.empty())
    return Status::OK();
  if (plan->partitions_pruned) return Status::OK();
  HIVE_ASSIGN_OR_RETURN(std::vector<PartitionInfo> partitions,
                        catalog->GetPartitions(plan->table.db, plan->table.name));
  // Identify which scan-output ordinals are partition columns.
  std::vector<int> part_index(plan->schema.num_fields(), -1);
  bool has_part_col_filter = false;
  for (size_t i = 0; i < plan->schema.num_fields(); ++i) {
    for (size_t p = 0; p < plan->table.partition_cols.size(); ++p) {
      if (ToLower(plan->schema.field(i).name) ==
          ToLower(plan->table.partition_cols[p].name))
        part_index[i] = static_cast<int>(p);
    }
  }
  std::vector<ExprPtr> partition_conjuncts;
  for (const ExprPtr& f : plan->scan_filters) {
    std::vector<bool> used(plan->schema.num_fields(), false);
    CollectBindings(f, &used);
    bool only_partition_cols = true, any = false;
    for (size_t i = 0; i < used.size(); ++i) {
      if (!used[i]) continue;
      any = true;
      if (part_index[i] < 0) only_partition_cols = false;
    }
    if (any && only_partition_cols) {
      partition_conjuncts.push_back(f);
      has_part_col_filter = true;
    }
  }
  plan->partitions_pruned = true;
  if (!has_part_col_filter) {
    plan->pruned_partitions = std::move(partitions);
    return Status::OK();
  }
  // Each partition is a one-row batch: its values in the partition
  // columns, NULL in the others. It stays when the conjuncts are TRUE on
  // it; one on which they fail (a value that does not parse as a cast's
  // type) is pruned like one on which they are FALSE.
  const ExprPtr predicate = AndAll(partition_conjuncts);
  for (const PartitionInfo& partition : partitions) {
    RowBatch row(plan->schema);
    for (size_t i = 0; i < plan->schema.num_fields(); ++i)
      row.column(i)->AppendValue(part_index[i] >= 0 ? partition.values[part_index[i]]
                                                    : Value::Null());
    row.set_num_rows(1);
    auto v = EvalVector(*predicate, row);
    if (v.ok() && IsTrue((*v)->GetValue(0))) plan->pruned_partitions.push_back(partition);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join reordering
// ---------------------------------------------------------------------------

namespace {

bool IsReorderableJoin(const RelNode& node) {
  return node.kind == RelKind::kJoin &&
         (node.join_type == TableRef::JoinType::kInner ||
          node.join_type == TableRef::JoinType::kCross);
}

void ShiftExprBindings(const ExprPtr& e, int delta) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef && e->binding >= 0) e->binding += delta;
  for (const ExprPtr& c : e->children) ShiftExprBindings(c, delta);
}

/// Flattens a contiguous inner-join tree. Collected conditions are
/// rebound into the global (flattened) ordinal space: a nested right
/// subtree's conditions, local to that subtree, get shifted by the width
/// of everything to its left.
void CollectJoinTree(const RelNodePtr& node, std::vector<RelNodePtr>* leaves,
                     std::vector<ExprPtr>* conditions) {
  if (IsReorderableJoin(*node)) {
    CollectJoinTree(node->inputs[0], leaves, conditions);
    size_t left_total = 0;
    for (const RelNodePtr& leaf : *leaves) left_total += leaf->schema.num_fields();
    size_t cond_start = conditions->size();
    CollectJoinTree(node->inputs[1], leaves, conditions);
    for (size_t i = cond_start; i < conditions->size(); ++i) {
      (*conditions)[i] = CloneExpr((*conditions)[i]);
      ShiftExprBindings((*conditions)[i], static_cast<int>(left_total));
    }
    // This node's own condition is already in the flattened space (its
    // inputs' concat equals the flattened prefix).
    if (node->condition && node->condition->kind != ExprKind::kLiteral)
      SplitAnd(node->condition, conditions);
    return;
  }
  leaves->push_back(node);
}

struct LeafRef {
  size_t leaf;
  int local;
};

}  // namespace

RelNodePtr ReorderJoins(RelNodePtr plan, const Config& config) {
  for (RelNodePtr& input : plan->inputs) input = ReorderJoins(input, config);
  if (!config.cbo_enabled || !IsReorderableJoin(*plan)) return plan;

  std::vector<RelNodePtr> leaves;
  std::vector<ExprPtr> conditions;
  CollectJoinTree(plan, &leaves, &conditions);
  if (leaves.size() < 3 ||
      leaves.size() > static_cast<size_t>(config.join_reorder_max_relations))
    return plan;

  // Original global ordinal -> (leaf, local ordinal).
  std::vector<size_t> offsets(leaves.size());
  size_t total = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    offsets[i] = total;
    total += leaves[i]->schema.num_fields();
  }
  auto leaf_of = [&](int global) -> LeafRef {
    for (size_t i = leaves.size(); i-- > 0;)
      if (static_cast<size_t>(global) >= offsets[i])
        return {i, global - static_cast<int>(offsets[i])};
    return {0, global};
  };

  struct CondInfo {
    ExprPtr expr;
    std::set<size_t> leaves;
    bool used = false;
  };
  std::vector<CondInfo> cond_infos;
  for (const ExprPtr& c : conditions) {
    CondInfo info;
    info.expr = c;
    std::vector<bool> used(total, false);
    CollectBindings(c, &used);
    for (size_t g = 0; g < total; ++g)
      if (used[g]) info.leaves.insert(leaf_of(static_cast<int>(g)).leaf);
    cond_infos.push_back(std::move(info));
  }

  // Greedy: start from the smallest leaf, repeatedly add the connected leaf
  // with the smallest estimated join size.
  std::vector<bool> placed(leaves.size(), false);
  std::vector<size_t> order;
  size_t start = 0;
  for (size_t i = 1; i < leaves.size(); ++i)
    if (leaves[i]->row_estimate < leaves[start]->row_estimate) start = i;
  order.push_back(start);
  placed[start] = true;
  double current_rows = std::max(1.0, leaves[start]->row_estimate);
  while (order.size() < leaves.size()) {
    int best = -1;
    double best_rows = 0;
    bool best_connected = false;
    for (size_t cand = 0; cand < leaves.size(); ++cand) {
      if (placed[cand]) continue;
      bool connected = false;
      for (const CondInfo& info : cond_infos) {
        if (info.leaves.count(cand) == 0) continue;
        bool others_placed = true;
        for (size_t l : info.leaves)
          if (l != cand && !placed[l]) others_placed = false;
        if (others_placed && info.leaves.size() > 1) connected = true;
      }
      double rows = connected
                        ? std::max(current_rows, std::max(1.0, leaves[cand]->row_estimate))
                        : current_rows * std::max(1.0, leaves[cand]->row_estimate);
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected && rows < best_rows)) {
        best = static_cast<int>(cand);
        best_rows = rows;
        best_connected = connected;
      }
    }
    order.push_back(static_cast<size_t>(best));
    placed[best] = true;
    current_rows = best_rows;
  }

  // Original global ordinal -> ordinal in the output of leaves joined in
  // `layout` order (-1 for leaves not joined yet).
  auto layout_map = [&](const std::vector<size_t>& layout) {
    std::vector<int> leaf_offset(leaves.size(), -1);
    int acc = 0;
    for (size_t leaf : layout) {
      leaf_offset[leaf] = acc;
      acc += static_cast<int>(leaves[leaf]->schema.num_fields());
    }
    std::vector<int> map(total, -1);
    for (size_t g = 0; g < total; ++g) {
      LeafRef ref = leaf_of(static_cast<int>(g));
      if (leaf_offset[ref.leaf] >= 0) map[g] = leaf_offset[ref.leaf] + ref.local;
    }
    return map;
  };

  // Build the left-deep tree, attaching each condition at the first step
  // where all its leaves are available. Each step puts the input with the
  // larger estimate on the left, the probe side, so a star join streams its
  // fact table and hashes only the dimensions. The estimates follow
  // DeriveRowEstimates' join rule, so the final plan's estimates agree.
  RelNodePtr current = leaves[order[0]];
  double tree_rows = current->row_estimate;
  std::vector<size_t> layout = {order[0]};
  for (size_t pos = 1; pos < order.size(); ++pos) {
    const RelNodePtr& leaf = leaves[order[pos]];
    bool leaf_probes = leaf->row_estimate > tree_rows;
    if (leaf_probes) {
      layout.insert(layout.begin(), order[pos]);
    } else {
      layout.push_back(order[pos]);
    }
    std::vector<int> step_map = layout_map(layout);
    std::vector<ExprPtr> step_conditions;
    for (CondInfo& info : cond_infos) {
      if (info.used) continue;
      bool ready = true;
      for (size_t l : info.leaves)
        if (std::count(layout.begin(), layout.end(), l) == 0) ready = false;
      if (!ready) continue;
      info.used = true;
      ExprPtr rebound = CloneExpr(info.expr);
      RemapBindings(rebound, step_map);
      step_conditions.push_back(rebound);
    }
    ExprPtr condition = AndAll(step_conditions);
    TableRef::JoinType type =
        condition ? TableRef::JoinType::kInner : TableRef::JoinType::kCross;
    current = leaf_probes ? MakeJoin(type, leaf, current, condition)
                          : MakeJoin(type, current, leaf, condition);
    tree_rows = condition ? std::max(tree_rows, leaf->row_estimate)
                          : tree_rows * leaf->row_estimate;
  }

  // Restore the original output column order.
  std::vector<int> global_map = layout_map(layout);
  std::vector<ExprPtr> refs;
  std::vector<std::string> names;
  for (size_t g = 0; g < total; ++g) {
    int new_pos = global_map[g];
    ExprPtr ref = MakeColumnRef("", current->schema.field(new_pos).name);
    ref->binding = new_pos;
    ref->type = current->schema.field(new_pos).type;
    refs.push_back(ref);
    LeafRef lr = leaf_of(static_cast<int>(g));
    names.push_back(leaves[lr.leaf]->schema.field(lr.local).name);
  }
  return MakeProject(current, std::move(refs), std::move(names));
}

// ---------------------------------------------------------------------------
// Dynamic semijoin reduction
// ---------------------------------------------------------------------------

namespace {

/// Traces an output ordinal of `node` to an underlying scan column, walking
/// through filters, projects (column refs only) and join inputs.
bool TraceToScan(const RelNodePtr& node, int ordinal, RelNode** scan,
                 std::string* column) {
  switch (node->kind) {
    case RelKind::kScan:
      if (ordinal < 0 || static_cast<size_t>(ordinal) >= node->schema.num_fields())
        return false;
      *scan = node.get();
      *column = node->schema.field(ordinal).name;
      return true;
    case RelKind::kFilter:
    case RelKind::kLimit:
    case RelKind::kSort:
      return TraceToScan(node->inputs[0], ordinal, scan, column);
    case RelKind::kProject: {
      if (ordinal < 0 || static_cast<size_t>(ordinal) >= node->exprs.size())
        return false;
      const ExprPtr& e = node->exprs[ordinal];
      if (e->kind != ExprKind::kColumnRef) return false;
      return TraceToScan(node->inputs[0], e->binding, scan, column);
    }
    case RelKind::kJoin: {
      int left_width = static_cast<int>(node->inputs[0]->schema.num_fields());
      if (ordinal < left_width) return TraceToScan(node->inputs[0], ordinal, scan, column);
      return TraceToScan(node->inputs[1], ordinal - left_width, scan, column);
    }
    default:
      return false;
  }
}

}  // namespace

Status InsertSemiJoinReducers(const RelNodePtr& plan, const Config& config) {
  for (const RelNodePtr& input : plan->inputs)
    HIVE_RETURN_IF_ERROR(InsertSemiJoinReducers(input, config));
  if (!config.semijoin_reduction_enabled) return Status::OK();
  if (plan->kind != RelKind::kJoin) return Status::OK();
  if (plan->join_type != TableRef::JoinType::kInner &&
      plan->join_type != TableRef::JoinType::kSemi)
    return Status::OK();
  if (!plan->condition) return Status::OK();

  const RelNodePtr& left = plan->inputs[0];
  const RelNodePtr& right = plan->inputs[1];
  int left_width = static_cast<int>(left->schema.num_fields());

  std::vector<ExprPtr> conjuncts;
  SplitAnd(plan->condition, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->bin_op != BinaryOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const ExprPtr& a = c->children[side];      // probe candidate
      const ExprPtr& b = c->children[1 - side];  // build candidate
      if (a->kind != ExprKind::kColumnRef || b->kind != ExprKind::kColumnRef) continue;
      bool a_left = a->binding < left_width;
      bool b_left = b->binding < left_width;
      if (a_left == b_left) continue;  // same side, not a join key
      const RelNodePtr& probe_side = a_left ? left : right;
      const RelNodePtr& build_side = a_left ? right : left;
      // Only reduce when the build side is substantially smaller.
      double probe_rows = std::max(1.0, probe_side->row_estimate);
      double build_rows = std::max(1.0, build_side->row_estimate);
      if (build_rows > probe_rows * 0.3) continue;
      if (probe_rows < 10000) continue;  // not worth the reducer
      int probe_ordinal = a_left ? a->binding : a->binding - left_width;
      int build_ordinal = b_left ? b->binding : b->binding - left_width;
      RelNode* scan = nullptr;
      std::string column;
      if (!TraceToScan(probe_side, probe_ordinal, &scan, &column)) continue;
      if (!scan->table.storage_handler.empty()) continue;
      SemiJoinReducer reducer;
      reducer.build_plan = build_side;
      ExprPtr key = MakeColumnRef("", build_side->schema.field(build_ordinal).name);
      key->binding = build_ordinal;
      key->type = build_side->schema.field(build_ordinal).type;
      reducer.build_key = key;
      reducer.target_column = column;
      for (const Field& pc : scan->table.partition_cols)
        if (ToLower(pc.name) == ToLower(column))
          reducer.partition_pruning = config.dynamic_partition_pruning_enabled;
      scan->semijoin_reducers.push_back(std::move(reducer));
      break;  // one reducer per conjunct
    }
  }
  return Status::OK();
}

}  // namespace hive
