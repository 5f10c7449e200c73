#include "optimizer/rel.h"

#include <algorithm>

namespace hive {

namespace {
const char* KindName(RelKind kind) {
  switch (kind) {
    case RelKind::kScan: return "Scan";
    case RelKind::kValues: return "Values";
    case RelKind::kFilter: return "Filter";
    case RelKind::kProject: return "Project";
    case RelKind::kJoin: return "Join";
    case RelKind::kAggregate: return "Aggregate";
    case RelKind::kWindow: return "Window";
    case RelKind::kSort: return "Sort";
    case RelKind::kLimit: return "Limit";
    case RelKind::kUnion: return "Union";
    case RelKind::kMinus: return "Except";
    case RelKind::kIntersect: return "Intersect";
  }
  return "?";
}

const char* JoinName(TableRef::JoinType type) {
  switch (type) {
    case TableRef::JoinType::kInner: return "inner";
    case TableRef::JoinType::kLeft: return "left";
    case TableRef::JoinType::kRight: return "right";
    case TableRef::JoinType::kFull: return "full";
    case TableRef::JoinType::kCross: return "cross";
    case TableRef::JoinType::kSemi: return "semi";
    case TableRef::JoinType::kAnti: return "anti";
  }
  return "?";
}
}  // namespace

bool RelNode::ReadsRecordId() const {
  size_t full_width = table.schema.num_fields() + table.partition_cols.size();
  return kind == RelKind::kScan &&
         std::any_of(projected.begin(), projected.end(),
                     [&](size_t c) { return c >= full_width; });
}

std::string RelNode::Digest() const {
  std::string out = KindName(kind);
  out += "(";
  switch (kind) {
    case RelKind::kScan: {
      out += table.FullName();
      out += " cols=[";
      for (size_t i = 0; i < projected.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(projected[i]);
      }
      out += "]";
      for (const ExprPtr& f : scan_filters) out += " " + f->ToString();
      if (partitions_pruned)
        out += " parts=" + std::to_string(pruned_partitions.size());
      break;
    }
    case RelKind::kValues:
      out += std::to_string(rows.size()) + " rows";
      break;
    case RelKind::kFilter:
      out += predicate ? predicate->ToString() : "";
      break;
    case RelKind::kProject:
      out += ExprListToString(exprs);
      break;
    case RelKind::kJoin:
      out += JoinName(join_type);
      if (condition) out += " on " + condition->ToString();
      break;
    case RelKind::kAggregate:
      out += "keys=[" + ExprListToString(group_keys) + "] aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) out += ",";
        out += aggs[i].func;
        if (aggs[i].distinct) out += " DISTINCT";
        if (aggs[i].arg) out += "(" + aggs[i].arg->ToString() + ")";
      }
      out += "]";
      break;
    case RelKind::kWindow:
      for (const WindowCall& w : window_calls) out += w.func + " ";
      break;
    case RelKind::kSort:
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) out += ",";
        out += sort_keys[i].first->ToString();
        out += sort_keys[i].second ? " asc" : " desc";
      }
      if (limit >= 0) out += " fetch=" + std::to_string(limit);
      break;
    case RelKind::kLimit:
      out += std::to_string(limit);
      break;
    default:
      break;
  }
  out += ")[";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i) out += ",";
    out += inputs[i]->Digest();
  }
  out += "]";
  return out;
}

std::string RelNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + KindName(kind);
  switch (kind) {
    case RelKind::kScan:
      out += " " + table.FullName();
      if (!scan_filters.empty()) {
        out += " filters: ";
        for (size_t i = 0; i < scan_filters.size(); ++i) {
          if (i) out += " AND ";
          out += scan_filters[i]->ToString();
        }
      }
      if (partitions_pruned)
        out += " partitions: " + std::to_string(pruned_partitions.size());
      if (!semijoin_reducers.empty())
        out += " semijoin-reducers: " + std::to_string(semijoin_reducers.size());
      break;
    case RelKind::kFilter:
      out += " " + (predicate ? predicate->ToString() : "");
      break;
    case RelKind::kProject: {
      out += " [";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i) out += ", ";
        out += schema.field(i).name + "=" + exprs[i]->ToString();
      }
      out += "]";
      break;
    }
    case RelKind::kJoin:
      out += std::string(" ") + JoinName(join_type);
      if (condition) out += " on " + condition->ToString();
      break;
    case RelKind::kAggregate: {
      out += " keys=[" + ExprListToString(group_keys) + "]";
      out += " aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) out += ", ";
        out += aggs[i].func + (aggs[i].arg ? "(" + aggs[i].arg->ToString() + ")" : "(*)");
      }
      out += "]";
      break;
    }
    case RelKind::kSort:
      if (limit >= 0) out += " fetch=" + std::to_string(limit);
      break;
    case RelKind::kLimit:
      out += " " + std::to_string(limit);
      break;
    default:
      break;
  }
  if (row_estimate >= 0) out += "  (rows=" + std::to_string(static_cast<int64_t>(row_estimate)) + ")";
  out += "\n";
  for (const RelNodePtr& input : inputs) out += input->ToString(indent + 1);
  return out;
}

RelNodePtr MakeFilter(RelNodePtr input, ExprPtr predicate) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kFilter;
  node->schema = input->schema;
  node->inputs = {std::move(input)};
  node->predicate = std::move(predicate);
  return node;
}

RelNodePtr MakeProject(RelNodePtr input, std::vector<ExprPtr> exprs,
                       std::vector<std::string> names) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kProject;
  for (size_t i = 0; i < exprs.size(); ++i)
    node->schema.AddField(i < names.size() ? names[i] : "_c" + std::to_string(i),
                          exprs[i]->type);
  node->inputs = {std::move(input)};
  node->exprs = std::move(exprs);
  return node;
}

RelNodePtr MakeJoin(TableRef::JoinType type, RelNodePtr left, RelNodePtr right,
                    ExprPtr condition) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kJoin;
  node->join_type = type;
  // Semi/anti joins output only the left side.
  node->schema = left->schema;
  if (type != TableRef::JoinType::kSemi && type != TableRef::JoinType::kAnti) {
    for (const Field& f : right->schema.fields()) node->schema.AddField(f.name, f.type);
  }
  node->inputs = {std::move(left), std::move(right)};
  node->condition = std::move(condition);
  return node;
}

RelNodePtr MakeLimit(RelNodePtr input, int64_t limit) {
  auto node = std::make_shared<RelNode>();
  node->kind = RelKind::kLimit;
  node->schema = input->schema;
  node->inputs = {std::move(input)};
  node->limit = limit;
  return node;
}

bool RollsUp(const AggCall& agg) { return !agg.distinct && agg.func != "AVG"; }

AggCall RollUp(const AggCall& agg, ExprPtr partial) {
  AggCall rolled = agg;
  rolled.arg = std::move(partial);
  if (agg.func == "COUNT") rolled.func = "SUM";
  return rolled;
}

ExprPtr RolledUpValue(const AggCall& agg, ExprPtr rolled) {
  if (agg.func != "COUNT") return rolled;
  ExprPtr zero = MakeLiteral(Value::Bigint(0));
  zero->type = DataType::Bigint();
  ExprPtr value = MakeFunction("COALESCE", {std::move(rolled), zero});
  value->type = DataType::Bigint();
  return value;
}

RelNodePtr CloneRel(const RelNodePtr& node) {
  auto copy = std::make_shared<RelNode>(*node);
  for (RelNodePtr& input : copy->inputs) input = CloneRel(input);
  ForEachExpr(copy.get(), [](ExprPtr& e) { e = CloneExpr(e); });
  for (SemiJoinReducer& reducer : copy->semijoin_reducers) {
    reducer.build_plan = CloneRel(reducer.build_plan);
    reducer.build_key = CloneExpr(reducer.build_key);
  }
  return copy;
}

void ForEachExpr(RelNode* node, const std::function<void(ExprPtr&)>& fn) {
  auto apply = [&fn](ExprPtr& e) {
    if (e) fn(e);
  };
  for (ExprPtr& e : node->scan_filters) apply(e);
  if (node->predicate) apply(node->predicate);
  for (ExprPtr& e : node->exprs) apply(e);
  if (node->condition) apply(node->condition);
  for (ExprPtr& e : node->group_keys) apply(e);
  for (AggCall& agg : node->aggs) apply(agg.arg);
  for (WindowCall& w : node->window_calls) {
    apply(w.arg);
    for (ExprPtr& e : w.partition_by) apply(e);
    for (auto& [e, asc] : w.order_by) apply(e);
  }
  for (auto& [e, asc] : node->sort_keys) apply(e);
}

ExprPtr CloneExpr(const ExprPtr& e) {
  if (!e) return nullptr;
  auto copy = std::make_shared<Expr>(*e);
  copy->children.clear();
  for (const ExprPtr& child : e->children) copy->children.push_back(CloneExpr(child));
  if (e->window) {
    copy->window = std::make_shared<WindowSpec>();
    for (const ExprPtr& p : e->window->partition_by)
      copy->window->partition_by.push_back(CloneExpr(p));
    for (const auto& [o, asc] : e->window->order_by)
      copy->window->order_by.push_back({CloneExpr(o), asc});
  }
  return copy;
}

void CollectBindings(const ExprPtr& e, std::vector<bool>* used) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef && e->binding >= 0 &&
      static_cast<size_t>(e->binding) < used->size())
    (*used)[e->binding] = true;
  for (const ExprPtr& child : e->children) CollectBindings(child, used);
  if (e->window) {
    for (const ExprPtr& p : e->window->partition_by) CollectBindings(p, used);
    for (const auto& [o, asc] : e->window->order_by) CollectBindings(o, used);
  }
}

void RemapBindings(const ExprPtr& e, const std::vector<int>& mapping) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef && e->binding >= 0 &&
      static_cast<size_t>(e->binding) < mapping.size())
    e->binding = mapping[e->binding];
  for (const ExprPtr& child : e->children) RemapBindings(child, mapping);
  if (e->window) {
    for (const ExprPtr& p : e->window->partition_by) RemapBindings(p, mapping);
    for (const auto& [o, asc] : e->window->order_by) RemapBindings(o, mapping);
  }
}

bool ExprContainsFunction(const ExprPtr& e, const std::string& func_name) {
  if (!e) return false;
  if (e->kind == ExprKind::kFunction && e->func_name == func_name) return true;
  for (const ExprPtr& child : e->children)
    if (ExprContainsFunction(child, func_name)) return true;
  return false;
}

}  // namespace hive
