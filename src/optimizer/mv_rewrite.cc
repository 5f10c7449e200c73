#include "optimizer/mv_rewrite.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/ast.h"
#include "optimizer/binder.h"
#include "optimizer/rules.h"

namespace hive {

namespace {

/// Per-thread: planning runs on the session's coordinator thread, and a
/// process-wide counter would race (and bleed values) across concurrent
/// sessions.
thread_local int g_last_rewrite_count = 0;

/// Canonical SPJA decomposition of a plan subtree.
struct SpjaSummary {
  bool valid = false;
  /// Scans in left-to-right order with their global column offsets.
  std::vector<RelNode*> scans;
  std::vector<size_t> offsets;
  size_t total_columns = 0;
  /// All predicate conjuncts (join + filter), bindings in global space.
  std::vector<ExprPtr> conjuncts;
  bool has_agg = false;
  std::vector<ExprPtr> group_keys;  // global space
  std::vector<AggCall> aggs;        // args in global space
  /// Top projection over (agg output | global space).
  bool has_project = false;
  std::vector<ExprPtr> project_exprs;
  Schema output_schema;
  RelNode* aggregate_node = nullptr;
};

void ShiftAll(const ExprPtr& e, int delta) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef && e->binding >= 0) e->binding += delta;
  for (const ExprPtr& c : e->children) ShiftAll(c, delta);
}

bool ExtractJoinTree(const RelNodePtr& node, SpjaSummary* out) {
  switch (node->kind) {
    case RelKind::kScan: {
      // A DML read must address the target's own records, never a view's.
      if (!node->table.storage_handler.empty() || node->table.is_materialized_view ||
          node->ReadsRecordId())
        return false;
      out->offsets.push_back(out->total_columns);
      out->scans.push_back(node.get());
      for (const ExprPtr& f : node->scan_filters) {
        ExprPtr shifted = CloneExpr(f);
        ShiftAll(shifted, static_cast<int>(out->total_columns));
        out->conjuncts.push_back(shifted);
      }
      out->total_columns += node->schema.num_fields();
      return true;
    }
    case RelKind::kFilter: {
      size_t base = out->total_columns;
      if (!ExtractJoinTree(node->inputs[0], out)) return false;
      ExprPtr shifted = CloneExpr(node->predicate);
      ShiftAll(shifted, static_cast<int>(base));
      out->conjuncts.push_back(shifted);
      return true;
    }
    case RelKind::kJoin: {
      if (node->join_type != TableRef::JoinType::kInner &&
          node->join_type != TableRef::JoinType::kCross)
        return false;
      size_t base = out->total_columns;
      if (!ExtractJoinTree(node->inputs[0], out)) return false;
      if (!ExtractJoinTree(node->inputs[1], out)) return false;
      if (node->condition && node->condition->kind != ExprKind::kLiteral) {
        ExprPtr shifted = CloneExpr(node->condition);
        ShiftAll(shifted, static_cast<int>(base));
        std::vector<ExprPtr> split;
        std::function<void(const ExprPtr&)> split_and = [&](const ExprPtr& e) {
          if (e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
            split_and(e->children[0]);
            split_and(e->children[1]);
          } else {
            out->conjuncts.push_back(e);
          }
        };
        split_and(shifted);
      }
      return true;
    }
    default:
      return false;
  }
}

SpjaSummary Summarize(const RelNodePtr& plan) {
  SpjaSummary out;
  RelNodePtr node = plan;
  if (node->kind == RelKind::kProject) {
    out.has_project = true;
    out.project_exprs = node->exprs;  // over next level's output
    out.output_schema = node->schema;
    node = node->inputs[0];
  }
  if (node->kind == RelKind::kAggregate) {
    out.has_agg = true;
    out.aggregate_node = node.get();
    out.group_keys = node->group_keys;
    out.aggs = node->aggs;
    if (!out.has_project) out.output_schema = node->schema;
    node = node->inputs[0];
  }
  if (!ExtractJoinTree(node, &out)) return out;
  if (!out.has_project && !out.has_agg) out.output_schema = node->schema;
  // Scans must reference distinct tables (self-join mapping is ambiguous).
  std::set<std::string> names;
  for (RelNode* scan : out.scans)
    if (!names.insert(scan->table.FullName()).second) return out;
  out.valid = true;
  return out;
}

/// Canonical digest of a conjunct: equality operands sorted so a=b == b=a.
std::string ConjunctDigest(const ExprPtr& e) {
  if (e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kEq) {
    std::string a = e->children[0]->ToString();
    std::string b = e->children[1]->ToString();
    if (b < a) std::swap(a, b);
    return "(" + a + " = " + b + ")";
  }
  return e->ToString();
}

struct RangePredicate {
  bool valid = false;
  int column = -1;  // global ordinal
  BinaryOp op = BinaryOp::kEq;
  Value literal;
};

RangePredicate ParseRange(const ExprPtr& e) {
  RangePredicate out;
  if (e->kind != ExprKind::kBinary) return out;
  BinaryOp op = e->bin_op;
  if (op != BinaryOp::kLt && op != BinaryOp::kLe && op != BinaryOp::kGt &&
      op != BinaryOp::kGe && op != BinaryOp::kEq)
    return out;
  const ExprPtr& l = e->children[0];
  const ExprPtr& r = e->children[1];
  if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kLiteral) {
    out.valid = true;
    out.column = l->binding;
    out.op = op;
    out.literal = r->literal;
  } else if (r->kind == ExprKind::kColumnRef && l->kind == ExprKind::kLiteral) {
    // Mirror: lit < col  =>  col > lit.
    out.valid = true;
    out.column = r->binding;
    out.literal = l->literal;
    switch (op) {
      case BinaryOp::kLt: out.op = BinaryOp::kGt; break;
      case BinaryOp::kLe: out.op = BinaryOp::kGe; break;
      case BinaryOp::kGt: out.op = BinaryOp::kLt; break;
      case BinaryOp::kGe: out.op = BinaryOp::kLe; break;
      default: out.op = op; break;
    }
  }
  return out;
}

/// True when range `q` implies range `v` (same column): every row passing q
/// passes v.
bool RangeImplies(const RangePredicate& q, const RangePredicate& v) {
  if (q.column != v.column) return false;
  int cmp = Value::Compare(q.literal, v.literal);
  switch (v.op) {
    case BinaryOp::kGt:
      return (q.op == BinaryOp::kGt && cmp >= 0) || (q.op == BinaryOp::kGe && cmp > 0) ||
             (q.op == BinaryOp::kEq && cmp > 0);
    case BinaryOp::kGe:
      return (q.op == BinaryOp::kGt && cmp >= 0) || (q.op == BinaryOp::kGe && cmp >= 0) ||
             (q.op == BinaryOp::kEq && cmp >= 0);
    case BinaryOp::kLt:
      return (q.op == BinaryOp::kLt && cmp <= 0) || (q.op == BinaryOp::kLe && cmp < 0) ||
             (q.op == BinaryOp::kEq && cmp < 0);
    case BinaryOp::kLe:
      return (q.op == BinaryOp::kLt && cmp <= 0) || (q.op == BinaryOp::kLe && cmp <= 0) ||
             (q.op == BinaryOp::kEq && cmp <= 0);
    case BinaryOp::kEq:
      return q.op == BinaryOp::kEq && cmp == 0;
    default:
      return false;
  }
}

/// Negation of a range predicate (complement filter for union rewrites).
ExprPtr ComplementRange(const ExprPtr& original) {
  auto e = CloneExpr(original);
  if (e->kind != ExprKind::kBinary) return nullptr;
  switch (e->bin_op) {
    case BinaryOp::kGt: e->bin_op = BinaryOp::kLe; break;
    case BinaryOp::kGe: e->bin_op = BinaryOp::kLt; break;
    case BinaryOp::kLt: e->bin_op = BinaryOp::kGe; break;
    case BinaryOp::kLe: e->bin_op = BinaryOp::kGt; break;
    default: return nullptr;
  }
  return e;
}

/// Rewrites an expression in query-global space into one over the MV's
/// output columns: subtrees whose digest equals an MV output expression's
/// digest become refs to that output. Returns nullptr when not expressible.
ExprPtr RewriteOverMv(const ExprPtr& e, const std::vector<std::string>& mv_digests,
                      const Schema& mv_table_schema) {
  std::string digest = e->ToString();
  for (size_t i = 0; i < mv_digests.size(); ++i) {
    if (digest == mv_digests[i]) {
      ExprPtr ref = MakeColumnRef("", mv_table_schema.field(i).name);
      ref->binding = static_cast<int>(i);
      ref->type = mv_table_schema.field(i).type;
      return ref;
    }
  }
  if (e->kind == ExprKind::kColumnRef || e->kind == ExprKind::kLiteral) {
    if (e->kind == ExprKind::kLiteral) return CloneExpr(e);
    return nullptr;
  }
  auto copy = std::make_shared<Expr>(*e);
  copy->children.clear();
  for (const ExprPtr& c : e->children) {
    ExprPtr r = RewriteOverMv(c, mv_digests, mv_table_schema);
    if (!r) return nullptr;
    copy->children.push_back(r);
  }
  return copy;
}

struct MvInfo {
  TableDesc desc;
  SpjaSummary summary;
  RelNodePtr plan;
  /// Digest (in MV-global space) of each MV table column's defining expr.
  std::vector<std::string> output_digests;
  /// For SPJA MVs: which agg (index into summary.aggs) each output is, or
  /// -1 when it is a group key / plain column.
  std::vector<int> output_agg;
};

/// Maps query-global bindings into MV-global space via table identity.
bool BuildGlobalMap(const SpjaSummary& query, const MvInfo& mv,
                    std::vector<int>* map) {
  if (query.scans.size() != mv.summary.scans.size()) return false;
  map->assign(query.total_columns, -1);
  for (size_t i = 0; i < query.scans.size(); ++i) {
    const std::string name = query.scans[i]->table.FullName();
    int match = -1;
    for (size_t j = 0; j < mv.summary.scans.size(); ++j)
      if (mv.summary.scans[j]->table.FullName() == name) match = static_cast<int>(j);
    if (match < 0) return false;
    size_t q_off = query.offsets[i];
    size_t v_off = mv.summary.offsets[match];
    size_t width = query.scans[i]->schema.num_fields();
    if (width != mv.summary.scans[match]->schema.num_fields()) return false;
    for (size_t c = 0; c < width; ++c)
      (*map)[q_off + c] = static_cast<int>(v_off + c);
  }
  return true;
}

void ApplyMap(const ExprPtr& e, const std::vector<int>& map, bool* ok) {
  if (!e || !*ok) return;
  if (e->kind == ExprKind::kColumnRef) {
    if (e->binding < 0 || static_cast<size_t>(e->binding) >= map.size() ||
        map[e->binding] < 0) {
      *ok = false;
      return;
    }
    e->binding = map[e->binding];
  }
  for (const ExprPtr& c : e->children) ApplyMap(c, map, ok);
}

}  // namespace

int LastMvRewriteCount() { return g_last_rewrite_count; }

Result<RelNodePtr> RewriteWithMaterializedViews(
    RelNodePtr plan, Catalog* catalog, const Config* config,
    const std::function<bool(const TableDesc&)>& usable) {
  g_last_rewrite_count = 0;
  std::vector<TableDesc> views = catalog->ListMaterializedViews();
  if (views.empty()) return plan;

  // Bind every usable view definition once.
  std::vector<MvInfo> infos;
  for (TableDesc& view : views) {
    if (usable && !usable(view)) continue;
    // The registrar (DDL layer / workload loader) stores the parsed
    // definition alongside the SQL text; a view without an AST predates the
    // field and simply never rewrites.
    if (!view.view_ast) continue;
    Binder binder(catalog, config, view.db);
    auto bound = binder.BindSelect(*view.view_ast);
    if (!bound.ok()) continue;
    RelNodePtr view_plan = FoldConstants(*bound);
    view_plan = PushDownFilters(view_plan);
    MvInfo info;
    info.desc = view;
    info.plan = view_plan;
    info.summary = Summarize(view_plan);
    if (!info.summary.valid) continue;
    // Output digests: expressions (in MV-global space) defining each MV
    // table column. With a top project, those are the project exprs with
    // aggregate refs expanded; otherwise the aggregate/join outputs.
    const SpjaSummary& s = info.summary;
    size_t n_out = view.schema.num_fields();
    bool ok = true;
    for (size_t i = 0; i < n_out && ok; ++i) {
      ExprPtr def;
      int agg_index = -1;
      if (s.has_project) {
        def = s.project_exprs[i];
        if (s.has_agg) {
          // Expand one level: project refs into the aggregate output.
          if (def->kind == ExprKind::kColumnRef) {
            int b = def->binding;
            if (b < static_cast<int>(s.group_keys.size())) {
              def = s.group_keys[b];
            } else {
              agg_index = b - static_cast<int>(s.group_keys.size());
              def = nullptr;
            }
          } else {
            ok = false;  // computed exprs over aggregates unsupported
          }
        }
      } else if (s.has_agg) {
        if (i < s.group_keys.size()) {
          def = s.group_keys[i];
        } else {
          agg_index = static_cast<int>(i - s.group_keys.size());
        }
      } else {
        ExprPtr ref = MakeColumnRef("", view.schema.field(i).name);
        ref->binding = static_cast<int>(i);
        def = ref;  // plain join-tree output column i (global ordinal i)
      }
      if (agg_index >= 0) {
        const AggCall& a = s.aggs[agg_index];
        std::string digest = a.func;
        digest += "|";
        digest += a.arg ? a.arg->ToString() : "*";
        info.output_digests.push_back("AGG:" + digest);
      } else if (def) {
        info.output_digests.push_back(def->ToString());
      } else {
        ok = false;
      }
      info.output_agg.push_back(agg_index);
    }
    if (!ok) continue;
    infos.push_back(std::move(info));
  }
  if (infos.empty()) return plan;

  // Bottom-up attempt on every node.
  std::function<RelNodePtr(RelNodePtr)> visit = [&](RelNodePtr node) -> RelNodePtr {
    for (RelNodePtr& input : node->inputs) input = visit(input);
    SpjaSummary query = Summarize(node);
    if (!query.valid) return node;
    // Only rewrite aggregate or projection roots (cost heuristics: the MV
    // must stand in for real work).
    if (!query.has_agg && !query.has_project) return node;

    for (const MvInfo& mv : infos) {
      std::vector<int> global_map;
      if (!BuildGlobalMap(query, mv, &global_map)) continue;

      // Map all query conjuncts into MV space.
      std::vector<ExprPtr> q_conjuncts;
      bool map_ok = true;
      for (const ExprPtr& c : query.conjuncts) {
        ExprPtr mapped = CloneExpr(c);
        ApplyMap(mapped, global_map, &map_ok);
        if (!map_ok) break;
        q_conjuncts.push_back(mapped);
      }
      if (!map_ok) continue;

      std::set<std::string> q_digests;
      for (const ExprPtr& c : q_conjuncts) q_digests.insert(ConjunctDigest(c));

      // Every MV conjunct must be implied by the query; at most one may be
      // implied only partially (union rewrite).
      ExprPtr widen_mv_conjunct;   // the MV conjunct the query widens
      bool containment_ok = true;
      for (const ExprPtr& vc : mv.summary.conjuncts) {
        std::string digest = ConjunctDigest(vc);
        if (q_digests.count(digest)) continue;
        RangePredicate v_range = ParseRange(vc);
        bool implied = false;
        bool widened = false;
        if (v_range.valid) {
          bool query_has_pred_on_col = false;
          for (const ExprPtr& qc : q_conjuncts) {
            RangePredicate q_range = ParseRange(qc);
            if (!q_range.valid || q_range.column != v_range.column) continue;
            query_has_pred_on_col = true;
            if (RangeImplies(q_range, v_range)) implied = true;
            // Query strictly wider (same direction, weaker bound)?
            if (!implied && RangeImplies(v_range, q_range)) widened = true;
          }
          if (!query_has_pred_on_col) widened = false;
        }
        if (implied) continue;
        if (widened && !widen_mv_conjunct) {
          widen_mv_conjunct = vc;
          continue;
        }
        containment_ok = false;
        break;
      }
      if (!containment_ok) continue;

      // Residual query conjuncts (everything not exactly an MV conjunct)
      // must be expressible over the MV outputs.
      std::set<std::string> v_digests;
      for (const ExprPtr& vc : mv.summary.conjuncts)
        v_digests.insert(ConjunctDigest(vc));
      std::vector<ExprPtr> residual;
      bool residual_ok = true;
      for (const ExprPtr& qc : q_conjuncts) {
        if (v_digests.count(ConjunctDigest(qc))) continue;
        ExprPtr rewritten = RewriteOverMv(qc, mv.output_digests, mv.desc.schema);
        if (!rewritten) {
          residual_ok = false;
          break;
        }
        residual.push_back(rewritten);
      }
      if (!residual_ok) continue;

      // Group keys and aggregates must roll up from MV outputs.
      std::vector<ExprPtr> new_keys;
      std::vector<AggCall> new_aggs;
      bool agg_ok = true;
      if (query.has_agg) {
        for (const ExprPtr& key : query.group_keys) {
          ExprPtr mapped = CloneExpr(key);
          ApplyMap(mapped, global_map, &agg_ok);
          if (!agg_ok) break;
          ExprPtr rewritten = RewriteOverMv(mapped, mv.output_digests, mv.desc.schema);
          if (!rewritten) {
            agg_ok = false;
            break;
          }
          new_keys.push_back(rewritten);
        }
        for (const AggCall& agg : query.aggs) {
          if (!agg_ok) break;
          AggCall rolled = agg;
          if (!RollsUp(agg)) {
            agg_ok = false;
            break;
          }
          ExprPtr mapped_arg = agg.arg ? CloneExpr(agg.arg) : nullptr;
          if (mapped_arg) ApplyMap(mapped_arg, global_map, &agg_ok);
          if (!agg_ok) break;
          if (mv.summary.has_agg) {
            // Roll up from a pre-aggregated MV column.
            std::string want = "AGG:" + agg.func + "|" +
                               (mapped_arg ? mapped_arg->ToString() : "*");
            int found = -1;
            for (size_t i = 0; i < mv.output_digests.size(); ++i)
              if (mv.output_digests[i] == want) found = static_cast<int>(i);
            if (found < 0) {
              agg_ok = false;
              break;
            }
            ExprPtr ref = MakeColumnRef("", mv.desc.schema.field(found).name);
            ref->binding = found;
            ref->type = mv.desc.schema.field(found).type;
            rolled = RollUp(agg, ref);
          } else {
            // SPJ MV: evaluate the aggregate over MV columns directly.
            if (mapped_arg) {
              ExprPtr rewritten =
                  RewriteOverMv(mapped_arg, mv.output_digests, mv.desc.schema);
              if (!rewritten) {
                agg_ok = false;
                break;
              }
              rolled.arg = rewritten;
            }
          }
          new_aggs.push_back(rolled);
        }
      }
      if (!agg_ok) continue;
      if (!query.has_agg) {
        // Pure projection query over an SPJ view: every output expr must be
        // expressible over the MV.
        if (mv.summary.has_agg) continue;
      }

      // Union rewrites only supported for aggregate queries here.
      if (widen_mv_conjunct && !query.has_agg) continue;

      // --- build the MV-part plan ---
      auto mv_scan = std::make_shared<RelNode>();
      mv_scan->kind = RelKind::kScan;
      mv_scan->table = mv.desc;
      mv_scan->scan_alias = mv.desc.name;
      for (size_t i = 0; i < mv.desc.schema.num_fields(); ++i) {
        mv_scan->projected.push_back(i);
        mv_scan->schema.AddField(mv.desc.schema.field(i).name,
                                 mv.desc.schema.field(i).type);
      }
      RelNodePtr mv_part = mv_scan;
      for (const ExprPtr& f : residual) mv_part = MakeFilter(mv_part, f);

      RelNodePtr replacement;
      if (!query.has_agg) {
        // Project query outputs over the MV.
        std::vector<ExprPtr> outs;
        std::vector<std::string> names;
        bool project_ok = true;
        for (size_t i = 0; i < query.output_schema.num_fields(); ++i) {
          ExprPtr src = query.has_project
                            ? query.project_exprs[i]
                            : [&] {
                                ExprPtr r = MakeColumnRef(
                                    "", query.output_schema.field(i).name);
                                r->binding = static_cast<int>(i);
                                r->type = query.output_schema.field(i).type;
                                return r;
                              }();
          ExprPtr mapped = CloneExpr(src);
          ApplyMap(mapped, global_map, &project_ok);
          if (!project_ok) break;
          ExprPtr rewritten = RewriteOverMv(mapped, mv.output_digests, mv.desc.schema);
          if (!rewritten) {
            project_ok = false;
            break;
          }
          outs.push_back(rewritten);
          names.push_back(query.output_schema.field(i).name);
        }
        if (!project_ok) continue;
        replacement = MakeProject(mv_part, outs, names);
      } else {
        auto agg_node = std::make_shared<RelNode>();
        agg_node->kind = RelKind::kAggregate;
        agg_node->group_keys = new_keys;
        agg_node->aggs = new_aggs;
        for (size_t i = 0; i < new_keys.size(); ++i)
          agg_node->schema.AddField("_k" + std::to_string(i), new_keys[i]->type);
        for (const AggCall& a : new_aggs)
          agg_node->schema.AddField(a.name, a.result_type);

        if (widen_mv_conjunct) {
          // Partial containment (Figure 4c): MV part handles rows within
          // the MV predicate; the complement comes from the source tables.
          ExprPtr complement = ComplementRange(widen_mv_conjunct);
          if (!complement) continue;
          // Pre-aggregate both branches to the same shape, then roll up.
          auto pre_mv = std::make_shared<RelNode>();
          pre_mv->kind = RelKind::kAggregate;
          pre_mv->group_keys = new_keys;
          pre_mv->aggs = new_aggs;
          pre_mv->schema = agg_node->schema;
          pre_mv->inputs = {mv_part};

          // Source branch: rebuild the original join tree with the
          // complement conjunct (complement is in MV-global space; map back
          // to query space via the inverse map).
          std::vector<int> inverse(mv.summary.total_columns, -1);
          for (size_t g = 0; g < global_map.size(); ++g)
            if (global_map[g] >= 0) inverse[global_map[g]] = static_cast<int>(g);
          ExprPtr comp_q = CloneExpr(complement);
          bool inv_ok = true;
          ApplyMap(comp_q, inverse, &inv_ok);
          if (!inv_ok) continue;
          // node is Aggregate(...) or Project(Aggregate(...)); insert the
          // complement filter directly above the original join tree.
          RelNodePtr source_tree =
              query.aggregate_node
                  ? RelNodePtr(query.aggregate_node->inputs[0])
                  : node->inputs[0];
          RelNodePtr source_branch = MakeFilter(source_tree, comp_q);
          auto pre_src = std::make_shared<RelNode>();
          pre_src->kind = RelKind::kAggregate;
          // Source branch aggregates use the ORIGINAL (query-space) keys
          // and aggs.
          pre_src->group_keys = query.group_keys;
          pre_src->aggs = query.aggs;
          pre_src->schema = agg_node->schema;
          pre_src->inputs = {source_branch};

          auto union_node = std::make_shared<RelNode>();
          union_node->kind = RelKind::kUnion;
          union_node->schema = agg_node->schema;
          union_node->inputs = {pre_mv, pre_src};

          // Final rollup over the union.
          auto rollup = std::make_shared<RelNode>();
          rollup->kind = RelKind::kAggregate;
          for (size_t i = 0; i < new_keys.size(); ++i) {
            ExprPtr ref = MakeColumnRef("", union_node->schema.field(i).name);
            ref->binding = static_cast<int>(i);
            ref->type = union_node->schema.field(i).type;
            rollup->group_keys.push_back(ref);
            rollup->schema.AddField("_k" + std::to_string(i), ref->type);
          }
          for (size_t j = 0; j < new_aggs.size(); ++j) {
            ExprPtr ref = MakeColumnRef("", union_node->schema.field(new_keys.size() + j).name);
            ref->binding = static_cast<int>(new_keys.size() + j);
            ref->type = union_node->schema.field(new_keys.size() + j).type;
            AggCall r = RollUp(new_aggs[j], ref);
            rollup->aggs.push_back(r);
            rollup->schema.AddField(r.name, r.result_type);
          }
          rollup->inputs = {union_node};
          replacement = rollup;
        } else {
          agg_node->inputs = {mv_part};
          replacement = agg_node;
          if (new_keys.empty() && mv.summary.has_agg) {
            // No MV row may pass the residual filters.
            std::vector<ExprPtr> values;
            std::vector<std::string> names;
            for (size_t j = 0; j < new_aggs.size(); ++j) {
              const Field& field = agg_node->schema.field(j);
              ExprPtr ref = MakeColumnRef("", field.name);
              ref->binding = static_cast<int>(j);
              ref->type = field.type;
              values.push_back(RolledUpValue(query.aggs[j], ref));
              names.push_back(field.name);
            }
            replacement = MakeProject(agg_node, std::move(values), std::move(names));
          }
        }

        // Re-apply the query's top projection over the new aggregate.
        if (query.has_project) {
          auto project = std::make_shared<RelNode>();
          project->kind = RelKind::kProject;
          project->exprs = query.project_exprs;  // bindings over (keys, aggs)
          project->schema = query.output_schema;
          project->inputs = {replacement};
          replacement = project;
        }
      }
      ++g_last_rewrite_count;
      return replacement;
    }
    return node;
  };

  return visit(std::move(plan));
}

}  // namespace hive
