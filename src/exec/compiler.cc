#include "exec/compiler.h"

#include <algorithm>
#include <map>

#include "exec/parallel_scan.h"

namespace hive {

namespace {

/// The one wrapper around a compiled operator. With a profile node it
/// records the operator's execution span (rows/batches out, inclusive wall +
/// virtual time, memory estimate), which EXPLAIN ANALYZE renders; with a
/// digest it records the rows the operator produced under that plan-node
/// digest into RuntimeStats when it closes, which feeds re-optimization
/// (Section 4.2). A spool's source carries only the digest and its readers
/// only the profile node, so a shared subtree is recorded once.
class ProfilingOperator : public Operator {
 public:
  ProfilingOperator(ExecContext* ctx, OperatorPtr child,
                    obs::OperatorProfileNodePtr node, std::string digest)
      : Operator(ctx),
        child_(std::move(child)),
        node_(std::move(node)),
        digest_(std::move(digest)) {}

  Status Open() override {
    Span span(this);
    return child_->Open();
  }

  Result<RowBatch> Next(bool* done) override {
    Span span(this);
    auto batch = child_->Next(done);
    if (batch.ok() && !*done) {
      int64_t rows = static_cast<int64_t>(batch->SelectedSize());
      rows_ += rows;
      if (node_) {
        ++node_->batches;
        node_->rows_out += rows;
        uint64_t bytes = batch->ByteSize();
        node_->bytes_out += bytes;
        max_batch_bytes_ = std::max(max_batch_bytes_, bytes);
        // Streaming operators hold one batch at a time; blocking operators
        // materialized everything they emitted.
        node_->peak_mem_bytes = node_->blocking ? node_->bytes_out : max_batch_bytes_;
      }
    }
    return batch;
  }

  Status Close() override {
    Span span(this);
    if (!digest_.empty() && ctx_->runtime_stats) ctx_->runtime_stats->Record(digest_, rows_);
    return child_->Close();
  }

  const Schema& schema() const override { return child_->schema(); }

 private:
  /// RAII span: accumulates the call's wall + virtual (SimClock) time into
  /// the node, if there is one. Times are inclusive of children; the tree
  /// subtracts.
  class Span {
   public:
    explicit Span(ProfilingOperator* op) : op_(op) {
      if (!op_->node_) return;
      wall0_ = SimClock::WallMicros();
      virt0_ = op_->ctx_->clock ? op_->ctx_->clock->virtual_us() : 0;
    }
    ~Span() {
      if (!op_->node_) return;
      op_->node_->wall_us += SimClock::WallMicros() - wall0_;
      if (op_->ctx_->clock)
        op_->node_->virtual_us += op_->ctx_->clock->virtual_us() - virt0_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    ProfilingOperator* op_;
    int64_t wall0_ = 0;
    int64_t virt0_ = 0;
  };

  OperatorPtr child_;
  obs::OperatorProfileNodePtr node_;
  std::string digest_;
  int64_t rows_ = 0;
  uint64_t max_batch_bytes_ = 0;
};

const char* JoinTypeName(TableRef::JoinType t) {
  switch (t) {
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

/// Fills a profile node's static identity from the plan node it profiles.
void LabelProfileNode(const RelNode& rel, obs::OperatorProfileNode* node) {
  switch (rel.kind) {
    case RelKind::kScan:
      node->name = "Scan";
      node->detail = rel.table.FullName();
      if (!rel.table.storage_handler.empty())
        node->detail += "@" + rel.table.storage_handler;
      break;
    case RelKind::kValues:
      node->name = "Values";
      break;
    case RelKind::kFilter:
      node->name = "Filter";
      break;
    case RelKind::kProject:
      node->name = "Project";
      break;
    case RelKind::kJoin:
      node->name = "HashJoin";
      node->detail = JoinTypeName(rel.join_type);
      node->blocking = true;
      break;
    case RelKind::kAggregate:
      node->name = "HashAgg";
      node->detail = "keys=" + std::to_string(rel.group_keys.size()) +
                     ",aggs=" + std::to_string(rel.aggs.size());
      node->blocking = true;
      break;
    case RelKind::kWindow:
      node->name = "Window";
      node->blocking = true;
      break;
    case RelKind::kSort:
      node->name = "Sort";
      node->blocking = true;
      break;
    case RelKind::kLimit:
      node->name = "Limit";
      break;
    case RelKind::kUnion:
      node->name = "UnionAll";
      break;
    case RelKind::kMinus:
      node->name = "Except";
      node->blocking = true;
      break;
    case RelKind::kIntersect:
      node->name = "Intersect";
      node->blocking = true;
      break;
  }
}

class Compiler {
 public:
  explicit Compiler(ExecContext* ctx) : ctx_(ctx) {}

  Result<OperatorPtr> Compile(const RelNodePtr& plan) {
    if (ctx_->config->shared_work_enabled) CountDigests(plan);
    return CompileNode(plan);
  }

 private:
  /// Digest of a scan ignoring its pushed-down filters: scans of the same
  /// table/columns that differ only in residual predicates share one
  /// physical read, with each consumer re-applying its own filters above
  /// the spool (the "merge scans, diverge later" shape of Section 4.5).
  static std::string BareScanDigest(const RelNode& scan) {
    RelNode bare = scan;
    bare.scan_filters.clear();
    bare.semijoin_reducers.clear();
    return bare.Digest();
  }

  void CountDigests(const RelNodePtr& node) {
    // Only count subtrees that are worth spooling (contain a scan and are
    // below blocking operators in size). A repeat reads the first copy's
    // spool and never runs its inputs, so only the first copy counts them:
    // a subtree repeated only inside repeats stays private, and can run as
    // a parallel pipeline.
    if (node->kind == RelKind::kScan || node->kind == RelKind::kFilter ||
        node->kind == RelKind::kProject || node->kind == RelKind::kJoin ||
        node->kind == RelKind::kAggregate) {
      if (++digest_counts_[node->Digest()] > 1) return;
    }
    if (node->kind == RelKind::kScan && node->table.storage_handler.empty())
      ++bare_scan_counts_[BareScanDigest(*node)];
    for (const RelNodePtr& input : node->inputs) CountDigests(input);
    // Semijoin-reducer build plans execute too; count them so a build plan
    // equal to a main-plan subtree shares its spool.
    if (node->kind == RelKind::kScan)
      for (const SemiJoinReducer& r : node->semijoin_reducers)
        CountDigests(r.build_plan);
  }

  /// Compiles `node` and wraps the operator in its one ProfilingOperator:
  /// with a span node when the context carries a profile (the subtree's
  /// spans attach under it), and with the digest its runtime stats record
  /// under, if the operator computes the node itself.
  Result<OperatorPtr> CompileNode(const RelNodePtr& node) {
    obs::OperatorProfileNodePtr pnode;
    obs::OperatorProfileNode* parent = profile_parent_;
    if (ctx_->profile) {
      pnode = std::make_shared<obs::OperatorProfileNode>();
      LabelProfileNode(*node, pnode.get());
      if (parent)
        parent->children.push_back(pnode);
      else
        ctx_->profile->AttachRoot(pnode);
      profile_parent_ = pnode.get();
    }
    std::string digest;
    auto op = CompileNodeImpl(node, &digest);
    profile_parent_ = parent;
    if (!op.ok() || (!pnode && digest.empty())) return op;
    return OperatorPtr(std::make_unique<ProfilingOperator>(ctx_, std::move(*op),
                                                           std::move(pnode),
                                                           std::move(digest)));
  }

  /// Sets *stats_digest when the returned operator computes `node` and so
  /// records its row count (CompileBare).
  Result<OperatorPtr> CompileNodeImpl(const RelNodePtr& node, std::string* stats_digest) {
    // Shared work: reuse a spool for repeated subtrees.
    std::string digest;
    bool spoolable = false;
    if (ctx_->config->shared_work_enabled &&
        (node->kind == RelKind::kScan || node->kind == RelKind::kFilter ||
         node->kind == RelKind::kProject || node->kind == RelKind::kJoin ||
         node->kind == RelKind::kAggregate)) {
      digest = node->Digest();
      auto it = digest_counts_.find(digest);
      spoolable = it != digest_counts_.end() && it->second > 1;
    }
    if (spoolable) {
      auto spool = spools_.find(digest);
      if (spool != spools_.end()) {
        RelabelProfile("Spool", "shared:" + ProfileDetail());
        return OperatorPtr(
            std::make_unique<SpoolOperator>(ctx_, spool->second, node->schema));
      }
      // The source records the subtree's runtime stats, once; the readers
      // only replay its batches.
      std::string source_digest;
      HIVE_ASSIGN_OR_RETURN(OperatorPtr source, CompileBare(node, &source_digest));
      if (!source_digest.empty())
        source = std::make_unique<ProfilingOperator>(ctx_, std::move(source), nullptr,
                                                     std::move(source_digest));
      auto state = std::make_shared<SpoolState>();
      state->source = std::move(source);
      spools_[digest] = state;
      AnnotateProfile("spooled");
      return OperatorPtr(std::make_unique<SpoolOperator>(ctx_, state, node->schema));
    }
    // Scan-merge sharing: identical scans that differ only in pushed-down
    // filters read the table once through a spool; each consumer applies
    // its own filters on top.
    if (ctx_->config->shared_work_enabled && node->kind == RelKind::kScan &&
        node->table.storage_handler.empty() && node->semijoin_reducers.empty() &&
        !node->scan_filters.empty()) {
      std::string bare_digest = BareScanDigest(*node);
      auto it = bare_scan_counts_.find(bare_digest);
      if (it != bare_scan_counts_.end() && it->second > 1) {
        auto spool = spools_.find(bare_digest);
        std::shared_ptr<SpoolState> state;
        if (spool != spools_.end()) {
          state = spool->second;
        } else {
          auto bare = std::make_shared<RelNode>(*node);
          bare->scan_filters.clear();
          state = std::make_shared<SpoolState>();
          state->source = std::make_unique<ScanOperator>(ctx_, *bare);
          spools_[bare_digest] = state;
        }
        AnnotateProfile("merged-scan");
        OperatorPtr op = std::make_unique<SpoolOperator>(ctx_, state, node->schema);
        for (const ExprPtr& filter : node->scan_filters)
          op = std::make_unique<FilterOperator>(ctx_, std::move(op), filter);
        return op;
      }
    }
    return CompileBare(node, stats_digest);
  }

  /// Current profile node's detail (empty when profiling is off).
  std::string ProfileDetail() const {
    return profile_parent_ ? profile_parent_->detail : std::string();
  }

  /// Appends a tag to the current profile node's detail.
  void AnnotateProfile(const std::string& tag) {
    if (!profile_parent_) return;
    if (!profile_parent_->detail.empty()) profile_parent_->detail += ",";
    profile_parent_->detail += tag;
  }

  /// Rewrites the current profile node's identity (parallel pipelines
  /// replace a whole scan->filter->project chain with one operator).
  void RelabelProfile(const std::string& name, const std::string& detail) {
    if (!profile_parent_) return;
    profile_parent_->name = name;
    profile_parent_->detail = detail;
  }

  /// Morsel-driven parallelism is available outside MR mode (MapReduce
  /// models one task per containerized stage, not intra-fragment threads).
  bool ParallelEligible() const {
    return ctx_->config->parallel_scan_enabled &&
           ctx_->mode != RuntimeMode::kMapReduce;
  }

  bool IsSpooled(const RelNodePtr& node) const {
    if (!ctx_->config->shared_work_enabled) return false;
    auto it = digest_counts_.find(node->Digest());
    return it != digest_counts_.end() && it->second > 1;
  }

  /// Matches the scan-merge sharing condition of CompileNode: such scans
  /// must reach the spool path, not the parallel one.
  bool IsMergedScan(const RelNodePtr& scan) const {
    if (!ctx_->config->shared_work_enabled || !scan->semijoin_reducers.empty() ||
        scan->scan_filters.empty())
      return false;
    auto it = bare_scan_counts_.find(BareScanDigest(*scan));
    return it != bare_scan_counts_.end() && it->second > 1;
  }

  /// Collects `node` into a parallel leaf pipeline (native scan + stacked
  /// filter/project stages) when the whole chain is private — any node that
  /// participates in shared-work spooling keeps the serial operators so the
  /// spool machinery stays in charge.
  bool CollectPipeline(const RelNodePtr& node, ParallelPipelineSpec* spec) {
    if (!ParallelEligible()) return false;
    RelNodePtr cur = node;
    std::vector<RelNodePtr> stages;
    while (cur->kind == RelKind::kFilter || cur->kind == RelKind::kProject) {
      if (IsSpooled(cur)) return false;
      stages.push_back(cur);
      cur = cur->inputs[0];
    }
    if (cur->kind != RelKind::kScan || !cur->table.storage_handler.empty())
      return false;
    if (IsSpooled(cur) || IsMergedScan(cur)) return false;
    spec->scan = cur;
    std::reverse(stages.begin(), stages.end());
    spec->stages = std::move(stages);
    return true;
  }

  /// Builds the physical join for (left_rel JOIN right_rel): perfect-hash
  /// hint from plan-time key-shape analysis, morsel-parallel probe when the
  /// probe side collapses into a parallel leaf pipeline, serial hash join
  /// otherwise. `join_type` and `condition` are already normalized (right
  /// joins arrive as left joins over swapped inputs).
  Result<OperatorPtr> CompileJoin(const RelNodePtr& left_rel,
                                  const RelNodePtr& right_rel,
                                  TableRef::JoinType join_type, ExprPtr condition,
                                  const Schema& out_schema) {
    bool perfect_hint =
        ctx_->config->perfect_hash_join_enabled &&
        HashJoinCore::PerfectHashEligible(
            condition, static_cast<int>(left_rel->schema.num_fields()));
    ParallelPipelineSpec spec;
    if (ctx_->config->parallel_join_enabled && CollectPipeline(left_rel, &spec)) {
      HIVE_ASSIGN_OR_RETURN(OperatorPtr build, CompileNode(right_rel));
      AnnotateProfile("parallel");
      auto join = std::make_unique<ParallelHashJoinOperator>(
          ctx_, std::move(spec), std::move(build), join_type, std::move(condition),
          out_schema);
      join->core()->set_perfect_hash_hint(perfect_hint);
      join->core()->set_profile_node(profile_parent_);
      return OperatorPtr(std::move(join));
    }
    HIVE_ASSIGN_OR_RETURN(OperatorPtr left, CompileNode(left_rel));
    HIVE_ASSIGN_OR_RETURN(OperatorPtr right, CompileNode(right_rel));
    auto join = std::make_unique<HashJoinOperator>(ctx_, std::move(left),
                                                   std::move(right), join_type,
                                                   std::move(condition), out_schema);
    join->core()->set_perfect_hash_hint(perfect_hint);
    join->core()->set_profile_node(profile_parent_);
    return OperatorPtr(std::move(join));
  }

  /// Sets *stats_digest to node->Digest() when the returned operator's
  /// output is the node's row count for re-optimization: scans, filters,
  /// joins and aggregates. A parallel pipeline's workers record its scan
  /// and filter stages themselves.
  Result<OperatorPtr> CompileBare(const RelNodePtr& node, std::string* stats_digest) {
    switch (node->kind) {
      case RelKind::kScan:
      case RelKind::kFilter:
      case RelKind::kProject: {
        // Parallel leaf pipeline: the gather operator records scan/filter
        // stats from its workers, so no digest here.
        ParallelPipelineSpec spec;
        if (CollectPipeline(node, &spec)) {
          // The whole scan->filter->project chain collapses into one
          // morsel-parallel operator; the span follows suit.
          RelabelProfile("ParallelScan", spec.scan->table.FullName());
          if (profile_parent_) profile_parent_->blocking = true;
          return OperatorPtr(
              std::make_unique<ParallelScanOperator>(ctx_, std::move(spec)));
        }
        break;
      }
      default:
        break;
    }
    switch (node->kind) {
      case RelKind::kScan: {
        if (!node->table.storage_handler.empty()) {
          if (!ctx_->external_scan_factory)
            return Status::NotSupported("no storage handler registered for " +
                                        node->table.storage_handler);
          return ctx_->external_scan_factory(*node);
        }
        *stats_digest = node->Digest();
        return OperatorPtr(std::make_unique<ScanOperator>(ctx_, *node));
      }
      case RelKind::kValues:
        return OperatorPtr(std::make_unique<ValuesOperator>(ctx_, *node));
      case RelKind::kFilter: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        *stats_digest = node->Digest();
        return OperatorPtr(
            std::make_unique<FilterOperator>(ctx_, std::move(child), node->predicate));
      }
      case RelKind::kProject: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        return OperatorPtr(std::make_unique<ProjectOperator>(
            ctx_, std::move(child), node->exprs, node->schema));
      }
      case RelKind::kJoin: {
        if (node->join_type == TableRef::JoinType::kRight) {
          // Normalize: right join == left join with swapped inputs plus an
          // output permutation.
          size_t lw = node->inputs[0]->schema.num_fields();
          size_t rw = node->inputs[1]->schema.num_fields();
          // Rebind the condition into (right, left) order.
          ExprPtr condition = CloneExpr(node->condition);
          std::vector<int> mapping(lw + rw);
          for (size_t i = 0; i < lw; ++i) mapping[i] = static_cast<int>(rw + i);
          for (size_t j = 0; j < rw; ++j) mapping[lw + j] = static_cast<int>(j);
          RemapBindings(condition, mapping);
          Schema swapped;
          for (const Field& f : node->inputs[1]->schema.fields())
            swapped.AddField(f.name, f.type);
          for (const Field& f : node->inputs[0]->schema.fields())
            swapped.AddField(f.name, f.type);
          HIVE_ASSIGN_OR_RETURN(
              OperatorPtr join,
              CompileJoin(node->inputs[1], node->inputs[0],
                          TableRef::JoinType::kLeft, condition, swapped));
          // Permute back to (left, right).
          std::vector<ExprPtr> exprs;
          for (size_t i = 0; i < lw + rw; ++i) {
            size_t src = i < lw ? rw + i : i - lw;
            ExprPtr ref = MakeColumnRef("", swapped.field(src).name);
            ref->binding = static_cast<int>(src);
            ref->type = swapped.field(src).type;
            exprs.push_back(ref);
          }
          return OperatorPtr(std::make_unique<ProjectOperator>(
              ctx_, std::move(join), std::move(exprs), node->schema));
        }
        *stats_digest = node->Digest();
        return CompileJoin(node->inputs[0], node->inputs[1], node->join_type,
                           node->condition, node->schema);
      }
      case RelKind::kAggregate: {
        // Scan -> filter/project -> partial aggregate: fold morsels into
        // per-worker states and merge, instead of aggregating a gathered
        // stream. Workers record the scan/filter stats; the digest here
        // covers only the aggregate node itself.
        ParallelPipelineSpec spec;
        if (CollectPipeline(node->inputs[0], &spec)) {
          RelabelProfile(
              "ParallelAgg",
              spec.scan->table.FullName() + ",keys=" +
                  std::to_string(node->group_keys.size()) + ",aggs=" +
                  std::to_string(node->aggs.size()));
          if (profile_parent_) profile_parent_->blocking = true;
          auto op = std::make_unique<ParallelAggregateOperator>(
              ctx_, std::move(spec), node->group_keys, node->aggs, node->schema);
          op->set_profile_node(profile_parent_);
          *stats_digest = node->Digest();
          return OperatorPtr(std::move(op));
        }
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        auto op = std::make_unique<HashAggregateOperator>(
            ctx_, std::move(child), node->group_keys, node->aggs, node->schema);
        op->set_profile_node(profile_parent_);
        *stats_digest = node->Digest();
        return OperatorPtr(std::move(op));
      }
      case RelKind::kWindow: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        return OperatorPtr(std::make_unique<WindowOperator>(
            ctx_, std::move(child), node->window_calls, node->schema));
      }
      case RelKind::kSort: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        auto op = std::make_unique<SortOperator>(ctx_, std::move(child),
                                                 node->sort_keys, node->limit);
        op->set_profile_node(profile_parent_);
        return OperatorPtr(std::move(op));
      }
      case RelKind::kLimit: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(node->inputs[0]));
        return OperatorPtr(
            std::make_unique<LimitOperator>(ctx_, std::move(child), node->limit));
      }
      case RelKind::kUnion: {
        std::vector<OperatorPtr> children;
        for (const RelNodePtr& input : node->inputs) {
          HIVE_ASSIGN_OR_RETURN(OperatorPtr child, CompileNode(input));
          children.push_back(std::move(child));
        }
        return OperatorPtr(std::make_unique<UnionOperator>(ctx_, std::move(children),
                                                           node->schema));
      }
      case RelKind::kMinus:
      case RelKind::kIntersect: {
        HIVE_ASSIGN_OR_RETURN(OperatorPtr left, CompileNode(node->inputs[0]));
        HIVE_ASSIGN_OR_RETURN(OperatorPtr right, CompileNode(node->inputs[1]));
        return OperatorPtr(std::make_unique<SetOpOperator>(
            ctx_, std::move(left), std::move(right),
            node->kind == RelKind::kIntersect));
      }
    }
    return Status::Internal("unknown plan node kind");
  }

  ExecContext* ctx_;
  /// Span node currently being compiled into; children attach here. Null
  /// when profiling is off or at the root of a plan.
  obs::OperatorProfileNode* profile_parent_ = nullptr;
  std::map<std::string, int> digest_counts_;
  std::map<std::string, int> bare_scan_counts_;
  std::map<std::string, std::shared_ptr<SpoolState>> spools_;
};

}  // namespace

Result<OperatorPtr> CompilePlan(ExecContext* ctx, const RelNodePtr& plan) {
  if (!ctx->compile_subplan) {
    ctx->compile_subplan = [ctx](const RelNodePtr& subplan) {
      return CompilePlan(ctx, subplan);
    };
  }
  Compiler compiler(ctx);
  return compiler.Compile(plan);
}

}  // namespace hive
