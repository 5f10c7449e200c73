#include "metastore/compaction_manager.h"

namespace hive {

Result<CompactionDecision> CompactionManager::Evaluate(
    const std::string& location, const ValidWriteIdList& snapshot) const {
  CompactionDecision decision;
  decision.location = location;
  HIVE_ASSIGN_OR_RETURN(AcidDirSelection sel,
                        SelectAcidDirs(catalog_->filesystem(), location, snapshot));
  decision.delta_count = sel.deltas.size() + sel.delete_deltas.size();

  uint64_t base_bytes = 0, delta_bytes = 0;
  auto dir_bytes = [&](const std::string& dir) -> uint64_t {
    auto files = catalog_->filesystem()->ListDir(dir);
    uint64_t total = 0;
    if (files.ok())
      for (const FileInfo& f : *files)
        if (!f.is_dir) total += f.size;
    return total;
  };
  if (sel.base) base_bytes = dir_bytes(sel.base->path);
  for (const AcidDirInfo& d : sel.deltas) delta_bytes += dir_bytes(d.path);
  for (const AcidDirInfo& d : sel.delete_deltas) delta_bytes += dir_bytes(d.path);
  decision.delta_ratio =
      base_bytes == 0 ? (delta_bytes > 0 ? 1.0 : 0.0)
                      : static_cast<double>(delta_bytes) / static_cast<double>(base_bytes);

  // Major when deltas are large relative to the base (or no base exists yet
  // and enough deltas piled up); minor when many small deltas accumulated.
  if (decision.delta_ratio >= config_->compaction_ratio_threshold &&
      decision.delta_count >= 2 &&
      (sel.base || decision.delta_count >=
                       static_cast<size_t>(config_->compaction_delta_threshold))) {
    decision.action = CompactionDecision::Action::kMajor;
  } else if (decision.delta_count >=
             static_cast<size_t>(config_->compaction_delta_threshold)) {
    decision.action = CompactionDecision::Action::kMinor;
  }
  return decision;
}

Status CompactionManager::CompactLocation(const std::string& location,
                                          const Schema& schema,
                                          const ValidWriteIdList& snapshot,
                                          CompactionDecision* decision) {
  Compactor compactor(catalog_->filesystem(), location, schema);
  switch (decision->action) {
    case CompactionDecision::Action::kMinor:
      HIVE_RETURN_IF_ERROR(compactor.RunMinor(snapshot));
      break;
    case CompactionDecision::Action::kMajor:
      HIVE_RETURN_IF_ERROR(compactor.RunMajor(snapshot));
      break;
    case CompactionDecision::Action::kNone:
      return Status::OK();
  }
  compactions_run_.fetch_add(1, std::memory_order_relaxed);
  // Cleaning is a separate phase: a scan that started before this compaction
  // may still be reading the superseded directories, so deletion waits until
  // the last in-flight reader drains. New readers are unaffected either way —
  // they select the freshly written base/delta.
  if (active_readers_.load(std::memory_order_acquire) > 0) {
    pending_cleans_.push_back({location, schema, snapshot});
    return Status::OK();
  }
  return Clean(location, schema, snapshot);
}

Status CompactionManager::Clean(const std::string& location, const Schema& schema,
                                const ValidWriteIdList& snapshot) {
  std::vector<std::string> deleted;
  Status status =
      Compactor(catalog_->filesystem(), location, schema).Clean(snapshot, &deleted);
  // A partial clean still reports the directories it did delete.
  if (clean_listener_ && !deleted.empty()) clean_listener_(deleted);
  return status;
}

void CompactionManager::FlushPendingCleans() {
  MutexLock lock(&compact_mu_);
  FlushPendingCleansLocked();
}

void CompactionManager::FlushPendingCleansLocked() {
  if (active_readers_.load(std::memory_order_acquire) > 0) return;
  // A clean that fails (e.g. a transient delete error) stays queued for the
  // next flush instead of being forgotten — dropping it would leak the
  // superseded directories until some later compaction of the same
  // location. kNotFound counts as done: the table (and its directories) was
  // dropped while the clean was pending.
  std::vector<PendingClean> still_pending;
  for (PendingClean& pending : pending_cleans_) {
    Status clean = Clean(pending.location, pending.schema, pending.snapshot);
    if (!clean.ok() && !clean.IsNotFound())
      still_pending.push_back(std::move(pending));
  }
  pending_cleans_ = std::move(still_pending);
}

Result<std::vector<CompactionDecision>> CompactionManager::MaybeCompact(
    const std::string& db, const std::string& table) {
  HIVE_ASSIGN_OR_RETURN(TableDesc desc, catalog_->GetTable(db, table));
  if (!desc.is_acid) return std::vector<CompactionDecision>{};
  // One compaction at a time: post-write triggers arrive from every session.
  MutexLock lock(&compact_mu_);
  FlushPendingCleansLocked();
  // Compact only fully-committed history: snapshot from the txn manager.
  TxnSnapshot txn_snap = txns_->GetSnapshot();
  ValidWriteIdList snapshot = txns_->GetValidWriteIds(desc.FullName(), txn_snap);

  std::vector<std::string> locations;
  if (desc.IsPartitioned()) {
    HIVE_ASSIGN_OR_RETURN(std::vector<PartitionInfo> parts,
                          catalog_->GetPartitions(db, table));
    for (const PartitionInfo& p : parts) locations.push_back(p.location);
  } else {
    locations.push_back(desc.location);
  }

  std::vector<CompactionDecision> decisions;
  for (const std::string& location : locations) {
    HIVE_ASSIGN_OR_RETURN(CompactionDecision decision, Evaluate(location, snapshot));
    if (decision.action != CompactionDecision::Action::kNone)
      HIVE_RETURN_IF_ERROR(CompactLocation(location, desc.schema, snapshot, &decision));
    decisions.push_back(decision);
  }
  return decisions;
}

}  // namespace hive
