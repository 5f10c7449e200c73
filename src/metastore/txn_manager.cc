#include "metastore/txn_manager.h"

#include <algorithm>

namespace hive {

int64_t TransactionManager::OpenTxn() {
  MutexLock lock(&mu_);
  int64_t id = next_txn_id_++;
  TxnInfo info;
  info.start_commit_seq = commit_seq_;
  txns_.emplace(id, std::move(info));
  return id;
}

Status TransactionManager::CommitTxn(int64_t txn_id) {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn_id));
  TxnInfo& txn = it->second;
  if (txn.state != TxnState::kOpen)
    return Status::InvalidArgument("txn not open: " + std::to_string(txn_id));

  // Optimistic conflict check: my update/delete resources vs update/deletes
  // committed after my start. First committer wins.
  for (const CommittedWrite& cw : committed_writes_) {
    if (cw.commit_seq <= txn.start_commit_seq) continue;
    for (const auto& [resource, kind] : txn.write_set) {
      if (kind != WriteOpKind::kUpdateDelete) continue;
      auto other = cw.write_set.find(resource);
      if (other != cw.write_set.end() && other->second == WriteOpKind::kUpdateDelete) {
        txn.state = TxnState::kAborted;
        ReleaseLocksLocked(txn_id);
        return Status::TxnAborted("write-write conflict on " + resource +
                                  " (first commit wins)");
      }
    }
  }

  txn.state = TxnState::kCommitted;
  if (!txn.write_set.empty())
    committed_writes_.push_back({++commit_seq_, txn.write_set});
  ReleaseLocksLocked(txn_id);
  return Status::OK();
}

Status TransactionManager::AbortTxn(int64_t txn_id) {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn_id));
  it->second.state = TxnState::kAborted;
  ReleaseLocksLocked(txn_id);
  return Status::OK();
}

bool TransactionManager::IsOpen(int64_t txn_id) const {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  return it != txns_.end() && it->second.state == TxnState::kOpen;
}

bool TransactionManager::IsAborted(int64_t txn_id) const {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  return it != txns_.end() && it->second.state == TxnState::kAborted;
}

TxnSnapshot TransactionManager::GetSnapshot() const {
  MutexLock lock(&mu_);
  TxnSnapshot snap;
  snap.high_watermark = next_txn_id_ - 1;
  for (const auto& [id, info] : txns_)
    if (info.state != TxnState::kCommitted) snap.open_or_aborted.insert(id);
  return snap;
}

Result<int64_t> TransactionManager::AllocateWriteId(int64_t txn_id,
                                                    const std::string& table) {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn_id));
  if (it->second.state != TxnState::kOpen)
    return Status::InvalidArgument("txn not open");
  auto existing = it->second.write_ids.find(table);
  if (existing != it->second.write_ids.end()) return existing->second;
  int64_t wid = ++next_write_id_[table];
  it->second.write_ids[table] = wid;
  table_write_ids_[table].push_back({txn_id, wid});
  return wid;
}

ValidWriteIdList TransactionManager::GetValidWriteIds(const std::string& table,
                                                      const TxnSnapshot& snapshot) const {
  MutexLock lock(&mu_);
  ValidWriteIdList out;
  auto it = table_write_ids_.find(table);
  if (it == table_write_ids_.end()) return out;  // hwm 0: nothing written
  for (const auto& [txn_id, wid] : it->second) {
    if (snapshot.Sees(txn_id)) {
      out.high_watermark = std::max(out.high_watermark, wid);
    }
  }
  // Exceptions: write ids at or below the hwm whose txn the snapshot does
  // not see (open or aborted at snapshot time, or started later). Every one
  // not aborted by now is flagged so the compactor never spans it: a txn
  // that was open at snapshot time may have committed since (the snapshot
  // and this call take the lock separately), and its rows must survive.
  for (const auto& [txn_id, wid] : it->second) {
    if (wid <= out.high_watermark && !snapshot.Sees(txn_id)) {
      out.exceptions.insert(wid);
      auto txn = txns_.find(txn_id);
      if (txn == txns_.end() || txn->second.state != TxnState::kAborted)
        out.open_writes.insert(wid);
    }
  }
  return out;
}

int64_t TransactionManager::TableWriteIdHighWatermark(const std::string& table) const {
  MutexLock lock(&mu_);
  auto it = next_write_id_.find(table);
  return it == next_write_id_.end() ? 0 : it->second;
}

Status TransactionManager::RecordWriteSet(int64_t txn_id, const std::string& resource,
                                          WriteOpKind kind) {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn_id));
  auto& entry = it->second.write_set[resource];
  if (kind == WriteOpKind::kUpdateDelete) entry = WriteOpKind::kUpdateDelete;
  return Status::OK();
}

Status TransactionManager::AcquireLock(int64_t txn_id, const std::string& resource,
                                       LockMode mode) {
  MutexLock lock(&mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::NotFound("txn " + std::to_string(txn_id));
  LockState& state = locks_[resource];
  if (state.exclusive_holder != -1 && state.exclusive_holder != txn_id)
    return Status::LockTimeout("resource locked exclusively: " + resource);
  if (mode == LockMode::kExclusive) {
    bool other_shared = std::any_of(
        state.shared_holders.begin(), state.shared_holders.end(),
        [txn_id](int64_t holder) { return holder != txn_id; });
    if (other_shared)
      return Status::LockTimeout("resource has shared holders: " + resource);
    state.exclusive_holder = txn_id;
  } else {
    state.shared_holders.insert(txn_id);
  }
  it->second.locks.insert(resource);
  return Status::OK();
}

void TransactionManager::ReleaseLocksLocked(int64_t txn_id) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  for (const std::string& resource : it->second.locks) {
    auto lit = locks_.find(resource);
    if (lit == locks_.end()) continue;
    if (lit->second.exclusive_holder == txn_id) lit->second.exclusive_holder = -1;
    lit->second.shared_holders.erase(txn_id);
    if (lit->second.exclusive_holder == -1 && lit->second.shared_holders.empty())
      locks_.erase(lit);
  }
  it->second.locks.clear();
}

int64_t TransactionManager::UpdateDeleteCount(const std::string& table) const {
  MutexLock lock(&mu_);
  int64_t count = 0;
  for (const CommittedWrite& cw : committed_writes_) {
    for (const auto& [resource, kind] : cw.write_set) {
      if (kind != WriteOpKind::kUpdateDelete) continue;
      if (resource == table || resource.rfind(table + "/", 0) == 0) ++count;
    }
  }
  return count;
}

size_t TransactionManager::NumAborted() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& [id, info] : txns_)
    if (info.state == TxnState::kAborted) ++n;
  return n;
}

}  // namespace hive
