#ifndef HIVE_METASTORE_COMPACTION_MANAGER_H_
#define HIVE_METASTORE_COMPACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/sync.h"
#include "metastore/catalog.h"
#include "metastore/txn_manager.h"

namespace hive {

/// Outcome of one compaction check, for observability/tests.
struct CompactionDecision {
  std::string location;
  enum class Action { kNone, kMinor, kMajor } action = Action::kNone;
  size_t delta_count = 0;
  double delta_ratio = 0.0;
};

/// Automatic compaction, triggered by HS2 after writes when thresholds are
/// surpassed (Section 3.2): the number of delta directories in a table, or
/// the ratio of delta bytes to base bytes. Merging requires no locks; the
/// cleaning phase runs separately so in-flight readers complete first.
class CompactionManager {
 public:
  CompactionManager(Catalog* catalog, TransactionManager* txns, const Config* config)
      : catalog_(catalog), txns_(txns), config_(config) {}

  /// Checks every location of `db.table` (all partitions for partitioned
  /// tables) and runs the indicated compactions followed by cleaning.
  Result<std::vector<CompactionDecision>> MaybeCompact(const std::string& db,
                                                       const std::string& table);

  /// Decision logic only, no side effects.
  Result<CompactionDecision> Evaluate(const std::string& location,
                                      const ValidWriteIdList& snapshot) const;

  /// Marks a reader (query scan) as in flight. While any reader is active,
  /// compactions still merge but their cleaning is deferred, so scans never
  /// observe a delta directory vanishing mid-read.
  void BeginRead() { active_readers_.fetch_add(1, std::memory_order_acq_rel); }

  /// Ends a reader scope; the last reader out flushes deferred cleans.
  void EndRead() {
    if (active_readers_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      FlushPendingCleans();
  }

  /// RAII reader scope for the server's scan paths.
  class ReadScope {
   public:
    explicit ReadScope(CompactionManager* mgr) : mgr_(mgr) { mgr_->BeginRead(); }
    ~ReadScope() { mgr_->EndRead(); }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;

   private:
    CompactionManager* mgr_;
  };

  /// Deletes directories superseded by earlier compactions, provided no
  /// reader is active. Safe to call at any time.
  void FlushPendingCleans();

  /// Called with the superseded directories a clean deleted (the server
  /// drops their cached chunks). Set before the first write.
  void set_clean_listener(
      std::function<void(const std::vector<std::string>& dirs)> listener) {
    clean_listener_ = std::move(listener);
  }

  int64_t compactions_run() const { return compactions_run_.load(); }
  size_t pending_cleans() const {
    MutexLock lock(&compact_mu_);
    return pending_cleans_.size();
  }

 private:
  /// A cleaning pass postponed because readers were in flight when its
  /// compaction committed.
  struct PendingClean {
    std::string location;
    Schema schema;
    ValidWriteIdList snapshot;
  };

  Status CompactLocation(const std::string& location, const Schema& schema,
                         const ValidWriteIdList& snapshot,
                         CompactionDecision* decision);
  /// Deletes the directories `snapshot` makes obsolete under `location`,
  /// then tells the clean listener which ones went.
  Status Clean(const std::string& location, const Schema& schema,
               const ValidWriteIdList& snapshot);
  void FlushPendingCleansLocked() HIVE_REQUIRES(compact_mu_);

  Catalog* catalog_;
  TransactionManager* txns_;
  const Config* config_;
  /// Serializes compaction runs: concurrent post-write triggers on the same
  /// table must not interleave merge and clean phases (a second compactor
  /// could list delta directories the first one is about to delete).
  mutable Mutex compact_mu_{"compaction.mu"};
  std::vector<PendingClean> pending_cleans_ HIVE_GUARDED_BY(compact_mu_);
  std::atomic<int64_t> active_readers_{0};
  std::atomic<int64_t> compactions_run_{0};
  std::function<void(const std::vector<std::string>& dirs)> clean_listener_;
};

}  // namespace hive

#endif  // HIVE_METASTORE_COMPACTION_MANAGER_H_
