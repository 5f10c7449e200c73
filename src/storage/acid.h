#ifndef HIVE_STORAGE_ACID_H_
#define HIVE_STORAGE_ACID_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/column_vector.h"
#include "fs/filesystem.h"
#include "storage/chunk_provider.h"
#include "storage/cof.h"
#include "storage/sarg.h"

namespace hive {

/// Snapshot of valid write ids for one table, derived by the transaction
/// manager from the global transaction list (Section 3.2). Readers skip rows
/// whose WriteId is above the high watermark or belongs to an open/aborted
/// transaction.
struct ValidWriteIdList {
  int64_t high_watermark = 0;
  /// WriteIds <= high_watermark that are open or aborted.
  std::set<int64_t> exceptions;
  /// The subset of `exceptions` not known to be aborted: transactions still
  /// open, or committed after the snapshot was taken. Readers treat both
  /// alike; the compactor must never produce a base/delta whose range spans
  /// one of these ids (its data would be orphaned when the transaction
  /// commits), while only aborted ids are safe to compact away — that is
  /// how "major compaction deletes history".
  std::set<int64_t> open_writes;

  bool IsValid(int64_t write_id) const {
    return write_id <= high_watermark && exceptions.count(write_id) == 0;
  }
  /// True when every id in [lo, hi] is valid (needed for compacted deltas).
  bool IsRangeValid(int64_t lo, int64_t hi) const {
    if (hi > high_watermark) return false;
    auto it = exceptions.lower_bound(lo);
    return it == exceptions.end() || *it > hi;
  }
  /// A snapshot that sees everything up to `hwm` (tests / non-ACID paths).
  static ValidWriteIdList All(int64_t hwm = INT64_MAX) { return {hwm, {}, {}}; }

  std::string ToString() const;
};

/// Kinds of ACID directories inside a table/partition location (Figure 3).
enum class AcidDirKind { kBase, kDelta, kDeleteDelta, kOther };

/// Parsed "base_100" / "delta_101_105" / "delete_delta_103_103" name.
struct AcidDirInfo {
  AcidDirKind kind = AcidDirKind::kOther;
  int64_t min_write_id = 0;
  int64_t max_write_id = 0;
  std::string path;
};

/// Formats/parses ACID directory names.
std::string BaseDirName(int64_t write_id);
std::string DeltaDirName(int64_t min_write_id, int64_t max_write_id);
std::string DeleteDeltaDirName(int64_t min_write_id, int64_t max_write_id);
AcidDirInfo ParseAcidDirName(const std::string& path);

/// Hidden ACID metadata columns embedded as the leading columns of every
/// ACID file; (writeid, bucket, rowid) uniquely identifies a record.
inline constexpr const char* kAcidWriteIdCol = "_acid_write_id";
inline constexpr const char* kAcidBucketCol = "_acid_bucket";
inline constexpr const char* kAcidRowIdCol = "_acid_row_id";
inline constexpr size_t kNumAcidMetaCols = 3;
/// The record-id columns in file order (all BIGINT).
inline constexpr const char* kAcidRecordIdCols[kNumAcidMetaCols] = {
    kAcidWriteIdCol, kAcidBucketCol, kAcidRowIdCol};

/// Prepends the three ACID metadata fields to a user schema.
Schema AcidFileSchema(const Schema& user_schema);

/// Unique record identity, ordered by (write id, bucket, row id): the order
/// in which every writer and compactor emits rows.
struct RecordId {
  int64_t write_id = 0;
  int64_t bucket = 0;
  int64_t row_id = 0;

  bool operator==(const RecordId& o) const {
    return write_id == o.write_id && bucket == o.bucket && row_id == o.row_id;
  }
  bool operator<(const RecordId& o) const {
    return std::tie(write_id, bucket, row_id) < std::tie(o.write_id, o.bucket, o.row_id);
  }
};

/// Writes insert / delete deltas for one transaction's writes to a table or
/// partition directory. Each writer instance covers one (directory, WriteId)
/// pair, matching the single-statement-transaction model.
class AcidWriter {
 public:
  /// `dir` is the table or partition location; `write_id` the allocated id.
  AcidWriter(FileSystem* fs, std::string dir, Schema user_schema, int64_t write_id,
             CofWriteOptions options = {});

  /// Buffers an inserted row; row ids are assigned sequentially.
  void Insert(const std::vector<Value>& row);
  /// Buffers a delete of an existing record.
  void Delete(const RecordId& id);

  /// Flushes delta_N_N and/or delete_delta_N_N directories.
  Status Commit();

  int64_t rows_inserted() const { return next_row_id_; }

 private:
  FileSystem* fs_;
  std::string dir_;
  Schema user_schema_;
  int64_t write_id_;
  CofWriteOptions options_;
  std::unique_ptr<CofWriter> insert_writer_;
  std::unique_ptr<CofWriter> delete_writer_;
  int64_t next_row_id_ = 0;
  int64_t deletes_written_ = 0;
};

/// Options for AcidReader scans.
struct AcidScanOptions {
  /// Projected user-column indexes (into the user schema). Empty = all.
  std::vector<size_t> columns;
  /// Pushed-down predicate for row-group skipping.
  SearchArgument sarg;
  /// When true, the three ACID metadata columns are appended to each output
  /// batch (needed by UPDATE/DELETE to address records).
  bool include_row_ids = false;
};

/// Merge-on-read scanner over an ACID directory: selects the newest valid
/// base, overlays valid insert deltas, and anti-joins the delete events of
/// visible deleting transactions — the read path of Section 3.2. The events
/// are one sorted array that each row group merges against in record-id
/// order.
class AcidReader {
 public:
  /// `provider` overrides how column chunks are fetched (the LLAP cache
  /// plugs in here); defaults to direct file-system reads.
  AcidReader(FileSystem* fs, std::string dir, Schema user_schema,
             ChunkProvider* provider = nullptr);

  /// Plans the scan under `snapshot`: resolves directories and loads delete
  /// deltas. Must be called before NextBatch; may be called again after a
  /// failed attempt.
  Status Open(const ValidWriteIdList& snapshot, const AcidScanOptions& options);

  /// Produces the next batch, or an empty optional batch (num_rows 0 and
  /// `done` set) at end of scan.
  Result<RowBatch> NextBatch(bool* done);

  /// Reads one row group of one selected data file, applying snapshot
  /// validity and the delete anti-join but NOT the sarg (the caller decides
  /// skipping). Const and thread-safe after Open: morsel-driven parallel
  /// scans call this concurrently for disjoint (file, row group) pairs.
  Result<RowBatch> ReadFileRowGroup(const std::shared_ptr<CofReader>& file,
                                    size_t row_group) const;

  /// Data files selected by the snapshot (for LLAP-driven scans).
  const std::vector<std::string>& data_files() const { return data_files_; }
  const SearchArgument& sarg() const { return options_.sarg; }

  /// Statistics: row groups skipped via sarg evaluation.
  uint64_t row_groups_skipped() const { return row_groups_skipped_.load(); }
  uint64_t row_groups_read() const { return row_groups_read_.load(); }

 private:
  Status LoadDeleteDeltas(const std::vector<AcidDirInfo>& delete_dirs);

  FileSystem* fs_;
  std::string dir_;
  Schema user_schema_;
  DirectChunkProvider direct_provider_;
  ChunkProvider* provider_;
  AcidScanOptions options_;
  ValidWriteIdList snapshot_;

  std::vector<std::string> data_files_;
  /// Record ids deleted by transactions the snapshot sees, sorted and
  /// de-duplicated.
  std::vector<RecordId> deleted_;

  // Iteration state (NextBatch only; ReadFileRowGroup is stateless).
  size_t file_index_ = 0;
  std::shared_ptr<CofReader> current_;
  size_t rg_index_ = 0;
  std::atomic<uint64_t> row_groups_skipped_{0};
  mutable std::atomic<uint64_t> row_groups_read_{0};
  bool opened_ = false;
};

/// Lists the ACID directories under `dir` that are visible to `snapshot`,
/// partitioned into the chosen base (nullable), insert deltas and delete
/// deltas. Exposed for the compactor and tests.
struct AcidDirSelection {
  std::optional<AcidDirInfo> base;
  std::vector<AcidDirInfo> deltas;
  std::vector<AcidDirInfo> delete_deltas;
  /// Directories superseded by the chosen base (compaction cleanup targets).
  std::vector<AcidDirInfo> obsolete;
};
Result<AcidDirSelection> SelectAcidDirs(FileSystem* fs, const std::string& dir,
                                        const ValidWriteIdList& snapshot);

/// Compaction (Section 3.2): merges deltas into larger deltas (minor) or
/// rewrites everything into a new base applying deletes (major). The merge
/// phase never takes locks; Clean() removes obsolete directories afterwards
/// so in-flight readers finish undisturbed.
class Compactor {
 public:
  Compactor(FileSystem* fs, std::string dir, Schema user_schema);

  /// Merges all valid insert deltas into one delta_{min}_{max} and all
  /// delete deltas into one delete_delta_{min}_{max}.
  Status RunMinor(const ValidWriteIdList& snapshot);

  /// Rewrites base+deltas−deletes into base_{hwm}.
  Status RunMajor(const ValidWriteIdList& snapshot);

  /// Deletes directories superseded by compaction output, appending each
  /// one it deleted to `deleted` when given.
  Status Clean(const ValidWriteIdList& snapshot,
               std::vector<std::string>* deleted = nullptr);

 private:
  FileSystem* fs_;
  std::string dir_;
  Schema user_schema_;
};

}  // namespace hive

#endif  // HIVE_STORAGE_ACID_H_
