#include "storage/acid.h"

#include <algorithm>
#include <cstdio>

namespace hive {

std::string ValidWriteIdList::ToString() const {
  std::string out = "hwm=" + std::to_string(high_watermark) + " exceptions={";
  bool first = true;
  for (int64_t e : exceptions) {
    if (!first) out += ",";
    out += std::to_string(e);
    if (open_writes.count(e)) out += "(open)";
    first = false;
  }
  out += "}";
  return out;
}

std::string BaseDirName(int64_t write_id) { return "base_" + std::to_string(write_id); }

std::string DeltaDirName(int64_t min_write_id, int64_t max_write_id) {
  return "delta_" + std::to_string(min_write_id) + "_" + std::to_string(max_write_id);
}

std::string DeleteDeltaDirName(int64_t min_write_id, int64_t max_write_id) {
  return "delete_delta_" + std::to_string(min_write_id) + "_" +
         std::to_string(max_write_id);
}

AcidDirInfo ParseAcidDirName(const std::string& path) {
  AcidDirInfo info;
  info.path = path;
  std::string name = BaseName(path);
  long long a = 0, b = 0;
  if (std::sscanf(name.c_str(), "base_%lld", &a) == 1 &&
      name.rfind("base_", 0) == 0) {
    info.kind = AcidDirKind::kBase;
    info.min_write_id = 0;
    info.max_write_id = a;
  } else if (name.rfind("delete_delta_", 0) == 0 &&
             std::sscanf(name.c_str(), "delete_delta_%lld_%lld", &a, &b) == 2) {
    info.kind = AcidDirKind::kDeleteDelta;
    info.min_write_id = a;
    info.max_write_id = b;
  } else if (name.rfind("delta_", 0) == 0 &&
             std::sscanf(name.c_str(), "delta_%lld_%lld", &a, &b) == 2) {
    info.kind = AcidDirKind::kDelta;
    info.min_write_id = a;
    info.max_write_id = b;
  }
  return info;
}

Schema AcidFileSchema(const Schema& user_schema) {
  Schema out;
  for (const char* name : kAcidRecordIdCols) out.AddField(name, DataType::Bigint());
  for (const Field& f : user_schema.fields()) out.AddField(f.name, f.type);
  return out;
}

namespace {
/// Delete files record the target record id plus the write id of the
/// DELETING transaction, so delete application is row-level snapshot
/// filtered just like inserts (required once compacted delete deltas span
/// multiple write ids).
Schema DeleteFileSchema() {
  Schema out;
  for (const char* name : kAcidRecordIdCols) out.AddField(name, DataType::Bigint());
  out.AddField("_acid_deleter_wid", DataType::Bigint());
  return out;
}
}  // namespace

AcidWriter::AcidWriter(FileSystem* fs, std::string dir, Schema user_schema,
                       int64_t write_id, CofWriteOptions options)
    : fs_(fs),
      dir_(std::move(dir)),
      user_schema_(std::move(user_schema)),
      write_id_(write_id),
      options_(options) {}

void AcidWriter::Insert(const std::vector<Value>& row) {
  if (!insert_writer_) {
    insert_writer_ =
        std::make_unique<CofWriter>(AcidFileSchema(user_schema_), options_);
  }
  std::vector<Value> full;
  full.reserve(row.size() + kNumAcidMetaCols);
  full.push_back(Value::Bigint(write_id_));
  full.push_back(Value::Bigint(0));  // single bucket per writer
  full.push_back(Value::Bigint(next_row_id_++));
  full.insert(full.end(), row.begin(), row.end());
  insert_writer_->AppendRow(full);
}

void AcidWriter::Delete(const RecordId& id) {
  if (!delete_writer_) {
    CofWriteOptions delete_options = options_;
    delete_options.bloom_columns.clear();
    delete_writer_ = std::make_unique<CofWriter>(DeleteFileSchema(), delete_options);
  }
  delete_writer_->AppendRow({Value::Bigint(id.write_id), Value::Bigint(id.bucket),
                             Value::Bigint(id.row_id), Value::Bigint(write_id_)});
  ++deletes_written_;
}

Status AcidWriter::Commit() {
  if (insert_writer_) {
    HIVE_ASSIGN_OR_RETURN(std::string bytes, insert_writer_->Finish());
    std::string delta_dir = JoinPath(dir_, DeltaDirName(write_id_, write_id_));
    HIVE_RETURN_IF_ERROR(fs_->MakeDirs(delta_dir));
    HIVE_RETURN_IF_ERROR(fs_->WriteFile(JoinPath(delta_dir, "file_0000"), bytes));
    insert_writer_.reset();
  }
  if (delete_writer_) {
    HIVE_ASSIGN_OR_RETURN(std::string bytes, delete_writer_->Finish());
    std::string dd_dir = JoinPath(dir_, DeleteDeltaDirName(write_id_, write_id_));
    HIVE_RETURN_IF_ERROR(fs_->MakeDirs(dd_dir));
    HIVE_RETURN_IF_ERROR(fs_->WriteFile(JoinPath(dd_dir, "file_0000"), bytes));
    delete_writer_.reset();
  }
  return Status::OK();
}

Result<AcidDirSelection> SelectAcidDirs(FileSystem* fs, const std::string& dir,
                                        const ValidWriteIdList& snapshot) {
  AcidDirSelection sel;
  if (!fs->Exists(dir)) return sel;  // empty table
  HIVE_ASSIGN_OR_RETURN(std::vector<FileInfo> entries, fs->ListDir(dir));
  std::vector<AcidDirInfo> bases, deltas, delete_deltas;
  for (const FileInfo& e : entries) {
    if (!e.is_dir) continue;
    AcidDirInfo info = ParseAcidDirName(e.path);
    switch (info.kind) {
      case AcidDirKind::kBase: bases.push_back(info); break;
      case AcidDirKind::kDelta: deltas.push_back(info); break;
      case AcidDirKind::kDeleteDelta: delete_deltas.push_back(info); break;
      case AcidDirKind::kOther: break;
    }
  }
  // Newest base visible to the snapshot wins; older bases are obsolete.
  std::sort(bases.begin(), bases.end(),
            [](const AcidDirInfo& a, const AcidDirInfo& b) {
              return a.max_write_id < b.max_write_id;
            });
  int64_t base_wid = 0;
  for (const AcidDirInfo& b : bases) {
    if (b.max_write_id <= snapshot.high_watermark) {
      if (sel.base) sel.obsolete.push_back(*sel.base);
      sel.base = b;
      base_wid = b.max_write_id;
    }
  }
  auto keep = [&](std::vector<AcidDirInfo>& in, std::vector<AcidDirInfo>* out) {
    std::sort(in.begin(), in.end(), [](const AcidDirInfo& a, const AcidDirInfo& b) {
      if (a.min_write_id != b.min_write_id) return a.min_write_id < b.min_write_id;
      return a.max_write_id > b.max_write_id;  // widest first at same start
    });
    for (size_t i = 0; i < in.size(); ++i) {
      const AcidDirInfo& d = in[i];
      if (d.max_write_id <= base_wid) {
        sel.obsolete.push_back(d);
        continue;
      }
      // A delta strictly contained in an earlier (wider) surviving one is a
      // pre-compaction leftover.
      bool contained = false;
      for (const AcidDirInfo& prev : *out) {
        if (prev.min_write_id <= d.min_write_id && d.max_write_id <= prev.max_write_id &&
            !(prev.min_write_id == d.min_write_id && prev.max_write_id == d.max_write_id)) {
          contained = true;
          break;
        }
      }
      if (contained) {
        sel.obsolete.push_back(d);
        continue;
      }
      // Visibility is enforced row-by-row from the embedded write ids, so
      // every surviving directory is read; deltas of open/aborted
      // transactions contribute no visible rows.
      out->push_back(d);
    }
  };
  keep(deltas, &sel.deltas);
  keep(delete_deltas, &sel.delete_deltas);
  return sel;
}

AcidReader::AcidReader(FileSystem* fs, std::string dir, Schema user_schema,
                       ChunkProvider* provider)
    : fs_(fs),
      dir_(std::move(dir)),
      user_schema_(std::move(user_schema)),
      direct_provider_(fs),
      provider_(provider ? provider : &direct_provider_) {}

Status AcidReader::LoadDeleteDeltas(const std::vector<AcidDirInfo>& delete_dirs) {
  for (const AcidDirInfo& dd : delete_dirs) {
    HIVE_ASSIGN_OR_RETURN(std::vector<FileInfo> files, fs_->ListDir(dd.path));
    for (const FileInfo& f : files) {
      if (f.is_dir) continue;
      HIVE_ASSIGN_OR_RETURN(std::shared_ptr<CofReader> reader,
                            provider_->OpenReader(f.path));
      for (size_t rg = 0; rg < reader->num_row_groups(); ++rg) {
        HIVE_ASSIGN_OR_RETURN(RowBatch events,
                              provider_->ReadChunks(reader, rg, {0, 1, 2, 3}));
        const auto& wid = events.column(0)->i64_data();
        const auto& bucket = events.column(1)->i64_data();
        const auto& rowid = events.column(2)->i64_data();
        const auto& deleter = events.column(3)->i64_data();
        for (size_t i = 0; i < wid.size(); ++i) {
          // A delete only applies when the deleting transaction is visible.
          if (!snapshot_.IsValid(deleter[i])) continue;
          deleted_.push_back({wid[i], bucket[i], rowid[i]});
        }
      }
    }
  }
  // Delete deltas are not in record-id order (MERGE writes them in join
  // order), and one record can be deleted by several of them.
  std::sort(deleted_.begin(), deleted_.end());
  deleted_.erase(std::unique(deleted_.begin(), deleted_.end()), deleted_.end());
  return Status::OK();
}

Status AcidReader::Open(const ValidWriteIdList& snapshot, const AcidScanOptions& options) {
  snapshot_ = snapshot;
  options_ = options;
  data_files_.clear();  // a retried Open starts over
  deleted_.clear();
  if (options_.columns.empty()) {
    for (size_t i = 0; i < user_schema_.num_fields(); ++i)
      options_.columns.push_back(i);
  }
  HIVE_ASSIGN_OR_RETURN(AcidDirSelection sel, SelectAcidDirs(fs_, dir_, snapshot));
  auto add_files = [&](const AcidDirInfo& d) -> Status {
    HIVE_ASSIGN_OR_RETURN(std::vector<FileInfo> files, fs_->ListDir(d.path));
    for (const FileInfo& f : files)
      if (!f.is_dir) data_files_.push_back(f.path);
    return Status::OK();
  };
  if (sel.base) HIVE_RETURN_IF_ERROR(add_files(*sel.base));
  for (const AcidDirInfo& d : sel.deltas) HIVE_RETURN_IF_ERROR(add_files(d));
  HIVE_RETURN_IF_ERROR(LoadDeleteDeltas(sel.delete_deltas));
  opened_ = true;
  return Status::OK();
}

Result<RowBatch> AcidReader::ReadFileRowGroup(const std::shared_ptr<CofReader>& file,
                                              size_t row_group) const {
  row_groups_read_.fetch_add(1, std::memory_order_relaxed);
  // Physical columns: requested user columns shifted past the meta
  // columns, plus the meta columns themselves (always read: validity and
  // delete anti-join need them; cheap because they are RLE).
  std::vector<size_t> physical;
  for (size_t c : options_.columns) physical.push_back(c + kNumAcidMetaCols);
  physical.push_back(0);
  physical.push_back(1);
  physical.push_back(2);
  HIVE_ASSIGN_OR_RETURN(RowBatch raw, provider_->ReadChunks(file, row_group, physical));

  size_t n_user = options_.columns.size();
  const auto& wid = raw.column(n_user)->i64_data();
  const auto& bucket = raw.column(n_user + 1)->i64_data();
  const auto& rowid = raw.column(n_user + 2)->i64_data();
  // Rows merge with the delete events in record-id order. `next` is the
  // first event not below the last row probed: the first row finds it with
  // one binary search, later rows walk it forward. A row not above its
  // predecessor searches the events before `next` instead, so the result
  // never depends on the file's row order.
  auto next = deleted_.end();
  RecordId prev{INT64_MAX, INT64_MAX, INT64_MAX};
  bool visible = false;
  std::vector<int32_t> selection;
  selection.reserve(raw.num_rows());
  for (size_t i = 0; i < raw.num_rows(); ++i) {
    // Rows of one write id come in runs; check its visibility once per run.
    if (i == 0 || wid[i] != wid[i - 1]) visible = snapshot_.IsValid(wid[i]);
    if (!visible) continue;
    if (!deleted_.empty()) {
      RecordId id{wid[i], bucket[i], rowid[i]};
      if (prev < id) {
        while (next != deleted_.end() && *next < id) ++next;
      } else {
        next = std::lower_bound(deleted_.begin(), next, id);
      }
      prev = id;
      if (next != deleted_.end() && *next == id) continue;
    }
    selection.push_back(static_cast<int32_t>(i));
  }

  Schema out_schema;
  for (size_t c : options_.columns)
    out_schema.AddField(user_schema_.field(c).name, user_schema_.field(c).type);
  if (options_.include_row_ids)
    for (const char* name : kAcidRecordIdCols) out_schema.AddField(name, DataType::Bigint());
  RowBatch out(out_schema);
  for (size_t i = 0; i < n_user; ++i) out.SetColumn(i, raw.column(i));
  if (options_.include_row_ids) {
    out.SetColumn(n_user, raw.column(n_user));
    out.SetColumn(n_user + 1, raw.column(n_user + 1));
    out.SetColumn(n_user + 2, raw.column(n_user + 2));
  }
  out.set_num_rows(raw.num_rows());
  if (selection.size() != raw.num_rows()) out.SetSelection(std::move(selection));
  return out;
}

Result<RowBatch> AcidReader::NextBatch(bool* done) {
  *done = false;
  if (!opened_) return Status::Internal("AcidReader not opened");
  for (;;) {
    if (!current_) {
      if (file_index_ >= data_files_.size()) {
        *done = true;
        return RowBatch();
      }
      HIVE_ASSIGN_OR_RETURN(current_, provider_->OpenReader(data_files_[file_index_]));
      rg_index_ = 0;
    }
    if (rg_index_ >= current_->num_row_groups()) {
      current_.reset();
      ++file_index_;
      continue;
    }
    size_t rg = rg_index_++;
    if (!current_->MightMatch(rg, options_.sarg)) {
      row_groups_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return ReadFileRowGroup(current_, rg);
  }
}

Compactor::Compactor(FileSystem* fs, std::string dir, Schema user_schema)
    : fs_(fs), dir_(std::move(dir)), user_schema_(std::move(user_schema)) {}

namespace {

/// The snapshot a compaction folds into its output: `snapshot` capped below
/// its lowest write id not known to be aborted. That transaction may still
/// commit, and may still be writing its delta, so no base or merged delta
/// may cover its id: the delta would look like a pre-compaction leftover
/// and its rows would be lost. Every exception under the cap is aborted, so
/// compaction drops its rows — how "major compaction deletes history".
ValidWriteIdList CompactionSnapshot(const ValidWriteIdList& snapshot) {
  ValidWriteIdList capped = snapshot;
  if (!snapshot.open_writes.empty())
    capped.high_watermark =
        std::min(capped.high_watermark, *snapshot.open_writes.begin() - 1);
  return capped;
}

/// Merges the directories in `deltas` at or below the cap of `capped` into
/// one `dir_name(lo, hi)` directory under `dir`, keeping the rows whose
/// write id (column `wid_col`: the inserting or the deleting transaction)
/// the snapshot sees.
Status MergeDeltas(FileSystem* fs, const std::string& dir,
                   const std::vector<AcidDirInfo>& deltas,
                   const ValidWriteIdList& capped, const Schema& schema,
                   size_t wid_col, std::string (*dir_name)(int64_t, int64_t)) {
  std::vector<AcidDirInfo> merged;
  for (const AcidDirInfo& d : deltas)
    if (d.max_write_id <= capped.high_watermark) merged.push_back(d);
  if (merged.size() < 2) return Status::OK();
  std::vector<size_t> all;
  for (size_t c = 0; c < schema.num_fields(); ++c) all.push_back(c);
  int64_t lo = merged.front().min_write_id;
  int64_t hi = merged.front().max_write_id;
  CofWriter writer(schema);
  for (const AcidDirInfo& d : merged) {
    lo = std::min(lo, d.min_write_id);
    hi = std::max(hi, d.max_write_id);
    HIVE_ASSIGN_OR_RETURN(std::vector<FileInfo> files, fs->ListDir(d.path));
    for (const FileInfo& f : files) {
      if (f.is_dir) continue;
      HIVE_ASSIGN_OR_RETURN(auto reader, CofReader::Open(fs, f.path));
      for (size_t rg = 0; rg < reader->num_row_groups(); ++rg) {
        HIVE_ASSIGN_OR_RETURN(RowBatch batch, reader->ReadRowGroup(rg, all));
        std::vector<int32_t> keep_rows;
        const auto& wid = batch.column(wid_col)->i64_data();
        for (size_t i = 0; i < batch.num_rows(); ++i)
          if (capped.IsValid(wid[i])) keep_rows.push_back(static_cast<int32_t>(i));
        if (keep_rows.size() != batch.num_rows())
          batch.SetSelection(std::move(keep_rows));
        writer.AppendBatch(batch);
      }
    }
  }
  HIVE_ASSIGN_OR_RETURN(std::string bytes, writer.Finish());
  std::string out_dir = JoinPath(dir, dir_name(lo, hi));
  HIVE_RETURN_IF_ERROR(fs->MakeDirs(out_dir));
  return fs->WriteFile(JoinPath(out_dir, "file_0000"), bytes);
}

}  // namespace

Status Compactor::RunMinor(const ValidWriteIdList& snapshot) {
  ValidWriteIdList capped = CompactionSnapshot(snapshot);
  HIVE_ASSIGN_OR_RETURN(AcidDirSelection sel, SelectAcidDirs(fs_, dir_, capped));
  HIVE_RETURN_IF_ERROR(MergeDeltas(fs_, dir_, sel.deltas, capped,
                                   AcidFileSchema(user_schema_), 0, DeltaDirName));
  return MergeDeltas(fs_, dir_, sel.delete_deltas, capped, DeleteFileSchema(), 3,
                     DeleteDeltaDirName);
}

Status Compactor::RunMajor(const ValidWriteIdList& snapshot) {
  ValidWriteIdList capped = CompactionSnapshot(snapshot);
  HIVE_ASSIGN_OR_RETURN(AcidDirSelection sel, SelectAcidDirs(fs_, dir_, capped));
  int64_t hwm = sel.base ? sel.base->max_write_id : 0;
  for (const AcidDirInfo& d : sel.deltas)
    if (d.max_write_id <= capped.high_watermark) hwm = std::max(hwm, d.max_write_id);
  for (const AcidDirInfo& d : sel.delete_deltas)
    if (d.max_write_id <= capped.high_watermark) hwm = std::max(hwm, d.max_write_id);
  if (hwm == 0) return Status::OK();  // nothing to do
  capped.high_watermark = std::min(capped.high_watermark, hwm);

  AcidReader reader(fs_, dir_, user_schema_);
  AcidScanOptions options;
  options.include_row_ids = true;
  HIVE_RETURN_IF_ERROR(reader.Open(capped, options));

  CofWriter writer(AcidFileSchema(user_schema_));
  bool done = false;
  size_t n_user = user_schema_.num_fields();
  for (;;) {
    HIVE_ASSIGN_OR_RETURN(RowBatch batch, reader.NextBatch(&done));
    if (done) break;
    // Reorder: meta columns lead in the file layout.
    for (size_t i = 0; i < batch.SelectedSize(); ++i) {
      int32_t row = batch.SelectedRow(i);
      std::vector<Value> full;
      full.reserve(n_user + kNumAcidMetaCols);
      full.push_back(batch.column(n_user)->GetValue(row));
      full.push_back(batch.column(n_user + 1)->GetValue(row));
      full.push_back(batch.column(n_user + 2)->GetValue(row));
      for (size_t c = 0; c < n_user; ++c)
        full.push_back(batch.column(c)->GetValue(row));
      writer.AppendRow(full);
    }
  }
  HIVE_ASSIGN_OR_RETURN(std::string bytes, writer.Finish());
  std::string out_dir = JoinPath(dir_, BaseDirName(hwm));
  HIVE_RETURN_IF_ERROR(fs_->MakeDirs(out_dir));
  HIVE_RETURN_IF_ERROR(fs_->WriteFile(JoinPath(out_dir, "file_0000"), bytes));
  return Status::OK();
}

Status Compactor::Clean(const ValidWriteIdList& snapshot,
                        std::vector<std::string>* deleted) {
  HIVE_ASSIGN_OR_RETURN(AcidDirSelection sel, SelectAcidDirs(fs_, dir_, snapshot));
  for (const AcidDirInfo& d : sel.obsolete) {
    HIVE_RETURN_IF_ERROR(fs_->DeleteRecursive(d.path));
    if (deleted) deleted->push_back(d.path);
  }
  return Status::OK();
}

}  // namespace hive
