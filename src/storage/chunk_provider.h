#ifndef HIVE_STORAGE_CHUNK_PROVIDER_H_
#define HIVE_STORAGE_CHUNK_PROVIDER_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/cof.h"

namespace hive {

/// Indirection between scan operators and COF files. The direct provider
/// reads through the file system; the LLAP I/O elevator provides a caching
/// implementation keyed by (FileId, row group, column) with metadata
/// caching (Section 5.1). A provider must be thread-safe.
class ChunkProvider {
 public:
  virtual ~ChunkProvider() = default;

  /// Opens (or returns cached) metadata for a COF file.
  virtual Result<std::shared_ptr<CofReader>> OpenReader(const std::string& path) = 0;

  /// Reads (or returns cached) one decoded column chunk.
  virtual Result<ColumnVectorPtr> ReadChunk(const std::shared_ptr<CofReader>& reader,
                                            size_t row_group, size_t column) = 0;

  /// Reads the chunks of `columns` in one row group into a batch. Every
  /// chunk is read even after one fails, and the first failure is returned,
  /// so a retried attempt meets each chunk's next transient fault at once
  /// instead of spending one attempt per faulty chunk.
  Result<RowBatch> ReadChunks(const std::shared_ptr<CofReader>& reader, size_t row_group,
                              const std::vector<size_t>& columns) {
    Schema schema;
    for (size_t c : columns)
      schema.AddField(reader->schema().field(c).name, reader->schema().field(c).type);
    RowBatch batch(schema);
    Status first_error = Status::OK();
    for (size_t i = 0; i < columns.size(); ++i) {
      Result<ColumnVectorPtr> chunk = ReadChunk(reader, row_group, columns[i]);
      if (chunk.ok()) {
        batch.SetColumn(i, std::move(*chunk));
      } else if (first_error.ok()) {
        first_error = chunk.status();
      }
    }
    HIVE_RETURN_IF_ERROR(first_error);
    batch.set_num_rows(reader->row_group(row_group).num_rows);
    return batch;
  }
};

/// Pass-through provider: every call hits the file system.
class DirectChunkProvider : public ChunkProvider {
 public:
  explicit DirectChunkProvider(FileSystem* fs) : fs_(fs) {}

  Result<std::shared_ptr<CofReader>> OpenReader(const std::string& path) override {
    return CofReader::Open(fs_, path);
  }

  Result<ColumnVectorPtr> ReadChunk(const std::shared_ptr<CofReader>& reader,
                                    size_t row_group, size_t column) override {
    return reader->ReadColumnChunk(row_group, column);
  }

 private:
  FileSystem* fs_;
};

}  // namespace hive

#endif  // HIVE_STORAGE_CHUNK_PROVIDER_H_
