#ifndef HIVE_LLAP_LLAP_CACHE_H_
#define HIVE_LLAP_LLAP_CACHE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/config.h"
#include "common/sync.h"
#include "common/lrfu_cache.h"
#include "fs/filesystem.h"
#include "storage/chunk_provider.h"

namespace hive {

/// The LLAP data cache (Section 5.1): decoded column chunks addressed along
/// the two dimensions the paper describes — row groups and columns — keyed
/// by (FileId, row group, column). Because cache keys carry the FileId (the
/// ETag analogue), a rewritten file never serves stale chunks, and because
/// ACID visibility is adjusted at the file level, the cache behaves as an
/// MVCC view serving concurrent queries in different transactional states:
/// each query simply addresses exactly the files its snapshot selected.
///
/// Metadata (COF footers: min/max indexes, Bloom filters) caches separately
/// and is populated on first access, letting later queries evaluate sargs
/// and decide row-group skips without touching the data at all.
///
/// Eviction is LRFU over chunk byte sizes (the paper's default policy).
///
/// Poisoning defense: a decoded chunk is fingerprinted (content hash) when
/// inserted and re-validated on every hit, so memory corruption — or a
/// hostile writer scribbling over the shared daemon cache — can never leak
/// wrong bytes into a query. A mismatch evicts the entry and falls back to
/// a fresh decode through the single-flight path; after
/// `cache.poison.threshold` *consecutive* corrupted hits on one file, that
/// file degrades to direct (uncached) reads for the daemon's lifetime.
class LlapCacheProvider : public ChunkProvider {
 public:
  LlapCacheProvider(FileSystem* fs, const Config& config);

  Result<std::shared_ptr<CofReader>> OpenReader(const std::string& path) override;
  Result<ColumnVectorPtr> ReadChunk(const std::shared_ptr<CofReader>& reader,
                                    size_t row_group, size_t column) override;

  /// True when the cache holds the chunk. Validates nothing and touches
  /// neither LRFU recency nor the hit/miss counters: a read-ahead asks, and
  /// the ReadChunk that later consumes the chunk validates it.
  bool IsResident(const CofReader& reader, size_t row_group, size_t column) const {
    return data_cache_.Contains({reader.file_id(), static_cast<uint32_t>(row_group),
                                 static_cast<uint32_t>(column)});
  }

  /// Drops every cache entry (tests / daemon restart) and forgets poison
  /// history: a restarted daemon re-admits degraded files.
  void Clear();

  /// Drops the cached footers and chunks of every file under `dirs`, the
  /// directories compaction cleanup deleted, so superseded files stop
  /// holding cache memory.
  void InvalidateDirs(const std::vector<std::string>& dirs);

  /// Test hook: silently corrupts up to `n` cached chunks *without*
  /// refreshing their stored fingerprints, simulating cache poisoning.
  /// Returns how many chunks were corrupted.
  size_t PoisonChunks(size_t n);

  // --- observability ---
  uint64_t data_hits() const { return data_cache_.hits(); }
  uint64_t data_misses() const { return data_cache_.misses(); }
  uint64_t data_evictions() const { return data_cache_.evictions(); }
  uint64_t metadata_hits() const { return metadata_hits_; }
  uint64_t used_bytes() const { return data_cache_.used_bytes(); }
  size_t cached_chunks() const { return data_cache_.size(); }
  /// Chunk decodes actually performed (single-flight leaders only).
  uint64_t data_decodes() const { return data_decodes_; }
  /// Readers that waited on another thread's in-flight decode.
  uint64_t singleflight_waits() const { return singleflight_waits_; }
  /// Cache hits rejected because the chunk's content hash no longer matched.
  uint64_t poison_detected() const { return poison_detected_; }
  /// Reads served directly from storage because the file is degraded.
  uint64_t degraded_reads() const { return degraded_reads_; }
  size_t degraded_files() const {
    MutexLock lock(&poison_mu_);
    return degraded_.size();
  }

 private:
  struct ChunkKey {
    uint64_t file_id;
    uint32_t row_group;
    uint32_t column;
    bool operator==(const ChunkKey& o) const {
      return file_id == o.file_id && row_group == o.row_group && column == o.column;
    }
  };
  struct ChunkKeyHash {
    size_t operator()(const ChunkKey& k) const {
      uint64_t h = k.file_id * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<uint64_t>(k.row_group) << 32) | k.column;
      return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
    }
  };

  /// Cache entry: the decoded chunk plus its content fingerprint, taken at
  /// insert time and re-checked on every hit.
  struct CachedChunk {
    ColumnVectorPtr chunk;
    uint64_t fingerprint = 0;
    /// Modeled I/O stall incurred decoding this chunk on a thread with no
    /// task scope (the I/O elevator). The first task-scoped consumer takes
    /// it (exchange to 0) so straggler detection still sees the stall even
    /// though the read itself became a cache hit.
    std::atomic<int64_t> pending_charge_us{0};
  };
  using CachedChunkPtr = std::shared_ptr<CachedChunk>;

  /// Single-flight slot: the first reader of a cold key (the leader)
  /// decodes; concurrent readers wait on `cv` and reuse the result.
  struct InFlight {
    Mutex mu{"llap.inflight.slot.mu"};
    CondVar cv;
    bool done HIVE_GUARDED_BY(mu) = false;
    Result<ColumnVectorPtr> result HIVE_GUARDED_BY(mu){Status::Internal("decode pending")};
  };

  void InvalidateFileLocked(uint64_t file_id);
  /// Returns the chunk if the cached entry's fingerprint still matches;
  /// otherwise evicts it, records the poisoning (possibly degrading the
  /// file), and returns nullptr so the caller re-decodes.
  ColumnVectorPtr ValidateHit(const ChunkKey& key, const CachedChunkPtr& entry);
  bool IsDegraded(uint64_t file_id) const;

  FileSystem* fs_;
  const int poison_threshold_;
  LrfuCache<ChunkKey, CachedChunkPtr, ChunkKeyHash> data_cache_;
  Mutex inflight_mu_{"llap.inflight.mu"};
  std::unordered_map<ChunkKey, std::shared_ptr<InFlight>, ChunkKeyHash> inflight_
      HIVE_GUARDED_BY(inflight_mu_);
  std::atomic<uint64_t> data_decodes_{0};
  std::atomic<uint64_t> singleflight_waits_{0};
  std::atomic<uint64_t> poison_detected_{0};
  std::atomic<uint64_t> degraded_reads_{0};
  /// Fast-path guard: true once any poisoning has ever been detected, so
  /// clean hits only pay the streak-reset lock after an actual incident.
  std::atomic<bool> poison_seen_{false};
  mutable Mutex poison_mu_{"llap.poison.mu"};
  /// Consecutive corrupted hits per file; reset by any clean hit.
  std::unordered_map<uint64_t, int> poison_streak_ HIVE_GUARDED_BY(poison_mu_);
  std::unordered_set<uint64_t> degraded_ HIVE_GUARDED_BY(poison_mu_);
  /// Metadata cache: path -> (file_id, reader). Validity is re-checked via
  /// Stat on each open (FileId change = new file).
  Mutex metadata_mu_{"llap.metadata.mu"};
  std::map<std::string, std::pair<uint64_t, std::shared_ptr<CofReader>>> metadata_
      HIVE_GUARDED_BY(metadata_mu_);
  std::atomic<uint64_t> metadata_hits_{0};
};

}  // namespace hive

#endif  // HIVE_LLAP_LLAP_CACHE_H_
