#include "llap/llap_cache.h"

#include "common/hash.h"
#include "common/sim_clock.h"

namespace hive {

namespace {

/// Content fingerprint of a decoded chunk: validity bitmap plus the typed
/// payload. Chained Murmur64 so any flipped bit anywhere changes the result.
uint64_t ChunkFingerprint(const ColumnVector& col) {
  uint64_t h = Murmur64(col.validity().data(), col.validity().size(), 0x11a9);
  switch (col.type().kind) {
    case TypeKind::kDouble:
      return Murmur64(col.f64_data().data(), col.f64_data().size() * 8, h);
    case TypeKind::kString: {
      for (const std::string& s : col.str_data())
        h = Murmur64(s.data(), s.size(), h ^ (s.size() * 0x9e3779b97f4a7c15ULL));
      return h;
    }
    default:
      return Murmur64(col.i64_data().data(), col.i64_data().size() * 8, h);
  }
}

}  // namespace

LlapCacheProvider::LlapCacheProvider(FileSystem* fs, const Config& config)
    : fs_(fs),
      poison_threshold_(config.cache_poison_threshold),
      data_cache_(static_cast<uint64_t>(config.llap_cache_capacity_bytes),
                  config.llap_lrfu_lambda) {}

Result<std::shared_ptr<CofReader>> LlapCacheProvider::OpenReader(
    const std::string& path) {
  // Check file identity first: a cached reader is valid only while the
  // FileId matches (files are immutable once written, but paths can be
  // re-created by compaction).
  HIVE_ASSIGN_OR_RETURN(FileInfo info, fs_->Stat(path));
  {
    MutexLock lock(&metadata_mu_);
    auto it = metadata_.find(path);
    if (it != metadata_.end()) {
      if (it->second.first == info.file_id) {
        metadata_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.second;
      }
      // Stale: the path now holds a different file.
      InvalidateFileLocked(it->second.first);
      metadata_.erase(it);
    }
  }
  HIVE_ASSIGN_OR_RETURN(std::shared_ptr<CofReader> reader, CofReader::Open(fs_, path));
  MutexLock lock(&metadata_mu_);
  metadata_[path] = {info.file_id, reader};
  return reader;
}

bool LlapCacheProvider::IsDegraded(uint64_t file_id) const {
  if (!poison_seen_.load(std::memory_order_relaxed)) return false;
  MutexLock lock(&poison_mu_);
  return degraded_.count(file_id) != 0;
}

ColumnVectorPtr LlapCacheProvider::ValidateHit(const ChunkKey& key,
                                               const CachedChunkPtr& entry) {
  if (ChunkFingerprint(*entry->chunk) == entry->fingerprint) {
    // Clean hit. If this file had a corruption streak going, it ends here.
    if (poison_seen_.load(std::memory_order_relaxed)) {
      MutexLock lock(&poison_mu_);
      auto it = poison_streak_.find(key.file_id);
      if (it != poison_streak_.end()) it->second = 0;
    }
    // Hand any banked elevator stall to the first task that consumes the
    // chunk (never drain it on scope-less threads — it would be lost).
    if (SimClock::HasTaskSink())
      SimClock::Attribute(
          entry->pending_charge_us.exchange(0, std::memory_order_relaxed));
    return entry->chunk;
  }
  // Poisoned: the cached bytes changed after insert. Evict, count the
  // incident, and let the caller fall through to a fresh decode — queries
  // never see the corrupted chunk.
  poison_detected_.fetch_add(1, std::memory_order_relaxed);
  poison_seen_.store(true, std::memory_order_relaxed);
  data_cache_.Erase(key);
  MutexLock lock(&poison_mu_);
  if (++poison_streak_[key.file_id] >= poison_threshold_)
    degraded_.insert(key.file_id);
  return nullptr;
}

Result<ColumnVectorPtr> LlapCacheProvider::ReadChunk(
    const std::shared_ptr<CofReader>& reader, size_t row_group, size_t column) {
  // Files with repeated poisoning incidents bypass the cache entirely: the
  // daemon keeps serving them, just without trusting cached copies.
  if (IsDegraded(reader->file_id())) {
    degraded_reads_.fetch_add(1, std::memory_order_relaxed);
    return reader->ReadColumnChunk(row_group, column);
  }
  ChunkKey key{reader->file_id(), static_cast<uint32_t>(row_group),
               static_cast<uint32_t>(column)};
  // Single-flight: concurrent readers of the same cold chunk (parallel
  // workers plus their read-ahead prefetches) must not decode it N times.
  // The flight map is consulted before the cache so that followers neither
  // count a spurious miss nor race the leader's Put.
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    MutexLock lock(&inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      if (CachedChunkPtr cached = data_cache_.Get(key)) {
        if (ColumnVectorPtr chunk = ValidateHit(key, cached)) return chunk;
        // Fingerprint mismatch: entry evicted; become the decode leader.
      }
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
      leader = true;
    }
  }
  if (!leader) {
    singleflight_waits_.fetch_add(1, std::memory_order_relaxed);
    Result<ColumnVectorPtr> flight_result = Status::Internal("decode pending");
    {
      MutexLock lock(&flight->mu);
      while (!flight->done) flight->cv.Wait(lock);
      flight_result = flight->result;
    }
    // Re-probe so the follower registers a cache hit (and refreshes LRFU
    // recency); fall back to the flight's result if it was already evicted.
    if (CachedChunkPtr cached = data_cache_.Get(key))
      if (ColumnVectorPtr chunk = ValidateHit(key, cached)) return chunk;
    return flight_result;
  }
  // Leader: decode outside any lock, publish, then retire the flight.
  // Capture the modeled I/O stall of the decode so it can be attributed to
  // the leader's own task — or banked on the entry when the leader is a
  // scope-less elevator thread, for the first real consumer to inherit.
  int64_t io_charge_us = 0;
  Result<ColumnVectorPtr> decoded = Status::OK();
  {
    SimClock::TaskScope io_scope(&io_charge_us);
    decoded = reader->ReadColumnChunk(row_group, column);
  }
  bool attributed = SimClock::Attribute(io_charge_us);
  if (decoded.ok()) {
    data_decodes_.fetch_add(1, std::memory_order_relaxed);
    auto entry = std::make_shared<CachedChunk>();
    entry->chunk = *decoded;
    entry->fingerprint = ChunkFingerprint(**decoded);
    entry->pending_charge_us.store(attributed ? 0 : io_charge_us,
                                   std::memory_order_relaxed);
    data_cache_.Put(key, std::move(entry), (*decoded)->ByteSize());
  }
  {
    MutexLock lock(&flight->mu);
    flight->result = decoded;
    flight->done = true;
  }
  flight->cv.NotifyAll();
  {
    MutexLock lock(&inflight_mu_);
    inflight_.erase(key);
  }
  return decoded;
}

size_t LlapCacheProvider::PoisonChunks(size_t n) {
  size_t poisoned = 0;
  data_cache_.ForEach([&](const ChunkKey&, CachedChunkPtr& entry) {
    if (poisoned >= n || !entry->chunk || entry->chunk->size() == 0) return;
    // Corrupt the decoded data in place without refreshing the stored
    // fingerprint — exactly what a stray write into the cache would do.
    ColumnVector& col = *entry->chunk;
    switch (col.type().kind) {
      case TypeKind::kDouble:
        col.f64_data()[0] = -col.f64_data()[0] + 1.0;
        break;
      case TypeKind::kString:
        col.str_data()[0].push_back('!');
        break;
      default:
        col.i64_data()[0] ^= 0x40;
        break;
    }
    ++poisoned;
  });
  return poisoned;
}

void LlapCacheProvider::Clear() {
  data_cache_.Clear();
  {
    MutexLock lock(&poison_mu_);
    poison_streak_.clear();
    degraded_.clear();
  }
  MutexLock lock(&metadata_mu_);
  metadata_.clear();
}

void LlapCacheProvider::InvalidateDirs(const std::vector<std::string>& dirs) {
  std::unordered_set<uint64_t> deleted;
  {
    MutexLock lock(&metadata_mu_);
    for (const std::string& dir : dirs) {
      const std::string prefix = dir + "/";
      auto it = metadata_.lower_bound(prefix);
      while (it != metadata_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
        deleted.insert(it->second.first);
        it = metadata_.erase(it);
      }
    }
  }
  if (!deleted.empty())
    data_cache_.EraseIf(
        [&deleted](const ChunkKey& key) { return deleted.count(key.file_id) != 0; });
}

void LlapCacheProvider::InvalidateFileLocked(uint64_t file_id) {
  data_cache_.EraseIf(
      [file_id](const ChunkKey& key) { return key.file_id == file_id; });
}

}  // namespace hive
