#ifndef HIVE_LLAP_DAEMON_H_
#define HIVE_LLAP_DAEMON_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>

#include "common/thread_pool.h"
#include "llap/llap_cache.h"

namespace hive {

/// An LLAP daemon (Section 5.1): persistent multi-threaded query executors
/// plus the shared data cache, long-running so queries pay no container
/// start-up cost. Daemons are stateless — losing one only loses cached
/// bytes, so any executor can process any fragment.
///
/// `IoElevator` models the separate I/O threads that read and decode data
/// off the execution path: columns are fetched asynchronously so a batch
/// can be processed while the next one is being prepared.
class LlapDaemon {
 public:
  LlapDaemon(FileSystem* fs, const Config& config)
      : cache_(fs, config),
        executors_(config.num_executors),
        io_pool_(config.llap_io_threads) {}

  /// The MVCC-aware chunk cache shared by all fragments.
  LlapCacheProvider* cache() { return &cache_; }

  /// Runs a query fragment on a persistent executor; returns a future the
  /// coordinator waits on. Fragments from different queries interleave
  /// freely across the executor pool.
  std::future<Status> SubmitFragment(std::function<Status()> fragment) {
    auto promise = std::make_shared<std::promise<Status>>();
    auto future = promise->get_future();
    fragments_submitted_.fetch_add(1, std::memory_order_relaxed);
    executors_.Submit([this, promise, fragment = std::move(fragment)]() mutable {
      Status status = fragment();
      // Count before publishing, so a waiter on the future sees the count.
      fragments_completed_.fetch_add(1, std::memory_order_relaxed);
      promise->set_value(std::move(status));
    });
    return future;
  }

  /// Runs an intra-query worker fragment of a morsel-driven pipeline. Unlike
  /// SubmitFragment (whose coordinator fragments block on their workers),
  /// this prefers an idle executor but falls back to running inline on the
  /// caller when the pool is saturated, so nested fan-out cannot deadlock
  /// the fixed-size executor set.
  std::future<Status> SubmitWorkFragment(std::function<Status()> fragment) {
    auto promise = std::make_shared<std::promise<Status>>();
    auto future = promise->get_future();
    fragments_submitted_.fetch_add(1, std::memory_order_relaxed);
    executors_.SubmitOrRun([this, promise, fragment = std::move(fragment)]() mutable {
      Status status = fragment();
      fragments_completed_.fetch_add(1, std::memory_order_relaxed);
      promise->set_value(std::move(status));
    });
    return future;
  }

  /// Asynchronously fetches and decodes a column chunk through the cache
  /// (the I/O elevator path). A chunk the cache already holds needs no
  /// read-ahead: the call returns an empty future (`valid()` false) at once,
  /// with no elevator task, fingerprint or recency touch. A missing or
  /// in-flight chunk goes through the cache's single-flight ReadChunk.
  std::future<Result<ColumnVectorPtr>> PrefetchChunk(
      std::shared_ptr<CofReader> reader, size_t row_group, size_t column) {
    if (cache_.IsResident(*reader, row_group, column)) return {};
    auto promise = std::make_shared<std::promise<Result<ColumnVectorPtr>>>();
    auto future = promise->get_future();
    prefetches_issued_.fetch_add(1, std::memory_order_relaxed);
    io_pool_.Submit([this, promise, reader = std::move(reader), row_group, column] {
      promise->set_value(cache_.ReadChunk(reader, row_group, column));
    });
    return future;
  }

  int num_executors() const { return executors_.num_threads(); }
  int64_t fragments_submitted() const { return fragments_submitted_.load(); }
  int64_t fragments_completed() const { return fragments_completed_.load(); }
  int64_t prefetches_issued() const { return prefetches_issued_.load(); }

 private:
  LlapCacheProvider cache_;
  ThreadPool executors_;
  ThreadPool io_pool_;
  std::atomic<int64_t> fragments_submitted_{0};
  std::atomic<int64_t> fragments_completed_{0};
  std::atomic<int64_t> prefetches_issued_{0};
};

}  // namespace hive

#endif  // HIVE_LLAP_DAEMON_H_
