// Section 8 claim: the second-generation ACID design reads "at par with
// non-ACID tables". Micro-benchmarks (google-benchmark) comparing full
// scans of the same data stored (a) as a non-transactional table, (b) as a
// compacted ACID table, and (c) as an ACID table with pending delta files
// and deletes (the merge-on-read worst case the first design suffered on).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>

#include "fs/mem_filesystem.h"
#include "metastore/catalog.h"
#include "storage/acid.h"
#include "storage/chunk_provider.h"

namespace {
/// Bench setup over MemFileSystem cannot legitimately fail; abort loudly if
/// it does rather than silently benchmarking a half-built table.
void Must(const hive::Status& s) {
  if (!s.ok()) {
    fprintf(stderr, "bench setup failed: %s\n", s.ToString().c_str());
    abort();
  }
}
}  // namespace


namespace hive {
namespace {

constexpr int kRows = 50000;

Schema TableSchema() {
  Schema s;
  s.AddField("k", DataType::Bigint());
  s.AddField("v", DataType::Bigint());
  s.AddField("s", DataType::String());
  return s;
}

std::vector<Value> Row(int64_t i) {
  return {Value::Bigint(i), Value::Bigint(i * 7 % 1000),
          Value::String("payload-" + std::to_string(i % 100))};
}

/// Shared fixture state: three pre-built table layouts in one MemFS.
struct AcidBenchState {
  MemFileSystem fs;
  Schema schema = TableSchema();

  AcidBenchState() {
    // (a) non-ACID: plain COF files in the table directory.
    {
      CofWriter writer(schema);
      for (int64_t i = 0; i < kRows; ++i) writer.AppendRow(Row(i));
      auto bytes = writer.Finish();
      Must(fs.MakeDirs("/plain"));
      Must(fs.WriteFile("/plain/file_0000", *bytes));
    }
    // (b) ACID, compacted: one base directory.
    {
      AcidWriter writer(&fs, "/acid_compacted", schema, 1);
      for (int64_t i = 0; i < kRows; ++i) writer.Insert(Row(i));
      Must(writer.Commit());
      Compactor compactor(&fs, "/acid_compacted", schema);
      Must(compactor.RunMajor(ValidWriteIdList::All(1)));
      Must(compactor.Clean(ValidWriteIdList::All(1)));
    }
    // (c) ACID, uncompacted: 20 insert deltas + 4 delete deltas.
    {
      const int kDeltas = 20;
      for (int d = 0; d < kDeltas; ++d) {
        AcidWriter writer(&fs, "/acid_deltas", schema, d + 1);
        for (int64_t i = d * (kRows / kDeltas);
             i < (d + 1) * static_cast<int64_t>(kRows / kDeltas); ++i)
          writer.Insert(Row(i));
        Must(writer.Commit());
      }
      for (int d = 0; d < 4; ++d) {
        AcidWriter writer(&fs, "/acid_deltas", schema, kDeltas + d + 1);
        for (int64_t r = 0; r < 50; ++r)
          writer.Delete({d * 3 + 1, 0, r * 7});
        Must(writer.Commit());
      }
    }
  }
};

AcidBenchState& State() {
  static auto* state = new AcidBenchState();
  return *state;
}

int64_t ScanPlain(FileSystem* fs) {
  auto reader = CofReader::Open(fs, "/plain/file_0000");
  int64_t rows = 0;
  for (size_t rg = 0; rg < (*reader)->num_row_groups(); ++rg) {
    auto batch = (*reader)->ReadRowGroup(rg, {0, 1, 2});
    rows += static_cast<int64_t>(batch->num_rows());
  }
  return rows;
}

int64_t ScanAcid(FileSystem* fs, const Schema& schema, const std::string& dir,
                 int64_t hwm) {
  AcidReader reader(fs, dir, schema);
  Must(reader.Open(ValidWriteIdList::All(hwm), {}));
  int64_t rows = 0;
  bool done = false;
  for (;;) {
    auto batch = reader.NextBatch(&done);
    if (done) break;
    rows += static_cast<int64_t>(batch->SelectedSize());
  }
  return rows;
}

void BM_ScanNonAcid(benchmark::State& state) {
  auto& s = State();
  for (auto _ : state) benchmark::DoNotOptimize(ScanPlain(&s.fs));
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanNonAcid)->Unit(benchmark::kMillisecond);

void BM_ScanAcidCompacted(benchmark::State& state) {
  auto& s = State();
  for (auto _ : state)
    benchmark::DoNotOptimize(ScanAcid(&s.fs, s.schema, "/acid_compacted", 1));
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanAcidCompacted)->Unit(benchmark::kMillisecond);

void BM_ScanAcidManyDeltas(benchmark::State& state) {
  auto& s = State();
  for (auto _ : state)
    benchmark::DoNotOptimize(ScanAcid(&s.fs, s.schema, "/acid_deltas", 24));
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanAcidManyDeltas)->Unit(benchmark::kMillisecond);

/// Sarg pushdown works identically on ACID and non-ACID paths: a selective
/// point lookup skips the same row groups.
void BM_AcidPointLookup(benchmark::State& state) {
  auto& s = State();
  for (auto _ : state) {
    AcidReader reader(&s.fs, "/acid_compacted", s.schema);
    AcidScanOptions options;
    options.sarg.conjuncts.push_back(
        {"k", SargOp::kEq, {Value::Bigint(12345)}, nullptr});
    Must(reader.Open(ValidWriteIdList::All(1), options));
    bool done = false;
    int64_t rows = 0;
    for (;;) {
      auto batch = reader.NextBatch(&done);
      if (done) break;
      rows += static_cast<int64_t>(batch->SelectedSize());
    }
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_AcidPointLookup)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hive

// AddressSanitizer replaces glibc's allocator, and its mallopt refuses every
// option, so such a build has no thresholds to pin.
#if defined(__SANITIZE_ADDRESS__)
#define HIVE_ASAN_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HIVE_ASAN_ALLOCATOR 1
#endif
#endif

// glibc moves its mmap and trim thresholds as the shared set-up allocates and
// frees, so each scan would run on a heap shaped by whatever ran before it:
// BM_ScanNonAcid moved by a fifth between builds that did not touch its
// code. Pinning both thresholds first, as
// GLIBC_TUNABLES=glibc.malloc.mmap_threshold=...:glibc.malloc.trim_threshold=...
// does, keeps the allocator's behaviour the same from run to run.
int main(int argc, char** argv) {
#ifdef HIVE_ASAN_ALLOCATOR
  std::fprintf(stderr,
               "AddressSanitizer build: glibc malloc thresholds not pinned, "
               "timings follow the sanitizer's allocator\n");
#else
  // 32 MiB is the largest mmap threshold glibc accepts on 64-bit hosts.
  if (mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1 || mallopt(M_TRIM_THRESHOLD, 1 << 30) != 1) {
    std::fprintf(stderr, "mallopt refused the pinned thresholds\n");
    return 1;
  }
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
