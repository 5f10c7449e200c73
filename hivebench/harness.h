#ifndef HIVEBENCH_HARNESS_H_
#define HIVEBENCH_HARNESS_H_

// Shared types of the repository benchmark: the seeded statement stream, the
// server a workload runs against, and the interface each workload
// implements. See README.md for what each workload measures and why.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fs/mem_filesystem.h"
#include "server/hive_server.h"

namespace hivebench {

class CountingFileSystem;

/// One statement of a workload's stream.
struct Stmt {
  std::string sql;
  bool is_read = true;
  /// Index into Workload::TemplateNames().
  int tmpl = 0;
  /// For EXECUTE of a prepared SELECT: the same query with its argument
  /// substituted, which the traced run parses, binds and optimizes itself.
  std::string adhoc_sql;
  /// Bytes of user data a DML statement writes per affected row (the row
  /// payload, or the key for a delete); the base of storage.write_amp.
  int64_t user_bytes = 0;
};

/// What the timed loop recorded for one executed statement.
struct StmtRecord {
  size_t index = 0;  // position in the stream
  int64_t latency_ns = 0;
  bool ok = false;
  uint64_t digest = 0;
  int64_t rows_affected = 0;
};

/// One server with its storage and the single client connection every
/// workload drives. Members are destroyed in reverse order: the connection
/// closes before the server, the server before the file system.
struct Env {
  std::unique_ptr<hive::MemFileSystem> mem;
  std::unique_ptr<CountingFileSystem> counting;  // traced runs only
  std::unique_ptr<hive::HiveServer2> server;
  hive::Connection conn;

  Env();
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
};

/// Engine-wide metric deltas over the timed loop (MetricsRegistry names).
using MetricDelta = std::map<std::string, int64_t>;

/// `name`'s delta, 0 when the metric never moved.
int64_t Delta(const MetricDelta& delta, const char* name);

/// Order-sensitive digest of a statement's result rows.
uint64_t DigestRows(const std::vector<std::vector<hive::Value>>& rows);

/// Exits on an error in set-up or in the probes: a benchmark over a
/// half-built table would measure the wrong thing.
void Must(const hive::Status& status, const std::string& what);

/// A seeded workload: data, statement stream, result verification and the
/// check that its mechanism was exercised.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Statement template names, indexed by Stmt::tmpl.
  virtual std::vector<std::string> TemplateNames() const = 0;
  /// Server default config: the engine default plus this workload's knobs.
  virtual hive::Config ServerConfig() const { return hive::Config(); }
  /// Loads data and prepares the session; part of set-up.
  virtual void Load(Env& env) = 0;
  /// The warm-up pass that ends set-up.
  virtual std::vector<std::string> WarmUp() const = 0;
  /// The statement stream, generated from the seed before anything is timed.
  const std::vector<Stmt>& stream() const { return stream_; }
  /// Statements per deck (see DeckOrder); the timed loop stops only at a
  /// deck boundary, so every run holds whole decks.
  size_t deck_size() const { return deck_size_; }

  /// Checks the result of every executed statement; returns how many did
  /// not match, describing each mismatch on stderr.
  virtual int64_t Verify(Env& env, const std::vector<StmtRecord>& records) = 0;
  /// Checks the timed loop exercised this workload's mechanism; `sizes`
  /// gets the numbers behind the check.
  virtual bool CheckMechanism(Env& env, const std::vector<StmtRecord>& records,
                              const MetricDelta& delta, std::string* sizes) = 0;

  /// Table whose files the standalone storage, cache and filter probes read.
  virtual std::string ProbeTable() const = 0;
  /// Predicates the filter probe times, keyed by template kind (numeric,
  /// like, case, upper, substr), over ProbeTable()'s columns.
  virtual std::vector<std::pair<std::string, std::string>> FilterProbes() const = 0;

 protected:
  /// Template order of a stream of `n` statements: back-to-back decks, each
  /// holding template t exactly `copies[t]` times in an order shuffled by
  /// `rng`. Every deck then has the workload's exact mix, so a run's
  /// throughput and percentiles do not move with sampling luck. Sets
  /// deck_size().
  std::vector<int> DeckOrder(const std::vector<int>& copies, size_t n, hive::Rng& rng);

  std::vector<Stmt> stream_;
  size_t deck_size_ = 1;
};

std::unique_ptr<Workload> MakeBiWarm(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeScanCold(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeAcidChurn(uint64_t seed, bool smoke);

/// bi_warm and scan_cold: re-runs each distinct executed statement on a
/// second connection under the serial reference config (1 executor, LLAP
/// off, result cache off) and compares result digests.
int64_t VerifyAgainstReference(Env& env, const std::vector<Stmt>& stream,
                               const std::vector<StmtRecord>& records);

}  // namespace hivebench

#endif  // HIVEBENCH_HARNESS_H_
