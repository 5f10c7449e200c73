#ifndef HIVE_SERVER_CONNECTION_MANAGER_H_
#define HIVE_SERVER_CONNECTION_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/config.h"
#include "common/status.h"
#include "common/sync.h"
#include "server/prepared_statement.h"
#include "server/query_result.h"

namespace hive {

class Catalog;
class ConnectionManager;
class FileSystem;
class HiveServer2;
class QueryResultCache;
class WorkloadManager;
namespace obs {
class MetricsRegistry;
class Counter;
}  // namespace obs

/// Hidden database where session temp tables physically live; each table is
/// name-mangled with its owning session id, so two sessions' `CREATE
/// TEMPORARY TABLE t` never collide and SHOW TABLES never lists them.
inline constexpr char kTempDatabase[] = "__temp";

/// Per-connection server-side state: identity, current database, config
/// overrides, temporary tables, prepared statements, and the lifecycle
/// bookkeeping (in-flight statement count, cancellation hooks) that lets
/// ConnectionManager tear a session down deterministically.
///
/// Sessions are created only by ConnectionManager (the constructor is
/// private and hivelint's session-construct rule backs that up); everything
/// else holds a Connection handle or a Session pointer borrowed from one.
class Session {
 public:
  uint64_t id = 0;
  std::string application;
  std::string database = "default";
  /// Session-level settings, seeded from the server default at open time.
  /// Reads should go through Config layering (LayerConfig in config.h):
  /// a field the session never touched tracks the *live* server default.
  Config config;
  /// Snapshot of the server default at open time; layering compares against
  /// this to tell a session override from an inherited default.
  Config open_defaults;

  /// Registers a statement start. Fails once the session is closed — this
  /// is where "execute after close" turns into a clean error.
  Status BeginStatement();
  void EndStatement();

  /// Registers a running statement's cancellation hooks so Close can abort
  /// it. If the session is already closing, the hooks fire immediately.
  /// Returns a token for UnregisterCancel.
  uint64_t RegisterCancel(std::shared_ptr<std::atomic<bool>> cancelled,
                          std::shared_ptr<KillReason> kill_reason);
  void UnregisterCancel(uint64_t token);

  bool closed() const;

  // --- temporary tables (logical name -> physical name in __temp) ---

  /// Physical name of a session temp table: "s<sid>_<name>".
  static std::string TempPhysicalName(uint64_t session_id,
                                      const std::string& name);

  /// When `*db` is empty and `*table` names a session temp table, rewrites
  /// them to the physical (__temp, s<sid>_<name>) location. Returns true
  /// when it rewrote.
  bool ResolveTempTable(std::string* db, std::string* table) const;
  Status AddTempTable(const std::string& name, const std::string& physical);
  /// Forgets `name`, returning its physical name through `*physical`.
  bool RemoveTempTable(const std::string& name, std::string* physical);
  std::map<std::string, std::string> TempTables() const;

  // --- prepared statements ---

  Status AddPrepared(PreparedStatement stmt);
  Result<PreparedStatement> GetPrepared(const std::string& name) const;
  Status RemovePrepared(const std::string& name);

 private:
  friend class ConnectionManager;
  Session() = default;

  struct CancelHooks {
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::shared_ptr<KillReason> kill_reason;
  };

  mutable Mutex mu_{"server.session.mu"};
  /// Signalled when the last in-flight statement ends (Close waits on it).
  CondVar drained_cv_;
  bool closed_ HIVE_GUARDED_BY(mu_) = false;
  int inflight_ HIVE_GUARDED_BY(mu_) = 0;
  uint64_t next_cancel_token_ HIVE_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, CancelHooks> cancels_ HIVE_GUARDED_BY(mu_);
  std::map<std::string, std::string> temp_tables_ HIVE_GUARDED_BY(mu_);
  std::map<std::string, PreparedStatement> prepared_ HIVE_GUARDED_BY(mu_);
};

/// RAII handle over a server session — the public way to talk to
/// HiveServer2. Move-only; closing (explicitly or via the destructor) tears
/// the session down deterministically: new statements are rejected,
/// in-flight and queued queries are cancelled and drained, temp tables and
/// prepared statements are dropped, and the session's spill namespace is
/// deleted. Close is idempotent; Execute after Close returns a clean
/// "connection is closed" error. A Connection must not outlive its server.
class Connection {
 public:
  Connection() = default;
  Connection(Connection&& other) noexcept { *this = std::move(other); }
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  /// Executes one SQL statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Runs a ';'-separated script, returning every statement's result in
  /// order. Fails on the first statement that errors.
  Result<std::vector<QueryResult>> ExecuteScript(const std::string& sql);

  /// True until Close (explicit or via another handle) ran.
  bool open() const;

  /// Closes the connection; safe to call more than once.
  Status Close();

  /// Session-level config overrides (see Config layering in config.h).
  Config& config() { return session_->config; }
  const std::string& database() const { return session_->database; }
  void set_database(std::string db) { session_->database = std::move(db); }
  const std::string& application() const { return session_->application; }
  uint64_t id() const { return session_ ? session_->id : 0; }
  HiveServer2* server() const { return server_; }

 private:
  friend class ConnectionManager;
  Connection(HiveServer2* server, ConnectionManager* manager,
             std::shared_ptr<Session> session)
      : server_(server), manager_(manager), session_(std::move(session)) {}

  HiveServer2* server_ = nullptr;
  ConnectionManager* manager_ = nullptr;
  /// Shared with the manager's registry; keeps state like config/database
  /// readable after Close (the server-side registration is gone by then).
  std::shared_ptr<Session> session_;
};

/// Owns every session of one server: hands out Connection handles, tracks
/// the registry for metrics, and performs deterministic teardown on close
/// (cancel in-flight queries, wait for them to drain, drop temp objects and
/// prepared statements, delete the session's spill namespace).
class ConnectionManager {
 public:
  ConnectionManager(HiveServer2* server, Catalog* catalog,
                    QueryResultCache* result_cache, FileSystem* fs,
                    WorkloadManager* wm, obs::MetricsRegistry* metrics);
  ~ConnectionManager() { CloseAll(); }

  /// Opens a session and returns its RAII handle.
  Connection Connect(const std::string& application, const Config& defaults);

  /// Tears the session down (idempotent). See Connection::Close.
  Status Close(const std::shared_ptr<Session>& session);

  /// Closes every remaining session (server shutdown).
  void CloseAll();

  int64_t active() const { return active_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<Session> MakeSession(const std::string& application,
                                       const Config& defaults);

  HiveServer2* server_;
  Catalog* catalog_;
  QueryResultCache* result_cache_;
  FileSystem* fs_;
  WorkloadManager* wm_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* opened_counter_ = nullptr;
  obs::Counter* closed_counter_ = nullptr;

  mutable Mutex mu_{"server.sessions.mu"};
  std::map<uint64_t, std::shared_ptr<Session>> sessions_ HIVE_GUARDED_BY(mu_);
  uint64_t next_id_ HIVE_GUARDED_BY(mu_) = 1;
  /// Mirror of sessions_.size() readable without mu_ so the
  /// "server.sessions.active" gauge can't deadlock against callers that
  /// already hold a lock ordered after mu_ (e.g. WLM trigger evaluation).
  std::atomic<int64_t> active_{0};
};

}  // namespace hive

#endif  // HIVE_SERVER_CONNECTION_MANAGER_H_
