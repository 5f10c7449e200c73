#include "server/connection_manager.h"

#include "fs/filesystem.h"
#include "metastore/catalog.h"
#include "obs/metrics.h"
#include "server/hive_server.h"
#include "server/result_cache.h"
#include "server/workload_manager.h"
#include "obs/metric_names.h"

namespace hive {

// --- Session ---

Status Session::BeginStatement() {
  MutexLock lock(&mu_);
  if (closed_) return Status::InvalidArgument("connection is closed");
  ++inflight_;
  return Status::OK();
}

void Session::EndStatement() {
  MutexLock lock(&mu_);
  if (--inflight_ == 0) drained_cv_.NotifyAll();
}

uint64_t Session::RegisterCancel(std::shared_ptr<std::atomic<bool>> cancelled,
                                 std::shared_ptr<KillReason> kill_reason) {
  MutexLock lock(&mu_);
  if (closed_) {
    // Teardown already swept the registration map; fire the hooks directly
    // so this statement aborts at its next interruption point.
    kill_reason->Set("session closed");
    cancelled->store(true, std::memory_order_release);
  }
  uint64_t token = next_cancel_token_++;
  cancels_[token] = {std::move(cancelled), std::move(kill_reason)};
  return token;
}

void Session::UnregisterCancel(uint64_t token) {
  MutexLock lock(&mu_);
  cancels_.erase(token);
}

bool Session::closed() const {
  MutexLock lock(&mu_);
  return closed_;
}

std::string Session::TempPhysicalName(uint64_t session_id,
                                      const std::string& name) {
  return "s" + std::to_string(session_id) + "_" + name;
}

bool Session::ResolveTempTable(std::string* db, std::string* table) const {
  if (!db->empty()) return false;
  MutexLock lock(&mu_);
  auto it = temp_tables_.find(*table);
  if (it == temp_tables_.end()) return false;
  *db = kTempDatabase;
  *table = it->second;
  return true;
}

Status Session::AddTempTable(const std::string& name,
                             const std::string& physical) {
  MutexLock lock(&mu_);
  if (!temp_tables_.emplace(name, physical).second)
    return Status::AlreadyExists("temporary table '" + name +
                                 "' already exists in this session");
  return Status::OK();
}

bool Session::RemoveTempTable(const std::string& name, std::string* physical) {
  MutexLock lock(&mu_);
  auto it = temp_tables_.find(name);
  if (it == temp_tables_.end()) return false;
  *physical = it->second;
  temp_tables_.erase(it);
  return true;
}

std::map<std::string, std::string> Session::TempTables() const {
  MutexLock lock(&mu_);
  return temp_tables_;
}

Status Session::AddPrepared(PreparedStatement stmt) {
  MutexLock lock(&mu_);
  std::string name = stmt.name;
  if (!prepared_.emplace(name, std::move(stmt)).second)
    return Status::AlreadyExists("prepared statement '" + name +
                                 "' already exists");
  return Status::OK();
}

Result<PreparedStatement> Session::GetPrepared(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = prepared_.find(name);
  if (it == prepared_.end())
    return Status::NotFound("prepared statement '" + name + "'");
  return it->second;
}

Status Session::RemovePrepared(const std::string& name) {
  MutexLock lock(&mu_);
  if (prepared_.erase(name) == 0)
    return Status::NotFound("prepared statement '" + name + "'");
  return Status::OK();
}

// --- Connection ---

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    if (session_) {
      // lint: allow-discard(move-assignment cannot propagate close errors)
      (void)Close();
    }
    server_ = other.server_;
    manager_ = other.manager_;
    session_ = std::move(other.session_);
    other.server_ = nullptr;
    other.manager_ = nullptr;
  }
  return *this;
}

Connection::~Connection() {
  // lint: allow-discard(destructor cannot propagate close errors)
  if (session_) (void)Close();
}

Result<QueryResult> Connection::Execute(const std::string& sql) {
  if (!session_) return Status::InvalidArgument("connection is closed");
  return server_->ExecuteOn(session_.get(), sql);
}

Result<std::vector<QueryResult>> Connection::ExecuteScript(
    const std::string& sql) {
  if (!session_) return Status::InvalidArgument("connection is closed");
  return server_->ExecuteScriptOn(session_.get(), sql);
}

bool Connection::open() const { return session_ && !session_->closed(); }

Status Connection::Close() {
  if (!session_ || !manager_) return Status::OK();
  return manager_->Close(session_);
}

// --- ConnectionManager ---

ConnectionManager::ConnectionManager(HiveServer2* server, Catalog* catalog,
                                     QueryResultCache* result_cache,
                                     FileSystem* fs, WorkloadManager* wm,
                                     obs::MetricsRegistry* metrics)
    : server_(server),
      catalog_(catalog),
      result_cache_(result_cache),
      fs_(fs),
      wm_(wm),
      metrics_(metrics) {
  opened_counter_ = metrics_->counter(obs::metric::kSessionsOpened);
  closed_counter_ = metrics_->counter(obs::metric::kSessionsClosed);
  metrics_->RegisterCallback(obs::metric::kSessionsActive,
                             [this] { return active(); });
}

std::shared_ptr<Session> ConnectionManager::MakeSession(
    const std::string& application, const Config& defaults) {
  // make_shared needs a public constructor; Session's is private to keep
  // construction inside this translation unit.
  std::shared_ptr<Session> session(new Session());
  session->application = application;
  session->config = defaults;
  session->open_defaults = defaults;
  MutexLock lock(&mu_);
  session->id = next_id_++;
  sessions_[session->id] = session;
  active_.store(static_cast<int64_t>(sessions_.size()),
                std::memory_order_relaxed);
  opened_counter_->Inc();
  return session;
}

Connection ConnectionManager::Connect(const std::string& application,
                                      const Config& defaults) {
  return Connection(server_, this, MakeSession(application, defaults));
}

Status ConnectionManager::Close(const std::shared_ptr<Session>& session) {
  if (!session) return Status::OK();
  {
    MutexLock lock(&session->mu_);
    if (session->closed_) return Status::OK();  // idempotent
    session->closed_ = true;
    // Cancel everything in flight: running queries abort at their next
    // interruption point, queued admissions fail with this reason.
    for (auto& [token, hooks] : session->cancels_) {
      hooks.kill_reason->Set("session closed");
      hooks.cancelled->store(true, std::memory_order_release);
    }
    session->cancels_.clear();
  }
  // Queued admissions block on the workload manager's condvar, not on any
  // session state: kick them awake so they observe the cancellation.
  wm_->Kick();
  {
    MutexLock lock(&session->mu_);
    while (session->inflight_ > 0) session->drained_cv_.Wait(lock);
  }
  // From here no statement is running and BeginStatement rejects new ones,
  // so session state is safe to read without the session lock.
  for (const auto& [name, physical] : session->temp_tables_) {
    // lint: allow-discard(best-effort temp-table cleanup at close)
    (void)catalog_->DropTable(kTempDatabase, physical);
    result_cache_->InvalidateTable(std::string(kTempDatabase) + "." + physical);
  }
  session->temp_tables_.clear();
  session->prepared_.clear();
  if (!session->config.spill_dir.empty()) {
    // The whole session spill namespace (TryExecuteSelect spills under
    // <spill_dir>/s<sid>/q<qid>) goes at once; per-query teardown already
    // removed the common case.
    // lint: allow-discard(best-effort spill cleanup at close)
    (void)fs_->DeleteRecursive(session->config.spill_dir + "/s" +
                               std::to_string(session->id));
  }
  closed_counter_->Inc();
  MutexLock lock(&mu_);
  sessions_.erase(session->id);
  active_.store(static_cast<int64_t>(sessions_.size()),
                std::memory_order_relaxed);
  return Status::OK();
}

void ConnectionManager::CloseAll() {
  std::vector<std::shared_ptr<Session>> remaining;
  {
    MutexLock lock(&mu_);
    for (auto& [id, session] : sessions_) remaining.push_back(session);
  }
  for (const std::shared_ptr<Session>& session : remaining) {
    // lint: allow-discard(shutdown path; Close only errors on null session)
    (void)Close(session);
  }
}

}  // namespace hive
