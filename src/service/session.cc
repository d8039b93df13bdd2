#include "service/session.h"

#include <utility>

namespace qy::service {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() { return Clock::now().time_since_epoch().count(); }

sql::DatabaseOptions MakeDbOptions(const SessionOptions& options,
                                   MemoryTracker* global_tracker,
                                   const QueryContext* ctx) {
  sql::DatabaseOptions dopts;
  dopts.memory_budget_bytes = options.memory_budget_bytes;
  dopts.enable_spill = options.enable_spill;
  dopts.plan_cache_capacity = options.plan_cache_capacity;
  dopts.parent_tracker = global_tracker;
  dopts.query = ctx;
  return dopts;
}

}  // namespace

Session::Session(std::string name, SessionOptions options,
                 MemoryTracker* global_tracker)
    : name_(std::move(name)), options_(std::move(options)),
      global_tracker_(global_tracker),
      db_(MakeDbOptions(options_, global_tracker_, &ctx_)),
      last_used_ns_(NowNs()) {}

std::chrono::steady_clock::time_point Session::last_used() const {
  return Clock::time_point(
      Clock::duration(last_used_ns_.load(std::memory_order_relaxed)));
}

void Session::Touch() {
  last_used_ns_.store(NowNs(), std::memory_order_relaxed);
}

Status Session::AcquireExec(std::chrono::steady_clock::time_point deadline) {
  // The per-request deadline keeps ticking while waiting for the session's
  // turn: a request stuck behind a long query in the same session times out
  // like any other.
  std::unique_lock<std::mutex> lock(exec_mu_);
  if (deadline == Clock::time_point{}) {
    exec_cv_.wait(lock, [this] { return !busy_; });
  } else if (!exec_cv_.wait_until(lock, deadline,
                                  [this] { return !busy_; })) {
    return Status::DeadlineExceeded("session '" + name_ +
                                    "' busy past the request deadline");
  }
  busy_ = true;
  return Status::OK();
}

void Session::ReleaseExec() {
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    busy_ = false;
  }
  exec_cv_.notify_all();
}

Status Session::BeginRequest(std::chrono::steady_clock::time_point deadline) {
  if (closed()) {
    return Status::Unavailable("session '" + name_ + "' is closed");
  }
  ctx_.token().Reset();
  if (deadline != Clock::time_point{}) {
    ctx_.SetDeadline(deadline);
  } else {
    ctx_.ClearDeadline();
  }
  // Shutdown orders Reject() (closed_) before CancelInFlight(), so if the
  // Reset() above erased a shutdown cancel, this recheck observes closed_
  // and backs out before executing anything.
  if (closed()) {
    return Status::Unavailable("session '" + name_ + "' is closed");
  }
  in_flight_.store(true, std::memory_order_release);
  return Status::OK();
}

void Session::EndRequest() {
  ctx_.ClearDeadline();
  in_flight_.store(false, std::memory_order_release);
  last_used_ns_.store(NowNs(), std::memory_order_relaxed);
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
}

Result<sql::QueryResult> Session::Execute(
    const std::string& sql, std::chrono::steady_clock::time_point deadline) {
  QY_RETURN_IF_ERROR(AcquireExec(deadline));
  Status begin = BeginRequest(deadline);
  if (!begin.ok()) {
    ReleaseExec();
    return begin;
  }
  auto result = db_.Execute(sql);
  EndRequest();
  ReleaseExec();
  return result;
}

Result<core::RunSummary> Session::Simulate(
    const qc::QuantumCircuit& circuit,
    std::chrono::steady_clock::time_point deadline) {
  QY_RETURN_IF_ERROR(AcquireExec(deadline));
  Status begin = BeginRequest(deadline);
  if (!begin.ok()) {
    ReleaseExec();
    return begin;
  }

  core::QymeraOptions qopts;
  qopts.base.memory_budget_bytes = options_.memory_budget_bytes;
  qopts.base.query = &ctx_;
  if (!options_.checkpoint_dir.empty()) {
    qopts.base.checkpoint_dir = options_.checkpoint_dir;
    qopts.base.checkpoint_every_n_gates = 1;
  }
  qopts.enable_spill = options_.enable_spill;
  // Nest the run under the session's tracker (and through it the global
  // budget): a simulation and the session's resident tables share one cap.
  qopts.parent_tracker = &db_.tracker();
  core::QymeraSimulator simulator(qopts);
  auto summary = simulator.Execute(circuit);
  EndRequest();
  ReleaseExec();
  return summary;
}

void Session::Reject() { closed_.store(true, std::memory_order_release); }

void Session::CancelInFlight() { ctx_.Cancel(); }

bool Session::WaitIdle(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(exec_mu_);
  if (deadline == Clock::time_point{}) {
    exec_cv_.wait(lock, [this] { return !busy_; });
    return true;
  }
  return exec_cv_.wait_until(lock, deadline, [this] { return !busy_; });
}

SessionManager::SessionManager(MemoryTracker* global_tracker,
                               SessionOptions defaults,
                               std::chrono::milliseconds idle_timeout)
    : global_tracker_(global_tracker),
      defaults_(std::move(defaults)), idle_timeout_(idle_timeout) {}

Result<std::shared_ptr<Session>> SessionManager::GetOrCreate(
    const std::string& name) {
  return GetOrCreate(name, defaults_);
}

Result<std::shared_ptr<Session>> SessionManager::GetOrCreate(
    const std::string& name, const SessionOptions& options) {
  std::string key = name.empty() ? "default" : name;
  if (key.size() > 128) {
    return Status::InvalidArgument("session name longer than 128 bytes");
  }
  for (unsigned char c : key) {
    if (c < 0x20 || c == 0x7f) {
      return Status::InvalidArgument(
          "session name contains control characters");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down()) {
    return Status::Unavailable("service is shutting down");
  }
  auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    it->second->Touch();  // resolving for a request counts as use
    return it->second;
  }
  auto session =
      std::make_shared<Session>(key, options, global_tracker_);
  sessions_.emplace(key, session);
  ++stats_.created;
  return session;
}

std::shared_ptr<Session> SessionManager::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name.empty() ? "default" : name);
  return it == sessions_.end() ? nullptr : it->second;
}

Status SessionManager::Close(const std::string& name) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(name.empty() ? "default" : name);
    if (it == sessions_.end()) {
      return Status::NotFound("no session named '" + name + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    ++stats_.closed;
  }
  // Drain outside the map lock: the in-flight query (if any) finishes, new
  // work is already impossible (the name no longer resolves here and the
  // session rejects).
  session->Reject();
  session->WaitIdle();
  return Status::OK();
}

size_t SessionManager::SweepIdle() {
  if (idle_timeout_ <= std::chrono::milliseconds::zero()) return 0;
  std::vector<std::shared_ptr<Session>> swept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto now = std::chrono::steady_clock::now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      if (!s.in_flight() && now - s.last_used() >= idle_timeout_) {
        swept.push_back(std::move(it->second));
        it = sessions_.erase(it);
        ++stats_.idle_swept;
      } else {
        ++it;
      }
    }
  }
  for (auto& s : swept) {
    s->Reject();
    s->WaitIdle();
  }
  return swept.size();
}

void SessionManager::Shutdown(std::chrono::milliseconds grace) {
  shutting_down_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, session] : sessions_) all.push_back(session);
    sessions_.clear();
  }
  // Phase 1: reject new work, give in-flight queries the grace period.
  for (auto& s : all) s->Reject();
  auto deadline = std::chrono::steady_clock::now() + grace;
  for (auto& s : all) {
    if (!s->WaitIdle(deadline)) {
      // Phase 2: cooperative cancel; the engine polls per chunk, so
      // the drain below completes promptly.
      s->CancelInFlight();
    }
  }
  for (auto& s : all) s->WaitIdle();
}

size_t SessionManager::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::string> SessionManager::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) out.push_back(name);
  return out;
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qy::service
