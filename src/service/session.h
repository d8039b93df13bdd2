/// \file session.h
/// Named sessions for the concurrent query service.
///
/// A Session is the unit of multi-tenancy: it owns a sql::Database whose
/// memory tracker nests under the service's global budget, plus a reusable
/// QueryContext so every request gets a deadline and graceful shutdown can
/// cancel in-flight work. Queries within one session execute serially (a
/// session models one client connection's state); concurrency comes from
/// running many sessions on the callers' threads.
///
/// The SessionManager maps names to live sessions, garbage-collects sessions
/// that have been idle past a configurable timeout, and implements graceful
/// shutdown: new work is rejected with kUnavailable, in-flight queries are
/// given a grace period to drain, then cancelled cooperatively.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/qymera_sim.h"
#include "sql/database.h"

namespace qy::service {

struct SessionOptions {
  /// Per-session memory budget; reservations also charge the service's
  /// global tracker.
  uint64_t memory_budget_bytes = MemoryTracker::kUnlimited;
  bool enable_spill = true;
  size_t plan_cache_capacity = 64;
  /// Simulation requests checkpoint into this directory when set.
  std::string checkpoint_dir;
};

class Session {
 public:
  /// `global_tracker` is borrowed from the service and must outlive the
  /// session; it may be nullptr (unbudgeted).
  Session(std::string name, SessionOptions options,
          MemoryTracker* global_tracker);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  const SessionOptions& options() const { return options_; }

  /// Execute one SQL statement. `deadline` bounds the execution (time_point
  /// min/default = none). Queries within the session are serialized; the
  /// deadline keeps ticking while waiting for the session lock.
  Result<sql::QueryResult> Execute(
      const std::string& sql,
      std::chrono::steady_clock::time_point deadline = {});

  /// Run a circuit on the qymera-sql backend inside this session's budget,
  /// returning the run counters (the state stays relational; protocol
  /// clients read amplitudes with follow-up queries if they need them).
  Result<core::RunSummary> Simulate(
      const qc::QuantumCircuit& circuit,
      std::chrono::steady_clock::time_point deadline = {});

  /// Reject all future work with kUnavailable. In-flight queries keep
  /// running (drain); call CancelInFlight() to stop them cooperatively.
  void Reject();
  /// Cancel whatever is currently executing (sticky until the session dies).
  void CancelInFlight();
  /// Block until no query is executing, up to `deadline` ({} = forever).
  /// Returns false on timeout.
  bool WaitIdle(std::chrono::steady_clock::time_point deadline = {});

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  bool in_flight() const { return in_flight_.load(std::memory_order_acquire); }
  /// Steady-clock time of the last completed request (creation time before
  /// any), for idle GC.
  std::chrono::steady_clock::time_point last_used() const;
  /// Refresh last_used() without running a query — resolving a session for
  /// an incoming request counts as use, keeping the idle GC off sessions a
  /// client is actively targeting.
  void Touch();
  uint64_t queries_executed() const {
    return queries_executed_.load(std::memory_order_relaxed);
  }

  sql::Database& db() { return db_; }

 private:
  /// Take the session's execution turn, waiting up to `deadline` ({} =
  /// forever). kDeadlineExceeded on timeout. Pair with ReleaseExec().
  /// A mutex+condvar gate rather than std::timed_mutex: libstdc++ implements
  /// timed_mutex::try_lock_until(steady_clock) via pthread_mutex_clocklock,
  /// which TSan does not intercept (false "unlock of unlocked mutex");
  /// pthread_cond_clockwait is intercepted.
  Status AcquireExec(std::chrono::steady_clock::time_point deadline);
  void ReleaseExec();

  /// Arm ctx_ for one request; fails with kUnavailable once closed.
  Status BeginRequest(std::chrono::steady_clock::time_point deadline);
  void EndRequest();

  const std::string name_;
  const SessionOptions options_;
  MemoryTracker* global_tracker_; ///< borrowed (may be nullptr)
  QueryContext ctx_;              ///< re-armed per request while executing
  sql::Database db_;
  std::mutex exec_mu_;            ///< guards busy_, with exec_cv_
  std::condition_variable exec_cv_;
  bool busy_ = false;             ///< one query executes at a time
  std::atomic<bool> closed_{false};
  std::atomic<bool> in_flight_{false};
  std::atomic<int64_t> last_used_ns_;
  std::atomic<uint64_t> queries_executed_{0};
};

struct SessionManagerStats {
  uint64_t created = 0;
  uint64_t closed = 0;      ///< explicit closes
  uint64_t idle_swept = 0;  ///< removed by the idle GC
};

class SessionManager {
 public:
  /// `defaults` seed every session created without explicit options.
  /// idle_timeout <= 0 disables the idle GC.
  SessionManager(MemoryTracker* global_tracker, SessionOptions defaults,
                 std::chrono::milliseconds idle_timeout);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Find or create the named session ("" resolves to "default").
  /// kUnavailable once shutdown has begun.
  Result<std::shared_ptr<Session>> GetOrCreate(const std::string& name);
  Result<std::shared_ptr<Session>> GetOrCreate(const std::string& name,
                                               const SessionOptions& options);

  /// nullptr when absent.
  std::shared_ptr<Session> Find(const std::string& name);

  /// Drain and remove one session (kNotFound when absent). The session's
  /// in-flight query finishes first; queued callers get kUnavailable.
  Status Close(const std::string& name);

  /// Remove sessions idle past the timeout with nothing in flight. Returns
  /// the number removed. No-op when the timeout is disabled.
  size_t SweepIdle();

  /// Graceful shutdown: reject new work everywhere, give in-flight queries
  /// `grace` to finish, cancel stragglers, then wait for full drain and
  /// drop all sessions. Idempotent.
  void Shutdown(std::chrono::milliseconds grace);

  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }
  size_t count() const;
  std::vector<std::string> names() const;
  SessionManagerStats stats() const;

 private:
  MemoryTracker* global_tracker_;
  const SessionOptions defaults_;
  const std::chrono::milliseconds idle_timeout_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::atomic<bool> shutting_down_{false};
  SessionManagerStats stats_;
};

}  // namespace qy::service
