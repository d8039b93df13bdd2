/// \file service.h
/// The concurrent simulation service: one object owning the process-wide
/// memory budget, admission control and the session map, with a single
/// in-process entry point (Submit) that the socket server and embedders
/// share.
///
/// Request flow for query/simulate:
///   1. resolve the per-request deadline (timeout_ms -> absolute steady time)
///   2. find or create the target session
///   3. pass admission (slot + declared memory cost; FIFO queue on overload)
///   4. execute inside the session on the caller's thread (serialized per
///      session, concurrent across sessions, every reservation charged to
///      the session budget AND the global budget)
/// Admission declares each query's cost as its session's memory budget, so
/// the admission memory budget bounds the worst-case global working set; an
/// unlimited session budget declares zero (slot-only admission).
///
/// Shutdown(grace) is the graceful path: admission closes (queued requests
/// get kUnavailable), sessions reject new work, in-flight queries get
/// `grace` to drain and are then cancelled cooperatively. After Shutdown
/// returns no query is executing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "service/admission.h"
#include "service/protocol.h"
#include "service/session.h"

namespace qy::service {

struct ServiceOptions {
  /// Ignored; execution is serial. Kept only because perfbench/driver sets it.
  size_t num_threads = 0;
  /// Process-wide memory budget: the global tracker every session nests
  /// under, and the admission controller's memory dimension.
  uint64_t memory_budget_bytes = MemoryTracker::kUnlimited;
  size_t max_concurrent_queries = 4;
  size_t max_queue_depth = 64;
  /// Defaults for sessions created without explicit options.
  SessionOptions session_defaults;
  /// Idle sessions are garbage-collected after this long; <= 0 disables the
  /// reaper thread.
  int64_t session_idle_timeout_ms = 0;
  /// SELECT responses return at most this many rows AND roughly this many
  /// payload bytes over the protocol (the rest is reported, not shipped) so
  /// wide rows cannot encode past the 16 MiB frame cap — the byte default
  /// leaves headroom for JSON escaping and framing. In-process callers using
  /// Session::Execute directly are not truncated.
  uint64_t max_response_rows = 65536;
  uint64_t max_response_bytes = 8ull << 20;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Execute one protocol request. Never throws and never returns a broken
  /// response: all failures are encoded in Response::status (with the
  /// retryable bit derived from the code). Safe to call from any number of
  /// threads concurrently.
  Response Submit(const Request& request);

  /// Graceful shutdown (idempotent): close admission, reject new session
  /// work, give in-flight queries `grace`, cancel stragglers, drain fully.
  void Shutdown(std::chrono::milliseconds grace = std::chrono::seconds(5));

  /// Has a client asked for shutdown (op=shutdown)? Submit only records the
  /// request — the owner (the socket server loop) observes it and calls
  /// Shutdown(), avoiding a drain-from-within-a-request deadlock.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// Block until shutdown_requested() (or `deadline`, {} = forever).
  bool WaitForShutdownRequest(
      std::chrono::steady_clock::time_point deadline = {});
  /// Record a shutdown request (also what op=shutdown does internally).
  void RequestShutdown();

  /// One JSON object with admission, session and memory counters — the
  /// payload of op=stats and of the CLI's --stats-json.
  JsonValue StatsJson() const;

  SessionManager& sessions() { return *sessions_; }
  AdmissionController& admission() { return *admission_; }
  MemoryTracker& tracker() { return tracker_; }
  /// Always nullptr: there is no worker pool. Kept only because
  /// perfbench/driver checks `pool()->Quiescent()` after Shutdown.
  struct NoPool {
    bool Quiescent() const { return true; }
  };
  const NoPool* pool() const { return nullptr; }
  const ServiceOptions& options() const { return options_; }

 private:
  Response HandleQuery(const Request& request,
                       std::chrono::steady_clock::time_point deadline);
  Response HandleSimulate(const Request& request,
                          std::chrono::steady_clock::time_point deadline);
  Response HandleOpenSession(const Request& request);
  /// Admission + session lookup shared by query/simulate. On success fills
  /// `session` and `ticket`.
  Status AdmitTo(const std::string& session_name,
                 std::chrono::steady_clock::time_point deadline,
                 std::shared_ptr<Session>* session,
                 AdmissionController::Ticket* ticket);

  const ServiceOptions options_;
  MemoryTracker tracker_;               ///< global budget (parent of sessions)
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<SessionManager> sessions_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> shut_down_{false};
  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;

  std::thread reaper_;                  ///< idle-session GC (optional)
  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;
};

}  // namespace qy::service
