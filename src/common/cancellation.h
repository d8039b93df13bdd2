/// \file cancellation.h
/// Cooperative query cancellation and deadlines.
///
/// A CancellationToken is a thread-safe (and async-signal-safe) cancel flag;
/// a QueryContext bundles a token — owned, or external so a SIGINT handler
/// can share one flag across queries — with an optional absolute deadline.
/// The execution engine polls QueryContext::Check() once per chunk
/// (and the simulators once per gate), so a runaway query returns
/// StatusCode::kCancelled / kDeadlineExceeded within one unit of work
/// instead of running to completion.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace qy {

/// A sticky cancel flag. Cancel() may be called from any thread and — being
/// a single lock-free atomic store — from a signal handler.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Re-arm for a new query (controller-side only; not safe concurrently
  /// with a query that still polls this token).
  void Reset() { cancelled_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query execution context: cancel flag plus optional deadline. Shared
/// read-mostly between the coordinator and pool workers; Check() is two
/// relaxed-ish atomic loads (plus one clock read when a deadline is armed),
/// cheap enough for per-chunk polling.
class QueryContext {
 public:
  QueryContext() = default;
  /// Poll an external token (e.g. the CLI's SIGINT flag) instead of the
  /// owned one. `external == nullptr` falls back to the owned token.
  explicit QueryContext(CancellationToken* external)
      : token_(external != nullptr ? external : &own_) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  CancellationToken& token() { return *token_; }
  void Cancel() { token_->Cancel(); }
  bool cancelled() const { return token_->cancelled(); }

  /// Arm an absolute deadline on the steady clock.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Arm a deadline `timeout` from now. Zero or negative expires immediately.
  void SetTimeout(std::chrono::nanoseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }
  void SetTimeoutMs(int64_t ms) {
    SetTimeout(std::chrono::milliseconds(ms));
  }
  void ClearDeadline() { deadline_ns_.store(0, std::memory_order_relaxed); }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// kCancelled once the token fired, kDeadlineExceeded past the deadline,
  /// OK otherwise. The cancel flag wins when both hold.
  Status Check() const {
    if (token_->cancelled()) {
      return Status::Cancelled("query cancelled");
    }
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  CancellationToken own_;
  CancellationToken* token_ = &own_;
  /// steady_clock ns-since-epoch of the deadline; 0 = no deadline. The
  /// steady clock never reads 0 in practice (it counts from boot).
  std::atomic<int64_t> deadline_ns_{0};
};

}  // namespace qy
