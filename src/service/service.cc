#include "service/service.h"

#include <algorithm>
#include <utility>

#include "circuit/json_io.h"

namespace qy::service {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point DeadlineFromTimeout(int64_t timeout_ms) {
  if (timeout_ms <= 0) return {};
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

Response ErrorResponse(Status status) {
  Response response;
  response.status = std::move(status);
  return response;
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)), tracker_(options_.memory_budget_bytes) {
  AdmissionOptions aopts;
  aopts.max_concurrent_queries = options_.max_concurrent_queries;
  aopts.memory_budget_bytes = options_.memory_budget_bytes;
  aopts.max_queue_depth = options_.max_queue_depth;
  admission_ = std::make_unique<AdmissionController>(aopts);

  sessions_ = std::make_unique<SessionManager>(
      &tracker_, options_.session_defaults,
      std::chrono::milliseconds(options_.session_idle_timeout_ms));

  if (options_.session_idle_timeout_ms > 0) {
    reaper_ = std::thread([this] {
      auto period = std::chrono::milliseconds(
          std::max<int64_t>(options_.session_idle_timeout_ms / 2, 10));
      std::unique_lock<std::mutex> lock(reaper_mu_);
      while (!reaper_stop_) {
        reaper_cv_.wait_for(lock, period);
        if (reaper_stop_) break;
        lock.unlock();
        sessions_->SweepIdle();
        lock.lock();
      }
    });
  }
}

Service::~Service() { Shutdown(std::chrono::milliseconds(0)); }

Status Service::AdmitTo(const std::string& session_name,
                        Clock::time_point deadline,
                        std::shared_ptr<Session>* session,
                        AdmissionController::Ticket* ticket) {
  QY_ASSIGN_OR_RETURN(*session, sessions_->GetOrCreate(session_name));
  // Declared cost = the session's memory cap, so the admission budget bounds
  // the worst-case sum of all running sessions' working sets. An unbudgeted
  // session declares zero: admission then only meters slots.
  uint64_t budget = (*session)->options().memory_budget_bytes;
  uint64_t declared = budget == MemoryTracker::kUnlimited ? 0 : budget;
  QueryContext wait_ctx;
  if (deadline != Clock::time_point{}) wait_ctx.SetDeadline(deadline);
  QY_ASSIGN_OR_RETURN(*ticket, admission_->Admit(declared, &wait_ctx));
  // The admission wait can outlast the idle timeout, and the reaper only
  // looks at last_used/in_flight — it cannot see a request queued for this
  // session. Re-resolve after the grant (preserving the options we admitted
  // under) so a sweep during the wait recreates the session instead of
  // failing the admitted request with kUnavailable.
  QY_ASSIGN_OR_RETURN(
      *session, sessions_->GetOrCreate(session_name, (*session)->options()));
  return Status::OK();
}

Response Service::HandleQuery(const Request& request,
                              Clock::time_point deadline) {
  std::shared_ptr<Session> session;
  AdmissionController::Ticket ticket;
  Status admitted = AdmitTo(request.session, deadline, &session, &ticket);
  if (!admitted.ok()) return ErrorResponse(std::move(admitted));

  auto result = session->Execute(request.sql, deadline);
  if (!result.ok()) return ErrorResponse(result.status());

  Response response;
  const sql::QueryResult& rows = result.value();
  response.rows_changed = rows.rows_changed;
  if (rows.has_rows()) {
    const sql::Schema& schema = rows.schema();
    response.columns.reserve(schema.NumColumns());
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      response.columns.push_back(schema.column(c).name);
    }
    uint64_t total = rows.NumRows();
    uint64_t row_cap = std::min<uint64_t>(total, options_.max_response_rows);
    // Cap by bytes as well as rows: wide rows must not encode past the
    // frame cap. The estimate (cell bytes + per-cell JSON overhead) is
    // approximate; the server holds a hard line at kMaxFrameBytes.
    uint64_t bytes = 0;
    uint64_t shipped = 0;
    response.rows.reserve(row_cap);
    for (uint64_t r = 0; r < row_cap; ++r) {
      std::vector<std::string> cells;
      cells.reserve(schema.NumColumns());
      uint64_t row_bytes = 2;
      for (size_t c = 0; c < schema.NumColumns(); ++c) {
        cells.push_back(rows.GetString(r, c));
        row_bytes += cells.back().size() + 8;
      }
      if (bytes + row_bytes > options_.max_response_bytes) break;
      bytes += row_bytes;
      response.rows.push_back(std::move(cells));
      ++shipped;
    }
    if (shipped < total) {
      JsonValue stats{JsonValue::Object{}};
      stats.Set("total_rows", static_cast<int64_t>(total));
      stats.Set("returned_rows", static_cast<int64_t>(shipped));
      stats.Set("truncated", true);
      response.stats = std::move(stats);
    }
  }
  return response;
}

Response Service::HandleSimulate(const Request& request,
                                 Clock::time_point deadline) {
  auto circuit = qc::CircuitFromJson(request.circuit);
  if (!circuit.ok()) return ErrorResponse(circuit.status());

  std::shared_ptr<Session> session;
  AdmissionController::Ticket ticket;
  Status admitted = AdmitTo(request.session, deadline, &session, &ticket);
  if (!admitted.ok()) return ErrorResponse(std::move(admitted));

  auto summary = session->Simulate(circuit.value(), deadline);
  if (!summary.ok()) return ErrorResponse(summary.status());

  Response response;
  response.stats = core::RunSummaryToJson(summary.value());
  return response;
}

Response Service::HandleOpenSession(const Request& request) {
  SessionOptions opts = options_.session_defaults;
  if (request.session_budget_bytes > 0) {
    opts.memory_budget_bytes = request.session_budget_bytes;
  }
  auto session = sessions_->GetOrCreate(request.session, opts);
  if (!session.ok()) return ErrorResponse(session.status());
  Response response;
  JsonValue stats{JsonValue::Object{}};
  stats.Set("session", session.value()->name());
  stats.Set("budget_bytes",
            static_cast<int64_t>(
                session.value()->options().memory_budget_bytes ==
                        MemoryTracker::kUnlimited
                    ? 0
                    : session.value()->options().memory_budget_bytes));
  response.stats = std::move(stats);
  return response;
}

Response Service::Submit(const Request& request) {
  if (shut_down_.load(std::memory_order_acquire)) {
    return ErrorResponse(Status::Unavailable("service is shut down"));
  }
  Clock::time_point deadline = DeadlineFromTimeout(request.timeout_ms);
  switch (request.op) {
    case Request::Op::kPing:
      return Response{};
    case Request::Op::kOpenSession:
      return HandleOpenSession(request);
    case Request::Op::kQuery:
      return HandleQuery(request, deadline);
    case Request::Op::kSimulate:
      return HandleSimulate(request, deadline);
    case Request::Op::kStats: {
      Response response;
      response.stats = StatsJson();
      return response;
    }
    case Request::Op::kCloseSession: {
      Status closed = sessions_->Close(request.session);
      if (!closed.ok()) return ErrorResponse(std::move(closed));
      return Response{};
    }
    case Request::Op::kShutdown:
      RequestShutdown();
      return Response{};
  }
  return ErrorResponse(Status::Internal("unhandled request op"));
}

void Service::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_.store(true, std::memory_order_release);
  }
  shutdown_cv_.notify_all();
}

bool Service::WaitForShutdownRequest(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  auto requested = [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  };
  if (deadline == Clock::time_point{}) {
    shutdown_cv_.wait(lock, requested);
    return true;
  }
  return shutdown_cv_.wait_until(lock, deadline, requested);
}

void Service::Shutdown(std::chrono::milliseconds grace) {
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  RequestShutdown();
  // Order matters: close admission first so queued requests fail fast with
  // kUnavailable instead of being granted into rejecting sessions.
  admission_->Close();
  sessions_->Shutdown(grace);
  if (reaper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(reaper_mu_);
      reaper_stop_ = true;
    }
    reaper_cv_.notify_all();
    reaper_.join();
  }
}

JsonValue Service::StatsJson() const {
  JsonValue root{JsonValue::Object{}};

  AdmissionStats astats = admission_->stats();
  JsonValue admission{JsonValue::Object{}};
  admission.Set("admitted", static_cast<int64_t>(astats.admitted));
  admission.Set("queued", static_cast<int64_t>(astats.queued));
  admission.Set("rejected", static_cast<int64_t>(astats.rejected));
  admission.Set("timed_out", static_cast<int64_t>(astats.timed_out));
  admission.Set("active", static_cast<int64_t>(admission_->active()));
  admission.Set("queue_depth", static_cast<int64_t>(admission_->queue_depth()));
  root.Set("admission", std::move(admission));

  SessionManagerStats sstats = sessions_->stats();
  JsonValue sess{JsonValue::Object{}};
  sess.Set("open", static_cast<int64_t>(sessions_->count()));
  sess.Set("created", static_cast<int64_t>(sstats.created));
  sess.Set("closed", static_cast<int64_t>(sstats.closed));
  sess.Set("idle_swept", static_cast<int64_t>(sstats.idle_swept));
  root.Set("sessions", std::move(sess));

  JsonValue memory{JsonValue::Object{}};
  memory.Set("used_bytes", static_cast<int64_t>(tracker_.used()));
  memory.Set("peak_bytes", static_cast<int64_t>(tracker_.peak()));
  if (tracker_.budget() != MemoryTracker::kUnlimited) {
    memory.Set("budget_bytes", static_cast<int64_t>(tracker_.budget()));
  }
  root.Set("memory", std::move(memory));
  return root;
}

}  // namespace qy::service
