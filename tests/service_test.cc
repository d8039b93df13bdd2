/// Unit tests of the query service building blocks: wire protocol framing
/// and codecs, the retryable-error classification they rely on, the
/// admission controller's FIFO/queue/deadline semantics, session lifecycle
/// (naming, serialization, idle GC, graceful shutdown), the Service::Submit
/// dispatch, and a socket client/server round trip.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "circuit/json_io.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "service/session.h"

namespace qy {
namespace {

using namespace std::chrono_literals;
using service::AdmissionController;
using service::AdmissionOptions;
using service::Request;
using service::Response;
using service::Service;
using service::ServiceOptions;
using service::SessionManager;
using service::SessionOptions;

// ---------------------------------------------------------------------------
// Status::IsRetryable classification (satellite of the protocol's retryable
// bit: exactly the transient codes, nothing else).

TEST(ServiceProtocolTest, RetryableCodesAreIoErrorAndUnavailable) {
  EXPECT_TRUE(Status::IoError("x").IsRetryable());
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  EXPECT_FALSE(Status::OutOfMemory("x").IsRetryable());
  EXPECT_FALSE(Status::Cancelled("x").IsRetryable());
  EXPECT_FALSE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_FALSE(Status::DataLoss("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
}

// ---------------------------------------------------------------------------
// Codec round trips.

TEST(ServiceProtocolTest, RequestRoundTrip) {
  Request request;
  request.op = Request::Op::kQuery;
  request.session = "alpha";
  request.sql = "SELECT 1";
  request.timeout_ms = 250;
  auto decoded = service::DecodeRequest(service::EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, Request::Op::kQuery);
  EXPECT_EQ(decoded->session, "alpha");
  EXPECT_EQ(decoded->sql, "SELECT 1");
  EXPECT_EQ(decoded->timeout_ms, 250);
}

TEST(ServiceProtocolTest, RequestValidation) {
  EXPECT_FALSE(service::DecodeRequest("not json").ok());
  EXPECT_FALSE(service::DecodeRequest("{\"op\":\"nope\"}").ok());
  // A query without SQL is malformed.
  EXPECT_FALSE(service::DecodeRequest("{\"op\":\"query\"}").ok());
  EXPECT_FALSE(service::DecodeRequest("{\"op\":\"simulate\"}").ok());
  EXPECT_TRUE(service::DecodeRequest("{\"op\":\"ping\"}").ok());
}

TEST(ServiceProtocolTest, ResponseRoundTripCarriesRowsAndRetryableBit) {
  Response response;
  response.status = Status::Unavailable("try later");
  auto decoded = service::DecodeResponse(service::EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded->status.message(), "try later");
  EXPECT_TRUE(decoded->status.IsRetryable());

  Response rows;
  rows.columns = {"s", "r"};
  rows.rows = {{"0", "0.5"}, {"1", "-0.5"}};
  rows.rows_changed = 0;
  auto decoded_rows = service::DecodeResponse(service::EncodeResponse(rows));
  ASSERT_TRUE(decoded_rows.ok());
  EXPECT_TRUE(decoded_rows->ok());
  EXPECT_EQ(decoded_rows->columns, rows.columns);
  EXPECT_EQ(decoded_rows->rows, rows.rows);
}

// ---------------------------------------------------------------------------
// Framing over a real byte stream.

class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }
  void CloseA() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(ServiceProtocolTest, FrameRoundTrip) {
  SocketPair pair;
  ASSERT_TRUE(service::WriteFrame(pair.a(), "{\"op\":\"ping\"}").ok());
  ASSERT_TRUE(service::WriteFrame(pair.a(), "").ok());
  std::string payload;
  auto first = service::ReadFrame(pair.b(), &payload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.value());
  EXPECT_EQ(payload, "{\"op\":\"ping\"}");
  auto second = service::ReadFrame(pair.b(), &payload);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value());
  EXPECT_EQ(payload, "");
}

TEST(ServiceProtocolTest, FrameCleanEofAndTruncation) {
  {
    SocketPair pair;
    pair.CloseA();
    std::string payload;
    auto frame = service::ReadFrame(pair.b(), &payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_FALSE(frame.value()) << "EOF before a header is a clean close";
  }
  {
    SocketPair pair;
    // A header promising 100 bytes, then EOF: must be an error, not EOF.
    const char header[] = {'Q', 'Y', 'R', 'P', 100, 0, 0, 0};
    ASSERT_EQ(::write(pair.a(), header, sizeof(header)),
              static_cast<ssize_t>(sizeof(header)));
    pair.CloseA();
    std::string payload;
    auto frame = service::ReadFrame(pair.b(), &payload);
    EXPECT_FALSE(frame.ok());
  }
}

TEST(ServiceProtocolTest, FrameRejectsBadMagicAndOversize) {
  {
    SocketPair pair;
    const char bogus[] = {'H', 'T', 'T', 'P', 1, 0, 0, 0, 'x'};
    ASSERT_EQ(::write(pair.a(), bogus, sizeof(bogus)),
              static_cast<ssize_t>(sizeof(bogus)));
    std::string payload;
    EXPECT_FALSE(service::ReadFrame(pair.b(), &payload).ok());
  }
  {
    SocketPair pair;
    // Magic ok, length over the cap.
    const unsigned char big[] = {'Q', 'Y', 'R', 'P', 0, 0, 0, 0xff};
    ASSERT_EQ(::write(pair.a(), big, sizeof(big)),
              static_cast<ssize_t>(sizeof(big)));
    std::string payload;
    EXPECT_FALSE(service::ReadFrame(pair.b(), &payload).ok());
  }
  EXPECT_FALSE(
      service::WriteFrame(-1, std::string(service::kMaxFrameBytes + 1, 'x'))
          .ok());
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, GrantsUpToSlotLimitThenQueues) {
  AdmissionOptions options;
  options.max_concurrent_queries = 2;
  AdmissionController admission(options);

  auto first = admission.Admit(0);
  auto second = admission.Admit(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(admission.active(), 2u);

  std::atomic<bool> third_granted{false};
  std::thread waiter([&] {
    auto third = admission.Admit(0);
    EXPECT_TRUE(third.ok());
    third_granted.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(third_granted.load()) << "third query must wait for a slot";
  EXPECT_EQ(admission.queue_depth(), 1u);
  first->Release();
  waiter.join();
  EXPECT_TRUE(third_granted.load());

  auto stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.queued, 1u);
}

TEST(AdmissionTest, MemoryBudgetGatesAdmission) {
  AdmissionOptions options;
  options.max_concurrent_queries = 8;
  options.memory_budget_bytes = 100;
  AdmissionController admission(options);

  auto a = admission.Admit(60);
  ASSERT_TRUE(a.ok());
  std::atomic<bool> b_granted{false};
  std::thread waiter([&] {
    auto b = admission.Admit(60);
    EXPECT_TRUE(b.ok());
    b_granted.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(b_granted.load()) << "60+60 > 100 must queue";
  a->Release();
  waiter.join();

  // A cost that can never fit is terminal, not queued.
  auto impossible = admission.Admit(101);
  ASSERT_FALSE(impossible.ok());
  EXPECT_EQ(impossible.status().code(), StatusCode::kOutOfMemory);
  EXPECT_FALSE(impossible.status().IsRetryable());
}

TEST(AdmissionTest, QueueOverflowRejectsWithRetryableUnavailable) {
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  options.max_queue_depth = 1;
  AdmissionController admission(options);

  auto running = admission.Admit(0);
  ASSERT_TRUE(running.ok());
  std::thread waiter([&] { (void)admission.Admit(0); });
  while (admission.queue_depth() == 0) std::this_thread::sleep_for(1ms);

  auto overflow = admission.Admit(0);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(overflow.status().IsRetryable());
  EXPECT_EQ(admission.stats().rejected, 1u);

  running->Release();
  waiter.join();
}

TEST(AdmissionTest, QueuedRequestHonorsDeadlineAndCancel) {
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController admission(options);
  auto running = admission.Admit(0);
  ASSERT_TRUE(running.ok());

  QueryContext expired;
  expired.SetTimeoutMs(30);
  auto timed_out = admission.Admit(0, &expired);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  QueryContext cancelled;
  cancelled.Cancel();
  auto aborted = admission.Admit(0, &cancelled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);

  EXPECT_EQ(admission.stats().timed_out, 2u);
  EXPECT_EQ(admission.queue_depth(), 0u) << "expired waiters must dequeue";
}

TEST(AdmissionTest, FifoOrderIsPreserved) {
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController admission(options);
  auto running = admission.Admit(0);
  ASSERT_TRUE(running.ok());

  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    // Serialize queue entry so the FIFO positions are deterministic.
    size_t depth_before = admission.queue_depth();
    waiters.emplace_back([&, i] {
      auto ticket = admission.Admit(0);
      ASSERT_TRUE(ticket.ok());
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
      ticket->Release();
    });
    while (admission.queue_depth() == depth_before) {
      std::this_thread::sleep_for(1ms);
    }
  }
  running->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(AdmissionTest, CloseDrainsWaitersWithUnavailable) {
  AdmissionOptions options;
  options.max_concurrent_queries = 1;
  AdmissionController admission(options);
  auto running = admission.Admit(0);
  ASSERT_TRUE(running.ok());

  std::thread waiter([&] {
    auto queued = admission.Admit(0);
    ASSERT_FALSE(queued.ok());
    EXPECT_EQ(queued.status().code(), StatusCode::kUnavailable);
  });
  while (admission.queue_depth() == 0) std::this_thread::sleep_for(1ms);
  admission.Close();
  waiter.join();

  auto late = admission.Admit(0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Sessions.

TEST(ServiceSessionTest, NamingAndLookup) {
  SessionManager manager(nullptr, nullptr, SessionOptions{}, 0ms);
  auto unnamed = manager.GetOrCreate("");
  ASSERT_TRUE(unnamed.ok());
  EXPECT_EQ(unnamed.value()->name(), "default");
  EXPECT_EQ(manager.Find("").get(), unnamed.value().get());

  auto named = manager.GetOrCreate("alpha");
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(manager.count(), 2u);
  EXPECT_EQ(manager.GetOrCreate("alpha").value().get(), named.value().get())
      << "same name must resolve to the same session";

  EXPECT_FALSE(manager.GetOrCreate("bad\nname").ok());
  EXPECT_FALSE(manager.GetOrCreate(std::string(129, 'a')).ok());
}

TEST(ServiceSessionTest, SessionStateIsIsolatedAndPersistent) {
  SessionManager manager(nullptr, nullptr, SessionOptions{}, 0ms);
  auto a = manager.GetOrCreate("a").value();
  auto b = manager.GetOrCreate("b").value();
  ASSERT_TRUE(a->Execute("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(a->Execute("INSERT INTO t VALUES (7)").ok());
  // Session b has its own catalog: the name does not exist there.
  EXPECT_FALSE(b->Execute("SELECT x FROM t").ok());
  auto rows = a->Execute("SELECT x FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->GetInt64(0, 0), 7);
}

TEST(ServiceSessionTest, CloseDrainsAndRejects) {
  SessionManager manager(nullptr, nullptr, SessionOptions{}, 0ms);
  auto session = manager.GetOrCreate("x").value();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (x BIGINT)").ok());
  ASSERT_TRUE(manager.Close("x").ok());
  EXPECT_EQ(manager.Find("x"), nullptr);
  EXPECT_EQ(manager.Close("x").code(), StatusCode::kNotFound);
  // The held handle still exists but refuses work.
  auto refused = session->Execute("SELECT x FROM t");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

TEST(ServiceSessionTest, SweepIdleRemovesOnlyIdleSessions) {
  SessionManager manager(nullptr, nullptr, SessionOptions{}, 50ms);
  auto stale = manager.GetOrCreate("stale").value();
  ASSERT_TRUE(stale->Execute("SELECT 1").ok());
  std::this_thread::sleep_for(80ms);
  auto fresh = manager.GetOrCreate("fresh").value();
  ASSERT_TRUE(fresh->Execute("SELECT 1").ok());
  EXPECT_EQ(manager.SweepIdle(), 1u);
  EXPECT_EQ(manager.Find("stale"), nullptr);
  EXPECT_NE(manager.Find("fresh"), nullptr);
  EXPECT_EQ(manager.stats().idle_swept, 1u);
}

TEST(ServiceSessionTest, ShutdownRejectsNewWorkEverywhere) {
  SessionManager manager(nullptr, nullptr, SessionOptions{}, 0ms);
  auto session = manager.GetOrCreate("x").value();
  manager.Shutdown(100ms);
  EXPECT_TRUE(manager.shutting_down());
  EXPECT_EQ(manager.count(), 0u);
  auto refused = manager.GetOrCreate("y");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  auto refused_exec = session->Execute("SELECT 1");
  ASSERT_FALSE(refused_exec.ok());
  EXPECT_EQ(refused_exec.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Service::Submit dispatch.

std::string QftCircuitJson(int qubits) {
  auto workload = bench::FindWorkload("qft");
  EXPECT_TRUE(workload.ok());
  return qc::CircuitToJson(workload->make(qubits), -1);
}

TEST(ServiceTest, SubmitQueryRoundTrip) {
  ServiceOptions options;
  options.num_threads = 2;
  Service svc(options);

  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (s BIGINT, r DOUBLE)";
  EXPECT_TRUE(svc.Submit(create).ok());

  Request insert;
  insert.op = Request::Op::kQuery;
  insert.sql = "INSERT INTO t VALUES (1, 0.5), (0, -0.5)";
  Response inserted = svc.Submit(insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status.ToString();
  EXPECT_EQ(inserted.rows_changed, 2u);

  Request select;
  select.op = Request::Op::kQuery;
  select.sql = "SELECT s, r FROM t ORDER BY s";
  Response rows = svc.Submit(select);
  ASSERT_TRUE(rows.ok()) << rows.status.ToString();
  ASSERT_EQ(rows.columns, (std::vector<std::string>{"s", "r"}));
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][0], "0");
  EXPECT_EQ(rows.rows[1][0], "1");

  Request bad;
  bad.op = Request::Op::kQuery;
  bad.sql = "SELECT FROM nope";
  EXPECT_FALSE(svc.Submit(bad).ok());
}

TEST(ServiceTest, HostileSqlIsAnErrorResponseAndTheSessionServesOn) {
  ServiceOptions options;
  options.num_threads = 2;
  Service svc(options);
  Request create;
  create.op = Request::Op::kQuery;
  create.session = "s";
  create.sql = "CREATE TABLE t (v BIGINT)";
  ASSERT_TRUE(svc.Submit(create).ok());

  for (const std::string& sql :
       {"SELECT " + std::string(30000, '(') + "1" + std::string(30000, ')'),
        [] {
          std::string s = "SELECT ";
          for (int i = 0; i < 100000; ++i) s += "- ";
          return s + "1";
        }(),
        [] {
          std::string s = "SELECT ";
          for (int i = 0; i < 100000; ++i) s += "NOT ";
          return s + "TRUE";
        }()}) {
    Request hostile;
    hostile.op = Request::Op::kQuery;
    hostile.session = "s";
    hostile.sql = sql;
    Response refused = svc.Submit(hostile);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status.code(), StatusCode::kParseError);
    EXPECT_FALSE(refused.status.IsRetryable());

    Request next;
    next.op = Request::Op::kQuery;
    next.session = "s";
    next.sql = "SELECT COUNT(*) FROM t";
    Response rows = svc.Submit(next);
    ASSERT_TRUE(rows.ok()) << rows.status.ToString();
    ASSERT_EQ(rows.rows.size(), 1u);
    EXPECT_EQ(rows.rows[0][0], "0");
  }
}

TEST(ServiceTest, SubmitSimulateReturnsRunSummary) {
  ServiceOptions options;
  options.num_threads = 2;
  Service svc(options);

  Request simulate;
  simulate.op = Request::Op::kSimulate;
  simulate.session = "qft";
  simulate.circuit = QftCircuitJson(4);
  Response response = svc.Submit(simulate);
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ASSERT_TRUE(response.stats.is_object());
  const JsonValue* final_rows = response.stats.Find("final_rows");
  ASSERT_NE(final_rows, nullptr);
  EXPECT_EQ(final_rows->AsInt(), 16);
  const JsonValue* norm = response.stats.Find("norm_squared");
  ASSERT_NE(norm, nullptr);
  EXPECT_NEAR(norm->AsDouble(), 1.0, 1e-9);

  Request garbage;
  garbage.op = Request::Op::kSimulate;
  garbage.circuit = "{\"bogus\": true}";
  EXPECT_FALSE(svc.Submit(garbage).ok());
}

TEST(ServiceTest, SubmitTruncatesOversizedResults) {
  ServiceOptions options;
  options.num_threads = 1;
  options.max_response_rows = 3;
  Service svc(options);

  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (x BIGINT)";
  ASSERT_TRUE(svc.Submit(create).ok());
  Request insert;
  insert.op = Request::Op::kQuery;
  insert.sql = "INSERT INTO t VALUES (1), (2), (3), (4), (5)";
  ASSERT_TRUE(svc.Submit(insert).ok());
  Request select;
  select.op = Request::Op::kQuery;
  select.sql = "SELECT x FROM t ORDER BY x";
  Response rows = svc.Submit(select);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.rows.size(), 3u);
  ASSERT_TRUE(rows.stats.is_object());
  EXPECT_EQ(rows.stats.Find("total_rows")->AsInt(), 5);
  EXPECT_EQ(rows.stats.Find("returned_rows")->AsInt(), 3);
}

TEST(ServiceTest, SubmitTruncatesByByteBudget) {
  // Wide results are capped by encoded bytes, not only by row count, so a
  // response can never outgrow the wire frame cap by being wide per row.
  ServiceOptions options;
  options.num_threads = 1;
  options.max_response_bytes = 40;  // estimate: 11 bytes per 1-digit row
  Service svc(options);

  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (x BIGINT)";
  ASSERT_TRUE(svc.Submit(create).ok());
  Request insert;
  insert.op = Request::Op::kQuery;
  insert.sql = "INSERT INTO t VALUES (1), (2), (3), (4), (5)";
  ASSERT_TRUE(svc.Submit(insert).ok());
  Request select;
  select.op = Request::Op::kQuery;
  select.sql = "SELECT x FROM t ORDER BY x";
  Response rows = svc.Submit(select);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.rows.size(), 3u);
  ASSERT_TRUE(rows.stats.is_object());
  EXPECT_EQ(rows.stats.Find("total_rows")->AsInt(), 5);
  EXPECT_EQ(rows.stats.Find("returned_rows")->AsInt(), 3);
  EXPECT_TRUE(rows.stats.Find("truncated")->AsBool());
}

TEST(ServiceTest, OpenSessionAppliesBudgetAndStatsReportIt) {
  ServiceOptions options;
  options.num_threads = 1;
  Service svc(options);

  Request open;
  open.op = Request::Op::kOpenSession;
  open.session = "small";
  open.session_budget_bytes = 1 << 20;
  Response opened = svc.Submit(open);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.stats.Find("budget_bytes")->AsInt(), 1 << 20);

  auto session = svc.sessions().Find("small");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->options().memory_budget_bytes, 1u << 20);

  Request stats;
  stats.op = Request::Op::kStats;
  Response status = svc.Submit(stats);
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(status.stats.is_object());
  EXPECT_EQ(status.stats.Find("sessions")->Find("open")->AsInt(), 1);

  Request close;
  close.op = Request::Op::kCloseSession;
  close.session = "small";
  EXPECT_TRUE(svc.Submit(close).ok());
  EXPECT_FALSE(svc.Submit(close).ok()) << "second close must be NotFound";
}

TEST(ServiceTest, ShutdownOpOnlyRequestsShutdown) {
  Service svc(ServiceOptions{});
  Request shutdown;
  shutdown.op = Request::Op::kShutdown;
  EXPECT_TRUE(svc.Submit(shutdown).ok());
  EXPECT_TRUE(svc.shutdown_requested());
  EXPECT_TRUE(svc.WaitForShutdownRequest(std::chrono::steady_clock::now()));
  // Work still runs until the owner actually shuts down.
  Request ping;
  EXPECT_TRUE(svc.Submit(ping).ok());
  svc.Shutdown(0ms);
  Response refused = svc.Submit(ping);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Socket server + client end to end.

/// Raw loopback TCP connect, bypassing Client (for misbehaving-peer tests).
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServiceServerTest, ClientDisconnectBeforeReadingResponseIsHarmless) {
  // Regression: the response write to a peer that already hung up used to
  // raise SIGPIPE (default disposition: terminate), letting one misbehaving
  // client kill the whole server. With MSG_NOSIGNAL it is a per-connection
  // EPIPE and everyone else keeps being served.
  ServiceOptions options;
  options.num_threads = 1;
  Service svc(options);
  service::ServerOptions sopts;  // port 0 = ephemeral
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());

  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (x BIGINT)";
  for (int i = 0; i < 8; ++i) {
    int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(service::WriteFrame(fd, service::EncodeRequest(create)).ok());
    ::close(fd);  // vanish before the server can respond
  }

  // The server survived and still serves well-behaved clients.
  auto client = service::Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Request ping;
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());

  svc.Shutdown(100ms);
  server.Stop();
}

TEST(ServiceServerTest, FinishedConnectionsAreReapedWithoutStop) {
  // Regression: per-connection fds/threads were only released in Stop(), so
  // a long-running server leaked one fd + one thread per connection served.
  ServiceOptions options;
  options.num_threads = 1;
  Service svc(options);
  service::ServerOptions sopts;
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kConnections = 6;
  for (int i = 0; i < kConnections; ++i) {
    auto client = service::Client::ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    Request ping;
    ASSERT_TRUE(client->Call(ping).value().ok());
    client->Close();
  }

  // Each connection retires itself once its peer hangs up (no Stop needed).
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.open_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(server.connections_served(), static_cast<uint64_t>(kConnections));

  svc.Shutdown(100ms);
  server.Stop();
}

TEST(ServiceServerTest, OversizedResponseIsTerminalErrorNotHangup) {
  // A result too large for the 16 MiB frame must come back as one terminal
  // (non-retryable) error frame on a still-usable connection — not a failed
  // write that drops the connection and masquerades as a retryable IoError.
  ServiceOptions options;
  options.num_threads = 1;
  // Let the row/byte limits pass so the encoded frame itself overflows (the
  // byte estimate is pre-escaping; this models it being beaten badly).
  options.max_response_rows = 5'000'000;
  options.max_response_bytes = 64ull << 20;
  Service svc(options);
  service::ServerOptions sopts;
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());

  auto client = service::Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (k BIGINT, x BIGINT)";
  ASSERT_TRUE(client->Call(create).value().ok());
  // 1024 rows sharing one key self-join to 1M rows of 5-digit cells:
  // ~19 MiB encoded, decisively past the 16 MiB frame cap.
  std::string insert_sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < 1024; ++i) {
    insert_sql += (i == 0 ? "" : ", ");
    insert_sql += "(1, " + std::to_string(10000 + i) + ")";
  }
  Request insert;
  insert.op = Request::Op::kQuery;
  insert.sql = insert_sql;
  ASSERT_TRUE(client->Call(insert).value().ok());

  Request select;
  select.op = Request::Op::kQuery;
  select.sql = "SELECT a.x, b.x FROM t a JOIN t b ON a.k = b.k";
  auto huge = client->Call(select);
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(huge->status.IsRetryable());

  // The connection is not poisoned: the next request round-trips normally.
  Request ping;
  auto pong = client->Call(ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok());

  svc.Shutdown(100ms);
  server.Stop();
}

TEST(ServiceServerTest, ConcurrentStopIsSafe) {
  Service svc(ServiceOptions{});
  service::ServerOptions sopts;
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = service::Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Explicit Stop racing another Stop (as the destructor would): both must
  // return with all threads joined exactly once.
  std::thread a([&] { server.Stop(); });
  std::thread b([&] { server.Stop(); });
  a.join();
  b.join();
  EXPECT_EQ(server.open_connections(), 0u);
}

TEST(ServiceServerTest, TcpRoundTrip) {
  ServiceOptions options;
  options.num_threads = 2;
  Service svc(options);
  service::ServerOptions sopts;  // port 0 = ephemeral
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = service::Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Request create;
  create.op = Request::Op::kQuery;
  create.sql = "CREATE TABLE t (x BIGINT)";
  ASSERT_TRUE(client->Call(create).value().ok());
  Request insert;
  insert.op = Request::Op::kQuery;
  insert.sql = "INSERT INTO t VALUES (41), (42)";
  ASSERT_TRUE(client->Call(insert).value().ok());
  Request select;
  select.op = Request::Op::kQuery;
  select.sql = "SELECT x FROM t ORDER BY x DESC";
  auto rows = client->Call(select);
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(rows->ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0], "42");

  // A malformed frame payload gets an error response, not a hangup.
  Request bad;
  bad.op = Request::Op::kQuery;
  bad.sql = "SELECT syntax error";
  auto error = client->Call(bad);
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->ok());

  svc.Shutdown(100ms);
  server.Stop();
}

TEST(ServiceServerTest, UnixSocketRoundTripAndConcurrentClients) {
  ServiceOptions options;
  options.num_threads = 2;
  options.max_concurrent_queries = 4;
  Service svc(options);
  service::ServerOptions sopts;
  sopts.unix_path = ::testing::TempDir() + "qy_service_test.sock";
  service::Server server(&svc, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = service::Client::ConnectUnix(sopts.unix_path);
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::string session = "client" + std::to_string(i);
      Request create;
      create.op = Request::Op::kQuery;
      create.session = session;
      create.sql = "CREATE TABLE t (x BIGINT)";
      Request insert;
      insert.op = Request::Op::kQuery;
      insert.session = session;
      insert.sql = "INSERT INTO t VALUES (" + std::to_string(i) + ")";
      Request select;
      select.op = Request::Op::kQuery;
      select.session = session;
      select.sql = "SELECT x FROM t";
      for (const Request* request : {&create, &insert, &select}) {
        auto response = client->Call(*request);
        if (!response.ok() || !response->ok()) {
          ++failures;
          return;
        }
      }
      auto rows = client->Call(select);
      if (!rows.ok() || rows->rows.size() != 1 ||
          rows->rows[0][0] != std::to_string(i)) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.sessions().count(), static_cast<size_t>(kClients));

  // op=shutdown over the wire wakes the owner's wait.
  auto client = service::Client::ConnectUnix(sopts.unix_path);
  ASSERT_TRUE(client.ok());
  Request shutdown;
  shutdown.op = Request::Op::kShutdown;
  ASSERT_TRUE(client->Call(shutdown).value().ok());
  EXPECT_TRUE(svc.WaitForShutdownRequest(std::chrono::steady_clock::now() +
                                         std::chrono::seconds(5)));
  svc.Shutdown(100ms);
  server.Stop();
}

}  // namespace
}  // namespace qy
