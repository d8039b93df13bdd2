/// Service-level concurrency contract:
///   - >= 8 concurrent sessions running mixed workloads (join/agg/ORDER BY
///     SQL plus QFT simulation) produce byte-identical results to running
///     the same workloads serially,
///   - the global MemoryTracker's high-water mark stays within the
///     configured admission budget,
///   - graceful shutdown under load rejects queued work with kUnavailable,
///     completes or cancels in-flight queries and leaks no temp files,
///   - per-session fault isolation: one injected failure (spill/write,
///     mem/reserve) fails at most one session's query; the others
///     succeed untouched and the failed session recovers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "circuit/json_io.h"
#include "common/failpoint.h"
#include "service/service.h"
#include "testutil/testutil.h"

namespace qy {
namespace {

using namespace std::chrono_literals;
using service::Request;
using service::Response;
using service::Service;
using service::ServiceOptions;

constexpr int kSessions = 8;

Request Query(const std::string& session, std::string sql) {
  Request request;
  request.op = Request::Op::kQuery;
  request.session = session;
  request.sql = std::move(sql);
  return request;
}

/// Deterministic mixed workload for session index `i`: DDL + inserts, a
/// self-join aggregation, a grouped aggregation and an ORDER BY, plus (on
/// even indices) a QFT simulation. Returns a transcript string that must be
/// byte-identical however the sessions are scheduled.
std::string RunWorkload(Service* svc, int i) {
  std::string session = "s" + std::to_string(i);
  std::string transcript;
  auto run = [&](const Request& request) {
    Response response = svc->Submit(request);
    EXPECT_TRUE(response.ok())
        << session << ": " << response.status.ToString();
    transcript += "#status " + std::string(StatusCodeName(
                                   response.status.code())) + "\n";
    for (const auto& row : response.rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        transcript += (c == 0 ? "" : "\t") + row[c];
      }
      transcript += "\n";
    }
    if (response.rows_changed > 0) {
      transcript += "#changed " + std::to_string(response.rows_changed) + "\n";
    }
  };

  run(Query(session, "CREATE TABLE t (k BIGINT, v DOUBLE)"));
  std::string values;
  for (int r = 0; r < 240; ++r) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string((r * (i + 3)) % 12) + ", " +
              std::to_string(r) + ".5)";
  }
  run(Query(session, "INSERT INTO t VALUES " + values));
  run(Query(session,
            "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k "
            "GROUP BY a.k ORDER BY a.k"));
  run(Query(session,
            "SELECT k, SUM(v), MIN(v), MAX(v) FROM t GROUP BY k ORDER BY k"));
  run(Query(session, "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 20"));

  if (i % 2 == 0) {
    auto workload = bench::FindWorkload("qft");
    EXPECT_TRUE(workload.ok());
    Request simulate;
    simulate.op = Request::Op::kSimulate;
    simulate.session = session;
    simulate.circuit = qc::CircuitToJson(workload->make(4), -1);
    Response response = svc->Submit(simulate);
    EXPECT_TRUE(response.ok())
        << session << ": " << response.status.ToString();
    if (response.stats.is_object()) {
      // The timing metrics vary run to run; the state shape must not.
      const JsonValue* final_rows = response.stats.Find("final_rows");
      const JsonValue* norm = response.stats.Find("norm_squared");
      if (final_rows != nullptr && norm != nullptr) {
        transcript += "#sim " + std::to_string(final_rows->AsInt()) + " " +
                      JsonValue(norm->AsDouble()).Dump() + "\n";
      }
    }
  }
  return transcript;
}

ServiceOptions ConcurrencyOptions() {
  ServiceOptions options;
  options.memory_budget_bytes = 256ull << 20;  // admission + global tracker
  options.max_concurrent_queries = kSessions;
  options.session_defaults.memory_budget_bytes = 32ull << 20;
  return options;
}

TEST(ServiceConcurrencyTest, EightSessionsMatchSerialByteForByte) {
  // Serial reference: same service shape, one workload at a time.
  std::vector<std::string> expected(kSessions);
  {
    Service svc(ConcurrencyOptions());
    for (int i = 0; i < kSessions; ++i) expected[i] = RunWorkload(&svc, i);
    svc.Shutdown(0ms);
  }

  Service svc(ConcurrencyOptions());
  std::vector<std::string> actual(kSessions);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] { actual[i] = RunWorkload(&svc, i); });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "session s" << i;
    EXPECT_FALSE(actual[i].empty());
  }

  // The admission budget caps the declared (= per-session) working sets, and
  // every actual reservation flows through the global tracker: its high
  // water must stay within the configured budget.
  EXPECT_LE(svc.tracker().peak(), svc.options().memory_budget_bytes);
  EXPECT_GE(svc.admission().stats().admitted, 5u * kSessions);
  svc.Shutdown(0ms);
}

TEST(ServiceConcurrencyTest, AdmissionQueuesWhenBudgetIsTight) {
  ServiceOptions options = ConcurrencyOptions();
  // Budget admits only two declared 32 MiB sessions at a time.
  options.memory_budget_bytes = 64ull << 20;
  Service svc(options);

  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] { RunWorkload(&svc, i); });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(svc.tracker().peak(), options.memory_budget_bytes);
  auto stats = svc.admission().stats();
  EXPECT_GE(stats.queued, 1u) << "8 sessions through 2 memory slots must "
                                 "have queued at least once";
  EXPECT_EQ(svc.admission().active(), 0u);
  svc.Shutdown(0ms);
}

TEST(ServiceConcurrencyTest, GracefulShutdownUnderLoad) {
  ServiceOptions options = ConcurrencyOptions();
  options.max_concurrent_queries = 4;
  Service svc(options);

  // Seed each session with enough rows that the storm below keeps queries
  // in flight when Shutdown lands.
  for (int i = 0; i < kSessions; ++i) {
    std::string session = "s" + std::to_string(i);
    ASSERT_TRUE(
        svc.Submit(Query(session, "CREATE TABLE t (k BIGINT, v DOUBLE)"))
            .ok());
    std::string values;
    for (int r = 0; r < 600; ++r) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(r % 40) + ", " + std::to_string(r) + ")";
    }
    ASSERT_TRUE(
        svc.Submit(Query(session, "INSERT INTO t VALUES " + values)).ok());
  }
  // Hold session handles so post-shutdown invariants stay checkable after
  // the manager drops its map.
  std::vector<std::shared_ptr<service::Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(svc.sessions().Find("s" + std::to_string(i)));
    ASSERT_NE(sessions.back(), nullptr);
  }

  std::atomic<int> completed{0}, unavailable{0}, cancelled{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      std::string session = "s" + std::to_string(i);
      for (int round = 0; round < 50; ++round) {
        Response response = svc.Submit(
            Query(session,
                  "SELECT a.k, COUNT(*), SUM(a.v) FROM t a JOIN t b "
                  "ON a.k = b.k GROUP BY a.k ORDER BY a.k"));
        if (response.ok()) {
          ++completed;
        } else if (response.status.code() == StatusCode::kUnavailable) {
          ++unavailable;
          break;  // the service is gone; a real client would back off
        } else if (response.status.code() == StatusCode::kCancelled ||
                   response.status.code() == StatusCode::kDeadlineExceeded) {
          ++cancelled;
        } else {
          ADD_FAILURE() << "unexpected failure: "
                        << response.status.ToString();
          ++other;
          break;
        }
      }
    });
  }
  // Let the storm develop, then pull the plug with a short grace.
  std::this_thread::sleep_for(50ms);
  svc.Shutdown(20ms);
  for (auto& t : threads) t.join();

  EXPECT_GT(completed.load(), 0) << "some queries must finish before/during "
                                    "the drain";
  EXPECT_GT(unavailable.load(), 0) << "under load, shutdown must turn away "
                                      "queued/new work with kUnavailable";
  EXPECT_EQ(other.load(), 0);

  Response late = svc.Submit(Query("s0", "SELECT 1"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_FALSE(sessions[i]->in_flight());
    test::ExpectNoLeakedTempFiles(sessions[i]->db(),
                                  "post-shutdown s" + std::to_string(i));
  }
}

#ifdef QY_FAILPOINTS_ENABLED

struct FaultSite {
  const char* site;
  StatusCode code;
  /// Whether one injected hit must fail a query. A single mem/reserve
  /// failure can be absorbed by the spill path (the aggregate spills the
  /// partition it could not grow) — that recovery is itself correct
  /// behavior, so only "at most one session fails" holds there.
  bool hit_must_fail;
};

class ServiceFaultTest : public ::testing::TestWithParam<FaultSite> {
  void TearDown() override { failpoint::DeactivateAll(); }
};

/// One injected failure (max_hits=1) during a 4-session query storm: the
/// failpoint registry is process-global, so at most one session can observe
/// it — the others' queries must succeed, nothing may leak, and the session
/// that failed must answer the very next query.
TEST_P(ServiceFaultTest, SingleFaultIsIsolatedToOneSession) {
  const FaultSite fault = GetParam();
  constexpr int kFaultSessions = 4;

  ServiceOptions options;
  options.max_concurrent_queries = kFaultSessions;
  // A tight per-session budget so the aggregation below actually spills
  // (traversing spill/write) on every session — same pressure point as the
  // fault_injection_test spill_agg scenario.
  options.session_defaults.memory_budget_bytes = 1 << 20;
  Service svc(options);

  const std::string kStorm = "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k";
  for (int i = 0; i < kFaultSessions; ++i) {
    std::string session = "s" + std::to_string(i);
    ASSERT_TRUE(
        svc.Submit(Query(session, "CREATE TABLE t (k BIGINT, v DOUBLE)"))
            .ok());
    // Bulk-load through the catalog (SQL INSERT parsing at this row count
    // is pure overhead for what the test exercises).
    auto handle = svc.sessions().Find(session);
    ASSERT_NE(handle, nullptr);
    auto table = handle->db().catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    for (int r = 0; r < 20000; ++r) {
      ASSERT_TRUE((*table)
                      ->AppendRow({sql::Value::BigInt(r % 5000),
                                   sql::Value::Double(static_cast<double>(r))})
                      .ok());
    }
    // Warm-up proves the query works on every session before any fault.
    ASSERT_TRUE(svc.Submit(Query(session, kStorm)).ok()) << session;
  }

  failpoint::Activate(fault.site, fault.code, "injected", /*skip=*/0,
                      /*max_hits=*/1);

  std::atomic<int> failed{0};
  std::vector<int> failed_sessions;
  std::mutex failed_mu;
  std::vector<std::thread> threads;
  for (int i = 0; i < kFaultSessions; ++i) {
    threads.emplace_back([&, i] {
      Response response = svc.Submit(Query("s" + std::to_string(i), kStorm));
      if (!response.ok()) {
        ++failed;
        std::lock_guard<std::mutex> lock(failed_mu);
        failed_sessions.push_back(i);
        EXPECT_EQ(response.status.code(), fault.code)
            << response.status.ToString();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(failed.load(), 1) << "one injected hit can fail at most one "
                                 "session's query";
  EXPECT_GE(failpoint::HitCount(fault.site), 1u)
      << "the storm must actually traverse " << fault.site;
  if (fault.hit_must_fail) {
    EXPECT_EQ(failed.load(), 1) << "with every session traversing the site, "
                                   "exactly one absorbs the hit";
  }
  failpoint::DeactivateAll();

  // Every session — including the failed one — answers again, with nothing
  // left behind by the failure path.
  for (int i = 0; i < kFaultSessions; ++i) {
    std::string session = "s" + std::to_string(i);
    EXPECT_TRUE(svc.Submit(Query(session, kStorm)).ok())
        << session << " must recover";
    auto handle = svc.sessions().Find(session);
    ASSERT_NE(handle, nullptr);
    test::ExpectNoLeakedTempFiles(handle->db(), "post-fault " + session);
  }
  svc.Shutdown(0ms);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ServiceFaultTest,
    ::testing::Values(FaultSite{"spill/write", StatusCode::kIoError, true},
                      FaultSite{"mem/reserve", StatusCode::kOutOfMemory,
                                false}),
    [](const ::testing::TestParamInfo<FaultSite>& info) {
      std::string name = info.param.site;
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      return name;
    });

#else

TEST(ServiceFaultTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "built with -DQY_FAILPOINTS=OFF";
}

#endif  // QY_FAILPOINTS_ENABLED

}  // namespace
}  // namespace qy
