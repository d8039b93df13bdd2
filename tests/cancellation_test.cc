/// Cooperative cancellation and deadline tests: QueryContext semantics, the
/// per-chunk interrupt polling of the SQL engine, per-gate polling of the
/// simulation backends, and the guarantee that a cancelled query leaves the
/// database clean and usable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "circuit/families.h"
#include "common/cancellation.h"
#include "sql/database.h"
#include "testutil/testutil.h"

namespace qy {
namespace {

using sql::Database;
using sql::DatabaseOptions;
using sql::Value;

void FillGroups(Database* db, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::BigInt(r % groups),
                                 Value::Double(static_cast<double>(r))})
                    .ok());
  }
}

TEST(QueryContextTest, FreshContextIsClear) {
  QueryContext query;
  EXPECT_TRUE(query.Check().ok());
  EXPECT_FALSE(query.cancelled());
  EXPECT_FALSE(query.has_deadline());
}

TEST(QueryContextTest, CancelIsStickyAndWinsOverDeadline) {
  QueryContext query;
  query.SetTimeoutMs(0);  // already expired
  EXPECT_EQ(query.Check().code(), StatusCode::kDeadlineExceeded);
  query.Cancel();
  // Both conditions hold; the cancel flag takes precedence.
  EXPECT_EQ(query.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(query.Check().code(), StatusCode::kCancelled);
}

TEST(QueryContextTest, DeadlineArmsAndClears) {
  QueryContext query;
  query.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(query.has_deadline());
  EXPECT_TRUE(query.Check().ok());
  query.SetTimeoutMs(0);
  EXPECT_EQ(query.Check().code(), StatusCode::kDeadlineExceeded);
  query.ClearDeadline();
  EXPECT_FALSE(query.has_deadline());
  EXPECT_TRUE(query.Check().ok());
}

TEST(QueryContextTest, ExternalTokenIsShared) {
  CancellationToken token;
  QueryContext query(&token);
  EXPECT_TRUE(query.Check().ok());
  token.Cancel();  // as the CLI's SIGINT handler would
  EXPECT_EQ(query.Check().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(query.Check().ok());
}

TEST(CancellationTest, PreCancelledQueryFailsAndDatabaseStaysUsable) {
  QueryContext query;
  DatabaseOptions opts;
  opts.query = &query;
  Database db(opts);
  FillGroups(&db, 1000, 100);
  uint64_t used_before = db.tracker().used();

  query.Cancel();
  auto got = db.Execute("SELECT k, SUM(v) FROM t GROUP BY k");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  test::ExpectQueryCleanup(db, used_before, "after cancelled query");

  // Re-arm and verify the database still answers correctly.
  query.token().Reset();
  auto again = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->GetInt64(0, 0), 1000);
}

TEST(CancellationTest, ExpiredDeadlineStopsSelectJoinAndOrderBy) {
  QueryContext query;
  DatabaseOptions opts;
  opts.query = &query;
  Database db(opts);
  FillGroups(&db, 2000, 50);
  uint64_t used_before = db.tracker().used();

  for (const char* sql :
       {"SELECT k, SUM(v) FROM t GROUP BY k",
        "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
        "SELECT k, v FROM t ORDER BY v"}) {
    SCOPED_TRACE(sql);
    query.SetTimeoutMs(0);
    auto got = db.Execute(sql);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
    test::ExpectQueryCleanup(db, used_before, sql);
    query.ClearDeadline();
    auto again = db.Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->GetInt64(0, 0), 2000);
  }
}

TEST(CancellationTest, CancelFromAnotherThreadInterruptsRunningQuery) {
  QueryContext query;
  DatabaseOptions opts;
  opts.query = &query;
  Database db(opts);
  // A self-join over 20k rows with 100-row groups expands to ~4M rows —
  // far more than 10 ms of work, so the cancel lands mid-flight; the
  // cooperative checks bound how long the query keeps running after it.
  FillGroups(&db, 20000, 100);
  uint64_t used_before = db.tracker().used();

  std::thread canceller([&query] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    query.Cancel();
  });
  auto start = std::chrono::steady_clock::now();
  auto got = db.Execute(
      "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k");
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  // Generous bound (CI machines vary) — without cancellation this query
  // runs for many seconds.
  EXPECT_LT(seconds, 30.0);
  test::ExpectQueryCleanup(db, used_before, "after mid-flight cancel");

  query.token().Reset();
  auto again = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->GetInt64(0, 0), 20000);
}

TEST(CancellationTest, QymeraRunCancelsBetweenMaterializedSteps) {
  QueryContext query;
  core::QymeraOptions qopts;
  qopts.base.query = &query;
  core::QymeraSimulator sim(qopts);
  // Cancel from the step observer: the per-step poll in ExecuteInternal
  // must stop the run before the next gate executes.
  std::atomic<size_t> steps_seen{0};
  sim.set_step_callback([&](size_t step, const qc::Gate&,
                            const sim::SparseState&) -> Status {
    steps_seen = step + 1;
    if (step == 1) query.Cancel();
    return Status::OK();
  });
  auto state = sim.Run(qc::Ghz(8));
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(steps_seen.load(), 2u);
}

TEST(CancellationTest, AllInMemoryBackendsHonourPreCancelledContext) {
  QueryContext query;
  query.Cancel();
  sim::SimOptions options;
  options.query = &query;
  for (const test::BackendFactory& factory : test::InMemoryBackends()) {
    SCOPED_TRACE(factory.name);
    auto state = factory.make(options)->Run(qc::Ghz(4));
    ASSERT_FALSE(state.ok());
    EXPECT_EQ(state.status().code(), StatusCode::kCancelled);
  }
}

}  // namespace
}  // namespace qy
