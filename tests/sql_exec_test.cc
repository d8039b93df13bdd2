/// End-to-end SQL engine tests: every query runs through parse -> bind ->
/// plan -> execute against an in-memory Database.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sql/database.h"

namespace qy::sql {
namespace {

/// Two tables with NULL join keys on both sides. Non-NULL matches: l.k in
/// {1 (x2 rows), 2} joins r.k in {1, 2 (x2 rows)}.
void FillNullKeyTables(Database* db) {
  ASSERT_TRUE(db->ExecuteScript(R"(
    CREATE TABLE l (k BIGINT, k2 BIGINT, lv BIGINT);
    CREATE TABLE r (k BIGINT, k2 BIGINT, rv BIGINT);
    INSERT INTO l VALUES (1, 7, 10), (1, 7, 11), (2, 8, 20),
                         (NULL, 7, 30), (4, NULL, 40);
    INSERT INTO r VALUES (1, 7, 100), (2, 8, 200), (2, 8, 201),
                         (NULL, 7, 300), (4, NULL, 400), (NULL, NULL, 500);
  )").ok());
}

/// Append `rows` rows of (k = r % groups, v = r) to a fresh table `name`.
void FillBig(Database* db, const std::string& name, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE " + name +
                                " (k BIGINT, v BIGINT)")
                  .ok());
  auto table = db->catalog().GetTable(name);
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    ASSERT_TRUE(
        (*table)
            ->AppendRow({Value::BigInt(r % groups), Value::BigInt(r)})
            .ok());
  }
}

/// All rows of `qr` rendered as one string (exact row-order comparison).
std::string Rows(const QueryResult& qr) {
  std::string out;
  for (uint64_t r = 0; r < qr.NumRows(); ++r) {
    for (uint64_t c = 0; c < qr.NumColumns(); ++c) {
      out += qr.GetValue(r, c).ToString();
      out += c + 1 < qr.NumColumns() ? ',' : '\n';
    }
  }
  return out;
}

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"(
      CREATE TABLE nums (a BIGINT, b BIGINT, d DOUBLE, name VARCHAR);
      INSERT INTO nums VALUES
        (1, 10, 1.5, 'one'),
        (2, 20, 2.5, 'two'),
        (3, 30, -0.5, 'three'),
        (4, 40, 4.0, 'four');
    )").ok());
  }

  QueryResult Q(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result.value()) : QueryResult();
  }

  Status Err(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_FALSE(result.ok()) << sql << " unexpectedly succeeded";
    return result.ok() ? Status::OK() : result.status();
  }

  Database db_;
};

TEST_F(SqlExecTest, SelectStar) {
  QueryResult r = Q("SELECT * FROM nums");
  EXPECT_EQ(r.NumRows(), 4u);
  EXPECT_EQ(r.NumColumns(), 4u);
  EXPECT_EQ(r.schema().column(0).name, "a");
}

TEST_F(SqlExecTest, Projection) {
  QueryResult r = Q("SELECT a + b AS total, name FROM nums");
  EXPECT_EQ(r.GetInt64(0, 0), 11);
  EXPECT_EQ(r.GetString(3, 1), "four");
  EXPECT_EQ(r.schema().column(0).name, "total");
}

TEST_F(SqlExecTest, WhereFilters) {
  QueryResult r = Q("SELECT a FROM nums WHERE b >= 20 AND d > 0");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(r.GetInt64(1, 0), 4);
}

TEST_F(SqlExecTest, ArithmeticSemantics) {
  QueryResult r = Q("SELECT 7 / 2, 7 % 3, -a, 2 * d FROM nums LIMIT 1");
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 0), 3.5);  // '/' is always DOUBLE
  EXPECT_EQ(r.GetInt64(0, 1), 1);
  EXPECT_EQ(r.GetInt64(0, 2), -1);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 3.0);
}

TEST_F(SqlExecTest, DivisionByZeroYieldsNull) {
  QueryResult r = Q("SELECT 1 / 0, 5 % 0");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_TRUE(r.GetValue(0, 1).is_null());
}

TEST_F(SqlExecTest, BitwiseOperatorsTable1) {
  // All five operators of the paper's Table 1, plus XOR.
  QueryResult r =
      Q("SELECT 12 & 10, 12 | 3, ~0, 3 << 4, 48 >> 3, 12 ^ 10");
  EXPECT_EQ(r.GetInt64(0, 0), 8);
  EXPECT_EQ(r.GetInt64(0, 1), 15);
  EXPECT_EQ(r.GetInt64(0, 2), -1);
  EXPECT_EQ(r.GetInt64(0, 3), 48);
  EXPECT_EQ(r.GetInt64(0, 4), 6);
  EXPECT_EQ(r.GetInt64(0, 5), 6);
}

TEST_F(SqlExecTest, HugeIntBitwise) {
  // 2^100 as a literal forces HUGEINT arithmetic. Note: a BIGINT shifted by
  // >= 64 is undefined (as in C); widths must be widened with CAST first,
  // which is exactly what the Qymera translator emits.
  QueryResult r = Q(
      "SELECT (1267650600228229401496703205376 >> 99), "
      "(CAST(1 AS HUGEINT) << 100) & 1267650600228229401496703205376, "
      "~0 & 1267650600228229401496703205376");
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 1)),
            "1267650600228229401496703205376");
  // Sign extension: ~0 (BIGINT) promoted to HUGEINT keeps all high bits set.
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 2)),
            "1267650600228229401496703205376");
}

TEST_F(SqlExecTest, GroupByWithAggregates) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
      CREATE TABLE g (k BIGINT, v DOUBLE);
      INSERT INTO g VALUES (1, 1.0), (1, 2.0), (2, 10.0), (2, -10.0), (3, 5.0);
  )").ok());
  QueryResult r = Q(
      "SELECT k, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM g GROUP BY k "
      "ORDER BY k");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 3.0);
  EXPECT_EQ(r.GetInt64(0, 2), 2);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 1.5);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 1), 0.0);  // interference-style cancel
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 4), 5.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(2, 5), 5.0);
}

TEST_F(SqlExecTest, GroupByExpressionMatchedByText) {
  QueryResult r =
      Q("SELECT (a & ~1) AS s, SUM(d) FROM nums GROUP BY (a & ~1) ORDER BY s");
  ASSERT_EQ(r.NumRows(), 3u);  // groups 0 (a=1), 2 (a=2,3), 4 (a=4)
  EXPECT_EQ(r.GetInt64(0, 0), 0);
  EXPECT_DOUBLE_EQ(r.GetDouble(1, 1), 2.0);  // 2.5 + -0.5
}

TEST_F(SqlExecTest, GroupByOrdinal) {
  QueryResult r = Q("SELECT b % 20, COUNT(*) FROM nums GROUP BY 1 ORDER BY 1");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 1), 2);
}

TEST_F(SqlExecTest, SumIntegerPromotesToHugeInt) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE big (v BIGINT);
    INSERT INTO big VALUES (9223372036854775807), (9223372036854775807);
  )").ok());
  QueryResult r = Q("SELECT SUM(v) FROM big");
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 0)), "18446744073709551614");
}

TEST_F(SqlExecTest, ScalarAggregateOnEmptyInput) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE empty (v DOUBLE)").ok());
  QueryResult r = Q("SELECT COUNT(*), SUM(v) FROM empty");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 0);
  EXPECT_TRUE(r.GetValue(0, 1).is_null());
}

TEST_F(SqlExecTest, Having) {
  QueryResult r = Q(
      "SELECT a % 2 AS parity, SUM(b) AS total FROM nums GROUP BY a % 2 "
      "HAVING SUM(b) > 45 ORDER BY parity");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 0);  // 10-wait: b of evens = 20+40 = 60
  EXPECT_EQ(r.GetInt64(0, 1), 60);
}

TEST_F(SqlExecTest, JoinOnExpression) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE gate (in_s BIGINT, out_s BIGINT, w DOUBLE);
    INSERT INTO gate VALUES (0, 1, 0.5), (1, 0, 0.5), (0, 0, 0.5), (1, 1, -0.5);
  )").ok());
  QueryResult r = Q(
      "SELECT nums.a, gate.out_s, gate.w FROM nums JOIN gate "
      "ON gate.in_s = (nums.a & 1) ORDER BY nums.a, gate.out_s");
  EXPECT_EQ(r.NumRows(), 8u);  // each row matches 2 gate rows
}

TEST_F(SqlExecTest, JoinReversedCondition) {
  // Condition written as probe = build (sides must be classified).
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE r2 (x BIGINT);
    INSERT INTO r2 VALUES (1), (2);
  )").ok());
  QueryResult r =
      Q("SELECT nums.a FROM nums JOIN r2 ON (nums.a % 2) = (r2.x % 2) "
        "ORDER BY nums.a");
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(SqlExecTest, CrossJoinAndResidual) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE r3 (x BIGINT);
    INSERT INTO r3 VALUES (1), (2), (3);
  )").ok());
  QueryResult cross = Q("SELECT * FROM nums, r3");
  EXPECT_EQ(cross.NumRows(), 12u);
  // Non-equi join condition becomes a residual filter.
  QueryResult residual =
      Q("SELECT nums.a, r3.x FROM nums JOIN r3 ON nums.a < r3.x "
        "ORDER BY nums.a, r3.x");
  EXPECT_EQ(residual.NumRows(), 3u);  // (1,2),(1,3),(2,3)
}

TEST_F(SqlExecTest, ThreeWayJoin) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE j1 (k BIGINT, v VARCHAR);
    CREATE TABLE j2 (k BIGINT, w VARCHAR);
    INSERT INTO j1 VALUES (1, 'a'), (2, 'b');
    INSERT INTO j2 VALUES (1, 'x'), (2, 'y');
  )").ok());
  QueryResult r = Q(
      "SELECT nums.a, j1.v, j2.w FROM nums JOIN j1 ON j1.k = nums.a "
      "JOIN j2 ON j2.k = j1.k ORDER BY nums.a");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetString(1, 2), "y");
}

TEST_F(SqlExecTest, OrderByDirectionsAndLimit) {
  QueryResult r = Q("SELECT a FROM nums ORDER BY d DESC LIMIT 2");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.GetInt64(0, 0), 4);
  EXPECT_EQ(r.GetInt64(1, 0), 2);
}

TEST_F(SqlExecTest, OrderByNullsFirst) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE withnull (v BIGINT);
    INSERT INTO withnull VALUES (2), (NULL), (1);
  )").ok());
  QueryResult r = Q("SELECT v FROM withnull ORDER BY v");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_EQ(r.GetInt64(1, 0), 1);
}

TEST_F(SqlExecTest, Distinct) {
  QueryResult r = Q("SELECT DISTINCT a % 2 FROM nums ORDER BY 1");
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST_F(SqlExecTest, CtesChainAndShadow) {
  QueryResult r = Q(R"(
    WITH t1 AS (SELECT a * 2 AS x FROM nums),
         t2 AS (SELECT x + 1 AS y FROM t1)
    SELECT SUM(y) FROM t2)");
  EXPECT_EQ(Int128ToString(r.GetInt128(0, 0)), "24");  // (2+4+6+8)+4
}

TEST_F(SqlExecTest, SubqueryInFrom) {
  QueryResult r =
      Q("SELECT q.t FROM (SELECT a + b AS t FROM nums) AS q WHERE q.t > 30");
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(SqlExecTest, CaseExpression) {
  QueryResult r = Q(
      "SELECT CASE WHEN d > 2 THEN 'hi' WHEN d > 0 THEN 'mid' ELSE 'lo' END "
      "FROM nums ORDER BY a");
  EXPECT_EQ(r.GetString(0, 0), "mid");
  EXPECT_EQ(r.GetString(1, 0), "hi");
  EXPECT_EQ(r.GetString(2, 0), "lo");
}

TEST_F(SqlExecTest, CaseWithoutElseYieldsNull) {
  QueryResult r = Q("SELECT CASE WHEN a > 100 THEN 1 END FROM nums LIMIT 1");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
}

TEST_F(SqlExecTest, ScalarFunctions) {
  QueryResult r = Q(
      "SELECT ABS(-3), SQRT(16.0), POW(2, 10), ROUND(2.567, 2), "
      "FLOOR(2.9), CEIL(2.1), MOD(7, 3)");
  EXPECT_EQ(r.GetInt64(0, 0), 3);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 1024.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 2.57);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 4), 2.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 5), 3.0);
  EXPECT_EQ(r.GetInt64(0, 6), 1);
}

TEST_F(SqlExecTest, StringFunctions) {
  QueryResult r = Q(
      "SELECT SUBSTR('qymera', 2, 3), LENGTH(name), CONCAT(name, '!'), "
      "name || '?' FROM nums WHERE a = 1");
  EXPECT_EQ(r.GetString(0, 0), "yme");
  EXPECT_EQ(r.GetInt64(0, 1), 3);
  EXPECT_EQ(r.GetString(0, 2), "one!");
  EXPECT_EQ(r.GetString(0, 3), "one?");
}

TEST_F(SqlExecTest, CastExpression) {
  QueryResult r =
      Q("SELECT CAST('12' AS BIGINT) + 1, CAST(a AS VARCHAR) FROM nums "
        "WHERE a = 2");
  EXPECT_EQ(r.GetInt64(0, 0), 13);
  EXPECT_EQ(r.GetString(0, 1), "2");
}

TEST_F(SqlExecTest, InsertSelect) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE copy (a BIGINT, b BIGINT)").ok());
  QueryResult r = Q("INSERT INTO copy SELECT a, b FROM nums WHERE a <= 2");
  EXPECT_EQ(r.rows_changed, 2u);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM copy").GetInt64(0, 0), 2);
}

TEST_F(SqlExecTest, CreateTableAsSelect) {
  QueryResult r = Q("CREATE TABLE doubled AS SELECT a * 2 AS a2 FROM nums");
  EXPECT_EQ(r.rows_changed, 4u);
  EXPECT_EQ(Q("SELECT MAX(a2) FROM doubled").GetInt64(0, 0), 8);
}

TEST_F(SqlExecTest, DropTable) {
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE gone (x BIGINT)").ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE gone").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM gone").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS gone").ok());
  EXPECT_FALSE(db_.Execute("DROP TABLE gone").ok());
}

TEST_F(SqlExecTest, SelectConstantsWithoutFrom) {
  QueryResult r = Q("SELECT 1 + 1, 'x'");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.GetInt64(0, 0), 2);
}

TEST_F(SqlExecTest, NullPropagationInExpressions) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE n2 (v BIGINT);
    INSERT INTO n2 VALUES (1), (NULL);
  )").ok());
  QueryResult r = Q("SELECT v + 1, v IS NULL, v IS NOT NULL FROM n2 ORDER BY v");
  EXPECT_TRUE(r.GetValue(0, 0).is_null());
  EXPECT_EQ(r.GetValue(0, 1).bool_value(), true);
  EXPECT_EQ(r.GetInt64(1, 0), 2);
}

TEST_F(SqlExecTest, AggregatesSkipNulls) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE n3 (v DOUBLE);
    INSERT INTO n3 VALUES (1.0), (NULL), (3.0);
  )").ok());
  QueryResult r = Q("SELECT COUNT(v), COUNT(*), SUM(v), AVG(v) FROM n3");
  EXPECT_EQ(r.GetInt64(0, 0), 2);
  EXPECT_EQ(r.GetInt64(0, 1), 3);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(r.GetDouble(0, 3), 2.0);
}

TEST_F(SqlExecTest, BindErrors) {
  EXPECT_EQ(Err("SELECT nosuch FROM nums").code(), StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT * FROM nosuch").code(), StatusCode::kNotFound);
  EXPECT_EQ(Err("SELECT a FROM nums GROUP BY b").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT name & 1 FROM nums").code(), StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT SUM(a) FROM nums WHERE SUM(a) > 1").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT a FROM nums HAVING a > 1").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT a FROM nums ORDER BY 99").code(),
            StatusCode::kBindError);
  EXPECT_EQ(Err("SELECT NOSUCHFUNC(a) FROM nums").code(),
            StatusCode::kBindError);
}

TEST_F(SqlExecTest, AmbiguousColumnIsError) {
  ASSERT_TRUE(db_.ExecuteScript(R"(
    CREATE TABLE other (a BIGINT);
    INSERT INTO other VALUES (1);
  )").ok());
  EXPECT_EQ(Err("SELECT a FROM nums, other").code(), StatusCode::kBindError);
  // Qualified access works.
  EXPECT_EQ(Q("SELECT other.a FROM nums, other").NumRows(), 4u);
}

TEST_F(SqlExecTest, DuplicateCreateFails) {
  EXPECT_EQ(Err("CREATE TABLE nums (x BIGINT)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS nums (x BIGINT)").ok());
}

TEST_F(SqlExecTest, InsertArityChecked) {
  EXPECT_FALSE(db_.Execute("INSERT INTO nums VALUES (1, 2)").ok());
}

TEST_F(SqlExecTest, ExplainProducesPlan) {
  auto text = db_.Explain(
      "SELECT a, SUM(d) FROM nums WHERE b > 10 GROUP BY a ORDER BY a");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("HashAggregate"), std::string::npos);
  EXPECT_NE(text->find("Scan nums"), std::string::npos);
  EXPECT_NE(text->find("Sort"), std::string::npos);
}

TEST_F(SqlExecTest, ResultToStringRenders) {
  QueryResult r = Q("SELECT a, name FROM nums ORDER BY a LIMIT 2");
  std::string text = r.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("one"), std::string::npos);
}

// NULL-key equi-join semantics on both join key paths.

TEST_F(SqlExecTest, NullJoinKeysNeverMatchOnIntKeyPath) {
  FillNullKeyTables(&db_);
  QueryResult r = Q(
      "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k ORDER BY l.lv, r.rv");
  // NULL keys never match, not even NULL = NULL: rows lv=30 and rv=300/500
  // are dropped; k=4 still matches on the fast path (k2 is not a join key).
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(Rows(r), "10,100\n11,100\n20,200\n20,201\n40,400\n");
}

TEST_F(SqlExecTest, NullJoinKeysNeverMatchOnMultiKeyPath) {
  FillNullKeyTables(&db_);
  QueryResult r = Q(
      "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2 "
      "ORDER BY l.lv, r.rv");
  // (4, NULL) on both sides must NOT match even though the serialized key
  // bytes would be equal; (NULL, 7) likewise.
  ASSERT_EQ(r.NumRows(), 4u);
  EXPECT_EQ(Rows(r), "10,100\n11,100\n20,200\n20,201\n");
}

TEST_F(SqlExecTest, JoinBuildOomReleasesReservationAndReportsBytes) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 96 << 10;  // build side will not fit
  Database db(opts);
  FillBig(&db, "probe", 16, 16);
  FillBig(&db, "build", 4000, 4000);
  auto r = db.Execute(
      "SELECT probe.v FROM probe JOIN build ON probe.k = build.k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(r.status().message().find("requested"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("already held"), std::string::npos);
  // The failed build must not leave the tracker charged: the same query
  // against a smaller build side must still have the full budget available.
  ASSERT_TRUE(db.ExecuteScript("DROP TABLE build").ok());
  FillBig(&db, "build", 16, 16);
  auto retry = db.Execute(
      "SELECT probe.v FROM probe JOIN build ON probe.k = build.k");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// Per-operator profile.

TEST_F(SqlExecTest, ProfileRecordsOperators) {
  FillBig(&db_, "t", 5000, 50);
  Q("SELECT k, SUM(v) FROM t WHERE v >= 0 GROUP BY k ORDER BY k");
  std::vector<std::string> names;
  for (const OperatorProfile& op : db_.profile().Snapshot()) {
    names.push_back(op.name);
    EXPECT_GT(op.invocations, 0u) << op.name;
  }
  for (const char* expected : {"Scan", "Filter", "HashAggregate", "Sort"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "profile is missing operator " << expected << " in "
        << db_.profile().ToString();
  }
  EXPECT_FALSE(db_.profile().ToString().empty());
}

TEST_F(SqlExecTest, ProfileTimesAndCountsJoinBuildAndProbe) {
  constexpr int kProbeRows = 120000, kBuildRows = 64;
  FillBig(&db_, "probe", kProbeRows, kBuildRows);
  FillBig(&db_, "build", kBuildRows, kBuildRows);
  QueryResult r =
      Q("SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k");
  EXPECT_EQ(r.GetInt64(0, 0), kProbeRows);
  bool saw_build = false, saw_probe = false;
  for (const OperatorProfile& op : db_.profile().Snapshot()) {
    if (op.name == "HashJoinBuild") {
      saw_build = true;
      EXPECT_EQ(op.rows_out, static_cast<uint64_t>(kBuildRows));
      EXPECT_GT(op.seconds, 0.0);
    } else if (op.name == "HashJoinProbe") {
      saw_probe = true;
      EXPECT_EQ(op.rows_out, static_cast<uint64_t>(kProbeRows));
      EXPECT_GT(op.seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_build && saw_probe) << db_.profile().ToString();
}

}  // namespace
}  // namespace qy::sql
