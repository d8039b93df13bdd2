/// \file frontend_plans_test.cc
/// Golden plan corpus for the SQL front end (tokenizer, parser, binder).
///
/// The corpus covers every gate SELECT the translator emits for QFT-6, GHZ-8,
/// RandomDense(6,3) and SparsePhase(n, 24) at n=40 and 100, each with BIGINT
/// and HUGEINT state indices and with pruning off and on, plus each circuit's
/// chained single query (WITH ... SELECT), plus the SQL texts of the
/// front-end and executor suites and a set of dialect edge cases. Each entry
/// records the parse outcome (canonical AST text or the exact error), the
/// EXPLAIN rendering, and a dump of every bound expression of the plan; the
/// rendering must match tests/data/frontend_plans.txt byte for byte.
///
/// Regenerate only when a plan change is intended (run from tests/):
///   QY_REGEN_FRONTEND_PLANS=1 ../build/tests/frontend_plans_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuit/families.h"
#include "core/encoding.h"
#include "core/translator.h"
#include "sql/database.h"

namespace qy::sql {
namespace {

constexpr const char* kGoldenPath = "data/frontend_plans.txt";

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void DumpBound(const BoundExpr& e, std::string* out) {
  switch (e.kind) {
    case BoundExprKind::kColumnRef:
      *out += "#" + std::to_string(e.col_idx);
      break;
    case BoundExprKind::kLiteral:
      *out += e.literal.ToString();
      break;
    case BoundExprKind::kUnary:
    case BoundExprKind::kBinary:
      *out += "op" + std::to_string(static_cast<int>(e.op));
      break;
    case BoundExprKind::kFunction:
      *out += "fn" + std::to_string(static_cast<int>(e.func));
      break;
    case BoundExprKind::kCase:
      *out += e.case_has_else ? "case+else" : "case";
      break;
    case BoundExprKind::kCast:
      *out += "cast";
      break;
  }
  *out += ":";
  *out += DataTypeName(e.type);
  if (!e.children.empty()) {
    *out += "(";
    for (size_t i = 0; i < e.children.size(); ++i) {
      if (i > 0) *out += ", ";
      DumpBound(*e.children[i], out);
    }
    *out += ")";
  }
}

void DumpList(const char* what, const std::vector<BoundExprPtr>& exprs,
              const std::string& pad, std::string* out) {
  for (const auto& e : exprs) {
    *out += pad + "  " + what + " ";
    DumpBound(*e, out);
    *out += "\n";
  }
}

/// Every field of a bound plan, one node per line plus its expressions.
void DumpPlan(const PlanNode& node, int indent, std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  *out += pad + "node" + std::to_string(static_cast<int>(node.kind)) + " [" +
          node.output_schema.ToString() + "]";
  if (node.table != nullptr) *out += " table=" + node.table->name();
  if (node.kind == PlanNode::Kind::kLimit) {
    *out += " limit=" + std::to_string(node.limit);
  }
  *out += "\n";
  DumpList("lkey", node.left_keys, pad, out);
  DumpList("rkey", node.right_keys, pad, out);
  if (node.residual) {
    *out += pad + "  residual ";
    DumpBound(*node.residual, out);
    *out += "\n";
  }
  if (node.predicate) {
    *out += pad + "  pred ";
    DumpBound(*node.predicate, out);
    *out += "\n";
  }
  DumpList("proj", node.projections, pad, out);
  DumpList("gkey", node.group_keys, pad, out);
  for (const auto& agg : node.aggs) {
    *out += pad + "  agg" + std::to_string(static_cast<int>(agg.func)) + ":" +
            DataTypeName(agg.result_type);
    if (agg.arg) {
      *out += " ";
      DumpBound(*agg.arg, out);
    }
    *out += "\n";
  }
  for (const auto& key : node.sort_keys) {
    *out += pad + (key.ascending ? "  asc " : "  desc ");
    DumpBound(*key.expr, out);
    *out += "\n";
  }
  for (const auto& child : node.children) {
    if (child) DumpPlan(*child, indent + 1, out);
  }
}

std::string Indent(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out += "  " + line + "\n";
  return out;
}

/// Canonical text of a parsed statement (every AST field that matters).
std::string RenderStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return "select " + stmt.select->ToString();
    case Statement::Kind::kExplain:
      return "explain " + stmt.select->ToString();
    case Statement::Kind::kCreateTable: {
      const CreateTableStmt& c = *stmt.create_table;
      std::string out = "create " + c.table_name;
      if (c.or_replace) out += " or_replace";
      if (c.if_not_exists) out += " if_not_exists";
      for (const auto& col : c.columns) {
        out += " " + col.name + ":" + DataTypeName(col.type);
      }
      if (c.as_select) out += " as " + c.as_select->ToString();
      return out;
    }
    case Statement::Kind::kInsert: {
      const InsertStmt& ins = *stmt.insert;
      std::string out = "insert " + ins.table_name;
      for (const auto& col : ins.column_names) out += " col:" + col;
      for (const auto& row : ins.values_rows) {
        out += " row(";
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) out += ", ";
          out += row[i]->ToString();
        }
        out += ")";
      }
      if (ins.select) out += " select " + ins.select->ToString();
      return out;
    }
    case Statement::Kind::kDropTable:
      return "drop " + stmt.drop_table->table_name +
             (stmt.drop_table->if_exists ? " if_exists" : "");
  }
  return "?";
}

/// Parse, EXPLAIN and bound-plan dump of one statement against `db`.
/// `full_dump` keeps the dump verbatim; otherwise it is recorded as a hash
/// (the gate entries: hundreds of near-identical plans).
std::string RenderEntry(Database* db, const std::string& sql, bool full_dump) {
  std::string out;
  auto stmt = ParseStatement(sql);
  if (!stmt.ok()) return "parse-error " + stmt.status().ToString() + "\n";
  if (full_dump) out += "parse " + RenderStatement(*stmt) + "\n";
  if (stmt->kind != Statement::Kind::kSelect &&
      stmt->kind != Statement::Kind::kExplain) {
    return out;
  }
  auto explain = db->Explain(sql);
  if (!explain.ok()) {
    return out + "explain-error " + explain.status().ToString() + "\n";
  }
  out += "explain\n" + Indent(*explain);
  if (!stmt->select->ctes.empty()) return out;
  auto plan = BindSelect(*stmt->select, db->catalog(), CteScope{});
  if (!plan.ok()) return out + "bind-error " + plan.status().ToString() + "\n";
  std::string dump;
  DumpPlan(**plan, 0, &dump);
  if (full_dump) return out + "bound\n" + Indent(dump);
  return out + "bound " + Hex(Fnv1a(dump)) + "\n";
}

struct CircuitCase {
  std::string name;
  qc::QuantumCircuit circuit;
};

std::vector<CircuitCase> Circuits() {
  return {
      {"qft6", qc::Qft(6)},
      {"ghz8", qc::Ghz(8)},
      {"random_dense6x3", qc::RandomDense(6, 3, /*seed=*/1)},
      {"sparse_phase40", qc::SparsePhase(40, 24, /*seed=*/1)},
      {"sparse_phase100", qc::SparsePhase(100, 24, /*seed=*/1)},
  };
}

/// Gate SELECTs and single queries: every step is explained, then run
/// (CREATE TABLE AS), so the next step binds against the real state table.
void RenderCircuit(const CircuitCase& c, bool hugeint, bool prune,
                   std::string* out) {
  std::string label = c.name + (hugeint ? " hugeint" : " bigint") +
                      (prune ? " prune" : " noprune");
  core::TranslateOptions topts;
  topts.use_hugeint = hugeint;
  topts.prune_epsilon = prune ? 1e-10 : 0.0;
  auto tr = core::TranslateCircuit(c.circuit, topts);
  if (!tr.ok()) {
    *out += "=== " + label + "\ntranslate-error " + tr.status().ToString() +
            "\n";
    return;
  }
  auto load = [&](Database* db) {
    for (const core::EncodedGate& gate : tr->gate_tables) {
      ASSERT_TRUE(core::MaterializeGateTable(db, gate).ok());
    }
    auto zero = sim::SparseState::ZeroState(c.circuit.num_qubits());
    ASSERT_TRUE(core::MaterializeStateTable(db, "T0", zero, hugeint).ok());
  };
  {
    Database db;
    load(&db);
    *out += "=== " + label + " single sql=" + Hex(Fnv1a(tr->single_query)) +
            "\n" + RenderEntry(&db, tr->single_query, /*full_dump=*/false);
  }
  Database db;
  load(&db);
  for (size_t k = 0; k < tr->steps.size(); ++k) {
    const core::GateQuery& step = tr->steps[k];
    *out += "=== " + label + " gate " + std::to_string(k) + " " +
            step.gate_table + " sql=" + Hex(Fnv1a(step.select_sql)) + "\n" +
            RenderEntry(&db, step.select_sql, /*full_dump=*/false);
    ASSERT_TRUE(db.Execute("CREATE TABLE " + step.output_table + " AS " +
                           step.select_sql)
                    .ok());
    ASSERT_TRUE(db.Execute("DROP TABLE " + step.input_table).ok());
  }
}

/// The fixture tables the executor suite creates, all at once.
constexpr const char* kFixtureScript = R"(
  CREATE TABLE nums (a BIGINT, b BIGINT, d DOUBLE, name VARCHAR);
  INSERT INTO nums VALUES (1, 10, 1.5, 'one'), (2, 20, 2.5, 'two'),
    (3, 30, -0.5, 'three'), (4, 40, 4.0, 'four');
  CREATE TABLE g (k BIGINT, v DOUBLE);
  CREATE TABLE big (v BIGINT);
  CREATE TABLE empty (v DOUBLE);
  CREATE TABLE gate (in_s BIGINT, out_s BIGINT, w DOUBLE);
  CREATE TABLE r2 (x BIGINT);
  CREATE TABLE r3 (x BIGINT);
  CREATE TABLE j1 (k BIGINT, v VARCHAR);
  CREATE TABLE j2 (k BIGINT, w VARCHAR);
  CREATE TABLE withnull (v BIGINT);
  CREATE TABLE n2 (v BIGINT);
  CREATE TABLE n3 (v DOUBLE);
  CREATE TABLE other (a BIGINT);
  CREATE TABLE copy (a BIGINT, b BIGINT);
  CREATE TABLE t (s BIGINT, r DOUBLE, i DOUBLE, a BIGINT, b BIGINT, c BIGINT,
                  x BIGINT, y BIGINT, z BOOLEAN);
  CREATE TABLE T0 (s BIGINT, r DOUBLE, i DOUBLE);
  CREATE TABLE H (in_s BIGINT, out_s BIGINT, r DOUBLE, i DOUBLE);
  CREATE TABLE u (a BIGINT, b BIGINT, c BIGINT);
)";

/// SQL texts of sql_frontend_test.cc and sql_exec_test.cc, then dialect edge
/// cases (operator precedence, non-associative comparison, NOT placement,
/// quoting, keyword case, group-key/aggregate matching, error offsets).
const std::vector<std::string>& SqlTexts() {
  static const std::vector<std::string> kTexts = {
      // sql_frontend_test.cc
      "SELECT s, r FROM t0 WHERE s >= 12",
      "SELECT s, r, i FROM T0 ORDER BY s",
      R"(
    WITH T1 AS (
      SELECT ((T0.s & ~1) | H.out_s) AS s,
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i
      FROM T0 JOIN H ON H.in_s = (T0.s & 1)
      GROUP BY ((T0.s & ~1) | H.out_s))
    SELECT s, r, i FROM T1 ORDER BY s)",
      "SELECT ((T0.s & ~1) | H.out_s) AS s, "
      "SUM((T0.r * H.r) - (T0.i * H.i)) AS r, "
      "SUM((T0.r * H.i) + (T0.i * H.r)) AS i "
      "FROM T0 JOIN H ON H.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | H.out_s)",
      "SELECT 1 | 2 & 3 << 1 + 2 * 3",
      "SELECT * FROM t WHERE a = 1 AND NOT b > 2 OR c <> 3",
      "SELECT -x, ~y, NOT z FROM t",
      "SELECT SUM(r), ABS(-1), CASE WHEN a > 0 THEN 1 ELSE 2 END, "
      "CAST(x AS DOUBLE) FROM t GROUP BY 3",
      "SELECT * FROM a JOIN b ON a.x = b.y",
      "SELECT * FROM a INNER JOIN b ON a.x = b.y",
      "SELECT * FROM a CROSS JOIN b",
      "SELECT * FROM a, b",
      "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w",
      "SELECT q.s FROM (SELECT s FROM t) AS q",
      "SELECT x.s FROM t AS x",
      "SELECT x.s FROM t x",
      "CREATE TABLE t (s BIGINT, r DOUBLE, name VARCHAR)",
      "CREATE TABLE IF NOT EXISTS t (a INT)",
      "CREATE OR REPLACE TABLE t (a INT)",
      "CREATE TABLE t AS SELECT 1 AS x",
      "INSERT INTO t VALUES (1, 2.0, 'a'), (2, 3.0, 'b')",
      "INSERT INTO t (a, b) VALUES (1, 2)",
      "INSERT INTO t SELECT * FROM u",
      "DROP TABLE IF EXISTS t",
      "SELECT 170141183460469231731687303715884105727",
      "SELECT s, SUM(r) FROM t GROUP BY s HAVING SUM(r) > 0.5 LIMIT 10",
      "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL",
      "SELECT",
      "SELECT FROM t",
      "SELECT * FROM",
      "SELECT * FROM t GROUP",
      "SELECT a b c FROM t",
      "CREATE TABLE t (a NOTATYPE)",
      "INSERT INTO t VALUES 1, 2",
      "SELECT * FROM t LIMIT abc",
      "SELECT CASE END",
      "UPDATE t SET a = 1",
      "SELECT DISTINCT t.* FROM t",
      "EXPLAIN SELECT 1",
      "SELECT 1 -- trailing\n+ /* block */ 2",
      "SELECT a != b <> c FROM t",
      "SELECT 1.5, .25, 2e10, 3.25E-4, 7",
      "SELECT 'it''s', 'plain'",
      "SELECT 'unterminated",
      "SELECT /* open",
      "SELECT a ? b",
      "SELECT 1e+",
      // sql_exec_test.cc
      "SELECT * FROM nums",
      "SELECT a + b AS total, name FROM nums",
      "SELECT a FROM nums WHERE b >= 20 AND d > 0",
      "SELECT 7 / 2, 7 % 3, -a, 2 * d FROM nums LIMIT 1",
      "SELECT 1 / 0, 5 % 0",
      "SELECT 12 & 10, 12 | 3, ~0, 3 << 4, 48 >> 3, 12 ^ 10",
      "SELECT (1267650600228229401496703205376 >> 99), "
      "(CAST(1 AS HUGEINT) << 100) & 1267650600228229401496703205376, "
      "~0 & 1267650600228229401496703205376",
      "SELECT k, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM g GROUP BY k "
      "ORDER BY k",
      "SELECT (a & ~1) AS s, SUM(d) FROM nums GROUP BY (a & ~1) ORDER BY s",
      "SELECT b % 20, COUNT(*) FROM nums GROUP BY 1 ORDER BY 1",
      "SELECT SUM(v) FROM big",
      "SELECT COUNT(*), SUM(v) FROM empty",
      "SELECT a % 2 AS parity, SUM(b) AS total FROM nums GROUP BY a % 2 "
      "HAVING SUM(b) > 45 ORDER BY parity",
      "SELECT nums.a, gate.out_s, gate.w FROM nums JOIN gate "
      "ON gate.in_s = (nums.a & 1) ORDER BY nums.a, gate.out_s",
      "SELECT nums.a FROM nums JOIN r2 ON (nums.a % 2) = (r2.x % 2) "
      "ORDER BY nums.a",
      "SELECT * FROM nums, r3",
      "SELECT nums.a, r3.x FROM nums JOIN r3 ON nums.a < r3.x "
      "ORDER BY nums.a, r3.x",
      "SELECT nums.a, j1.v, j2.w FROM nums JOIN j1 ON j1.k = nums.a "
      "JOIN j2 ON j2.k = j1.k ORDER BY nums.a",
      "SELECT a FROM nums ORDER BY d DESC LIMIT 2",
      "SELECT v FROM withnull ORDER BY v",
      "SELECT DISTINCT a % 2 FROM nums ORDER BY 1",
      R"(
    WITH t1 AS (SELECT a * 2 AS x FROM nums),
         t2 AS (SELECT x + 1 AS y FROM t1)
    SELECT SUM(y) FROM t2)",
      "SELECT q.t FROM (SELECT a + b AS t FROM nums) AS q WHERE q.t > 30",
      "SELECT CASE WHEN d > 2 THEN 'hi' WHEN d > 0 THEN 'mid' ELSE 'lo' END "
      "FROM nums ORDER BY a",
      "SELECT CASE WHEN a > 100 THEN 1 END FROM nums LIMIT 1",
      "SELECT ABS(-3), SQRT(16.0), POW(2, 10), ROUND(2.567, 2), "
      "FLOOR(2.9), CEIL(2.1), MOD(7, 3)",
      "SELECT SUBSTR('qymera', 2, 3), LENGTH(name), CONCAT(name, '!'), "
      "name || '?' FROM nums WHERE a = 1",
      "SELECT CAST('12' AS BIGINT) + 1, CAST(a AS VARCHAR) FROM nums "
      "WHERE a = 2",
      "INSERT INTO copy SELECT a, b FROM nums WHERE a <= 2",
      "SELECT COUNT(*) FROM copy",
      "CREATE TABLE doubled AS SELECT a * 2 AS a2 FROM nums",
      "SELECT MAX(a2) FROM doubled",
      "DROP TABLE gone",
      "SELECT * FROM gone",
      "SELECT 1 + 1, 'x'",
      "SELECT v + 1, v IS NULL, v IS NOT NULL FROM n2 ORDER BY v",
      "SELECT COUNT(v), COUNT(*), SUM(v), AVG(v) FROM n3",
      "SELECT nosuch FROM nums",
      "SELECT * FROM nosuch",
      "SELECT a FROM nums GROUP BY b",
      "SELECT name & 1 FROM nums",
      "SELECT SUM(a) FROM nums WHERE SUM(a) > 1",
      "SELECT a FROM nums HAVING a > 1",
      "SELECT a FROM nums ORDER BY 99",
      "SELECT NOSUCHFUNC(a) FROM nums",
      "SELECT a FROM nums, other",
      "SELECT other.a FROM nums, other",
      "CREATE TABLE nums (x BIGINT)",
      "CREATE TABLE IF NOT EXISTS nums (x BIGINT)",
      "INSERT INTO nums VALUES (1, 2)",
      "SELECT a, SUM(d) FROM nums WHERE b > 10 GROUP BY a ORDER BY a",
      "SELECT a, name FROM nums ORDER BY a LIMIT 2",
      // Dialect edge cases.
      "SELECT a = b = c FROM t",
      "SELECT a IS NULL = 1 FROM t",
      "SELECT a = b IS NULL FROM t",
      "SELECT (a = b = c) FROM t",
      "SELECT a FROM t WHERE a AND b = c = d",
      "SELECT NOT a = b FROM t",
      "SELECT NOT a = b = c FROM t",
      "SELECT a = NOT b FROM t",
      "SELECT - NOT a FROM t",
      "SELECT a FROM t WHERE NOT NOT z OR a < 2 AND NOT b = 1",
      "SELECT a FROM t WHERE z OR NOT z AND z",
      "SELECT 1 + 2 * 3 - 4 / 5 % 6 << 1 >> 2 & 3 ^ 4 | 5 || 'x'",
      "SELECT 1 - 2 - 3, 8 / 4 / 2, 1 << 2 << 3, 7 & 3 & 1, 1 ^ 2 ^ 3",
      "SELECT a || b | c, a | b || c FROM t",
      "SELECT - - a, ~ ~ a, + a, - + - a, -(a), ~(a + 1) FROM t",
      "SELECT a < b, a <= b, a > b, a >= b, a <> b, a != b FROM t",
      "SELECT ((((((a)))))) FROM t",
      "SELECT \"a\", \"from\" FROM t",
      "SELECT \"FROM\" FROM t",
      "SELECT \"a b\" FROM t",
      "select a from nums where b >= 20 and d > 0 order by a desc",
      "SELECT a x FROM nums n",
      "SELECT a AS \"select\" FROM nums",
      "SELECT a FROM nums LIMIT 99999999999999999999",
      "SELECT 9223372036854775807, 9223372036854775808",
      "SELECT 999999999999999999999999999999999999999999",
      "SELECT a FROM nums;",
      "SELECT a FROM nums; SELECT 1",
      "SELECT a FROM nums ;;",
      "SELECT COUNT(DISTINCT a) FROM nums",
      "SELECT COUNT() FROM nums",
      "SELECT n.* FROM nums n",
      "SELECT nums.* FROM nums",
      "SELECT x.* FROM nums",
      "SELECT (a & ~1) AS s, SUM(d) FROM nums GROUP BY (A & ~1)",
      "SELECT a + 1, SUM(b) FROM nums GROUP BY a + 1.0",
      "SELECT a + 1, SUM(b) FROM nums GROUP BY a + 1",
      "SELECT a + 1, SUM(b) FROM nums GROUP BY (a + 1)",
      "SELECT nums.a, SUM(b) FROM nums GROUP BY a",
      "SELECT a, SUM(b) FROM nums GROUP BY nums.a",
      "SELECT sum(b), SUM(b), Sum(b) FROM nums",
      "SELECT SUM(b) + SUM(b) * 2, COUNT(*), count(*) FROM nums",
      "SELECT a % 2, COUNT(*) FROM nums GROUP BY a % 2 HAVING COUNT(*) > 1 "
      "ORDER BY 1",
      "SELECT a % 2, COUNT(*) FROM nums GROUP BY a % 2 HAVING a % 2 = 0",
      "SELECT CASE WHEN a > 1 THEN a END, SUM(b) FROM nums "
      "GROUP BY CASE WHEN a > 1 THEN a END",
      "SELECT CASE WHEN a > 1 THEN a ELSE 0 END, SUM(b) FROM nums "
      "GROUP BY CASE WHEN a > 1 THEN a END",
      "SELECT CAST(a AS DOUBLE), SUM(b) FROM nums GROUP BY CAST(a AS DOUBLE)",
      "SELECT CAST(a AS DOUBLE), SUM(b) FROM nums GROUP BY CAST(a AS BIGINT)",
      "SELECT -a, SUM(b) FROM nums GROUP BY -a",
      "SELECT a IS NOT NULL, COUNT(*) FROM nums GROUP BY a IS NOT NULL",
      "SELECT ABS(a), SUM(b) FROM nums GROUP BY abs(a)",
      "SELECT 'one', COUNT(*) FROM nums GROUP BY 'one'",
      "SELECT name, COUNT(*) FROM nums GROUP BY 'name'",
      "SELECT a, b, SUM(d) FROM nums GROUP BY a, b, a",
      "SELECT SUM(a + b), SUM(b + a) FROM nums",
      "SELECT MIN(name), MAX(d), AVG(a), COUNT(name) FROM nums",
      "SELECT SUM(name) FROM nums",
      "SELECT SUM(a, b) FROM nums",
      "SELECT SUM(SUM(a)) FROM nums",
      "SELECT a FROM nums GROUP BY 0",
      "SELECT * , a FROM nums",
      "SELECT *, SUM(a) FROM nums",
      "SELECT a FROM nums ORDER BY b",
      "SELECT a FROM nums ORDER BY b + 1 DESC, a ASC",
      "SELECT DISTINCT a FROM nums ORDER BY b",
      "SELECT a AS q FROM nums ORDER BY q",
      "SELECT TRUE AND FALSE, NULL, TRUE OR NULL IS NULL",
      "SELECT a FROM nums WHERE a",
      "SELECT a FROM nums WHERE a IN (1)",
      "SELECT a FROM nums WHERE",
      "SELECT a,, b FROM nums",
      "SELECT ABS(",
      "SELECT (1",
      "SELECT 1 +",
      "SELECT a.b.c FROM nums",
      "SELECT a. FROM nums",
      "SELECT CAST(a AS) FROM nums",
      "SELECT CAST(a BIGINT) FROM nums",
      "SELECT CASE WHEN a THEN 1 FROM nums",
      "SELECT CASE a WHEN 1 THEN 2 END FROM nums",
      "WITH x AS (SELECT a FROM nums) SELECT * FROM x",
      "WITH x AS (SELECT a FROM nums), y AS (SELECT a FROM x) SELECT a FROM y",
      "WITH x (SELECT a FROM nums) SELECT * FROM x",
      "SELECT * FROM (SELECT a FROM nums) q",
      "SELECT * FROM (SELECT a FROM nums)",
      "SELECT * FROM (WITH x AS (SELECT 1 AS o) SELECT o FROM x) AS q",
      "SELECT * FROM nums AS x JOIN gate AS g ON g.in_s = x.a",
      "SELECT * FROM nums x JOIN gate g ON g.in_s = x.a AND x.b > 1",
      "SELECT * FROM nums JOIN gate ON nums.a + gate.in_s = 2",
      "SELECT * FROM nums JOIN gate ON gate.in_s = nums.a AND "
      "gate.out_s = (nums.b & 1) AND nums.d > 0",
      "SELECT * FROM nums JOIN gate",
      "SELECT * FROM nums LEFT JOIN gate ON gate.in_s = nums.a",
      "SELECT * FROM nums INNER gate",
      "SELECT * FROM nums CROSS gate",
      "INSERT INTO nums (a, b, d, name) VALUES (5, 50, 5.0, 'five')",
      "INSERT INTO nums VALUES (5, 50, 5.0)",
      "INSERT nums VALUES (1)",
      "INSERT INTO nums (a, b VALUES (1)",
      "CREATE TABLE t9 (a INT, b VARCHAR, c HUGEINT, d BOOLEAN, e DOUBLE)",
      "CREATE TABLE t9 (a INT,)",
      "CREATE TABLE t9",
      "CREATE OR REPLACE TABLE t9 AS SELECT a FROM nums",
      "CREATE OR TABLE t9 (a INT)",
      "CREATE TABLE IF EXISTS t9 (a INT)",
      "DROP TABLE IF EXISTS t9",
      "DROP t9",
      "DROP TABLE IF t9",
      "EXPLAIN SELECT a FROM nums",
      "EXPLAIN CREATE TABLE x (a INT)",
      "SELECT a FROM nums ORDER BY a DESC, b ASC",
      "SELECT a FROM nums GROUP BY",
      "SELECT a FROM nums ORDER a",
      "SELECT a FROM nums LIMIT",
      "SELECT a FROM nums LIMIT 1.5",
      "SELECT a FROM nums LIMIT -1",
      "",
      "   ",
      ";",
      "-- only a comment",
      "SELECT 1 /* a */ /* b */ -- c",
      "SELECT 1e5, 1E+5, 1.e3, 0.5e-2",
      "SELECT 1..2",
      "SELECT 'a' 'b'",
      "SELECT \"unterminated",
      "SELECT a FROM nums WHERE a >= 1 AND a <= 3 OR a <> 2",
      "SELECT a<<1>>1, a<=1, a>=1, a<>1 FROM t",
      "SELECT a FROM t WHERE a IS NOT 1",
      "SELECT a FROM t WHERE a IS",
      "SELECT NULL IS NULL, 1 IS NOT NULL",
      "SELECT TRUE = FALSE, FALSE <> NULL",
      "SELECT a FROM t WHERE z = TRUE",
      "SELECT ISNULL(a), COUNT(*) FROM nums GROUP BY a IS NULL",
      "SELECT name || 'x' || name FROM nums",
      "SELECT SUBSTRING(name, 1), CEILING(d), POWER(2, 3), LN(2), EXP(1), "
      "SIN(0), COS(0) FROM nums",
      "SELECT ROUND(1, 2, 3)",
      "SELECT CONCAT()",
  };
  return kTexts;
}

std::string RenderSqlTexts() {
  Database db;
  EXPECT_TRUE(db.ExecuteScript(kFixtureScript).ok());
  std::string out;
  for (const std::string& sql : SqlTexts()) {
    out += "=== sql " + Hex(Fnv1a(sql)) + "\n" + Indent(sql) +
           RenderEntry(&db, sql, /*full_dump=*/true);
  }
  return out;
}

std::string RenderCorpus() {
  std::string out;
  for (const CircuitCase& c : Circuits()) {
    for (bool hugeint : {false, true}) {
      for (bool prune : {false, true}) RenderCircuit(c, hugeint, prune, &out);
    }
  }
  out += RenderSqlTexts();
  return out;
}

TEST(FrontendPlansTest, CorpusMatchesGolden) {
  std::string actual = RenderCorpus();
  if (std::getenv("QY_REGEN_FRONTEND_PLANS") != nullptr) {
    std::ofstream(kGoldenPath, std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  std::string expected = golden.str();
  if (actual == expected) return;
  // Report the first differing entry in full.
  std::istringstream a(actual), e(expected);
  std::string la, le;
  std::string entry;
  int line = 0;
  while (true) {
    bool ga = static_cast<bool>(std::getline(a, la));
    bool ge = static_cast<bool>(std::getline(e, le));
    ++line;
    if (ga && la.rfind("=== ", 0) == 0) entry = la;
    if (!ga || !ge || la != le) {
      FAIL() << "plan corpus differs at line " << line << " in entry '"
             << entry << "'\n  expected: " << (ge ? le : "<eof>")
             << "\n  actual:   " << (ga ? la : "<eof>");
    }
  }
}

}  // namespace
}  // namespace qy::sql
