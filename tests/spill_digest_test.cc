/// \file spill_digest_test.cc
/// Golden digests of aggregation results that go through the disk spill.
///
/// Every case runs under a memory budget small enough that the hash
/// aggregate spills, and records the output rows in the order the engine
/// produced them (no ORDER BY), with the exact bits of every value, plus the
/// number of spilled rows. The rendering must match
/// tests/data/spill_digest.txt byte for byte, so a change to the spill
/// record codec that moves a row, a partition or the last bit of an
/// amplitude fails here.
///
/// Cases: per-gate outputs of budgeted qymera-sql runs (EqualSuperposition
/// and a random dense circuit on top of it), and SQL aggregates of every
/// kind over BIGINT, HUGEINT, VARCHAR, nullable and composite keys,
/// including a skew case that repartitions twice. The `t1` in every case
/// name dates from when the engine also ran multi-threaded; it stays so the
/// golden lines keep their text.
///
/// Regenerate only when a result change is intended (run from tests/):
///   QY_REGEN_SPILL_DIGEST=1 ../build/tests/spill_digest_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "circuit/families.h"
#include "core/encoding.h"
#include "core/translator.h"
#include "sql/database.h"

namespace qy::sql {
namespace {

constexpr const char* kGoldenPath = "data/spill_digest.txt";

/// FNV-1a 64 over raw bytes, fed incrementally.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Mix(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void MixPod(const T& v) {
    Mix(&v, sizeof(v));
  }
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of the rows of `result`, in engine order: per value, its NULL
/// flag and the exact bytes of its payload.
uint64_t DigestRows(const QueryResult& result) {
  Digest d;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    auto put = [&d](const void* data, size_t n) { d.Mix(data, n); };
    for (size_t c = 0; c < result.NumColumns(); ++c) {
      const ColumnVector& col = result.column(c);
      char null = col.IsNull(r) ? 1 : 0;
      put(&null, 1);
      if (null) continue;
      switch (col.type()) {
        case DataType::kBool:
          put(&col.bool_data()[r], 1);
          break;
        case DataType::kBigInt:
          put(&col.i64_data()[r], sizeof(int64_t));
          break;
        case DataType::kHugeInt:
          put(&col.i128_data()[r], sizeof(int128_t));
          break;
        case DataType::kDouble:
          put(&col.f64_data()[r], sizeof(double));
          break;
        case DataType::kVarchar: {
          const std::string& s = col.str_data()[r];
          uint64_t len = s.size();
          put(&len, sizeof(len));
          put(s.data(), s.size());
          break;
        }
      }
    }
  }
  return d.h;
}

std::string Line(const std::string& name, const QueryResult& result,
                 uint64_t rows_spilled) {
  return name + " rows=" + std::to_string(result.NumRows()) +
         " spilled=" + std::to_string(rows_spilled) +
         " digest=" + Hex(DigestRows(result)) + "\n";
}

/// Run `circuit` gate by gate (materialized steps, as QymeraSimulator does)
/// under `budget_per_row` bytes per 2^n rows; one line per gate output table.
void SimCase(const std::string& name, const qc::QuantumCircuit& circuit,
             uint64_t budget_per_row, std::string* out) {
  int n = circuit.num_qubits();
  DatabaseOptions dopts;
  dopts.memory_budget_bytes = (uint64_t{1} << n) * budget_per_row;
  Database db(dopts);
  core::TranslateOptions topts;
  topts.ping_pong_states = true;
  auto tr = core::TranslateCircuit(circuit, topts);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  for (const core::EncodedGate& gate : tr->gate_tables) {
    ASSERT_TRUE(core::MaterializeGateTable(&db, gate).ok());
  }
  ASSERT_TRUE(core::MaterializeStateTable(&db, "T0",
                                          sim::SparseState::ZeroState(n),
                                          /*use_hugeint=*/false)
                  .ok());
  std::string current = "T0";
  uint64_t spilled_total = 0;
  for (size_t k = 0; k < tr->steps.size(); ++k) {
    const core::GateQuery& step = tr->steps[k];
    uint64_t before = db.total_rows_spilled();
    auto ctas = db.Execute("CREATE TABLE " + step.output_table + " AS " +
                           step.select_sql);
    ASSERT_TRUE(ctas.ok()) << ctas.status().ToString();
    uint64_t spilled = db.total_rows_spilled() - before;
    spilled_total += spilled;
    ASSERT_TRUE(db.ExecuteScript("DROP TABLE " + current).ok());
    current = step.output_table;
    auto rows = db.Execute("SELECT * FROM " + current);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    *out += Line(name + "/t1/gate" + std::to_string(k), *rows, spilled);
  }
  EXPECT_GT(spilled_total, 0u) << name << ": budget did not trigger a spill";
  EXPECT_EQ(db.temp_files().LiveFileCount(), 0u);
}

/// A table whose every key column holds NULLs on some rows:
///   k BIGINT, h HUGEINT, s VARCHAR, v DOUBLE, i BIGINT.
void FillMixed(Database* db, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE m (k BIGINT, h HUGEINT, "
                                "s VARCHAR, v DOUBLE, i BIGINT)")
                  .ok());
  auto table = db->catalog().GetTable("m");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    int g = (r * 7919) % groups;
    Value k = g % 97 == 0 ? Value::Null(DataType::kBigInt)
                          : Value::BigInt(g - groups / 2);
    Value h = g % 89 == 0
                  ? Value::Null(DataType::kHugeInt)
                  : Value::HugeInt((static_cast<int128_t>(g) << 70) - g);
    Value s = g % 83 == 0 ? Value::Null(DataType::kVarchar)
                          : Value::Varchar("key_" + std::to_string(g % 1500));
    Value v = r % 13 == 0 ? Value::Null(DataType::kDouble)
                          : Value::Double(0.1 * r - 37.5);
    Value i = r % 11 == 0 ? Value::Null(DataType::kBigInt)
                          : Value::BigInt((r * 31) % 1000 - 500);
    ASSERT_TRUE((*table)->AppendRow({k, h, s, v, i}).ok());
  }
}

void SqlCases(std::string* out) {
  const std::string aggs =
      "SUM(v), SUM(i), SUM(h), COUNT(*), COUNT(v), AVG(v), AVG(i), MIN(v), "
      "MAX(v), MIN(i), MAX(i), MIN(s), MAX(s), MIN(h), MAX(h)";
  const std::pair<const char*, const char*> keys[] = {
      {"bigint", "k"},   {"hugeint", "h"},      {"varchar", "s"},
      {"composite", "k, s"}, {"composite_fixed", "i, h"},
  };
  DatabaseOptions opts;
  // Holds the table and one query's result, but not the ~1.2 KiB of
  // aggregate states per group.
  opts.memory_budget_bytes = 3000 << 10;
  Database db(opts);
  FillMixed(&db, 12000, 4000);
  for (const auto& [name, key] : keys) {
    auto got = db.Execute(std::string("SELECT ") + key + ", " + aggs +
                          " FROM m GROUP BY " + key);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_GT(got->stats.rows_spilled, 0u) << name << ": no spill";
    *out += Line(std::string("sql/t1/") + name, *got,
                 got->stats.rows_spilled);
  }
  EXPECT_EQ(db.temp_files().LiveFileCount(), 0u);
}

/// All keys but a NULL one distinct, under a budget that leaves room for about 1/256 of the
/// groups beside the table: first-level partitions and many of their
/// sub-partitions overflow, so finalization repartitions at depths 1 and 2.
void SkewCase(std::string* out) {
  DatabaseOptions opts;
  opts.memory_budget_bytes = 1740 << 10;
  Database db(opts);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
  auto table = db.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < 100000; ++r) {
    Value k = r % 1000 == 999 ? Value::Null(DataType::kBigInt)
                              : Value::BigInt(r * 2654435761ll % 1000003);
    ASSERT_TRUE((*table)->AppendRow({k, Value::Double(1.0 / (r + 1))}).ok());
  }
  // The filter keeps the result small enough to materialize under the budget
  // while preserving the order the aggregate emitted its groups in.
  auto got = db.Execute(
      "SELECT k, sv, c, mn FROM (SELECT k, SUM(v) AS sv, COUNT(*) AS c, "
      "MIN(v) AS mn FROM t GROUP BY k) AS a WHERE k % 256 = 0 OR k IS NULL");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Depth 0 creates 16 partitions and depth 1 at most 16 x 16 more; any
  // partition beyond that was created at depth 2.
  EXPECT_GT(got->stats.spill_partitions, 16u + 16u * 16u)
      << "skew case did not repartition at depth 2";
  *out += Line("skew/t1", *got, got->stats.rows_spilled);
  EXPECT_EQ(db.temp_files().LiveFileCount(), 0u);
}

std::string Render() {
  std::string out;
  SimCase("superposition14", qc::EqualSuperposition(14), 70, &out);
  for (uint64_t seed : {3u, 17u}) {
    qc::QuantumCircuit c = qc::EqualSuperposition(12);
    qc::QuantumCircuit body = qc::RandomDense(12, 2, seed);
    for (const qc::Gate& g : body.gates()) c.AddGate(g);
    SimCase("random_dense12_s" + std::to_string(seed), c, 130, &out);
  }
  SqlCases(&out);
  SkewCase(&out);
  return out;
}

TEST(SpillDigestTest, MatchesGolden) {
  std::string got = Render();
  ASSERT_FALSE(::testing::Test::HasFailure());
  if (std::getenv("QY_REGEN_SPILL_DIGEST") != nullptr) {
    std::ofstream f(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << got;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  std::ifstream f(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing " << kGoldenPath;
  std::stringstream want;
  want << f.rdbuf();
  std::istringstream got_lines(got), want_lines(want.str());
  std::string g, w;
  int line = 0;
  while (true) {
    bool more_g = static_cast<bool>(std::getline(got_lines, g));
    bool more_w = static_cast<bool>(std::getline(want_lines, w));
    ++line;
    if (!more_g && !more_w) break;
    EXPECT_EQ(g, w) << "line " << line;
    if (!more_g || !more_w) break;
  }
}

}  // namespace
}  // namespace qy::sql
