/// \file bench_sql_frontend.cc
/// SQL front-end microbenchmark: tokenize, parse (tokenize included) and bind
/// of the gate SELECTs the translator emits for SparsePhase(n, 160) — the
/// per-gate statements of the sparse_deep workload, at n=40 (BIGINT state
/// index) and n=100 (HUGEINT). Each iteration handles one gate statement, in
/// circuit order, so the reported time is per gate. `CTAS` runs each gate
/// the way the simulator does, through `Database::Execute`.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "circuit/families.h"
#include "core/encoding.h"
#include "core/translator.h"
#include "sql/database.h"

namespace {

using namespace qy;

struct Fixture {
  std::unique_ptr<sql::Database> db;
  std::vector<std::string> selects;
  size_t sql_bytes = 0;
};

/// Gate SELECTs of SparsePhase(n, 160, seed 1) with the simulator's default
/// translation (pruning on, ping-pong state names), plus a database holding
/// every gate table and both state tables so the statements bind.
const Fixture& GetFixture(int n) {
  static std::unique_ptr<Fixture> cache[2];
  std::unique_ptr<Fixture>& slot = cache[n > 62 ? 1 : 0];
  if (slot) return *slot;
  slot = std::make_unique<Fixture>();
  core::TranslateOptions topts;
  topts.use_hugeint = n > 62;
  topts.ping_pong_states = true;
  auto tr = core::TranslateCircuit(qc::SparsePhase(n, 160, /*seed=*/1), topts);
  if (!tr.ok()) std::abort();
  slot->db = std::make_unique<sql::Database>();
  for (const core::EncodedGate& gate : tr->gate_tables) {
    if (!core::MaterializeGateTable(slot->db.get(), gate).ok()) std::abort();
  }
  for (const char* name : {"T0", "T1"}) {
    if (!core::MaterializeStateTable(slot->db.get(), name,
                                     sim::SparseState::ZeroState(n),
                                     topts.use_hugeint)
             .ok()) {
      std::abort();
    }
  }
  for (const core::GateQuery& step : tr->steps) {
    slot->selects.push_back(step.select_sql);
    slot->sql_bytes += step.select_sql.size();
  }
  return *slot;
}

void Report(benchmark::State& state, const Fixture& f) {
  state.SetItemsProcessed(state.iterations());
  state.counters["sql_bytes"] =
      static_cast<double>(f.sql_bytes) / static_cast<double>(f.selects.size());
}

void BM_Tokenize(benchmark::State& state) {
  const Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  size_t k = 0;
  for (auto _ : state) {
    auto tokens = sql::Tokenize(f.selects[k]);
    if (!tokens.ok()) state.SkipWithError("tokenize failed");
    benchmark::DoNotOptimize(tokens);
    k = (k + 1) % f.selects.size();
  }
  Report(state, f);
}

void BM_Parse(benchmark::State& state) {
  const Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  size_t k = 0;
  for (auto _ : state) {
    auto stmt = sql::ParseStatement(f.selects[k]);
    if (!stmt.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(stmt);
    k = (k + 1) % f.selects.size();
  }
  Report(state, f);
}

void BM_Bind(benchmark::State& state) {
  const Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  std::vector<sql::Statement> stmts;
  for (const std::string& sql : f.selects) {
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    stmts.push_back(std::move(stmt).value());
  }
  size_t k = 0;
  for (auto _ : state) {
    auto plan = sql::BindSelect(*stmts[k].select, f.db->catalog(),
                                sql::CteScope{});
    if (!plan.ok()) state.SkipWithError("bind failed");
    benchmark::DoNotOptimize(plan);
    k = (k + 1) % stmts.size();
  }
  Report(state, f);
}

void BM_ParseBind(benchmark::State& state) {
  const Fixture& f = GetFixture(static_cast<int>(state.range(0)));
  size_t k = 0;
  for (auto _ : state) {
    auto stmt = sql::ParseStatement(f.selects[k]);
    if (!stmt.ok()) {
      state.SkipWithError("parse failed");
      break;
    }
    auto plan = sql::BindSelect(*stmt->select, f.db->catalog(),
                                sql::CteScope{});
    if (!plan.ok()) state.SkipWithError("bind failed");
    benchmark::DoNotOptimize(plan);
    k = (k + 1) % f.selects.size();
  }
  Report(state, f);
}

/// The simulator's per-gate statement: parse, bind, execute and materialize
/// the CTAS, then drop its input. Each pass over the circuit restarts from
/// |0>, so the state keeps the few rows it has in the real run.
void BM_CTAS(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const Fixture& f = GetFixture(n);
  sql::Database* db = f.db.get();
  size_t k = 0;
  for (auto _ : state) {
    if (k == 0) {
      state.PauseTiming();
      (void)db->Execute("DROP TABLE IF EXISTS T0");
      (void)db->Execute("DROP TABLE IF EXISTS T1");
      if (!core::MaterializeStateTable(db, "T0", sim::SparseState::ZeroState(n),
                                       n > 62)
               .ok()) {
        std::abort();
      }
      state.ResumeTiming();
    }
    // Gate k reads T(k%2) and writes T((k+1)%2).
    std::string in = k % 2 == 0 ? "T0" : "T1";
    std::string out = k % 2 == 0 ? "T1" : "T0";
    auto result = db->Execute("CREATE TABLE " + out + " AS " + f.selects[k]);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    (void)db->Execute("DROP TABLE " + in);
    k = (k + 1) % f.selects.size();
  }
  Report(state, f);
}

void PerGate(benchmark::internal::Benchmark* b) {
  b->ArgName("n")->Arg(40)->Arg(100)->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_Tokenize)->Apply(PerGate);
BENCHMARK(BM_Parse)->Apply(PerGate);
BENCHMARK(BM_Bind)->Apply(PerGate);
BENCHMARK(BM_ParseBind)->Apply(PerGate);
BENCHMARK(BM_CTAS)->Apply(PerGate);

}  // namespace

BENCHMARK_MAIN();
