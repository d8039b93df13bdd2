#include "core/qymera_sim.h"

#include <chrono>

#include "common/checksum.h"
#include "common/failpoint.h"
#include "sim/checkpoint.h"

namespace qy::core {

namespace {

/// Checkpoint payload for the SQL backend: the sparse state read back from
/// the current intermediate table (exact, eps = 0).
std::string EncodeSparseState(const sim::SparseState& state) {
  sim::BlobWriter w;
  w.U64(state.amplitudes().size());
  for (const auto& [idx, amp] : state.amplitudes()) {
    w.Index(idx);
    w.C128(amp);
  }
  return w.TakeBytes();
}

Result<sim::SparseState> DecodeSparseState(const std::string& payload, int n) {
  sim::BlobReader r(payload);
  uint64_t nnz;
  QY_RETURN_IF_ERROR(r.U64(&nnz));
  std::vector<std::pair<BasisIndex, sim::Complex>> amps;
  amps.reserve(nnz);
  BasisIndex limit = BasisIndex{1} << n;
  for (uint64_t i = 0; i < nnz; ++i) {
    BasisIndex idx;
    sim::Complex amp;
    QY_RETURN_IF_ERROR(r.Index(&idx));
    QY_RETURN_IF_ERROR(r.C128(&amp));
    if (idx >= limit) {
      return Status::DataLoss("checkpoint amplitude index out of range");
    }
    amps.emplace_back(idx, amp);
  }
  return sim::SparseState(n, std::move(amps));
}

/// One-line rendering of the database's plan-cache counters, appended to the
/// operator profile (CLI --stats).
std::string PlanCacheLine(const sql::Database& db) {
  const sql::PlanCacheStats& s = db.plan_cache_stats();
  return "PlanCache: hits=" + std::to_string(s.hits) +
         " misses=" + std::to_string(s.misses) +
         " invalidations=" + std::to_string(s.invalidations) +
         " evictions=" + std::to_string(s.evictions) + "\n";
}

}  // namespace

Result<Translation> QymeraSimulator::Translate(
    const qc::QuantumCircuit& circuit) const {
  qc::QuantumCircuit prepared = circuit;
  if (qopts_.enable_fusion) {
    QY_ASSIGN_OR_RETURN(prepared, FuseGates(circuit, qopts_.fusion));
  }
  TranslateOptions topts;
  topts.use_hugeint = qopts_.force_hugeint || circuit.num_qubits() > 62;
  topts.prune_epsilon = options_.prune_epsilon;
  topts.order_final = qopts_.final_order_by;
  topts.ping_pong_states =
      qopts_.mode == QymeraOptions::Mode::kMaterializedSteps;
  return TranslateCircuit(prepared, topts);
}

Result<RunSummary> QymeraSimulator::ExecuteInternal(
    const qc::QuantumCircuit& circuit, sql::Database* db,
    std::string* final_table, int* num_qubits) {
  auto start = std::chrono::steady_clock::now();
  QY_RETURN_IF_ERROR(circuit.status());
  qc::QuantumCircuit prepared = circuit;
  if (qopts_.enable_fusion) {
    QY_ASSIGN_OR_RETURN(prepared, FuseGates(circuit, qopts_.fusion));
  }
  int n = prepared.num_qubits();
  *num_qubits = n;
  bool use_hugeint = qopts_.force_hugeint || n > 62;

  TranslateOptions topts;
  topts.use_hugeint = use_hugeint;
  topts.prune_epsilon = options_.prune_epsilon;
  topts.order_final = qopts_.final_order_by;
  // Ping-pong state naming lets a gate's SQL text repeat an earlier gate's
  // when gate table, qubits and step parity all match, so the plan cache can
  // skip its parse/bind/plan. Qubit literals and per-angle gate tables make
  // that rare (2.2% of gates on sparse_deep, none on QFT).
  topts.ping_pong_states =
      qopts_.mode == QymeraOptions::Mode::kMaterializedSteps;
  QY_ASSIGN_OR_RETURN(Translation translation,
                      TranslateCircuit(prepared, topts));

  // Gate indices in the checkpoint refer to the fused (prepared) circuit's
  // translation steps; use_hugeint folds into the options digest because it
  // changes the state-table encoding.
  qy::Fingerprint ofp;
  ofp.MixU64(sim::SimOptionsFingerprint(options_));
  ofp.MixI64(use_hugeint ? 1 : 0);
  sim::CheckpointSession ckpt(options_, "qymera-sql", prepared.Fingerprint(),
                              ofp.hash(), n, translation.steps.size());
  if (ckpt.enabled() && qopts_.mode == QymeraOptions::Mode::kSingleQuery) {
    return Status::Unsupported(
        "checkpointing requires materialized-steps mode (one query per gate); "
        "single-query mode has no per-gate state to persist");
  }
  std::string resume_payload;
  QY_ASSIGN_OR_RETURN(uint64_t start_step, ckpt.Begin(&resume_payload));

  // Load gate tables, then either the initial state |0...0> or the
  // checkpointed state as the resumed step's output table.
  for (const EncodedGate& gate : translation.gate_tables) {
    QY_RETURN_IF_ERROR(MaterializeGateTable(db, gate));
  }
  std::string initial_table = "T0";
  sim::SparseState initial_state = sim::SparseState::ZeroState(n);
  if (start_step > 0) {
    initial_table = translation.steps[start_step - 1].output_table;
    QY_ASSIGN_OR_RETURN(initial_state, DecodeSparseState(resume_payload, n));
  }
  QY_RETURN_IF_ERROR(
      MaterializeStateTable(db, initial_table, initial_state, use_hugeint));

  RunSummary summary;
  summary.max_intermediate_rows = 1;

  if (qopts_.mode == QymeraOptions::Mode::kSingleQuery) {
    if (translation.steps.empty()) {
      *final_table = "T0";
    } else {
      // Materialize the full chained query into the final table.
      QY_ASSIGN_OR_RETURN(
          sql::QueryResult result,
          db->Execute("CREATE TABLE qy_final AS " + translation.single_query));
      summary.max_intermediate_rows =
          std::max<uint64_t>(summary.max_intermediate_rows,
                             result.rows_changed);
      *final_table = "qy_final";
    }
  } else {
    // One CREATE TABLE AS per gate, dropping the predecessor.
    std::string current = initial_table;
    for (size_t k = start_step; k < translation.steps.size(); ++k) {
      QY_FAILPOINT("sim/gate");
      if (options_.query != nullptr) {
        QY_RETURN_IF_ERROR(options_.query->Check());
      }
      const GateQuery& step = translation.steps[k];
      QY_ASSIGN_OR_RETURN(
          sql::QueryResult result,
          db->Execute("CREATE TABLE " + step.output_table + " AS " +
                      step.select_sql));
      summary.max_intermediate_rows = std::max<uint64_t>(
          summary.max_intermediate_rows, result.rows_changed);
      QY_RETURN_IF_ERROR(db->ExecuteScript("DROP TABLE " + current));
      current = step.output_table;
      if (step_callback_) {
        QY_ASSIGN_OR_RETURN(
            sim::SparseState state,
            ReadStateTable(db, current, n, options_.prune_epsilon));
        QY_RETURN_IF_ERROR(
            step_callback_(k, prepared.gates()[k], state));
      }
      // Serialization reads the state table back exactly (eps = 0); a read
      // failure inside the lambda surfaces through ser_status.
      Status ser_status;
      QY_RETURN_IF_ERROR(ckpt.AfterGate(k + 1, [&]() -> std::string {
        auto state = ReadStateTable(db, current, n, /*prune_epsilon=*/0.0);
        if (!state.ok()) {
          ser_status = state.status();
          return std::string();
        }
        return EncodeSparseState(*state);
      }));
      QY_RETURN_IF_ERROR(ser_status);
    }
    *final_table = current;
  }

  // Row count + norm without materializing the state client-side.
  QY_ASSIGN_OR_RETURN(
      sql::QueryResult norm_result,
      db->Execute("SELECT COUNT(*) AS rows, SUM(r * r + i * i) AS norm FROM " +
                  *final_table));
  summary.final_rows = static_cast<uint64_t>(norm_result.GetInt64(0, 0));
  summary.norm_squared = norm_result.GetDouble(0, 1);
  summary.rows_spilled = db->total_rows_spilled();
  summary.plan_cache_hits = db->plan_cache_stats().hits;
  summary.plan_cache_misses = db->plan_cache_stats().misses;

  summary.metrics.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  summary.metrics.peak_bytes = db->tracker().peak();
  summary.metrics.backend_stat = summary.max_intermediate_rows;
  summary.metrics.backend_stat_name = "max_rows";
  return summary;
}

sql::DatabaseOptions QymeraSimulator::MakeDbOptions() const {
  sql::DatabaseOptions dopts;
  dopts.memory_budget_bytes = options_.memory_budget_bytes;
  dopts.enable_spill = qopts_.enable_spill;
  dopts.chunk_size = qopts_.chunk_size;
  dopts.num_threads = qopts_.num_threads;
  dopts.query = options_.query;
  dopts.external_pool = qopts_.external_pool;
  dopts.parent_tracker = qopts_.parent_tracker;
  return dopts;
}

JsonValue RunSummaryToJson(const RunSummary& summary) {
  JsonValue obj{JsonValue::Object{}};
  obj.Set("final_rows", static_cast<int64_t>(summary.final_rows));
  obj.Set("norm_squared", summary.norm_squared);
  obj.Set("max_intermediate_rows",
          static_cast<int64_t>(summary.max_intermediate_rows));
  obj.Set("rows_spilled", static_cast<int64_t>(summary.rows_spilled));
  JsonValue plan_cache{JsonValue::Object{}};
  plan_cache.Set("hits", static_cast<int64_t>(summary.plan_cache_hits));
  plan_cache.Set("misses", static_cast<int64_t>(summary.plan_cache_misses));
  obj.Set("plan_cache", std::move(plan_cache));
  JsonValue metrics{JsonValue::Object{}};
  metrics.Set("wall_seconds", summary.metrics.wall_seconds);
  metrics.Set("peak_bytes", static_cast<int64_t>(summary.metrics.peak_bytes));
  metrics.Set(summary.metrics.backend_stat_name.empty()
                  ? "backend_stat"
                  : summary.metrics.backend_stat_name,
              static_cast<int64_t>(summary.metrics.backend_stat));
  obj.Set("metrics", std::move(metrics));
  return obj;
}

Result<RunSummary> QymeraSimulator::Execute(const qc::QuantumCircuit& circuit) {
  sql::Database db(MakeDbOptions());
  std::string final_table;
  int n = 0;
  QY_ASSIGN_OR_RETURN(RunSummary summary,
                      ExecuteInternal(circuit, &db, &final_table, &n));
  summary.operator_profile = db.profile().ToString() + PlanCacheLine(db);
  metrics_ = summary.metrics;
  last_summary_ = summary;
  return summary;
}

Result<sim::SparseState> QymeraSimulator::Run(
    const qc::QuantumCircuit& circuit) {
  sql::Database db(MakeDbOptions());
  std::string final_table;
  int n = 0;
  QY_ASSIGN_OR_RETURN(RunSummary summary,
                      ExecuteInternal(circuit, &db, &final_table, &n));
  QY_ASSIGN_OR_RETURN(
      sim::SparseState state,
      ReadStateTable(&db, final_table, n, options_.prune_epsilon));
  metrics_ = summary.metrics;
  last_operator_profile_ = db.profile().ToString() + PlanCacheLine(db);
  last_summary_ = summary;
  return state;
}

}  // namespace qy::core
