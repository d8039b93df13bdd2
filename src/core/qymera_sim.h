/// \file qymera_sim.h
/// The Qymera RDBMS simulation driver: the end-to-end path of the paper
/// (Fig. 1) — translate the circuit to SQL, execute inside the relational
/// engine, read the final state relation back.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/fusion.h"
#include "core/translator.h"
#include "sim/simulator.h"

namespace qy::core {

struct QymeraOptions {
  sim::SimOptions base;

  /// Gate fusion (paper Sec. 3.2). Off by default so the executed SQL
  /// matches the paper's one-query-per-gate shape; benches flip it on.
  bool enable_fusion = false;
  FusionOptions fusion;

  /// Execution style:
  /// kMaterializedSteps — one CREATE TABLE AS per gate, dropping the
  ///   previous state (bounded to two live states; out-of-core friendly;
  ///   enables step inspection).
  /// kSingleQuery — the paper's Fig. 2c chained-CTE query.
  enum class Mode { kMaterializedSteps, kSingleQuery };
  Mode mode = Mode::kMaterializedSteps;

  /// Let the hash aggregate spill partitions to disk under memory pressure
  /// (paper Sec. 3.3 out-of-core simulation).
  bool enable_spill = true;

  /// ORDER BY s on the final query (Fig. 2c); costs a full sort.
  bool final_order_by = false;

  /// Force 128-bit state indices even for <= 62 qubits (testing).
  bool force_hugeint = false;

  /// Engine vector size.
  size_t chunk_size = 2048;

  /// Worker threads for the relational engine's morsel-driven parallelism.
  /// 0 = hardware concurrency (the default), 1 = fully serial execution
  /// (byte-identical to the pre-parallel engine).
  size_t num_threads = 0;

  /// Borrow an externally owned worker pool for the internal database
  /// instead of spawning one per run (the query service shares one pool
  /// across all sessions). Not owned; must outlive the simulator run.
  /// With external_pool set, num_threads == 0 follows the pool's width.
  qy::ThreadPool* external_pool = nullptr;
  /// Nest the run's memory tracker under a process-wide parent budget
  /// (see MemoryTracker). Not owned; must outlive the simulator run.
  qy::MemoryTracker* parent_tracker = nullptr;
};

/// Row-count/norm summary of a run that avoids materializing the state in
/// client memory (used by out-of-core benches where the final relation is
/// larger than the budget).
struct RunSummary {
  uint64_t final_rows = 0;
  double norm_squared = 0;
  uint64_t max_intermediate_rows = 0;
  uint64_t rows_spilled = 0;
  /// Prepared-plan cache counters of the run's database. In materialized
  /// mode the per-gate loop ping-pongs between two state-table names, so a
  /// gate hits only when an earlier gate had the same gate table, qubits and
  /// step parity: 2.2% of lookups on sparse_deep, none on QFT.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Per-operator stats rendering (sql::QueryProfile::ToString()).
  std::string operator_profile;
  sim::SimMetrics metrics;
};

/// Machine-readable rendering of a RunSummary (counters, metrics and the
/// plan-cache numbers) for the CLI's --stats-json and the query service's
/// simulate responses. The operator_profile text is omitted — it is the
/// human rendering the JSON form exists to replace.
JsonValue RunSummaryToJson(const RunSummary& summary);

/// Called after each materialized step with the intermediate state
/// (education scenario: inspect |psi>_k evolving). Only fires in
/// kMaterializedSteps mode. Returning an error aborts the run.
using StepCallback = std::function<Status(
    size_t step, const qc::Gate& gate, const sim::SparseState& state)>;

class QymeraSimulator : public sim::Simulator {
 public:
  explicit QymeraSimulator(QymeraOptions options = QymeraOptions())
      : Simulator(options.base), qopts_(options) {}

  std::string name() const override { return "qymera-sql"; }

  /// Full run: execute in the RDBMS and read the final state back.
  Result<sim::SparseState> Run(const qc::QuantumCircuit& circuit) override;

  /// Run and keep the state in the database; returns counters only.
  Result<RunSummary> Execute(const qc::QuantumCircuit& circuit);

  /// Expose the SQL that Run would execute (education / debugging / tests).
  Result<Translation> Translate(const qc::QuantumCircuit& circuit) const;

  /// Install a per-step observer (see StepCallback).
  void set_step_callback(StepCallback cb) { step_callback_ = std::move(cb); }

  const QymeraOptions& qymera_options() const { return qopts_; }

  /// Per-operator stats of the most recent Run() (empty before any run;
  /// Execute() returns the profile in RunSummary instead).
  const std::string& last_operator_profile() const {
    return last_operator_profile_;
  }

  /// Counters of the most recent successful Run()/Execute() (zeroed before
  /// any run). Backs --stats-json without forcing callers through
  /// Execute().
  const RunSummary& last_summary() const { return last_summary_; }

 private:
  sql::DatabaseOptions MakeDbOptions() const;
  Result<RunSummary> ExecuteInternal(const qc::QuantumCircuit& circuit,
                                     sql::Database* db,
                                     std::string* final_table,
                                     int* num_qubits);

  QymeraOptions qopts_;
  StepCallback step_callback_;
  std::string last_operator_profile_;
  RunSummary last_summary_;
};

}  // namespace qy::core
