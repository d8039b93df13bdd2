/// \file sim_bench.cc
/// The simulation workloads (sparse_deep, out_of_core).
///
/// Untraced, every circuit goes through core::QymeraSimulator::Run — the
/// call `qymera run` makes — and its final state is checked against a
/// baseline backend. Traced, each circuit additionally goes through
/// TracedRun, which re-drives the materialized per-gate loop through the
/// same public functions Run calls and times each call; its final state must
/// be bit-identical to Run's, and its time must stay within
/// kOverheadTolerance of Run's. TracedBody is a copy of the loop in
/// QymeraSimulator::ExecuteInternal (src/core/qymera_sim.cc) and must be kept
/// in step with it.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench.h"
#include "circuit/families.h"
#include "common/checksum.h"
#include "core/encoding.h"
#include "core/qymera_sim.h"
#include "core/translator.h"
#include "sim/checkpoint.h"
#include "sim/sparse_sim.h"
#include "sim/statevector.h"
#include "sql/binder.h"
#include "sql/database.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using qy::Result;
using qy::Status;
using qy::qc::QuantumCircuit;
using qy::sim::SparseState;

/// One generated input.
struct SimCase {
  std::string kind;
  QuantumCircuit circuit;
  bool dense_reference = true;  ///< statevector (else sparse) baseline
  uint64_t budget_bytes = qy::MemoryTracker::kUnlimited;
  uint64_t checkpoint_every = 0;  ///< 0 = no checkpoints
};

/// One entry of a workload's fixed rotation; `make` draws the circuit's
/// gates from the case seed.
struct Slot {
  std::string kind;
  bool dense_reference;  ///< statevector (else sparse) baseline
  /// Out-of-core slots: memory budget per 2^n rows (0 = unlimited). About a
  /// fifth of the unlimited peak of these circuits; such runs also
  /// checkpoint every 8 gates.
  uint64_t budget_per_row;
  std::function<QuantumCircuit(uint64_t seed)> make;
};

struct SimWorkload {
  std::vector<Slot> cycle;
  /// QymeraOptions::num_threads; 0 keeps the default (capped at nproc).
  size_t engine_threads = 0;
  /// Untraced runs always time at least this many circuits, so the p90 has
  /// ten samples beyond it.
  size_t min_circuits = 100;
};

/// GHZ, uncompute, GHZ again over one seeded qubit order: 3n gates ending in
/// the two-term GHZ state, with interference cancelling in the middle.
QuantumCircuit GhzRoundTrips(int n, uint64_t seed) {
  QuantumCircuit ghz = PermutedGhz(n, seed);
  QuantumCircuit c(n, "ghz_round_trips" + std::to_string(n));
  const auto& gates = ghz.gates();
  for (const qy::qc::Gate& g : gates) c.AddGate(g);
  for (auto it = gates.rbegin(); it != gates.rend(); ++it) c.AddGate(*it);
  for (const qy::qc::Gate& g : gates) c.AddGate(g);
  return c;
}

SimWorkload MakeWorkload(const std::string& name) {
  using qy::qc::EqualSuperposition;
  using qy::qc::RandomSparse;
  using qy::qc::SparsePhase;
  SimWorkload w;
  if (name == "sparse_deep") {
    // One engine thread: with the default pool every gate's few rows are
    // handed between threads, and the hand-off latency follows the host's
    // load (median circuit time spread 0.29 over five seeds with the pool,
    // 0.19 over ten seeds serially).
    w.engine_threads = 1;
    w.cycle = {
        {"sparse_phase40", false, 0,
         [](uint64_t s) { return SparsePhase(40, 160, s); }},
        {"random_sparse40", false, 0,
         [](uint64_t s) { return RandomSparse(40, 200, s, 4); }},
        {"ghz40", false, 0, [](uint64_t s) { return GhzRoundTrips(40, s); }},
        {"sparse_phase100", false, 0,
         [](uint64_t s) { return SparsePhase(100, 160, s); }},
        {"random_sparse100", false, 0,
         [](uint64_t s) { return RandomSparse(100, 200, s, 4); }},
        {"ghz100", false, 0, [](uint64_t s) { return GhzRoundTrips(100, s); }},
    };
  } else if (name == "out_of_core") {
    w.cycle = {
        {"superposition14", true, 70,
         [](uint64_t) { return EqualSuperposition(14); }},
        {"superposition15", true, 70,
         [](uint64_t) { return EqualSuperposition(15); }},
        {"random_dense13", true, 130,
         [](uint64_t s) { return SuperposedRandomDense(13, 2, s); }},
    };
  }
  return w;
}

SimCase MakeCase(const SimWorkload& w, uint64_t seed, uint64_t index) {
  const Slot& slot = w.cycle[index % w.cycle.size()];
  SimCase c{slot.kind, slot.make(MixSeed(seed, index)), slot.dense_reference,
            qy::MemoryTracker::kUnlimited, 0};
  if (slot.budget_per_row > 0) {
    c.budget_bytes = (uint64_t{1} << c.circuit.num_qubits()) *
                     slot.budget_per_row;
    c.checkpoint_every = 8;
  }
  return c;
}

qy::core::QymeraOptions OptionsFor(const SimCase& c, size_t engine_threads,
                                   const std::string& checkpoint_dir) {
  qy::core::QymeraOptions q;
  q.base.memory_budget_bytes = c.budget_bytes;
  if (c.checkpoint_every > 0) {
    q.base.checkpoint_dir = checkpoint_dir;
    q.base.checkpoint_every_n_gates = c.checkpoint_every;
  }
  q.num_threads = engine_threads;
  return q;
}

/// Per-layer spans and counters of traced circuits (summed over circuits).
struct LayerTrace {
  double translate_s = 0;
  double db_s = 0;  ///< Database construction + destruction (owned pool)
  double load_s = 0;
  double exec_s = 0;
  double drop_s = 0;
  double checkpoint_s = 0;
  double norm_s = 0;
  double readback_s = 0;
  double parse_bind_s = 0;  ///< side measurement, not part of total_s
  double total_s = 0;       ///< traced wall time minus side measurements
  uint64_t gates = 0;
  uint64_t sql_bytes = 0;
  uint64_t rows_out = 0;
  uint64_t rows_spilled = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;

  void Add(const LayerTrace& o) {
    translate_s += o.translate_s;
    db_s += o.db_s;
    load_s += o.load_s;
    exec_s += o.exec_s;
    drop_s += o.drop_s;
    checkpoint_s += o.checkpoint_s;
    norm_s += o.norm_s;
    readback_s += o.readback_s;
    total_s += o.total_s;
    gates += o.gates;
    sql_bytes += o.sql_bytes;
    rows_out += o.rows_out;
    rows_spilled += o.rows_spilled;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    checkpoints += o.checkpoints;
    checkpoint_bytes += o.checkpoint_bytes;
  }

  double Accounted() const {
    return translate_s + db_s + load_s + exec_s + drop_s + checkpoint_s +
           norm_s + readback_s;
  }
};

/// Checkpoint payload in the SQL backend's format: the exact state read back
/// from the current table.
std::string EncodeSparseState(const SparseState& state) {
  qy::sim::BlobWriter w;
  w.U64(state.amplitudes().size());
  for (const auto& [idx, amp] : state.amplitudes()) {
    w.Index(idx);
    w.C128(amp);
  }
  return w.TakeBytes();
}

/// The body of QymeraSimulator::Run in materialized-steps mode (fusion off),
/// one timed span per call into a layer. `side` collects time spent on
/// measurements Run does not make: with `parse_bind`, each gate's SELECT is
/// also parsed and bound on its own (what a plan-cache miss costs).
Result<SparseState> TracedBody(const QuantumCircuit& circuit,
                               const qy::core::QymeraOptions& q,
                               bool parse_bind, qy::sql::Database* db,
                               LayerTrace* t, double* side) {
  QY_RETURN_IF_ERROR(circuit.status());
  int n = circuit.num_qubits();
  bool use_hugeint = q.force_hugeint || n > 62;
  qy::core::TranslateOptions topts;
  topts.use_hugeint = use_hugeint;
  topts.prune_epsilon = q.base.prune_epsilon;
  topts.order_final = q.final_order_by;
  topts.ping_pong_states = true;

  Stopwatch sw;
  QY_ASSIGN_OR_RETURN(qy::core::Translation tr,
                      qy::core::TranslateCircuit(circuit, topts));
  t->translate_s += sw.Lap();

  qy::Fingerprint ofp;
  ofp.MixU64(qy::sim::SimOptionsFingerprint(q.base));
  ofp.MixI64(use_hugeint ? 1 : 0);
  qy::sim::CheckpointSession ckpt(q.base, "qymera-sql", circuit.Fingerprint(),
                                  ofp.hash(), n, tr.steps.size());
  std::string resume_payload;
  sw.Lap();
  QY_ASSIGN_OR_RETURN(uint64_t start_step, ckpt.Begin(&resume_payload));
  t->checkpoint_s += sw.Lap();
  if (start_step != 0) {
    return Status::Internal("traced run resumed a checkpoint");
  }

  for (const qy::core::EncodedGate& gate : tr.gate_tables) {
    QY_RETURN_IF_ERROR(qy::core::MaterializeGateTable(db, gate));
  }
  QY_RETURN_IF_ERROR(qy::core::MaterializeStateTable(
      db, "T0", SparseState::ZeroState(n), use_hugeint));
  t->load_s += sw.Lap();

  std::string current = "T0";
  for (size_t k = 0; k < tr.steps.size(); ++k) {
    const qy::core::GateQuery& step = tr.steps[k];
    if (parse_bind) {
      sw.Lap();
      auto stmt = qy::sql::ParseStatement(step.select_sql);
      if (stmt.ok() && stmt->select != nullptr) {
        (void)qy::sql::BindSelect(*stmt->select, db->catalog(),
                                  qy::sql::CteScope{});
      }
      double pb = sw.Lap();
      t->parse_bind_s += pb;
      *side += pb;
    }

    std::string ctas =
        "CREATE TABLE " + step.output_table + " AS " + step.select_sql;
    t->sql_bytes += ctas.size();
    sw.Lap();
    QY_ASSIGN_OR_RETURN(qy::sql::QueryResult result, db->Execute(ctas));
    t->exec_s += sw.Lap();
    t->rows_out += result.rows_changed;
    QY_RETURN_IF_ERROR(db->ExecuteScript("DROP TABLE " + current));
    t->drop_s += sw.Lap();
    current = step.output_table;

    Status ser_status;
    QY_RETURN_IF_ERROR(ckpt.AfterGate(k + 1, [&]() -> std::string {
      auto state = qy::core::ReadStateTable(db, current, n, 0.0);
      if (!state.ok()) {
        ser_status = state.status();
        return std::string();
      }
      std::string payload = EncodeSparseState(*state);
      t->checkpoint_bytes += payload.size();
      return payload;
    }));
    QY_RETURN_IF_ERROR(ser_status);
    t->checkpoint_s += sw.Lap();
  }
  t->gates += tr.steps.size();
  t->checkpoints += ckpt.checkpoints_written();

  sw.Lap();
  QY_ASSIGN_OR_RETURN(
      qy::sql::QueryResult norm,
      db->Execute("SELECT COUNT(*) AS rows, SUM(r * r + i * i) AS norm FROM " +
                  current));
  t->norm_s += sw.Lap();
  (void)norm;
  QY_ASSIGN_OR_RETURN(
      SparseState state,
      qy::core::ReadStateTable(db, current, n, q.base.prune_epsilon));
  t->readback_s += sw.Lap();

  t->rows_spilled += db->total_rows_spilled();
  t->cache_hits += db->plan_cache_stats().hits;
  t->cache_misses += db->plan_cache_stats().misses;
  uint64_t live = db->temp_files().LiveFileCount();
  *side += sw.Lap();
  if (live != 0) {
    return Status::Internal(std::to_string(live) +
                            " spill files still live after the run");
  }
  return state;
}

/// Traced equivalent of QymeraSimulator::Run: same database options, same
/// calls, same order, plus the Database's own construction and teardown.
Result<SparseState> TracedRun(const QuantumCircuit& circuit,
                              const qy::core::QymeraOptions& q,
                              bool parse_bind, LayerTrace* t) {
  Clock::time_point start = Clock::now();
  double side = 0;
  Stopwatch sw;
  qy::sql::DatabaseOptions dopts;
  dopts.memory_budget_bytes = q.base.memory_budget_bytes;
  dopts.enable_spill = q.enable_spill;
  dopts.chunk_size = q.chunk_size;
  dopts.num_threads = q.num_threads;
  auto db = std::make_unique<qy::sql::Database>(dopts);
  t->db_s += sw.Lap();
  Result<SparseState> state =
      TracedBody(circuit, q, parse_bind, db.get(), t, &side);
  sw.Lap();
  db.reset();
  t->db_s += sw.Lap();
  t->total_s += Seconds(start, Clock::now()) - side;
  return state;
}

/// Checkpoint directory of a finished run must hold exactly the published
/// checkpoint (no torn *.tmp), and must be gone after removal.
bool CleanCheckpointDir(const std::string& dir, std::string* why) {
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    names.push_back(e.path().filename().string());
  }
  fs::remove_all(dir, ec);
  if (names.size() != 1 || names[0] != "checkpoint.qyck") {
    *why = "checkpoint dir held " + std::to_string(names.size()) +
           " entries instead of checkpoint.qyck";
    return false;
  }
  if (fs::exists(dir)) {
    *why = "checkpoint dir not removed";
    return false;
  }
  return true;
}

/// Per-kind record for the result's detail section.
struct KindStats {
  std::vector<double> seconds;
  std::vector<double> traced_seconds;
};

}  // namespace

bool IsSimWorkload(const std::string& name) {
  return !MakeWorkload(name).cycle.empty();
}

Outcome RunSimWorkload(const RunConfig& cfg) {
  Outcome out;
  SimWorkload w = MakeWorkload(cfg.workload);
  size_t threads = w.engine_threads > 0 ? w.engine_threads : cfg.engine_threads;
  out.engine_threads =
      w.engine_threads > 0 ? w.engine_threads : cfg.resolved_threads;
  std::string ckpt_dir = cfg.work_dir + "/ckpt";
  uint64_t peak_bytes = 0;
  double ref_seconds = 0;

  // One untraced Run plus its cleanup checks; returns "" or what failed.
  auto run_untraced = [&](const SimCase& c, double* seconds,
                          SparseState* state) -> std::string {
    qy::core::QymeraOptions q = OptionsFor(c, threads, ckpt_dir);
    Stopwatch sw;
    qy::core::QymeraSimulator simulator(q);
    auto result = simulator.Run(c.circuit);
    *seconds = sw.Lap();
    if (!result.ok()) return result.status().ToString();
    const qy::core::RunSummary& summary = simulator.last_summary();
    peak_bytes = std::max<uint64_t>(peak_bytes, summary.metrics.peak_bytes);
    *state = std::move(result).value();
    std::string why;
    if (c.checkpoint_every > 0 && !CleanCheckpointDir(ckpt_dir, &why)) {
      return why;
    }
    if (uint64_t leaked = CountEntries(cfg.tmp_dir); leaked != 0) {
      return std::to_string(leaked) + " temp entries left after the run";
    }
    if (c.budget_bytes != qy::MemoryTracker::kUnlimited &&
        summary.rows_spilled == 0) {
      return "out-of-core circuit did not spill";
    }
    return "";
  };

  // Correctness gate against the baseline backend (its time is sim.ref_s).
  auto check = [&](const SimCase& c, const SparseState& got) -> std::string {
    Stopwatch sw;
    Result<SparseState> want = Status::Internal("unset");
    if (c.dense_reference) {
      want = qy::sim::StatevectorSimulator().Run(c.circuit);
    } else {
      want = qy::sim::SparseSimulator().Run(c.circuit);
    }
    ref_seconds += sw.Lap();
    if (!want.ok()) return "reference failed: " + want.status().ToString();
    std::string why;
    StatesAgree(got, *want, kStateTolerance, &why);
    return why;
  };

  auto traced_run = [&](const SimCase& c, bool parse_bind, LayerTrace* one,
                        SparseState* state) -> std::string {
    auto traced =
        TracedRun(c.circuit, OptionsFor(c, threads, ckpt_dir), parse_bind, one);
    if (!traced.ok()) return "traced run: " + traced.status().ToString();
    *state = std::move(traced).value();
    std::string why;
    if (c.checkpoint_every > 0 && !CleanCheckpointDir(ckpt_dir, &why)) {
      return "traced run: " + why;
    }
    if (c.budget_bytes != qy::MemoryTracker::kUnlimited &&
        one->rows_spilled == 0) {
      return "traced out-of-core run did not spill";
    }
    return "";
  };

  // Set-up: the warm-up circuit (the rotation's first slot), run kSetups
  // times and checked like every other circuit. setup_s is their median: the
  // latency of an already warm process on that circuit, not the cold first
  // run, which is kept in the detail as setup_first_s.
  std::vector<double> setup;
  SimCase warm = MakeCase(w, cfg.seed, 0);
  for (int k = 0; k < kSetups; ++k) {
    ++out.attempted;
    double s = 0;
    SparseState state;
    std::string err = run_untraced(warm, &s, &state);
    if (err.empty()) err = check(warm, state);
    if (!err.empty()) out.Fail("warm-up " + warm.kind + ": " + err);
    setup.push_back(s);
  }
  out.detail.Set("setup_first_s", setup[0]);
  ref_seconds = 0;
  uint64_t ref_checks = 0;

  std::map<std::string, KindStats> kinds;
  std::vector<double> seconds;
  uint64_t gates = 0;
  LayerTrace trace;
  double overhead_traced = 0, overhead_untraced = 0;
  double parse_bind_s = 0;
  uint64_t parse_bind_circuits = 0;
  uint64_t span_circuits = 0;
  uint64_t traced_circuits = 0;
  const double hard_cap = std::max(cfg.seconds * 4, cfg.seconds + 60);
  Stopwatch wall;
  double elapsed = 0;
  for (uint64_t i = 0; elapsed < hard_cap; ++i) {
    if (elapsed >= cfg.seconds && i % w.cycle.size() == 0 &&
        (cfg.trace || i >= w.min_circuits)) {
      break;
    }
    SimCase c = MakeCase(w, cfg.seed, i);
    ++out.attempted;
    double s = 0;
    SparseState state;
    SparseState traced_state;
    LayerTrace one;
    std::string err, traced_err;
    // Per pass over the rotation, traced runs alternate which side goes
    // first (so neither inherits the other's warm caches systematically) and
    // every other pair of passes measures parse/bind on the side.
    uint64_t pass = i / w.cycle.size();
    bool traced_first = cfg.trace && pass % 2 == 1;
    bool parse_bind = (pass / 2) % 2 == 1;
    if (traced_first) {
      traced_err = traced_run(c, parse_bind, &one, &traced_state);
    }
    err = run_untraced(c, &s, &state);
    if (cfg.trace && !traced_first) {
      traced_err = traced_run(c, parse_bind, &one, &traced_state);
    }
    if (err.empty()) {
      err = check(c, state);
      ++ref_checks;
    }
    if (err.empty()) err = traced_err;
    if (err.empty() && cfg.trace && !BitIdentical(traced_state, state)) {
      err = "traced final state differs from Run's";
    }
    if (!err.empty()) {
      out.Fail(c.kind + ": " + err);
    } else {
      KindStats& ks = kinds[c.kind];
      seconds.push_back(s);
      ks.seconds.push_back(s);
      gates += c.circuit.NumGates();
      if (cfg.trace) {
        ++traced_circuits;
        // Spans come from circuits without the side parse/bind, which
        // disturbs the caches of the real execution it interleaves with.
        if (parse_bind) {
          parse_bind_s += one.parse_bind_s;
          ++parse_bind_circuits;
        } else {
          overhead_traced += one.total_s;
          overhead_untraced += s;
          ks.traced_seconds.push_back(one.total_s);
          trace.Add(one);
          ++span_circuits;
        }
      }
    }
    elapsed += wall.Lap();
  }

  double circuit_total = Sum(seconds);
  auto& e2e = out.end_to_end;
  e2e["setup_s"] = Quantile(setup, 0.5);
  e2e["latency_s_p50"] = Quantile(seconds, 0.5);
  e2e["latency_s_tail"] = Quantile(seconds, 0.9);
  e2e["ops_per_s"] = circuit_total > 0 ? seconds.size() / circuit_total : 0;
  e2e["gates_per_s"] = circuit_total > 0 ? gates / circuit_total : 0;
  e2e["peak_mib"] = peak_bytes / (1024.0 * 1024.0);

  auto& pl = out.per_layer;
  double nc = std::max<double>(1, static_cast<double>(span_circuits));
  double ng = std::max<double>(1, static_cast<double>(trace.gates));
  uint64_t lookups = trace.cache_hits + trace.cache_misses;
  pl["core.translate_s"] = trace.translate_s / nc;
  pl["core.sql_bytes_per_gate"] = trace.sql_bytes / ng;
  pl["core.load_s"] = trace.load_s / nc;
  pl["core.readback_s"] = trace.readback_s / nc;
  pl["sql.db_open_close_s"] = trace.db_s / nc;
  pl["sql.parse_bind_s"] =
      parse_bind_s / std::max<double>(1, parse_bind_circuits);
  pl["sql.plan_cache_lookups"] = lookups / nc;
  pl["sql.plan_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(trace.cache_hits) / lookups : 0;
  pl["sql.gate_exec_s"] = trace.exec_s / nc;
  pl["sql.gate_rows_out"] = trace.rows_out / nc;
  pl["sql.gate_exec_ns_per_row"] =
      trace.rows_out > 0 ? trace.exec_s * 1e9 / trace.rows_out : 0;
  pl["sql.drop_s"] = trace.drop_s / nc;
  pl["sql.norm_s"] = trace.norm_s / nc;
  pl["sql.rows_spilled"] = trace.rows_spilled / nc;
  pl["sql.spill_ratio"] =
      trace.rows_out > 0 ? static_cast<double>(trace.rows_spilled) /
                               trace.rows_out
                         : 0;
  pl["sim.checkpoint_s"] = trace.checkpoint_s / nc;
  pl["sim.checkpoint_bytes"] = trace.checkpoint_bytes / nc;
  pl["sim.checkpoints"] = trace.checkpoints / nc;
  pl["sim.ref_s"] = ref_seconds / std::max<double>(1, ref_checks);
  pl["trace.circuit_s"] = trace.total_s / nc;
  double overhead =
      overhead_untraced > 0 ? overhead_traced / overhead_untraced - 1 : 0;
  pl["trace.overhead_frac"] = overhead;
  if (cfg.trace && std::abs(overhead) > kOverheadTolerance) {
    out.Fail("traced circuit time differs from Run's by " +
             std::to_string(overhead) + ": TracedBody no longer follows Run");
  }
  double unaccounted =
      trace.total_s > 0 ? (trace.total_s - trace.Accounted()) / trace.total_s
                        : 0;
  pl["trace.unaccounted_frac"] = unaccounted;
  if (cfg.trace && std::abs(unaccounted) > kUnaccountedTolerance) {
    out.Fail("per-layer spans cover only " +
             std::to_string(1 - unaccounted) + " of the traced circuit time");
  }

  qy::JsonValue mix{qy::JsonValue::Object{}};
  for (const auto& [kind, ks] : kinds) {
    qy::JsonValue k{qy::JsonValue::Object{}};
    k.Set("circuits", static_cast<int64_t>(ks.seconds.size()));
    k.Set("median_s", Quantile(ks.seconds, 0.5));
    if (cfg.trace) k.Set("traced_median_s", Quantile(ks.traced_seconds, 0.5));
    mix.Set(kind, std::move(k));
  }
  out.detail.Set("mix", std::move(mix));
  out.detail.Set("circuits", static_cast<int64_t>(seconds.size()));
  out.detail.Set("gates", static_cast<int64_t>(gates));
  if (cfg.trace) {
    out.detail.Set("traced_bit_identical",
                   static_cast<int64_t>(traced_circuits));
    out.detail.Set("unaccounted_tolerance", kUnaccountedTolerance);
    out.detail.Set("overhead_tolerance", kOverheadTolerance);
  }
  return out;
}

}  // namespace perfbench
