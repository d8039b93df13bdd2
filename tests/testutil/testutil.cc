#include "testutil/testutil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "circuit/families.h"
#include "sim/dd.h"
#include "sim/mps.h"
#include "sim/sparse_sim.h"
#include "sim/statevector.h"

namespace qy::test {

namespace {

/// QFT-style parameterized circuit: H + controlled-phase ladder with the
/// exact angles pi/2^k, then a rotation layer so RX/RY/RZ/P/U all appear.
qc::QuantumCircuit ParameterizedLadder(int n) {
  qc::QuantumCircuit c(n, "param_ladder");
  for (int q = 0; q < n; ++q) {
    c.H(q);
    for (int k = q + 1; k < n; ++k) {
      c.CP(M_PI / static_cast<double>(1 << (k - q)), k, q);
    }
  }
  for (int q = 0; q < n; ++q) {
    c.RX(0.3 + 0.1 * q, q).RY(-0.7 + 0.2 * q, q).RZ(1.1 * (q + 1), q);
  }
  c.P(0.25, 0).U(0.4, -0.2, 0.9, n - 1);
  return c;
}

}  // namespace

std::vector<NamedCircuit> PaperCircuitFamilies() {
  std::vector<NamedCircuit> out;
  out.push_back({"ghz4", qc::Ghz(4)});
  out.push_back({"superposition3", qc::EqualSuperposition(3)});
  out.push_back({"parity_check_10110", qc::ParityCheck({1, 0, 1, 1, 0})});
  out.push_back({"bell_pair", qc::BellPair()});
  out.push_back({"w_state3", qc::WState(3)});
  out.push_back({"qft3", qc::Qft(3)});
  out.push_back({"ghz_round_trip4", qc::GhzRoundTrip(4)});
  out.push_back({"param_ladder4", ParameterizedLadder(4)});
  out.push_back({"random_sparse5", qc::RandomSparse(5, 12, /*seed=*/42,
                                                    /*superposed_qubits=*/2)});
  out.push_back({"random_dense3", qc::RandomDense(3, 4, /*seed=*/7)});
  out.push_back({"ansatz3", qc::HardwareEfficientAnsatz(3, 2, /*seed=*/11)});
  out.push_back({"sparse_phase4", qc::SparsePhase(4, 8, /*seed=*/5)});
  return out;
}

std::vector<NamedCircuit> SparseCircuitFamilies() {
  std::vector<NamedCircuit> out;
  out.push_back({"ghz6", qc::Ghz(6)});
  out.push_back({"parity_check_110101", qc::ParityCheck({1, 1, 0, 1, 0, 1})});
  out.push_back({"ghz_round_trip5", qc::GhzRoundTrip(5)});
  out.push_back({"random_sparse6", qc::RandomSparse(6, 16, /*seed=*/3)});
  out.push_back({"sparse_phase5", qc::SparsePhase(5, 10, /*seed=*/9)});
  return out;
}

std::vector<BackendFactory> InMemoryBackends() {
  return {
      {"statevector",
       [](const sim::SimOptions& o) -> std::unique_ptr<sim::Simulator> {
         return std::make_unique<sim::StatevectorSimulator>(o);
       }},
      {"sparse",
       [](const sim::SimOptions& o) -> std::unique_ptr<sim::Simulator> {
         return std::make_unique<sim::SparseSimulator>(o);
       }},
      {"mps",
       [](const sim::SimOptions& o) -> std::unique_ptr<sim::Simulator> {
         return std::make_unique<sim::MpsSimulator>(o);
       }},
      {"dd",
       [](const sim::SimOptions& o) -> std::unique_ptr<sim::Simulator> {
         return std::make_unique<sim::DdSimulator>(o);
       }},
  };
}

std::vector<BackendFactory> QymeraBackendVariants() {
  using Mode = core::QymeraOptions::Mode;
  struct Variant {
    std::string name;
    Mode mode;
    bool fusion;
    bool hugeint;
    bool order_by;
  };
  const std::vector<Variant> variants = {
      {"qymera/materialized", Mode::kMaterializedSteps, false, false, false},
      {"qymera/single_query", Mode::kSingleQuery, false, false, false},
      {"qymera/materialized+fusion", Mode::kMaterializedSteps, true, false,
       false},
      {"qymera/single_query+fusion", Mode::kSingleQuery, true, false, false},
      {"qymera/materialized+hugeint", Mode::kMaterializedSteps, false, true,
       false},
      {"qymera/single_query+hugeint", Mode::kSingleQuery, false, true, false},
      {"qymera/single_query+order_by", Mode::kSingleQuery, false, false, true},
  };
  std::vector<BackendFactory> out;
  for (const Variant& v : variants) {
    out.push_back(
        {v.name,
         [v](const sim::SimOptions& o) -> std::unique_ptr<sim::Simulator> {
           core::QymeraOptions qopts;
           qopts.base = o;
           qopts.mode = v.mode;
           qopts.enable_fusion = v.fusion;
           qopts.force_hugeint = v.hugeint;
           qopts.final_order_by = v.order_by;
           return std::make_unique<core::QymeraSimulator>(qopts);
         }});
  }
  return out;
}

void ExpectStatesClose(const sim::SparseState& expected,
                       const sim::SparseState& actual, double tol,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(expected.num_qubits(), actual.num_qubits());
  EXPECT_NEAR(actual.NormSquared(), expected.NormSquared(), tol);
  EXPECT_NEAR(sim::SparseState::FidelityOverlap(expected, actual), 1.0, tol);
  double diff = sim::SparseState::MaxAmplitudeDiff(expected, actual);
  EXPECT_LE(diff, tol) << "expected: " << expected.ToString()
                       << "\nactual:   " << actual.ToString();
}

sim::SparseState RunBackend(const BackendFactory& factory,
                            const qc::QuantumCircuit& circuit,
                            const sim::SimOptions& options) {
  std::unique_ptr<sim::Simulator> sim = factory.make(options);
  auto state = sim->Run(circuit);
  if (!state.ok()) {
    ADD_FAILURE() << factory.name << " failed on " << circuit.name() << ": "
                  << state.status().ToString();
    return sim::SparseState::ZeroState(circuit.num_qubits());
  }
  return *std::move(state);
}

void ExpectNoLeakedTempFiles(sql::Database& db, const std::string& context) {
  EXPECT_EQ(db.temp_files().LiveFileCount(), 0u)
      << context << ": spill temp files leaked";
}

void ExpectQueryCleanup(sql::Database& db, uint64_t used_before,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(db.tracker().used(), used_before)
      << "tracked memory not restored after the query";
  ExpectNoLeakedTempFiles(db, context);
}

}  // namespace qy::test
