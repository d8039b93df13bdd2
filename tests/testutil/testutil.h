/// \file testutil.h
/// Shared test infrastructure: named circuit builders for the paper's
/// workload families, amplitude-level state comparison with tolerance, and a
/// registry of simulator backends (in-memory baselines plus every QymeraSim
/// configuration axis) so equivalence tests can sweep backend x circuit.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/qymera_sim.h"
#include "sim/simulator.h"
#include "sim/state.h"
#include "sql/database.h"

namespace qy::test {

/// A circuit with a display name for SCOPED_TRACE / failure messages.
struct NamedCircuit {
  std::string name;
  qc::QuantumCircuit circuit;
};

/// The paper's circuit families at test-friendly sizes: GHZ, equal
/// superposition, parity check, Bell, W state, QFT-style parameterized
/// ladders, interference round-trip, and seeded random sparse/dense layers.
std::vector<NamedCircuit> PaperCircuitFamilies();

/// Subset of PaperCircuitFamilies() whose states stay sparse (few nonzero
/// amplitudes) — safe for backends that scale with nnz.
std::vector<NamedCircuit> SparseCircuitFamilies();

/// A simulator factory with a stable display name.
struct BackendFactory {
  std::string name;
  std::function<std::unique_ptr<sim::Simulator>(const sim::SimOptions&)> make;
};

/// The four in-memory baselines: statevector, sparse, mps, dd.
std::vector<BackendFactory> InMemoryBackends();

/// QymeraSimulator variants covering the option axes that must not change
/// semantics: materialized vs single-query, fusion on/off, forced-hugeint
/// indices, and final ORDER BY.
std::vector<BackendFactory> QymeraBackendVariants();

/// EXPECT that two states describe the same physical state: equal qubit
/// count, norm preserved, fidelity |<a|b>| ~ 1, and per-amplitude agreement
/// within `tol` (the states share the |0..0>-start phase convention, so
/// amplitudes must match exactly, not just up to global phase).
void ExpectStatesClose(const sim::SparseState& expected,
                       const sim::SparseState& actual, double tol,
                       const std::string& context);

/// Run `circuit` on a fresh instance from `factory` and return the state;
/// ADD_FAILURE (and returns ZeroState) if the backend errors.
sim::SparseState RunBackend(const BackendFactory& factory,
                            const qc::QuantumCircuit& circuit,
                            const sim::SimOptions& options = {});

/// EXPECT that `db` leaked no spill temp files (TempFileManager directory is
/// empty). Call after any failed / cancelled / successful query.
void ExpectNoLeakedTempFiles(sql::Database& db, const std::string& context);

/// EXPECT the failure-path cleanup invariants after a query on `db`
/// returned (successfully or not):
///   - tracked memory is back to `used_before` (the level snapshotted
///     before the query; the tracker also accounts resident tables),
///   - no spill temp files remain on disk.
void ExpectQueryCleanup(sql::Database& db, uint64_t used_before,
                        const std::string& context);

}  // namespace qy::test
