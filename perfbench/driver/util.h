/// \file util.h
/// Shared pieces of the benchmark driver: clocks, quantiles, the metric
/// table each workload fills, and the run outcome printed as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/json.h"
#include "sim/state.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Seconds since construction (or the last Lap), restarting on each Lap.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Lap() {
    Clock::time_point now = Clock::now();
    double s = Seconds(start_, now);
    start_ = now;
    return s;
  }

 private:
  Clock::time_point start_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> values, double q);

double Sum(const std::vector<double>& values);

/// Deterministic 64-bit mix of a seed and a stream index (splitmix64), so
/// input i of a workload depends only on (seed, i).
uint64_t MixSeed(uint64_t seed, uint64_t index);

/// QFT applied to a seeded computational basis state (X on a random subset),
/// so the output phases differ per seed while the gate count is fixed.
qy::qc::QuantumCircuit QftOnBasisState(int n, uint64_t seed);

/// GHZ over a seeded qubit order.
qy::qc::QuantumCircuit PermutedGhz(int n, uint64_t seed);

/// RandomDense on top of the equal superposition, so every gate sees all
/// 2^n rows (RandomDense alone leaves qubits that only drew RZ unsuperposed,
/// and such a circuit may fit its out-of-core budget without spilling).
qy::qc::QuantumCircuit SuperposedRandomDense(int n, int depth, uint64_t seed);

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for checkpoints and the service socket; the spill
  /// directories live under $TMPDIR, which the caller points at a sibling
  /// directory that must be empty after every operation.
  std::string work_dir;
  std::string tmp_dir;
  /// Default engine width handed to QymeraOptions::num_threads: 0 (the
  /// default, hardware concurrency) unless that exceeds the CPUs this
  /// process may run on, in which case it is capped at that count.
  size_t engine_threads = 0;
  size_t resolved_threads = 0;  ///< engine_threads with 0 resolved
};

/// Everything one workload run reports.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Width of the engine's thread pool the workload ran with.
  size_t engine_threads = 0;
  /// First few failure descriptions (every failure is counted in `failed`).
  std::vector<std::string> errors;
  /// Metric values by name; the names and units are BENCHMARK.json's.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Workload-specific facts (mix, counts, check results) for the full
  /// result record.
  qy::JsonValue detail{qy::JsonValue::Object{}};

  void Fail(const std::string& what);
};

/// Files and directories currently under `dir` (recursive; 0 when absent).
uint64_t CountEntries(const std::string& dir);

/// True when both states hold the same basis indices with bit-identical
/// amplitudes.
bool BitIdentical(const qy::sim::SparseState& a,
                  const qy::sim::SparseState& b);

/// Reference gate: max |amplitude difference| and |norm^2 - 1| both within
/// `tol`. On failure `why` says which.
bool StatesAgree(const qy::sim::SparseState& got,
                 const qy::sim::SparseState& want, double tol,
                 std::string* why);

constexpr double kStateTolerance = 1e-9;
/// setup_s is the median of this many set-ups in one run.
constexpr int kSetups = 11;
/// The traced per-layer spans must cover all but this share of the traced
/// end-to-end time.
constexpr double kUnaccountedTolerance = 0.05;
/// The traced driver copies the program's loops (QymeraSimulator's per-gate
/// loop, Server's connection loop); its time must stay within this share of
/// the untraced time, or the copy no longer follows the program.
constexpr double kOverheadTolerance = 0.2;

}  // namespace perfbench
