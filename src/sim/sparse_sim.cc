#include "sim/sparse_sim.h"

#include <chrono>
#include <unordered_map>

#include "common/failpoint.h"
#include "sim/checkpoint.h"

namespace qy::sim {

namespace {
/// Approximate per-entry heap cost of the amplitude map: a libstdc++
/// unordered_map node is next-ptr(8) + cached hash(8) + pair(32) plus malloc
/// header and its share of the bucket array — ~64 bytes.
constexpr uint64_t kEntryBytes = 64;
}  // namespace

Result<SparseState> SparseSimulator::Run(const qc::QuantumCircuit& circuit) {
  QY_RETURN_IF_ERROR(circuit.status());
  auto start = std::chrono::steady_clock::now();
  int n = circuit.num_qubits();
  metrics_ = SimMetrics{};
  metrics_.backend_stat_name = "max_nnz";

  using AmpMap = std::unordered_map<BasisIndex, Complex, qy::UInt128Hash>;
  AmpMap state;
  state[BasisIndex{0}] = Complex{1, 0};
  uint64_t peak_entries = 1;

  CheckpointSession ckpt(options_, "sparse", circuit.Fingerprint(),
                         SimOptionsFingerprint(options_), n,
                         circuit.NumGates());
  std::string resume_payload;
  QY_ASSIGN_OR_RETURN(uint64_t start_gate, ckpt.Begin(&resume_payload));
  if (!resume_payload.empty()) {
    QY_ASSIGN_OR_RETURN(AmplitudeList amps,
                        DecodeAmplitudes(resume_payload, n));
    state.clear();
    state.reserve(amps.size());
    for (const auto& [idx, amp] : amps) state[idx] = amp;
    peak_entries = std::max<uint64_t>(peak_entries, state.size());
  }
  auto serialize = [&] { return EncodeAmplitudes(state); };

  double cut = options_.prune_epsilon * options_.prune_epsilon;
  const std::vector<qc::Gate>& gates = circuit.gates();
  for (size_t gi = start_gate; gi < gates.size(); ++gi) {
    const qc::Gate& gate = gates[gi];
    QY_FAILPOINT("sim/gate");
    if (options_.query != nullptr) QY_RETURN_IF_ERROR(options_.query->Check());
    QY_ASSIGN_OR_RETURN(qc::GateMatrix u, qc::MatrixForGate(gate));
    int dim = u.dim;
    BasisIndex mask = qy::QubitMask(gate.qubits);
    AmpMap next;
    next.reserve(state.size() * 2);
    for (const auto& [idx, amp] : state) {
      uint64_t local = qy::GatherBits(idx, gate.qubits);
      BasisIndex base = idx & ~mask;
      for (int row = 0; row < dim; ++row) {
        Complex w = u.At(row, static_cast<int>(local));
        if (w == Complex{0, 0}) continue;
        next[base | qy::ScatterBits(static_cast<uint64_t>(row), gate.qubits)] +=
            w * amp;
      }
    }
    // Prune numerically-dead entries (exact interference cancellation).
    for (auto it = next.begin(); it != next.end();) {
      if (std::norm(it->second) <= cut) {
        it = next.erase(it);
      } else {
        ++it;
      }
    }
    state = std::move(next);
    peak_entries = std::max<uint64_t>(peak_entries, state.size());
    uint64_t bytes = peak_entries * kEntryBytes;
    metrics_.peak_bytes = std::max(metrics_.peak_bytes, bytes);
    if (options_.memory_budget_bytes != MemoryTracker::kUnlimited &&
        state.size() * kEntryBytes > options_.memory_budget_bytes) {
      return Status::OutOfMemory(
          "sparse simulator: " + std::to_string(state.size()) +
          " amplitudes exceed memory budget after gate " + gate.ToString());
    }
    QY_RETURN_IF_ERROR(ckpt.AfterGate(gi + 1, serialize));
  }

  std::vector<std::pair<BasisIndex, Complex>> amps(state.begin(), state.end());
  metrics_.backend_stat = peak_entries;
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return SparseState(n, std::move(amps));
}

}  // namespace qy::sim
