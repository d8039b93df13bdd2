#include "sim/statevector.h"

#include <chrono>

#include "common/failpoint.h"
#include "sim/checkpoint.h"

namespace qy::sim {

int StatevectorSimulator::MaxQubitsForBudget(uint64_t budget_bytes) {
  int n = 0;
  while (n < 62) {
    uint64_t bytes = sizeof(Complex) << (n + 1);
    if (bytes > budget_bytes) break;
    ++n;
  }
  return n;
}

Result<SparseState> StatevectorSimulator::Run(
    const qc::QuantumCircuit& circuit) {
  QY_RETURN_IF_ERROR(circuit.status());
  auto start = std::chrono::steady_clock::now();
  int n = circuit.num_qubits();
  if (n > 34) {
    // 2^34 amplitudes = 256 GiB; anything larger cannot be intended here.
    return Status::OutOfMemory("statevector: " + std::to_string(n) +
                               " qubits exceeds any dense representation");
  }
  uint64_t bytes = sizeof(Complex) << n;
  MemoryTracker tracker(options_.memory_budget_bytes);
  QY_RETURN_IF_ERROR(tracker.Reserve(bytes));
  metrics_ = SimMetrics{};
  metrics_.backend_stat_name = "amplitudes";
  metrics_.backend_stat = uint64_t{1} << n;

  std::vector<Complex> vec(size_t{1} << n, Complex{0, 0});
  vec[0] = Complex{1, 0};

  CheckpointSession ckpt(options_, "statevector", circuit.Fingerprint(),
                         SimOptionsFingerprint(options_), n,
                         circuit.NumGates());
  std::string resume_payload;
  QY_ASSIGN_OR_RETURN(uint64_t start_gate, ckpt.Begin(&resume_payload));
  if (!resume_payload.empty()) {
    // The payload is the sparse nonzero list; scatter it into the dense
    // vector (everything else is an exact zero by construction).
    QY_ASSIGN_OR_RETURN(AmplitudeList amps,
                        DecodeAmplitudes(resume_payload, n));
    vec[0] = Complex{0, 0};
    for (const auto& [idx, amp] : amps) vec[static_cast<uint64_t>(idx)] = amp;
  }
  auto serialize = [&] {
    AmplitudeList nonzero;
    for (uint64_t idx = 0; idx < vec.size(); ++idx) {
      if (vec[idx] != Complex{0, 0}) nonzero.emplace_back(idx, vec[idx]);
    }
    return EncodeAmplitudes(nonzero);
  };

  const std::vector<qc::Gate>& gates = circuit.gates();
  std::vector<Complex> gathered, transformed;
  for (size_t gi = start_gate; gi < gates.size(); ++gi) {
    const qc::Gate& gate = gates[gi];
    QY_FAILPOINT("sim/gate");
    if (options_.query != nullptr) QY_RETURN_IF_ERROR(options_.query->Check());
    QY_ASSIGN_OR_RETURN(qc::GateMatrix u, qc::MatrixForGate(gate));
    int k = static_cast<int>(gate.qubits.size());
    int dim = 1 << k;
    gathered.assign(dim, Complex{0, 0});
    transformed.assign(dim, Complex{0, 0});
    // Precompute offsets of the 2^k local patterns.
    std::vector<uint64_t> pattern_offset(dim);
    for (int p = 0; p < dim; ++p) {
      uint64_t off = 0;
      for (int b = 0; b < k; ++b) {
        if ((p >> b) & 1) off |= uint64_t{1} << gate.qubits[b];
      }
      pattern_offset[p] = off;
    }
    // Enumerate all assignments of the non-gate qubits with the classic
    // submask-iteration trick: base = (base - rest_mask) & rest_mask walks
    // every subset of rest_mask in O(1) per step.
    uint64_t gate_mask = 0;
    for (int gq : gate.qubits) gate_mask |= uint64_t{1} << gq;
    uint64_t rest_mask = ((n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1)) &
                         ~gate_mask;
    if (k == 1) {
      // Unrolled single-qubit fast path (the dominant gate class).
      uint64_t off = uint64_t{1} << gate.qubits[0];
      Complex u00 = u.At(0, 0), u01 = u.At(0, 1);
      Complex u10 = u.At(1, 0), u11 = u.At(1, 1);
      uint64_t base = 0;
      while (true) {
        Complex a0 = vec[base], a1 = vec[base + off];
        vec[base] = u00 * a0 + u01 * a1;
        vec[base + off] = u10 * a0 + u11 * a1;
        base = (base - rest_mask) & rest_mask;
        if (base == 0) break;
      }
    } else if (k == 2) {
      // Unrolled two-qubit fast path (CX/CZ/CP/SWAP and fused pairs).
      uint64_t o1 = pattern_offset[1], o2 = pattern_offset[2],
               o3 = pattern_offset[3];
      Complex m[16];
      for (int row = 0; row < 4; ++row) {
        for (int col = 0; col < 4; ++col) m[row * 4 + col] = u.At(row, col);
      }
      uint64_t base = 0;
      while (true) {
        Complex a0 = vec[base], a1 = vec[base + o1], a2 = vec[base + o2],
                a3 = vec[base + o3];
        vec[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
        vec[base + o1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
        vec[base + o2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
        vec[base + o3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
        base = (base - rest_mask) & rest_mask;
        if (base == 0) break;
      }
    } else {
      uint64_t base = 0;
      while (true) {
        for (int p = 0; p < dim; ++p) {
          gathered[p] = vec[base + pattern_offset[p]];
        }
        for (int row = 0; row < dim; ++row) {
          Complex acc{0, 0};
          for (int col = 0; col < dim; ++col) {
            acc += u.At(row, col) * gathered[col];
          }
          transformed[row] = acc;
        }
        for (int p = 0; p < dim; ++p) {
          vec[base + pattern_offset[p]] = transformed[p];
        }
        base = (base - rest_mask) & rest_mask;
        if (base == 0) break;
      }
    }
    QY_RETURN_IF_ERROR(ckpt.AfterGate(gi + 1, serialize));
  }

  // Extract nonzero amplitudes into the sparse result.
  std::vector<std::pair<BasisIndex, Complex>> amps;
  double cut = options_.prune_epsilon * options_.prune_epsilon;
  for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
    if (std::norm(vec[idx]) > cut) {
      amps.emplace_back(BasisIndex{idx}, vec[idx]);
    }
  }
  metrics_.peak_bytes = tracker.peak();
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return SparseState(n, std::move(amps));
}

}  // namespace qy::sim
