#include "sim/dd.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "common/failpoint.h"
#include "sim/checkpoint.h"

namespace qy::sim {

namespace {

constexpr double kWeightTol = 1e-12;

bool NearZero(const Complex& c) {
  return std::abs(c.real()) < kWeightTol && std::abs(c.imag()) < kWeightTol;
}

int64_t Quantize(double x) {
  return static_cast<int64_t>(std::llround(x * 1e10));
}

struct VNode;
struct MNode;

/// Weighted edge to a vector node (nullptr target = terminal).
struct VEdge {
  const VNode* node = nullptr;
  Complex w{0, 0};
  bool IsZero() const { return NearZero(w); }
};

/// Weighted edge to a matrix node.
struct MEdge {
  const MNode* node = nullptr;
  Complex w{0, 0};
  bool IsZero() const { return NearZero(w); }
};

struct VNode {
  int level;     ///< qubit index this node decides
  VEdge e[2];
};

struct MNode {
  int level;
  MEdge e[4];  ///< e[row*2 + col]: (output bit, input bit) of this qubit
};

struct VKey {
  int level;
  const VNode* c0;
  const VNode* c1;
  int64_t w0r, w0i, w1r, w1i;
  bool operator==(const VKey& o) const {
    return level == o.level && c0 == o.c0 && c1 == o.c1 && w0r == o.w0r &&
           w0i == o.w0i && w1r == o.w1r && w1i == o.w1i;
  }
};
struct VKeyHash {
  size_t operator()(const VKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.level) * 0x9e3779b97f4a7c15ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(reinterpret_cast<uintptr_t>(k.c0));
    mix(reinterpret_cast<uintptr_t>(k.c1));
    mix(static_cast<uint64_t>(k.w0r));
    mix(static_cast<uint64_t>(k.w0i));
    mix(static_cast<uint64_t>(k.w1r));
    mix(static_cast<uint64_t>(k.w1i));
    return h;
  }
};

struct MultKey {
  const MNode* m;
  const VNode* v;
  bool operator==(const MultKey& o) const { return m == o.m && v == o.v; }
};
struct MultKeyHash {
  size_t operator()(const MultKey& k) const {
    return std::hash<const void*>()(k.m) * 31 ^ std::hash<const void*>()(k.v);
  }
};

/// Arena + unique tables + caches for one simulation run.
class DdContext {
 public:
  uint64_t nodes_created() const {
    return vnodes_.size() + mnodes_.size();
  }

  /// Normalized, uniqued vector node constructor.
  VEdge MakeVNode(int level, VEdge e0, VEdge e1) {
    if (e0.IsZero()) e0 = VEdge{nullptr, Complex{0, 0}};
    if (e1.IsZero()) e1 = VEdge{nullptr, Complex{0, 0}};
    if (e0.IsZero() && e1.IsZero()) return VEdge{nullptr, Complex{0, 0}};
    // Normalize by the larger-magnitude weight (index 0 wins ties).
    Complex norm = std::abs(e0.w) >= std::abs(e1.w) ? e0.w : e1.w;
    e0.w /= norm;
    e1.w /= norm;
    VKey key{level, e0.node, e1.node, Quantize(e0.w.real()),
             Quantize(e0.w.imag()), Quantize(e1.w.real()),
             Quantize(e1.w.imag())};
    auto it = vtable_.find(key);
    if (it == vtable_.end()) {
      vnodes_.push_back(VNode{level, {e0, e1}});
      it = vtable_.emplace(key, &vnodes_.back()).first;
    }
    return VEdge{it->second, norm};
  }

  /// Normalized, uniqued matrix node constructor.
  MEdge MakeMNode(int level, MEdge e0, MEdge e1, MEdge e2, MEdge e3) {
    MEdge edges[4] = {e0, e1, e2, e3};
    Complex norm{0, 0};
    double best = -1;
    for (auto& e : edges) {
      if (e.IsZero()) e = MEdge{nullptr, Complex{0, 0}};
      if (std::abs(e.w) > best) {
        best = std::abs(e.w);
        norm = e.w;
      }
    }
    if (best <= kWeightTol) return MEdge{nullptr, Complex{0, 0}};
    for (auto& e : edges) e.w /= norm;
    // Key over all four edges.
    uint64_t h = static_cast<uint64_t>(level);
    MNodeKey key;
    key.level = level;
    for (int i = 0; i < 4; ++i) {
      key.c[i] = edges[i].node;
      key.wr[i] = Quantize(edges[i].w.real());
      key.wi[i] = Quantize(edges[i].w.imag());
    }
    (void)h;
    auto it = mtable_.find(key);
    if (it == mtable_.end()) {
      mnodes_.push_back(MNode{level, {edges[0], edges[1], edges[2], edges[3]}});
      it = mtable_.emplace(key, &mnodes_.back()).first;
    }
    return MEdge{it->second, norm};
  }

  /// |0...0> over n qubits.
  VEdge ZeroState(int n) {
    VEdge e{nullptr, Complex{1, 0}};
    for (int level = 0; level < n; ++level) {
      e = MakeVNode(level, e, VEdge{nullptr, Complex{0, 0}});
    }
    return e;
  }

  /// Build the matrix DD of `u` acting on `qubits` in an n-qubit register.
  MEdge BuildGate(const qc::GateMatrix& u, const std::vector<int>& qubits,
                  int n) {
    build_cache_.clear();
    gate_u_ = &u;
    gate_qubits_ = &qubits;
    return BuildGateRec(n - 1, 0, 0);
  }

  /// Cached matrix-vector multiply.
  VEdge Multiply(MEdge m, VEdge v) {
    mult_cache_.clear();
    return MultiplyRec(m, v);
  }

  void ExtractAmplitudes(VEdge root, int n, double eps,
                         std::vector<std::pair<BasisIndex, Complex>>* out) {
    ExtractRec(root, n - 1, BasisIndex{0}, Complex{1, 0}, eps, out);
  }

  /// Rebuild a state DD from a sorted, duplicate-free amplitude list (the
  /// checkpoint payload): split the range on the top qubit's bit and recurse,
  /// letting MakeVNode re-normalize and re-unique the structure.
  VEdge BuildFromAmplitudes(
      const std::vector<std::pair<BasisIndex, Complex>>& amps, int n) {
    return BuildListRec(amps.data(), amps.data() + amps.size(), n - 1);
  }

 private:
  VEdge BuildListRec(const std::pair<BasisIndex, Complex>* begin,
                     const std::pair<BasisIndex, Complex>* end, int level) {
    if (begin == end) return VEdge{nullptr, Complex{0, 0}};
    if (level < 0) return VEdge{nullptr, begin->second};
    BasisIndex bit = BasisIndex{1} << level;
    const auto* mid = std::partition_point(
        begin, end,
        [&](const std::pair<BasisIndex, Complex>& p) {
          return (p.first & bit) == BasisIndex{0};
        });
    return MakeVNode(level, BuildListRec(begin, mid, level - 1),
                     BuildListRec(mid, end, level - 1));
  }
  struct MNodeKey {
    int level;
    const MNode* c[4];
    int64_t wr[4], wi[4];
    bool operator==(const MNodeKey& o) const {
      if (level != o.level) return false;
      for (int i = 0; i < 4; ++i) {
        if (c[i] != o.c[i] || wr[i] != o.wr[i] || wi[i] != o.wi[i]) {
          return false;
        }
      }
      return true;
    }
  };
  struct MNodeKeyHash {
    size_t operator()(const MNodeKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.level) * 0x9e3779b97f4a7c15ULL;
      auto mix = [&h](uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      };
      for (int i = 0; i < 4; ++i) {
        mix(reinterpret_cast<uintptr_t>(k.c[i]));
        mix(static_cast<uint64_t>(k.wr[i]));
        mix(static_cast<uint64_t>(k.wi[i]));
      }
      return h;
    }
  };

  int LocalBitOf(int level) const {
    for (size_t i = 0; i < gate_qubits_->size(); ++i) {
      if ((*gate_qubits_)[i] == level) return static_cast<int>(i);
    }
    return -1;
  }

  MEdge BuildGateRec(int level, int row_local, int col_local) {
    if (level < 0) {
      Complex w = gate_u_->At(row_local, col_local);
      return NearZero(w) ? MEdge{nullptr, Complex{0, 0}} : MEdge{nullptr, w};
    }
    uint64_t key = (static_cast<uint64_t>(level) << 32) |
                   (static_cast<uint64_t>(row_local) << 16) |
                   static_cast<uint64_t>(col_local);
    auto it = build_cache_.find(key);
    if (it != build_cache_.end()) return it->second;
    MEdge result;
    int bit = LocalBitOf(level);
    if (bit < 0) {
      // Identity on this qubit.
      MEdge sub = BuildGateRec(level - 1, row_local, col_local);
      result = MakeMNode(level, sub, MEdge{nullptr, Complex{0, 0}},
                         MEdge{nullptr, Complex{0, 0}}, sub);
    } else {
      MEdge e[4];
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
          e[r * 2 + c] = BuildGateRec(level - 1, row_local | (r << bit),
                                      col_local | (c << bit));
        }
      }
      result = MakeMNode(level, e[0], e[1], e[2], e[3]);
    }
    build_cache_[key] = result;
    return result;
  }

  VEdge Add(VEdge a, VEdge b, int level) {
    if (a.IsZero()) return b;
    if (b.IsZero()) return a;
    if (level < 0) return VEdge{nullptr, a.w + b.w};
    VEdge lo = Add(VEdge{a.node->e[0].node, a.w * a.node->e[0].w},
                   VEdge{b.node->e[0].node, b.w * b.node->e[0].w}, level - 1);
    VEdge hi = Add(VEdge{a.node->e[1].node, a.w * a.node->e[1].w},
                   VEdge{b.node->e[1].node, b.w * b.node->e[1].w}, level - 1);
    return MakeVNode(level, lo, hi);
  }

  VEdge MultiplyRec(MEdge m, VEdge v) {
    if (m.IsZero() || v.IsZero()) return VEdge{nullptr, Complex{0, 0}};
    if (m.node == nullptr && v.node == nullptr) {
      return VEdge{nullptr, m.w * v.w};
    }
    // Levels align by construction (full-height DDs).
    int level = v.node != nullptr ? v.node->level : m.node->level;
    MultKey key{m.node, v.node};
    Complex scale = m.w * v.w;
    auto it = mult_cache_.find(key);
    if (it != mult_cache_.end()) {
      VEdge cached = it->second;
      cached.w *= scale;
      return cached;
    }
    VEdge rows[2];
    for (int r = 0; r < 2; ++r) {
      VEdge part0 = MultiplyRec(m.node->e[r * 2 + 0], v.node->e[0]);
      VEdge part1 = MultiplyRec(m.node->e[r * 2 + 1], v.node->e[1]);
      rows[r] = Add(part0, part1, level - 1);
    }
    VEdge result = MakeVNode(level, rows[0], rows[1]);
    mult_cache_[key] = result;
    result.w *= scale;
    return result;
  }

  void ExtractRec(VEdge e, int level, BasisIndex idx, Complex acc, double eps,
                  std::vector<std::pair<BasisIndex, Complex>>* out) {
    if (e.IsZero()) return;
    acc *= e.w;
    if (level < 0) {
      if (std::abs(acc) > eps) out->emplace_back(idx, acc);
      return;
    }
    ExtractRec(e.node->e[0], level - 1, idx, acc, eps, out);
    ExtractRec(e.node->e[1], level - 1,
               idx | (static_cast<BasisIndex>(1) << level), acc, eps, out);
  }

  std::deque<VNode> vnodes_;
  std::deque<MNode> mnodes_;
  std::unordered_map<VKey, const VNode*, VKeyHash> vtable_;
  std::unordered_map<MNodeKey, const MNode*, MNodeKeyHash> mtable_;
  std::unordered_map<uint64_t, MEdge> build_cache_;
  std::unordered_map<MultKey, VEdge, MultKeyHash> mult_cache_;
  const qc::GateMatrix* gate_u_ = nullptr;
  const std::vector<int>* gate_qubits_ = nullptr;
};

/// Approximate bytes per DD node incl. unique-table overhead.
constexpr uint64_t kNodeBytes = 120;

}  // namespace

Result<SparseState> DdSimulator::Run(const qc::QuantumCircuit& circuit) {
  QY_RETURN_IF_ERROR(circuit.status());
  auto start = std::chrono::steady_clock::now();
  int n = circuit.num_qubits();
  DdContext ctx;
  metrics_ = SimMetrics{};
  metrics_.backend_stat_name = "dd_nodes";

  VEdge state = ctx.ZeroState(n);

  CheckpointSession ckpt(options_, "dd", circuit.Fingerprint(),
                         SimOptionsFingerprint(options_), n,
                         circuit.NumGates());
  std::string resume_payload;
  QY_ASSIGN_OR_RETURN(uint64_t start_gate, ckpt.Begin(&resume_payload));
  if (!resume_payload.empty()) {
    // The payload is the exact (eps = 0) amplitude list; rebuild the DD.
    QY_ASSIGN_OR_RETURN(AmplitudeList amps,
                        DecodeAmplitudes(resume_payload, n));
    std::sort(amps.begin(), amps.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 1; i < amps.size(); ++i) {
      if (amps[i].first == amps[i - 1].first) {
        return Status::DataLoss("checkpoint has duplicate amplitude indices");
      }
    }
    state = ctx.BuildFromAmplitudes(amps, n);
  }
  auto serialize = [&] {
    AmplitudeList amps;
    ctx.ExtractAmplitudes(state, n, /*eps=*/0.0, &amps);
    return EncodeAmplitudes(amps);
  };

  const std::vector<qc::Gate>& gates = circuit.gates();
  for (size_t gi = start_gate; gi < gates.size(); ++gi) {
    const qc::Gate& gate = gates[gi];
    QY_FAILPOINT("sim/gate");
    if (options_.query != nullptr) QY_RETURN_IF_ERROR(options_.query->Check());
    QY_ASSIGN_OR_RETURN(qc::GateMatrix u, qc::MatrixForGate(gate));
    MEdge m = ctx.BuildGate(u, gate.qubits, n);
    state = ctx.Multiply(m, state);
    uint64_t bytes = ctx.nodes_created() * kNodeBytes;
    metrics_.peak_bytes = std::max(metrics_.peak_bytes, bytes);
    if (options_.memory_budget_bytes != MemoryTracker::kUnlimited &&
        bytes > options_.memory_budget_bytes) {
      return Status::OutOfMemory(
          "decision diagram: " + std::to_string(ctx.nodes_created()) +
          " nodes exceed memory budget after gate " + gate.ToString());
    }
    QY_RETURN_IF_ERROR(ckpt.AfterGate(gi + 1, serialize));
  }
  metrics_.backend_stat = ctx.nodes_created();

  std::vector<std::pair<BasisIndex, Complex>> amps;
  ctx.ExtractAmplitudes(state, n, options_.prune_epsilon, &amps);
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return SparseState(n, std::move(amps));
}

}  // namespace qy::sim
