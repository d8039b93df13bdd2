#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "circuit/families.h"
#include "common/random.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double s = 0;
  for (double v : values) s += v;
  return s;
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

qy::qc::QuantumCircuit QftOnBasisState(int n, uint64_t seed) {
  qy::Rng rng(seed);
  qy::qc::QuantumCircuit c(n, "qft_basis" + std::to_string(n));
  for (int q = 0; q < n; ++q) {
    if (rng.Bernoulli(0.5)) c.X(q);
  }
  qy::qc::QuantumCircuit qft = qy::qc::Qft(n);
  for (const qy::qc::Gate& g : qft.gates()) c.AddGate(g);
  return c;
}

qy::qc::QuantumCircuit PermutedGhz(int n, uint64_t seed) {
  qy::Rng rng(seed);
  std::vector<int> order(n);
  for (int q = 0; q < n; ++q) order[q] = q;
  std::shuffle(order.begin(), order.end(), rng.engine());
  qy::qc::QuantumCircuit c(n, "ghz_perm" + std::to_string(n));
  c.H(order[0]);
  for (int q = 0; q + 1 < n; ++q) c.CX(order[q], order[q + 1]);
  return c;
}

qy::qc::QuantumCircuit SuperposedRandomDense(int n, int depth, uint64_t seed) {
  qy::qc::QuantumCircuit c = qy::qc::EqualSuperposition(n);
  c.set_name("superposed_dense" + std::to_string(n));
  qy::qc::QuantumCircuit body = qy::qc::RandomDense(n, depth, seed);
  for (const qy::qc::Gate& g : body.gates()) c.AddGate(g);
  return c;
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

uint64_t CountEntries(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return 0;
  uint64_t n = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    ++n;
  }
  return n;
}

bool BitIdentical(const qy::sim::SparseState& a,
                  const qy::sim::SparseState& b) {
  const auto& av = a.amplitudes();
  const auto& bv = b.amplitudes();
  if (a.num_qubits() != b.num_qubits() || av.size() != bv.size()) return false;
  for (size_t k = 0; k < av.size(); ++k) {
    double x[2] = {av[k].second.real(), av[k].second.imag()};
    double y[2] = {bv[k].second.real(), bv[k].second.imag()};
    if (av[k].first != bv[k].first || std::memcmp(x, y, sizeof(x)) != 0) {
      return false;
    }
  }
  return true;
}

bool StatesAgree(const qy::sim::SparseState& got,
                 const qy::sim::SparseState& want, double tol,
                 std::string* why) {
  double diff = qy::sim::SparseState::MaxAmplitudeDiff(got, want);
  double norm_err = std::abs(got.NormSquared() - 1.0);
  if (diff <= tol && norm_err <= tol) return true;
  *why = "max amplitude error " + std::to_string(diff) + ", |norm^2-1| " +
         std::to_string(norm_err);
  return false;
}

}  // namespace perfbench
