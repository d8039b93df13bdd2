/// \file checkpoint.h
/// Crash-safe checkpoint/restore for long simulations.
///
/// A checkpoint is one file, `checkpoint.qyck`, in the configured directory:
///
///   file     := [magic:u64] [manifest_len:u32] [manifest_crc:u32] manifest
///               [payload_len:u64] [payload_crc:u32] payload
///   manifest := compact JSON (version, backend, fingerprints, gate index)
///   payload  := backend-native serialized state (BlobWriter format)
///
/// It is published with AtomicWriteFile (write-tmp / fsync / rename /
/// fsync-dir), so a reader sees either the previous complete checkpoint or
/// the new complete one — a SIGKILL mid-write can only leave a *.tmp behind,
/// which the startup sweep quarantines and removes. Both the manifest and
/// payload carry CRC32C checksums: torn or bit-flipped checkpoint files load
/// as a clean kDataLoss Status, never as garbage state.
///
/// Resume validates the manifest against the submitted circuit (backend
/// name, circuit fingerprint, options fingerprint, qubit count) before
/// trusting the payload; a mismatch is kInvalidArgument, naming what
/// differs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "sim/simulator.h"

namespace qy::sim {

/// Append-only little-endian blob encoder for checkpoint payloads.
class BlobWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void C128(const Complex& c) {
    F64(c.real());
    F64(c.imag());
  }
  void Index(BasisIndex idx) {
    U64(static_cast<uint64_t>(idx));
    U64(static_cast<uint64_t>(idx >> 64));
  }

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  void Raw(const void* data, size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }

  std::string bytes_;
};

/// Bounds-checked decoder; running past the end is kDataLoss (a truncated
/// payload that slipped past the CRC can still never read out of bounds).
class BlobReader {
 public:
  explicit BlobReader(const std::string& bytes) : bytes_(bytes) {}

  Status U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  Status F64(double* v) { return Raw(v, sizeof(*v)); }
  Status C128(Complex* c);
  Status Index(BasisIndex* idx);

  bool AtEnd() const { return pos_ >= bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Raw(void* dst, size_t n);

  const std::string& bytes_;
  size_t pos_ = 0;
};

/// (index, amplitude) pairs of a sparse state.
using AmplitudeList = std::vector<std::pair<BasisIndex, Complex>>;

/// Checkpoint payload of the statevector, sparse, dd and qymera-sql
/// backends, the nonzero amplitudes in the backend's iteration order:
///
///   payload := [nnz:u64] ([index lo:u64][index hi:u64][re:f64][im:f64])*nnz
///
/// `amps` is any range of (index, amplitude) pairs (a vector or a map).
template <typename Range>
std::string EncodeAmplitudes(const Range& amps) {
  BlobWriter w;
  w.U64(amps.size());
  for (const auto& [idx, amp] : amps) {
    w.Index(idx);
    w.C128(amp);
  }
  return w.TakeBytes();
}

/// Decode an EncodeAmplitudes payload, in payload order. kDataLoss when nnz
/// claims more entries than the payload holds (checked before anything is
/// allocated) or an index lies outside [0, 2^num_qubits).
Result<AmplitudeList> DecodeAmplitudes(const std::string& payload,
                                       int num_qubits);

/// Digest of the SimOptions fields that influence the simulated state
/// (prune epsilon, MPS bond limits). Recorded in the manifest so a resume
/// with different numerics is rejected instead of silently diverging;
/// resource knobs (memory budget, checkpoint cadence) are excluded.
uint64_t SimOptionsFingerprint(const SimOptions& options);

/// What a checkpoint claims about itself; validated on resume.
struct CheckpointManifest {
  uint32_t version = 1;
  std::string backend;              ///< Simulator::name() that wrote it
  uint64_t circuit_fingerprint = 0; ///< QuantumCircuit::Fingerprint()
  uint64_t options_fingerprint = 0; ///< backend-relevant SimOptions digest
  int num_qubits = 0;
  uint64_t gate_index = 0;          ///< gates [0, gate_index) are applied
};

/// A successfully loaded and checksum-verified checkpoint.
struct LoadedCheckpoint {
  CheckpointManifest manifest;
  std::string payload;
};

/// Durable storage of the single current checkpoint in one directory.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  /// Create the directory if needed and quarantine-then-remove any *.tmp
  /// orphans a crashed writer left behind (logs what it reclaimed).
  Status Init();

  /// Atomically publish a checkpoint (replaces any previous one).
  Status Write(const CheckpointManifest& manifest, const std::string& payload);

  /// Load and verify the current checkpoint. kNotFound when none exists;
  /// kDataLoss when the file is torn, truncated or fails its checksums.
  Result<LoadedCheckpoint> Load();

  /// Delete the current checkpoint (OK if none exists).
  Status Remove();

  const std::string& path() const { return path_; }

 private:
  std::string dir_;
  std::string path_;
};

/// Per-run checkpoint driver shared by all backends. Construct it with the
/// run's identity, call Begin() once (it resolves resume-vs-fresh), then
/// AfterGate() after every applied gate; serialization is lazy — the
/// `serialize` callback only runs when a checkpoint is actually due.
class CheckpointSession {
 public:
  CheckpointSession(const SimOptions& options, std::string backend,
                    uint64_t circuit_fingerprint, uint64_t options_fingerprint,
                    int num_qubits, uint64_t total_gates);

  bool enabled() const { return enabled_; }

  /// Resolve the starting gate. Fresh runs (or resume with no checkpoint on
  /// disk) return 0 with *payload empty; a valid matching checkpoint returns
  /// its gate index with the payload to restore. Manifest mismatches are
  /// kInvalidArgument, corruption is kDataLoss.
  Result<uint64_t> Begin(std::string* payload);

  /// Persist a checkpoint when `gates_applied` hits the configured interval.
  Status AfterGate(uint64_t gates_applied,
                   const std::function<std::string()>& serialize);

  uint64_t checkpoints_written() const { return written_; }

 private:
  bool enabled_ = false;
  uint64_t every_ = 0;
  bool resume_ = false;
  CheckpointStore store_;
  CheckpointManifest manifest_;
  uint64_t total_gates_ = 0;
  uint64_t written_ = 0;
};

}  // namespace qy::sim
