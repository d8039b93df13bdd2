/// \file checksum.h
/// Data-integrity primitives for durable scratch and checkpoint I/O.
///
/// CRC32C (Castagnoli polynomial) frames every spill page and checkpoint
/// blob so torn writes and bit flips surface as a clean kDataLoss Status
/// instead of undefined behavior. FNV-1a 64 fingerprints circuits and
/// simulation options in checkpoint manifests so a resume can prove it is
/// continuing the same run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace qy {

/// CRC32C of `data[0..n)`, continuing from `acc` (pass the previous return
/// value to checksum data in chunks; 0 starts a fresh checksum). Uses the
/// SSE4.2 `crc32` instruction when the CPU has it (checked once).
uint32_t Crc32c(const void* data, size_t n, uint32_t acc = 0);

inline uint32_t Crc32c(const std::string& s, uint32_t acc = 0) {
  return Crc32c(s.data(), s.size(), acc);
}

namespace internal {
/// The portable table-driven CRC32C: the path for CPUs without SSE4.2 and
/// the reference the hardware path is tested against. Same contract as
/// Crc32c.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t acc = 0);
}  // namespace internal

/// 64-bit FNV-1a content hash (not cryptographic; collision-resistant enough
/// for "does this checkpoint belong to this circuit" manifest checks).
uint64_t Fnv1a64(const void* data, size_t n, uint64_t acc = 14695981039346656037ULL);

inline uint64_t Fnv1a64(const std::string& s,
                        uint64_t acc = 14695981039346656037ULL) {
  return Fnv1a64(s.data(), s.size(), acc);
}

/// Incremental fingerprint builder over heterogeneous fields. Feeding the
/// same sequence of values always yields the same hash; the per-field length
/// tagging keeps adjacent fields from aliasing ("ab"+"c" vs "a"+"bc").
class Fingerprint {
 public:
  Fingerprint& Mix(const void* data, size_t n);
  Fingerprint& MixU64(uint64_t v);
  Fingerprint& MixI64(int64_t v) { return MixU64(static_cast<uint64_t>(v)); }
  Fingerprint& MixDouble(double v);
  Fingerprint& MixString(const std::string& s);

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace qy
