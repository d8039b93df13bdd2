/// \file hash_kernels.h
/// Vectorized key hashing and binary key encoding for the hash join and the
/// hash aggregate.
///
/// The hot gate-query path hashes one key column per chunk (a bitwise
/// expression over the state index) instead of hashing row-at-a-time, and
/// multi-column keys are encoded into a canonical binary row format so key
/// equality is a memcmp instead of a per-value dispatch:
///
///   fixed-width (no VARCHAR key column):
///     row := ([valid:u8][payload, zero-padded to the type width])*
///     with a constant stride, so row i lives at bytes[i * stride].
///   variable-width (any VARCHAR key column):
///     row := SerializeValue() concatenation, indexed through offsets[].
///
/// Equal keys encode to equal bytes. Aggregate spill records carry a group's
/// key in this encoding, so the partition merge looks it up in the in-memory
/// table without decoding it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/int128.h"
#include "sql/column_vector.h"

namespace qy::sql {

/// Hash reserved for NULL integer keys (the aggregate groups NULLs; the join
/// drops them before the table is ever probed). Matches the constant the
/// previous std::unordered_map implementation used.
inline constexpr uint64_t kIntNullKeyHash = 0x1234567;

/// Hash a single integer key value normalized to 128 bits, so a BIGINT probe
/// key matches a HUGEINT build key with the same value.
inline uint64_t HashIntKey(int128_t v) {
  return HashUInt128(static_cast<uint128_t>(v));
}

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a of `data[0..len)`, continued from `h` (same function
/// exec_agg has always used for spill-partition routing of serialized keys).
inline uint64_t HashBytes64(const char* data, size_t len,
                            uint64_t h = kFnvOffsetBasis) {
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Vectorized single-integer-key kernels (BIGINT or HUGEINT column).
/// `values` receives the 128-bit-normalized key of every row (undefined for
/// NULL rows); `hashes` receives HashIntKey(value) or kIntNullKeyHash.
void NormalizeIntKeyColumn(const ColumnVector& col,
                           std::vector<int128_t>* values);
void HashIntKeyColumn(const ColumnVector& col,
                      const std::vector<int128_t>& values,
                      std::vector<uint64_t>* hashes);

/// Canonical binary encoding of multi-column key rows (see file comment).
struct EncodedKeyRows {
  bool fixed_width = false;
  size_t stride = 0;             ///< row byte width when fixed_width
  size_t num_rows = 0;
  std::string bytes;             ///< row-major key bytes
  std::vector<uint32_t> offsets; ///< size num_rows + 1 when !fixed_width

  const char* RowPtr(size_t i) const {
    return bytes.data() + (fixed_width ? i * stride : offsets[i]);
  }
  size_t RowLen(size_t i) const {
    return fixed_width ? stride
                       : static_cast<size_t>(offsets[i + 1] - offsets[i]);
  }
  bool RowEquals(size_t i, const char* data, size_t len) const {
    return RowLen(i) == len && std::memcmp(RowPtr(i), data, len) == 0;
  }
};

/// True when every key type encodes at a fixed width (no VARCHAR).
bool KeysAreFixedWidth(const std::vector<ColumnVector>& keys);

/// Stride of one encoded row for fixed-width key columns.
size_t FixedKeyStride(const std::vector<ColumnVector>& keys);

/// Encode rows [0, n) of the evaluated key columns (column-at-a-time for the
/// fixed-width layout: one type switch per column per chunk).
void EncodeKeyRows(const std::vector<ColumnVector>& keys, size_t n,
                   EncodedKeyRows* out);

/// hashes[i] = HashBytes64 of encoded row i.
void HashEncodedRows(const EncodedKeyRows& rows, std::vector<uint64_t>* hashes);

/// Row indices where `mask` is true (non-NULL and nonzero) — the selection
/// vector consumed by ColumnVector::AppendGather.
void MaskToSelection(const ColumnVector& mask, std::vector<uint32_t>* sel);

}  // namespace qy::sql
