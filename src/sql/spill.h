/// \file spill.h
/// Value serialization and the checksummed page file of out-of-core spill
/// partitions.
///
/// Format per value: [valid:u8][payload], payload fixed-width for numeric
/// types, length-prefixed (u32) for VARCHAR. The hash aggregate lays out its
/// own records (exec_agg.cc); this file frames them. Records are
/// length-framed and batched into checksummed pages:
///
///   page   := [magic:u32][payload_len:u32][crc32c:u32] payload
///   payload:= ([record_len:u32] record)*
///
/// The writer flushes a page at record boundaries (every ~1 MiB), so a
/// record never straddles pages. The reader checks the page length against
/// the bytes left in the file and verifies the magic and CRC32C of every
/// page before handing out records; torn writes, truncation and bit flips
/// surface as a clean kDataLoss Status instead of garbage rows or UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/temp_file.h"
#include "sql/column_vector.h"
#include "sql/schema.h"

namespace qy::sql {

/// Serialize value at `row` of `col` into `buf`.
void SerializeValue(const ColumnVector& col, size_t row, std::string* buf);

/// Serialize a raw Value (same format).
void SerializeRawValue(const Value& v, std::string* buf);

/// Cursor-based reader over a byte buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  Status ReadValue(DataType type, Value* out);
  Status ReadBytes(void* dst, size_t n) {
    if (size_ - pos_ < n) return Status::DataLoss("spill record truncated");
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  template <typename T>
  Status Read(T* out) {
    return ReadBytes(out, sizeof(T));
  }
  Status Skip(size_t n);
  bool AtEnd() const { return pos_ >= size_; }
  size_t position() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Magic marking the start of every spill page ("QYPG", little-endian).
inline constexpr uint32_t kSpillPageMagic = 0x47505951u;

/// Buffered writer of length-framed records into a TempFile, one checksummed
/// page per flush.
class RecordWriter {
 public:
  explicit RecordWriter(TempFile* file) : file_(file) {}

  /// Open a record: the caller appends its bytes to the returned page
  /// buffer, then calls EndRecord() before any other call on this writer.
  std::string* BeginRecord();
  /// Close the record opened by BeginRecord(). Flushes every ~1 MiB.
  Status EndRecord();
  /// Append one whole record (arbitrary bytes).
  Status Write(std::string_view record);
  Status Flush();
  uint64_t records_written() const { return records_; }

 private:
  TempFile* file_;
  std::string buffer_;
  size_t record_start_ = 0;  ///< offset of the open record's length field
  uint64_t records_ = 0;
};

/// Streaming reader of records framed by RecordWriter. Every page's CRC32C
/// is verified when it is loaded; corruption is reported as kDataLoss.
class RecordReader {
 public:
  explicit RecordReader(TempFile* file) : file_(file) {}

  /// Read the next record; *eof=true at end. `*record` views the current
  /// page and stays valid until the next Read.
  Status Read(std::string_view* record, bool* eof);

 private:
  /// Load and verify the next page into page_; *eof at clean end-of-file.
  Status LoadPage(bool* eof);

  TempFile* file_;
  std::string page_;
  size_t pos_ = 0;
  uint64_t file_pos_ = 0;  ///< bytes of the file consumed so far
};

}  // namespace qy::sql
