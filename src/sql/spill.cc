#include "sql/spill.h"

#include <cstring>

#include "common/checksum.h"
#include "common/failpoint.h"

namespace qy::sql {

namespace {

template <typename T>
void AppendRaw(std::string* buf, const T& v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

}  // namespace

void SerializeValue(const ColumnVector& col, size_t row, std::string* buf) {
  if (col.IsNull(row)) {
    buf->push_back(0);
    return;
  }
  buf->push_back(1);
  switch (col.type()) {
    case DataType::kBool:
      buf->push_back(static_cast<char>(col.bool_data()[row]));
      break;
    case DataType::kBigInt:
      AppendRaw(buf, col.i64_data()[row]);
      break;
    case DataType::kHugeInt:
      AppendRaw(buf, col.i128_data()[row]);
      break;
    case DataType::kDouble:
      AppendRaw(buf, col.f64_data()[row]);
      break;
    case DataType::kVarchar: {
      const std::string& s = col.str_data()[row];
      uint32_t len = static_cast<uint32_t>(s.size());
      AppendRaw(buf, len);
      buf->append(s);
      break;
    }
  }
}

void SerializeRawValue(const Value& v, std::string* buf) {
  if (v.is_null()) {
    buf->push_back(0);
    return;
  }
  buf->push_back(1);
  switch (v.type()) {
    case DataType::kBool:
      buf->push_back(v.bool_value() ? 1 : 0);
      break;
    case DataType::kBigInt:
      AppendRaw(buf, v.bigint_value());
      break;
    case DataType::kHugeInt: {
      int128_t x = v.hugeint_value();
      AppendRaw(buf, x);
      break;
    }
    case DataType::kDouble:
      AppendRaw(buf, v.double_value());
      break;
    case DataType::kVarchar: {
      uint32_t len = static_cast<uint32_t>(v.varchar_value().size());
      AppendRaw(buf, len);
      buf->append(v.varchar_value());
      break;
    }
  }
}

Status ByteReader::Skip(size_t n) {
  if (size_ - pos_ < n) return Status::DataLoss("spill record truncated");
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ReadValue(DataType type, Value* out) {
  uint8_t valid = 0;
  QY_RETURN_IF_ERROR(ReadBytes(&valid, 1));
  if (valid == 0) {
    *out = Value::Null(type);
    return Status::OK();
  }
  switch (type) {
    case DataType::kBool: {
      uint8_t b;
      QY_RETURN_IF_ERROR(ReadBytes(&b, 1));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case DataType::kBigInt: {
      int64_t v;
      QY_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
      *out = Value::BigInt(v);
      return Status::OK();
    }
    case DataType::kHugeInt: {
      int128_t v;
      QY_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
      *out = Value::HugeInt(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v;
      QY_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
      *out = Value::Double(v);
      return Status::OK();
    }
    case DataType::kVarchar: {
      uint32_t len;
      QY_RETURN_IF_ERROR(ReadBytes(&len, sizeof(len)));
      if (pos_ + len > size_) return Status::DataLoss("spill string truncated");
      *out = Value::Varchar(std::string(data_ + pos_, len));
      pos_ += len;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled type in spill read");
}

std::string* RecordWriter::BeginRecord() {
  record_start_ = buffer_.size();
  buffer_.append(sizeof(uint32_t), '\0');
  return &buffer_;
}

Status RecordWriter::EndRecord() {
  auto len =
      static_cast<uint32_t>(buffer_.size() - record_start_ - sizeof(uint32_t));
  std::memcpy(buffer_.data() + record_start_, &len, sizeof(len));
  ++records_;
  if (buffer_.size() >= (1u << 20)) return Flush();
  return Status::OK();
}

Status RecordWriter::Write(std::string_view record) {
  BeginRecord()->append(record);
  return EndRecord();
}

Status RecordWriter::Flush() {
  if (buffer_.empty()) return Status::OK();
  QY_FAILPOINT("spill/write");
  uint32_t header[3] = {kSpillPageMagic,
                        static_cast<uint32_t>(buffer_.size()),
                        Crc32c(buffer_)};
  QY_RETURN_IF_ERROR(file_->WriteBytes(header, sizeof(header)));
  QY_RETURN_IF_ERROR(file_->WriteBytes(buffer_.data(), buffer_.size()));
  buffer_.clear();
  return Status::OK();
}

Status RecordReader::LoadPage(bool* eof) {
  QY_FAILPOINT("spill/read");
  uint32_t header[3];
  QY_RETURN_IF_ERROR(file_->ReadBytes(header, sizeof(header), eof));
  if (*eof) return Status::OK();
  if (header[0] != kSpillPageMagic) {
    return Status::DataLoss("corrupted spill page header in " +
                            file_->path());
  }
  file_pos_ += sizeof(header);
  // The length is not covered by the CRC: bound it by the file before
  // allocating, so a flipped high bit cannot zero-fill gigabytes.
  uint64_t left = file_->bytes_written() > file_pos_
                      ? file_->bytes_written() - file_pos_
                      : 0;
  if (header[1] > left) {
    return Status::DataLoss("spill page length " + std::to_string(header[1]) +
                            " exceeds the " + std::to_string(left) +
                            " bytes left in " + file_->path());
  }
  page_.resize(header[1]);
  pos_ = 0;
  bool mid_eof = false;
  QY_RETURN_IF_ERROR(file_->ReadBytes(page_.data(), page_.size(), &mid_eof));
  if (mid_eof && !page_.empty()) {
    return Status::DataLoss("torn spill page in " + file_->path());
  }
  file_pos_ += page_.size();
  if (Crc32c(page_) != header[2]) {
    return Status::DataLoss("spill page checksum mismatch in " +
                            file_->path());
  }
  return Status::OK();
}

Status RecordReader::Read(std::string_view* record, bool* eof) {
  *eof = false;
  if (pos_ >= page_.size()) {
    QY_RETURN_IF_ERROR(LoadPage(eof));
    if (*eof) return Status::OK();
  }
  // The writer flushes at record boundaries, so a record that would cross a
  // page boundary can only mean corruption the CRC did not cover (e.g. a
  // valid page from a different file spliced in).
  if (page_.size() - pos_ < sizeof(uint32_t)) {
    return Status::DataLoss("truncated record header in spill page of " +
                            file_->path());
  }
  uint32_t len = 0;
  std::memcpy(&len, page_.data() + pos_, sizeof(len));
  pos_ += sizeof(len);
  if (page_.size() - pos_ < len) {
    return Status::DataLoss("truncated spill record in " + file_->path());
  }
  *record = std::string_view(page_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

}  // namespace qy::sql
