/// \file exec_agg.cc
/// Hash aggregation with partitioned disk spill.
///
/// In-memory operation keeps one hash-table entry per group. Under memory
/// pressure (MemoryTracker budget), all partial states are flushed to 16
/// hash partitions on disk and the table is cleared; this repeats as needed.
/// Finalization merges each partition independently (partial aggregate
/// states are algebraic: SUM/COUNT/MIN/MAX combine, AVG = sum+count),
/// recursing with deeper hash bits when a single partition still exceeds the
/// budget. This mirrors classic Grace/hybrid hash aggregation and is the
/// mechanism behind Qymera's out-of-core simulation (paper Sec. 3.3).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "sql/executor.h"
#include "sql/hash_kernels.h"
#include "sql/join_hash_table.h"
#include "sql/spill.h"

namespace qy::sql {

namespace {

constexpr int kNumPartitions = 16;
constexpr int kMaxDepth = 4;

template <typename T>
void AppendRaw(std::string* buf, const T& v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Partial aggregate state for one (group, agg) pair.
struct Accum {
  double f64 = 0;
  int128_t i128 = 0;
  int64_t count = 0;
  Value minmax;
  bool has = false;
};

/// An in-memory group table: flat open-addressing key index (dense group ids
/// in first-seen order) + key storage + accumulator arrays. Group ids are
/// assigned in input order, so output order is independent of the hash
/// function — a prerequisite for byte-identical results across PRs.
class GroupTable {
 public:
  GroupTable(const PlanNode& plan) : plan_(plan) {
    for (const auto& k : plan.group_keys) {
      key_store_.columns.emplace_back(k->type);
    }
    accums_.resize(plan.aggs.size());
    fast_ = plan.group_keys.size() == 1 &&
            IsInteger(plan.group_keys[0]->type);
    keys_fixed_ = true;
    for (const auto& k : plan.group_keys) {
      if (k->type == DataType::kVarchar) keys_fixed_ = false;
      key_stride_ += 1 + static_cast<size_t>(TypeWidthBytes(k->type));
    }
    key_offsets_.push_back(0);
  }

  size_t NumGroups() const {
    return plan_.group_keys.empty()
               ? (scalar_group_init_ ? 1 : 0)
               : key_store_.NumRows();
  }

  /// Coarse memory estimate: key bytes + accumulator arrays + map overhead.
  uint64_t ApproxBytes() const {
    uint64_t groups = NumGroups();
    return key_store_.ApproxBytes() +
           groups * (plan_.aggs.size() * sizeof(Accum) + 48);
  }

  /// Ensure the scalar (no GROUP BY) group exists.
  void EnsureScalarGroup() {
    if (!plan_.group_keys.empty() || scalar_group_init_) return;
    scalar_group_init_ = true;
    for (auto& a : accums_) a.emplace_back();
  }

  /// Find-or-create group ids for rows [0, n) of the evaluated key columns:
  /// the whole chunk is hashed/encoded up front (one type switch per column),
  /// then each row does one flat-table lookup. Group ids are assigned in row
  /// order, so first-seen output order is preserved exactly.
  void GroupIndices(const std::vector<ColumnVector>& keys, size_t n,
                    std::vector<uint32_t>* groups) {
    groups->resize(n);
    if (plan_.group_keys.empty()) {
      EnsureScalarGroup();
      std::fill(groups->begin(), groups->end(), 0u);
      return;
    }
    if (fast_) {
      const ColumnVector& kc = keys[0];
      NormalizeIntKeyColumn(kc, &scratch_values_);
      HashIntKeyColumn(kc, scratch_values_, &scratch_hashes_);
      for (size_t r = 0; r < n; ++r) {
        bool is_null = kc.IsNull(r);
        int128_t key = is_null ? 0 : scratch_values_[r];
        bool inserted = false;
        uint32_t id = index_.FindOrInsert(
            scratch_hashes_[r], static_cast<uint32_t>(key_store_.NumRows()),
            [&](uint32_t g) {
              return (fast_nulls_[g] != 0) == is_null && fast_keys_[g] == key;
            },
            &inserted);
        if (inserted) {
          fast_keys_.push_back(key);
          fast_nulls_.push_back(is_null ? 1 : 0);
          AppendGroup(keys, r);
        }
        (*groups)[r] = id;
      }
      return;
    }
    EncodeKeyRows(keys, n, &scratch_enc_);
    HashEncodedRows(scratch_enc_, &scratch_hashes_);
    for (size_t r = 0; r < n; ++r) {
      const char* key = scratch_enc_.RowPtr(r);
      size_t len = scratch_enc_.RowLen(r);
      bool inserted = false;
      uint32_t id = index_.FindOrInsert(
          scratch_hashes_[r], static_cast<uint32_t>(key_store_.NumRows()),
          [&](uint32_t g) { return GroupKeyEquals(g, key, len); }, &inserted);
      if (inserted) {
        key_bytes_.append(key, len);
        key_offsets_.push_back(static_cast<uint32_t>(key_bytes_.size()));
        AppendGroup(keys, r);
      }
      (*groups)[r] = id;
    }
  }

  /// Update aggregate `agg` from a whole chunk: the function/type dispatch is
  /// hoisted out of the row loop. Rows are applied in order, so per-group
  /// floating-point accumulation order is identical to the row-at-a-time
  /// implementation this replaces.
  void UpdateColumn(size_t agg, const std::vector<uint32_t>& groups,
                    const ColumnVector* arg, size_t n) {
    std::vector<Accum>& accs = accums_[agg];
    const BoundAggSpec& spec = plan_.aggs[agg];
    if (spec.func == AggFunc::kCountStar) {
      for (size_t r = 0; r < n; ++r) ++accs[groups[r]].count;
      return;
    }
    switch (spec.func) {
      case AggFunc::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (!arg->IsNull(r)) ++accs[groups[r]].count;
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        switch (spec.arg->type) {
          case DataType::kDouble: {
            const double* v = arg->f64_data().data();
            for (size_t r = 0; r < n; ++r) {
              if (arg->IsNull(r)) continue;
              Accum& a = accs[groups[r]];
              a.f64 += v[r];
              ++a.count;
              a.has = true;
            }
            break;
          }
          case DataType::kBigInt: {
            const int64_t* v = arg->i64_data().data();
            for (size_t r = 0; r < n; ++r) {
              if (arg->IsNull(r)) continue;
              Accum& a = accs[groups[r]];
              a.i128 += v[r];
              a.f64 += static_cast<double>(v[r]);
              ++a.count;
              a.has = true;
            }
            break;
          }
          case DataType::kHugeInt: {
            const int128_t* v = arg->i128_data().data();
            for (size_t r = 0; r < n; ++r) {
              if (arg->IsNull(r)) continue;
              Accum& a = accs[groups[r]];
              a.i128 += v[r];
              a.f64 += static_cast<double>(v[r]);
              ++a.count;
              a.has = true;
            }
            break;
          }
          case DataType::kBool: {
            const uint8_t* v = arg->bool_data().data();
            for (size_t r = 0; r < n; ++r) {
              if (arg->IsNull(r)) continue;
              int64_t x = v[r] ? 1 : 0;
              Accum& a = accs[groups[r]];
              a.i128 += x;
              a.f64 += static_cast<double>(x);
              ++a.count;
              a.has = true;
            }
            break;
          }
          case DataType::kVarchar:
            break;  // SUM/AVG never bind a VARCHAR argument
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        for (size_t r = 0; r < n; ++r) {
          if (arg->IsNull(r)) continue;
          Accum& a = accs[groups[r]];
          Value v = arg->GetValue(r);
          if (!a.has) {
            a.minmax = v;
            a.has = true;
          } else {
            int c = v.Compare(a.minmax);
            if ((spec.func == AggFunc::kMin && c < 0) ||
                (spec.func == AggFunc::kMax && c > 0)) {
              a.minmax = v;
            }
          }
        }
        break;
      default:
        break;
    }
  }

  /// Serialize group `g` as one spill record:
  ///
  ///   record := [route_hash:u64] key state*
  ///   key    := the group's key row in the EncodeKeyRows encoding (fixed
  ///             stride without VARCHAR keys, else SerializeValue bytes;
  ///             absent without GROUP BY)
  ///   state  := per aggregate, only what EmitChunk reads:
  ///             COUNT       [count:i64]
  ///             SUM         [has:u8][sum:f64 or i128, by result type]
  ///             AVG         [has:u8][sum:f64][count:i64]
  ///             MIN/MAX     [has:u8] then, when has, SerializeRawValue
  ///
  /// `route_hash` is GroupHash(g), stored so re-routing a record to a deeper
  /// partition needs no key decoding.
  void SerializeGroup(uint32_t g, uint64_t route_hash, std::string* buf) const {
    AppendRaw(buf, route_hash);
    if (fast_) {
      // The fixed-stride encoding of the one integer key column; a NULL's
      // stored key is 0, which is also its zero-filled payload.
      buf->push_back(fast_nulls_[g] != 0 ? 0 : 1);
      if (key_store_.columns[0].type() == DataType::kBigInt) {
        AppendRaw(buf, static_cast<int64_t>(fast_keys_[g]));
      } else {
        AppendRaw(buf, fast_keys_[g]);
      }
    } else if (!plan_.group_keys.empty()) {
      buf->append(key_bytes_.data() + key_offsets_[g],
                  key_offsets_[g + 1] - key_offsets_[g]);
    }
    for (size_t agg = 0; agg < plan_.aggs.size(); ++agg) {
      const Accum& a = accums_[agg][g];
      const BoundAggSpec& spec = plan_.aggs[agg];
      switch (spec.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          AppendRaw(buf, a.count);
          break;
        case AggFunc::kSum:
          buf->push_back(a.has ? 1 : 0);
          if (spec.result_type == DataType::kDouble) {
            AppendRaw(buf, a.f64);
          } else {
            AppendRaw(buf, a.i128);
          }
          break;
        case AggFunc::kAvg:
          buf->push_back(a.has ? 1 : 0);
          AppendRaw(buf, a.f64);
          AppendRaw(buf, a.count);
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          buf->push_back(a.has ? 1 : 0);
          if (a.has) SerializeRawValue(a.minmax, buf);
          break;
      }
    }
  }

  /// Merge a record written by SerializeGroup into this table. Sums add in
  /// record order, exactly as the in-memory updates do.
  Status MergeRecord(std::string_view record) {
    ByteReader reader(record.data(), record.size());
    QY_RETURN_IF_ERROR(reader.Skip(sizeof(uint64_t)));  // route hash
    uint32_t group = 0;
    QY_RETURN_IF_ERROR(FindOrInsertRecordKey(record, &reader, &group));
    for (size_t agg = 0; agg < plan_.aggs.size(); ++agg) {
      const BoundAggSpec& spec = plan_.aggs[agg];
      Accum& a = accums_[agg][group];
      uint8_t has = 0;
      switch (spec.func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount: {
          int64_t count = 0;
          QY_RETURN_IF_ERROR(reader.Read(&count));
          a.count += count;
          break;
        }
        case AggFunc::kSum:
          QY_RETURN_IF_ERROR(reader.Read(&has));
          if (spec.result_type == DataType::kDouble) {
            double sum = 0;
            QY_RETURN_IF_ERROR(reader.Read(&sum));
            a.f64 += sum;
          } else {
            int128_t sum = 0;
            QY_RETURN_IF_ERROR(reader.Read(&sum));
            a.i128 += sum;
          }
          if (has != 0) a.has = true;
          break;
        case AggFunc::kAvg: {
          double sum = 0;
          int64_t count = 0;
          QY_RETURN_IF_ERROR(reader.Read(&has));
          QY_RETURN_IF_ERROR(reader.Read(&sum));
          QY_RETURN_IF_ERROR(reader.Read(&count));
          a.f64 += sum;
          a.count += count;
          if (has != 0) a.has = true;
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          QY_RETURN_IF_ERROR(reader.Read(&has));
          if (has == 0) break;
          Value v;
          QY_RETURN_IF_ERROR(reader.ReadValue(spec.result_type, &v));
          if (!a.has) {
            a.minmax = std::move(v);
          } else {
            int c = v.Compare(a.minmax);
            if ((spec.func == AggFunc::kMin && c < 0) ||
                (spec.func == AggFunc::kMax && c > 0)) {
              a.minmax = std::move(v);
            }
          }
          a.has = true;
          break;
        }
      }
    }
    return Status::OK();
  }

  /// Hash that routes group g to a spill partition. It is independent of
  /// the in-memory table's hash and must not change: partition placement
  /// decides the output order of spilled aggregates. Integer keys hash their
  /// value (NULL: kIntNullKeyHash); other keys FNV-1a their SerializeValue
  /// bytes.
  uint64_t GroupHash(uint32_t g) const {
    if (plan_.group_keys.empty()) return 0;
    if (fast_) {
      return fast_nulls_[g] != 0 ? kIntNullKeyHash : HashIntKey(fast_keys_[g]);
    }
    const char* key = key_bytes_.data() + key_offsets_[g];
    if (!keys_fixed_) {
      return HashBytes64(key, key_offsets_[g + 1] - key_offsets_[g]);
    }
    // The fixed-stride encoding pads a NULL's payload; SerializeValue does
    // not, so hash only the valid byte of a NULL column.
    uint64_t h = kFnvOffsetBasis;
    for (const auto& col : key_store_.columns) {
      size_t width = 1 + static_cast<size_t>(TypeWidthBytes(col.type()));
      h = HashBytes64(key, key[0] == 0 ? 1 : width, h);
      key += width;
    }
    return h;
  }

  /// Routing hash of a record written by SerializeGroup, for re-routing it
  /// to a deeper partition. A NULL integer key routes here by the FNV-1a of
  /// its one-byte serialized form, not by kIntNullKeyHash as in GroupHash:
  /// both placements predate the stored hash and are kept as they were.
  Status RouteHash(std::string_view record, uint64_t* hash) const {
    if (record.size() < sizeof(uint64_t) + (fast_ ? 1 : 0)) {
      return Status::DataLoss("spill record truncated");
    }
    std::memcpy(hash, record.data(), sizeof(uint64_t));
    if (fast_ && record[sizeof(uint64_t)] == 0) *hash = HashBytes64("", 1);
    return Status::OK();
  }

  /// Emit groups [from, from+count) as an output chunk (keys ++ agg results).
  Status EmitChunk(uint32_t from, uint32_t count, DataChunk* out) const {
    out->columns.clear();
    for (const auto& col : key_store_.columns) {
      out->columns.emplace_back(col.type());
    }
    for (const auto& spec : plan_.aggs) {
      out->columns.emplace_back(spec.result_type);
    }
    size_t nk = key_store_.columns.size();
    for (size_t k = 0; k < nk; ++k) {
      out->columns[k].AppendRange(key_store_.columns[k], from, count);
    }
    for (uint32_t g = from; g < from + count; ++g) {
      for (size_t agg = 0; agg < plan_.aggs.size(); ++agg) {
        const BoundAggSpec& spec = plan_.aggs[agg];
        const Accum& a = accums_[agg][g];
        ColumnVector& dst = out->columns[nk + agg];
        switch (spec.func) {
          case AggFunc::kCountStar:
          case AggFunc::kCount:
            dst.AppendBigInt(a.count);
            break;
          case AggFunc::kSum:
            if (!a.has) {
              dst.AppendNull();
            } else if (spec.result_type == DataType::kDouble) {
              dst.AppendDouble(a.f64);
            } else {
              dst.AppendHugeInt(a.i128);
            }
            break;
          case AggFunc::kAvg:
            if (!a.has || a.count == 0) {
              dst.AppendNull();
            } else {
              dst.AppendDouble(a.f64 / static_cast<double>(a.count));
            }
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            if (!a.has) {
              dst.AppendNull();
            } else {
              QY_RETURN_IF_ERROR(dst.AppendValue(a.minmax));
            }
            break;
        }
      }
    }
    return Status::OK();
  }

  void Clear() {
    index_.Clear();
    fast_keys_.clear();
    fast_nulls_.clear();
    key_bytes_.clear();
    key_offsets_.assign(1, 0);
    key_store_.Clear();
    for (auto& a : accums_) a.clear();
    scalar_group_init_ = false;
  }

 private:
  /// Compare the stored key bytes of group `g` against an encoded key row.
  bool GroupKeyEquals(uint32_t g, const char* key, size_t len) const {
    size_t off = key_offsets_[g];
    return key_offsets_[g + 1] - off == len &&
           std::memcmp(key_bytes_.data() + off, key, len) == 0;
  }

  void AppendGroup(const std::vector<ColumnVector>& keys, size_t r) {
    for (size_t k = 0; k < keys.size(); ++k) {
      key_store_.columns[k].AppendFrom(keys[k], r);
    }
    for (auto& a : accums_) a.emplace_back();
  }

  /// Find or create the group of the key at `reader`'s position in `record`
  /// (the key part of a SerializeGroup record), advancing past it.
  Status FindOrInsertRecordKey(std::string_view record, ByteReader* reader,
                               uint32_t* group) {
    if (plan_.group_keys.empty()) {
      EnsureScalarGroup();
      *group = 0;
      return Status::OK();
    }
    const char* key = record.data() + reader->position();
    bool inserted = false;
    if (fast_) {
      uint8_t valid = 0;
      int128_t value = 0;
      QY_RETURN_IF_ERROR(reader->Read(&valid));
      ColumnVector& col = key_store_.columns[0];
      if (col.type() == DataType::kBigInt) {
        int64_t v = 0;
        QY_RETURN_IF_ERROR(reader->Read(&v));
        value = v;
      } else {
        QY_RETURN_IF_ERROR(reader->Read(&value));
      }
      bool is_null = valid == 0;
      if (is_null) value = 0;
      *group = index_.FindOrInsert(
          is_null ? kIntNullKeyHash : HashIntKey(value),
          static_cast<uint32_t>(key_store_.NumRows()),
          [&](uint32_t g) {
            return (fast_nulls_[g] != 0) == is_null && fast_keys_[g] == value;
          },
          &inserted);
      if (inserted) {
        fast_keys_.push_back(value);
        fast_nulls_.push_back(is_null ? 1 : 0);
        if (is_null) {
          col.AppendNull();
        } else if (col.type() == DataType::kBigInt) {
          col.AppendBigInt(static_cast<int64_t>(value));
        } else {
          col.AppendHugeInt(value);
        }
        for (auto& a : accums_) a.emplace_back();
      }
      return Status::OK();
    }
    if (keys_fixed_) {
      QY_RETURN_IF_ERROR(reader->Skip(key_stride_));
    } else {
      for (const auto& col : key_store_.columns) {
        uint8_t valid = 0;
        QY_RETURN_IF_ERROR(reader->Read(&valid));
        if (valid == 0) continue;
        if (col.type() == DataType::kVarchar) {
          uint32_t len = 0;
          QY_RETURN_IF_ERROR(reader->Read(&len));
          QY_RETURN_IF_ERROR(reader->Skip(len));
        } else {
          QY_RETURN_IF_ERROR(
              reader->Skip(static_cast<size_t>(TypeWidthBytes(col.type()))));
        }
      }
    }
    size_t len = record.data() + reader->position() - key;
    *group = index_.FindOrInsert(
        HashBytes64(key, len), static_cast<uint32_t>(key_store_.NumRows()),
        [&](uint32_t g) { return GroupKeyEquals(g, key, len); }, &inserted);
    if (inserted) {
      key_bytes_.append(key, len);
      key_offsets_.push_back(static_cast<uint32_t>(key_bytes_.size()));
      AppendKeyRow(key);
      for (auto& a : accums_) a.emplace_back();
    }
    return Status::OK();
  }

  /// Append the key columns of an encoded key row (bounds already checked
  /// by FindOrInsertRecordKey).
  void AppendKeyRow(const char* p) {
    for (auto& col : key_store_.columns) {
      DataType type = col.type();
      size_t width = static_cast<size_t>(TypeWidthBytes(type));
      bool valid = *p++ != 0;
      if (!valid) {
        col.AppendNull();
        if (keys_fixed_) p += width;
        continue;
      }
      switch (type) {
        case DataType::kBool:
          col.AppendBool(*p != 0);
          break;
        case DataType::kBigInt: {
          int64_t v;
          std::memcpy(&v, p, sizeof(v));
          col.AppendBigInt(v);
          break;
        }
        case DataType::kHugeInt: {
          int128_t v;
          std::memcpy(&v, p, sizeof(v));
          col.AppendHugeInt(v);
          break;
        }
        case DataType::kDouble: {
          double v;
          std::memcpy(&v, p, sizeof(v));
          col.AppendDouble(v);
          break;
        }
        case DataType::kVarchar: {
          uint32_t len;
          std::memcpy(&len, p, sizeof(len));
          col.AppendVarchar(std::string(p + sizeof(len), len));
          width = sizeof(len) + len;
          break;
        }
      }
      p += width;
    }
  }

  const PlanNode& plan_;
  bool fast_ = false;
  bool keys_fixed_ = true;
  size_t key_stride_ = 0;  ///< encoded key row width when keys_fixed_
  bool scalar_group_init_ = false;
  FlatKeyIndex index_;
  // Caller-side key stores backing the index's equality checks.
  std::vector<int128_t> fast_keys_;   ///< fast path: per-group key value
  std::vector<uint8_t> fast_nulls_;   ///< fast path: per-group NULL flag
  std::string key_bytes_;             ///< generic path: encoded group keys
  std::vector<uint32_t> key_offsets_; ///< size groups + 1
  DataChunk key_store_;
  std::vector<std::vector<Accum>> accums_;  // [agg][group]
  // Per-chunk scratch.
  std::vector<int128_t> scratch_values_;
  std::vector<uint64_t> scratch_hashes_;
  EncodedKeyRows scratch_enc_;
};

/// One spill partition: a temp file of serialized partial-state records.
struct Partition {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<RecordWriter> writer;
  uint64_t records = 0;
};

class HashAggNode : public ExecNode {
 public:
  HashAggNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        reservation_(ctx->tracker), table_(plan) {
    if (ctx->profile != nullptr) {
      profile_ = ctx->profile;
    }
  }

  ~HashAggNode() override {
    if (profile_ != nullptr) {
      profile_->Record("HashAggregate", rows_out_, seconds_);
    }
  }

  Status Init() override {
    auto start = std::chrono::steady_clock::now();
    Status s = InitInternal();
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    return s;
  }

  Status InitInternal() {
    QY_RETURN_IF_ERROR(child_->Init());
    table_.EnsureScalarGroup();
    QY_RETURN_IF_ERROR(ConsumeSerial());
    if (spilled_) {
      QY_RETURN_IF_ERROR(FlushTable(table_, 0));
      // Release in-memory reservation; partitions are on disk.
      reservation_.ReleaseAll();
      table_.Clear();
      for (auto& p : partitions_) {
        QY_RETURN_IF_ERROR(p.writer->Flush());
        if (p.file->bytes_written() > 0) {
          pending_.push_back({std::move(p.file), 0});
        }
      }
      partitions_.clear();
      emit_from_partitions_ = true;
    }
    return Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    auto start = std::chrono::steady_clock::now();
    Status s = NextInternal(out, done);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (s.ok() && !*done) rows_out_ += out->NumRows();
    return s;
  }

  Status NextInternal(DataChunk* out, bool* done) {
    QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    out->columns.clear();
    if (!emit_from_partitions_) {
      uint32_t total = static_cast<uint32_t>(table_.NumGroups());
      if (emit_cursor_ >= total) {
        *done = true;
        return Status::OK();
      }
      uint32_t count = static_cast<uint32_t>(
          std::min<uint64_t>(ctx_->chunk_size, total - emit_cursor_));
      QY_RETURN_IF_ERROR(table_.EmitChunk(emit_cursor_, count, out));
      emit_cursor_ += count;
      *done = false;
      return Status::OK();
    }
    // Partition-at-a-time emission.
    while (true) {
      uint32_t total = static_cast<uint32_t>(table_.NumGroups());
      if (emit_cursor_ < total) {
        uint32_t count = static_cast<uint32_t>(
            std::min<uint64_t>(ctx_->chunk_size, total - emit_cursor_));
        QY_RETURN_IF_ERROR(table_.EmitChunk(emit_cursor_, count, out));
        emit_cursor_ += count;
        *done = false;
        return Status::OK();
      }
      // Advance to the next pending partition.
      table_.Clear();
      reservation_.ReleaseAll();
      emit_cursor_ = 0;
      if (pending_.empty()) {
        *done = true;
        return Status::OK();
      }
      PendingPartition part = std::move(pending_.back());
      pending_.pop_back();
      QY_RETURN_IF_ERROR(MergePartition(std::move(part)));
    }
  }

 private:
  struct PendingPartition {
    std::unique_ptr<TempFile> file;
    int depth;
  };

  /// Pull every input chunk into table_, spilling it under memory pressure.
  /// Chunks are applied in arrival order, which fixes the floating-point
  /// accumulation order of every sum.
  Status ConsumeSerial() {
    std::vector<uint32_t> groups;
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) break;
      size_t n = in.NumRows();
      if (n == 0) continue;
      // Evaluate group keys and aggregate arguments for the whole chunk.
      std::vector<ColumnVector> keys(plan_.group_keys.size());
      for (size_t k = 0; k < plan_.group_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.group_keys[k]->Evaluate(in, &keys[k]));
      }
      std::vector<ColumnVector> args(plan_.aggs.size());
      for (size_t a = 0; a < plan_.aggs.size(); ++a) {
        if (plan_.aggs[a].arg) {
          QY_RETURN_IF_ERROR(plan_.aggs[a].arg->Evaluate(in, &args[a]));
        }
      }
      table_.GroupIndices(keys, n, &groups);
      for (size_t a = 0; a < plan_.aggs.size(); ++a) {
        table_.UpdateColumn(a, groups, plan_.aggs[a].arg ? &args[a] : nullptr,
                            n);
      }
      QY_RETURN_IF_ERROR(CheckMemoryAndMaybeSpill());
    }
    return Status::OK();
  }

  Status CheckMemoryAndMaybeSpill() {
    uint64_t need = table_.ApproxBytes();
    uint64_t held = reservation_.held();
    if (need <= held) return Status::OK();
    Status s = reservation_.Reserve(need - held);
    if (s.ok()) return s;
    if (!ctx_->enable_spill || ctx_->temp_files == nullptr) {
      return Status::OutOfMemory(
          "hash aggregate exceeds memory budget and spilling is disabled (" +
          std::to_string(table_.NumGroups()) + " groups)");
    }
    // Flush all current groups to disk partitions and start over.
    spilled_ = true;
    QY_RETURN_IF_ERROR(FlushTable(table_, 0));
    table_.Clear();
    reservation_.ReleaseAll();
    return Status::OK();
  }

  Status EnsurePartitions(int depth) {
    if (!partitions_.empty()) return Status::OK();
    // Build into a local set and commit only when every file was created:
    // a mid-loop Create failure must not leave partitions_ half-initialized
    // (non-empty but with null writers).
    std::vector<Partition> fresh(kNumPartitions);
    for (int p = 0; p < kNumPartitions; ++p) {
      QY_ASSIGN_OR_RETURN(
          fresh[p].file,
          ctx_->temp_files->Create("agg_d" + std::to_string(depth) + "_p" +
                                   std::to_string(p)));
      fresh[p].writer = std::make_unique<RecordWriter>(fresh[p].file.get());
    }
    partitions_ = std::move(fresh);
    ctx_->spill_partitions += kNumPartitions;
    return Status::OK();
  }

  static int PartitionOf(uint64_t hash, int depth) {
    int shift = 60 - 4 * depth;
    if (shift < 0) shift = 0;
    return static_cast<int>((hash >> shift) & (kNumPartitions - 1));
  }

  /// Serialize every group of `table` into `parts` at `depth`, straight
  /// into the partition writers' page buffers.
  Status WriteGroups(const GroupTable& table, int depth,
                     std::vector<Partition>* parts) {
    uint32_t total = static_cast<uint32_t>(table.NumGroups());
    for (uint32_t g = 0; g < total; ++g) {
      uint64_t hash = table.GroupHash(g);
      Partition& part = (*parts)[PartitionOf(hash, depth)];
      table.SerializeGroup(g, hash, part.writer->BeginRecord());
      QY_RETURN_IF_ERROR(part.writer->EndRecord());
      ++part.records;
      ++ctx_->rows_spilled;
    }
    return Status::OK();
  }

  /// Serialize every group of `table` into the current partition set.
  Status FlushTable(const GroupTable& table, int depth) {
    QY_RETURN_IF_ERROR(EnsurePartitions(depth));
    return WriteGroups(table, depth, &partitions_);
  }

  /// Load one partition into the (empty) in-memory table, repartitioning if
  /// it does not fit.
  Status MergePartition(PendingPartition part) {
    QY_RETURN_IF_ERROR(part.file->Rewind());
    RecordReader reader(part.file.get());
    std::vector<Partition> sub;  // lazily created on overflow
    bool overflow = false;
    std::string_view record;
    uint64_t merged = 0;
    while (true) {
      if ((merged++ & 255) == 0) {
        QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      }
      bool eof = false;
      QY_RETURN_IF_ERROR(reader.Read(&record, &eof));
      if (eof) break;
      if (!overflow) {
        QY_RETURN_IF_ERROR(table_.MergeRecord(record));
        uint64_t need = table_.ApproxBytes();
        if (need > reservation_.held()) {
          Status s = reservation_.Reserve(need - reservation_.held());
          if (!s.ok()) {
            if (part.depth + 1 >= kMaxDepth) {
              return Status::OutOfMemory(
                  "aggregate partition exceeds memory budget at max "
                  "repartition depth");
            }
            overflow = true;
            // Flush current partial table into sub-partitions, then continue
            // routing the remaining records directly.
            sub.resize(kNumPartitions);
            for (int p = 0; p < kNumPartitions; ++p) {
              QY_ASSIGN_OR_RETURN(
                  sub[p].file,
                  ctx_->temp_files->Create(
                      "agg_d" + std::to_string(part.depth + 1) + "_p" +
                      std::to_string(p)));
              sub[p].writer = std::make_unique<RecordWriter>(sub[p].file.get());
              ++ctx_->spill_partitions;
            }
            QY_RETURN_IF_ERROR(WriteGroups(table_, part.depth + 1, &sub));
            table_.Clear();
            reservation_.ReleaseAll();
          }
        }
      } else {
        // Route record to sub-partition by key hash (recompute from record).
        QY_RETURN_IF_ERROR(RouteRecord(record, part.depth + 1, &sub));
      }
    }
    if (overflow) {
      for (auto& p : sub) {
        QY_RETURN_IF_ERROR(p.writer->Flush());
        if (p.records > 0 || p.file->bytes_written() > 0) {
          pending_.push_back({std::move(p.file), part.depth + 1});
        }
      }
      table_.Clear();
      // Nothing to emit yet; caller loops to the next pending partition.
    }
    return Status::OK();
  }

  /// Route a record to the sub-partition its stored hash selects.
  Status RouteRecord(std::string_view record, int depth,
                     std::vector<Partition>* sub) {
    uint64_t hash = 0;
    QY_RETURN_IF_ERROR(table_.RouteHash(record, &hash));
    Partition& part = (*sub)[PartitionOf(hash, depth)];
    QY_RETURN_IF_ERROR(part.writer->Write(record));
    ++part.records;
    ++ctx_->rows_spilled;
    return Status::OK();
  }

  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  ScopedReservation reservation_;
  GroupTable table_;

  bool spilled_ = false;
  std::vector<Partition> partitions_;
  std::vector<PendingPartition> pending_;
  bool emit_from_partitions_ = false;
  uint32_t emit_cursor_ = 0;

  QueryProfile* profile_ = nullptr;
  uint64_t rows_out_ = 0;
  double seconds_ = 0;
};

}  // namespace

Result<std::unique_ptr<ExecNode>> CreateHashAggNode(
    const PlanNode& plan, std::unique_ptr<ExecNode> child, ExecContext* ctx) {
  return std::unique_ptr<ExecNode>(
      new HashAggNode(plan, std::move(child), ctx));
}

}  // namespace qy::sql
