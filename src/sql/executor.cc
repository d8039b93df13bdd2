#include "sql/executor.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "sql/hash_kernels.h"
#include "sql/join_hash_table.h"

namespace qy::sql {

void QueryProfile::Record(const char* name, uint64_t rows_out,
                          double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (OperatorProfile& op : ops_) {
    if (op.name == name) {
      ++op.invocations;
      op.rows_out += rows_out;
      op.seconds += seconds;
      return;
    }
  }
  ops_.push_back({name, 1, rows_out, seconds});
}

std::vector<OperatorProfile> QueryProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::string QueryProfile::ToString() const {
  std::string out;
  for (const OperatorProfile& op : Snapshot()) {
    out += op.name + ": invocations=" + std::to_string(op.invocations) +
           " rows_out=" + std::to_string(op.rows_out) +
           " seconds=" + std::to_string(op.seconds) + "\n";
  }
  return out;
}

namespace {

/// Per-node row/time counters, flushed to the context profile on operator
/// teardown (when the plan's ExecNode tree is destroyed).
struct NodeStats {
  NodeStats(const char* name, ExecContext* ctx)
      : name(name), profile(ctx->profile) {}
  ~NodeStats() {
    if (profile != nullptr) profile->Record(name, rows_out, seconds);
  }
  const char* name;
  QueryProfile* profile;
  uint64_t rows_out = 0;
  double seconds = 0;
};

/// Accumulates elapsed wall time into `*acc` on Stop() or destruction,
/// whichever comes first.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* acc)
      : acc_(acc), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { Stop(); }

  void Stop() {
    if (acc_ == nullptr) return;
    *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
    acc_ = nullptr;
  }

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

class ScanNode : public ExecNode {
 public:
  ScanNode(const PlanNode& plan, ExecContext* ctx)
      : plan_(plan), ctx_(ctx), stats_("Scan", ctx) {}

  Status Init() override { return Status::OK(); }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    const Table& table = *plan_.table;
    out->columns.clear();
    if (offset_ >= table.NumRows()) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    uint64_t count = std::min<uint64_t>(ctx_->chunk_size,
                                        table.NumRows() - offset_);
    out->columns.reserve(table.schema().NumColumns());
    for (size_t c = 0; c < table.schema().NumColumns(); ++c) {
      ColumnVector col(table.schema().column(c).type);
      col.Reserve(count);
      table.ScanColumn(c, offset_, count, &col);
      out->columns.push_back(std::move(col));
    }
    offset_ += count;
    stats_.rows_out += count;
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  ExecContext* ctx_;
  NodeStats stats_;
  uint64_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Append the rows of `src` selected by `mask` (bool column) to `dst`.
void SelectRows(const DataChunk& src, const ColumnVector& mask,
                DataChunk* dst) {
  if (dst->columns.empty()) {
    for (const auto& col : src.columns) {
      dst->columns.emplace_back(col.type());
    }
  }
  std::vector<uint32_t> sel;
  MaskToSelection(mask, &sel);
  if (sel.empty()) return;
  for (size_t c = 0; c < src.columns.size(); ++c) {
    dst->columns[c].AppendGather(src.columns[c], sel.data(), sel.size());
  }
}

class FilterNode : public ExecNode {
 public:
  FilterNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
             ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        stats_("Filter", ctx) {}

  Status Init() override { return child_->Init(); }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
      if (in.NumRows() == 0) continue;
      ColumnVector mask;
      QY_RETURN_IF_ERROR(plan_.predicate->Evaluate(in, &mask));
      DataChunk filtered;
      SelectRows(in, mask, &filtered);
      if (filtered.NumRows() > 0) {
        stats_.rows_out += filtered.NumRows();
        *out = std::move(filtered);
        *done = false;
        return Status::OK();
      }
      // else: keep pulling
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  NodeStats stats_;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectNode : public ExecNode {
 public:
  ProjectNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
              ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), stats_("Project", ctx) {}

  Status Init() override {
    return child_ ? child_->Init() : Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    DataChunk in;
    bool child_done = false;
    if (child_) {
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
    } else {
      // SELECT of constants: synthesize exactly one dummy row once.
      if (emitted_dual_) {
        *done = true;
        return Status::OK();
      }
      emitted_dual_ = true;
      in.columns.emplace_back(DataType::kBigInt);
      in.columns[0].AppendBigInt(0);
    }
    *done = false;
    out->columns.reserve(plan_.projections.size());
    for (const auto& proj : plan_.projections) {
      ColumnVector col;
      QY_RETURN_IF_ERROR(proj->Evaluate(in, &col));
      out->columns.push_back(std::move(col));
    }
    stats_.rows_out += out->NumRows();
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  NodeStats stats_;
  bool emitted_dual_ = false;
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitNode : public ExecNode {
 public:
  LimitNode(const PlanNode& plan, std::unique_ptr<ExecNode> child)
      : remaining_(plan.limit), child_(std::move(child)) {}

  Status Init() override { return child_->Init(); }

  Status Next(DataChunk* out, bool* done) override {
    out->columns.clear();
    if (remaining_ <= 0) {
      *done = true;
      return Status::OK();
    }
    bool child_done = false;
    QY_RETURN_IF_ERROR(child_->Next(out, &child_done));
    if (child_done) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    int64_t rows = static_cast<int64_t>(out->NumRows());
    if (rows > remaining_) {
      // Truncate chunk to the remaining row budget.
      DataChunk truncated;
      for (const auto& col : out->columns) {
        truncated.columns.emplace_back(col.type());
      }
      for (size_t c = 0; c < out->columns.size(); ++c) {
        truncated.columns[c].AppendRange(out->columns[c], 0,
                                         static_cast<size_t>(remaining_));
      }
      *out = std::move(truncated);
      remaining_ = 0;
    } else {
      remaining_ -= rows;
    }
    return Status::OK();
  }

 private:
  int64_t remaining_;
  std::unique_ptr<ExecNode> child_;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SortNode : public ExecNode {
 public:
  SortNode(const PlanNode& plan, std::unique_ptr<ExecNode> child,
           ExecContext* ctx)
      : plan_(plan), child_(std::move(child)), ctx_(ctx),
        reservation_(ctx->tracker), stats_("Sort", ctx) {}

  Status Init() override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(child_->Init());
    // Materialize input.
    DataChunk all;
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(child_->Next(&in, &child_done));
      if (child_done) break;
      if (all.columns.empty()) {
        for (const auto& col : in.columns) {
          all.columns.emplace_back(col.type());
        }
      }
      QY_RETURN_IF_ERROR(reservation_.Reserve(in.ApproxBytes()));
      for (size_t c = 0; c < in.columns.size(); ++c) {
        all.columns[c].AppendRange(in.columns[c], 0, in.NumRows());
      }
    }
    size_t n = all.NumRows();
    // Evaluate sort keys over the full materialized input.
    std::vector<ColumnVector> keys(plan_.sort_keys.size());
    if (n > 0) {
      for (size_t k = 0; k < plan_.sort_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.sort_keys[k].expr->Evaluate(all, &keys[k]));
      }
    }
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (size_t k = 0; k < keys.size(); ++k) {
                         int c = keys[k].GetValue(a).Compare(keys[k].GetValue(b));
                         if (c != 0) {
                           return plan_.sort_keys[k].ascending ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    sorted_ = std::move(all);
    order_ = std::move(order);
    return Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    size_t n = order_.size();
    if (cursor_ >= n) {
      *done = true;
      return Status::OK();
    }
    *done = false;
    size_t count = std::min(ctx_->chunk_size, n - cursor_);
    for (size_t c = 0; c < sorted_.columns.size(); ++c) {
      out->columns.emplace_back(sorted_.columns[c].type());
      out->columns[c].AppendGather(sorted_.columns[c], order_.data() + cursor_,
                                   count);
    }
    cursor_ += count;
    stats_.rows_out += count;
    return Status::OK();
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<ExecNode> child_;
  ExecContext* ctx_;
  ScopedReservation reservation_;
  NodeStats stats_;
  DataChunk sorted_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Hash join (equi) / cross product
// ---------------------------------------------------------------------------

/// Equi-join over a flat open-addressing row table (join_hash_table.h).
///
/// Two key layouts: a single integer key (BIGINT/HUGEINT, the Qymera gate
/// join) is normalized to int128 so mixed widths compare equal; any other key
/// shape goes through the canonical binary encoding of hash_kernels.h and
/// compares by memcmp. Rows with NULL keys are dropped on both the build and
/// the probe side before they ever reach the table (SQL equi-join semantics:
/// NULL = NULL is not true), so key equality needs no null handling.
class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(const PlanNode& plan, std::unique_ptr<ExecNode> left,
               std::unique_ptr<ExecNode> right, ExecContext* ctx)
      : plan_(plan), left_(std::move(left)), right_(std::move(right)),
        ctx_(ctx), reservation_(ctx->tracker), stats_("HashJoin", ctx) {}

  ~HashJoinNode() override {
    if (ctx_->profile != nullptr && probe_rows_ > 0) {
      ctx_->profile->Record("HashJoinProbe", probe_rows_,
                            static_cast<double>(probe_ns_) * 1e-9);
    }
  }

  Status Init() override {
    ScopedTimer timer(&stats_.seconds);
    QY_RETURN_IF_ERROR(left_->Init());
    QY_RETURN_IF_ERROR(right_->Init());
    // Build phase: materialize right side, then hash it. Timed as
    // HashJoinBuild (pulling the build child included).
    double build_seconds = 0;
    ScopedTimer build_timer(&build_seconds);
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk in;
      bool child_done = false;
      QY_RETURN_IF_ERROR(right_->Next(&in, &child_done));
      if (child_done) break;
      if (build_.columns.empty()) {
        for (const auto& col : in.columns) {
          build_.columns.emplace_back(col.type());
        }
      }
      uint64_t requested = in.ApproxBytes() + 64;
      Status reserve = reservation_.Reserve(requested);
      if (!reserve.ok()) {
        // Drop the partially materialized build side and give the budget
        // back before failing, so the error does not leave the tracker
        // charged for data that will never be probed.
        uint64_t held = reservation_.held();
        uint64_t rows = build_.NumRows();
        build_ = DataChunk();
        reservation_.ReleaseAll();
        return Status::OutOfMemory(
            "hash join build side exceeds memory budget: requested " +
            std::to_string(requested) + " more bytes with " +
            std::to_string(held) + " bytes already held (" +
            std::to_string(rows) +
            " rows materialized); Qymera gate tables are expected to be "
            "small");
      }
      for (size_t c = 0; c < in.columns.size(); ++c) {
        build_.columns[c].AppendRange(in.columns[c], 0, in.NumRows());
      }
    }
    if (build_.columns.empty()) {
      for (const auto& col : plan_.children[1]->output_schema.columns()) {
        build_.columns.emplace_back(col.type);
      }
    }
    size_t n = build_.NumRows();
    if (!plan_.right_keys.empty()) {
      use_fast_key_ = plan_.right_keys.size() == 1 &&
                      IsInteger(plan_.right_keys[0]->type);
      // Reset even for an empty build side: probing consults the slot
      // arrays, which must exist (at minimum capacity) to report no match.
      table_.Reset(n);
    }
    if (!plan_.right_keys.empty() && n > 0) {
      std::vector<ColumnVector> keys(plan_.right_keys.size());
      for (size_t k = 0; k < plan_.right_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.right_keys[k]->Evaluate(build_, &keys[k]));
      }
      if (use_fast_key_) {
        const ColumnVector& kc = keys[0];
        NormalizeIntKeyColumn(kc, &build_int_keys_);
        std::vector<uint64_t> hashes;
        HashIntKeyColumn(kc, build_int_keys_, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (kc.IsNull(r)) continue;  // NULL keys never match
          int128_t key = build_int_keys_[r];
          table_.Insert(hashes[r], static_cast<uint32_t>(r),
                        [&](uint32_t head) {
                          return build_int_keys_[head] == key;
                        });
        }
      } else {
        EncodeKeyRows(keys, n, &build_enc_);
        std::vector<uint64_t> hashes;
        HashEncodedRows(build_enc_, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (AnyKeyNull(keys, r)) continue;  // NULL keys never match
          const char* key = build_enc_.RowPtr(r);
          size_t len = build_enc_.RowLen(r);
          table_.Insert(hashes[r], static_cast<uint32_t>(r),
                        [&](uint32_t head) {
                          return build_enc_.RowEquals(head, key, len);
                        });
        }
      }
    }
    build_timer.Stop();
    if (ctx_->profile != nullptr) {
      ctx_->profile->Record("HashJoinBuild", n, build_seconds);
    }
    return Status::OK();
  }

  Status Next(DataChunk* out, bool* done) override {
    ScopedTimer timer(&stats_.seconds);
    out->columns.clear();
    while (true) {
      QY_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      DataChunk probe;
      bool child_done = false;
      QY_RETURN_IF_ERROR(left_->Next(&probe, &child_done));
      if (child_done) {
        *done = true;
        return Status::OK();
      }
      if (probe.NumRows() == 0) continue;
      DataChunk joined;
      QY_RETURN_IF_ERROR(ProbeAndFilter(probe, &joined));
      if (joined.NumRows() > 0) {
        stats_.rows_out += joined.NumRows();
        *out = std::move(joined);
        *done = false;
        return Status::OK();
      }
    }
  }

 private:
  static bool AnyKeyNull(const std::vector<ColumnVector>& keys, size_t r) {
    for (const auto& kc : keys) {
      if (kc.IsNull(r)) return true;
    }
    return false;
  }

  /// Probe one chunk and apply the residual predicate.
  Status ProbeAndFilter(const DataChunk& probe, DataChunk* out) {
    auto start = std::chrono::steady_clock::now();
    DataChunk joined;
    QY_RETURN_IF_ERROR(ProbeChunk(probe, &joined));
    if (plan_.residual && joined.NumRows() > 0) {
      ColumnVector mask;
      QY_RETURN_IF_ERROR(plan_.residual->Evaluate(joined, &mask));
      DataChunk filtered;
      SelectRows(joined, mask, &filtered);
      joined = std::move(filtered);
    }
    *out = std::move(joined);
    probe_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return Status::OK();
  }

  /// Match a probe chunk against the build table into parallel selection
  /// vectors (probe row index, build row index), in probe-row order with each
  /// probe row's matches in build insertion order, then gather every output
  /// column in bulk.
  Status ProbeChunk(const DataChunk& probe, DataChunk* out) {
    size_t left_cols = probe.columns.size();
    size_t right_cols = build_.columns.size();
    out->columns.clear();
    for (const auto& col : probe.columns) {
      out->columns.emplace_back(col.type());
    }
    for (const auto& col : build_.columns) {
      out->columns.emplace_back(col.type());
    }
    size_t n = probe.NumRows();
    std::vector<uint32_t> probe_sel;
    std::vector<uint32_t> build_sel;
    if (plan_.right_keys.empty()) {
      // Cross product.
      size_t build_rows = build_.NumRows();
      probe_sel.reserve(n * build_rows);
      build_sel.reserve(n * build_rows);
      for (size_t r = 0; r < n; ++r) {
        for (uint32_t b = 0; b < build_rows; ++b) {
          probe_sel.push_back(static_cast<uint32_t>(r));
          build_sel.push_back(b);
        }
      }
    } else {
      std::vector<ColumnVector> keys(plan_.left_keys.size());
      for (size_t k = 0; k < plan_.left_keys.size(); ++k) {
        QY_RETURN_IF_ERROR(plan_.left_keys[k]->Evaluate(probe, &keys[k]));
      }
      auto match = [&](size_t r, uint32_t b) {
        probe_sel.push_back(static_cast<uint32_t>(r));
        build_sel.push_back(b);
      };
      if (use_fast_key_) {
        const ColumnVector& kc = keys[0];
        // The probe key may bind as BIGINT while build is HUGEINT (or vice
        // versa); normalizing to int128 makes mixed widths compare equal.
        std::vector<int128_t> values;
        NormalizeIntKeyColumn(kc, &values);
        std::vector<uint64_t> hashes;
        HashIntKeyColumn(kc, values, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (kc.IsNull(r)) continue;  // NULL keys never match
          int128_t key = values[r];
          table_.ForEachMatch(
              hashes[r],
              [&](uint32_t head) { return build_int_keys_[head] == key; },
              [&](uint32_t b) { match(r, b); });
        }
      } else {
        EncodedKeyRows enc;
        EncodeKeyRows(keys, n, &enc);
        std::vector<uint64_t> hashes;
        HashEncodedRows(enc, &hashes);
        for (size_t r = 0; r < n; ++r) {
          if (AnyKeyNull(keys, r)) continue;  // NULL keys never match
          const char* key = enc.RowPtr(r);
          size_t len = enc.RowLen(r);
          table_.ForEachMatch(
              hashes[r],
              [&](uint32_t head) {
                return build_enc_.RowEquals(head, key, len);
              },
              [&](uint32_t b) { match(r, b); });
        }
      }
    }
    probe_rows_ += n;
    if (probe_sel.empty()) return Status::OK();
    for (size_t c = 0; c < left_cols; ++c) {
      out->columns[c].AppendGather(probe.columns[c], probe_sel.data(),
                                   probe_sel.size());
    }
    for (size_t c = 0; c < right_cols; ++c) {
      out->columns[left_cols + c].AppendGather(
          build_.columns[c], build_sel.data(), build_sel.size());
    }
    return Status::OK();
  }

  const PlanNode& plan_;
  std::unique_ptr<ExecNode> left_, right_;
  ExecContext* ctx_;
  ScopedReservation reservation_;
  NodeStats stats_;
  DataChunk build_;
  bool use_fast_key_ = false;
  JoinRowTable table_;
  std::vector<int128_t> build_int_keys_;  ///< fast path: key of each build row
  EncodedKeyRows build_enc_;              ///< generic path: encoded key rows
  uint64_t probe_rows_ = 0;
  uint64_t probe_ns_ = 0;  ///< probe time (HashJoinProbe)
};

}  // namespace

// Defined in exec_agg.cc.
Result<std::unique_ptr<ExecNode>> CreateHashAggNode(
    const PlanNode& plan, std::unique_ptr<ExecNode> child, ExecContext* ctx);

Result<std::unique_ptr<ExecNode>> CreateExecNode(const PlanNode& plan,
                                                 ExecContext* ctx) {
  switch (plan.kind) {
    case PlanNode::Kind::kScan:
      return std::unique_ptr<ExecNode>(new ScanNode(plan, ctx));
    case PlanNode::Kind::kFilter: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new FilterNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kProject: {
      std::unique_ptr<ExecNode> child;
      if (!plan.children.empty() && plan.children[0]) {
        QY_ASSIGN_OR_RETURN(child, CreateExecNode(*plan.children[0], ctx));
      }
      return std::unique_ptr<ExecNode>(
          new ProjectNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kJoin: {
      QY_ASSIGN_OR_RETURN(auto left, CreateExecNode(*plan.children[0], ctx));
      QY_ASSIGN_OR_RETURN(auto right, CreateExecNode(*plan.children[1], ctx));
      return std::unique_ptr<ExecNode>(
          new HashJoinNode(plan, std::move(left), std::move(right), ctx));
    }
    case PlanNode::Kind::kAggregate: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return CreateHashAggNode(plan, std::move(child), ctx);
    }
    case PlanNode::Kind::kSort: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(
          new SortNode(plan, std::move(child), ctx));
    }
    case PlanNode::Kind::kLimit: {
      QY_ASSIGN_OR_RETURN(auto child, CreateExecNode(*plan.children[0], ctx));
      return std::unique_ptr<ExecNode>(new LimitNode(plan, std::move(child)));
    }
  }
  return Status::Internal("unhandled plan node kind");
}

Status ExecutePlan(const PlanNode& plan, ExecContext* ctx, Table* sink) {
  QY_ASSIGN_OR_RETURN(auto root, CreateExecNode(plan, ctx));
  QY_RETURN_IF_ERROR(root->Init());
  while (true) {
    QY_RETURN_IF_ERROR(ctx->CheckInterrupt());
    DataChunk chunk;
    bool done = false;
    QY_RETURN_IF_ERROR(root->Next(&chunk, &done));
    if (done) break;
    if (chunk.NumRows() > 0) {
      QY_RETURN_IF_ERROR(sink->AppendChunk(chunk));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad;
  switch (kind) {
    case Kind::kScan:
      line += "Scan " + (table ? table->name() : std::string("?")) + " [" +
              output_schema.ToString() + "]";
      break;
    case Kind::kJoin:
      line += "HashJoin keys=" + std::to_string(left_keys.size()) +
              (residual ? " +residual" : "");
      break;
    case Kind::kFilter:
      line += "Filter";
      break;
    case Kind::kProject:
      line += "Project [" + output_schema.ToString() + "]";
      break;
    case Kind::kAggregate:
      line += "HashAggregate keys=" + std::to_string(group_keys.size()) +
              " aggs=" + std::to_string(aggs.size());
      break;
    case Kind::kSort:
      line += "Sort keys=" + std::to_string(sort_keys.size());
      break;
    case Kind::kLimit:
      line += "Limit " + std::to_string(limit);
      break;
  }
  line += "\n";
  for (const auto& child : children) {
    if (child) line += child->ToString(indent + 1);
  }
  return line;
}

}  // namespace qy::sql
