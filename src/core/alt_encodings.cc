#include "core/alt_encodings.h"

#include <chrono>

#include "common/strings.h"

namespace qy::core {

namespace {

using sql::DataType;
using sql::Value;

sql::DatabaseOptions DbOptionsFor(const QymeraOptions& qopts,
                                  const sim::SimOptions& base) {
  sql::DatabaseOptions dopts;
  dopts.memory_budget_bytes = base.memory_budget_bytes;
  dopts.enable_spill = qopts.enable_spill;
  dopts.chunk_size = qopts.chunk_size;
  return dopts;
}

/// Bit b of basis index v as '0'/'1'.
char BitChar(uint64_t v, int b) { return ((v >> b) & 1) ? '1' : '0'; }

}  // namespace

// ---------------------------------------------------------------------------
// String encoding (Trummer [6] style)
// ---------------------------------------------------------------------------

Result<sim::SparseState> StringEncodedSimulator::Run(
    const qc::QuantumCircuit& circuit) {
  QY_RETURN_IF_ERROR(circuit.status());
  auto start = std::chrono::steady_clock::now();
  int n = circuit.num_qubits();
  if (n > 30) {
    return Status::Unsupported(
        "string-encoded simulation is an ablation; use <= 30 qubits");
  }
  sql::Database db(DbOptionsFor(qopts_, options_));
  metrics_ = sim::SimMetrics{};
  metrics_.backend_stat_name = "max_rows";

  // Qubit q lives at 1-based string position n - q (qubit 0 rightmost).
  auto pos_of = [&](int q) { return n - q; };

  // Initial state |0...0>.
  {
    sql::Schema schema;
    schema.AddColumn("s", DataType::kVarchar);
    schema.AddColumn("r", DataType::kDouble);
    schema.AddColumn("i", DataType::kDouble);
    QY_ASSIGN_OR_RETURN(sql::Table * t0, db.catalog().CreateTable("S0", schema));
    QY_RETURN_IF_ERROR(t0->AppendRow({Value::Varchar(std::string(n, '0')),
                                      Value::Double(1.0), Value::Double(0.0)}));
  }

  // Gate tables with VARCHAR local indices, deduplicated by name.
  std::string current = "S0";
  for (size_t gi = 0; gi < circuit.gates().size(); ++gi) {
    const qc::Gate& gate = circuit.gates()[gi];
    QY_ASSIGN_OR_RETURN(qc::GateMatrix u, qc::MatrixForGate(gate));
    std::string gname = "sg_" + GateTableName(gate, u).substr(2);
    int k = static_cast<int>(gate.qubits.size());
    if (!db.catalog().HasTable(gname)) {
      sql::Schema schema;
      schema.AddColumn("in_s", DataType::kVarchar);
      schema.AddColumn("out_s", DataType::kVarchar);
      schema.AddColumn("r", DataType::kDouble);
      schema.AddColumn("i", DataType::kDouble);
      QY_ASSIGN_OR_RETURN(sql::Table * gt,
                          db.catalog().CreateTable(gname, schema));
      for (int row = 0; row < u.dim; ++row) {
        for (int col = 0; col < u.dim; ++col) {
          qc::Complex v = u.At(row, col);
          if (std::abs(v) <= 1e-15) continue;
          std::string in_s(k, '0'), out_s(k, '0');
          for (int b = 0; b < k; ++b) {
            in_s[b] = BitChar(col, b);
            out_s[b] = BitChar(row, b);
          }
          QY_RETURN_IF_ERROR(
              gt->AppendRow({Value::Varchar(in_s), Value::Varchar(out_s),
                             Value::Double(v.real()), Value::Double(v.imag())}));
        }
      }
    }
    // Join key: concatenation of the gate-qubit characters of S.s.
    std::vector<std::string> gather_parts;
    for (int b = 0; b < k; ++b) {
      gather_parts.push_back("SUBSTR(" + current + ".s, " +
                             std::to_string(pos_of(gate.qubits[b])) + ", 1)");
    }
    std::string gather = gather_parts.size() == 1
                             ? gather_parts[0]
                             : "CONCAT(" + qy::StrJoin(gather_parts, ", ") + ")";
    // Output string rebuilt character by character.
    std::vector<std::string> out_parts;
    for (int p = 1; p <= n; ++p) {
      int q = n - p;
      int local = -1;
      for (int b = 0; b < k; ++b) {
        if (gate.qubits[b] == q) local = b;
      }
      if (local < 0) {
        out_parts.push_back("SUBSTR(" + current + ".s, " + std::to_string(p) +
                            ", 1)");
      } else {
        out_parts.push_back("SUBSTR(" + gname + ".out_s, " +
                            std::to_string(local + 1) + ", 1)");
      }
    }
    std::string out_expr = "CONCAT(" + qy::StrJoin(out_parts, ", ") + ")";
    std::string sum_r = "SUM((" + current + ".r * " + gname + ".r) - (" +
                        current + ".i * " + gname + ".i))";
    std::string sum_i = "SUM((" + current + ".r * " + gname + ".i) + (" +
                        current + ".i * " + gname + ".r))";
    std::string next = "S" + std::to_string(gi + 1);
    std::string sql = "CREATE TABLE " + next + " AS SELECT " + out_expr +
                      " AS s, " + sum_r + " AS r, " + sum_i + " AS i FROM " +
                      current + " JOIN " + gname + " ON " + gname +
                      ".in_s = " + gather + " GROUP BY " + out_expr;
    if (options_.prune_epsilon > 0) {
      double eps2 = options_.prune_epsilon * options_.prune_epsilon;
      sql += " HAVING ((" + sum_r + " * " + sum_r + ") + (" + sum_i + " * " +
             sum_i + ")) > " + qy::DoubleToSql(eps2);
    }
    QY_ASSIGN_OR_RETURN(sql::QueryResult result, db.Execute(sql));
    metrics_.backend_stat =
        std::max<uint64_t>(metrics_.backend_stat, result.rows_changed);
    QY_RETURN_IF_ERROR(db.ExecuteScript("DROP TABLE " + current));
    current = next;
  }

  // Read back: parse bitstrings.
  QY_ASSIGN_OR_RETURN(sql::Table * table, db.catalog().GetTable(current));
  std::vector<std::pair<sim::BasisIndex, sim::Complex>> amps;
  double cut = options_.prune_epsilon * options_.prune_epsilon;
  for (uint64_t row = 0; row < table->NumRows(); ++row) {
    const std::string& bits = table->column(0).str_data()[row];
    double re = table->column(1).f64_data()[row];
    double im = table->column(2).f64_data()[row];
    if (re * re + im * im <= cut) continue;
    sim::BasisIndex idx = 0;
    for (int p = 0; p < n; ++p) {
      if (bits[p] == '1') {
        idx |= static_cast<sim::BasisIndex>(1) << (n - 1 - p);
      }
    }
    amps.emplace_back(idx, sim::Complex{re, im});
  }
  metrics_.peak_bytes = db.tracker().peak();
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sim::SparseState(n, std::move(amps));
}

// ---------------------------------------------------------------------------
// Tensor-column encoding (Blacher et al. [2] style)
// ---------------------------------------------------------------------------

Result<sim::SparseState> TensorColumnSimulator::Run(
    const qc::QuantumCircuit& circuit) {
  QY_RETURN_IF_ERROR(circuit.status());
  auto start = std::chrono::steady_clock::now();
  int n = circuit.num_qubits();
  if (n > 24) {
    return Status::Unsupported(
        "tensor-column simulation is an ablation; use <= 24 qubits");
  }
  sql::Database db(DbOptionsFor(qopts_, options_));
  metrics_ = sim::SimMetrics{};
  metrics_.backend_stat_name = "max_rows";

  auto qcol = [](int q) { return "q" + std::to_string(q); };

  {
    sql::Schema schema;
    for (int q = 0; q < n; ++q) schema.AddColumn(qcol(q), DataType::kBigInt);
    schema.AddColumn("r", DataType::kDouble);
    schema.AddColumn("i", DataType::kDouble);
    QY_ASSIGN_OR_RETURN(sql::Table * t0, db.catalog().CreateTable("E0", schema));
    std::vector<Value> row(n, Value::BigInt(0));
    row.push_back(Value::Double(1.0));
    row.push_back(Value::Double(0.0));
    QY_RETURN_IF_ERROR(t0->AppendRow(row));
  }

  std::string current = "E0";
  for (size_t gi = 0; gi < circuit.gates().size(); ++gi) {
    const qc::Gate& gate = circuit.gates()[gi];
    QY_ASSIGN_OR_RETURN(qc::GateMatrix u, qc::MatrixForGate(gate));
    std::string gname = "eg_" + GateTableName(gate, u).substr(2);
    int k = static_cast<int>(gate.qubits.size());
    if (!db.catalog().HasTable(gname)) {
      sql::Schema schema;
      for (int b = 0; b < k; ++b) {
        schema.AddColumn("in_" + std::to_string(b), DataType::kBigInt);
      }
      for (int b = 0; b < k; ++b) {
        schema.AddColumn("out_" + std::to_string(b), DataType::kBigInt);
      }
      schema.AddColumn("r", DataType::kDouble);
      schema.AddColumn("i", DataType::kDouble);
      QY_ASSIGN_OR_RETURN(sql::Table * gt,
                          db.catalog().CreateTable(gname, schema));
      for (int row = 0; row < u.dim; ++row) {
        for (int col = 0; col < u.dim; ++col) {
          qc::Complex v = u.At(row, col);
          if (std::abs(v) <= 1e-15) continue;
          std::vector<Value> values;
          for (int b = 0; b < k; ++b) {
            values.push_back(Value::BigInt((col >> b) & 1));
          }
          for (int b = 0; b < k; ++b) {
            values.push_back(Value::BigInt((row >> b) & 1));
          }
          values.push_back(Value::Double(v.real()));
          values.push_back(Value::Double(v.imag()));
          QY_RETURN_IF_ERROR(gt->AppendRow(values));
        }
      }
    }
    // SELECT per-qubit output columns.
    std::vector<std::string> items;
    for (int q = 0; q < n; ++q) {
      int local = -1;
      for (int b = 0; b < k; ++b) {
        if (gate.qubits[b] == q) local = b;
      }
      if (local < 0) {
        items.push_back(current + "." + qcol(q) + " AS " + qcol(q));
      } else {
        items.push_back(gname + ".out_" + std::to_string(local) + " AS " +
                        qcol(q));
      }
    }
    std::string sum_r = "SUM((" + current + ".r * " + gname + ".r) - (" +
                        current + ".i * " + gname + ".i))";
    std::string sum_i = "SUM((" + current + ".r * " + gname + ".i) + (" +
                        current + ".i * " + gname + ".r))";
    std::vector<std::string> join_conds;
    for (int b = 0; b < k; ++b) {
      join_conds.push_back(gname + ".in_" + std::to_string(b) + " = " +
                           current + "." + qcol(gate.qubits[b]));
    }
    std::vector<std::string> ordinals;
    for (int q = 1; q <= n; ++q) ordinals.push_back(std::to_string(q));
    std::string next = "E" + std::to_string(gi + 1);
    std::string sql = "CREATE TABLE " + next + " AS SELECT " +
                      qy::StrJoin(items, ", ") + ", " + sum_r + " AS r, " +
                      sum_i + " AS i FROM " + current + " JOIN " + gname +
                      " ON " + qy::StrJoin(join_conds, " AND ") + " GROUP BY " +
                      qy::StrJoin(ordinals, ", ");
    if (options_.prune_epsilon > 0) {
      double eps2 = options_.prune_epsilon * options_.prune_epsilon;
      sql += " HAVING ((" + sum_r + " * " + sum_r + ") + (" + sum_i + " * " +
             sum_i + ")) > " + qy::DoubleToSql(eps2);
    }
    QY_ASSIGN_OR_RETURN(sql::QueryResult result, db.Execute(sql));
    metrics_.backend_stat =
        std::max<uint64_t>(metrics_.backend_stat, result.rows_changed);
    QY_RETURN_IF_ERROR(db.ExecuteScript("DROP TABLE " + current));
    current = next;
  }

  QY_ASSIGN_OR_RETURN(sql::Table * table, db.catalog().GetTable(current));
  std::vector<std::pair<sim::BasisIndex, sim::Complex>> amps;
  double cut = options_.prune_epsilon * options_.prune_epsilon;
  for (uint64_t row = 0; row < table->NumRows(); ++row) {
    double re = table->column(n).f64_data()[row];
    double im = table->column(n + 1).f64_data()[row];
    if (re * re + im * im <= cut) continue;
    sim::BasisIndex idx = 0;
    for (int q = 0; q < n; ++q) {
      if (table->column(q).i64_data()[row] != 0) {
        idx |= static_cast<sim::BasisIndex>(1) << q;
      }
    }
    amps.emplace_back(idx, sim::Complex{re, im});
  }
  metrics_.peak_bytes = db.tracker().peak();
  metrics_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sim::SparseState(n, std::move(amps));
}

}  // namespace qy::core
