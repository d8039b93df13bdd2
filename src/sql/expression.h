/// \file expression.h
/// Bound (typed, resolved) expressions and their vectorized evaluation.
///
/// Bound expressions reference input columns by physical index; evaluation
/// runs column-at-a-time over DataChunks with type-specialized kernels.
/// Bitwise operators on BIGINT/HUGEINT are first-class citizens — they are
/// the primitive Qymera's qubit addressing compiles to (Table 1 of the
/// paper).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/column_vector.h"
#include "sql/value.h"

namespace qy::sql {

enum class OpCode {
  // arithmetic
  kAdd, kSub, kMul, kDiv, kMod,
  // bitwise (integers)
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  // comparison -> BOOLEAN
  kEq, kNe, kLt, kLe, kGt, kGe,
  // logical
  kAnd, kOr,
  // string
  kConcat,
  // unary
  kNeg, kBitNot, kNot, kIsNull,
};

/// Scalar (non-aggregate) builtin functions.
enum class ScalarFunc {
  kAbs, kSqrt, kPow, kFloor, kCeil, kRound, kLn, kExp, kSin, kCos,
  kSubstr, kConcat, kLength, kMod,
};

enum class BoundExprKind {
  kColumnRef,  ///< physical column index in the input chunk
  kLiteral,
  kUnary,
  kBinary,
  kFunction,
  kCase,
  kCast,
};

/// A typed, resolved expression tree ready for execution.
struct BoundExpr {
  // User-provided, so make_unique<BoundExpr>() skips zero-filling the node.
  BoundExpr() {}

  // Field order keeps the node at 112 bytes, small enough for the
  // allocator's fast free lists (a statement binds dozens of them).
  Value literal;                  // kLiteral
  std::vector<std::unique_ptr<BoundExpr>> children;
  BoundExprKind kind = BoundExprKind::kLiteral;
  DataType type = DataType::kBigInt;  ///< result type

  int col_idx = -1;               // kColumnRef
  OpCode op = OpCode::kAdd;       // kUnary / kBinary
  ScalarFunc func = ScalarFunc::kAbs;  // kFunction
  bool case_has_else = false;     // kCase

  /// Evaluate over `input`, appending `input.NumRows()` values into `out`
  /// (out is cleared first and typed to `type`).
  Status Evaluate(const DataChunk& input, ColumnVector* out) const;

  /// Convenience: evaluate against a 0-column chunk of `rows` rows
  /// (constant expressions, VALUES lists).
  Status EvaluateConstant(Value* out) const;

  std::unique_ptr<BoundExpr> Clone() const;

  // Internal evaluation helpers (public so kernels can be reused by the
  // executor, e.g. MOD via the binary-op path).
  Status EvaluateUnaryOp(OpCode opcode, const ColumnVector& operand,
                         ColumnVector* out) const;
  Status EvaluateBinaryOp(OpCode opcode, const ColumnVector& l,
                          const ColumnVector& r, ColumnVector* out) const;
  Status EvaluateFunction(const DataChunk& input, ColumnVector* out) const;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

BoundExprPtr MakeBoundColumnRef(int col_idx, DataType type);
BoundExprPtr MakeBoundLiteral(Value v);

}  // namespace qy::sql
