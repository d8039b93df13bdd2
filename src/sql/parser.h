/// \file parser.h
/// Recursive-descent SQL parser producing AST statements; binary operators
/// are parsed by precedence climbing over one operator table.
///
/// Input size is bounded: a statement or script may have at most kMaxTokens
/// tokens (tokenizer.h), and expressions, subqueries and join chains may nest
/// at most kMaxNestingDepth levels. Past either limit parsing fails with a
/// ParseError naming the offset, so hostile input cannot exhaust the stack of
/// the parser or of the recursive passes that walk the tree afterwards.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/tokenizer.h"

namespace qy::sql {

/// Deepest accepted nesting. Bounds the height of every expression tree and
/// the parser's recursion: each nested operand is a level (a parenthesized
/// or prefixed operand, an operator's right-hand side, a function argument,
/// a CASE or CAST operand), and so is each nested SELECT and each join of a
/// FROM clause. 256 keeps the deepest parse inside an 8 MiB stack under
/// AddressSanitizer, whose ParseUnary frame alone is about 9 KB.
inline constexpr int kMaxNestingDepth = 256;

/// Parse a single SQL statement (optional trailing ';').
Result<Statement> ParseStatement(const std::string& sql);

/// Parse a script of ';'-separated statements.
Result<std::vector<Statement>> ParseScript(const std::string& sql);

}  // namespace qy::sql
