/// \file tokenizer.h
/// SQL lexer. Produces a flat token stream for the parser.
///
/// Tokens are views into a private copy of the source held by the TokenList
/// (string literals with '' escapes are unescaped in place there), so a
/// token list stays valid however the caller's string lives. Keywords and
/// symbols are classified once, here; the parser compares small enums.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qy::sql {

enum class TokenType {
  kIdentifier,   ///< bare or "quoted" identifier (keywords resolved later)
  kIntLiteral,   ///< decimal integer (may exceed int64 -> HUGEINT)
  kFloatLiteral, ///< decimal with '.' or exponent
  kStringLiteral,///< '...' with '' escaping
  kSymbol,       ///< operator/punctuation, possibly multi-char (<<, >=, <>)
  kEnd,
};

/// The reserved words of the dialect: an identifier spelling one of them
/// (in any case, quoted or not) is a keyword and cannot name a column or
/// alias.
enum class Keyword : uint8_t {
  kNone,
  kSelect, kFrom, kWhere, kGroup, kBy, kHaving, kOrder, kLimit, kJoin, kOn,
  kAs, kWith, kAnd, kOr, kNot, kCase, kWhen, kThen, kElse, kEnd, kCast,
  kCreate, kTable, kInsert, kInto, kValues, kDrop, kDistinct, kAsc, kDesc,
  kNull, kTrue, kFalse, kInner, kLeft, kCross, kExplain, kIs, kUnion,
  kReplace, kIf, kExists,
};

/// Punctuation and operators. `!=` lexes as kNe (spelled "<>").
enum class Symbol : uint8_t {
  kNone,
  kLParen, kRParen, kLBracket, kRBracket, kComma, kSemicolon, kDot, kStar,
  kPlus, kMinus, kSlash, kPercent, kAmp, kPipe, kCaret, kTilde, kLt, kGt,
  kEq, kShl, kShr, kLe, kGe, kNe, kConcat,
};

struct Token {
  TokenType type;
  Keyword keyword = Keyword::kNone;  ///< kIdentifier spelling a keyword
  Symbol symbol = Symbol::kNone;     ///< kSymbol
  std::string_view text;  ///< identifier spelled as written; symbol normalized
  size_t offset;          ///< byte offset in the source, for error messages

  bool Is(Symbol s) const { return symbol == s; }
  bool Is(Keyword k) const { return keyword == k; }
  bool IsSymbol(const char* s) const {
    return type == TokenType::kSymbol && text == s;
  }
  /// Case-insensitive keyword test (only meaningful for identifiers).
  bool IsKeyword(const char* kw) const;
};

/// Most tokens one statement or script may have. Bounds the token vector
/// (32 bytes a token) for any input, e.g. a 16 MiB service frame of "1,".
inline constexpr size_t kMaxTokens = size_t{1} << 20;

/// A tokenized source: the tokens (ending with one kEnd token) plus the
/// storage their text views point into. Movable; moving keeps views valid.
class TokenList {
 public:
  size_t size() const { return tokens_.size(); }
  const Token& operator[](size_t i) const { return tokens_[i]; }
  const Token& back() const { return tokens_.back(); }
  std::vector<Token>::const_iterator begin() const { return tokens_.begin(); }
  std::vector<Token>::const_iterator end() const { return tokens_.end(); }

 private:
  friend Result<TokenList> Tokenize(std::string_view sql);
  std::unique_ptr<char[]> source_;
  std::vector<Token> tokens_;
};

/// Tokenize a SQL string. Supports `--` line comments and `/* */` block
/// comments. Fails with ParseError past kMaxTokens tokens.
Result<TokenList> Tokenize(std::string_view sql);

}  // namespace qy::sql
