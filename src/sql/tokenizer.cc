#include "sql/tokenizer.h"

#include <array>
#include <cstring>
#include <string>

namespace qy::sql {

namespace {

// Character classes of the C locale (what <cctype> answers there).
enum CharClass : uint8_t {
  kSpace = 1,
  kAlpha = 2,  ///< letters and '_': may start an identifier
  kDigit = 4,
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlpha;
  t['_'] = kAlpha;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  return t;
}
constexpr std::array<uint8_t, 256> kCharClass = MakeCharClasses();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

constexpr char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

struct KeywordSpelling {
  std::string_view word;
  Keyword keyword;
};

// The reserved words.
constexpr KeywordSpelling kKeywords[] = {
    {"BY", Keyword::kBy},         {"ON", Keyword::kOn},
    {"AS", Keyword::kAs},         {"OR", Keyword::kOr},
    {"IS", Keyword::kIs},         {"IF", Keyword::kIf},
    {"AND", Keyword::kAnd},       {"NOT", Keyword::kNot},
    {"END", Keyword::kEnd},       {"ASC", Keyword::kAsc},
    {"FROM", Keyword::kFrom},     {"JOIN", Keyword::kJoin},
    {"WITH", Keyword::kWith},     {"CASE", Keyword::kCase},
    {"WHEN", Keyword::kWhen},     {"THEN", Keyword::kThen},
    {"ELSE", Keyword::kElse},     {"CAST", Keyword::kCast},
    {"INTO", Keyword::kInto},     {"DROP", Keyword::kDrop},
    {"DESC", Keyword::kDesc},     {"NULL", Keyword::kNull},
    {"TRUE", Keyword::kTrue},     {"LEFT", Keyword::kLeft},
    {"WHERE", Keyword::kWhere},   {"GROUP", Keyword::kGroup},
    {"ORDER", Keyword::kOrder},   {"LIMIT", Keyword::kLimit},
    {"TABLE", Keyword::kTable},   {"FALSE", Keyword::kFalse},
    {"INNER", Keyword::kInner},   {"CROSS", Keyword::kCross},
    {"UNION", Keyword::kUnion},   {"SELECT", Keyword::kSelect},
    {"HAVING", Keyword::kHaving}, {"CREATE", Keyword::kCreate},
    {"INSERT", Keyword::kInsert}, {"VALUES", Keyword::kValues},
    {"EXISTS", Keyword::kExists}, {"EXPLAIN", Keyword::kExplain},
    {"REPLACE", Keyword::kReplace}, {"DISTINCT", Keyword::kDistinct},
};
constexpr size_t kNumKeywords = sizeof(kKeywords) / sizeof(kKeywords[0]);
constexpr size_t kMaxKeywordLength = 8;

// Keyword lookup: open addressing over (length, first, last letter), a key
// that already tells most keywords apart; the table is built at compile time.
constexpr size_t kKeywordSlots = 128;

constexpr size_t KeywordSlot(size_t len, char first, char last) {
  return (len * 37 + static_cast<unsigned char>(first) * 11 +
          static_cast<unsigned char>(last)) %
         kKeywordSlots;
}

constexpr std::array<int8_t, kKeywordSlots> MakeKeywordTable() {
  std::array<int8_t, kKeywordSlots> slots{};
  for (int8_t& slot : slots) slot = -1;
  for (size_t k = 0; k < kNumKeywords; ++k) {
    std::string_view w = kKeywords[k].word;
    size_t s = KeywordSlot(w.size(), w.front(), w.back());
    while (slots[s] >= 0) s = (s + 1) % kKeywordSlots;
    slots[s] = static_cast<int8_t>(k);
  }
  return slots;
}
constexpr std::array<int8_t, kKeywordSlots> kKeywordTable = MakeKeywordTable();

Keyword ClassifyWord(std::string_view word) {
  size_t len = word.size();
  if (len < 2 || len > kMaxKeywordLength) return Keyword::kNone;
  for (size_t s = KeywordSlot(len, AsciiUpper(word.front()),
                              AsciiUpper(word.back()));
       kKeywordTable[s] >= 0; s = (s + 1) % kKeywordSlots) {
    const KeywordSpelling& k = kKeywords[kKeywordTable[s]];
    if (k.word.size() != len) continue;
    size_t i = 0;
    while (i < len && AsciiUpper(word[i]) == k.word[i]) ++i;
    if (i == len) return k.keyword;
  }
  return Keyword::kNone;
}

// Spelling of each Symbol, indexed by its value.
constexpr const char* kSymbolText[] = {
    "",  "(", ")", "[", "]", ",", ";", ".", "*", "+", "-", "/", "%",
    "&", "|", "^", "~", "<", ">", "=", "<<", ">>", "<=", ">=", "<>", "||",
};

Symbol SingleSymbol(char c) {
  switch (c) {
    case '(': return Symbol::kLParen;
    case ')': return Symbol::kRParen;
    case '[': return Symbol::kLBracket;
    case ']': return Symbol::kRBracket;
    case ',': return Symbol::kComma;
    case ';': return Symbol::kSemicolon;
    case '.': return Symbol::kDot;
    case '*': return Symbol::kStar;
    case '+': return Symbol::kPlus;
    case '-': return Symbol::kMinus;
    case '/': return Symbol::kSlash;
    case '%': return Symbol::kPercent;
    case '&': return Symbol::kAmp;
    case '|': return Symbol::kPipe;
    case '^': return Symbol::kCaret;
    case '~': return Symbol::kTilde;
    case '<': return Symbol::kLt;
    case '>': return Symbol::kGt;
    case '=': return Symbol::kEq;
    default: return Symbol::kNone;
  }
}

Symbol DoubleSymbol(char a, char b) {
  switch (a) {
    case '<':
      return b == '<' ? Symbol::kShl
             : b == '=' ? Symbol::kLe
             : b == '>' ? Symbol::kNe
                        : Symbol::kNone;
    case '>':
      return b == '>' ? Symbol::kShr : b == '=' ? Symbol::kGe : Symbol::kNone;
    case '!':
      return b == '=' ? Symbol::kNe : Symbol::kNone;
    case '|':
      return b == '|' ? Symbol::kConcat : Symbol::kNone;
    default:
      return Symbol::kNone;
  }
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  if (type != TokenType::kIdentifier || text.size() != std::strlen(kw)) {
    return false;
  }
  for (size_t i = 0; i < text.size(); ++i) {
    if (AsciiUpper(text[i]) != AsciiUpper(kw[i])) return false;
  }
  return true;
}

Result<TokenList> Tokenize(std::string_view source) {
  const size_t n = source.size();
  TokenList list;
  list.source_ = std::make_unique<char[]>(n + 1);
  char* sql = list.source_.get();
  std::memcpy(sql, source.data(), n);
  sql[n] = '\0';
  std::vector<Token>& tokens = list.tokens_;
  tokens.reserve(std::min<size_t>(n / 2 + 2, 4096));
  size_t i = 0;
  auto error = [&](const std::string& what) {
    return Status::ParseError("lex error at offset " + std::to_string(i) +
                              ": " + what);
  };
  auto push = [&](TokenType type, size_t start, std::string_view text) {
    tokens.push_back({type, Keyword::kNone, Symbol::kNone, text, start});
  };
  while (i < n) {
    char c = sql[i];
    if (Is(c, kSpace)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && sql[i + 1] == '*') {
      size_t end = source.find("*/", i + 2);
      if (end == std::string_view::npos) {
        return error("unterminated block comment");
      }
      i = end + 2;
      continue;
    }
    if (tokens.size() >= kMaxTokens) {
      return error("more than " + std::to_string(kMaxTokens) + " tokens");
    }
    size_t start = i;
    // Identifiers / keywords.
    if (Is(c, kAlpha)) {
      while (i < n && Is(sql[i], kAlpha | kDigit)) ++i;
      std::string_view word(sql + start, i - start);
      push(TokenType::kIdentifier, start, word);
      tokens.back().keyword = ClassifyWord(word);
      continue;
    }
    // Quoted identifiers.
    if (c == '"') {
      ++i;
      while (i < n && sql[i] != '"') ++i;
      if (i >= n) return error("unterminated quoted identifier");
      std::string_view word(sql + start + 1, i - start - 1);
      ++i;
      push(TokenType::kIdentifier, start, word);
      tokens.back().keyword = ClassifyWord(word);
      continue;
    }
    // Numbers.
    if (Is(c, kDigit) || (c == '.' && Is(sql[i + 1], kDigit))) {
      bool is_float = false;
      while (i < n && Is(sql[i], kDigit)) ++i;
      if (i < n && sql[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && Is(sql[i], kDigit)) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        is_float = true;
        ++i;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        if (i >= n || !Is(sql[i], kDigit)) return error("malformed exponent");
        while (i < n && Is(sql[i], kDigit)) ++i;
      }
      push(is_float ? TokenType::kFloatLiteral : TokenType::kIntLiteral,
           start, std::string_view(sql + start, i - start));
      continue;
    }
    // String literals with '' escape, unescaped in place: the text never
    // grows, so it overwrites only bytes already consumed.
    if (c == '\'') {
      ++i;
      size_t out = i;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            sql[out++] = '\'';
            i += 2;
            continue;
          }
          break;
        }
        sql[out++] = sql[i++];
      }
      if (i >= n) return error("unterminated string literal");
      ++i;
      push(TokenType::kStringLiteral, start,
           std::string_view(sql + start + 1, out - start - 1));
      continue;
    }
    // Multi-char symbols first (sql[n] is the NUL terminator).
    Symbol sym = DoubleSymbol(c, sql[i + 1]);
    size_t len = 2;
    if (sym == Symbol::kNone) {
      sym = SingleSymbol(c);
      len = 1;
    }
    if (sym == Symbol::kNone) {
      return error(std::string("unexpected character '") + c + "'");
    }
    push(TokenType::kSymbol, start, kSymbolText[static_cast<int>(sym)]);
    tokens.back().symbol = sym;
    i += len;
  }
  push(TokenType::kEnd, n, std::string_view());
  return list;
}

}  // namespace qy::sql
