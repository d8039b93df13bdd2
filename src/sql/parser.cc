#include "sql/parser.h"

#include <algorithm>
#include <cstdlib>

namespace qy::sql {

namespace {

// Binary operator precedence, loosest first. NOT is a prefix operator
// between AND and the comparisons; unary -, + and ~ bind tightest.
// Comparisons (and IS [NOT] NULL) do not chain: `a = b = c` stops after
// `a = b`.
enum Precedence : int {
  kNoOperator = 0,
  kOrPrec,
  kAndPrec,
  kNotPrec,
  kComparePrec,
  kBitOrPrec,   // |  ||
  kBitXorPrec,  // ^
  kBitAndPrec,  // &
  kShiftPrec,   // << >>
  kAddPrec,     // + -
  kMulPrec,     // * / %
  kUnaryPrec,
};

/// The one operator table: precedence of `t` as a binary operator.
int BinaryPrecedence(const Token& t) {
  switch (t.symbol) {
    case Symbol::kEq:
    case Symbol::kNe:
    case Symbol::kLe:
    case Symbol::kGe:
    case Symbol::kLt:
    case Symbol::kGt:
      return kComparePrec;
    case Symbol::kPipe:
    case Symbol::kConcat:
      return kBitOrPrec;
    case Symbol::kCaret:
      return kBitXorPrec;
    case Symbol::kAmp:
      return kBitAndPrec;
    case Symbol::kShl:
    case Symbol::kShr:
      return kShiftPrec;
    case Symbol::kPlus:
    case Symbol::kMinus:
      return kAddPrec;
    case Symbol::kStar:
    case Symbol::kSlash:
    case Symbol::kPercent:
      return kMulPrec;
    default:
      break;
  }
  switch (t.keyword) {
    case Keyword::kOr:
      return kOrPrec;
    case Keyword::kAnd:
      return kAndPrec;
    case Keyword::kIs:
      return kComparePrec;
    default:
      return kNoOperator;
  }
}

class Parser {
 public:
  explicit Parser(const TokenList& tokens) : tokens_(tokens) {}

  Result<Statement> ParseSingle() {
    QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    ConsumeSymbol(Symbol::kSemicolon);
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
      out.push_back(std::move(stmt));
      if (!ConsumeSymbol(Symbol::kSemicolon)) break;
    }
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return out;
  }

 private:
  /// One level of nesting for as long as it lives (see kMaxNestingDepth).
  class Nest {
   public:
    explicit Nest(int* depth) : depth_(depth) { ++*depth_; }
    ~Nest() { --*depth_; }
    bool too_deep() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
  };

  // ---- token helpers ----
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool ConsumeKeyword(Keyword kw) {
    if (Peek().Is(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(Symbol s) {
    if (Peek().Is(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(Keyword kw, const char* spelling) {
    if (!ConsumeKeyword(kw)) {
      return Error(std::string("expected keyword ") + spelling);
    }
    return Status::OK();
  }
  Status ExpectSymbol(Symbol s, const char* spelling) {
    if (!ConsumeSymbol(s)) {
      return Error(std::string("expected '") + spelling + "'");
    }
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    const Token& t = Peek();
    return Status::ParseError("parse error at offset " +
                              std::to_string(t.offset) + " near '" +
                              std::string(t.text) + "': " + what);
  }
  Status TooDeep() const {
    return Error("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                 " levels");
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error(std::string("expected ") + what);
    }
    return std::string(Advance().text);
  }

  /// An identifier that is not a keyword: an implicit (AS-less) alias.
  bool AtImplicitAlias() const {
    return Peek().type == TokenType::kIdentifier &&
           Peek().keyword == Keyword::kNone;
  }

  // ---- statements ----
  Result<Statement> ParseStatementInner() {
    Statement stmt;
    const Token& t = Peek();
    if (t.Is(Keyword::kExplain)) {
      Advance();
      stmt.kind = Statement::Kind::kExplain;
      QY_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      return stmt;
    }
    if (t.Is(Keyword::kSelect) || t.Is(Keyword::kWith)) {
      stmt.kind = Statement::Kind::kSelect;
      QY_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      return stmt;
    }
    if (t.Is(Keyword::kCreate)) {
      stmt.kind = Statement::Kind::kCreateTable;
      QY_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
      return stmt;
    }
    if (t.Is(Keyword::kInsert)) {
      stmt.kind = Statement::Kind::kInsert;
      QY_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
      return stmt;
    }
    if (t.Is(Keyword::kDrop)) {
      stmt.kind = Statement::Kind::kDropTable;
      QY_ASSIGN_OR_RETURN(stmt.drop_table, ParseDrop());
      return stmt;
    }
    return Error("expected SELECT, WITH, CREATE, INSERT, DROP or EXPLAIN");
  }

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    Advance();  // CREATE
    auto stmt = std::make_unique<CreateTableStmt>();
    if (ConsumeKeyword(Keyword::kOr)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kReplace, "REPLACE"));
      stmt->or_replace = true;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable, "TABLE"));
    if (ConsumeKeyword(Keyword::kIf)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNot, "NOT"));
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists, "EXISTS"));
      stmt->if_not_exists = true;
    }
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kAs)) {
      QY_ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
      return stmt;
    }
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen, "("));
    while (true) {
      QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      QY_ASSIGN_OR_RETURN(std::string type_name,
                          ExpectIdentifier("column type"));
      QY_ASSIGN_OR_RETURN(DataType type, ParseDataType(type_name));
      stmt->columns.push_back({std::move(col), type});
      if (ConsumeSymbol(Symbol::kComma)) continue;
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
      break;
    }
    return stmt;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    Advance();  // INSERT
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kInto, "INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (ConsumeSymbol(Symbol::kLParen)) {
      while (true) {
        QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->column_names.push_back(std::move(col));
        if (ConsumeSymbol(Symbol::kComma)) continue;
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
        break;
      }
    }
    if (Peek().Is(Keyword::kSelect) || Peek().Is(Keyword::kWith)) {
      QY_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
      return stmt;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kValues, "VALUES"));
    while (true) {
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen, "("));
      std::vector<ExprPtr> row;
      while (true) {
        QY_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (ConsumeSymbol(Symbol::kComma)) continue;
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
        break;
      }
      stmt->values_rows.push_back(std::move(row));
      if (!ConsumeSymbol(Symbol::kComma)) break;
    }
    return stmt;
  }

  Result<std::unique_ptr<DropTableStmt>> ParseDrop() {
    Advance();  // DROP
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kTable, "TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (ConsumeKeyword(Keyword::kIf)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kExists, "EXISTS"));
      stmt->if_exists = true;
    }
    QY_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    return stmt;
  }

  // ---- SELECT ----
  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    Nest nest(&depth_);
    if (nest.too_deep()) return TooDeep();
    auto select = std::make_unique<SelectStmt>();
    if (ConsumeKeyword(Keyword::kWith)) {
      while (true) {
        CommonTableExpr cte;
        QY_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier("CTE name"));
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kAs, "AS"));
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen, "("));
        QY_ASSIGN_OR_RETURN(cte.select, ParseSelect());
        QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
        select->ctes.push_back(std::move(cte));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kSelect, "SELECT"));
    select->distinct = ConsumeKeyword(Keyword::kDistinct);
    while (true) {
      SelectItem item;
      QY_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ConsumeKeyword(Keyword::kAs)) {
        QY_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (AtImplicitAlias()) {
        item.alias = std::string(Advance().text);
      }
      select->items.push_back(std::move(item));
      if (!ConsumeSymbol(Symbol::kComma)) break;
    }
    if (ConsumeKeyword(Keyword::kFrom)) {
      QY_ASSIGN_OR_RETURN(select->from, ParseTableRef());
    }
    if (ConsumeKeyword(Keyword::kWhere)) {
      QY_ASSIGN_OR_RETURN(select->where, ParseExpr());
    }
    if (ConsumeKeyword(Keyword::kGroup)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy, "BY"));
      while (true) {
        QY_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        select->group_by.push_back(std::move(g));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    if (ConsumeKeyword(Keyword::kHaving)) {
      QY_ASSIGN_OR_RETURN(select->having, ParseExpr());
    }
    if (ConsumeKeyword(Keyword::kOrder)) {
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kBy, "BY"));
      while (true) {
        OrderItem item;
        QY_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword(Keyword::kDesc)) {
          item.ascending = false;
        } else {
          ConsumeKeyword(Keyword::kAsc);
        }
        select->order_by.push_back(std::move(item));
        if (!ConsumeSymbol(Symbol::kComma)) break;
      }
    }
    if (ConsumeKeyword(Keyword::kLimit)) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Error("expected integer after LIMIT");
      }
      select->limit = std::strtoll(std::string(Advance().text).c_str(),
                                   nullptr, 10);
    }
    return select;
  }

  Result<std::unique_ptr<TableRef>> ParseTableRef() {
    QY_ASSIGN_OR_RETURN(auto left, ParseTablePrimary());
    // Joins nest left-deep; each one is a level (see kMaxNestingDepth).
    int joins = 0;
    while (true) {
      bool has_condition = true;
      if (Peek().Is(Keyword::kJoin)) {
        Advance();
      } else if (Peek().Is(Keyword::kInner) && Peek(1).Is(Keyword::kJoin)) {
        pos_ += 2;
      } else if (Peek().Is(Keyword::kCross) && Peek(1).Is(Keyword::kJoin)) {
        pos_ += 2;
        has_condition = false;
      } else if (Peek().Is(Symbol::kComma)) {
        // Comma join = cross join (condition usually in WHERE).
        Advance();
        has_condition = false;
      } else {
        break;
      }
      if (depth_ + ++joins > kMaxNestingDepth) return TooDeep();
      QY_ASSIGN_OR_RETURN(auto right, ParseTablePrimary());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->left = std::move(left);
      join->right = std::move(right);
      if (has_condition) {
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kOn, "ON"));
        QY_ASSIGN_OR_RETURN(join->join_condition, ParseExpr());
      }
      left = std::move(join);
    }
    return left;
  }

  Result<std::unique_ptr<TableRef>> ParseTablePrimary() {
    auto tr = std::make_unique<TableRef>();
    if (ConsumeSymbol(Symbol::kLParen)) {
      tr->kind = TableRef::Kind::kSubquery;
      QY_ASSIGN_OR_RETURN(tr->subquery, ParseSelect());
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
      ConsumeKeyword(Keyword::kAs);
      QY_ASSIGN_OR_RETURN(tr->alias, ExpectIdentifier("subquery alias"));
      return tr;
    }
    tr->kind = TableRef::Kind::kBase;
    QY_ASSIGN_OR_RETURN(tr->table_name, ExpectIdentifier("table name"));
    if (ConsumeKeyword(Keyword::kAs)) {
      QY_ASSIGN_OR_RETURN(tr->alias, ExpectIdentifier("table alias"));
    } else if (AtImplicitAlias()) {
      tr->alias = std::string(Advance().text);
    } else {
      tr->alias = tr->table_name;
    }
    return tr;
  }

  // ---- expressions ----
  // Every expression parser leaves the height of the tree it returns in
  // height_; depth_ counts the nested operands being parsed on the stack
  // (each ParseBinary and each prefix operator). Both are capped at
  // kMaxNestingDepth, which bounds the recursion to a few frames a level.
  Result<ExprPtr> ParseExpr() { return ParseBinary(kOrPrec); }

  /// Precedence climbing: parses operators binding at least as tight as
  /// `min_prec`, left-associatively.
  Result<ExprPtr> ParseBinary(int min_prec) {
    Nest nest(&depth_);
    if (nest.too_deep()) return TooDeep();
    ExprPtr lhs;
    int lhs_prec = kUnaryPrec;  // loosest operator at the top of lhs
    if (min_prec <= kNotPrec && Peek().Is(Keyword::kNot)) {
      Advance();
      QY_ASSIGN_OR_RETURN(ExprPtr operand, ParseBinary(kNotPrec));
      lhs = MakeUnary("NOT", std::move(operand));
      lhs_prec = kNotPrec;
      if (++height_ > kMaxNestingDepth) return TooDeep();
    } else {
      QY_ASSIGN_OR_RETURN(lhs, ParseUnary());
    }
    while (true) {
      const Token& op = Peek();
      int prec = BinaryPrecedence(op);
      if (prec < min_prec) break;
      // A comparison needs an operand above comparison level, so a second
      // one (`a = b = c`, `a = b IS NULL`) ends the expression.
      if (prec == kComparePrec ? lhs_prec <= prec : lhs_prec < prec) break;
      int lhs_height = height_;
      Advance();
      if (op.Is(Keyword::kIs)) {
        bool negated = ConsumeKeyword(Keyword::kNot);
        QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kNull, "NULL"));
        ExprPtr test = MakeFunction("ISNULL", {});
        test->children.push_back(std::move(lhs));
        lhs = negated ? MakeUnary("NOT", std::move(test)) : std::move(test);
        height_ = lhs_height + (negated ? 2 : 1);
      } else {
        QY_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBinary(prec + 1));
        lhs = MakeBinary(op.type == TokenType::kSymbol
                             ? std::string(op.text)
                             : std::string(prec == kOrPrec ? "OR" : "AND"),
                         std::move(lhs), std::move(rhs));
        height_ = std::max(lhs_height, height_) + 1;
      }
      if (height_ > kMaxNestingDepth) return TooDeep();
      lhs_prec = prec;
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    const Token& t = Peek();
    if (t.Is(Symbol::kPlus) || t.Is(Symbol::kMinus) || t.Is(Symbol::kTilde)) {
      Nest nest(&depth_);
      if (nest.too_deep()) return TooDeep();
      Advance();
      if (t.Is(Symbol::kPlus)) return ParseUnary();
      QY_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      if (++height_ > kMaxNestingDepth) return TooDeep();
      return MakeUnary(t.Is(Symbol::kMinus) ? "-" : "~", std::move(operand));
    }
    QY_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
    if (height_ > kMaxNestingDepth) return TooDeep();
    return e;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    height_ = 1;
    switch (t.type) {
      case TokenType::kIntLiteral: {
        Advance();
        if (t.text.size() <= 18) {  // always fits int64
          int64_t v = 0;
          for (char c : t.text) v = v * 10 + (c - '0');
          return MakeLiteral(Value::BigInt(v));
        }
        QY_ASSIGN_OR_RETURN(int128_t v, ParseInt128(std::string(t.text)));
        if (v >= INT64_MIN && v <= INT64_MAX) {
          return MakeLiteral(Value::BigInt(static_cast<int64_t>(v)));
        }
        return MakeLiteral(Value::HugeInt(v));
      }
      case TokenType::kFloatLiteral:
        Advance();
        return MakeLiteral(
            Value::Double(std::strtod(std::string(t.text).c_str(), nullptr)));
      case TokenType::kStringLiteral:
        Advance();
        return MakeLiteral(Value::Varchar(std::string(t.text)));
      case TokenType::kSymbol:
        if (t.Is(Symbol::kLParen)) {
          Advance();
          QY_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
          return inner;
        }
        if (t.Is(Symbol::kStar)) {
          Advance();
          auto star = std::make_unique<Expr>();
          star->kind = ExprKind::kStar;
          return star;
        }
        return Error("unexpected symbol in expression");
      case TokenType::kIdentifier:
        return ParseIdentifierExpr();
      case TokenType::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token in expression");
  }

  Result<ExprPtr> ParseIdentifierExpr() {
    const Token& t = Peek();
    switch (t.keyword) {
      case Keyword::kNone:
        break;
      case Keyword::kNull:
        Advance();
        return MakeLiteral(Value::Null(DataType::kBigInt));
      case Keyword::kTrue:
        Advance();
        return MakeLiteral(Value::Bool(true));
      case Keyword::kFalse:
        Advance();
        return MakeLiteral(Value::Bool(false));
      case Keyword::kCase:
        return ParseCase();
      case Keyword::kCast:
        return ParseCast();
      default:
        return Error("reserved word in expression: " + std::string(t.text));
    }
    std::string first(Advance().text);
    // Function call.
    if (ConsumeSymbol(Symbol::kLParen)) {
      std::vector<ExprPtr> args;
      int height = 0;
      if (!Peek().Is(Symbol::kRParen)) {
        // COUNT(DISTINCT x) is parsed but DISTINCT is rejected at bind.
        ConsumeKeyword(Keyword::kDistinct);
        while (true) {
          QY_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          height = std::max(height, height_);
          args.push_back(std::move(arg));
          if (!ConsumeSymbol(Symbol::kComma)) break;
        }
      }
      QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
      height_ = height + 1;
      return MakeFunction(std::move(first), std::move(args));
    }
    // Qualified reference: table.column or table.*
    if (ConsumeSymbol(Symbol::kDot)) {
      if (ConsumeSymbol(Symbol::kStar)) {
        auto star = std::make_unique<Expr>();
        star->kind = ExprKind::kStar;
        star->table = std::move(first);
        return star;
      }
      QY_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      return MakeColumnRef(std::move(first), std::move(col));
    }
    return MakeColumnRef("", std::move(first));
  }

  Result<ExprPtr> ParseCase() {
    Advance();  // CASE
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    int height = 0;
    while (ConsumeKeyword(Keyword::kWhen)) {
      QY_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      height = std::max(height, height_);
      QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kThen, "THEN"));
      QY_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      height = std::max(height, height_);
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (e->children.empty()) return Error("CASE requires at least one WHEN");
    if (ConsumeKeyword(Keyword::kElse)) {
      QY_ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
      height = std::max(height, height_);
      e->children.push_back(std::move(els));
      e->case_has_else = true;
    }
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kEnd, "END"));
    height_ = height + 1;
    return e;
  }

  Result<ExprPtr> ParseCast() {
    Advance();  // CAST
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kLParen, "("));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCast;
    QY_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
    int height = height_;
    e->children.push_back(std::move(inner));
    QY_RETURN_IF_ERROR(ExpectKeyword(Keyword::kAs, "AS"));
    QY_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier("type name"));
    QY_ASSIGN_OR_RETURN(e->cast_type, ParseDataType(type_name));
    QY_RETURN_IF_ERROR(ExpectSymbol(Symbol::kRParen, ")"));
    height_ = height + 1;
    return e;
  }

  const TokenList& tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  return Parser(tokens).ParseSingle();
}

Result<std::vector<Statement>> ParseScript(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(sql));
  return Parser(tokens).ParseAll();
}

}  // namespace qy::sql
