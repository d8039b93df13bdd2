#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/parser.h"
#include "sql/tokenizer.h"

namespace qy::sql {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT s, r FROM t0 WHERE s >= 12");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. End
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_TRUE((*tokens)[8].IsSymbol(">="));
  EXPECT_EQ((*tokens)[9].type, TokenType::kIntLiteral);
}

TEST(TokenizerTest, BitwiseAndShiftOperators) {
  auto tokens = Tokenize("a & ~b | c << 2 >> 1 ^ 3");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string_view> symbols;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol) symbols.push_back(t.text);
  }
  EXPECT_EQ(symbols,
            (std::vector<std::string_view>{"&", "~", "|", "<<", ">>", "^"}));
}

TEST(TokenizerTest, FloatForms) {
  auto tokens = Tokenize("1.5 .25 2e10 3.25E-4 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[3].type, TokenType::kFloatLiteral);
  EXPECT_EQ((*tokens)[4].type, TokenType::kIntLiteral);
}

TEST(TokenizerTest, StringsAndEscapes) {
  auto tokens = Tokenize("'it''s' 'plain'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's");
  EXPECT_EQ((*tokens)[1].text, "plain");
}

TEST(TokenizerTest, Comments) {
  auto tokens = Tokenize("SELECT 1 -- trailing\n+ /* block */ 2");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[2].text, "+");
}

TEST(TokenizerTest, NotEqualsNormalizes) {
  auto tokens = Tokenize("a != b <> c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<>");
}

TEST(TokenizerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("/* open").ok());
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize("1e+").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

Result<Statement> Parse(const std::string& sql) { return ParseStatement(sql); }

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT s, r, i FROM T0 ORDER BY s");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt->select->items.size(), 3u);
  EXPECT_EQ(stmt->select->order_by.size(), 1u);
}

TEST(ParserTest, PaperFig2Query) {
  // The exact query shape from Fig. 2c of the paper must parse.
  auto stmt = Parse(R"(
    WITH T1 AS (
      SELECT ((T0.s & ~1) | H.out_s) AS s,
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i
      FROM T0 JOIN H ON H.in_s = (T0.s & 1)
      GROUP BY ((T0.s & ~1) | H.out_s))
    SELECT s, r, i FROM T1 ORDER BY s)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->ctes.size(), 1u);
  const SelectStmt& cte = *stmt->select->ctes[0].select;
  EXPECT_EQ(cte.items.size(), 3u);
  EXPECT_EQ(cte.group_by.size(), 1u);
  ASSERT_NE(cte.from, nullptr);
  EXPECT_EQ(cte.from->kind, TableRef::Kind::kJoin);
}

TEST(ParserTest, ExpressionPrecedence) {
  // * binds tighter than +, + tighter than <<, << tighter than &, & than |.
  auto stmt = Parse("SELECT 1 | 2 & 3 << 1 + 2 * 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->ToString(),
            "(1 | (2 & (3 << (1 + (2 * 3)))))");
}

TEST(ParserTest, ComparisonAndLogic) {
  auto stmt = Parse("SELECT * FROM t WHERE a = 1 AND NOT b > 2 OR c <> 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(),
            "(((a = 1) AND (NOT (b > 2))) OR (c <> 3))");
}

TEST(ParserTest, UnaryOperators) {
  auto stmt = Parse("SELECT -x, ~y, NOT z FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->ToString(), "(-x)");
  EXPECT_EQ(stmt->select->items[1].expr->ToString(), "(~y)");
  EXPECT_EQ(stmt->select->items[2].expr->ToString(), "(NOT z)");
}

TEST(ParserTest, FunctionsAndCase) {
  auto stmt = Parse(
      "SELECT SUM(r), ABS(-1), CASE WHEN a > 0 THEN 1 ELSE 2 END, "
      "CAST(x AS DOUBLE) FROM t GROUP BY 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->items[0].expr->ToString(), "SUM(r)");
  EXPECT_EQ(stmt->select->items[2].expr->ToString(),
            "CASE WHEN (a > 0) THEN 1 ELSE 2 END");
  EXPECT_EQ(stmt->select->items[3].expr->ToString(), "CAST(x AS DOUBLE)");
}

TEST(ParserTest, JoinForms) {
  for (const char* sql : {
           "SELECT * FROM a JOIN b ON a.x = b.y",
           "SELECT * FROM a INNER JOIN b ON a.x = b.y",
           "SELECT * FROM a CROSS JOIN b",
           "SELECT * FROM a, b",
           "SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w",
       }) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
    EXPECT_EQ(stmt->select->from->kind, TableRef::Kind::kJoin) << sql;
  }
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt = Parse("SELECT q.s FROM (SELECT s FROM t) AS q");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(stmt->select->from->alias, "q");
}

TEST(ParserTest, TableAliases) {
  auto stmt = Parse("SELECT x.s FROM t AS x");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from->alias, "x");
  auto bare = Parse("SELECT x.s FROM t x");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->select->from->alias, "x");
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE t (s BIGINT, r DOUBLE, name VARCHAR)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt->create_table->columns.size(), 3u);
  EXPECT_EQ(stmt->create_table->columns[1].type, DataType::kDouble);
}

TEST(ParserTest, CreateTableVariants) {
  EXPECT_TRUE(Parse("CREATE TABLE IF NOT EXISTS t (a INT)").ok());
  EXPECT_TRUE(Parse("CREATE OR REPLACE TABLE t (a INT)").ok());
  auto ctas = Parse("CREATE TABLE t AS SELECT 1 AS x");
  ASSERT_TRUE(ctas.ok());
  EXPECT_NE(ctas->create_table->as_select, nullptr);
}

TEST(ParserTest, InsertForms) {
  auto vals = Parse("INSERT INTO t VALUES (1, 2.0, 'a'), (2, 3.0, 'b')");
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ(vals->insert->values_rows.size(), 2u);
  auto cols = Parse("INSERT INTO t (a, b) VALUES (1, 2)");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->insert->column_names.size(), 2u);
  auto sel = Parse("INSERT INTO t SELECT * FROM u");
  ASSERT_TRUE(sel.ok());
  EXPECT_NE(sel->insert->select, nullptr);
}

TEST(ParserTest, DropTable) {
  auto stmt = Parse("DROP TABLE IF EXISTS t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->drop_table->if_exists);
}

TEST(ParserTest, HugeIntLiteral) {
  auto stmt = Parse("SELECT 170141183460469231731687303715884105727");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->literal.type(), DataType::kHugeInt);
}

TEST(ParserTest, HavingAndLimit) {
  auto stmt = Parse(
      "SELECT s, SUM(r) FROM t GROUP BY s HAVING SUM(r) > 0.5 LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE(stmt->select->having, nullptr);
  EXPECT_EQ(stmt->select->limit.value(), 10);
}

TEST(ParserTest, IsNull) {
  auto stmt = Parse("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(),
            "(ISNULL(a) AND (NOT ISNULL(b)))");
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto stmts = ParseScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(stmts.ok());
  EXPECT_EQ(stmts->size(), 3u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT * FROM").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t GROUP").ok());
  EXPECT_FALSE(Parse("SELECT a b c FROM t").ok());
  EXPECT_FALSE(Parse("CREATE TABLE t (a NOTATYPE)").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES 1, 2").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t LIMIT abc").ok());
  EXPECT_FALSE(Parse("SELECT CASE END").ok());
  EXPECT_FALSE(Parse("UPDATE t SET a = 1").ok());
}

TEST(ParserTest, DistinctAndStar) {
  auto stmt = Parse("SELECT DISTINCT t.* FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select->distinct);
  EXPECT_EQ(stmt->select->items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(stmt->select->items[0].expr->table, "t");
}

TEST(ParserTest, ExplainWraps) {
  auto stmt = Parse("EXPLAIN SELECT 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kExplain);
}

// ---------------------------------------------------------------------------
// Input bounds: nesting depth and token count
// ---------------------------------------------------------------------------

/// `count` copies of `piece`.
std::string Repeat(const std::string& piece, int count) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out += piece;
  return out;
}

void ExpectNestingError(const std::string& sql) {
  auto stmt = Parse(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_NE(stmt.status().message().find("parse error at offset"),
            std::string::npos)
      << stmt.status().ToString();
  EXPECT_NE(stmt.status().message().find("nesting deeper than"),
            std::string::npos)
      << stmt.status().ToString();
}

TEST(ParserLimitsTest, DeepParenthesesAreATypedError) {
  ExpectNestingError("SELECT " + std::string(30000, '(') + "1" +
                     std::string(30000, ')'));
}

TEST(ParserLimitsTest, ChainedPrefixOperatorsAreATypedError) {
  ExpectNestingError("SELECT " + Repeat("- ", 100000) + "1");
  ExpectNestingError("SELECT " + Repeat("NOT ", 100000) + "TRUE");
  ExpectNestingError("SELECT " + Repeat("~", 100000) + "1");
  ExpectNestingError("SELECT " + Repeat("+", 100000) + "1");
}

TEST(ParserLimitsTest, LongOperatorChainsAreATypedError) {
  // A flat chain nests left-deep: every operator is one level of the tree.
  ExpectNestingError("SELECT 1" + Repeat(" + 1", 100000));
  ExpectNestingError("SELECT a FROM t WHERE a = 1" +
                     Repeat(" AND a = 1", 5000));
  ExpectNestingError("SELECT ABS(" + Repeat("ABS(", 5000) + "1" +
                     std::string(5001, ')'));
}

TEST(ParserLimitsTest, DeepSubqueriesAndJoinChainsAreATypedError) {
  ExpectNestingError(Repeat("SELECT * FROM (", 5000) + "SELECT 1" +
                     Repeat(") q", 5000));
  ExpectNestingError("SELECT * FROM t" + Repeat(", t", 5000));
  ExpectNestingError("SELECT * FROM t" + Repeat(" JOIN t ON 1 = 1", 5000));
}

TEST(ParserLimitsTest, NestingWellWithinTheLimitRuns) {
  // Parsed, bound, executed and torn down: the recursive passes after the
  // parser must cope with everything the parser accepts.
  Database db;
  const int depth = kMaxNestingDepth - 100;
  auto parens = db.Execute("SELECT " + std::string(depth, '(') + "7" +
                           std::string(depth, ')') + " AS v");
  ASSERT_TRUE(parens.ok()) << parens.status().ToString();
  EXPECT_EQ(parens->GetInt64(0, 0), 7);
  auto chain = db.Execute("SELECT 0" + Repeat(" + 1", depth) + " AS v");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain->GetInt64(0, 0), depth);
  auto negations = db.Execute("SELECT " + Repeat("- ", depth) + "1 AS v");
  ASSERT_TRUE(negations.ok()) << negations.status().ToString();
  EXPECT_EQ(negations->GetInt64(0, 0), depth % 2 == 0 ? 1 : -1);
  // Every precedence level at every nesting level, the deepest recursion
  // per level the parser has: each level nests 10 operands.
  const std::string level = "1 OR 1 AND 1 = 1 | 1 ^ 1 & 1 << 1 + 1 * (";
  const int levels = kMaxNestingDepth / 20;
  auto climb = Parse("SELECT " + Repeat(level, levels) + "1" +
                     std::string(levels, ')'));
  ASSERT_TRUE(climb.ok()) << climb.status().ToString();
  ExpectNestingError("SELECT " + Repeat(level, kMaxNestingDepth) + "1" +
                     std::string(kMaxNestingDepth, ')'));
  // Nested SELECTs and join chains run at that depth too.
  auto subqueries = db.Execute(Repeat("SELECT * FROM (", depth) +
                               "SELECT 7 AS v" + Repeat(") q", depth));
  ASSERT_TRUE(subqueries.ok()) << subqueries.status().ToString();
  EXPECT_EQ(subqueries->GetInt64(0, 0), 7);
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE one (a BIGINT);"
                               "INSERT INTO one VALUES (1)")
                  .ok());
  auto joins = db.Execute("SELECT COUNT(*) FROM one" +
                          Repeat(" JOIN one AS o ON 1 = 1", depth));
  ASSERT_TRUE(joins.ok()) << joins.status().ToString();
  EXPECT_EQ(joins->GetInt64(0, 0), 1);
  // Just past the limit is refused, however it is nested.
  ExpectNestingError("SELECT " + std::string(kMaxNestingDepth, '(') + "1" +
                     std::string(kMaxNestingDepth, ')'));
  ExpectNestingError("SELECT 0" + Repeat(" + 1", kMaxNestingDepth));
}

TEST(ParserLimitsTest, TokenCountIsBounded) {
  std::string sql = "SELECT 1" + Repeat(",1", static_cast<int>(kMaxTokens));
  auto tokens = Tokenize(sql);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_NE(tokens.status().message().find("lex error at offset"),
            std::string::npos);
  auto stmt = Parse(sql);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_EQ(stmt.status().message(), tokens.status().message());
  EXPECT_FALSE(ParseScript(sql).ok());
}

TEST(TokenizerTest, TokensOutliveTheSourceString) {
  // The list keeps its own copy of the text: a temporary source is fine.
  auto tokens = Tokenize(std::string("SELECT 'it''s', \"q\" FROM t0"));
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "it's");
  EXPECT_EQ((*tokens)[3].text, "q");
  EXPECT_EQ((*tokens)[5].text, "t0");
  TokenList moved = std::move(tokens).value();
  EXPECT_EQ(moved[1].text, "it's");
  EXPECT_EQ(moved[0].keyword, Keyword::kSelect);
  EXPECT_EQ(moved[2].symbol, Symbol::kComma);
}

}  // namespace
}  // namespace qy::sql
