#include "sql/ast.h"

#include <functional>
#include <new>

#include "common/strings.h"

namespace qy::sql {

namespace {

/// Per-thread free list of Expr blocks. A statement builds and then frees
/// its whole tree, about a hundred 208-byte nodes for a gate query, while
/// glibc caches only 7 free chunks per size; without recycling, most nodes
/// take the allocator's coalescing slow path on both malloc and free.
/// Capped, so one huge statement hands its surplus back to malloc.
class ExprFreeList {
 public:
  void* Take() {
    Block* b = head_;
    if (b == nullptr) return nullptr;
    head_ = b->next;
    --size_;
    return b;
  }
  bool Give(void* p) {
    if (size_ >= kMaxBlocks) return false;
    head_ = new (p) Block{head_};
    ++size_;
    return true;
  }
  ~ExprFreeList();

 private:
  struct Block {
    Block* next;
  };
  static constexpr size_t kMaxBlocks = 1024;
  Block* head_ = nullptr;
  size_t size_ = 0;
};

// Set once the thread's list is destroyed: nodes freed later (by thread-exit
// or static destructors) go straight back to malloc.
thread_local bool tl_list_gone = false;
thread_local ExprFreeList tl_list;

ExprFreeList::~ExprFreeList() {
  while (void* p = Take()) ::operator delete(p);
  tl_list_gone = true;
}

// AddressSanitizer must see every free to catch use-after-free.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRecycle = false;
#else
constexpr bool kRecycle = true;
#endif

}  // namespace

void* Expr::operator new(size_t size) {
  if (kRecycle && size == sizeof(Expr) && !tl_list_gone) {
    if (void* p = tl_list.Take()) return p;
  }
  return ::operator new(size);
}

void Expr::operator delete(void* p, size_t size) {
  if (kRecycle && size == sizeof(Expr) && !tl_list_gone && tl_list.Give(p)) {
    return;
  }
  ::operator delete(p);
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeUnary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->op = std::move(op);
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->children.reserve(2);
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->op = std::move(name);
  e->children = std::move(args);
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kStar:
      return table.empty() ? "*" : table + ".*";
    case ExprKind::kUnary:
      if (EqualsIgnoreCase(op, "NOT")) {
        return "(NOT " + children[0]->ToString() + ")";
      }
      return "(" + op + children[0]->ToString() + ")";
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    case ExprKind::kFunction: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const auto& c : children) args.push_back(c->ToString());
      return AsciiToUpper(op) + "(" + StrJoin(args, ", ") + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t pairs = (children.size() - (case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (case_has_else) out += " ELSE " + children.back()->ToString();
      return out + " END";
    }
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " +
             DataTypeName(cast_type) + ")";
  }
  return "?";
}

namespace {

bool LiteralsEqual(const Value& a, const Value& b) {
  if (a.type() == b.type() && !a.is_null() && !b.is_null()) {
    switch (a.type()) {
      case DataType::kBool:
        return a.bool_value() == b.bool_value();
      case DataType::kBigInt:
        return a.bigint_value() == b.bigint_value();
      case DataType::kHugeInt:
        return a.hugeint_value() == b.hugeint_value();
      case DataType::kVarchar:
        return a.varchar_value() == b.varchar_value();
      default:
        break;
    }
  }
  return a.ToString() == b.ToString();
}

}  // namespace

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || children.size() != other.children.size()) {
    return false;
  }
  switch (kind) {
    case ExprKind::kLiteral:
      return LiteralsEqual(literal, other.literal);
    case ExprKind::kColumnRef:
      return column == other.column && table == other.table;
    case ExprKind::kStar:
      return table == other.table;
    case ExprKind::kUnary:
    case ExprKind::kBinary:
      if (op != other.op) return false;
      break;
    case ExprKind::kFunction:
      if (!EqualsIgnoreCase(op, other.op)) return false;
      break;
    case ExprKind::kCase:
      if (case_has_else != other.case_has_else) return false;
      break;
    case ExprKind::kCast:
      if (cast_type != other.cast_type) return false;
      break;
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->table = table;
  e->column = column;
  e->op = op;
  e->case_has_else = case_has_else;
  e->cast_type = cast_type;
  e->children.reserve(children.size());
  for (const auto& c : children) e->children.push_back(c->Clone());
  return e;
}

std::string SelectStmt::ToString() const {
  std::string out;
  if (!ctes.empty()) {
    std::vector<std::string> parts;
    for (const auto& cte : ctes) {
      parts.push_back(cte.name + " AS (" + cte.select->ToString() + ")");
    }
    out += "WITH " + StrJoin(parts, ", ") + " ";
  }
  out += "SELECT ";
  if (distinct) out += "DISTINCT ";
  std::vector<std::string> cols;
  for (const auto& item : items) {
    std::string s = item.expr->ToString();
    if (!item.alias.empty()) s += " AS " + item.alias;
    cols.push_back(std::move(s));
  }
  out += StrJoin(cols, ", ");
  if (from) {
    std::function<std::string(const TableRef&)> render =
        [&](const TableRef& tr) -> std::string {
      switch (tr.kind) {
        case TableRef::Kind::kBase:
          return tr.alias.empty() || EqualsIgnoreCase(tr.alias, tr.table_name)
                     ? tr.table_name
                     : tr.table_name + " AS " + tr.alias;
        case TableRef::Kind::kJoin: {
          std::string s = render(*tr.left) + " JOIN " + render(*tr.right);
          if (tr.join_condition) s += " ON " + tr.join_condition->ToString();
          return s;
        }
        case TableRef::Kind::kSubquery:
          return "(" + tr.subquery->ToString() + ") AS " + tr.alias;
      }
      return "?";
    };
    out += " FROM " + render(*from);
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    std::vector<std::string> keys;
    for (const auto& g : group_by) keys.push_back(g->ToString());
    out += " GROUP BY " + StrJoin(keys, ", ");
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    std::vector<std::string> keys;
    for (const auto& o : order_by) {
      keys.push_back(o.expr->ToString() + (o.ascending ? "" : " DESC"));
    }
    out += " ORDER BY " + StrJoin(keys, ", ");
  }
  if (limit.has_value()) out += " LIMIT " + std::to_string(*limit);
  return out;
}

}  // namespace qy::sql
