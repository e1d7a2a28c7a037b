#include "decorr/parser/ast.h"

#include <initializer_list>
#include <string_view>

#include "decorr/common/string_util.h"

namespace decorr {

namespace {

// The parts joined left to right. GCC 12 at -O3 reports an expression like
// `"(" + s.ToString()`, which inserts at the front of the temporary, as an
// overlapping copy (-Wrestrict); appending does not.
std::string Cat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out += part;
  return out;
}

}  // namespace

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kLiteral:
      return literal.ToString();
    case AstExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case AstExprKind::kBinary:
      return Cat({"(", children[0]->ToString(), " ", BinaryOpName(op), " ",
                  children[1]->ToString(), ")"});
    case AstExprKind::kAnd:
      return Cat({"(", children[0]->ToString(), " AND ",
                  children[1]->ToString(), ")"});
    case AstExprKind::kOr:
      return Cat({"(", children[0]->ToString(), " OR ",
                  children[1]->ToString(), ")"});
    case AstExprKind::kNot:
      return Cat({"NOT ", children[0]->ToString()});
    case AstExprKind::kNegate:
      return Cat({"-", children[0]->ToString()});
    case AstExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case AstExprKind::kBetween:
      return children[0]->ToString() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case AstExprKind::kInList: {
      std::string out = children[0]->ToString();
      out += negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case AstExprKind::kLike:
      return children[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             children[1]->ToString();
    case AstExprKind::kCase: {
      std::string out = "CASE";
      const size_t pairs = children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children[2 * i]->ToString() + " THEN " +
               children[2 * i + 1]->ToString();
      }
      if (children.size() % 2 == 1) {
        out += " ELSE " + children.back()->ToString();
      }
      return out + " END";
    }
    case AstExprKind::kInSubquery:
      return children[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             subquery->ToString() + ")";
    case AstExprKind::kExists:
      return std::string(negated ? "NOT EXISTS (" : "EXISTS (") +
             subquery->ToString() + ")";
    case AstExprKind::kQuantifiedCmp:
      return children[0]->ToString() + " " + BinaryOpName(op) +
             (quant == Quantification::kAny ? " ANY (" : " ALL (") +
             subquery->ToString() + ")";
    case AstExprKind::kScalarSubquery:
      return Cat({"(", subquery->ToString(), ")"});
    case AstExprKind::kFuncCall: {
      std::string out = func_name + "(";
      if (func_star) {
        out += "*";
      } else {
        if (func_distinct) out += "DISTINCT ";
        for (size_t i = 0; i < children.size(); ++i) {
          if (i > 0) out += ", ";
          out += children[i]->ToString();
        }
      }
      return out + ")";
    }
  }
  return "?";
}

std::string AstSelect::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (items[i].star) {
      out += items[i].star_table.empty() ? "*" : items[i].star_table + ".*";
    } else {
      out += items[i].expr->ToString();
      if (!items[i].alias.empty()) out += " AS " + items[i].alias;
    }
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    const AstTableRef& ref = from[i];
    if (ref.derived) {
      out += Cat({"(", ref.derived->ToString(), ")"});
    } else {
      out += ref.table_name;
    }
    if (!ref.alias.empty()) out += " " + ref.alias;
    if (!ref.column_aliases.empty()) {
      out += Cat({"(", Join(ref.column_aliases, ", "), ")"});
    }
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  return out;
}

std::string AstQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < branches.size(); ++i) {
    if (i > 0) {
      out += union_all[i - 1] ? " UNION ALL " : " UNION ";
    }
    out += branches[i]->ToString();
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit >= 0) out += StrFormat(" LIMIT %lld", (long long)limit);
  return out;
}

}  // namespace decorr
