#include "decorr/expr/eval.h"

#include <cmath>

#include "decorr/common/logging.h"
#include "decorr/common/string_util.h"

namespace decorr {

Value CompareValues(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (op == BinaryOp::kNullEq) {  // null-safe: never returns NULL
    if (lhs.is_null() || rhs.is_null()) {
      return Value::Bool(lhs.is_null() && rhs.is_null());
    }
    return Value::Bool(lhs.Compare(rhs) == 0);
  }
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  const int cmp = lhs.Compare(rhs);
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(cmp == 0);
    case BinaryOp::kNe:
      return Value::Bool(cmp != 0);
    case BinaryOp::kLt:
      return Value::Bool(cmp < 0);
    case BinaryOp::kLe:
      return Value::Bool(cmp <= 0);
    case BinaryOp::kGt:
      return Value::Bool(cmp > 0);
    case BinaryOp::kGe:
      return Value::Bool(cmp >= 0);
    default:
      DECORR_CHECK_MSG(false, "not a comparison operator");
      return Value::Null();
  }
}

namespace {

// SQL arithmetic with 3VL (NULL-strict; x/0 -> NULL).
Value ArithmeticValues(BinaryOp op, TypeId result_type, const Value& lhs,
                       const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (result_type == TypeId::kInt64) {
    const int64_t a = lhs.int64_value();
    const int64_t b = rhs.int64_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int64(a + b);
      case BinaryOp::kSub:
        return Value::Int64(a - b);
      case BinaryOp::kMul:
        return Value::Int64(a * b);
      case BinaryOp::kDiv:
        // Unreachable: InferTypes gives division type DOUBLE.
        return b == 0 ? Value::Null()
                      : Value::Double(static_cast<double>(a) /
                                      static_cast<double>(b));
      default:
        break;
    }
  } else {
    const double a = lhs.AsDouble();
    const double b = rhs.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Double(a + b);
      case BinaryOp::kSub:
        return Value::Double(a - b);
      case BinaryOp::kMul:
        return Value::Double(a * b);
      case BinaryOp::kDiv:
        return b == 0.0 ? Value::Null() : Value::Double(a / b);
      default:
        break;
    }
  }
  DECORR_CHECK_MSG(false, "not an arithmetic operator");
  return Value::Null();
}

}  // namespace

// SQL LIKE: '%' matches any run (including empty), '_' any single
// character; everything else is literal. Iterative matcher with the classic
// last-star backtrack.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value Eval(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kConstant:
      return expr.value;
    case ExprKind::kColumnRef:
      DECORR_CHECK_MSG(expr.slot >= 0, "unplanned column reference evaluated");
      return (*ctx.row)[expr.slot];
    case ExprKind::kParamRef:
      DECORR_CHECK_MSG(ctx.params != nullptr, "parameter context missing");
      return (*ctx.params)[expr.param];
    case ExprKind::kComparison:
      return CompareValues(expr.op, Eval(*expr.children[0], ctx),
                           Eval(*expr.children[1], ctx));
    case ExprKind::kAnd: {
      // Kleene AND with short-circuit on FALSE.
      const Value lhs = Eval(*expr.children[0], ctx);
      if (!lhs.is_null() && !lhs.bool_value()) return Value::Bool(false);
      const Value rhs = Eval(*expr.children[1], ctx);
      if (!rhs.is_null() && !rhs.bool_value()) return Value::Bool(false);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    case ExprKind::kOr: {
      const Value lhs = Eval(*expr.children[0], ctx);
      if (!lhs.is_null() && lhs.bool_value()) return Value::Bool(true);
      const Value rhs = Eval(*expr.children[1], ctx);
      if (!rhs.is_null() && rhs.bool_value()) return Value::Bool(true);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    case ExprKind::kNot: {
      const Value v = Eval(*expr.children[0], ctx);
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.bool_value());
    }
    case ExprKind::kArithmetic:
      return ArithmeticValues(expr.op, expr.type, Eval(*expr.children[0], ctx),
                              Eval(*expr.children[1], ctx));
    case ExprKind::kNegate: {
      const Value v = Eval(*expr.children[0], ctx);
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kInt64) return Value::Int64(-v.int64_value());
      return Value::Double(-v.AsDouble());
    }
    case ExprKind::kIsNull: {
      const bool is_null = Eval(*expr.children[0], ctx).is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case ExprKind::kInList: {
      const Value lhs = Eval(*expr.children[0], ctx);
      if (lhs.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        const Value item = Eval(*expr.children[i], ctx);
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (lhs.Compare(item) == 0) {
          return Value::Bool(!expr.negated);
        }
      }
      if (saw_null) return Value::Null();  // x IN (..., NULL) is UNKNOWN
      return Value::Bool(expr.negated);
    }
    case ExprKind::kLike: {
      const Value lhs = Eval(*expr.children[0], ctx);
      const Value pattern = Eval(*expr.children[1], ctx);
      if (lhs.is_null() || pattern.is_null()) return Value::Null();
      const bool match =
          LikeMatch(lhs.string_value(), pattern.string_value());
      return Value::Bool(expr.negated ? !match : match);
    }
    case ExprKind::kCase: {
      // Branch results coerce to the CASE's common type (INT64 -> DOUBLE).
      auto coerce = [&expr](Value v) {
        if (expr.type == TypeId::kDouble && v.type() == TypeId::kInt64) {
          return Value::Double(v.AsDouble());
        }
        return v;
      };
      const size_t pairs = expr.children.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        const Value cond = Eval(*expr.children[2 * i], ctx);
        if (!cond.is_null() && cond.bool_value()) {
          return coerce(Eval(*expr.children[2 * i + 1], ctx));
        }
      }
      if (expr.children.size() % 2 == 1) {
        return coerce(Eval(*expr.children.back(), ctx));
      }
      return Value::Null();
    }
    case ExprKind::kFunction:
      switch (expr.func) {
        case FuncKind::kCoalesce: {
          for (const ExprPtr& child : expr.children) {
            Value v = Eval(*child, ctx);
            if (!v.is_null()) return v;
          }
          return Value::Null();
        }
        case FuncKind::kAbs: {
          const Value v = Eval(*expr.children[0], ctx);
          if (v.is_null()) return Value::Null();
          if (v.type() == TypeId::kInt64) {
            return Value::Int64(std::abs(v.int64_value()));
          }
          return Value::Double(std::fabs(v.AsDouble()));
        }
        case FuncKind::kUpper: {
          const Value v = Eval(*expr.children[0], ctx);
          if (v.is_null()) return Value::Null();
          return Value::String(ToUpper(v.string_value()));
        }
        case FuncKind::kLower: {
          const Value v = Eval(*expr.children[0], ctx);
          if (v.is_null()) return Value::Null();
          return Value::String(ToLower(v.string_value()));
        }
        case FuncKind::kLength: {
          const Value v = Eval(*expr.children[0], ctx);
          if (v.is_null()) return Value::Null();
          return Value::Int64(static_cast<int64_t>(v.string_value().size()));
        }
      }
      return Value::Null();
    case ExprKind::kAggregate:
    case ExprKind::kScalarSubquery:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
    case ExprKind::kQuantifiedComparison:
      DECORR_CHECK_MSG(false,
                       "aggregate/subquery node reached the evaluator; the "
                       "planner must eliminate these");
      return Value::Null();
  }
  return Value::Null();
}

bool EvalPredicate(const Expr& expr, const EvalContext& ctx) {
  const Value v = Eval(expr, ctx);
  return !v.is_null() && v.bool_value();
}

}  // namespace decorr
