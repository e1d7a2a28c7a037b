// Runtime interpretation of planned expressions.
//
// Eval() implements SQL three-valued logic: comparisons and arithmetic are
// NULL-strict, AND/OR follow Kleene logic, and predicates are satisfied only
// by TRUE (never by NULL). Expressions must be planned (column refs carry
// slots); aggregate and subquery nodes are evaluated by operators, never here.
#ifndef DECORR_EXPR_EVAL_H_
#define DECORR_EXPR_EVAL_H_

#include "decorr/common/value.h"
#include "decorr/expr/expr.h"

namespace decorr {

// Row + correlation parameters visible to an expression.
struct EvalContext {
  const Row* row = nullptr;
  const Row* params = nullptr;
};

// Evaluates a planned scalar expression. Type errors are impossible after
// binding; numeric edge cases (division by zero) yield NULL.
Value Eval(const Expr& expr, const EvalContext& ctx);

// Evaluates a predicate: true iff Eval() returns TRUE (NULL/UNKNOWN and
// FALSE both reject).
bool EvalPredicate(const Expr& expr, const EvalContext& ctx);

// SQL comparison of two values under `op` with 3VL: returns NULL Value if
// either side is NULL, else a BOOL Value.
Value CompareValues(BinaryOp op, const Value& lhs, const Value& rhs);

// SQL LIKE matching ('%' any run, '_' any single character). Shared by the
// row evaluator and the in-place storage filter so both agree
// character-for-character.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace decorr

#endif  // DECORR_EXPR_EVAL_H_
