// Constant folding over expression trees, including short-circuit
// simplification for && / || with a literal side.
#include "passes/pass_manager.h"

#include "ir/expr.h"
#include "support/wrap_int.h"

namespace parcoach::passes {

namespace {

using ir::BinaryOp;
using ir::Expr;
using ir::ExprPtr;
using ir::UnaryOp;

bool is_lit(const Expr& e) { return e.kind == Expr::Kind::IntLit; }

/// Applies `op` to constants with the interpreter's arithmetic
/// (support/wrap_int.h). Division/modulo by zero and INT64_MIN / -1 are left
/// unfolded: the interpreter reports them as runtime faults instead.
std::optional<int64_t> eval_bin(BinaryOp op, int64_t a, int64_t b) {
  switch (op) {
    case BinaryOp::Add: return wrap_add(a, b);
    case BinaryOp::Sub: return wrap_sub(a, b);
    case BinaryOp::Mul: return wrap_mul(a, b);
    case BinaryOp::Div: return checked_div(a, b);
    case BinaryOp::Mod: return checked_rem(a, b);
    case BinaryOp::Lt: return a < b ? 1 : 0;
    case BinaryOp::Le: return a <= b ? 1 : 0;
    case BinaryOp::Gt: return a > b ? 1 : 0;
    case BinaryOp::Ge: return a >= b ? 1 : 0;
    case BinaryOp::Eq: return a == b ? 1 : 0;
    case BinaryOp::Ne: return a != b ? 1 : 0;
    case BinaryOp::And: return (a != 0 && b != 0) ? 1 : 0;
    case BinaryOp::Or: return (a != 0 || b != 0) ? 1 : 0;
  }
  return std::nullopt;
}

bool fold_expr(ExprPtr& e) {
  if (!e) return false;
  bool changed = false;
  for (auto& k : e->kids) changed |= fold_expr(k);

  switch (e->kind) {
    case Expr::Kind::Unary: {
      if (is_lit(*e->kids[0])) {
        const int64_t v = e->kids[0]->int_val;
        const int64_t r = e->un_op == UnaryOp::Neg ? wrap_neg(v) : (v == 0 ? 1 : 0);
        e = Expr::int_lit(r, e->loc);
        return true;
      }
      break;
    }
    case Expr::Kind::Binary: {
      Expr& lhs = *e->kids[0];
      Expr& rhs = *e->kids[1];
      if (is_lit(lhs) && is_lit(rhs)) {
        if (auto r = eval_bin(e->bin_op, lhs.int_val, rhs.int_val)) {
          e = Expr::int_lit(*r, e->loc);
          return true;
        }
        break;
      }
      // Short-circuit with one literal side: `0 && x` -> 0, `1 && x` -> x
      // (sound: expressions are side-effect free by construction).
      if (e->bin_op == BinaryOp::And || e->bin_op == BinaryOp::Or) {
        const bool is_and = e->bin_op == BinaryOp::And;
        for (int side = 0; side < 2; ++side) {
          Expr& lit = *e->kids[static_cast<size_t>(side)];
          if (!is_lit(lit)) continue;
          const bool truthy = lit.int_val != 0;
          if (is_and && !truthy) {
            e = Expr::int_lit(0, e->loc);
            return true;
          }
          if (!is_and && truthy) {
            e = Expr::int_lit(1, e->loc);
            return true;
          }
          // Neutral element: keep the other side, normalized to 0/1 by
          // wrapping in `!!` only when it is already boolean-valued; to stay
          // conservative we keep the comparison-producing side as-is.
          ExprPtr other = std::move(e->kids[static_cast<size_t>(1 - side)]);
          e = std::move(other);
          return true;
        }
      }
      // x + 0, x - 0, x * 1, x * 0, x / 1.
      if (is_lit(rhs)) {
        const int64_t v = rhs.int_val;
        if ((e->bin_op == BinaryOp::Add || e->bin_op == BinaryOp::Sub) && v == 0) {
          ExprPtr lhs_own = std::move(e->kids[0]);
          e = std::move(lhs_own);
          return true;
        }
        if ((e->bin_op == BinaryOp::Mul || e->bin_op == BinaryOp::Div) && v == 1) {
          ExprPtr lhs_own = std::move(e->kids[0]);
          e = std::move(lhs_own);
          return true;
        }
        if (e->bin_op == BinaryOp::Mul && v == 0) {
          e = Expr::int_lit(0, e->loc);
          return true;
        }
      }
      break;
    }
    default:
      break;
  }
  return changed;
}

} // namespace

bool fold_constants(ir::Function& fn) {
  bool changed = false;
  for (auto& bb : fn.blocks()) {
    for (auto& in : bb.instrs) {
      changed |= fold_expr(in.expr);
      for (auto& a : in.args) changed |= fold_expr(a);
      changed |= fold_expr(in.root);
      changed |= fold_expr(in.num_threads);
      changed |= fold_expr(in.if_clause);
    }
  }
  return changed;
}

} // namespace parcoach::passes
