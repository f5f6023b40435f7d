// Lowered expression trees.
//
// Side-effect free by construction: user function calls and MPI operations
// are *instructions*, never expression nodes, so analyses can enumerate all
// call/communication sites by scanning instructions. The only calls allowed
// inside expressions are the pure builtins (rank(), size(), thread id/count).
#pragma once

#include "support/source_location.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace parcoach::ir {

enum class BinaryOp : uint8_t {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

enum class UnaryOp : uint8_t { Neg, Not };

/// Pure builtin functions usable inside expressions.
enum class Builtin : uint8_t {
  Rank,          // MPI rank of the calling process
  Size,          // number of MPI processes
  OmpThreadNum,  // current thread id within the innermost team
  OmpNumThreads, // size of the innermost team
};

[[nodiscard]] std::string_view to_string(BinaryOp op) noexcept;
[[nodiscard]] std::string_view to_string(UnaryOp op) noexcept;
[[nodiscard]] std::string_view to_string(Builtin b) noexcept;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind : uint8_t { IntLit, VarRef, Unary, Binary, BuiltinCall };

  Kind kind = Kind::IntLit;
  SourceLoc loc;

  int64_t int_val = 0;      // IntLit
  std::string var;          // VarRef
  UnaryOp un_op{};          // Unary
  BinaryOp bin_op{};        // Binary
  Builtin builtin{};        // BuiltinCall
  std::vector<ExprPtr> kids;

  // -- Factories ------------------------------------------------------------
  static ExprPtr int_lit(int64_t v, SourceLoc loc = {});
  static ExprPtr var_ref(std::string name, SourceLoc loc = {});
  static ExprPtr unary(UnaryOp op, ExprPtr operand, SourceLoc loc = {});
  static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc = {});
  static ExprPtr builtin_call(Builtin b, SourceLoc loc = {});

  [[nodiscard]] ExprPtr clone() const;

  /// Visits this node and all descendants (pre-order).
  template <typename Fn>
  void walk(Fn&& fn) const {
    fn(*this);
    for (const auto& k : kids) k->walk(fn);
  }

  /// True if any node satisfies the predicate.
  template <typename Pred>
  [[nodiscard]] bool any_of(Pred&& pred) const {
    if (pred(*this)) return true;
    for (const auto& k : kids)
      if (k->any_of(pred)) return true;
    return false;
  }
};

/// Structural equality (ignores source locations).
[[nodiscard]] bool equal(const Expr& a, const Expr& b);

/// Appends the expression's DSL-compatible text to `out`.
void append_expr(std::string& out, const Expr& e);

/// Renders the expression as DSL-compatible text.
[[nodiscard]] std::string to_string(const Expr& e);

} // namespace parcoach::ir
