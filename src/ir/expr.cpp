#include "ir/expr.h"

#include "support/str.h"

namespace parcoach::ir {

std::string_view to_string(BinaryOp op) noexcept {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::And: return "&&";
    case BinaryOp::Or: return "||";
  }
  return "?";
}

std::string_view to_string(UnaryOp op) noexcept {
  switch (op) {
    case UnaryOp::Neg: return "-";
    case UnaryOp::Not: return "!";
  }
  return "?";
}

std::string_view to_string(Builtin b) noexcept {
  switch (b) {
    case Builtin::Rank: return "rank";
    case Builtin::Size: return "size";
    case Builtin::OmpThreadNum: return "omp_thread_num";
    case Builtin::OmpNumThreads: return "omp_num_threads";
  }
  return "?";
}

ExprPtr Expr::int_lit(int64_t v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::IntLit;
  e->int_val = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::var_ref(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::VarRef;
  e->var = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr Expr::unary(UnaryOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Unary;
  e->un_op = op;
  e->loc = loc;
  e->kids.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Binary;
  e->bin_op = op;
  e->loc = loc;
  e->kids.push_back(std::move(lhs));
  e->kids.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::builtin_call(Builtin b, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::BuiltinCall;
  e->builtin = b;
  e->loc = loc;
  return e;
}

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  e->int_val = int_val;
  e->var = var;
  e->un_op = un_op;
  e->bin_op = bin_op;
  e->builtin = builtin;
  e->kids.reserve(kids.size());
  for (const auto& k : kids) e->kids.push_back(k->clone());
  return e;
}

bool equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Expr::Kind::IntLit:
      if (a.int_val != b.int_val) return false;
      break;
    case Expr::Kind::VarRef:
      if (a.var != b.var) return false;
      break;
    case Expr::Kind::Unary:
      if (a.un_op != b.un_op) return false;
      break;
    case Expr::Kind::Binary:
      if (a.bin_op != b.bin_op) return false;
      break;
    case Expr::Kind::BuiltinCall:
      if (a.builtin != b.builtin) return false;
      break;
  }
  if (a.kids.size() != b.kids.size()) return false;
  for (size_t i = 0; i < a.kids.size(); ++i)
    if (!equal(*a.kids[i], *b.kids[i])) return false;
  return true;
}

void append_expr(std::string& out, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      str::append_int(out, e.int_val);
      break;
    case Expr::Kind::VarRef:
      out += e.var;
      break;
    case Expr::Kind::Unary:
      out += to_string(e.un_op);
      out += '(';
      append_expr(out, *e.kids[0]);
      out += ')';
      break;
    case Expr::Kind::Binary:
      out += '(';
      append_expr(out, *e.kids[0]);
      out += ' ';
      out += to_string(e.bin_op);
      out += ' ';
      append_expr(out, *e.kids[1]);
      out += ')';
      break;
    case Expr::Kind::BuiltinCall:
      out += to_string(e.builtin);
      out += "()";
      break;
  }
}

std::string to_string(const Expr& e) {
  std::string out;
  append_expr(out, e);
  return out;
}

} // namespace parcoach::ir
