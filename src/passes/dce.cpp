// Dead-assignment elimination: removes `Assign` instructions whose variable
// is never read anywhere in the function. Variables are function-local by
// construction (MiniHPC has no globals or references), so "no read in this
// function" is sufficient. Calls and collectives are never removed (side
// effects), even if their result variable is dead.
#include "passes/pass_manager.h"

#include <unordered_set>

namespace parcoach::passes {

namespace {

using ir::Expr;
using ir::Instruction;
using ir::Opcode;

void collect_reads(const ir::ExprPtr& e, std::unordered_set<std::string>& reads) {
  if (!e) return;
  e->walk([&](const Expr& n) {
    if (n.kind == Expr::Kind::VarRef) reads.insert(n.var);
  });
}

} // namespace

bool eliminate_dead_code(ir::Function& fn) {
  std::unordered_set<std::string> reads;
  for (const auto& bb : fn.blocks()) {
    for (const auto& in : bb.instrs) {
      collect_reads(in.expr, reads);
      for (const auto& a : in.args) collect_reads(a, reads);
      collect_reads(in.root, reads);
      collect_reads(in.num_threads, reads);
      collect_reads(in.if_clause, reads);
    }
  }
  auto dead = [&](const Instruction& in) {
    return in.op == Opcode::Assign && !in.var.empty() && !reads.count(in.var);
  };
  bool changed = false;
  for (auto& bb : fn.blocks()) changed |= std::erase_if(bb.instrs, dead) > 0;
  return changed;
}

} // namespace parcoach::passes
