// Unit tests: IR core — expressions, CFG utilities, dominators,
// post-dominators, dominance frontiers, natural loops, verifier, lowering
// shape invariants.
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/dominators.h"
#include "ir/loops.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace parcoach::ir {
namespace {

// Builds a CFG from an edge list: blocks 0..n-1, entry 0, exit = n-1.
// Terminators are synthesized (CondBr for 2 successors, Br for 1).
Function make_cfg(int32_t n, const std::vector<std::pair<BlockId, BlockId>>& edges) {
  Function fn;
  fn.name = "cfg";
  for (int32_t i = 0; i < n; ++i) (void)fn.add_block();
  fn.entry = 0;
  fn.exit = n - 1;
  for (const auto& [a, b] : edges) fn.add_edge(a, b);
  for (auto& bb : fn.blocks()) {
    if (bb.succs.size() == 2) {
      Instruction in;
      in.op = Opcode::CondBr;
      in.expr = Expr::var_ref("c");
      bb.instrs.push_back(std::move(in));
    } else if (bb.succs.size() == 1) {
      Instruction in;
      in.op = Opcode::Br;
      bb.instrs.push_back(std::move(in));
    }
  }
  fn.recompute_preds();
  return fn;
}

// Reference dominator computation: a dominates b iff removing a disconnects
// b from the entry (path enumeration via DFS that avoids `a`).
bool dominates_ref(const Function& fn, BlockId a, BlockId b) {
  if (a == b) return true;
  if (b == fn.entry) return false;
  std::vector<uint8_t> seen(static_cast<size_t>(fn.num_blocks()), 0);
  std::vector<BlockId> work{fn.entry};
  if (fn.entry == a) return true;
  seen[static_cast<size_t>(fn.entry)] = 1;
  while (!work.empty()) {
    const BlockId cur = work.back();
    work.pop_back();
    if (cur == b) return false; // reached b without touching a
    for (BlockId s : fn.block(cur).succs) {
      if (s == a) continue;
      if (!seen[static_cast<size_t>(s)]) {
        seen[static_cast<size_t>(s)] = 1;
        work.push_back(s);
      }
    }
  }
  return true;
}

TEST(Expr, CloneIsDeepAndEqual) {
  ExprPtr e = Expr::binary(
      BinaryOp::Add,
      Expr::unary(UnaryOp::Neg, Expr::var_ref("x")),
      Expr::binary(BinaryOp::Mul, Expr::int_lit(3), Expr::builtin_call(Builtin::Rank)));
  ExprPtr c = e->clone();
  EXPECT_TRUE(equal(*e, *c));
  c->kids[1]->kids[0]->int_val = 4;
  EXPECT_FALSE(equal(*e, *c));
  EXPECT_EQ(to_string(*e), "(-(x) + (3 * rank()))");
}

TEST(Expr, AnyOfFindsNestedNodes) {
  ExprPtr e = Expr::binary(BinaryOp::Lt, Expr::var_ref("i"),
                           Expr::builtin_call(Builtin::Size));
  EXPECT_TRUE(e->any_of([](const Expr& n) {
    return n.kind == Expr::Kind::BuiltinCall && n.builtin == Builtin::Size;
  }));
  EXPECT_FALSE(e->any_of([](const Expr& n) {
    return n.kind == Expr::Kind::BuiltinCall && n.builtin == Builtin::Rank;
  }));
}

TEST(Dominators, DiamondCfg) {
  //   0 -> 1, 2 ; 1 -> 3 ; 2 -> 3
  const Function fn = make_cfg(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const DomTree dom(fn, DomTree::Direction::Forward);
  EXPECT_EQ(dom.idom(1), 0);
  EXPECT_EQ(dom.idom(2), 0);
  EXPECT_EQ(dom.idom(3), 0);
  EXPECT_TRUE(dom.dominates(0, 3));
  EXPECT_FALSE(dom.dominates(1, 3));
  const DomTree pdom(fn, DomTree::Direction::Backward);
  EXPECT_EQ(pdom.idom(1), 3);
  EXPECT_EQ(pdom.idom(2), 3);
  EXPECT_EQ(pdom.idom(0), 3);
}

TEST(Dominators, MatchesReferenceOnHandCfgs) {
  const std::vector<std::vector<std::pair<BlockId, BlockId>>> cases = {
      {{0, 1}, {1, 2}, {2, 3}},                                  // chain
      {{0, 1}, {0, 2}, {1, 3}, {2, 3}},                          // diamond
      {{0, 1}, {1, 2}, {2, 1}, {2, 3}},                          // loop
      {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}, {3, 4}},          // cross edge
      {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {1, 4}},          // loop + exit
  };
  for (const auto& edges : cases) {
    int32_t n = 0;
    for (auto& [a, b] : edges) n = std::max({n, a + 1, b + 1});
    const Function fn = make_cfg(n, edges);
    const DomTree dom(fn, DomTree::Direction::Forward);
    for (BlockId a = 0; a < n; ++a) {
      for (BlockId b = 0; b < n; ++b) {
        if (dominates_ref(fn, 0, b)) { // only reachable b
          EXPECT_EQ(dom.dominates(a, b), dominates_ref(fn, a, b))
              << "a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(Dominators, PostDominanceFrontierFindsConditional) {
  // 0 -> 1 (then) -> 3 ; 0 -> 2 (else) -> 3 ; PDF of {1} = {0}.
  const Function fn = make_cfg(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const DomTree pdom(fn, DomTree::Direction::Backward);
  const auto pdf = pdom.iterated_frontier({1});
  EXPECT_EQ(pdf, (std::vector<BlockId>{0}));
}

TEST(Dominators, IteratedFrontierClosesOverNesting) {
  // Nested conditionals: 0 -> {1,6}; 1 -> {2,3}; 2->4; 3->4; 4->7; 6->7.
  // Seed {2}: PDF(2) = {1}; PDF(1) = {0}; PDF+ = {0, 1}.
  Function fn2 = make_cfg(8, {{0, 1}, {0, 6}, {1, 2}, {1, 3}, {2, 4}, {3, 4},
                              {4, 7}, {6, 7}});
  const DomTree pdom(fn2, DomTree::Direction::Backward);
  const auto pdf = pdom.iterated_frontier({2});
  EXPECT_EQ(pdf, (std::vector<BlockId>{0, 1}));
}

TEST(Loops, NaturalLoopDetection) {
  // 0 -> 1 ; 1 -> 2 ; 2 -> 1 (back edge) ; 1 -> 3.
  const Function fn = make_cfg(4, {{0, 1}, {1, 2}, {2, 1}, {1, 3}});
  const DomTree dom(fn, DomTree::Direction::Forward);
  const auto loops = find_natural_loops(fn, dom);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1);
  EXPECT_EQ(loops[0].latch, 2);
  EXPECT_EQ(loops[0].body, (std::vector<BlockId>{1, 2}));
  EXPECT_TRUE(loops[0].contains(2));
  EXPECT_FALSE(loops[0].contains(3));
}

TEST(Loops, NestedLoops) {
  // outer: 1..4, inner: 2..3.
  const Function fn =
      make_cfg(6, {{0, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 1}, {4, 5}});
  const DomTree dom(fn, DomTree::Direction::Forward);
  const auto loops = find_natural_loops(fn, dom);
  ASSERT_EQ(loops.size(), 2u);
  size_t inner = loops[0].body.size() < loops[1].body.size() ? 0 : 1;
  EXPECT_EQ(loops[inner].body, (std::vector<BlockId>{2, 3}));
  EXPECT_EQ(loops[1 - inner].body, (std::vector<BlockId>{1, 2, 3, 4}));
}

// ---- Lowering shape invariants ------------------------------------------------

std::unique_ptr<Module> lower(const std::string& src) {
  SourceManager sm;
  DiagnosticEngine d;
  auto prog = frontend::Parser::parse_source(sm, "t", src, d);
  EXPECT_FALSE(d.has_errors()) << d.to_text(sm);
  frontend::Sema::analyze(prog, d);
  EXPECT_FALSE(d.has_errors()) << d.to_text(sm);
  auto mod = frontend::Lowering::lower(prog, d);
  DiagnosticEngine vd;
  EXPECT_TRUE(verify(*mod, vd)) << vd.to_text(sm);
  return mod;
}

TEST(Lowering, OmpBoundariesAloneInBlocks) {
  auto mod = lower(R"(func main() {
    var x = 0;
    omp parallel num_threads(2) {
      omp single {
        x = 1;
      }
      omp barrier;
    }
  })");
  const Function& fn = *mod->find("main");
  for (const auto& bb : fn.blocks()) {
    for (const auto& in : bb.instrs) {
      if (in.is_omp_boundary() || in.op == Opcode::ExplicitBarrier) {
        size_t non_term = 0;
        for (const auto& j : bb.instrs) non_term += !j.is_terminator();
        EXPECT_EQ(non_term, 1u) << "boundary must be alone in bb" << bb.id;
      }
    }
  }
}

TEST(Lowering, SingleHasImplicitBarrierUnlessNowait) {
  auto mod = lower(R"(func a() { omp parallel { omp single { var x = 1; } } }
func b() { omp parallel { omp single nowait { var x = 1; } } })");
  auto count_implicit = [&](const char* name) {
    size_t n = 0;
    for (const auto& bb : mod->find(name)->blocks())
      for (const auto& in : bb.instrs) n += in.op == Opcode::ImplicitBarrier;
    return n;
  };
  EXPECT_EQ(count_implicit("a"), 1u);
  EXPECT_EQ(count_implicit("b"), 0u);
}

TEST(Lowering, ReturnsTargetExitBlock) {
  auto mod = lower(R"(func f(x) {
    if (x) {
      return 1;
    }
    return 2;
  })");
  const Function& fn = *mod->find("f");
  size_t returns = 0;
  for (const auto& bb : fn.blocks()) {
    if (const Instruction* t = bb.terminator(); t && t->op == Opcode::Return) {
      ++returns;
      EXPECT_EQ(bb.succs[0], fn.exit);
    }
  }
  // The unreachable continuation after `return 2;` gets a synthesized
  // return too, so >= 2; all of them must target the exit block.
  EXPECT_GE(returns, 2u);
  EXPECT_TRUE(fn.block(fn.exit).succs.empty());
}

TEST(Lowering, FallthroughGetsSynthesizedReturn) {
  auto mod = lower("func f() { var x = 1; }");
  const Function& fn = *mod->find("f");
  bool has_return = false;
  for (const auto& bb : fn.blocks())
    if (const Instruction* t = bb.terminator())
      has_return |= t->op == Opcode::Return;
  EXPECT_TRUE(has_return);
}

TEST(Lowering, WhileLoopHasBackEdge) {
  auto mod = lower("func f() { var i = 0; while (i < 5) { i = i + 1; } }");
  const Function& fn = *mod->find("f");
  const DomTree dom(fn, DomTree::Direction::Forward);
  const auto loops = find_natural_loops(fn, dom);
  EXPECT_EQ(loops.size(), 1u);
}

TEST(Lowering, RequestedThreadLevelRecorded) {
  auto mod = lower("func main() { mpi_init(multiple); }");
  ASSERT_TRUE(mod->requested_thread_level.has_value());
  EXPECT_EQ(*mod->requested_thread_level, ThreadLevel::Multiple);
}

TEST(Verifier, CatchesBrokenCfgs) {
  Function fn;
  fn.name = "broken";
  const BlockId b0 = fn.add_block();
  const BlockId b1 = fn.add_block();
  fn.entry = b0;
  fn.exit = b1;
  // Block 0 has a successor but no terminator.
  fn.add_edge(b0, b1);
  fn.recompute_preds();
  DiagnosticEngine d;
  EXPECT_FALSE(verify(fn, d));
  EXPECT_GE(d.count(DiagKind::IrVerifyError), 1u);
}

TEST(Verifier, CatchesMismatchedRegionEnds) {
  Function fn;
  fn.name = "regions";
  const BlockId b0 = fn.add_block();
  const BlockId b1 = fn.add_block();
  const BlockId b2 = fn.add_block();
  fn.entry = b0;
  fn.exit = b2;
  Instruction begin;
  begin.op = Opcode::OmpBegin;
  begin.omp = OmpKind::Parallel;
  begin.region_id = 0;
  fn.block(b0).instrs.push_back(std::move(begin));
  Instruction br;
  br.op = Opcode::Br;
  fn.block(b0).instrs.push_back(std::move(br));
  fn.add_edge(b0, b1);
  Instruction end;
  end.op = Opcode::OmpEnd;
  end.omp = OmpKind::Single; // mismatched kind
  end.region_id = 0;
  fn.block(b1).instrs.push_back(std::move(end));
  Instruction ret;
  ret.op = Opcode::Return;
  fn.block(b1).instrs.push_back(std::move(ret));
  fn.add_edge(b1, b2);
  fn.recompute_preds();
  DiagnosticEngine d;
  EXPECT_FALSE(verify(fn, d));
}

TEST(Printer, EmitsParsableSummary) {
  auto mod = lower(R"(func main() {
    mpi_init(serialized);
    var x = mpi_allreduce(rank(), sum);
    print(x);
  })");
  const std::string text = to_text(*mod);
  EXPECT_TRUE(str::contains(text, "func main()"));
  EXPECT_TRUE(str::contains(text, "MPI_Allreduce"));
  EXPECT_TRUE(str::contains(text, "op=sum"));
  EXPECT_TRUE(str::contains(text, "mpi_init serialized"));
}

TEST(Printer, IntegersSpellAsAStreamWould) {
  for (int64_t v : {int64_t{0}, int64_t{7}, int64_t{-7},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    std::ostringstream os;
    os << v;
    EXPECT_EQ(to_string(*Expr::int_lit(v)), os.str());
  }
}

TEST(Printer, AppendExprAppendsToTheCallersBuffer) {
  const ExprPtr e = Expr::binary(
      BinaryOp::Le, Expr::unary(UnaryOp::Neg, Expr::var_ref("n")),
      Expr::binary(BinaryOp::Mod, Expr::builtin_call(Builtin::OmpThreadNum),
                   Expr::int_lit(-3)));
  std::string out = "x = ";
  append_expr(out, *e);
  EXPECT_EQ(out, "x = (-(n) <= (omp_thread_num() % -3))");
  EXPECT_EQ(to_string(*e), out.substr(4));
}

} // namespace
} // namespace parcoach::ir
