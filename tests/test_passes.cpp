// Unit tests: middle-end optimization passes.
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "passes/pass_manager.h"
#include "support/str.h"

#include <gtest/gtest.h>

namespace parcoach::passes {
namespace {

std::unique_ptr<ir::Module> lower(const std::string& src) {
  static SourceManager sm;
  DiagnosticEngine d;
  auto prog = frontend::Parser::parse_source(sm, "t", src, d);
  frontend::Sema::analyze(prog, d);
  EXPECT_FALSE(d.has_errors()) << d.to_text(sm);
  return frontend::Lowering::lower(prog, d);
}

std::string first_fn_text(ir::Module& m) { return ir::to_text(*m.functions()[0]); }

TEST(ConstFold, FoldsArithmeticAndComparisons) {
  auto m = lower("func f() { var x = 2 + 3 * 4; var y = (x < 99) && (7 == 7); }");
  EXPECT_TRUE(fold_constants(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "x = 14"));
}

TEST(ConstFold, ShortCircuitNeutralElements) {
  auto m = lower(R"(func f(a) {
    var t = 1 && (a < 3);
    var u = 0 || (a > 1);
    var v = 0 && (a < 3);
    var w = a + 0;
    var z = a * 1;
    var q = a * 0;
  })");
  EXPECT_TRUE(fold_constants(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "t = (a < 3)"));
  EXPECT_TRUE(str::contains(text, "u = (a > 1)"));
  EXPECT_TRUE(str::contains(text, "v = 0"));
  EXPECT_TRUE(str::contains(text, "w = a"));
  EXPECT_TRUE(str::contains(text, "z = a"));
  EXPECT_TRUE(str::contains(text, "q = 0"));
}

TEST(ConstFold, DivisionByZeroLeftUnfolded) {
  auto m = lower("func f() { var x = 1 / 0; var y = 5 % 0; }");
  fold_constants(*m->functions()[0]);
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "(1 / 0)"));
  EXPECT_TRUE(str::contains(text, "(5 % 0)"));
}

TEST(ConstFold, OverflowingQuotientLeftUnfoldedAndArithmeticWraps) {
  // INT64_MIN / -1 has no int64 value: the folder must leave it to the
  // interpreter (a rank error) instead of trapping the process. The
  // remainder by -1 is 0, and + - * unary - wrap like the engines.
  auto m = lower(R"(func f() {
    var x = (0 - 9223372036854775807 - 1) / (0 - 1);
    var y = (0 - 9223372036854775807 - 1) % (0 - 1);
    var z = 9223372036854775807 + 1;
    var w = (0 - 9223372036854775807 - 1) - 1;
    var p = 4611686018427387904 * 2;
    var n = -(0 - 9223372036854775807 - 1);
  })");
  EXPECT_TRUE(fold_constants(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "x = (-9223372036854775808 / -1)")) << text;
  EXPECT_TRUE(str::contains(text, "y = 0")) << text;
  EXPECT_TRUE(str::contains(text, "z = -9223372036854775808")) << text;
  EXPECT_TRUE(str::contains(text, "w = 9223372036854775807")) << text;
  EXPECT_TRUE(str::contains(text, "p = -9223372036854775808")) << text;
  EXPECT_TRUE(str::contains(text, "n = -9223372036854775808")) << text;
}

TEST(ConstFold, UnaryFolds) {
  auto m = lower("func f() { var x = -(3); var y = !(0); }");
  EXPECT_TRUE(fold_constants(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "x = -3"));
  EXPECT_TRUE(str::contains(text, "y = 1"));
}

TEST(SimplifyCfg, ConstantBranchBecomesUnconditional) {
  auto m = lower("func f() { if (1) { var a = 1; } else { var b = 2; } }");
  ir::Function& fn = *m->functions()[0];
  EXPECT_TRUE(simplify_cfg(fn));
  for (const auto& bb : fn.blocks()) {
    if (const auto* t = bb.terminator()) {
      EXPECT_NE(t->op, ir::Opcode::CondBr) << "constant branch should fold";
    }
  }
  DiagnosticEngine d;
  EXPECT_TRUE(ir::verify(fn, d));
}

TEST(SimplifyCfg, RemovesUnreachableElseBranch) {
  auto m = lower("func f() { if (0) { var a = 1; } else { var b = 2; } }");
  ir::Function& fn = *m->functions()[0];
  const int32_t before = fn.num_blocks();
  simplify_cfg(fn);
  EXPECT_LT(fn.num_blocks(), before);
  // The surviving assignment is the else branch.
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "b = 2"));
  EXPECT_FALSE(str::contains(text, "a = 1"));
}

TEST(SimplifyCfg, KeepsOmpBoundaryBlocks) {
  auto m = lower("func f() { omp parallel { omp single { var x = 1; } } }");
  ir::Function& fn = *m->functions()[0];
  simplify_cfg(fn);
  size_t begins = 0, ends = 0, barriers = 0;
  for (const auto& bb : fn.blocks()) {
    for (const auto& in : bb.instrs) {
      begins += in.op == ir::Opcode::OmpBegin;
      ends += in.op == ir::Opcode::OmpEnd;
      barriers += in.op == ir::Opcode::ImplicitBarrier;
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(barriers, 1u);
  DiagnosticEngine d;
  EXPECT_TRUE(ir::verify(fn, d));
}

TEST(Dce, RemovesDeadAssignments) {
  auto m = lower("func f() { var dead = 42; var live = 1; print(live); }");
  ir::Function& fn = *m->functions()[0];
  EXPECT_TRUE(eliminate_dead_code(fn));
  const std::string text = first_fn_text(*m);
  EXPECT_FALSE(str::contains(text, "dead = 42"));
  EXPECT_TRUE(str::contains(text, "live = 1"));
}

TEST(Dce, KeepsCollectivesAndCallsWithDeadResults) {
  auto m = lower(R"(func g() { return 1; }
func f() {
  var a = mpi_allreduce(1, sum);
  var b = g();
})");
  ir::Function& fn = *m->find("f");
  eliminate_dead_code(fn);
  const std::string text = ir::to_text(fn);
  EXPECT_TRUE(str::contains(text, "MPI_Allreduce"));
  EXPECT_TRUE(str::contains(text, "g("));
}

TEST(Dce, PreservesInstructionsWhenNothingIsDead) {
  auto m = lower("func f() { var a = 3; print(a); }");
  ir::Function& fn = *m->functions()[0];
  EXPECT_FALSE(eliminate_dead_code(fn));
  // Regression (move-out bug): expressions must survive a no-op DCE run.
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "a = 3"));
}

std::vector<const ir::Instruction*> block_buffers(const ir::Function& fn) {
  std::vector<const ir::Instruction*> bufs;
  for (const auto& bb : fn.blocks()) bufs.push_back(bb.instrs.data());
  return bufs;
}

TEST(Dce, NothingDeadLeavesEveryBlockInPlace) {
  auto m = lower(R"(func f(n) {
    var a = 3;
    if (n > a) {
      a = a + n;
    }
    print(a);
  })");
  ir::Function& fn = *m->functions()[0];
  const auto before = block_buffers(fn);
  const std::string text = ir::to_text(fn);
  EXPECT_FALSE(eliminate_dead_code(fn));
  EXPECT_EQ(block_buffers(fn), before);
  EXPECT_EQ(ir::to_text(fn), text);
}

TEST(Dce, RemovesExactlyTheDeadAssignmentInOrder) {
  auto m = lower(R"(func f() {
    var a = 1;
    var dead = 2;
    var b = a + 3;
    print(a, b);
  })");
  ir::Function& fn = *m->functions()[0];
  auto listing = [&fn](bool skip_dead) {
    std::vector<std::string> out;
    for (const auto& bb : fn.blocks())
      for (const auto& in : bb.instrs)
        if (!skip_dead || in.var != "dead")
          out.push_back(in.var + ":" + std::string(ir::to_string(in.op)));
    return out;
  };
  const auto expected = listing(/*skip_dead=*/true);
  const auto before = block_buffers(fn);
  EXPECT_TRUE(eliminate_dead_code(fn));
  EXPECT_EQ(listing(/*skip_dead=*/false), expected);
  // Erased in place: even the block that lost an instruction keeps its buffer.
  EXPECT_EQ(block_buffers(fn), before);
  EXPECT_TRUE(str::contains(first_fn_text(*m), "b = (a + 3)"));
}

TEST(PassManager, PipelineTimingsRecorded) {
  auto m = lower("func f() { var x = 1 + 2; if (0) { var d = x; } print(x); }");
  auto pm = PassManager::standard_pipeline();
  EXPECT_TRUE(pm.run(*m));
  ASSERT_EQ(pm.timings().size(), 10u);
  bool any_changed = false;
  for (const auto& t : pm.timings()) any_changed |= t.changed;
  EXPECT_TRUE(any_changed);
}

TEST(PassManager, IdempotentOnSecondFullRun) {
  auto m = lower("func f() { var x = 1 + 2; if (x == 3) { print(x); } }");
  auto pm = PassManager::standard_pipeline();
  pm.run(*m);
  const std::string once = first_fn_text(*m);
  auto pm2 = PassManager::standard_pipeline();
  pm2.run(*m);
  EXPECT_EQ(first_fn_text(*m), once);
}

} // namespace
} // namespace parcoach::passes

namespace parcoach::passes {
namespace {

TEST(CopyProp, RewritesUsesWithinBlock) {
  auto m = lower("func f(a) { var x = a; var y = x + 1; print(y, x); }");
  EXPECT_TRUE(propagate_copies(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "y = (a + 1)"));
  EXPECT_TRUE(str::contains(text, "print y, a"));
}

TEST(CopyProp, RedefinitionInvalidates) {
  auto m = lower("func f(a, b) { var x = a; x = b; var y = x; print(y); }");
  propagate_copies(*m->functions()[0]);
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "y = b"));
}

TEST(CopyProp, SourceRedefinitionInvalidates) {
  auto m = lower("func f(a) { var x = a; a = a + 1; var y = x; print(y, a); }");
  propagate_copies(*m->functions()[0]);
  const std::string text = first_fn_text(*m);
  // x's copy of a died when a was redefined: y must still read x.
  EXPECT_TRUE(str::contains(text, "y = x"));
}

TEST(LocalCse, ReusesIdenticalExpressions) {
  auto m = lower("func f(a, b) { var x = a * b + 1; var y = a * b + 1; print(x, y); }");
  EXPECT_TRUE(local_cse(*m->functions()[0]));
  const std::string text = first_fn_text(*m);
  EXPECT_TRUE(str::contains(text, "y = x"));
}

TEST(LocalCse, InputRedefinitionInvalidates) {
  auto m = lower(
      "func f(a, b) { var x = a * b; a = a + 1; var y = a * b; print(x, y); }");
  EXPECT_FALSE(local_cse(*m->functions()[0]));
}

TEST(LocalCse, SemanticsPreservedThroughPipeline) {
  // End-to-end check: optimized code computes the same value.
  auto m = lower(R"(func f(a, b) {
    var x = a * b + a;
    var c = a;
    var y = c * b + a;
    var z = x + y;
    return z;
  })");
  auto pm = PassManager::standard_pipeline();
  pm.run(*m);
  DiagnosticEngine d;
  EXPECT_TRUE(ir::verify(*m->functions()[0], d));
}

} // namespace
} // namespace parcoach::passes
