// Unit tests: the bytecode execution engine — slot resolution, compiled
// shapes, engine parity on targeted semantics (shared/private variables,
// redeclaration freshness, comm-handle caching), the batched step budget,
// and the sema-escape fault path shared with the AST engine.
#include "driver/pipeline.h"
#include "frontend/parser.h"
#include "frontend/slots.h"
#include "interp/bytecode.h"
#include "interp/executor.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace parcoach::interp {
namespace {

struct Ran {
  ExecResult result;
  SourceManager sm;
  DiagnosticEngine diags;
  driver::CompileResult compiled;
};

std::unique_ptr<Ran> run_src(const std::string& src, Engine engine,
                             int32_t ranks = 2, int32_t threads = 2,
                             bool instrument = false,
                             uint64_t max_steps = 50'000'000) {
  auto r = std::make_unique<Ran>();
  driver::PipelineOptions popts;
  popts.mode = instrument ? driver::Mode::WarningsAndCodegen
                          : driver::Mode::Baseline;
  popts.optimize = false;
  r->compiled = driver::compile(r->sm, "t", src, r->diags, popts);
  EXPECT_TRUE(r->compiled.ok) << r->diags.to_text(r->sm);
  Executor exec(r->compiled.program, r->sm,
                instrument ? &r->compiled.plan : nullptr);
  ExecOptions eopts;
  eopts.engine = engine;
  eopts.num_ranks = ranks;
  eopts.num_threads = threads;
  eopts.max_steps = max_steps;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(2000);
  r->result = exec.run(eopts);
  return r;
}

/// Runs under both engines and asserts identical outcome + output.
void expect_parity(const std::string& src, int32_t ranks = 2,
                   int32_t threads = 2, bool instrument = false) {
  const auto ast = run_src(src, Engine::Ast, ranks, threads, instrument);
  const auto bc = run_src(src, Engine::Bytecode, ranks, threads, instrument);
  EXPECT_EQ(ast->result.clean, bc->result.clean)
      << "ast: " << ast->result.mpi.abort_reason
      << " / bytecode: " << bc->result.mpi.abort_reason;
  EXPECT_EQ(ast->result.output, bc->result.output);
}

// ---- Slot resolution ----------------------------------------------------------

TEST(Slots, ShadowingResolvesInnermost) {
  SourceManager sm;
  DiagnosticEngine d;
  const auto p = frontend::Parser::parse_source(sm, "t", R"(func main() {
    var x = 1;
    if (x > 0) {
      var x = 2;
      print(x);
    }
    print(x);
  })",
                                                d);
  ASSERT_EQ(d.size(), 0u);
  const auto slots = frontend::resolve_slots(p);
  EXPECT_TRUE(slots.issues.empty());
  const auto& fs = slots.funcs.at(&p.funcs[0]);
  // Two distinct `x` declarations -> two distinct slots.
  EXPECT_EQ(fs.num_slots, 2);
  // The two print operands resolve to different slots.
  std::vector<int32_t> print_slots;
  frontend::walk_stmts(p.funcs[0].body, [&](const frontend::Stmt& s) {
    if (s.kind == frontend::StmtKind::Print)
      print_slots.push_back(slots.of(*s.args[0]));
  });
  ASSERT_EQ(print_slots.size(), 2u);
  EXPECT_NE(print_slots[0], print_slots[1]);
  EXPECT_GE(print_slots[0], 0);
  EXPECT_GE(print_slots[1], 0);
}

TEST(Slots, SemaEscapeRecordedAsIssue) {
  SourceManager sm;
  DiagnosticEngine d;
  // Parsed but never sema-checked: `y` is undeclared.
  const auto p = frontend::Parser::parse_source(
      sm, "t", "func main() { y = 1; }", d);
  ASSERT_EQ(d.size(), 0u);
  const auto slots = frontend::resolve_slots(p);
  ASSERT_EQ(slots.issues.size(), 1u);
  EXPECT_EQ(slots.issues[0].name, "y");
  EXPECT_FALSE(slots.issues[0].is_function);
}

// ---- Compiled shape -----------------------------------------------------------

TEST(Bytecode, DisassemblyShowsBakedArming) {
  SourceManager sm;
  DiagnosticEngine d;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto c = driver::compile(sm, "t", R"(func main() {
    mpi_init(single);
    var x = 1;
    if (rank() == 0) {
      x = mpi_allreduce(x, sum);
    } else {
      x = mpi_bcast(x, 0);
    }
    mpi_finalize();
  })",
                                 d, popts);
  ASSERT_TRUE(c.ok);
  ASSERT_FALSE(c.plan.cc_stmts.empty());
  const auto armed_sites = [](const BcProgram& bc) {
    size_t n = 0;
    for (const MpiSite& st : bc.mpi_sites) n += st.armed ? 1 : 0;
    return n;
  };
  const auto bc = compile(c.program, sm, &c.plan);
  EXPECT_GT(armed_sites(bc), 0u);
  const std::string dis = disassemble(bc);
  EXPECT_NE(dis.find("mpi_coll"), std::string::npos);
  EXPECT_NE(dis.find(" cc"), std::string::npos) << dis;
  // Uninstrumented compile of the same program has no armed sites.
  const auto plain = compile(c.program, sm, nullptr);
  EXPECT_EQ(armed_sites(plain), 0u);
  EXPECT_EQ(disassemble(plain).find(" cc]"), std::string::npos);
}

// ---- Peephole fusion ----------------------------------------------------------

TEST(BcPasses, FusionEmitsSuperinstructionsAndShrinksCode) {
  SourceManager sm;
  DiagnosticEngine d;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::Baseline;
  const auto c = driver::compile(sm, "t", R"(func main() {
    var n = 10;
    var acc = 0;
    var i = 0;
    while (i < n) {
      acc = (acc + i * 3) % 100003;
      i = i + 1;
    }
    print(acc);
  })",
                                 d, popts);
  ASSERT_TRUE(c.ok) << d.to_text(sm);
  auto bc = compile(c.program, sm, nullptr);
  const size_t before = bc.total_instrs();
  run_passes(bc);
  const std::string dis = disassemble(bc);
  // The loop shape must collapse into the expected superinstructions:
  // decl+const+store -> decl_imm, the loop guard -> a slot/slot fused
  // branch, the increment -> add_li, the back-edge -> store_jump.
  EXPECT_NE(dis.find("decl_imm"), std::string::npos) << dis;
  EXPECT_NE(dis.find("jnlt_ll"), std::string::npos) << dis;
  EXPECT_NE(dis.find("add_li"), std::string::npos) << dis;
  EXPECT_NE(dis.find("mul_li"), std::string::npos) << dis;
  EXPECT_NE(dis.find("store_jump"), std::string::npos) << dis;
  EXPECT_LT(bc.total_instrs(), before) << dis;
}

// ---- Engine parity on targeted semantics --------------------------------------

TEST(Bytecode, RedeclarationInLoopGetsFreshCell) {
  // A declaration executed repeatedly gets a fresh (zeroed) cell each time:
  // `var x = x + 1;` reads the *new* x (declaration-before-initializer,
  // like the tree-walker's Env::declare-then-eval). Sema rejects the
  // self-reference, so this semantic corner is only reachable via a
  // parsed-but-unchecked program — which is exactly what the bytecode
  // compiler must still get right.
  SourceManager sm;
  DiagnosticEngine d;
  const auto p = frontend::Parser::parse_source(sm, "t", R"(func main() {
    var last = 0;
    for (i = 0 to 3) {
      var x = x + 1;
      last = x;
    }
    print(last);
  })",
                                                d);
  ASSERT_EQ(d.size(), 0u);
  for (const Engine engine : {Engine::Ast, Engine::Bytecode}) {
    Executor exec(p, sm, nullptr);
    ExecOptions eopts;
    eopts.engine = engine;
    eopts.num_ranks = 1;
    eopts.num_threads = 1;
    const auto result = exec.run(eopts);
    ASSERT_TRUE(result.clean) << result.mpi.abort_reason;
    ASSERT_EQ(result.output.size(), 1u);
    EXPECT_EQ(result.output[0], "rank 0: 1") << to_string(engine);
  }
}

TEST(Bytecode, SharedAndPrivateVariablesAcrossTeams) {
  // `total` is shared (declared outside the region, updated under critical);
  // `mine` is private (declared inside). 4 threads x 10 increments.
  const std::string src = R"(func main() {
    var total = 0;
    omp parallel num_threads(4) {
      var mine = 0;
      for (i = 0 to 10) {
        mine = mine + 1;
      }
      omp critical {
        total = total + mine;
      }
    }
    print(total);
  })";
  expect_parity(src, 1, 4);
  const auto r = run_src(src, Engine::Bytecode, 1, 4);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 40");
}

TEST(Bytecode, WorksharingForAndSingle) {
  const std::string src = R"(func main() {
    var total = 0;
    omp parallel num_threads(3) {
      omp for (i = 0 to 12) {
        omp critical {
          total = total + i;
        }
      }
      omp single {
        print(total);
      }
    }
  })";
  expect_parity(src, 1, 3);
  const auto r = run_src(src, Engine::Bytecode, 1, 3);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 66");
}

TEST(Bytecode, SectionsAndNestedParallel) {
  expect_parity(R"(func main() {
    var a = 0;
    var b = 0;
    omp parallel num_threads(2) {
      omp sections {
        omp section {
          a = 7;
        }
        omp section {
          omp parallel num_threads(2) {
            omp critical {
              b = b + 1;
            }
          }
        }
      }
    }
    print(a, b);
  })",
                1, 2);
}

TEST(Bytecode, FunctionsRecursionAndShortCircuit) {
  expect_parity(R"(func fact(n) {
    if (n < 2) {
      return 1;
    }
    var rest = fact(n - 1);
    return n * rest;
  }
  func main() {
    var f = fact(6);
    var g = 0;
    if (f == 720 && 1 / 1 > 0 || f / 0 > 0) {
      g = 1;
    }
    print(f, g);
  })",
                1, 1);
}

TEST(Bytecode, CommHandleCacheSurvivesHotLoop) {
  const std::string src = R"(func main() {
    mpi_init(single);
    var d = mpi_comm_dup();
    var x = rank() + 1;
    for (i = 0 to 50) {
      x = mpi_allreduce(x, sum, d);
      x = x % 1000;
    }
    mpi_comm_free(d);
    mpi_finalize();
  })";
  expect_parity(src, 2, 1);
  const auto r = run_src(src, Engine::Bytecode, 2, 1);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.abort_reason;
  EXPECT_EQ(r->result.mpi.comms_created, 1u);
}

TEST(Bytecode, CommUseAfterFreeNotMaskedByCache) {
  // The per-thread CommRef cache must be invalidated by mpi_comm_free: a
  // stale hit would silently bypass the registry's use-after-free check.
  const std::string src = R"(func main() {
    mpi_init(single);
    var d = mpi_comm_dup();
    var x = mpi_allreduce(1, sum, d);
    mpi_comm_free(d);
    x = mpi_allreduce(2, sum, d);
    mpi_finalize();
  })";
  const auto ast = run_src(src, Engine::Ast, 2, 1);
  const auto bc = run_src(src, Engine::Bytecode, 2, 1);
  EXPECT_FALSE(ast->result.clean);
  EXPECT_FALSE(bc->result.clean);
  EXPECT_EQ(ast->result.mpi.rank_errors, bc->result.mpi.rank_errors);
}

TEST(Bytecode, NonblockingAndPointToPoint) {
  expect_parity(R"(func main() {
    mpi_init(multiple);
    var r = mpi_iallreduce(rank() + 1, sum);
    var v = mpi_wait(r);
    if (rank() == 0) {
      mpi_send(v * 10, 1, 5);
    }
    if (rank() == 1) {
      var got = mpi_recv(0, 5);
      print(got);
    }
    mpi_finalize();
  })",
                2, 1, true);
}

// ---- Out-of-range operands ----------------------------------------------------

/// Both engines must fail `src` with the same per-rank errors, rank 0's
/// naming `error`: a located rank error, never a signal or a silent wrap.
/// Every other rank must block until the abort (a recv nobody sends): a rank
/// that could finish, say after an eager send, races rank 0's abort.
void expect_rank_error(const std::string& src, const std::string& error) {
  const auto ast = run_src(src, Engine::Ast);
  const auto bc = run_src(src, Engine::Bytecode);
  EXPECT_FALSE(bc->result.clean);
  EXPECT_FALSE(bc->result.mpi.deadlock);
  EXPECT_EQ(ast->result.mpi.rank_errors, bc->result.mpi.rank_errors);
  EXPECT_NE(bc->result.mpi.rank_errors[0].find(error), std::string::npos)
      << bc->result.mpi.rank_errors[0];
}

// Roots are checked against their communicator's size and send/recv peers
// against the world's, on the int64 before it narrows.
TEST(Bytecode, OutOfRangeRankOperandsAreRankErrors) {
  expect_rank_error("func main() { var y = mpi_reduce(1, sum, 0 - 1); }",
                    "root -1 is outside [0, 2) at t:1:15");
  expect_rank_error("func main() { mpi_bcast(1, 7); }",
                    "root 7 is outside [0, 2) at t:1:15");
  expect_rank_error("func main() { var c = mpi_comm_split(rank(), 0);\n"
                    "  var b = mpi_bcast(1, 1, c); }",
                    "root 1 is outside [0, 1) at t:2:3");
  expect_rank_error("func main() {\n"
                    "  if (rank() == 0) { mpi_send(4, 4294967297, 0); }\n"
                    "  if (rank() == 1) { var v = mpi_recv(0, 0); } }",
                    "destination 4294967297 is outside [0, 2) at t:2:22");
  expect_rank_error("func main() {\n"
                    "  if (rank() == 0) { var v = mpi_recv(4294967297, 0); }\n"
                    "  if (rank() == 1) { var v = mpi_recv(0, 0); } }",
                    "source 4294967297 is outside [0, 2) at t:2:22");
}

// Send and recv tags are checked against [0, 2^31 - 1] on the int64, after
// the peer, so no tag aliases another modulo 2^32.
TEST(Bytecode, OutOfRangeTagsAreRankErrors) {
  expect_rank_error("func main() {\n"
                    "  if (rank() == 0) { mpi_send(42, 1, 4294967296); }\n"
                    "  if (rank() == 1) { var v = mpi_recv(0, 0); } }",
                    "tag 4294967296 is outside [0, 2147483647] at t:2:22");
  expect_rank_error("func main() {\n"
                    "  if (rank() == 0) { var v = mpi_recv(1, 0 - 1); }\n"
                    "  if (rank() == 1) { var v = mpi_recv(0, 0); } }",
                    "tag -1 is outside [0, 2147483647] at t:2:22");
  expect_rank_error("func main() { mpi_send(4, 9, 0 - 1); }",
                    "destination 9 is outside [0, 2) at t:1:15");
  const std::string max_tag = R"(func main() {
    if (rank() == 0) { mpi_send(42, 1, 2147483647); }
    if (rank() == 1) { var v = mpi_recv(0, 2147483647); print(v); }
  })";
  for (const Engine engine : {Engine::Ast, Engine::Bytecode}) {
    const auto r = run_src(max_tag, engine);
    EXPECT_TRUE(r->result.clean) << r->result.mpi.abort_reason;
    EXPECT_EQ(r->result.output, std::vector<std::string>{"rank 1: 42"})
        << to_string(engine);
  }
}

// num_threads is capped at miniomp::kMaxThreads before it narrows. Only
// values rejected before any team starts are tried: 2^32 + 2 would narrow
// to a team of 2. As in the VM, every operand evaluates before the check.
TEST(Bytecode, NumThreadsAboveCapIsRankError) {
  for (const std::string n : {"257", "4294967298"})
    expect_rank_error(
        "func main() { omp parallel num_threads(" + n + ") { print(1); } }",
        "num_threads(" + n + ") exceeds the limit of 256 at t:1:15");
  expect_rank_error("func main() { var z = 0;\n"
                    "  omp parallel num_threads(257) if(1 / z) { print(1); } }",
                    "division by zero");
  expect_rank_error("func main() { var z = 0; mpi_send(1, 9, 1 / z); }",
                    "division by zero");
}

// ---- Sema-escape regression (the located-EvalError fix) -----------------------

TEST(Bytecode, SemaEscapeAssignFaultsWithLocationInBothEngines) {
  // Parsed but deliberately NOT sema-checked: assignment to an undeclared
  // variable must fault at execution time with a located EvalError — in both
  // engines, with identical wording — instead of dereferencing the null
  // Env::lookup result / compiling garbage.
  SourceManager sm;
  DiagnosticEngine d;
  const std::string src = "func main() {\n  y = 1;\n}";
  const auto p = frontend::Parser::parse_source(sm, "escape.mh", src, d);
  ASSERT_EQ(d.size(), 0u);
  for (const Engine engine : {Engine::Ast, Engine::Bytecode}) {
    Executor exec(p, sm, nullptr);
    ExecOptions eopts;
    eopts.engine = engine;
    eopts.num_ranks = 1;
    const auto result = exec.run(eopts);
    EXPECT_FALSE(result.clean);
    EXPECT_NE(result.mpi.abort_reason.find("undefined variable 'y'"),
              std::string::npos)
        << result.mpi.abort_reason;
    EXPECT_NE(result.mpi.abort_reason.find("escape.mh:2:"), std::string::npos)
        << "fault must carry the source location: "
        << result.mpi.abort_reason;
  }
}

TEST(Bytecode, SemaEscapeFaultsOnlyIfExecuted) {
  // The unresolved statement sits in dead code: both engines must run clean
  // (the bytecode compiler lowers it to a trap, not a compile failure).
  SourceManager sm;
  DiagnosticEngine d;
  const auto p = frontend::Parser::parse_source(sm, "t", R"(func main() {
    if (0) {
      y = 1;
    }
    print(1);
  })",
                                                d);
  ASSERT_EQ(d.size(), 0u);
  for (const Engine engine : {Engine::Ast, Engine::Bytecode}) {
    Executor exec(p, sm, nullptr);
    ExecOptions eopts;
    eopts.engine = engine;
    eopts.num_ranks = 1;
    const auto result = exec.run(eopts);
    EXPECT_TRUE(result.clean) << result.mpi.abort_reason;
  }
}

// ---- Batched step budgets -----------------------------------------------------

class StepBudgetTest : public ::testing::TestWithParam<Engine> {};

TEST_P(StepBudgetTest, LimitTriggersWithinOneBatchSerial) {
  constexpr uint64_t kMax = 20'000;
  const auto r = run_src(R"(func main() {
    var x = 1;
    while (x > 0) {
      x = x + 1;
    }
  })",
                         GetParam(), 1, 1, false, kMax);
  EXPECT_FALSE(r->result.clean);
  EXPECT_NE(r->result.mpi.abort_reason.find("step limit"), std::string::npos);
  // Single thread: the budget is claimed in kStepBatch chunks, so the abort
  // must land within one batch of the configured maximum.
  EXPECT_LE(r->result.steps_executed, kMax + 4096);
  EXPECT_GE(r->result.steps_executed, kMax / 2); // sanity: it did run
}

TEST_P(StepBudgetTest, LimitTriggersWithinOneBatchPerThreadStress) {
  constexpr uint64_t kMax = 30'000;
  constexpr uint64_t kBatch = 4096;
  const int32_t threads = 4;
  // Every team thread spins; each may overshoot by at most one batch before
  // its next refill observes the exhausted pool.
  const auto r = run_src(R"(func main() {
    omp parallel num_threads(4) {
      var x = 1;
      while (x > 0) {
        x = x + 1;
      }
    }
  })",
                         GetParam(), 1, threads, false, kMax);
  EXPECT_FALSE(r->result.clean);
  EXPECT_NE(r->result.mpi.abort_reason.find("step limit"), std::string::npos);
  EXPECT_LE(r->result.steps_executed,
            kMax + (static_cast<uint64_t>(threads) + 1) * kBatch);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, StepBudgetTest,
                         ::testing::Values(Engine::Ast, Engine::Bytecode),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Reporting ----------------------------------------------------------------

TEST(Bytecode, RunReportCarriesEngineAndOps) {
  const auto r = run_src("func main() { print(rank()); }", Engine::Bytecode,
                         2, 1);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.mpi.engine, "bytecode");
  EXPECT_GT(r->result.mpi.bytecode_ops, 0u);
  EXPECT_EQ(r->result.mpi.bytecode_ops, r->result.steps_executed);
  const auto a = run_src("func main() { print(rank()); }", Engine::Ast, 2, 1);
  EXPECT_EQ(a->result.mpi.engine, "ast");
  EXPECT_EQ(a->result.mpi.bytecode_ops, 0u);
  EXPECT_GT(a->result.steps_executed, 0u);
}

} // namespace
} // namespace parcoach::interp
