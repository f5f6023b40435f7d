// Unit tests: MiniHPC parser — AST shapes, ids, round-tripping, errors, and
// the nesting limit that keeps deep input from overflowing the stack.
#include "frontend/parser.h"

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/str.h"

#include <gtest/gtest.h>

namespace parcoach::frontend {
namespace {

Program parse_ok(const std::string& src) {
  SourceManager sm;
  DiagnosticEngine d;
  Program p = Parser::parse_source(sm, "t.mh", src, d);
  EXPECT_FALSE(d.has_errors()) << d.to_text(sm);
  return p;
}

size_t parse_errors(const std::string& src) {
  SourceManager sm;
  DiagnosticEngine d;
  Parser::parse_source(sm, "t.mh", src, d);
  return d.count(Severity::Error);
}

TEST(Parser, FunctionWithParams) {
  const Program p = parse_ok("func f(a, b, c) { return a + b * c; }");
  ASSERT_EQ(p.funcs.size(), 1u);
  EXPECT_EQ(p.funcs[0].name, "f");
  EXPECT_EQ(p.funcs[0].params, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(p.funcs[0].body.size(), 1u);
  EXPECT_EQ(p.funcs[0].body[0]->kind, StmtKind::Return);
}

TEST(Parser, PrecedenceShape) {
  const Program p = parse_ok("func f() { var x = 1 + 2 * 3 < 4 && 5 == 6; }");
  const Stmt& s = *p.funcs[0].body[0];
  // Top node must be &&.
  ASSERT_EQ(s.value->kind, ir::Expr::Kind::Binary);
  EXPECT_EQ(s.value->bin_op, ir::BinaryOp::And);
  // Left child is `<`, whose left child is `+` with a `*` under it.
  const ir::Expr& lt = *s.value->kids[0];
  EXPECT_EQ(lt.bin_op, ir::BinaryOp::Lt);
  EXPECT_EQ(lt.kids[0]->bin_op, ir::BinaryOp::Add);
  EXPECT_EQ(lt.kids[0]->kids[1]->bin_op, ir::BinaryOp::Mul);
}

TEST(Parser, MpiCollectiveShapes) {
  const Program p = parse_ok(R"(func main() {
    mpi_init(serialized);
    var a = mpi_allreduce(1, sum);
    var b = mpi_reduce(a, max, 0);
    var c = mpi_bcast(b, 1);
    mpi_barrier();
    var d = mpi_scan(c, prod);
    mpi_finalize();
  })");
  const auto& body = p.funcs[0].body;
  ASSERT_EQ(body.size(), 7u);
  EXPECT_TRUE(body[0]->is_mpi_init);
  EXPECT_EQ(body[0]->init_level, ir::ThreadLevel::Serialized);
  EXPECT_EQ(body[1]->coll, ir::CollectiveKind::Allreduce);
  EXPECT_EQ(*body[1]->reduce_op, ir::ReduceOp::Sum);
  EXPECT_TRUE(body[1]->declares_target);
  EXPECT_EQ(body[2]->coll, ir::CollectiveKind::Reduce);
  ASSERT_NE(body[2]->mpi_root, nullptr);
  EXPECT_EQ(body[3]->coll, ir::CollectiveKind::Bcast);
  EXPECT_EQ(body[4]->coll, ir::CollectiveKind::Barrier);
  EXPECT_TRUE(body[4]->name.empty());
  EXPECT_EQ(body[5]->coll, ir::CollectiveKind::Scan);
  EXPECT_EQ(body[6]->coll, ir::CollectiveKind::Finalize);
}

TEST(Parser, OmpConstructs) {
  const Program p = parse_ok(R"(func main() {
    omp parallel num_threads(4) if(rank() == 0) {
      omp single nowait {
        var x = 1;
      }
      omp master {
        var y = 2;
      }
      omp barrier;
      omp critical {
        var z = 3;
      }
      omp for nowait (i = 0 to 10) {
        var w = i;
      }
      omp sections {
        omp section {
          var s1 = 1;
        }
        omp section {
          var s2 = 2;
        }
      }
    }
  })");
  const Stmt& par = *p.funcs[0].body[0];
  EXPECT_EQ(par.kind, StmtKind::OmpParallel);
  ASSERT_NE(par.num_threads, nullptr);
  ASSERT_NE(par.if_clause, nullptr);
  ASSERT_EQ(par.body.size(), 6u);
  EXPECT_EQ(par.body[0]->kind, StmtKind::OmpSingle);
  EXPECT_TRUE(par.body[0]->nowait);
  EXPECT_EQ(par.body[1]->kind, StmtKind::OmpMaster);
  EXPECT_EQ(par.body[2]->kind, StmtKind::OmpBarrier);
  EXPECT_EQ(par.body[3]->kind, StmtKind::OmpCritical);
  EXPECT_EQ(par.body[4]->kind, StmtKind::OmpFor);
  EXPECT_TRUE(par.body[4]->nowait);
  EXPECT_EQ(par.body[5]->kind, StmtKind::OmpSections);
  EXPECT_EQ(par.body[5]->body.size(), 2u);
  EXPECT_EQ(par.body[5]->body[0]->kind, StmtKind::OmpSection);
}

TEST(Parser, RegionIdsAreUniqueAndDense) {
  const Program p = parse_ok(R"(func main() {
    omp parallel {
      omp single {
        var a = 1;
      }
    }
    omp parallel {
      omp master {
        var b = 2;
      }
    }
  })");
  EXPECT_EQ(p.num_regions, 4);
  std::vector<int32_t> ids;
  walk_stmts(p.funcs[0].body, [&](const Stmt& s) {
    if (s.is_omp() && s.region_id >= 0) ids.push_back(s.region_id);
  });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(Parser, StmtIdsAreUniqueModuleWide) {
  const Program p = parse_ok(R"(func a() { var x = 1; }
func b() { var y = 2; var z = 3; })");
  std::vector<int32_t> ids;
  for (const auto& f : p.funcs)
    walk_stmts(f.body, [&](const Stmt& s) { ids.push_back(s.stmt_id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "stmt ids must be unique";
  EXPECT_EQ(static_cast<int32_t>(ids.size()), p.num_stmts);
}

TEST(Parser, ElseIfChains) {
  const Program p = parse_ok(R"(func f(x) {
    if (x == 0) {
      return 1;
    } else if (x == 1) {
      return 2;
    } else {
      return 3;
    }
  })");
  const Stmt& s = *p.funcs[0].body[0];
  ASSERT_EQ(s.else_body.size(), 1u);
  EXPECT_EQ(s.else_body[0]->kind, StmtKind::If);
  EXPECT_EQ(s.else_body[0]->else_body.size(), 1u);
}

TEST(Parser, RoundTripThroughSource) {
  const char* src = R"(func helper(n) {
  var acc = 0;
  for (i = 0 to n) {
    acc = acc + i;
  }
  return acc;
}
func main() {
  mpi_init(multiple);
  var x = helper(10);
  omp parallel num_threads(2) {
    omp single {
      x = mpi_allreduce(x, sum);
    }
  }
  print(x);
  mpi_finalize();
}
)";
  const Program p1 = parse_ok(src);
  const std::string emitted = to_source(p1);
  const Program p2 = parse_ok(emitted); // re-parses cleanly
  EXPECT_EQ(to_source(p2), emitted);    // and is a fixpoint
}

TEST(Parser, CommSyntaxRoundTripsThroughSource) {
  // Every comm form: split (with and without parent), dup (defaulted and
  // explicit), trailing comm on payload collectives, comm as the only
  // argument of a payload-less collective (the `mpi_ibarrier(d)` shape once
  // printed as `mpi_ibarrier(, d)`), and free.
  const char* src = R"(func main() {
  mpi_init(single);
  var d = mpi_comm_dup();
  var c = mpi_comm_split(rank() % 2, 0, d);
  var e = mpi_comm_dup(c);
  var r = mpi_ibarrier(d);
  mpi_wait(r);
  mpi_barrier(c);
  var s = mpi_allreduce(1, sum, c);
  var b = mpi_bcast(s, 0, e);
  mpi_comm_free(c);
  mpi_comm_free(d);
  mpi_comm_free(e);
  mpi_finalize();
}
)";
  const Program p1 = parse_ok(src);
  const std::string emitted = to_source(p1);
  const Program p2 = parse_ok(emitted); // re-parses cleanly
  EXPECT_EQ(to_source(p2), emitted);    // and is a fixpoint
}

TEST(Parser, CommOpShapesAreEnforced) {
  EXPECT_GE(parse_errors("func f() { mpi_comm_split(1, 0); }"), 1u)
      << "split result must be assigned";
  EXPECT_GE(parse_errors("func f() { mpi_comm_dup(); }"), 1u)
      << "dup result must be assigned";
  EXPECT_GE(parse_errors("func f() { var x = mpi_comm_free(1); }"), 1u)
      << "free produces no value";
  EXPECT_GE(parse_errors("func f() { mpi_finalize(1); }"), 1u)
      << "finalize takes no arguments";
}

TEST(Parser, ErrorsAreReported) {
  EXPECT_GE(parse_errors("func f( { }"), 1u);
  EXPECT_GE(parse_errors("func f() { var = 3; }"), 1u);
  EXPECT_GE(parse_errors("func f() { x = ; }"), 1u);
  EXPECT_GE(parse_errors("func f() { omp bogus { } }"), 1u);
  EXPECT_GE(parse_errors("func f() { mpi_init(wat); }"), 1u);
  EXPECT_GE(parse_errors("func f() { var x = mpi_allreduce(1, notanop); }"), 1u);
  EXPECT_GE(parse_errors("garbage"), 1u);
}

TEST(Parser, CallsInsideExpressionsAreRejected) {
  EXPECT_GE(parse_errors("func g() { return 1; } func f() { var x = 1 + g(); }"),
            1u);
}

TEST(Parser, SectionsRequireAtLeastOneSection) {
  EXPECT_GE(parse_errors("func f() { omp sections { } }"), 1u);
}

TEST(Parser, BarrierCollectiveCannotProduceValue) {
  EXPECT_GE(parse_errors("func f() { var x = mpi_barrier(); }"), 1u);
}

// ---- Nesting limit ---------------------------------------------------------

std::string repeat(std::string_view s, int32_t n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) out += s;
  return out;
}

/// Parses `src` as deep.mh; expects exactly one error and returns its text.
std::string single_parse_error(const std::string& src) {
  SourceManager sm;
  DiagnosticEngine d;
  Parser::parse_source(sm, "deep.mh", src, d);
  EXPECT_EQ(d.count(Severity::Error), 1u);
  return d.to_text(sm);
}

TEST(ParserLimits, DeepNestingIsADiagnosticNotACrash) {
  constexpr int32_t kDeep = 100000;
  const std::string limit =
      str::cat("error [parse] nesting exceeds the limit of ",
               Parser::kMaxNesting, " levels");
  // The paren that opens level kMaxNesting + 1 (the function body is level
  // 1); "  var x = " is 10 columns wide.
  EXPECT_TRUE(str::contains(
      single_parse_error(str::cat("func f() {\n  var x = ",
                                  repeat("(", kDeep), "1", repeat(")", kDeep),
                                  ";\n}\n")),
      str::cat("deep.mh:2:", 10 + Parser::kMaxNesting, ": ", limit)));
  // One `if (1) {` per line: the block on line kMaxNesting + 1 crosses.
  EXPECT_TRUE(str::contains(
      single_parse_error(str::cat("func f() {\n", repeat("if (1) {\n", kDeep),
                                  repeat("}\n", kDeep), "}\n")),
      str::cat("deep.mh:", Parser::kMaxNesting + 1, ":8: ", limit)));
  // Shapes that nest without a block or a paren are bounded too.
  EXPECT_TRUE(str::contains(
      single_parse_error(str::cat("func f() {\n  var x = ", repeat("-", kDeep),
                                  "1;\n}\n")),
      limit));
  EXPECT_TRUE(str::contains(
      single_parse_error(str::cat("func f() {\n  var x = 1",
                                  repeat(" + 1", kDeep), ";\n}\n")),
      limit));
  EXPECT_TRUE(str::contains(
      single_parse_error(str::cat("func f() {\n  if (1) {\n  }",
                                  repeat(" else if (1) {\n  }", kDeep),
                                  "\n}\n")),
      limit));
}

/// Compiles `src` with verification codegen and runs it on both engines.
void expect_clean_on_both_engines(const std::string& src,
                                  const std::vector<std::string>& output) {
  SourceManager sm;
  DiagnosticEngine diags;
  const auto c = driver::compile(sm, "at_limit.mh", src, diags, {});
  ASSERT_TRUE(c.ok) << diags.to_text(sm);
  EXPECT_EQ(diags.size(), 0u) << diags.to_text(sm);
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    interp::Executor exec(c.program, sm, &c.plan);
    interp::ExecOptions eopts;
    eopts.engine = engine;
    const auto r = exec.run(eopts);
    EXPECT_TRUE(r.clean) << to_string(engine) << ": " << r.mpi.abort_reason;
    EXPECT_EQ(r.output, output) << to_string(engine);
  }
}

TEST(ParserLimits, ProgramsAtTheLimitRunCleanOnBothEngines) {
  // The function body and kMaxNesting - 1 nested ifs: the innermost block is
  // at the limit, so it holds no operator.
  const int32_t ifs = Parser::kMaxNesting - 1;
  expect_clean_on_both_engines(
      str::cat("func main() {\n  mpi_init(single);\n  var n = size();\n",
               repeat("  if (n > 0) {\n", ifs), "  print(n);\n",
               repeat("  }\n", ifs), "  mpi_finalize();\n}\n"),
      {"rank 0: 2", "rank 1: 2"});

  // Blocks and parens share the budget: half the levels each.
  const int32_t half = Parser::kMaxNesting / 2;
  auto mixed = [&](int32_t parens) {
    return str::cat("func main() {\n  mpi_init(single);\n  var n = size();\n",
                    repeat("  if (n > 0) {\n", half - 1), "  var y = ",
                    repeat("(", parens), "n", repeat(")", parens),
                    ";\n  print(y + 1);\n", repeat("  }\n", half - 1),
                    "  mpi_finalize();\n}\n");
  };
  expect_clean_on_both_engines(mixed(Parser::kMaxNesting - half),
                               {"rank 0: 3", "rank 1: 3"});
  EXPECT_GE(parse_errors(mixed(Parser::kMaxNesting - half + 1)), 1u);
}

} // namespace
} // namespace parcoach::frontend

namespace parcoach::frontend {
namespace {

TEST(ParserP2P, SendRecvShapes) {
  const Program p = parse_ok(R"(func main() {
    mpi_send(1 + 2, 1, 0);
    var x = mpi_recv(0, 0);
    x = mpi_recv(1, 5);
  })");
  const auto& body = p.funcs[0].body;
  ASSERT_EQ(body.size(), 3u);
  EXPECT_EQ(body[0]->kind, StmtKind::MpiSend);
  ASSERT_NE(body[0]->mpi_value, nullptr);
  ASSERT_NE(body[0]->mpi_root, nullptr);
  ASSERT_NE(body[0]->hi, nullptr);
  EXPECT_EQ(body[1]->kind, StmtKind::MpiRecv);
  EXPECT_TRUE(body[1]->declares_target);
  EXPECT_EQ(body[2]->kind, StmtKind::MpiRecv);
  EXPECT_FALSE(body[2]->declares_target);
}

TEST(ParserP2P, SendCannotProduceRecvMustProduce) {
  EXPECT_GE(parse_errors("func f() { var x = mpi_send(1, 0, 0); }"), 1u);
  EXPECT_GE(parse_errors("func f() { mpi_recv(0, 0); }"), 1u);
}

TEST(ParserP2P, RoundTripsThroughSource) {
  const Program p1 = parse_ok(R"(func main() {
  mpi_send(7, 1, 2);
  var x = mpi_recv(1, 2);
  print(x);
}
)");
  const std::string emitted = to_source(p1);
  const Program p2 = parse_ok(emitted);
  EXPECT_EQ(to_source(p2), emitted);
}

} // namespace
} // namespace parcoach::frontend
