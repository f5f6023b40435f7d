// Property-based tests (parameterized seed sweeps).
//
// P1  Correct-by-construction random hybrid programs produce no phase-1/2 or
//     thread-level warnings and run clean under full instrumentation.
// P2  A seeded mutation (rank guard / kind divergence / early exit) is
//     always flagged statically (CollectiveMismatch), and the instrumented
//     run NEVER hangs: it either aborts with a precise runtime diagnostic or
//     the mutated site was dynamically unreachable and the run stays clean.
//     Early-exit mutations are always dynamically reachable, so there the
//     runtime catch is asserted unconditionally.
// P3  Uninstrumented mutated runs may hang — the watchdog must report them;
//     checked for early-exit mutations (deterministically hanging).
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/str.h"
#include "workloads/testgen.h"

#include <gtest/gtest.h>

#include <sstream>

namespace parcoach {
namespace {

using workloads::GenOptions;
using workloads::GenResult;
using workloads::Mutation;

driver::CompileResult compile_src(const std::string& src, SourceManager& sm,
                                  DiagnosticEngine& diags) {
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.verify_ir = true;
  return driver::compile(sm, "gen", src, diags, opts);
}

interp::ExecResult run_program(const driver::CompileResult& r,
                               const SourceManager& sm, bool instrumented,
                               int hang_ms) {
  interp::Executor exec(r.program, sm, instrumented ? &r.plan : nullptr);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(hang_ms);
  return exec.run(eopts);
}

class PropertySeed : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertySeed, CleanProgramsAnalyzeAndRunClean) {
  GenOptions gopts;
  gopts.seed = GetParam();
  const GenResult gen = workloads::generate_random_program(gopts);
  ASSERT_GT(gen.collective_sites, 0);

  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_src(gen.source, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm) << "\n" << gen.source;
  EXPECT_EQ(diags.count(DiagKind::MultithreadedCollective), 0u)
      << diags.to_text(sm) << "\n" << gen.source;
  EXPECT_EQ(diags.count(DiagKind::ConcurrentCollectives), 0u)
      << diags.to_text(sm) << "\n" << gen.source;
  EXPECT_EQ(diags.count(DiagKind::ThreadLevelViolation), 0u)
      << diags.to_text(sm);

  const auto result = run_program(r, sm, /*instrumented=*/true, 2000);
  EXPECT_TRUE(result.clean) << result.mpi.abort_reason << "\n"
                            << result.mpi.deadlock_details << "\n"
                            << gen.source;
}

class PropertyMutation
    : public ::testing::TestWithParam<std::tuple<uint64_t, Mutation>> {};

TEST_P(PropertyMutation, MutationsAreFlaggedAndNeverHangInstrumented) {
  const auto [seed, mutation] = GetParam();
  GenOptions clean_opts;
  clean_opts.seed = seed;
  const GenResult clean = workloads::generate_random_program(clean_opts);
  ASSERT_GT(clean.collective_sites, 0);

  GenOptions mopts = clean_opts;
  mopts.mutation = mutation;
  mopts.mutation_site =
      static_cast<int32_t>(seed % static_cast<uint64_t>(clean.collective_sites));
  const GenResult mutated = workloads::generate_random_program(mopts);
  ASSERT_TRUE(mutated.mutation_applied) << mutated.source;

  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_src(mutated.source, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm) << "\n" << mutated.source;

  // Static: the divergence conditional must be flagged.
  EXPECT_GE(diags.count(DiagKind::CollectiveMismatch), 1u)
      << diags.to_text(sm) << "\n" << mutated.source;
  // And the CC protocol must be armed program-wide.
  EXPECT_FALSE(r.plan.cc_stmts.empty());
  EXPECT_TRUE(r.plan.cc_final_in_main);

  // Dynamic: instrumented run must never hang.
  const auto result = run_program(r, sm, /*instrumented=*/true, 2500);
  EXPECT_FALSE(result.mpi.deadlock)
      << result.mpi.deadlock_details << "\n" << mutated.source;
  const bool caught = result.rt_error_count() >= 1;
  if (mutation == Mutation::EarlyExit) {
    EXPECT_TRUE(caught) << "early exit is always reachable\n" << mutated.source;
  } else {
    // Either caught, or the mutated site was dynamically unreachable and
    // the program ran clean.
    EXPECT_TRUE(caught || result.clean)
        << result.mpi.abort_reason << "\n" << mutated.source;
  }
  if (caught) {
    bool kind_ok = false;
    for (const auto& d : result.rt_diags)
      kind_ok |= d.kind == DiagKind::RtCollectiveMismatch;
    EXPECT_TRUE(kind_ok);
  }
}

TEST_P(PropertySeed, EarlyExitHangsWithoutInstrumentationAndIsCaughtWithIt) {
  const uint64_t seed = GetParam();
  GenOptions clean_opts;
  clean_opts.seed = seed;
  const GenResult clean = workloads::generate_random_program(clean_opts);

  GenOptions mopts = clean_opts;
  mopts.mutation = Mutation::EarlyExit;
  mopts.mutation_site =
      static_cast<int32_t>(seed % static_cast<uint64_t>(clean.collective_sites));
  const GenResult mutated = workloads::generate_random_program(mopts);
  ASSERT_TRUE(mutated.mutation_applied);

  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_src(mutated.source, sm, diags);
  ASSERT_TRUE(r.ok);

  // Without checks: rank 0 leaves, rank 1 blocks -> watchdog hang.
  const auto bare = run_program(r, sm, /*instrumented=*/false, 150);
  EXPECT_TRUE(bare.mpi.deadlock) << bare.mpi.abort_reason << "\n"
                                 << mutated.source;

  // With checks: clean abort before the hang.
  const auto checked = run_program(r, sm, /*instrumented=*/true, 2500);
  EXPECT_FALSE(checked.mpi.deadlock);
  EXPECT_GE(checked.rt_error_count(), 1u);
}

constexpr uint64_t kSeeds[] = {1,  2,  3,  5,  8,  13, 21, 34,
                               55, 89, 144, 233, 377, 610, 987, 1597};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed, ::testing::ValuesIn(kSeeds));

INSTANTIATE_TEST_SUITE_P(
    Mutations, PropertyMutation,
    ::testing::Combine(::testing::ValuesIn(kSeeds),
                       ::testing::Values(Mutation::RankGuard,
                                         Mutation::KindDivergence,
                                         Mutation::EarlyExit)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, Mutation>>& info) {
      const uint64_t seed = std::get<0>(info.param);
      const Mutation m = std::get<1>(info.param);
      const char* name = m == Mutation::RankGuard        ? "RankGuard"
                         : m == Mutation::KindDivergence ? "KindDivergence"
                                                         : "EarlyExit";
      return std::string(name) + "_seed" + std::to_string(seed);
    });

} // namespace
} // namespace parcoach

namespace parcoach {
namespace {

// P4: cross-checking the two detectors. For mutated programs, running the
// *uninstrumented* program on the strict-matching substrate (a MUST-like
// reference checker that validates signatures at match time) must agree
// with the CC verdict: if strict matching reports a mismatch, the CC
// protocol must also have caught it (or the site was never reached, in
// which case both stay silent).
class PropertyCrossCheck
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyCrossCheck, StrictSubstrateAgreesWithCcVerdict) {
  const uint64_t seed = GetParam();
  GenOptions clean_opts;
  clean_opts.seed = seed;
  const GenResult clean = workloads::generate_random_program(clean_opts);

  GenOptions mopts = clean_opts;
  mopts.mutation = Mutation::KindDivergence;
  mopts.mutation_site =
      static_cast<int32_t>(seed % static_cast<uint64_t>(clean.collective_sites));
  const GenResult mutated = workloads::generate_random_program(mopts);
  ASSERT_TRUE(mutated.mutation_applied);

  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_src(mutated.source, sm, diags);
  ASSERT_TRUE(r.ok);

  // Reference run: strict substrate, no instrumentation.
  interp::Executor ref_exec(r.program, sm, nullptr);
  interp::ExecOptions ref_opts;
  ref_opts.num_ranks = 2;
  ref_opts.num_threads = 2;
  ref_opts.mpi.strict_matching = true;
  ref_opts.mpi.hang_timeout = std::chrono::milliseconds(2000);
  const auto ref = ref_exec.run(ref_opts);
  const bool ref_mismatch =
      ref.mpi.abort_reason.find("collective mismatch") != std::string::npos;

  // Verified run: normal substrate + CC checks.
  const auto checked = run_program(r, sm, /*instrumented=*/true, 2500);
  const bool cc_caught = checked.rt_error_count() >= 1;

  if (ref_mismatch) {
    EXPECT_TRUE(cc_caught)
        << "strict matching saw a mismatch the CC protocol missed\n"
        << mutated.source;
  }
  // Consistency in the other direction is weaker (CC sees divergence one
  // step earlier and can catch cases strict matching would deadlock on,
  // e.g. count mismatches), so only require: CC-caught => not clean.
  if (cc_caught) {
    EXPECT_FALSE(checked.clean);
  }
}

INSTANTIATE_TEST_SUITE_P(CrossCheck, PropertyCrossCheck,
                         ::testing::ValuesIn(kSeeds));

} // namespace
} // namespace parcoach

namespace parcoach {
namespace {

// P5: execution-engine parity. Random arithmetic/control programs (nested
// if/while/for, helper calls, OpenMP blocks, unary/binary operators
// including short-circuit && / || and abort-prone / and %) must produce
// byte-identical outcomes under the AST oracle and the bytecode VM, fused
// and unfused. This is the fuzz counterpart
// of the corpus differential — it hunts for peephole rewrites that would
// only misbehave on operator shapes the corpus never exercises.
//
// Runs use 1 rank / 1 thread, so every outcome (including division-by-zero
// aborts) is deterministic. Expressions are overflow-free by construction:
// every multiplication node and every assignment is reduced mod 100003, so
// intermediate values stay far below the int64 range.

/// Deterministic 64-bit LCG; seed-stable across platforms (unlike
/// std::mt19937 distributions).
class Lcg {
public:
  explicit Lcg(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint32_t below(uint32_t n) {
    s_ = s_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((s_ >> 33) % n);
  }
private:
  uint64_t s_;
};

class ProgramGen {
public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    const int helpers = 1 + static_cast<int>(rng_.below(2));
    for (int i = 0; i < helpers; ++i) emit_helper(os, i);
    os << "func main() {\n  mpi_init(single);\n";
    scopes_.push_back({});
    emit_block(os, "  ", 6 + rng_.below(5), 0, /*in_parallel=*/false);
    // Fold whatever survived into a collective so the MPI executor and the CC
    // machinery run on every generated program.
    os << "  var total = (" << sum_of_scope() << ") % 100003;\n"
       << "  var red = mpi_allreduce(total, sum);\n"
       << "  print(red);\n"
       << "  mpi_finalize();\n}\n";
    scopes_.pop_back();
    return os.str();
  }

private:
  void emit_helper(std::ostringstream& os, int index) {
    os << "func h" << index << "(p0, p1) {\n";
    scopes_.push_back({"p0", "p1"});
    emit_block(os, "  ", 2 + rng_.below(3), 1, false);
    os << "  return (" << gen_expr(2) << ") % 100003;\n}\n";
    scopes_.pop_back();
    helpers_.push_back(str::cat("h", index));
  }

  void emit_block(std::ostringstream& os, const std::string& ind, int stmts,
                  int depth, bool in_parallel, bool in_sync = false) {
    scopes_.push_back({});
    for (int i = 0; i < stmts; ++i)
      emit_stmt(os, ind, depth, in_parallel, in_sync);
    scopes_.pop_back();
  }

  void emit_stmt(std::ostringstream& os, const std::string& ind, int depth,
                 bool in_parallel, bool in_sync) {
    const uint32_t pick = rng_.below(depth >= 3 ? 10 : 16);
    switch (pick) {
      case 0:
      case 1:
      case 2:
      case 3: { // declaration
        const std::string v = fresh("x");
        os << ind << "var " << v << " = (" << gen_expr(2) << ") % 100003;\n";
        scopes_.back().push_back(v);
        return;
      }
      case 4:
      case 5:
      case 6: { // assignment to a visible variable
        const std::string v = pick_var();
        if (v.empty()) break;
        os << ind << v << " = (" << gen_expr(2) << ") % 100003;\n";
        return;
      }
      case 7:
      case 8: // print
        os << ind << "print(" << gen_expr(1) << ", " << gen_expr(1) << ");\n";
        return;
      case 9: { // helper call (statement-level, with return target)
        if (helpers_.empty()) break;
        const std::string v = fresh("c");
        os << ind << "var " << v << " = "
           << helpers_[rng_.below(static_cast<uint32_t>(helpers_.size()))]
           << "(" << gen_expr(1) << ", " << gen_expr(1) << ");\n";
        scopes_.back().push_back(v);
        return;
      }
      case 10: { // if / if-else
        os << ind << "if (" << gen_expr(2) << ") {\n";
        emit_block(os, ind + "  ", 1 + rng_.below(3), depth + 1, in_parallel,
                   in_sync);
        if (rng_.below(2) == 0) {
          os << ind << "} else {\n";
          emit_block(os, ind + "  ", 1 + rng_.below(3), depth + 1,
                     in_parallel, in_sync);
        }
        os << ind << "}\n";
        return;
      }
      case 11: { // bounded while (counter never exposed to the block)
        const std::string w = fresh("w");
        os << ind << "var " << w << " = 0;\n"
           << ind << "while (" << w << " < " << 1 + rng_.below(4) << ") {\n";
        emit_block(os, ind + "  ", 1 + rng_.below(3), depth + 1, in_parallel);
        os << ind << "  " << w << " = " << w << " + 1;\n" << ind << "}\n";
        return;
      }
      case 12: { // for loop (loop variable visible inside the body)
        const std::string v = fresh("i");
        os << ind << "for (" << v << " = 0 to " << 1 + rng_.below(4)
           << ") {\n";
        scopes_.push_back({v});
        emit_block(os, ind + "  ", 1 + rng_.below(3), depth + 1, in_parallel,
                   in_sync);
        scopes_.pop_back();
        os << ind << "}\n";
        return;
      }
      case 13: { // omp parallel (1 thread: deterministic, exercises the
                 // body-boundary rules in the fusion pass)
        if (in_parallel) break;
        os << ind << "omp parallel num_threads(1) {\n";
        emit_block(os, ind + "  ", 1 + rng_.below(3), depth + 1, true);
        os << ind << "}\n";
        return;
      }
      case 14: { // omp critical inside a parallel region
        if (!in_parallel || in_sync) break;
        os << ind << "omp critical {\n";
        emit_block(os, ind + "  ", 1 + rng_.below(2), depth + 1, true,
                   /*in_sync=*/true);
        os << ind << "}\n";
        return;
      }
      case 15: { // omp single inside a parallel region
        if (!in_parallel || in_sync) break;
        os << ind << "omp single {\n";
        emit_block(os, ind + "  ", 1 + rng_.below(2), depth + 1, true,
                   /*in_sync=*/true);
        os << ind << "}\n";
        return;
      }
      default:
        break;
    }
    // Fallthrough for inapplicable picks: a declaration is always legal.
    const std::string v = fresh("x");
    os << ind << "var " << v << " = (" << gen_expr(2) << ") % 100003;\n";
    scopes_.back().push_back(v);
  }

  std::string gen_expr(int depth) {
    if (depth <= 0 || rng_.below(3) == 0) { // leaf
      switch (rng_.below(6)) {
        case 0: return std::to_string(rng_.below(20));
        case 1: return "rank()";
        case 2: return "size()";
        default: {
          const std::string v = pick_var();
          return v.empty() ? std::to_string(1 + rng_.below(19)) : v;
        }
      }
    }
    switch (rng_.below(16)) {
      case 0: return str::cat("(-", gen_expr(depth - 1), ")");
      case 1: return str::cat("(!", gen_expr(depth - 1), ")");
      // Multiplications are reduced immediately so no int64 overflow is
      // reachable; / and % are rare but deliberately unguarded — a zero
      // divisor must abort identically under every engine/pass config.
      case 2:
      case 3:
        return str::cat("(", gen_expr(depth - 1), " * ", gen_expr(depth - 1),
                        " % 100003)");
      case 4: return str::cat("(", gen_expr(depth - 1), " / ",
                              gen_expr(depth - 1), ")");
      case 5: return str::cat("(", gen_expr(depth - 1), " % (1 + (",
                              gen_expr(depth - 1), " % 97)))");
      case 6: return str::cat("(", gen_expr(depth - 1), " && ",
                              gen_expr(depth - 1), ")");
      case 7: return str::cat("(", gen_expr(depth - 1), " || ",
                              gen_expr(depth - 1), ")");
      case 8: return str::cat("(", gen_expr(depth - 1), " < ",
                              gen_expr(depth - 1), ")");
      case 9: return str::cat("(", gen_expr(depth - 1), " <= ",
                              gen_expr(depth - 1), ")");
      case 10: return str::cat("(", gen_expr(depth - 1), " > ",
                               gen_expr(depth - 1), ")");
      case 11: return str::cat("(", gen_expr(depth - 1), " >= ",
                               gen_expr(depth - 1), ")");
      case 12: return str::cat("(", gen_expr(depth - 1), " == ",
                               gen_expr(depth - 1), ")");
      case 13: return str::cat("(", gen_expr(depth - 1), " != ",
                               gen_expr(depth - 1), ")");
      case 14: return str::cat("(", gen_expr(depth - 1), " - ",
                               gen_expr(depth - 1), ")");
      default: return str::cat("(", gen_expr(depth - 1), " + ",
                               gen_expr(depth - 1), ")");
    }
  }

  std::string pick_var() {
    std::vector<const std::string*> visible;
    for (const auto& scope : scopes_)
      for (const auto& v : scope) visible.push_back(&v);
    if (visible.empty()) return {};
    return *visible[rng_.below(static_cast<uint32_t>(visible.size()))];
  }

  std::string sum_of_scope() {
    std::string sum = "0";
    for (const auto& v : scopes_.back()) sum = str::cat(sum, " + ", v);
    return sum;
  }

  std::string fresh(const char* prefix) {
    return str::cat(prefix, counter_++);
  }

  Lcg rng_;
  std::vector<std::vector<std::string>> scopes_;
  std::vector<std::string> helpers_;
  int counter_ = 0;
};

struct Outcome {
  bool clean = false;
  bool deadlock = false;
  std::string abort;
  std::vector<std::string> output;
  bool operator==(const Outcome&) const = default;
};

Outcome run_engine_cfg(const driver::CompileResult& r, const SourceManager& sm,
                       interp::Engine engine,
                       const interp::BcPassOptions& passes) {
  interp::Executor exec(r.program, sm, &r.plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 1;
  eopts.num_threads = 1;
  eopts.engine = engine;
  eopts.passes = passes;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(2000);
  const auto res = exec.run(eopts);
  Outcome o;
  o.clean = res.clean;
  o.deadlock = res.mpi.deadlock;
  o.abort = res.mpi.abort_reason;
  o.output = res.output;
  return o;
}

class PropertyEngineParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyEngineParity, AllPassConfigsMatchAstOracle) {
  const std::string source = ProgramGen(GetParam()).generate();
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  popts.verify_ir = true;
  const auto r = driver::compile(sm, "gen_parity", source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm) << "\n" << source;

  const Outcome oracle =
      run_engine_cfg(r, sm, interp::Engine::Ast, interp::BcPassOptions{});

  for (const bool fuse : {true, false}) {
    const Outcome got =
        run_engine_cfg(r, sm, interp::Engine::Bytecode, {.fuse = fuse});
    SCOPED_TRACE(str::cat(fuse ? "fused" : "unfused", "\n", source));
    EXPECT_EQ(oracle.clean, got.clean);
    EXPECT_EQ(oracle.deadlock, got.deadlock);
    EXPECT_EQ(oracle.abort, got.abort);
    EXPECT_EQ(oracle.output, got.output);
  }
}

INSTANTIATE_TEST_SUITE_P(EngineParity, PropertyEngineParity,
                         ::testing::Range<uint64_t>(1, 41));

} // namespace
} // namespace parcoach
