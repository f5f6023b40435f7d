// Chaos-recovery proof: the ULFM-style recovery entries survive a guaranteed
// rank crash under many seeded fault schedules, on BOTH engines, with the
// bytecode engine fused and unfused, and under both instrumentation plans.
// Invariants:
//   - every run completes a clean shrunk-world run: no abort, no deadlock,
//     the dead rank in the failure census, exactly one shrink;
//   - per-seed reports are byte-reproducible (same seed => same report);
//   - the AST and bytecode engines are observationally identical;
//   - with the errhandler left at its default (abort), the same crash
//     fail-stops the world exactly as it did before recovery existed.
#include "core/instrumentation.h"
#include "fault_harness.h"
#include "workloads/corpus.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace parcoach {
namespace {

using workloads::CorpusEntry;

constexpr uint64_t kSeeds = 12; // >= 10 distinct crash schedules per entry

// The recovery harness: the three ULFM corpus entries. Each installs a
// return-mode errhandler and routes survivors through shrink/agree.
const char* kRecoveryEntries[] = {"ft_shrink_continue", "ft_revoke_divergent",
                                  "ft_agree_after_crash"};

// Seed -> a fault schedule whose crash is guaranteed to fire: the chaos
// plan contributes seed-varied arrival delays and park/wake jitter, and the
// crash site is pinned to the dying rank's first collective arrival (the
// world allreduce every recovery entry opens with). The dying rank itself
// rotates with the seed so every position in the world gets killed.
FaultPlan crash_plan(uint64_t seed, int32_t ranks) {
  FaultPlan p = FaultPlan::chaos(seed, ranks);
  p.crash_rank = static_cast<int32_t>(seed % static_cast<uint64_t>(ranks));
  p.crash_at = 0;
  return p;
}

FaultRun run_one(const driver::CompileResult& r, const SourceManager& sm,
                 const core::InstrumentationPlan* plan, const CorpusEntry& e,
                 interp::Engine engine, uint64_t seed) {
  return run_under_faults(r, sm, plan, e.ranks, e.threads, engine, seed,
                          crash_plan(seed, e.ranks),
                          std::chrono::milliseconds(2500));
}

class RecoveryTest : public ::testing::TestWithParam<const char*> {};

// The survivability contract: a fired crash on a return-mode world must end
// in a completed shrunk-world run — never an abort, never a deadlock report,
// never a hang — with the death and the recovery in the census.
TEST_P(RecoveryTest, CrashAlwaysEndsInCleanShrunkWorld) {
  const CorpusEntry& e = workloads::corpus_entry(GetParam());
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, e.name, e.source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(std::string(to_string(engine)) +
                   " seed=" + std::to_string(seed));
      const int32_t dead =
          static_cast<int32_t>(seed % static_cast<uint64_t>(e.ranks));
      const auto run = run_one(r, sm, &r.plan, e, engine, seed);
      EXPECT_EQ(run.crashes, 1u) << "pinned crash did not fire";
      EXPECT_FALSE(run.result.mpi.aborted) << run.result.mpi.abort_reason;
      EXPECT_FALSE(run.result.mpi.deadlock)
          << run.result.mpi.deadlock_details;
      EXPECT_TRUE(run.result.clean);
      ASSERT_EQ(run.result.mpi.ranks_failed.size(), 1u);
      EXPECT_EQ(run.result.mpi.ranks_failed[0], dead);
      EXPECT_EQ(run.result.mpi.comms_shrunk, 1u);
      if (e.name == std::string("ft_revoke_divergent")) {
        // Rank 0 is the revoker; when the seed kills rank 0 itself the
        // survivors shrink an unrevoked world instead.
        EXPECT_EQ(run.result.mpi.comms_revoked, dead == 0 ? 0u : 1u);
      }
      // Every survivor reached its print: the recovery collectives on the
      // shrunk comm completed with all members.
      EXPECT_EQ(run.result.output.size(),
                static_cast<size_t>(e.ranks - 1));
    }
  }
}

// Byte-reproducibility and engine parity in one sweep: for each seed the
// AST run, the bytecode run (under the seed's pass config), and a repeat of
// each must produce byte-identical reports — clean flag, census, the dead
// rank's error line, and the survivors' output.
TEST_P(RecoveryTest, PerSeedReportsAreByteIdenticalAcrossEnginesAndRuns) {
  const CorpusEntry& e = workloads::corpus_entry(GetParam());
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, e.name, e.source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto ast = run_one(r, sm, &r.plan, e, interp::Engine::Ast, seed);
    const auto ast2 = run_one(r, sm, &r.plan, e, interp::Engine::Ast, seed);
    const auto bc =
        run_one(r, sm, &r.plan, e, interp::Engine::Bytecode, seed);
    const auto bc2 =
        run_one(r, sm, &r.plan, e, interp::Engine::Bytecode, seed);
    for (const auto* other : {&ast2, &bc, &bc2}) {
      EXPECT_EQ(ast.crashes, other->crashes);
      EXPECT_EQ(ast.result.clean, other->result.clean);
      EXPECT_EQ(ast.result.mpi.aborted, other->result.mpi.aborted);
      EXPECT_EQ(ast.result.mpi.abort_reason, other->result.mpi.abort_reason);
      EXPECT_EQ(ast.result.mpi.ranks_failed, other->result.mpi.ranks_failed);
      EXPECT_EQ(ast.result.mpi.comms_shrunk, other->result.mpi.comms_shrunk);
      EXPECT_EQ(ast.result.mpi.comms_revoked,
                other->result.mpi.comms_revoked);
      EXPECT_EQ(ast.result.mpi.rank_errors, other->result.mpi.rank_errors);
      EXPECT_EQ(ast.result.output, other->result.output);
    }
  }
}

// Satellite parity matrix: error-status forms and revoke/shrink/agree under
// {fused, unfused} bytecode x {selective, program-wide} plans. The
// AST engine under the same plan is the oracle for each cell.
TEST_P(RecoveryTest, StatusFormsMatchAcrossPassConfigsAndPlans) {
  const CorpusEntry& e = workloads::corpus_entry(GetParam());
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  popts.verify_ir = true;
  const auto r = driver::compile(sm, e.name, e.source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  const auto programwide =
      core::make_programwide_plan(*r.module, r.phases, r.algorithm1);

  const struct {
    const char* name;
    const core::InstrumentationPlan* plan;
  } plans[] = {{"selective", &r.plan}, {"programwide", &programwide}};
  const uint64_t kCfgSeeds[] = {0, 1, 2, 3, 4}; // both pass configs

  for (const auto& p : plans) {
    for (const uint64_t seed : kCfgSeeds) {
      SCOPED_TRACE(std::string(p.name) + " seed=" + std::to_string(seed));
      const auto ast = run_one(r, sm, p.plan, e, interp::Engine::Ast, seed);
      const auto bc =
          run_one(r, sm, p.plan, e, interp::Engine::Bytecode, seed);
      EXPECT_EQ(ast.result.clean, bc.result.clean);
      EXPECT_EQ(ast.result.mpi.aborted, bc.result.mpi.aborted);
      EXPECT_EQ(ast.result.mpi.abort_reason, bc.result.mpi.abort_reason);
      EXPECT_EQ(ast.result.mpi.rank_errors, bc.result.mpi.rank_errors);
      EXPECT_EQ(ast.result.output, bc.result.output);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, RecoveryTest,
                         ::testing::ValuesIn(kRecoveryEntries),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// Error-status forms on point-to-point ops: a receive from (and a wait on a
// request involving) a dead peer must resolve to a stored failure status,
// identically on both engines.
TEST(RecoveryP2pTest, RecvFromDeadPeerStoresFailureStatus) {
  const char* src = R"(func main() {
  mpi_init(single);
  mpi_comm_set_errhandler(1);
  var st = mpi_allreduce(1, sum);
  if (st < 0) {
    var v = mpi_recv(1, 7);
    print(v);
  } else {
    print(st);
  }
  mpi_finalize();
}
)";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, "ft_recv_dead_peer", src, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  std::vector<interp::ExecResult> results;
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    FaultPlan plan;
    plan.crash_rank = 1;
    plan.crash_at = 0;
    FaultInjector inj(plan, 4);
    interp::Executor exec(r.program, sm, &r.plan);
    interp::ExecOptions opts;
    opts.engine = engine;
    opts.num_ranks = 4;
    opts.mpi.fault = &inj;
    opts.mpi.hang_timeout = std::chrono::milliseconds(2500);
    results.push_back(exec.run(opts));
    const auto& res = results.back();
    SCOPED_TRACE(to_string(engine));
    EXPECT_FALSE(res.mpi.aborted) << res.mpi.abort_reason;
    EXPECT_FALSE(res.mpi.deadlock) << res.mpi.deadlock_details;
    // Every survivor stored the failure status (-1) instead of hanging on
    // the dead sender.
    EXPECT_EQ(res.output.size(), 3u);
    for (const auto& line : res.output)
      EXPECT_NE(line.find("-1"), std::string::npos) << line;
  }
  EXPECT_EQ(results[0].output, results[1].output);
  EXPECT_EQ(results[0].mpi.rank_errors, results[1].mpi.rank_errors);
}

// Abort-mode regression: the identical crash on a world whose errhandler was
// never touched must fail-stop exactly as it did before recovery existed —
// same abort, same reason, byte-identical across engines and repeats.
TEST(RecoveryAbortModeTest, DefaultErrhandlerStillFailStops) {
  const char* src = R"(func main() {
  mpi_init(single);
  var st = mpi_allreduce(1, sum);
  print(st);
  mpi_finalize();
}
)";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, "ft_abort_mode", src, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  auto run_abort = [&](interp::Engine engine, uint64_t seed) {
    return run_under_faults(r, sm, &r.plan, 4, 2, engine, seed,
                            crash_plan(seed, 4),
                            std::chrono::milliseconds(2500))
        .result;
  };

  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto ast = run_abort(interp::Engine::Ast, seed);
    const auto ast2 = run_abort(interp::Engine::Ast, seed);
    const auto bc = run_abort(interp::Engine::Bytecode, seed);
    for (const auto* res : {&ast, &ast2, &bc}) {
      EXPECT_TRUE(res->mpi.aborted) << "crash fired but world did not abort";
      EXPECT_FALSE(res->mpi.deadlock) << res->mpi.deadlock_details;
      EXPECT_FALSE(res->clean);
      EXPECT_EQ(res->mpi.comms_shrunk, 0u);
      EXPECT_EQ(res->mpi.comms_revoked, 0u);
    }
    EXPECT_EQ(ast.mpi.abort_reason, ast2.mpi.abort_reason);
    EXPECT_EQ(ast.mpi.abort_reason, bc.mpi.abort_reason);
    EXPECT_EQ(ast.output, bc.output);
  }
}

} // namespace
} // namespace parcoach
