// Unit tests: deterministic fault injection — plan parsing, rank-crash
// propagation with precise diagnostics on both the direct API and both
// execution engines, abort robustness (concurrent / double / mid-split),
// the watchdog escalation ladder, mpi_abort language semantics, and the
// zero-overhead-when-off contract as exact hook counts.
#include "support/fault.h"

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "simmpi/world.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <atomic>

namespace parcoach {
namespace {

// ---- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlan, ParseRoundTrip) {
  std::string err;
  const auto plan = FaultPlan::parse(R"(# chaos schedule for issue 42
seed = 7
crash_rank = 1
crash_at = 3

delay_num = 1
delay_den = 8
max_delay_us = 200
jitter_num = 1
jitter_den = 4
pct_num = 1
pct_den = 2
)",
                                     err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_EQ(plan->crash_rank, 1);
  EXPECT_EQ(plan->crash_at, 3u);
  EXPECT_EQ(plan->delay_num, 1u);
  EXPECT_EQ(plan->delay_den, 8u);
  EXPECT_EQ(plan->max_delay_us, 200u);
  EXPECT_EQ(plan->jitter_num, 1u);
  EXPECT_EQ(plan->pct_den, 2u);
  EXPECT_TRUE(plan->any());
}

TEST(FaultPlan, ParseEmptyArmsNothing) {
  std::string err;
  const auto plan = FaultPlan::parse("# nothing armed\n", err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_FALSE(plan->any());
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(FaultPlan::parse("bogus_key = 1\n", err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(FaultPlan::parse("seed = notanumber\n", err).has_value());
  EXPECT_FALSE(FaultPlan::parse("seed 7\n", err).has_value());
  EXPECT_FALSE(FaultPlan::parse("delay_den = 0\n", err).has_value());
}

// A typo'd plan must be rejected with a diagnostic naming the exact line —
// not silently truncated into a uint32 schedule the author never wrote.
TEST(FaultPlan, ParseRejectsOutOfRangeValuesWithLineNumbers) {
  std::string err;

  // crash_rank = -2: only -1 (disabled) or a rank index makes sense.
  EXPECT_FALSE(
      FaultPlan::parse("seed = 1\ncrash_rank = -2\n", err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("crash_rank"), std::string::npos) << err;

  // Negative arrival index.
  EXPECT_FALSE(FaultPlan::parse("crash_at = -1\n", err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;

  // Negative count would wrap through the uint32 cast.
  EXPECT_FALSE(FaultPlan::parse("delay_num = -3\n", err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;

  // Value too large for a uint32 field.
  EXPECT_FALSE(
      FaultPlan::parse("# comment\n\njitter_num = 4294967296\n", err)
          .has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  // Zero denominator, diagnosed at its line (not only by the final sweep).
  EXPECT_FALSE(FaultPlan::parse("seed = 1\n\npct_den = 0\n", err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  // The classic ms/us mixup: an hour-long "microsecond" delay.
  EXPECT_FALSE(
      FaultPlan::parse("max_delay_us = 3600000000\n", err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;

  // Probability above 1 is a typo, not a schedule.
  EXPECT_FALSE(
      FaultPlan::parse("delay_num = 9\ndelay_den = 4\n", err).has_value());
  EXPECT_NE(err.find("numerator"), std::string::npos) << err;

  // A valid plan still parses after all the gating.
  EXPECT_TRUE(
      FaultPlan::parse("crash_rank = -1\ncrash_at = 0\n", err).has_value())
      << err;
}

TEST(FaultPlan, ChaosIsDeterministicPerSeed) {
  const auto a = FaultPlan::chaos(42, 4);
  const auto b = FaultPlan::chaos(42, 4);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_TRUE(a.any());
  EXPECT_GE(a.crash_rank, 0);
  EXPECT_LT(a.crash_rank, 4);
  // Different seeds should (typically) give different schedules.
  EXPECT_NE(FaultPlan::chaos(1, 4).str(), FaultPlan::chaos(2, 4).str());
}

TEST(FaultInjector, EffectiveFiltersInertPlans) {
  FaultPlan inert;
  FaultInjector inert_inj(inert, 2);
  EXPECT_EQ(FaultInjector::effective(nullptr), nullptr);
  EXPECT_EQ(FaultInjector::effective(&inert_inj), nullptr);

  FaultPlan armed;
  armed.crash_rank = 0;
  FaultInjector armed_inj(armed, 2);
  EXPECT_EQ(FaultInjector::effective(&armed_inj), &armed_inj);

  FaultPlan disabled = armed;
  disabled.enabled = false;
  FaultInjector disabled_inj(disabled, 2);
  EXPECT_EQ(FaultInjector::effective(&disabled_inj), nullptr);
}

// ---- Rank crash on the direct API ------------------------------------------

simmpi::World::Options fault_world(int32_t ranks, FaultInjector* inj) {
  simmpi::World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(2000);
  o.fault = inj;
  return o;
}

TEST(FaultCrash, RankDiesInAllreduceWithPreciseDiagnostic) {
  FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at = 0;
  FaultInjector inj(plan, 2);
  simmpi::World w(fault_world(2, &inj));
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    mpi.allreduce(mpi.rank(), simmpi::ReduceOp::Sum);
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_EQ(rep.abort_reason,
            "rank 1 died in MPI_Allreduce[sum] @MPI_COMM_WORLD");
  EXPECT_EQ(inj.crashes_fired(), 1u);
  // The survivor parked on the slot unwinds with the same reason.
  ASSERT_EQ(rep.rank_errors.size(), 2u);
  EXPECT_NE(rep.rank_errors[0].find("rank 1 died in"), std::string::npos)
      << rep.rank_errors[0];
}

TEST(FaultCrash, NthCollectiveSelectsTheRightSite) {
  FaultPlan plan;
  plan.crash_rank = 0;
  plan.crash_at = 2; // barrier(0), barrier(1), bcast(2) <- dies here
  FaultInjector inj(plan, 3);
  simmpi::World w(fault_world(3, &inj));
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    mpi.barrier();
    mpi.barrier();
    mpi.bcast(7, 0);
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_EQ(rep.abort_reason, "rank 0 died in MPI_Bcast(root=0) @MPI_COMM_WORLD");
}

TEST(FaultCrash, CrashBeyondProgramLengthIsArmedNoOp) {
  FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at = 1000;
  FaultInjector inj(plan, 2);
  simmpi::World w(fault_world(2, &inj));
  std::atomic<int64_t> sum{0};
  const auto rep = w.run([&](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    sum = mpi.allreduce(mpi.rank() + 1, simmpi::ReduceOp::Sum);
    mpi.finalize();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(sum.load(), 3);
  EXPECT_EQ(inj.crashes_fired(), 0u);
}

TEST(FaultCrash, DelayAndJitterOnlyPlanStaysClean) {
  FaultPlan plan;
  plan.seed = 99;
  plan.delay_num = 1;
  plan.delay_den = 2;
  plan.max_delay_us = 100;
  plan.jitter_num = 1;
  plan.jitter_den = 2;
  FaultInjector inj(plan, 3);
  simmpi::World w(fault_world(3, &inj));
  std::atomic<int> ok{0};
  const auto rep = w.run([&](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    if (mpi.allreduce(mpi.rank(), simmpi::ReduceOp::Sum) == 3) ok.fetch_add(1);
    if (mpi.bcast(mpi.rank() == 1 ? 42 : 0, 1) == 42) ok.fetch_add(1);
    mpi.send(mpi.rank(), (mpi.rank() + 1) % 3, 5);
    if (mpi.recv((mpi.rank() + 2) % 3, 5) == (mpi.rank() + 2) % 3)
      ok.fetch_add(1);
    mpi.finalize();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_EQ(ok.load(), 9);
}

// ---- Abort robustness -------------------------------------------------------

TEST(FaultAbort, ConcurrentAbortsFirstReasonWins) {
  for (int iter = 0; iter < 20; ++iter) {
    simmpi::World::Options o;
    o.num_ranks = 4;
    o.hang_timeout = std::chrono::milliseconds(2000);
    simmpi::World w(o);
    const auto rep = w.run([](simmpi::Rank& mpi) {
      mpi.init(ir::ThreadLevel::Multiple);
      mpi.abort("stop from rank " + std::to_string(mpi.rank()));
    });
    EXPECT_TRUE(rep.aborted);
    // Exactly one of the four candidate reasons, stable for the whole run.
    EXPECT_EQ(rep.abort_reason.rfind("stop from rank ", 0), 0u)
        << rep.abort_reason;
  }
}

TEST(FaultAbort, DoubleAbortKeepsFirstReason) {
  simmpi::World::Options o;
  o.num_ranks = 2;
  o.hang_timeout = std::chrono::milliseconds(2000);
  simmpi::World w(o);
  const auto rep = w.run([](simmpi::Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.abort("first");
      mpi.abort("second");
    }
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_EQ(rep.abort_reason, "first");
}

TEST(FaultAbort, AbortMidCommSplitReleasesParentMembers) {
  // Ranks 0 and 1 park inside the comm_split creation event; rank 2 aborts
  // instead of joining. Both parked members must unwind promptly.
  simmpi::World::Options o;
  o.num_ranks = 3;
  o.hang_timeout = std::chrono::milliseconds(5000); // must not be needed
  simmpi::World w(o);
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    if (mpi.rank() == 2) {
      mpi.abort("rank 2 bails before the split");
      return;
    }
    mpi.comm_split(simmpi::Rank::kCommWorld, 0, mpi.rank());
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_EQ(rep.abort_reason, "rank 2 bails before the split");
  ASSERT_EQ(rep.rank_errors.size(), 3u);
  EXPECT_FALSE(rep.rank_errors[0].empty());
  EXPECT_FALSE(rep.rank_errors[1].empty());
}

// ---- Watchdog escalation ladder --------------------------------------------

TEST(FaultLadder, SoftDeadlineCapturesStallThenDeadlockStillFires) {
  simmpi::World::Options o;
  o.num_ranks = 2;
  o.soft_deadline = std::chrono::milliseconds(60);
  o.hang_timeout = std::chrono::milliseconds(250);
  simmpi::World w(o);
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    if (mpi.rank() == 0) mpi.barrier(); // rank 1 never joins
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.stall_report.find("soft deadline"), std::string::npos)
      << rep.stall_report;
  EXPECT_NE(rep.stall_report.find("MPI_Barrier"), std::string::npos)
      << rep.stall_report;
  EXPECT_NE(rep.deadlock_details.find("MPI_Barrier"), std::string::npos);
}

TEST(FaultLadder, SoftDeadlineAloneDoesNotAbortACleanRun) {
  simmpi::World::Options o;
  o.num_ranks = 2;
  o.soft_deadline = std::chrono::milliseconds(10);
  o.hang_timeout = std::chrono::milliseconds(2000);
  simmpi::World w(o);
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    // Stall long enough for the soft stage, then finish normally.
    if (mpi.rank() == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    mpi.barrier();
    mpi.finalize();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
}

TEST(FaultLadder, HardDeadlineBoundsABusyLoopingRun) {
  simmpi::World::Options o;
  o.num_ranks = 2;
  o.hang_timeout = std::chrono::milliseconds(60'000); // progress => never fires
  o.hard_deadline = std::chrono::milliseconds(200);
  simmpi::World w(o);
  const auto start = std::chrono::steady_clock::now();
  const auto rep = w.run([](simmpi::Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    while (true) mpi.barrier(); // endless progress
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(rep.aborted);
  EXPECT_NE(rep.abort_reason.find("hard deadline exceeded"), std::string::npos)
      << rep.abort_reason;
  // Teardown is bounded: well under the (disabled) hang timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

// ---- Compiled programs: crash + mpi_abort on both engines ------------------

struct Ran {
  interp::ExecResult result;
  SourceManager sm;
  DiagnosticEngine diags;
  driver::CompileResult compiled;
};

std::unique_ptr<Ran> run_engine(const std::string& src, interp::Engine engine,
                                FaultInjector* inj, int32_t ranks = 2) {
  auto r = std::make_unique<Ran>();
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::Baseline;
  popts.optimize = false;
  r->compiled = driver::compile(r->sm, "t", src, r->diags, popts);
  EXPECT_TRUE(r->compiled.ok) << r->diags.to_text(r->sm);
  interp::Executor exec(r->compiled.program, r->sm, nullptr);
  interp::ExecOptions eopts;
  eopts.num_ranks = ranks;
  eopts.engine = engine;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(2000);
  eopts.mpi.fault = inj;
  r->result = exec.run(eopts);
  return r;
}

constexpr const char* kAllreduceProg = R"(func main() {
  mpi_init(multiple);
  var s = mpi_allreduce(rank() + 1, sum);
  print(s);
  mpi_finalize();
})";

TEST(FaultEngines, CrashNamesDeadRankAndSiteOnBothEngines) {
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    FaultPlan plan;
    plan.crash_rank = 1;
    plan.crash_at = 0;
    FaultInjector inj(plan, 2);
    auto r = run_engine(kAllreduceProg, engine, &inj);
    EXPECT_TRUE(r->result.mpi.aborted) << to_string(engine);
    EXPECT_EQ(r->result.mpi.abort_reason,
              "rank 1 died in MPI_Allreduce[sum] @MPI_COMM_WORLD")
        << to_string(engine);
  }
}

constexpr const char* kMpiAbortProg = R"(func main() {
  mpi_init(multiple);
  if (rank() == 1) {
    mpi_abort(3);
  }
  mpi_barrier();
  mpi_finalize();
})";

TEST(FaultEngines, MpiAbortIsByteIdenticalAcrossEngines) {
  auto ast = run_engine(kMpiAbortProg, interp::Engine::Ast, nullptr);
  auto bc = run_engine(kMpiAbortProg, interp::Engine::Bytecode, nullptr);
  EXPECT_TRUE(ast->result.mpi.aborted);
  EXPECT_TRUE(bc->result.mpi.aborted);
  EXPECT_EQ(ast->result.mpi.abort_reason, "rank 1: mpi_abort(3)");
  EXPECT_EQ(bc->result.mpi.abort_reason, ast->result.mpi.abort_reason);
  EXPECT_EQ(bc->result.output, ast->result.output);
}

TEST(FaultEngines, MpiAbortCodeIsAnExpression) {
  auto r = run_engine(R"(func main() {
    mpi_init(multiple);
    mpi_abort(rank() * 10 + 7);
  })",
                      interp::Engine::Bytecode, nullptr, 1);
  EXPECT_TRUE(r->result.mpi.aborted);
  EXPECT_EQ(r->result.mpi.abort_reason, "rank 0: mpi_abort(7)");
}

TEST(FaultEngines, DelayJitterPctPlanKeepsCleanProgramClean) {
  FaultPlan plan;
  plan.seed = 5;
  plan.delay_num = 1;
  plan.delay_den = 2;
  plan.max_delay_us = 100;
  plan.jitter_num = 1;
  plan.jitter_den = 2;
  plan.pct_num = 1;
  plan.pct_den = 2;
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    FaultInjector inj(plan, 2);
    auto faulty = run_engine(R"(func main() {
      mpi_init(multiple);
      var total = 0;
      omp parallel num_threads(2) {
        omp critical {
          total = total + 1;
        }
      }
      var s = mpi_allreduce(total, sum);
      print(s);
      mpi_finalize();
    })",
                             engine, &inj);
    EXPECT_TRUE(faulty->result.clean)
        << to_string(engine) << ": " << faulty->result.mpi.abort_reason;
    ASSERT_EQ(faulty->result.output.size(), 2u) << to_string(engine);
    EXPECT_EQ(faulty->result.output[0], "rank 0: 4");
  }
}

// ---- Zero overhead when off: exact hook counts ------------------------------
//
// Every component caches FaultInjector::effective(), so a disabled injector is
// never reached and an idle one costs exactly one count per collective
// arrival. Both contracts are checked by counts, not timings, on the
// funneled-barrier kernel: 2 ranks x 2 threads, where each team's master
// calls mpi_barrier between two team barriers.

constexpr int kFunneledIters = 150;
// Rank 0's collective arrivals: one mpi_barrier per iteration, then
// mpi_finalize.
constexpr uint64_t kFunneledArrivals = kFunneledIters + 1;

std::string funneled_barrier() {
  return str::cat("func main() {\n  mpi_init(serialized);\n"
                  "  for (r = 0 to ", kFunneledIters, ") {\n"
                  "    omp parallel num_threads(2) {\n"
                  "      omp barrier;\n"
                  "      omp master {\n"
                  "        mpi_barrier();\n"
                  "      }\n"
                  "      omp barrier;\n"
                  "    }\n"
                  "  }\n  mpi_finalize();\n}\n");
}

TEST(FaultOff, DisabledInjectorIsNeverReached) {
  // Armed to fire at rank 0's first arrival. should_crash does not check
  // `enabled`, so any hook that bypasses effective() fires the crash.
  FaultPlan plan;
  plan.enabled = false;
  plan.crash_rank = 0;
  plan.crash_at = 0;
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    FaultInjector inj(plan, 2);
    auto r = run_engine(funneled_barrier(), engine, &inj);
    EXPECT_TRUE(r->result.clean)
        << to_string(engine) << ": " << r->result.mpi.abort_reason;
    EXPECT_EQ(inj.crashes_fired(), 0u) << to_string(engine);
  }
}

TEST(FaultOff, IdleInjectorCountsEachCollectiveArrivalOnce) {
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    // The last arrival is the crash site: every earlier one counted once.
    FaultPlan last;
    last.crash_rank = 0;
    last.crash_at = kFunneledArrivals - 1;
    FaultInjector fires(last, 2);
    auto r = run_engine(funneled_barrier(), engine, &fires);
    EXPECT_TRUE(r->result.mpi.aborted) << to_string(engine);
    EXPECT_EQ(r->result.mpi.abort_reason,
              "rank 0 died in MPI_Finalize @MPI_COMM_WORLD")
        << to_string(engine);
    EXPECT_EQ(fires.crashes_fired(), 1u) << to_string(engine);

    // One past the last arrival is never reached.
    FaultPlan beyond = last;
    beyond.crash_at = kFunneledArrivals;
    FaultInjector idle(beyond, 2);
    auto clean = run_engine(funneled_barrier(), engine, &idle);
    EXPECT_TRUE(clean->result.clean)
        << to_string(engine) << ": " << clean->result.mpi.abort_reason;
    EXPECT_EQ(idle.crashes_fired(), 0u) << to_string(engine);
  }
}

} // namespace
} // namespace parcoach
