// Chaos differential harness: every corpus entry runs under K seeded fault
// schedules (rank crash + delayed arrivals + park/wake jitter + PCT-style
// thread perturbation) on BOTH execution engines. Invariants:
//   - zero hangs: every run resolves (clean, caught, aborted, or reported
//     deadlock) within the watchdog bound;
//   - a fired crash surfaces as a world abort (fail-stop entries) or a
//     completed recovery (return-mode errhandler entries), never a hang;
//   - timing-only schedules never change a Clean entry's outcome;
//   - per-seed reports are byte-reproducible on deterministic entries.
#include "fault_harness.h"
#include "workloads/corpus.h"

#include <gtest/gtest.h>

namespace parcoach {
namespace {

using workloads::CorpusEntry;
using workloads::DynamicOutcome;

constexpr uint64_t kSeeds = 20;

class ChaosTest : public ::testing::TestWithParam<CorpusEntry> {};

FaultRun run_chaos(const driver::CompileResult& r, const SourceManager& sm,
                   const CorpusEntry& e, interp::Engine engine, uint64_t seed) {
  return run_under_faults(
      r, sm, &r.plan, e.ranks, e.threads, engine, seed,
      FaultPlan::chaos(seed, e.ranks),
      std::chrono::milliseconds(
          e.dynamic == DynamicOutcome::DeadlockReported ? 300 : 2500));
}

TEST_P(ChaosTest, SeededFaultSchedulesNeverHang) {
  const CorpusEntry& e = GetParam();
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, e.name, e.source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  // Entries that install a return-mode errhandler survive crashes instead of
  // fail-stopping, so the "fired crash => world abort" invariant splits.
  const bool return_mode =
      e.source.find("mpi_comm_set_errhandler") != std::string::npos;

  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(std::string(to_string(engine)) +
                   " seed=" + std::to_string(seed));
      const auto run = run_chaos(r, sm, e, engine, seed);
      // The run resolved (returning at all is the no-hang invariant; the
      // watchdog converting a stall into a report counts as resolving).
      if (run.crashes > 0 && return_mode) {
        // A fired crash on a return-mode entry is absorbed by the recovery
        // path: the survivors must complete (clean) — or, if the crash beat
        // the errhandler installation, fail-stop — but the injected death
        // must never be misdiagnosed as a deadlock.
        EXPECT_FALSE(run.result.mpi.deadlock)
            << run.result.mpi.deadlock_details;
        EXPECT_TRUE(run.result.clean || run.result.mpi.aborted)
            << "crash fired on a return-mode entry but the survivors "
               "neither recovered nor fail-stopped: "
            << run.result.mpi.abort_reason;
      } else if (run.crashes > 0) {
        // A fired crash kills the world: the run must end aborted — the
        // injected death must never be misdiagnosed as a deadlock.
        EXPECT_TRUE(run.result.mpi.aborted)
            << "crash fired but world did not abort";
        EXPECT_FALSE(run.result.mpi.deadlock)
            << run.result.mpi.deadlock_details;
      } else if (e.dynamic == DynamicOutcome::Clean) {
        // No crash fired: delay/jitter/PCT faults are timing-only and must
        // not change a correct program's outcome.
        EXPECT_TRUE(run.result.clean)
            << run.result.mpi.abort_reason << "\n"
            << run.result.mpi.deadlock_details;
      }
    }
  }
}

// Per-seed reports are byte-reproducible: same seed, same engine => same
// outcome, same diagnostic, same output. Restricted to OpenMP-free
// deterministic entries — with real team concurrency the Nth-arrival counter
// of the dying rank can race between its own threads, which moves the crash
// site between runs (the schedule of *decisions* is still fixed).
TEST_P(ChaosTest, PerSeedReportsAreReproducible) {
  const CorpusEntry& e = GetParam();
  if (e.dynamic != DynamicOutcome::Clean ||
      e.source.find("omp parallel") != std::string::npos)
    GTEST_SKIP() << "only OpenMP-free deterministic entries";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, e.name, e.source, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  for (const uint64_t seed : {uint64_t{4}, uint64_t{11}}) {
    for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
      SCOPED_TRACE(std::string(to_string(engine)) +
                   " seed=" + std::to_string(seed));
      const auto a = run_chaos(r, sm, e, engine, seed);
      const auto b = run_chaos(r, sm, e, engine, seed);
      EXPECT_EQ(a.crashes, b.crashes);
      EXPECT_EQ(a.result.clean, b.result.clean);
      EXPECT_EQ(a.result.mpi.aborted, b.result.mpi.aborted);
      EXPECT_EQ(a.result.mpi.abort_reason, b.result.mpi.abort_reason);
      EXPECT_EQ(a.result.output, b.result.output);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ChaosTest,
                         ::testing::ValuesIn(workloads::corpus()),
                         [](const ::testing::TestParamInfo<CorpusEntry>& info) {
                           return info.param.name;
                         });

} // namespace
} // namespace parcoach
