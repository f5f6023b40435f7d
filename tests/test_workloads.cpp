// Unit tests: workload generators — the five Figure-1 subjects must parse,
// pass sema, lower, verify and analyze cleanly at realistic scale, the
// corpus table must be internally consistent, and the end-to-end
// benchmark's executing workloads must do exactly the work recorded below.
//
// The exact work counts are machine-independent: a change that alters one
// of them must update it here and say so in CHANGES.md.
#include "core/instrumentation.h"
#include "driver/pipeline.h"
#include "driver/report.h"
#include "interp/bytecode.h"
#include "interp/executor.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/workloads.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

namespace parcoach::workloads {
namespace {

class Figure1SuiteTest : public ::testing::TestWithParam<GeneratedProgram> {};

TEST_P(Figure1SuiteTest, CompilesAndAnalyzesCleanly) {
  const GeneratedProgram& g = GetParam();
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.verify_ir = true;
  const auto r = driver::compile(sm, g.name, g.source, diags, opts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  // The suites are hybrid-clean: no phase-1/2 findings, no thread-level
  // violations. Algorithm 1 may flag loop/uniform conditionals
  // (conservative), which is exactly the paper's false-positive story.
  EXPECT_EQ(diags.count(DiagKind::MultithreadedCollective), 0u)
      << diags.to_text(sm);
  EXPECT_EQ(diags.count(DiagKind::ConcurrentCollectives), 0u);
  EXPECT_EQ(diags.count(DiagKind::ThreadLevelViolation), 0u);
}

TEST_P(Figure1SuiteTest, HasRealisticScale) {
  const GeneratedProgram& g = GetParam();
  EXPECT_GT(g.code_lines, 400u) << g.name << " too small to be meaningful";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::Warnings;
  const auto r = driver::compile(sm, g.name, g.source, diags, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.program.funcs.size(), 5u);
  const auto census = driver::census_of(g.name, r, diags);
  EXPECT_GE(census.collectives, 4u) << "suites must communicate";
  EXPECT_GE(census.parallel_regions, 3u) << "suites must be hybrid";
}

TEST_P(Figure1SuiteTest, GenerationIsDeterministic) {
  const GeneratedProgram& g = GetParam();
  for (const auto& again : figure1_suite()) {
    if (again.name == g.name) {
      EXPECT_EQ(again.source, g.source);
      return;
    }
  }
  FAIL() << "subject disappeared from the suite";
}

INSTANTIATE_TEST_SUITE_P(Workloads, Figure1SuiteTest,
                         ::testing::ValuesIn(figure1_suite()),
                         [](const auto& info) { return info.param.name; });

TEST(Workloads, SuiteHasThePaperSubjectsInOrder) {
  const auto suite = figure1_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "bt_mz");
  EXPECT_EQ(suite[1].name, "sp_mz");
  EXPECT_EQ(suite[2].name, "lu_mz");
  EXPECT_EQ(suite[3].name, "epcc_suite");
  EXPECT_EQ(suite[4].name, "hera");
}

TEST(Workloads, ScaleParametersGrowPrograms) {
  NpbParams small;
  small.zones = 2;
  small.stages = 2;
  NpbParams big;
  big.zones = 8;
  big.stages = 8;
  EXPECT_GT(make_npb_mz(NpbVariant::BT, big).code_lines,
            2 * make_npb_mz(NpbVariant::BT, small).code_lines);

  HeraParams hsmall;
  hsmall.packages = 2;
  hsmall.kernels = 2;
  HeraParams hbig;
  hbig.packages = 8;
  hbig.kernels = 8;
  EXPECT_GT(make_hera(hbig).code_lines, 3 * make_hera(hsmall).code_lines);
}

TEST(Workloads, EpccCoversThreadModels) {
  const auto g = make_epcc_suite(EpccParams{});
  EXPECT_TRUE(str::contains(g.source, "_masteronly"));
  EXPECT_TRUE(str::contains(g.source, "_funnelled"));
  EXPECT_TRUE(str::contains(g.source, "_serialized"));
  EXPECT_TRUE(str::contains(g.source, "omp master"));
  EXPECT_TRUE(str::contains(g.source, "omp single"));
}

TEST(Workloads, NpbZoneCommsCompileAndRunClean) {
  // The per-zone-comm MZ variant: one split communicator per zone, boundary
  // exchange per comm. Must stay hybrid-clean statically (constant colors)
  // and execute clean end-to-end with one live comm per zone.
  NpbParams p;
  p.zones = 3;
  p.steps = 2;
  p.stages = 2;
  p.threads = 2;
  p.zone_comms = true;
  const auto g = make_npb_mz(NpbVariant::SP, p);
  EXPECT_EQ(g.name, "sp_mz_zc");
  EXPECT_TRUE(str::contains(g.source, "mpi_comm_split"));
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.verify_ir = true;
  const auto r = driver::compile(sm, g.name, g.source, diags, opts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  EXPECT_EQ(diags.count(DiagKind::MultithreadedCollective), 0u)
      << diags.to_text(sm);
  EXPECT_EQ(diags.count(DiagKind::ConcurrentCollectives), 0u);

  interp::Executor exec(r.program, sm, &r.plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
  const auto res = exec.run(eopts);
  EXPECT_TRUE(res.clean) << res.mpi.abort_reason << "\n"
                         << res.mpi.deadlock_details;
  EXPECT_EQ(res.mpi.comms_created, 3u);
}

TEST(Workloads, HeraHasTheRegridFalsePositiveShape) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::Warnings;
  const auto g = make_hera(HeraParams{});
  const auto r = driver::compile(sm, g.name, g.source, diags, opts);
  ASSERT_TRUE(r.ok);
  // Unfiltered Algorithm 1 flags conditionals; the rank-taint refinement
  // must remove some of them (the Allreduce-driven regrid decision).
  EXPECT_GT(r.algorithm1.conditionals_flagged_unfiltered,
            r.algorithm1.conditionals_flagged_filtered);
}

// ---- Exact work counts -----------------------------------------------------------
// bench/e2e runs these two configurations as its npb_bt_mz and epcc_armed
// workloads, with the CLI defaults. Their counts depend only on the program,
// the plan and the pass pipeline: turning a bytecode pass off moves
// bytecode_ops, an extra synchronization round moves app_slots_completed,
// and a change to which sites are armed moves cc_piggybacked.

struct WorkCounts {
  uint64_t bytecode_ops = 0;
  uint64_t app_slots_completed = 0;
  uint64_t cc_piggybacked = 0;
  size_t bc_instrs = 0; // after the pass pipeline
};

WorkCounts run_counted(const GeneratedProgram& g, bool programwide) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, g.name, g.source, diags, opts);
  EXPECT_TRUE(r.ok) << diags.to_text(sm);
  if (!r.ok) return {};
  const core::InstrumentationPlan plan =
      programwide
          ? core::make_programwide_plan(*r.module, r.phases, r.algorithm1)
          : r.plan;
  interp::Executor exec(r.program, sm, &plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(1000);
  const auto res = exec.run(eopts);
  EXPECT_TRUE(res.clean) << res.mpi.abort_reason << "\n"
                         << res.mpi.deadlock_details;
  auto bc = interp::compile(r.program, sm, &plan);
  interp::run_passes(bc, eopts.passes);
  return {res.mpi.bytecode_ops, res.mpi.app_slots_completed,
          res.mpi.cc_piggybacked, bc.total_instrs()};
}

TEST(WorkCounts, NpbBtMzSelectivePlan) {
  NpbParams p;
  p.zones = 4;
  p.steps = 40;
  p.threads = 2;
  p.stages = 2;
  p.zone_comms = true;
  const auto c =
      run_counted(make_npb_mz(NpbVariant::BT, p), /*programwide=*/false);
  EXPECT_EQ(c.bytecode_ops, 8'353'881u);
  EXPECT_EQ(c.app_slots_completed, 210u);
  EXPECT_EQ(c.cc_piggybacked, 210u);
  EXPECT_EQ(c.bc_instrs, 452u);
}

TEST(WorkCounts, EpccArmedProgramwidePlan) {
  EpccParams p;
  p.reps = 30;
  p.threads = 2;
  p.data_sizes = 4;
  const auto c = run_counted(make_epcc_suite(p), /*programwide=*/true);
  EXPECT_EQ(c.bytecode_ops, 1'141'828u);
  EXPECT_EQ(c.app_slots_completed, 2172u);
  EXPECT_EQ(c.cc_piggybacked, 2172u);
  EXPECT_EQ(c.bc_instrs, 1149u);
}

// ---- Corpus sanity -------------------------------------------------------------

TEST(Corpus, NamesAreUniqueAndLookupWorks) {
  std::set<std::string> names;
  for (const auto& e : corpus()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    EXPECT_EQ(corpus_entry(e.name).name, e.name);
  }
  EXPECT_THROW(static_cast<void>(corpus_entry("no_such_program")),
               std::runtime_error);
}

TEST(Corpus, CoversAllStaticWarningKinds) {
  std::set<DiagKind> covered;
  for (const auto& e : corpus())
    for (DiagKind k : e.expected_static) covered.insert(k);
  EXPECT_TRUE(covered.count(DiagKind::MultithreadedCollective));
  EXPECT_TRUE(covered.count(DiagKind::ConcurrentCollectives));
  EXPECT_TRUE(covered.count(DiagKind::CollectiveMismatch));
  EXPECT_TRUE(covered.count(DiagKind::ThreadLevelViolation));
}

TEST(Corpus, HasBothCleanAndBuggyEntries) {
  size_t clean = 0, buggy = 0;
  for (const auto& e : corpus()) {
    if (e.expected_static.empty()) ++clean;
    if (e.dynamic == DynamicOutcome::CaughtBeforeHang ||
        e.dynamic == DynamicOutcome::CaughtRace)
      ++buggy;
  }
  EXPECT_GE(clean, 4u);
  EXPECT_GE(buggy, 8u);
}

} // namespace
} // namespace parcoach::workloads
