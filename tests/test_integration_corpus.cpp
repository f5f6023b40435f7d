// Integration: every corpus entry goes through the full static pipeline and
// (where the expectation is deterministic) through instrumented execution.
//
// Parameterized over the corpus so each program shows up as its own test.
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"
#include "workloads/corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

namespace parcoach {
namespace {

using workloads::CorpusEntry;
using workloads::DynamicOutcome;

class CorpusTest : public ::testing::TestWithParam<CorpusEntry> {};

/// A traced collective span: the packed (kind, reduce op) and the root.
using CollSpan = std::pair<int64_t, int64_t>;
/// Each rank's CollEnter/CollExit events, in order.
using CollSpans =
    std::map<int32_t, std::vector<std::pair<TraceEv, CollSpan>>>;

CollSpans coll_spans(const Tracer& tracer) {
  CollSpans out;
  for (const TraceEvent& ev : tracer.snapshot())
    if (ev.kind == TraceEv::CollEnter || ev.kind == TraceEv::CollExit)
      out[ev.rank].emplace_back(ev.kind, CollSpan{ev.a, ev.b});
  return out;
}

/// Runtime diagnostics as sorted (kind, message) pairs: runs compare them
/// byte for byte, and only cross-rank recording order may vary.
std::vector<std::pair<int, std::string>> keyed(
    const std::vector<Diagnostic>& ds) {
  std::vector<std::pair<int, std::string>> out;
  for (const auto& d : ds)
    out.emplace_back(static_cast<int>(d.kind), d.message);
  std::sort(out.begin(), out.end());
  return out;
}

driver::CompileResult compile_full(const CorpusEntry& e, SourceManager& sm,
                                   DiagnosticEngine& diags) {
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.verify_ir = true;
  return driver::compile(sm, e.name, e.source, diags, opts);
}

TEST_P(CorpusTest, StaticExpectations) {
  const CorpusEntry& e = GetParam();
  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_full(e, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  for (DiagKind k : e.expected_static)
    EXPECT_GE(diags.count(k), 1u) << "missing expected warning "
                                  << to_string(k) << "\n"
                                  << diags.to_text(sm);
  for (DiagKind k : e.forbidden_static)
    EXPECT_EQ(diags.count(k), 0u) << "unexpected warning " << to_string(k)
                                  << "\n"
                                  << diags.to_text(sm);
}

TEST_P(CorpusTest, InstrumentedExecution) {
  const CorpusEntry& e = GetParam();
  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_full(e, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  interp::Executor exec(r.program, sm, &r.plan);
  interp::ExecOptions opts;
  opts.num_ranks = e.ranks;
  opts.num_threads = e.threads;
  opts.mpi.hang_timeout = std::chrono::milliseconds(2500);
  if (e.dynamic == DynamicOutcome::CaughtRace)
    opts.verify.rendezvous = std::chrono::milliseconds(40);
  if (e.dynamic == DynamicOutcome::DeadlockReported)
    opts.mpi.hang_timeout = std::chrono::milliseconds(300); // deadlock is the point
  const auto result = exec.run(opts);

  switch (e.dynamic) {
    case DynamicOutcome::Clean:
      EXPECT_TRUE(result.clean)
          << result.mpi.abort_reason << "\n"
          << result.mpi.deadlock_details;
      break;
    case DynamicOutcome::CaughtBeforeHang:
    case DynamicOutcome::CaughtRace:
    case DynamicOutcome::CaughtAtFinalize: {
      EXPECT_FALSE(result.mpi.deadlock)
          << "verifier should catch the error before the watchdog: "
          << result.mpi.deadlock_details;
      EXPECT_GE(result.rt_error_count(), 1u) << result.mpi.abort_reason;
      bool kind_found = false;
      for (const auto& d : result.rt_diags) kind_found |= d.kind == e.expected_rt;
      EXPECT_TRUE(kind_found)
          << "expected runtime diagnostic " << to_string(e.expected_rt);
      break;
    }
    case DynamicOutcome::ThreadLevelWarn:
      // The violating thread choice is scheduler-dependent; require only
      // that the run neither hangs nor aborts.
      EXPECT_FALSE(result.mpi.deadlock) << result.mpi.deadlock_details;
      break;
    case DynamicOutcome::DeadlockReported:
      // A cross-communicator cycle: no shared slot exists for the CC
      // agreement, so the watchdog must convert the hang into a report that
      // names every communicator involved (the run returns — no hang).
      EXPECT_TRUE(result.mpi.deadlock) << result.mpi.abort_reason;
      EXPECT_NE(result.mpi.deadlock_details.find("MPI_COMM_WORLD"),
                std::string::npos)
          << result.mpi.deadlock_details;
      EXPECT_NE(result.mpi.deadlock_details.find("comm_split#"),
                std::string::npos)
          << result.mpi.deadlock_details;
      break;
  }
}

// The comm-class arming matrix must be behaviour-preserving: for every
// corpus entry, running under the selective per-class plan and under the
// pre-matrix program-wide plan must produce byte-identical dynamic outcomes
// (clean flag, deadlock report, runtime diagnostics, program output).
// Scheduler-dependent entries (races, thread-level warnings) are skipped —
// they are not deterministic under either plan.
TEST_P(CorpusTest, SelectiveArmingMatchesProgramWideOutcome) {
  const CorpusEntry& e = GetParam();
  if (e.dynamic == DynamicOutcome::CaughtRace ||
      e.dynamic == DynamicOutcome::ThreadLevelWarn)
    GTEST_SKIP() << "scheduler-dependent outcome";
  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_full(e, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  const auto programwide =
      core::make_programwide_plan(*r.module, r.phases, r.algorithm1);

  auto run_with = [&](const core::InstrumentationPlan& plan) {
    interp::Executor exec(r.program, sm, &plan);
    interp::ExecOptions opts;
    opts.num_ranks = e.ranks;
    opts.num_threads = e.threads;
    opts.mpi.hang_timeout = std::chrono::milliseconds(
        e.dynamic == DynamicOutcome::DeadlockReported ? 300 : 2500);
    return exec.run(opts);
  };
  const auto sel = run_with(r.plan);
  const auto pw = run_with(programwide);

  EXPECT_EQ(sel.clean, pw.clean);
  EXPECT_EQ(sel.mpi.deadlock, pw.mpi.deadlock);
  EXPECT_EQ(sel.mpi.deadlock_details, pw.mpi.deadlock_details);
  EXPECT_EQ(sel.output, pw.output);
  EXPECT_EQ(keyed(sel.rt_diags), keyed(pw.rt_diags));
  // The selective plan never arms more than program-wide.
  EXPECT_LE(r.plan.cc_stmts.size(), programwide.cc_stmts.size());
  EXPECT_LE(r.plan.cc_classes.size(), programwide.cc_classes.size());
}

// The two execution engines must be observationally identical: for every
// corpus entry, running under the AST tree-walker and under the bytecode VM
// must produce byte-identical dynamic outcomes — clean flag, deadlock
// report, runtime diagnostics, program output — under the uninstrumented,
// selective, and program-wide plans alike. Scheduler-dependent entries
// (races, thread-level warnings) are skipped, as they are nondeterministic
// under either engine.
TEST_P(CorpusTest, BytecodeMatchesAstOutcome) {
  const CorpusEntry& e = GetParam();
  if (e.dynamic == DynamicOutcome::CaughtRace ||
      e.dynamic == DynamicOutcome::ThreadLevelWarn)
    GTEST_SKIP() << "scheduler-dependent outcome";
  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_full(e, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  const auto programwide =
      core::make_programwide_plan(*r.module, r.phases, r.algorithm1);

  auto run_with = [&](const core::InstrumentationPlan* plan,
                      interp::Engine engine,
                      interp::BcPassOptions passes = {}) {
    interp::Executor exec(r.program, sm, plan);
    interp::ExecOptions opts;
    opts.engine = engine;
    opts.passes = passes;
    opts.num_ranks = e.ranks;
    opts.num_threads = e.threads;
    // Entries that hang without instrumentation (and the cross-comm
    // deadlock entry) run into the watchdog on purpose; keep those short.
    const bool expects_deadlock =
        e.dynamic == DynamicOutcome::DeadlockReported ||
        (!plan && e.dynamic == DynamicOutcome::CaughtBeforeHang);
    opts.mpi.hang_timeout =
        std::chrono::milliseconds(expects_deadlock ? 300 : 2500);
    return exec.run(opts);
  };
  // An uninstrumented mismatch hang annotates whichever rank deposited into
  // the contested slot *second* with "(signature differs from the slot's)" —
  // that attribution depends on arrival order, not on engine semantics, so
  // it is stripped before the byte-for-byte comparison. Everything else
  // (blocked ranks, slots, collective names) must match exactly.
  auto normalized = [](std::string details) {
    static const std::string kRaceTag = " (signature differs from the slot's)";
    for (size_t at; (at = details.find(kRaceTag)) != std::string::npos;)
      details.erase(at, kRaceTag.size());
    return details;
  };

  // The AST oracle is compared against the bytecode engine both as it
  // ships (fused) and as the bare one-pass compiler output (unfused), so a
  // wrong fusion rewrite shows as a fused-only mismatch.
  const core::InstrumentationPlan* plans[] = {nullptr, &r.plan, &programwide};
  const char* plan_names[] = {"uninstrumented", "selective", "programwide"};
  for (size_t p = 0; p < 3; ++p) {
    const auto ast = run_with(plans[p], interp::Engine::Ast);
    ASSERT_EQ(ast.mpi.engine, "ast");
    for (const bool fuse : {true, false}) {
      const auto bc =
          run_with(plans[p], interp::Engine::Bytecode, {.fuse = fuse});
      SCOPED_TRACE(str::cat(plan_names[p], fuse ? " fused" : " unfused"));
      EXPECT_EQ(ast.clean, bc.clean);
      EXPECT_EQ(ast.mpi.deadlock, bc.mpi.deadlock);
      EXPECT_EQ(normalized(ast.mpi.deadlock_details),
                normalized(bc.mpi.deadlock_details));
      EXPECT_EQ(ast.output, bc.output);
      EXPECT_EQ(keyed(ast.rt_diags), keyed(bc.rt_diags));
      EXPECT_EQ(bc.mpi.engine, "bytecode");
      if (!bc.mpi.aborted) EXPECT_GT(bc.mpi.bytecode_ops, 0u);
    }
  }
}

// The observability layer must be a pure observer: for every corpus entry
// and both engines, running with an enabled tracer + metrics registry must
// produce byte-identical dynamic outcomes to running with none attached.
// The only allowed difference is additive — the flight-recorder appendix on
// a watchdog deadlock report — which is stripped at its marker before the
// comparison. Scheduler-dependent entries are skipped as usual. On
// OpenMP-free entries the two engines must also trace the same collective
// spans, rank by rank.
TEST_P(CorpusTest, TracingOnMatchesTracingOff) {
  const CorpusEntry& e = GetParam();
  if (e.dynamic == DynamicOutcome::CaughtRace ||
      e.dynamic == DynamicOutcome::ThreadLevelWarn)
    GTEST_SKIP() << "scheduler-dependent outcome";
  SourceManager sm;
  DiagnosticEngine diags;
  const auto r = compile_full(e, sm, diags);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  auto run_with = [&](interp::Engine engine, bool traced,
                      CollSpans* spans = nullptr) {
    // Fresh observers per run: ring contents must never leak across runs.
    // The ring holds every event of these short runs, so the span sequences
    // compared below are complete.
    Tracer tracer(TracerOptions{true, size_t{1} << 14});
    MetricsRegistry metrics;
    interp::Executor exec(r.program, sm, &r.plan);
    interp::ExecOptions opts;
    opts.engine = engine;
    opts.num_ranks = e.ranks;
    opts.num_threads = e.threads;
    opts.mpi.hang_timeout = std::chrono::milliseconds(
        e.dynamic == DynamicOutcome::DeadlockReported ? 300 : 2500);
    if (traced) {
      opts.tracer = &tracer;
      opts.metrics = &metrics;
    }
    auto result = exec.run(opts);
    if (traced) EXPECT_GT(tracer.events_captured(), 0u);
    if (spans) {
      EXPECT_EQ(tracer.events_dropped(), 0u);
      *spans = coll_spans(tracer);
    }
    return result;
  };
  // The flight-recorder appendix is the one sanctioned addition.
  auto stripped = [](std::string details) {
    const size_t at = details.find(kFlightRecorderMarker);
    if (at != std::string::npos) details.erase(at);
    return details;
  };

  std::map<interp::Engine, CollSpans> spans;
  for (interp::Engine engine :
       {interp::Engine::Ast, interp::Engine::Bytecode}) {
    SCOPED_TRACE(to_string(engine));
    const auto off = run_with(engine, false);
    const auto on = run_with(engine, true, &spans[engine]);
    EXPECT_EQ(off.clean, on.clean);
    EXPECT_EQ(off.mpi.deadlock, on.mpi.deadlock);
    EXPECT_EQ(off.mpi.deadlock_details, stripped(on.mpi.deadlock_details));
    EXPECT_EQ(off.output, on.output);
    // Which rank carries the detailed abort wording (vs the cascade
    // message) is arrival-order dependent with or without tracing, so
    // rank_errors are not compared byte-for-byte — but the flight-recorder
    // appendix must never leak into them.
    for (const auto& err : on.mpi.rank_errors)
      EXPECT_EQ(err.find(kFlightRecorderMarker), std::string::npos) << err;
    EXPECT_EQ(keyed(off.rt_diags), keyed(on.rt_diags));
    // Metrics ride in the report only for the traced run.
    EXPECT_TRUE(off.mpi.metrics.empty());
    EXPECT_FALSE(on.mpi.metrics.empty());
  }
  if (e.source.find("omp parallel") == std::string::npos)
    EXPECT_EQ(spans[interp::Engine::Ast], spans[interp::Engine::Bytecode]);
}

// A check that aborts the rank still leaves the collective it was entering
// in the trace, on both engines: under MPI_THREAD_single the barrier in the
// master region trips the thread-level check, which aborts the run.
TEST(EngineTraceParity, AbortingThreadLevelCheckRecordsTheSameSpan) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, "master_barrier_single", R"(func main() {
  mpi_init(single);
  omp parallel num_threads(2) {
    omp master {
      mpi_barrier();
    }
  }
  mpi_finalize();
}
)",
                                 diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  std::map<interp::Engine, CollSpans> spans;
  for (interp::Engine engine :
       {interp::Engine::Ast, interp::Engine::Bytecode}) {
    SCOPED_TRACE(to_string(engine));
    Tracer tracer;
    interp::Executor exec(r.program, sm, &r.plan);
    interp::ExecOptions opts;
    opts.engine = engine;
    opts.num_ranks = 1;
    opts.verify.abort_on_thread_level = true;
    opts.tracer = &tracer;
    const auto res = exec.run(opts);
    EXPECT_TRUE(res.mpi.aborted);
    spans[engine] = coll_spans(tracer);
  }
  const CollSpan barrier{
      trace_pack_coll(static_cast<int32_t>(ir::CollectiveKind::Barrier), 0),
      -1};
  const CollSpans expected{
      {0, {{TraceEv::CollEnter, barrier}, {TraceEv::CollExit, barrier}}}};
  EXPECT_EQ(spans[interp::Engine::Ast], expected);
  EXPECT_EQ(spans[interp::Engine::Bytecode], expected);
}

TEST_P(CorpusTest, UninstrumentedMismatchesDeadlock) {
  const CorpusEntry& e = GetParam();
  if (e.dynamic != DynamicOutcome::CaughtBeforeHang)
    GTEST_SKIP() << "only deterministic-deadlock entries";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::Warnings; // no instrumentation
  const auto r = driver::compile(sm, e.name, e.source, diags, opts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);

  interp::Executor exec(r.program, sm, nullptr);
  interp::ExecOptions eopts;
  eopts.num_ranks = e.ranks;
  eopts.num_threads = e.threads;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(150);
  const auto result = exec.run(eopts);
  EXPECT_TRUE(result.mpi.deadlock)
      << "expected a hang without instrumentation; abort="
      << result.mpi.abort_reason;
  EXPECT_FALSE(result.mpi.deadlock_details.empty());
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusTest,
                         ::testing::ValuesIn(workloads::corpus()),
                         [](const ::testing::TestParamInfo<CorpusEntry>& info) {
                           return info.param.name;
                         });

} // namespace
} // namespace parcoach
