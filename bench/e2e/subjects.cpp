#include "subjects.h"

#include "support/rng.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/testgen.h"
#include "workloads/workloads.h"

#include <algorithm>

namespace bench {

using namespace parcoach;
using Run = Oracle::Run;

namespace {

// Corpus rules follow tests/test_integration_corpus.cpp. Entries whose time
// is set by a setting rather than by the checker are left out: CaughtRace
// waits out the verifier's 40 ms rendezvous, DeadlockReported the hang
// timeout.
void add_corpus(std::vector<Subject>& out) {
  using workloads::DynamicOutcome;
  for (const auto& e : workloads::corpus()) {
    Subject s{e.name, e.source, e.ranks, e.threads, false, {}};
    s.oracle.required_static = e.expected_static;
    s.oracle.forbidden_static = e.forbidden_static;
    s.oracle.rt_kind = e.expected_rt;
    switch (e.dynamic) {
      case DynamicOutcome::Clean: s.oracle.run = Run::Clean; break;
      case DynamicOutcome::CaughtBeforeHang:
      case DynamicOutcome::CaughtAtFinalize: s.oracle.run = Run::Caught; break;
      case DynamicOutcome::ThreadLevelWarn: s.oracle.run = Run::NoHang; break;
      case DynamicOutcome::CaughtRace:
      case DynamicOutcome::DeadlockReported: continue;
    }
    out.push_back(std::move(s));
  }
}

// Ground truth from tests/test_property.cpp: generated programs are clean by
// construction; a mutation is always flagged statically, arms CC, and never
// hangs the instrumented run.
void add_testgen(std::vector<Subject>& out, uint64_t seed, int count) {
  using workloads::Mutation;
  constexpr Mutation kMutations[] = {Mutation::RankGuard,
                                     Mutation::KindDivergence,
                                     Mutation::EarlyExit};
  SplitMix64 rng(seed);
  for (int i = 0; i < count; ++i) {
    const bool mutated = i % 2 == 1;
    const Mutation m = mutated ? kMutations[(i / 2) % 3] : Mutation::None;
    for (;;) { // EarlyExit needs a site at main's top level; redraw if none
      workloads::GenOptions g;
      g.seed = rng.next();
      const auto clean = workloads::generate_random_program(g);
      if (clean.collective_sites == 0) continue;
      Subject s{str::cat("testgen_", i), clean.source, 2, 2, false, {}};
      if (!mutated) {
        s.oracle.forbidden_static = {DiagKind::MultithreadedCollective,
                                     DiagKind::ConcurrentCollectives,
                                     DiagKind::ThreadLevelViolation};
        out.push_back(std::move(s));
        break;
      }
      g.mutation = m;
      g.mutation_site = static_cast<int32_t>(
          rng.below(static_cast<uint64_t>(clean.collective_sites)));
      const auto bug = workloads::generate_random_program(g);
      if (!bug.mutation_applied) continue;
      s.source = bug.source;
      s.oracle.required_static = {DiagKind::CollectiveMismatch};
      s.oracle.cc_armed = true;
      s.oracle.run = m == Mutation::EarlyExit ? Run::Caught : Run::CaughtOrClean;
      out.push_back(std::move(s));
      break;
    }
  }
}

bool has_rt_kind(const interp::ExecResult& r, DiagKind kind) {
  return std::any_of(r.rt_diags.begin(), r.rt_diags.end(),
                     [&](const Diagnostic& d) { return d.kind == kind; });
}

} // namespace

std::optional<std::vector<Subject>> make_workload(const std::string& name,
                                                  uint64_t seed) {
  std::vector<Subject> out;
  if (name == "verdict_sweep") {
    add_corpus(out);
    add_testgen(out, seed, 48);
  } else if (name == "fig1_compile") {
    for (auto& g : workloads::figure1_suite()) {
      Subject s{g.name, std::move(g.source), 2, 2, false, {}};
      s.oracle.run = Run::None;
      out.push_back(std::move(s));
    }
  } else if (name == "npb_bt_mz") {
    workloads::NpbParams p;
    p.zones = 4;
    p.steps = 40;
    p.threads = 2;
    p.stages = 2;
    p.zone_comms = true;
    auto g = workloads::make_npb_mz(workloads::NpbVariant::BT, p);
    Subject s{g.name, std::move(g.source), 2, 2, false, {}};
    s.deterministic_counts = true;
    out.push_back(std::move(s));
  } else if (name == "epcc_armed") {
    workloads::EpccParams p;
    p.reps = 30;
    p.threads = 2;
    p.data_sizes = 4;
    auto g = workloads::make_epcc_suite(p);
    Subject s{g.name, std::move(g.source), 2, 2, true, {}};
    s.oracle.cc_armed = true;
    s.deterministic_counts = true;
    out.push_back(std::move(s));
  } else {
    return std::nullopt;
  }
  return out;
}

interp::ExecOptions exec_options(const Subject& s) {
  interp::ExecOptions o;
  o.num_ranks = s.ranks;
  o.num_threads = s.threads;
  o.mpi.hang_timeout = std::chrono::milliseconds(1000);
  return o;
}

driver::PipelineOptions pipeline_options() {
  driver::PipelineOptions o;
  o.mode = driver::Mode::WarningsAndCodegen;
  return o;
}

std::unique_ptr<Verdict> run_verdict(const Subject& s) {
  auto v = std::make_unique<Verdict>();
  v->compiled =
      driver::compile(v->sm, s.name, s.source, v->diags, pipeline_options());
  if (!s.executes() || !v->compiled.ok) return v;
  if (s.programwide)
    v->programwide = core::make_programwide_plan(
        *v->compiled.module, v->compiled.phases, v->compiled.algorithm1);
  interp::Executor exec(v->compiled.program, v->sm, &v->plan(s));
  v->run = exec.run(exec_options(s));
  return v;
}

std::string judge(const Subject& s, const Verdict& v) {
  if (!v.compiled.ok) return "compile failed";
  for (DiagKind k : s.oracle.required_static)
    if (v.diags.count(k) == 0)
      return str::cat("missing static warning ", to_string(k));
  for (DiagKind k : s.oracle.forbidden_static)
    if (v.diags.count(k) != 0)
      return str::cat("unexpected static warning ", to_string(k));
  const auto& plan = v.plan(s);
  if (s.oracle.cc_armed && (plan.cc_stmts.empty() || !plan.cc_final_in_main))
    return "CC not armed";
  if (!s.executes()) return {};
  if (!v.run) return "not run";
  const interp::ExecResult& r = *v.run;
  if (r.mpi.deadlock) return str::cat("deadlock: ", r.mpi.deadlock_details);
  const bool caught = r.rt_error_count() > 0;
  switch (s.oracle.run) {
    case Run::Clean:
      if (!r.clean) return str::cat("not clean: ", r.mpi.abort_reason);
      break;
    case Run::Caught:
      if (!caught) return str::cat("no runtime error: ", r.mpi.abort_reason);
      if (!has_rt_kind(r, s.oracle.rt_kind))
        return str::cat("missing runtime ", to_string(s.oracle.rt_kind));
      break;
    case Run::CaughtOrClean:
      if (!caught && !r.clean)
        return str::cat("neither caught nor clean: ", r.mpi.abort_reason);
      if (caught && !has_rt_kind(r, s.oracle.rt_kind))
        return str::cat("missing runtime ", to_string(s.oracle.rt_kind));
      break;
    case Run::NoHang:
    case Run::None:
      break;
  }
  return {};
}

} // namespace bench
