// The benchmark's workloads: the programs each one submits for a verdict, and
// the known answer every verdict is checked against.
#pragma once

#include "core/instrumentation.h"
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace bench {

/// The known answer for one program.
struct Oracle {
  enum class Run : uint8_t {
    None,          // compile only: the static verdict is the verdict
    Clean,         // clean run; output equal to the AST engine's
    Caught,        // no deadlock, a runtime error of kind `rt_kind`
    CaughtOrClean, // mutated site the run may never reach
    NoHang,        // scheduler-dependent verdict: no deadlock is all
  };
  std::vector<parcoach::DiagKind> required_static;
  std::vector<parcoach::DiagKind> forbidden_static;
  /// The plan must arm CC, including CC-final in main.
  bool cc_armed = false;
  Run run = Run::Clean;
  parcoach::DiagKind rt_kind = parcoach::DiagKind::RtCollectiveMismatch;
};

struct Subject {
  std::string name;
  std::string source;
  int32_t ranks = 2;
  int32_t threads = 2;
  /// Run under core::make_programwide_plan instead of the selective plan.
  bool programwide = false;
  Oracle oracle;
  /// Bytecode ops, slots and CC checks repeat exactly from run to run
  /// (traced rounds check it).
  bool deterministic_counts = false;

  [[nodiscard]] bool executes() const { return oracle.run != Oracle::Run::None; }
};

/// The workload's programs, built from `seed`; nullopt for an unknown name.
[[nodiscard]] std::optional<std::vector<Subject>>
make_workload(const std::string& name, uint64_t seed);

/// Everything one verdict produced. Held by pointer: the executor and the
/// compiled program refer to `sm`.
struct Verdict {
  parcoach::SourceManager sm;
  parcoach::DiagnosticEngine diags;
  parcoach::driver::CompileResult compiled;
  parcoach::core::InstrumentationPlan programwide;
  std::optional<parcoach::interp::ExecResult> run;

  [[nodiscard]] const parcoach::core::InstrumentationPlan&
  plan(const Subject& s) const {
    return s.programwide ? programwide : compiled.plan;
  }
};

/// `parcoachmt_cli run` defaults: bytecode engine, every pass, CC argument
/// checks, 1000 ms hang timeout.
[[nodiscard]] parcoach::interp::ExecOptions exec_options(const Subject& s);

/// The CLI's compile settings.
[[nodiscard]] parcoach::driver::PipelineOptions pipeline_options();

/// Source text to verdict, as `parcoachmt_cli run` does it in one process.
[[nodiscard]] std::unique_ptr<Verdict> run_verdict(const Subject& s);

/// Checks `v` against the subject's oracle; empty when the verdict is right.
/// Output equality with the AST engine is checked by the caller.
[[nodiscard]] std::string judge(const Subject& s, const Verdict& v);

} // namespace bench
