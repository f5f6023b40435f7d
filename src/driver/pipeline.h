// The full compilation pipeline, with per-stage wall-clock accounting.
//
// Three modes mirror the Figure-1 experiment:
//   Baseline            lex -> parse -> sema -> lower -> verify-free optimize
//                       -> emit (textual codegen)
//   Warnings            + interprocedural summaries + phases 1/2 +
//                       Algorithm 1 + thread-level inference (warnings only)
//   WarningsAndCodegen  + instrumentation plan + IR materialization + re-emit
//                       ("verification code generation")
#pragma once

#include "core/algorithm1.h"
#include "core/instrumentation.h"
#include "core/phases.h"
#include "core/thread_level.h"
#include "frontend/ast.h"
#include "ir/module.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <chrono>
#include <memory>
#include <string>

namespace parcoach::driver {

enum class Mode : uint8_t { Baseline, Warnings, WarningsAndCodegen };

struct PipelineOptions {
  Mode mode = Mode::WarningsAndCodegen;
  core::AnalysisOptions analysis;
  core::Algorithm1Options algorithm1;
  /// Run the standard optimization pipeline (part of the baseline cost).
  bool optimize = true;
  /// Run the IR verifier after lowering (debug pipelines; not timed as part
  /// of the baseline since production compilers do not run it).
  bool verify_ir = false;
};

struct StageTimes {
  using ns = std::chrono::nanoseconds;
  ns parse{0};
  ns sema{0};
  ns lower{0};
  ns optimize{0};
  ns emit{0};
  ns analysis{0};    // summaries + phases + algorithm 1 + thread levels
  ns instrument{0};  // plan + IR materialization + re-emit

  [[nodiscard]] ns baseline() const { return parse + sema + lower + optimize + emit; }
  [[nodiscard]] ns total() const { return baseline() + analysis + instrument; }
};

struct CompileResult {
  bool ok = false;
  frontend::Program program;
  std::unique_ptr<ir::Module> module;
  core::PhaseResult phases;
  core::Algorithm1Result algorithm1;
  core::ThreadLevelResult thread_levels;
  core::InstrumentationPlan plan;
  StageTimes times;
  /// Emitted textual artifact (instrumented when mode == WarningsAndCodegen).
  std::string emitted;
  size_t emitted_bytes = 0;
  size_t inserted_checks = 0;
};

/// Compiles `source` (registered with `sm` under `name`). All diagnostics —
/// front-end errors and analysis warnings — go to `diags`.
[[nodiscard]] CompileResult compile(SourceManager& sm, std::string name,
                                    std::string source, DiagnosticEngine& diags,
                                    const PipelineOptions& opts);

/// Runs the compile pipeline on an already-registered buffer, so one source
/// can be compiled repeatedly without re-registering it.
[[nodiscard]] CompileResult compile_buffer(const SourceManager& sm,
                                           int32_t file_id,
                                           DiagnosticEngine& diags,
                                           const PipelineOptions& opts);

} // namespace parcoach::driver
