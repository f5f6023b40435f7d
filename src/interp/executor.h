// Hybrid MPI+OpenMP interpreter for MiniHPC programs.
//
// Each MPI rank runs on its own thread (simmpi::World); OpenMP constructs
// fork real thread teams (miniomp); MPI statements map to blocking slot-
// matched collectives (simmpi). When an InstrumentationPlan is attached, the
// interpreter performs the paper's runtime checks at exactly the planned
// program points: CC before flagged collectives, CC-final when a process
// leaves main, occupancy checks at set-S collectives, region registry
// enter/exit around set-Scc regions.
//
// Variable semantics follow OpenMP defaults: variables declared outside a
// parallel construct are shared by the team (stored in atomic cells, so data
// races in user programs stay defined in C++ terms); declarations inside the
// construct body are private to each thread.
#pragma once

#include "core/instrumentation.h"
#include "frontend/ast.h"
#include "interp/bytecode.h"
#include "rt/verifier.h"
#include "simmpi/world.h"
#include "support/source_manager.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace parcoach::interp {

/// Which execution engine runs the program. Bytecode is the default (the
/// fast path: pre-resolved frame slots, baked arming decisions, fused
/// superinstructions); the AST tree-walker survives as the differential-
/// testing oracle and reference semantics. Both run MPI statements through
/// the same executor (mpi_ops.h).
enum class Engine : uint8_t { Ast, Bytecode };

[[nodiscard]] constexpr std::string_view to_string(Engine e) noexcept {
  return e == Engine::Ast ? "ast" : "bytecode";
}

struct ExecOptions {
  int32_t num_ranks = 2;
  /// Default team size for `omp parallel` without a num_threads clause.
  int32_t num_threads = 2;
  simmpi::World::Options mpi; // num_ranks is overwritten from the above
  rt::VerifierOptions verify;
  /// Global step budget (all ranks/threads); exceeding it aborts the run.
  /// Enforced in batches of ~4096 per thread, so the abort triggers within
  /// one batch per live thread of this maximum.
  uint64_t max_steps = 50'000'000;
  Engine engine = Engine::Bytecode;
  /// Observability: optional flight-recorder tracer and metrics registry,
  /// threaded through the MPI world, the verifier and the engines. Null =
  /// off; a disabled tracer costs one predictable branch per emit point.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Bytecode-engine pass pipeline off-switches (all on by default). The
  /// differential tests run every combination; the CLI exposes them
  /// (--no-fuse etc.) for bisecting a suspect pass.
  BcPassOptions passes;
};

struct ExecResult {
  simmpi::RunReport mpi;
  /// Runtime verifier diagnostics (rt-* kinds).
  std::vector<Diagnostic> rt_diags;
  /// print(...) output lines, sorted deterministically ("rank R: ...").
  std::vector<std::string> output;
  /// Convenience: true if the run finished with no deadlock, no abort, no
  /// rank errors and no runtime verifier errors.
  bool clean = false;
  /// Statements (AST engine) / instructions (bytecode engine) executed,
  /// summed over all ranks and threads via the batched step budgets.
  uint64_t steps_executed = 0;
  [[nodiscard]] size_t rt_error_count() const {
    size_t n = 0;
    for (const auto& d : rt_diags) n += d.severity == Severity::Error;
    return n;
  }
};

class Executor {
public:
  /// `plan` may be null (uninstrumented run). Lifetimes: program, sm and
  /// plan must outlive the Executor.
  Executor(const frontend::Program& program, const SourceManager& sm,
           const core::InstrumentationPlan* plan);

  [[nodiscard]] ExecResult run(const ExecOptions& opts);

private:
  const frontend::Program& program_;
  const SourceManager& sm_;
  const core::InstrumentationPlan* plan_;
};

} // namespace parcoach::interp
