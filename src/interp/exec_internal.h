// Internals shared by the two execution engines (the AST tree-walker in
// executor.cpp and the bytecode VM in vm.cpp). Not part of the public
// interpreter interface.
#pragma once

#include "core/instrumentation.h"
#include "frontend/ast.h"
#include "miniomp/team.h"
#include "rt/verifier.h"
#include "simmpi/world.h"
#include "support/fault.h"
#include "support/source_manager.h"
#include "support/str.h"
#include "support/wrap_int.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace parcoach::interp {

/// Runtime fault in user code (division by zero, missing main, step limit).
class EvalError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Variable cell. Atomic so user-level data races (shared variables written
/// from several OpenMP threads) are C++-defined; ordering is relaxed — the
/// validator checks collective placement, not user data determinism.
struct Cell {
  std::atomic<int64_t> v{0};
};

/// State shared by every rank/thread of one run.
struct SharedState {
  const frontend::Program* program = nullptr;
  const SourceManager* sm = nullptr;
  const core::InstrumentationPlan* plan = nullptr;
  rt::Verifier* verifier = nullptr;
  uint64_t max_steps = 0;
  /// Steps granted to threads in batches (see StepCounter). The global limit
  /// is enforced at batch-claim time, so the two cache lines below are
  /// touched once per kStepBatch statements instead of once per statement.
  std::atomic<uint64_t> steps_claimed{0};
  std::atomic<uint64_t> steps_executed{0};
  std::mutex output_mu;
  std::vector<std::string> output;
  /// Observability (resolved once by Executor::run; null = off). The tracer
  /// is effective()-filtered; the two counters are pre-resolved metric cells
  /// bumped on the StepCounter's cold paths (batch claim / settle), so the
  /// per-statement hot path stays untouched.
  Tracer* tracer = nullptr;
  std::atomic<uint64_t>* steps_retired_metric = nullptr;
  std::atomic<uint64_t>* batch_claims_metric = nullptr;
  /// Fault injector (effective()-filtered; null = off). Engines use it for
  /// PCT-style region-entry jitter; simmpi consumes it independently.
  FaultInjector* fault = nullptr;
};

/// Batch size of the per-thread step budget. Large enough that the shared
/// claim counter is touched ~once per 4k statements; small enough that the
/// step limit still triggers within one batch (per live thread) of the
/// configured maximum.
inline constexpr uint64_t kStepBatch = 4096;

/// Per-thread step budget: claims kStepBatch steps from the shared pool at a
/// time and burns them locally, so the per-statement hot path is a plain
/// decrement instead of a contended atomic increment. Unused budget is
/// returned on destruction (threads that execute a handful of statements do
/// not inflate the global count), and the executed total is published then.
class StepCounter {
public:
  StepCounter(SharedState& shared, simmpi::Rank& rank)
      : shared_(&shared), rank_(&rank) {}
  ~StepCounter() { settle(); }
  StepCounter(const StepCounter&) = delete;
  StepCounter& operator=(const StepCounter&) = delete;

  /// One executed statement / bytecode instruction.
  void bump() {
    if (left_ == 0) refill();
    --left_;
  }

  /// Returns unclaimed budget to the pool and publishes the executed count.
  void settle() {
    if (left_ > 0) {
      shared_->steps_claimed.fetch_sub(left_, std::memory_order_relaxed);
      granted_ -= left_;
      left_ = 0;
    }
    if (granted_ > published_) {
      const uint64_t delta = granted_ - published_;
      shared_->steps_executed.fetch_add(delta, std::memory_order_relaxed);
      if (shared_->steps_retired_metric)
        shared_->steps_retired_metric->fetch_add(delta,
                                                 std::memory_order_relaxed);
      published_ = granted_;
    }
  }

private:
  void refill() {
    const uint64_t base =
        shared_->steps_claimed.fetch_add(kStepBatch, std::memory_order_relaxed);
    if (base >= shared_->max_steps) {
      shared_->steps_claimed.fetch_sub(kStepBatch, std::memory_order_relaxed);
      settle();
      rank_->abort("interpreter step limit exceeded (runaway program?)");
      throw simmpi::AbortedError("step limit exceeded");
    }
    if (shared_->batch_claims_metric)
      shared_->batch_claims_metric->fetch_add(1, std::memory_order_relaxed);
    left_ = kStepBatch;
    granted_ += kStepBatch;
  }

  SharedState* shared_;
  simmpi::Rank* rank_;
  uint64_t left_ = 0;      // locally claimed, not yet burned
  uint64_t granted_ = 0;   // total claimed by this thread (minus returns)
  uint64_t published_ = 0; // executed count already added to the shared total
};

/// Diagnostic wording shared by both engines so outcomes stay byte-identical.
inline std::string undefined_var_msg(const SourceManager& sm,
                                     const std::string& name, SourceLoc loc) {
  return str::cat("undefined variable '", name, "' at ", sm.describe(loc));
}
inline std::string undefined_fn_msg(const SourceManager& sm,
                                    const std::string& name, SourceLoc loc) {
  return str::cat("undefined function '", name, "' at ", sm.describe(loc));
}

/// Integer division and remainder as both engines execute them
/// (support/wrap_int.h): a zero divisor and the one overflowing quotient,
/// INT64_MIN / -1, are user faults rather than signals. The throw stays out
/// of line, off the VM's arithmetic fast path.
[[noreturn, gnu::noinline, gnu::cold]] inline void arith_fault(
    const char* what) {
  throw EvalError(what);
}
inline int64_t div_or_fault(int64_t a, int64_t b) {
  if (const auto q = checked_div(a, b)) [[likely]]
    return *q;
  arith_fault(b == 0 ? "division by zero" : "integer overflow in division");
}
inline int64_t mod_or_fault(int64_t a, int64_t b) {
  if (const auto r = checked_rem(a, b)) [[likely]]
    return *r;
  arith_fault("modulo by zero");
}

// Bytecode-engine entry point (vm.cpp).
struct BcProgram;

/// Runs one rank's main() under the bytecode VM. Throws EvalError for user
/// faults (the caller wraps them into rank aborts, like the AST engine).
void run_rank_bytecode(SharedState& shared, const BcProgram& bc,
                       simmpi::Rank& rank, int32_t default_threads);

} // namespace parcoach::interp
