// The run both seeded fault harnesses (test_fault_chaos,
// test_fault_recovery) repeat: one compiled program on one engine under one
// fault schedule. The bytecode engine runs fused code on even seeds and the
// bare one-pass encoding on odd ones, so both forms meet every fault
// invariant at no extra run count.
#pragma once

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/fault.h"

#include <chrono>

namespace parcoach {

struct FaultRun {
  interp::ExecResult result;
  uint64_t crashes = 0;
};

inline FaultRun run_under_faults(const driver::CompileResult& r,
                                 const SourceManager& sm,
                                 const core::InstrumentationPlan* plan,
                                 int32_t ranks, int32_t threads,
                                 interp::Engine engine, uint64_t seed,
                                 const FaultPlan& faults,
                                 std::chrono::milliseconds hang_timeout) {
  // A fresh injector per run: the per-rank draw counters are part of the
  // deterministic schedule, so they must start from zero every time.
  FaultInjector inj(faults, ranks);
  interp::Executor exec(r.program, sm, plan);
  interp::ExecOptions opts;
  opts.engine = engine;
  opts.passes.fuse = seed % 2 == 0;
  opts.num_ranks = ranks;
  opts.num_threads = threads;
  opts.mpi.fault = &inj;
  opts.mpi.hang_timeout = hang_timeout;
  FaultRun out;
  out.result = exec.run(opts);
  out.crashes = inj.crashes_fired();
  return out;
}

} // namespace parcoach
