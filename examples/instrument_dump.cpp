// Instrument dump: shows the "verification code generation" step — the IR
// of a buggy program before and after the selective instrumentation pass
// (check_cc / check_cc_final / check_mono / region_enter / region_exit),
// plus the plan summary and the optimized bytecode the VM will actually
// execute (baked arming, fused superinstructions).
// This is the code-transformation half of the paper.
//
// Usage: instrument_dump [corpus-entry-name]   (default: bug_concurrent_singles)
#include "driver/pipeline.h"
#include "interp/bytecode.h"
#include "ir/printer.h"
#include "workloads/corpus.h"

#include <iostream>

int main(int argc, char** argv) {
  using namespace parcoach;
  const std::string name = argc > 1 ? argv[1] : "bug_concurrent_singles";
  const auto& entry = workloads::corpus_entry(name);

  std::cout << "=== source (" << entry.name << ") ===\n"
            << entry.source << '\n';

  // Baseline IR.
  {
    SourceManager sm;
    DiagnosticEngine diags;
    driver::PipelineOptions opts;
    opts.mode = driver::Mode::Baseline;
    opts.optimize = false;
    const auto r = driver::compile(sm, entry.name, entry.source, diags, opts);
    if (!r.ok) {
      std::cerr << diags.to_text(sm);
      return 1;
    }
    std::cout << "=== IR before instrumentation ===\n" << r.emitted << '\n';
  }

  // Instrumented IR.
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.optimize = false;
  const auto r = driver::compile(sm, entry.name, entry.source, diags, opts);
  if (!r.ok) {
    std::cerr << diags.to_text(sm);
    return 1;
  }
  std::cout << "=== warnings ===\n" << diags.to_text(sm) << '\n';
  std::cout << "=== IR after verification code generation ===\n"
            << r.emitted << '\n';
  std::cout << "plan: " << r.plan.cc_stmts.size() << " CC checks, "
            << r.plan.mono_stmts.size() << " occupancy checks, "
            << r.plan.watched_regions.size() << " watched regions, final="
            << (r.plan.cc_final_in_main ? "yes" : "no") << '\n';

  // The executable form: baseline bytecode vs the pass-optimized listing
  // (the bytecode engine runs the latter).
  interp::BcProgram bc = interp::compile(r.program, sm, &r.plan);
  std::cout << "\n=== bytecode (baseline encoding) ===\n"
            << interp::disassemble(bc);
  interp::run_passes(bc, {});
  std::cout << "=== bytecode (optimized: fuse) ===\n"
            << interp::disassemble(bc);
  return 0;
}
