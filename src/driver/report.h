// Warning-census and pipeline reports (the textual outputs of the tool, and
// the rows examples/suite_audit prints for the Figure-1 subjects).
#pragma once

#include "driver/pipeline.h"
#include "interp/executor.h"

#include <string>

namespace parcoach::driver {

struct WarningCensus {
  std::string program;
  size_t code_lines = 0;
  size_t functions = 0;
  size_t collectives = 0;
  size_t parallel_regions = 0;
  size_t multithreaded = 0;    // phase 1 warnings
  size_t concurrent = 0;       // phase 2 warnings
  size_t mismatch = 0;         // phase 3 (Algorithm 1) warnings
  size_t mismatch_filtered = 0;// with rank-taint refinement
  size_t thread_level = 0;
  size_t checks_inserted = 0;
  size_t total_collective_sites = 0;
  /// Comm-class arming matrix: CC-armed sites and classes vs the totals.
  size_t cc_sites_armed = 0;
  size_t cc_classes_armed = 0;
  size_t cc_classes_total = 0;
};

/// Gathers the census from a compile result + its diagnostics.
[[nodiscard]] WarningCensus census_of(const std::string& name,
                                      const CompileResult& r,
                                      const DiagnosticEngine& diags);

/// Fixed-width table over several censuses (one row per program).
[[nodiscard]] std::string format_census_table(const std::vector<WarningCensus>& rows);

/// Human-readable stage-time summary.
[[nodiscard]] std::string format_stage_times(const StageTimes& t);

/// World::run's wall-clock split: "spawn=…ms ranks=…ms teardown=…ms".
[[nodiscard]] std::string format_run_times(const simmpi::RunReport& r);

/// One-line dynamic-run summary: which engine drove the run, how much work
/// it did (steps / VM instructions), and the runtime-check census. Printed
/// by the CLI after `run` and by examples.
[[nodiscard]] std::string format_run_summary(const interp::ExecResult& r);

} // namespace parcoach::driver
