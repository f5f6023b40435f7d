// The traced round's view of one verdict, layer by layer, timed from outside
// by calling each layer's public functions.
#pragma once

#include "driver/pipeline.h"
#include "support/trace.h"

#include <cstdint>
#include <string>

namespace bench {

/// Wall time per compile layer, in driver::compile_buffer's order.
struct CompileLayers {
  int64_t parse_ns = 0;
  int64_t sema_ns = 0;
  int64_t lower_ns = 0;
  int64_t optimize_ns = 0;
  int64_t summaries_ns = 0;
  int64_t phases_ns = 0;
  int64_t algorithm1_ns = 0;
  int64_t thread_level_ns = 0;
  int64_t plan_ns = 0; // make_plan + apply_plan
  int64_t emit_ns = 0;
};

/// driver::compile in WarningsAndCodegen mode, one public call at a time.
/// The caller checks that `emitted` matches driver::compile's.
[[nodiscard]] parcoach::driver::CompileResult
compile_by_layer(parcoach::SourceManager& sm, const std::string& name,
                 const std::string& source, parcoach::DiagnosticEngine& diags,
                 const parcoach::driver::PipelineOptions& opts,
                 CompileLayers& t);

/// Where one traced run's time went, read from the tracer's events.
struct RunSplit {
  int64_t coll_ns = 0;     // inside CollEnter..CollExit spans, all threads
  int64_t parked_ns = 0;   // inside Park..Unpark, all threads
  int64_t ranks_ns = 0;    // sum over ranks of (last rank event - run start)
  int64_t teardown_ns = 0; // last rank event -> return of Executor::run
};

/// `started_ns` and `returned_ns` bracket Executor::run on the tracer's
/// clock (nanoseconds since the tracer was constructed).
[[nodiscard]] RunSplit split_run(const parcoach::Tracer& tracer,
                                 int64_t started_ns, int64_t returned_ns);

} // namespace bench
