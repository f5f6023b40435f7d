#include "layers.h"

#include "core/summaries.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "ir/printer.h"
#include "passes/pass_manager.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

namespace bench {

using namespace parcoach;

namespace {

class Clock {
public:
  explicit Clock(int64_t& out)
      : out_(out), start_(std::chrono::steady_clock::now()) {}
  ~Clock() {
    out_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  }
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

private:
  int64_t& out_;
  std::chrono::steady_clock::time_point start_;
};

} // namespace

driver::CompileResult compile_by_layer(SourceManager& sm,
                                       const std::string& name,
                                       const std::string& source,
                                       DiagnosticEngine& diags,
                                       const driver::PipelineOptions& opts,
                                       CompileLayers& t) {
  driver::CompileResult r;
  const int32_t id = sm.add_buffer(name, source);
  {
    Clock c(t.parse_ns);
    r.program = frontend::Parser::parse(sm, id, diags);
  }
  if (diags.has_errors()) return r;
  {
    Clock c(t.sema_ns);
    if (!frontend::Sema::analyze(r.program, diags).ok) return r;
  }
  {
    Clock c(t.lower_ns);
    r.module = frontend::Lowering::lower(r.program, diags);
  }
  {
    Clock c(t.optimize_ns);
    passes::PassManager::standard_pipeline().run(*r.module);
  }
  std::optional<core::Summaries> sums;
  {
    Clock c(t.summaries_ns);
    sums.emplace(core::Summaries::build(*r.module));
  }
  {
    Clock c(t.phases_ns);
    r.phases = core::run_phases(*r.module, *sums, opts.analysis, diags);
  }
  {
    Clock c(t.algorithm1_ns);
    r.algorithm1 =
        core::run_algorithm1(*r.module, *sums, opts.algorithm1, diags);
  }
  {
    Clock c(t.thread_level_ns);
    r.thread_levels = core::check_thread_levels(*r.module, *sums, diags);
  }
  {
    Clock c(t.plan_ns);
    r.plan = core::make_plan(*r.module, r.phases, r.algorithm1);
    r.inserted_checks = core::apply_plan(*r.module, r.plan);
  }
  {
    Clock c(t.emit_ns);
    r.emitted = ir::to_text(*r.module);
    r.emitted_bytes = r.emitted.size();
  }
  r.ok = !diags.has_errors();
  return r;
}

RunSplit split_run(const Tracer& tracer, int64_t started_ns,
                   int64_t returned_ns) {
  RunSplit s;
  std::map<int32_t, int64_t> coll_open, park_open; // tid -> open span start
  std::map<int32_t, int64_t> last_event;           // rank -> timestamp
  for (const TraceEvent& e : tracer.snapshot()) {
    if (e.rank >= 0)
      last_event[e.rank] = std::max(last_event[e.rank], e.ts_ns);
    switch (e.kind) {
      case TraceEv::CollEnter: coll_open[e.tid] = e.ts_ns; break;
      case TraceEv::Park: park_open[e.tid] = e.ts_ns; break;
      case TraceEv::CollExit:
        if (auto it = coll_open.find(e.tid); it != coll_open.end()) {
          s.coll_ns += e.ts_ns - it->second;
          coll_open.erase(it);
        }
        break;
      case TraceEv::Unpark:
        if (auto it = park_open.find(e.tid); it != park_open.end()) {
          s.parked_ns += e.ts_ns - it->second;
          park_open.erase(it);
        }
        break;
      default: break;
    }
  }
  int64_t last = 0;
  for (const auto& [rank, ts] : last_event) {
    s.ranks_ns += std::max<int64_t>(0, ts - started_ns);
    last = std::max(last, ts);
  }
  s.teardown_ns = std::max<int64_t>(0, returned_ns - last);
  return s;
}

} // namespace bench
