// parcoachmt — command-line front end for the validator.
//
//   parcoachmt analyze    FILE [options]   static analysis, print warnings
//   parcoachmt instrument FILE [options]   dump IR after verification codegen
//   parcoachmt run        FILE [options]   execute on the simulated runtime
//
// Options:
//   --ranks=N           MPI processes for `run` (default 2)
//   --threads=N         default omp team size for `run` (default 2)
//   --no-verify         run without the generated runtime checks
//   --taint-filter      Algorithm 1 keeps only rank-dependent conditionals
//   --match-sequences   suppress provably balanced conditionals (IJHPCA rule)
//   --initial=multithreaded
//                       analyze functions as if called from parallel code
//   --timeout-ms=N      watchdog hang timeout for `run` (default 1000)
//   --hang-timeout-ms=N same as --timeout-ms (escalation-ladder stage 2)
//   --soft-deadline-ms=N stage 1: record a stall report (and flight-recorder
//                       dump when tracing) without aborting; 0 = disabled
//   --hard-deadline-ms=N stage 3: abort unconditionally after this much
//                       wall-clock time, even while progress is being made;
//                       0 = disabled
//   --type-only-cc      paper-faithful CC (ignore reduction op / root)
//   --engine=NAME       execution engine for `run`: bytecode (default, the
//                       register VM) or ast (the tree-walking oracle)
//   --dump-bytecode     print the bytecode listing for `run`/`instrument`,
//                       both the baseline encoding and the fused form
//   --no-fuse           disable bytecode peephole fusion (bisection aid;
//                       affects `run` and --dump-bytecode)
//   --trace=FILE        record a flight-recorder trace of `run` and export
//                       it as Chrome trace-event JSON (load in Perfetto)
//   --metrics-json=FILE dump the runtime metrics registry as JSON after `run`
//   --fault-seed=N      run under a seeded chaos fault schedule (rank crash +
//                       delay/jitter/PCT perturbation; deterministic per seed)
//   --fault-plan=FILE   run under an explicit fault plan (key = value lines;
//                       see FaultPlan::parse)
//   --timings           print compile stage times to stderr, and for `run`
//                       the spawn / ranks / teardown split of the run
//
// Numeric values must be plain base-10 integers in range (1 <= N <= 1024
// for --ranks, 1 <= N <= 256 for --threads, N >= 0 for the millisecond
// flags); anything else is a usage error.
//
// Exit codes: 0 clean, 1 usage/compile error, 2 static warnings found,
// 3 runtime error detected, 4 deadlock detected.
#include "driver/pipeline.h"
#include "driver/report.h"
#include "interp/executor.h"
#include "miniomp/team.h"
#include "support/fault.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>

namespace {

// Upper bound of --ranks; --threads is bounded by miniomp::kMaxThreads, the
// cap on a program's own num_threads clause too.
constexpr int32_t kMaxRanks = 1024;

using namespace parcoach;

struct CliOptions {
  std::string command;
  std::string file;
  int32_t ranks = 2;
  int32_t threads = 2;
  bool verify = true;
  bool taint_filter = false;
  bool match_sequences = false;
  bool multithreaded_initial = false;
  bool type_only_cc = false;
  int32_t timeout_ms = 1000;
  int32_t soft_deadline_ms = 0;
  int32_t hard_deadline_ms = 0;
  interp::Engine engine = interp::Engine::Bytecode;
  bool dump_bytecode = false;
  interp::BcPassOptions passes;
  std::string trace_path;
  std::string metrics_path;
  bool fault_seed_set = false;
  uint64_t fault_seed = 0;
  std::string fault_plan_path;
  bool timings = false;
};

int usage() {
  std::cerr << "usage: parcoachmt {analyze|instrument|run} FILE"
               " [--ranks=N] [--threads=N] [--no-verify] [--taint-filter]"
               " [--match-sequences] [--initial=multithreaded] [--timeout-ms=N]"
               " [--hang-timeout-ms=N] [--soft-deadline-ms=N]"
               " [--hard-deadline-ms=N] [--type-only-cc]"
               " [--engine=bytecode|ast] [--dump-bytecode] [--no-fuse]"
               " [--trace=FILE] [--metrics-json=FILE]"
               " [--fault-seed=N] [--fault-plan=FILE] [--timings]\n";
  return 1;
}

/// Parses all of `text`, the value part of command-line argument `arg`, as
/// a base-10 integer in [lo, hi] into `out`. An empty value, a leading '+'
/// or trailing junk, or an out-of-range number is reported on stderr and
/// returns false (the caller prints usage).
template <typename T>
bool parse_number(const std::string& arg, std::string_view text, T lo, T hi,
                  T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    std::cerr << "invalid value in " << arg << " (expected an integer in ["
              << lo << ", " << hi << "])\n";
    return false;
  }
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  if (argc < 3) return false;
  opts.command = argv[1];
  opts.file = argv[2];
  constexpr int32_t kIntMax = std::numeric_limits<int32_t>::max();
  // Numeric flags: {prefix, destination, accepted range}. Every rank is an
  // OS thread, and so is every team member, so their counts are capped.
  const struct {
    const char* prefix;
    int32_t* dest;
    int32_t lo, hi;
  } numeric[] = {
      {"--ranks=", &opts.ranks, 1, kMaxRanks},
      {"--threads=", &opts.threads, 1, miniomp::kMaxThreads},
      {"--timeout-ms=", &opts.timeout_ms, 0, kIntMax},
      {"--hang-timeout-ms=", &opts.timeout_ms, 0, kIntMax},
      {"--soft-deadline-ms=", &opts.soft_deadline_ms, 0, kIntMax},
      {"--hard-deadline-ms=", &opts.hard_deadline_ms, 0, kIntMax},
  };
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    auto value_of = [&](const std::string& prefix) -> std::string {
      return a.substr(prefix.size());
    };
    const auto* flag = std::find_if(
        std::begin(numeric), std::end(numeric),
        [&](const auto& f) { return a.rfind(f.prefix, 0) == 0; });
    if (flag != std::end(numeric)) {
      if (!parse_number<int32_t>(a, value_of(flag->prefix), flag->lo,
                                 flag->hi, *flag->dest))
        return false;
    } else if (a == "--no-verify") opts.verify = false;
    else if (a == "--taint-filter") opts.taint_filter = true;
    else if (a == "--match-sequences") opts.match_sequences = true;
    else if (a == "--type-only-cc") opts.type_only_cc = true;
    else if (a == "--initial=multithreaded") opts.multithreaded_initial = true;
    else if (a == "--engine=bytecode") opts.engine = interp::Engine::Bytecode;
    else if (a == "--engine=ast") opts.engine = interp::Engine::Ast;
    else if (a == "--dump-bytecode") opts.dump_bytecode = true;
    else if (a == "--no-fuse") opts.passes.fuse = false;
    else if (a.rfind("--trace=", 0) == 0) opts.trace_path = value_of("--trace=");
    else if (a.rfind("--metrics-json=", 0) == 0)
      opts.metrics_path = value_of("--metrics-json=");
    else if (a.rfind("--fault-seed=", 0) == 0) {
      if (!parse_number<uint64_t>(a, value_of("--fault-seed="), 0,
                                  std::numeric_limits<uint64_t>::max(),
                                  opts.fault_seed))
        return false;
      opts.fault_seed_set = true;
    } else if (a.rfind("--fault-plan=", 0) == 0)
      opts.fault_plan_path = value_of("--fault-plan=");
    else if (a == "--timings") opts.timings = true;
    else {
      std::cerr << "unknown option: " << a << '\n';
      return false;
    }
  }
  return opts.command == "analyze" || opts.command == "instrument" ||
         opts.command == "run";
}

/// --dump-bytecode: prints the baseline encoding next to the fused form so a
/// fusion rewrite can be inspected (and bisected with --no-fuse).
void dump_bytecode(const driver::CompileResult& compiled,
                   const SourceManager& sm,
                   const core::InstrumentationPlan* plan,
                   const interp::BcPassOptions& passes) {
  interp::BcProgram bc = interp::compile(compiled.program, sm, plan);
  std::cout << "=== bytecode (baseline encoding) ===\n"
            << interp::disassemble(bc);
  interp::run_passes(bc, passes);
  std::cout << "=== bytecode (after passes: fuse="
            << (passes.fuse ? "on" : "off") << ") ===\n"
            << interp::disassemble(bc);
}

} // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, cli)) return usage();

  std::ifstream in(cli.file);
  if (!in) {
    std::cerr << "cannot open " << cli.file << '\n';
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  popts.algorithm1.rank_taint_filter = cli.taint_filter;
  popts.algorithm1.match_sequences = cli.match_sequences;
  if (cli.multithreaded_initial)
    popts.analysis.initial_context = core::InitialContext::Multithreaded;

  const auto compiled = driver::compile(sm, cli.file, buf.str(), diags, popts);
  if (!compiled.ok) {
    diags.print(std::cerr, sm);
    return 1;
  }
  if (cli.timings)
    std::cerr << "stage times: " << driver::format_stage_times(compiled.times)
              << '\n';

  if (cli.command == "analyze") {
    diags.print(std::cout, sm);
    auto census = driver::census_of(cli.file, compiled, diags);
    census.code_lines = str::count_code_lines(sm.buffer_text(0));
    std::cout << '\n' << driver::format_census_table({census});
    std::cout << "\nrequired thread level: MPI_THREAD_"
              << ir::to_string(compiled.thread_levels.required) << '\n'
              << "stage times: " << driver::format_stage_times(compiled.times)
              << '\n';
    return diags.size() > 0 ? 2 : 0;
  }

  if (cli.command == "instrument") {
    diags.print(std::cerr, sm);
    std::cout << compiled.emitted;
    if (cli.dump_bytecode)
      dump_bytecode(compiled, sm, &compiled.plan, cli.passes);
    std::cerr << "inserted " << compiled.inserted_checks << " checks over "
              << compiled.plan.total_collective_sites
              << " collective sites\n";
    return 0;
  }

  // run
  diags.print(std::cout, sm);
  if (cli.dump_bytecode)
    dump_bytecode(compiled, sm, cli.verify ? &compiled.plan : nullptr,
                  cli.passes);
  interp::Executor exec(compiled.program, sm,
                        cli.verify ? &compiled.plan : nullptr);
  interp::ExecOptions eopts;
  eopts.num_ranks = cli.ranks;
  eopts.num_threads = cli.threads;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(cli.timeout_ms);
  eopts.mpi.soft_deadline = std::chrono::milliseconds(cli.soft_deadline_ms);
  eopts.mpi.hard_deadline = std::chrono::milliseconds(cli.hard_deadline_ms);
  eopts.verify.check_arguments = !cli.type_only_cc;
  eopts.engine = cli.engine;
  eopts.passes = cli.passes;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<MetricsRegistry> metrics;
  if (!cli.trace_path.empty()) {
    tracer = std::make_unique<Tracer>();
    eopts.tracer = tracer.get();
  }
  if (!cli.metrics_path.empty()) {
    metrics = std::make_unique<MetricsRegistry>();
    eopts.metrics = metrics.get();
  }
  std::unique_ptr<FaultInjector> injector;
  if (cli.fault_seed_set || !cli.fault_plan_path.empty()) {
    FaultPlan plan;
    if (!cli.fault_plan_path.empty()) {
      std::ifstream pin(cli.fault_plan_path);
      if (!pin) {
        std::cerr << "cannot open " << cli.fault_plan_path << '\n';
        return 1;
      }
      std::stringstream pbuf;
      pbuf << pin.rdbuf();
      std::string perr;
      const auto parsed = FaultPlan::parse(pbuf.str(), perr);
      if (!parsed) {
        std::cerr << "bad fault plan " << cli.fault_plan_path << ": " << perr
                  << '\n';
        return 1;
      }
      plan = *parsed;
      if (cli.fault_seed_set) plan.seed = cli.fault_seed;
    } else {
      plan = FaultPlan::chaos(cli.fault_seed, cli.ranks);
    }
    // The repro line: everything needed to re-run this exact schedule —
    // the fault plan plus the watchdog escalation ladder it raced against.
    std::cerr << "fault plan: " << plan.str() << " --hang-timeout-ms="
              << cli.timeout_ms << " --soft-deadline-ms="
              << cli.soft_deadline_ms << " --hard-deadline-ms="
              << cli.hard_deadline_ms << '\n';
    injector = std::make_unique<FaultInjector>(plan, cli.ranks);
    eopts.mpi.fault = injector.get();
  }
  const auto result = exec.run(eopts);
  if (cli.timings)
    std::cerr << "run times: " << driver::format_run_times(result.mpi) << '\n';
  if (tracer) {
    std::ofstream out(cli.trace_path);
    if (!out) {
      std::cerr << "cannot write " << cli.trace_path << '\n';
      return 1;
    }
    tracer->write_chrome_trace(out);
    std::cerr << "wrote trace to " << cli.trace_path << " ("
              << tracer->events_captured() << " events, "
              << tracer->events_dropped() << " dropped)\n";
  }
  if (metrics) {
    std::ofstream out(cli.metrics_path);
    if (!out) {
      std::cerr << "cannot write " << cli.metrics_path << '\n';
      return 1;
    }
    metrics->write_json(out);
    std::cerr << "wrote metrics to " << cli.metrics_path << '\n';
  }

  std::cerr << driver::format_run_summary(result) << '\n';
  for (const auto& line : result.output) std::cout << line << '\n';
  for (const auto& d : result.rt_diags)
    std::cout << sm.describe(d.loc) << ": " << to_string(d.severity) << " ["
              << to_string(d.kind) << "] " << d.message << '\n';
  if (result.mpi.deadlock) {
    std::cout << result.mpi.deadlock_details;
    return 4;
  }
  if (result.rt_error_count() > 0) return 3;
  if (!result.clean) {
    for (const auto& e : result.mpi.rank_errors)
      if (!e.empty()) std::cout << e << '\n';
    return 3;
  }
  return 0;
}
