// Ablation A — selective vs blanket instrumentation, now per comm class.
//
// The paper's selective instrumentation only inserts checks where the static
// analysis could not prove correctness. This bench quantifies the win on two
// axes:
//   static   checks inserted across the corpus and the Figure-1 suites
//            (selective vs blanket), and plan construction + materialization
//            cost;
//   dynamic  the comm-class arming matrix: scenarios where a *clean*
//            communicator (world, or N clean subcomms) does the hot-loop
//            work while a *dirty* communicator is statically flagged. The
//            clean comm runs the unarmed zero-overhead path — no CC lane,
//            no id bookkeeping — so its ns/collective must sit on top of the
//            uninstrumented baseline while the dirty comm stays fully
//            checked. Program-wide arming (the pre-matrix behaviour) is the
//            comparison upper bound.
//
// Flags (accepted before the google-benchmark flags):
//   --json=PATH   write machine-readable results (BENCH_selective.json in
//                 CI): per scenario the site/class census, armed vs skipped
//                 sites, and ns/collective per arming level.
//   --smoke       skip the registered google-benchmark runs; produce the
//                 summary/JSON from fewer repetitions (CI smoke step).
#include "core/instrumentation.h"
#include "core/summaries.h"
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/json_writer.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/workloads.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace {

using namespace parcoach;

// ---- Static census (selective vs blanket) -----------------------------------

struct Row {
  std::string name;
  size_t collective_sites = 0;
  size_t selective_checks = 0;
  size_t blanket_checks = 0;
  bool has_warnings = false;
};

Row measure(const std::string& name, const std::string& source) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, name, source, diags, opts);
  if (!r.ok) std::abort();
  Row row;
  row.name = name;
  row.collective_sites = r.plan.total_collective_sites;
  row.selective_checks = r.plan.check_count();
  row.blanket_checks = core::make_blanket_plan(*r.module).check_count();
  row.has_warnings = diags.size() > 0;
  return row;
}

void bench_plan_and_apply(benchmark::State& state, bool blanket) {
  const auto& g = workloads::figure1_suite()[4]; // HERA, the largest
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::Warnings;
  auto compiled = driver::compile(sm, g.name, g.source, diags, opts);
  if (!compiled.ok) std::abort();
  for (auto _ : state) {
    state.PauseTiming();
    // Work on a fresh clone of the module each iteration (apply mutates).
    DiagnosticEngine d2;
    driver::PipelineOptions o2;
    o2.mode = driver::Mode::Warnings;
    auto fresh = driver::compile(sm, g.name, g.source, d2, o2);
    state.ResumeTiming();
    const auto plan = blanket
                          ? core::make_blanket_plan(*fresh.module)
                          : core::make_plan(*fresh.module, fresh.phases,
                                            fresh.algorithm1);
    const size_t inserted = core::apply_plan(*fresh.module, plan);
    benchmark::DoNotOptimize(inserted);
  }
}

// ---- Dynamic comm scenarios (the arming matrix at runtime) ------------------
//
// Each scenario has a "dirty" communicator: a rank-dependent conditional
// whose branches run the SAME sequence on it, so Algorithm 1 flags the class
// (match_sequences is off, like the original tool) but the program runs
// clean — the armed comm is fully checked on every iteration while the
// clean comms never touch the CC lane. The hot loop is on the clean
// comm(s); its bound is rank-uniform, so the rank-taint refinement keeps
// the clean classes unarmed (without it, Algorithm 1 conservatively flags
// every loop-carried collective, as the original tool does).

struct Scenario {
  const char* name;
  std::string source;
};

std::vector<Scenario> scenarios(int reps) {
  const std::string dirty_subcomm =
      "  if (rank() >= 0) {\n"
      "    x = mpi_allreduce(x, sum, d);\n"
      "  } else {\n"
      "    x = mpi_allreduce(x, sum, d);\n"
      "  }\n";
  return {
      {"clean_world+dirty_subcomm",
       str::cat("func main() {\n  mpi_init(single);\n"
                "  var d = mpi_comm_dup();\n  var x = rank() + 1;\n",
                dirty_subcomm,
                "  for (r = 0 to ", reps, ") {\n"
                "    x = mpi_allreduce(x, sum);\n"
                "  }\n"
                "  mpi_comm_free(d);\n  mpi_finalize();\n}\n")},
      {"3_clean_subcomms+1_dirty",
       str::cat("func main() {\n  mpi_init(single);\n"
                "  var a = mpi_comm_dup();\n  var b = mpi_comm_dup();\n"
                "  var c = mpi_comm_dup();\n  var d = mpi_comm_dup();\n"
                "  var x = rank() + 1;\n",
                dirty_subcomm,
                "  for (r = 0 to ", reps, ") {\n"
                "    x = mpi_allreduce(x, sum, a);\n"
                "    x = mpi_allreduce(x, sum, b);\n"
                "    x = mpi_allreduce(x, sum, c);\n"
                "  }\n"
                "  mpi_comm_free(a);\n  mpi_comm_free(b);\n"
                "  mpi_comm_free(c);\n  mpi_comm_free(d);\n"
                "  mpi_finalize();\n}\n")},
  };
}

enum class Level { None, Selective, ProgramWide };
constexpr const char* kLevelNames[] = {"none", "selective", "programwide"};

struct CompiledScenario {
  SourceManager sm;
  driver::CompileResult result;
  core::InstrumentationPlan programwide;
};

std::unique_ptr<CompiledScenario> compile_scenario(const Scenario& s) {
  auto c = std::make_unique<CompiledScenario>();
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  opts.algorithm1.rank_taint_filter = true; // keep clean loop classes clean
  c->result = driver::compile(c->sm, s.name, s.source, diags, opts);
  if (!c->result.ok) std::abort();
  c->programwide = core::make_programwide_plan(*c->result.module,
                                               c->result.phases,
                                               c->result.algorithm1);
  return c;
}

struct RunStats {
  double ns = 0;
  double ns_per_coll = 0;
  uint64_t cc_rounds = 0;
};

RunStats run_once(const CompiledScenario& c, Level level) {
  const core::InstrumentationPlan* plan = nullptr;
  if (level == Level::Selective) plan = &c.result.plan;
  if (level == Level::ProgramWide) plan = &c.programwide;
  interp::Executor exec(c.result.program, c.sm, plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 1;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
  const auto start = std::chrono::steady_clock::now();
  const auto result = exec.run(eopts);
  const auto ns = std::chrono::steady_clock::now() - start;
  if (!result.clean) std::abort();
  RunStats s;
  s.ns = static_cast<double>(ns.count());
  if (result.mpi.app_slots_completed > 0)
    s.ns_per_coll = s.ns / static_cast<double>(result.mpi.app_slots_completed);
  s.cc_rounds = result.mpi.cc_piggybacked;
  return s;
}

struct LevelResult {
  double ns_per_coll = 0; // best-of-reps
  double overhead = 0;    // vs `none`, fractional
  uint64_t cc_rounds = 0;
};

struct ScenarioResult {
  std::string name;
  size_t sites = 0;
  size_t sites_armed = 0;
  size_t classes_total = 0;
  size_t classes_armed = 0;
  LevelResult levels[3]; // indexed by Level
};

std::vector<ScenarioResult> measure_scenarios(int reps_outer, int loop_reps) {
  std::vector<ScenarioResult> out;
  for (const auto& s : scenarios(loop_reps)) {
    const auto c = compile_scenario(s);
    ScenarioResult sr;
    sr.name = s.name;
    sr.sites = c->result.plan.total_collective_sites;
    sr.sites_armed = c->result.plan.cc_stmts.size();
    sr.classes_total = c->result.plan.total_cc_classes;
    sr.classes_armed = c->result.plan.cc_classes.size();
    double best[3] = {1e30, 1e30, 1e30};
    for (int rep = 0; rep < reps_outer; ++rep) {
      for (size_t l = 0; l < 3; ++l) {
        const auto stats = run_once(*c, static_cast<Level>(l));
        best[l] = std::min(best[l], stats.ns_per_coll);
        sr.levels[l].cc_rounds = stats.cc_rounds;
      }
    }
    for (size_t l = 0; l < 3; ++l) sr.levels[l].ns_per_coll = best[l];
    for (size_t l = 0; l < 3; ++l)
      sr.levels[l].overhead = best[l] / best[0] - 1.0;
    out.push_back(std::move(sr));
  }
  return out;
}

void print_static_table() {
  std::vector<Row> rows;
  for (const auto& e : workloads::corpus()) rows.push_back(measure(e.name, e.source));
  for (const auto& g : workloads::figure1_suite())
    rows.push_back(measure(g.name, g.source));

  std::cout << "\n=== Ablation A: selective vs blanket instrumentation ===\n\n"
            << std::left << std::setw(34) << "program" << std::right
            << std::setw(8) << "sites" << std::setw(12) << "selective"
            << std::setw(10) << "blanket" << std::setw(12) << "saved %"
            << '\n';
  size_t tot_sel = 0, tot_blk = 0;
  for (const auto& r : rows) {
    const double saved =
        r.blanket_checks == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(r.selective_checks) /
                                 static_cast<double>(r.blanket_checks));
    tot_sel += r.selective_checks;
    tot_blk += r.blanket_checks;
    std::cout << std::left << std::setw(34) << r.name << std::right
              << std::setw(8) << r.collective_sites << std::setw(12)
              << r.selective_checks << std::setw(10) << r.blanket_checks
              << std::setw(11) << std::fixed << std::setprecision(1) << saved
              << '%' << '\n';
  }
  std::cout << std::left << std::setw(34) << "TOTAL" << std::right
            << std::setw(8) << ' ' << std::setw(12) << tot_sel << std::setw(10)
            << tot_blk << std::setw(11) << std::fixed << std::setprecision(1)
            << (tot_blk ? 100.0 * (1.0 - static_cast<double>(tot_sel) /
                                            static_cast<double>(tot_blk))
                        : 0.0)
            << '%' << '\n';
  std::cout << "\nClean programs (the suites, clean_* corpus entries) get "
               "zero checks; only programs\nwith potential errors pay for "
               "verification. Buggy programs still check fewer sites\nthan "
               "blanket when phase-1/2 findings are localized.\n";
}

void print_scenarios(const std::vector<ScenarioResult>& results, int reps) {
  std::cout << "\n=== Comm-class arming matrix (2 ranks, best of " << reps
            << " runs) ===\n\n"
            << std::left << std::setw(28) << "scenario" << std::right
            << std::setw(7) << "sites" << std::setw(7) << "armed"
            << std::setw(9) << "classes" << std::setw(13) << "none ns/c"
            << std::setw(14) << "selective %" << std::setw(15)
            << "programwide %" << std::setw(9) << "cc(sel)" << '\n';
  for (const auto& sr : results) {
    std::cout << std::left << std::setw(28) << sr.name << std::right
              << std::setw(7) << sr.sites << std::setw(7) << sr.sites_armed
              << std::setw(6) << sr.classes_armed << '/' << sr.classes_total
              << std::setw(13) << std::fixed << std::setprecision(0)
              << sr.levels[0].ns_per_coll << std::setw(13)
              << std::setprecision(1) << 100.0 * sr.levels[1].overhead << '%'
              << std::setw(14) << 100.0 * sr.levels[2].overhead << '%'
              << std::setw(9) << sr.levels[1].cc_rounds << '\n';
  }
  std::cout << "\nShape to check: the clean comms carry the hot loop, so "
               "selective ns/collective sits\non the uninstrumented baseline "
               "(the unarmed path has no CC lane at all) while the\ndirty "
               "comm still runs every check (cc(sel) > 0); program-wide "
               "arming pays the CC\nlane on every collective of every "
               "comm.\n";
}

void write_json(const std::string& path, const std::vector<ScenarioResult>& results) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("arming", "per_comm_class");
  w.kv("engine", to_string(interp::ExecOptions{}.engine));
  w.key("scenarios");
  w.begin_array();
  for (const auto& sr : results) {
    w.begin_object();
    w.kv("scenario", sr.name);
    w.kv("sites", sr.sites);
    w.kv("sites_armed", sr.sites_armed);
    w.kv("sites_skipped", sr.sites - sr.sites_armed);
    w.kv("classes_total", sr.classes_total);
    w.kv("classes_armed", sr.classes_armed);
    w.key("levels");
    w.begin_object();
    for (size_t l = 0; l < 3; ++l) {
      const auto& lv = sr.levels[l];
      w.key(kLevelNames[l]);
      w.begin_object();
      w.kv("ns_per_collective", lv.ns_per_coll, 1);
      w.kv("overhead_vs_none", lv.overhead, 4);
      w.kv("cc_rounds", lv.cc_rounds);
      w.end_object();
    }
    w.end_object();
    w.kv("clean_comm_overhead_vs_none", sr.levels[1].overhead, 4);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  std::cout << "wrote " << path << "\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  // Strip our flags before handing argv to google-benchmark.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (!smoke) {
    benchmark::RegisterBenchmark("Selective/plan+apply/hera/selective",
                                 [](benchmark::State& st) {
                                   bench_plan_and_apply(st, false);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark("Selective/plan+apply/hera/blanket",
                                 [](benchmark::State& st) {
                                   bench_plan_and_apply(st, true);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.05);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  print_static_table();
  const int reps = smoke ? 3 : 7;
  const int loop_reps = smoke ? 150 : 400;
  const auto results = measure_scenarios(reps, loop_reps);
  print_scenarios(results, reps);
  if (!json_path.empty()) write_json(json_path, results);
  return 0;
}
