// parcoach_bench: one round of the end-to-end benchmark (see README.md).
//
//   parcoach_bench --workload=NAME --seed=N --seconds=S
//                  [--mode=plain|counted|traced] [--flip]
//
// A round builds the workload's programs from the seed, judges one untimed
// warm-up sweep, then sweeps the programs in a seeded order until S seconds
// have passed. Each verdict is timed from source text to verdict the way
// `parcoachmt_cli run` reaches it: driver::compile, then Executor::run. One
// client, closed loop: the next verdict starts when the last one is judged.
// Every verdict is checked against its program's known answer, and clean
// runs against the AST engine's output, computed after the timed loop.
//
// Modes:
//   plain    the measured configuration
//   counted  plain, plus heap allocations counted during the timed loop
//   traced   every compile layer called and timed on its own, a Tracer and a
//            MetricsRegistry on every run, and a separate bytecode compile
// --flip inverts the expected answer of the first program (oracle self-test).
//
// Output: one JSON line of raw integers (nanoseconds and counts); run.py
// derives every metric from it.
#include "layers.h"
#include "probes.h"
#include "subjects.h"

#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads/workloads.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <numeric>

namespace {

using namespace parcoach;
using namespace bench;
using SteadyClock = std::chrono::steady_clock;

int64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 3;
  std::string mode = "plain";
  bool flip = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(std::string(prefix).size());
    };
    try {
      if (auto v = value("--workload=")) a.workload = *v;
      else if (auto v = value("--seed=")) a.seed = std::stoull(*v);
      else if (auto v = value("--seconds=")) a.seconds = std::stod(*v);
      else if (auto v = value("--mode=")) a.mode = *v;
      else if (arg == "--flip") a.flip = true;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0) ||
      (a.mode != "plain" && a.mode != "counted" && a.mode != "traced"))
    return std::nullopt;
  return a;
}

/// Sums over the traced verdicts of a round.
struct TracedTotals {
  CompileLayers compile;
  int64_t bc_compile_ns = 0;
  int64_t bc_passes_ns = 0;
  int64_t run_ns = 0;
  RunSplit split;
  uint64_t warnings = 0;
  uint64_t armed_sites = 0;
  uint64_t bc_instrs = 0;
  uint64_t ops = 0;
  uint64_t slots = 0;
  uint64_t slot_waits = 0;
  uint64_t comms_created = 0;
  uint64_t watchdog_polls = 0;
  uint64_t cc_checks = 0;
  uint64_t events = 0;
  uint64_t events_dropped = 0;
};

/// Work counts of one verdict that must repeat exactly.
struct Counts {
  uint64_t warnings = 0;
  uint64_t ops = 0;
  uint64_t slots = 0;
  uint64_t cc_checks = 0;
  bool operator==(const Counts&) const = default;
};

/// Per-program state the oracle keeps across verdicts.
struct Reference {
  std::string emitted;                            // driver::compile's text
  std::optional<std::vector<std::string>> output; // first clean run's output
  std::unique_ptr<Verdict> kept;                  // for the AST reference run
  std::optional<Counts> counts;
  uint64_t verdicts = 0;
};

uint64_t metric(const simmpi::RunReport& r, const std::string& name) {
  uint64_t sum = 0;
  for (const auto& [n, v] : r.metrics)
    if (n == name) sum += static_cast<uint64_t>(v);
  return sum;
}

uint64_t slot_waits(const simmpi::RunReport& r) {
  uint64_t sum = 0;
  for (const auto& [n, v] : r.metrics)
    if (n.rfind("comm.", 0) == 0 && n.size() > 11 &&
        n.compare(n.size() - 11, 11, ".slot_waits") == 0)
      sum += static_cast<uint64_t>(v);
  return sum;
}

class Round {
public:
  Round(Args args, std::vector<Subject> subjects)
      : args_(std::move(args)), subjects_(std::move(subjects)),
        refs_(subjects_.size()), order_rng_(args_.seed ^ 0x5eedULL) {}

  /// One untimed sweep through driver::compile: the emitted-text and output
  /// references, and the warm caches every timed verdict also sees.
  void warm_up() {
    for (size_t i = 0; i < subjects_.size(); ++i) {
      auto v = run_verdict(subjects_[i]);
      refs_[i].emitted = v->compiled.emitted;
      check(i, *v);
      if (subjects_[i].oracle.run == Oracle::Run::Clean)
        refs_[i].kept = std::move(v);
    }
    if (traced()) size_ring();
  }

  void timed_loop(SteadyClock::time_point entered) {
    std::vector<size_t> order(subjects_.size());
    std::iota(order.begin(), order.end(), 0);
    const Usage u0 = usage();
    const ProcessCounts c0 = process_counts();
    if (args_.mode == "counted") count_allocations(true);
    const auto start = SteadyClock::now();
    setup_ns_ = ns_between(entered, start);
    const int64_t budget = static_cast<int64_t>(args_.seconds * 1e9);
    do {
      for (size_t k = order.size(); k > 1; --k)
        std::swap(order[k - 1], order[order_rng_.below(k)]);
      for (size_t i : order) {
        const Subject& s = subjects_[i];
        if (traced()) {
          int64_t ns = 0;
          auto v = traced_verdict(s, totals_, ns);
          samples_ns_.push_back(ns);
          if (args_.workload == "fig1_compile")
            fig1_ns_[s.name].push_back(ns);
          check(i, *v);
          continue;
        }
        const auto t0 = SteadyClock::now();
        auto v = run_verdict(s);
        samples_ns_.push_back(ns_between(t0, SteadyClock::now()));
        if (v->run) ranks_started_ += static_cast<uint64_t>(s.ranks);
        check(i, *v);
      }
    } while (ns_between(start, SteadyClock::now()) < budget);
    loop_ns_ = ns_between(start, SteadyClock::now());
    count_allocations(false);
    if (totals_.events_dropped > 0)
      note(integrity_, args_.workload, "tracer dropped events");
    const Usage u1 = usage();
    const ProcessCounts c1 = process_counts();
    cpu_ns_ = u1.cpu_ns - u0.cpu_ns;
    ctx_switches_ = u1.ctx_switches - u0.ctx_switches;
    maxrss_kb_ = u1.maxrss_kb;
    allocs_ = c1.allocs - c0.allocs;
    alloc_bytes_ = c1.alloc_bytes - c0.alloc_bytes;
    threads_created_ = c1.threads_created - c0.threads_created;
  }

  /// The AST engine is the reference semantics: every clean program's
  /// observed output must be its output.
  void check_against_ast() {
    for (size_t i = 0; i < subjects_.size(); ++i) {
      Reference& ref = refs_[i];
      if (!ref.kept || !ref.output) continue;
      const Subject& s = subjects_[i];
      interp::Executor exec(ref.kept->compiled.program, ref.kept->sm,
                            &ref.kept->plan(s));
      auto opts = exec_options(s);
      opts.engine = interp::Engine::Ast;
      const auto ast = exec.run(opts);
      if (ast.clean && ast.output == *ref.output) continue;
      failed_ += ref.verdicts;
      note(failures_, s.name, "output differs from the AST engine's");
    }
  }

  /// Figure-1 rows for workloads that do not compile the Figure-1 subjects.
  void probe_fig1() {
    if (!traced() || args_.workload == "fig1_compile") return;
    for (const auto& g : workloads::figure1_suite()) {
      for (int rep = 0; rep < 3; ++rep) {
        SourceManager sm;
        DiagnosticEngine diags;
        CompileLayers unused;
        const auto t0 = SteadyClock::now();
        const auto r = compile_by_layer(sm, g.name, g.source, diags,
                                        pipeline_options(), unused);
        fig1_ns_[g.name].push_back(ns_between(t0, SteadyClock::now()));
        if (!r.ok) note(integrity_, g.name, "Figure-1 subject failed to compile");
      }
    }
  }

  void write(std::ostream& os) const {
    JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("workload", args_.workload);
    w.kv("seed", args_.seed);
    w.kv("mode", args_.mode);
    w.kv("subjects", static_cast<uint64_t>(subjects_.size()));
    w.kv("setup_ns", setup_ns_);
    w.kv("loop_ns", loop_ns_);
    w.kv("attempted", attempted_);
    w.kv("failed", failed_);
    w.kv("cpu_ns", cpu_ns_);
    w.kv("ctx_switches", ctx_switches_);
    w.kv("maxrss_kb", maxrss_kb_);
    w.kv("allocs", allocs_);
    w.kv("alloc_bytes", alloc_bytes_);
    w.kv("threads_created", threads_created_);
    w.kv("ranks_started", ranks_started_);
    w.key("samples_ns").begin_array();
    for (int64_t ns : samples_ns_) w.value(ns);
    w.end_array();
    w.key("failures").begin_array();
    for (const auto& f : failures_) w.value(f);
    w.end_array();
    w.key("integrity").begin_array();
    for (const auto& f : integrity_) w.value(f);
    w.end_array();
    if (traced()) write_traced(w);
    w.end_object();
    os << '\n';
  }

private:
  [[nodiscard]] bool traced() const { return args_.mode == "traced"; }

  static void note(std::vector<std::string>& list, const std::string& name,
                   const std::string& why) {
    if (list.size() < 8) list.push_back(str::cat(name, ": ", why));
  }

  void check(size_t i, const Verdict& v) {
    const Subject& s = subjects_[i];
    Reference& ref = refs_[i];
    std::string why = judge(s, v);
    if (why.empty() && v.compiled.emitted != ref.emitted) {
      if (traced())
        note(integrity_, s.name, "layer-by-layer compile emitted other text");
      else
        why = "emitted text differs from the first sweep's";
    }
    if (why.empty() && s.oracle.run == Oracle::Run::Clean) {
      if (!ref.output) ref.output = v.run->output;
      else if (*ref.output != v.run->output)
        why = "output differs between runs";
    }
    bool ok = why.empty();
    if (args_.flip && i == 0) {
      ok = !ok;
      why = ok ? "" : "expected answer flipped";
    }
    ++attempted_;
    ++ref.verdicts;
    if (!ok) {
      ++failed_;
      note(failures_, s.name, why);
    }
    if (traced()) check_counts(i, v);
  }

  void check_counts(size_t i, const Verdict& v) {
    const Subject& s = subjects_[i];
    Counts c;
    c.warnings = v.diags.size();
    if (s.deterministic_counts && v.run) {
      c.ops = v.run->mpi.bytecode_ops;
      c.slots = v.run->mpi.app_slots_completed +
                v.run->mpi.verifier_slots_completed;
      c.cc_checks = v.run->mpi.cc_piggybacked;
    }
    Reference& ref = refs_[i];
    if (!ref.counts) ref.counts = c;
    else if (!(*ref.counts == c))
      note(integrity_, s.name, "work counts differ between runs");
  }

  /// Ring capacity per thread such that no event of a run is overwritten:
  /// grown until a traced run of every program drops nothing.
  void size_ring() {
    for (const Subject& s : subjects_) {
      if (!s.executes()) continue;
      for (;;) {
        TracedTotals scratch;
        int64_t ns = 0;
        (void)traced_verdict(s, scratch, ns);
        if (scratch.events_dropped == 0 || ring_ >= (size_t{1} << 22)) break;
        ring_ *= 4;
      }
    }
  }

  std::unique_ptr<Verdict> traced_verdict(const Subject& s, TracedTotals& t,
                                          int64_t& verdict_ns) {
    auto v = std::make_unique<Verdict>();
    const auto t0 = SteadyClock::now();
    v->compiled = compile_by_layer(v->sm, s.name, s.source, v->diags,
                                   pipeline_options(), t.compile);
    if (!s.executes() || !v->compiled.ok) {
      verdict_ns = ns_between(t0, SteadyClock::now());
      t.warnings += v->diags.size();
      t.armed_sites += v->plan(s).cc_stmts.size();
      return v;
    }
    if (s.programwide) {
      const auto p0 = SteadyClock::now();
      v->programwide = core::make_programwide_plan(
          *v->compiled.module, v->compiled.phases, v->compiled.algorithm1);
      t.compile.plan_ns += ns_between(p0, SteadyClock::now());
    }
    const auto epoch = SteadyClock::now();
    Tracer tracer(TracerOptions{true, ring_});
    MetricsRegistry metrics;
    auto opts = exec_options(s);
    opts.tracer = &tracer;
    opts.metrics = &metrics;
    interp::Executor exec(v->compiled.program, v->sm, &v->plan(s));
    const auto r0 = SteadyClock::now();
    v->run = exec.run(opts);
    const auto r1 = SteadyClock::now();
    verdict_ns = ns_between(t0, r1);

    // Bytecode compile and passes, timed by direct calls; Executor::run did
    // the same work inside the timed run.
    const auto b0 = SteadyClock::now();
    auto bc = interp::compile(v->compiled.program, v->sm, &v->plan(s));
    const auto b1 = SteadyClock::now();
    interp::run_passes(bc, opts.passes);
    t.bc_compile_ns += ns_between(b0, b1);
    t.bc_passes_ns += ns_between(b1, SteadyClock::now());
    t.bc_instrs += bc.total_instrs();

    const RunSplit split = split_run(tracer, ns_between(epoch, r0),
                                     ns_between(epoch, r1));
    t.run_ns += ns_between(r0, r1);
    t.split.coll_ns += split.coll_ns;
    t.split.parked_ns += split.parked_ns;
    t.split.ranks_ns += split.ranks_ns;
    t.split.teardown_ns += split.teardown_ns;
    const auto& rep = v->run->mpi;
    t.warnings += v->diags.size();
    t.armed_sites += v->plan(s).cc_stmts.size();
    t.ops += rep.bytecode_ops;
    t.slots += rep.app_slots_completed + rep.verifier_slots_completed;
    t.slot_waits += slot_waits(rep);
    t.comms_created += rep.comms_created;
    t.watchdog_polls += metric(rep, "watchdog.polls");
    t.cc_checks += rep.cc_piggybacked;
    t.events += tracer.events_captured();
    t.events_dropped += tracer.events_dropped();
    return v;
  }

  void write_traced(JsonWriter& w) const {
    const TracedTotals& t = totals_;
    const CompileLayers& c = t.compile;
    w.key("traced").begin_object();
    w.kv("ring_capacity", static_cast<uint64_t>(ring_));
    w.key("ns").begin_object();
    w.kv("frontend.parse", c.parse_ns);
    w.kv("frontend.sema", c.sema_ns);
    w.kv("frontend.lower", c.lower_ns);
    w.kv("passes.optimize", c.optimize_ns);
    w.kv("ir.emit", c.emit_ns);
    w.kv("core.summaries", c.summaries_ns);
    w.kv("core.phases", c.phases_ns);
    w.kv("core.algorithm1", c.algorithm1_ns);
    w.kv("core.thread_level", c.thread_level_ns);
    w.kv("core.plan", c.plan_ns);
    w.kv("interp.bc_compile", t.bc_compile_ns);
    w.kv("interp.bc_passes", t.bc_passes_ns);
    w.kv("interp.run", t.run_ns);
    w.kv("interp.ranks_active", t.split.ranks_ns);
    w.kv("simmpi.coll", t.split.coll_ns);
    w.kv("simmpi.parked", t.split.parked_ns);
    w.kv("simmpi.teardown", t.split.teardown_ns);
    w.end_object();
    w.key("counts").begin_object();
    w.kv("core.warnings", t.warnings);
    w.kv("core.armed_sites", t.armed_sites);
    w.kv("interp.bc_instrs", t.bc_instrs);
    w.kv("interp.ops", t.ops);
    w.kv("simmpi.slots", t.slots);
    w.kv("simmpi.slot_waits", t.slot_waits);
    w.kv("simmpi.comms_created", t.comms_created);
    w.kv("simmpi.watchdog_polls", t.watchdog_polls);
    w.kv("rt.cc_checks", t.cc_checks);
    w.kv("trace.events", t.events);
    w.end_object();
    w.key("fig1_ns").begin_object();
    for (const auto& [name, samples] : fig1_ns_) {
      std::vector<int64_t> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      w.kv(name, sorted[sorted.size() / 2]);
    }
    w.end_object();
    // Per-program counts summed over one sweep; run.py checks that they
    // repeat exactly across rounds.
    Counts sweep;
    for (const auto& ref : refs_) {
      if (!ref.counts) continue;
      sweep.warnings += ref.counts->warnings;
      sweep.ops += ref.counts->ops;
      sweep.slots += ref.counts->slots;
      sweep.cc_checks += ref.counts->cc_checks;
    }
    w.key("deterministic").begin_object();
    w.kv("core.warnings", sweep.warnings);
    w.kv("interp.ops", sweep.ops);
    w.kv("simmpi.slots", sweep.slots);
    w.kv("rt.cc_checks", sweep.cc_checks);
    w.end_object();
    w.end_object();
  }

  Args args_;
  std::vector<Subject> subjects_;
  std::vector<Reference> refs_;
  SplitMix64 order_rng_;

  int64_t setup_ns_ = 0;
  int64_t loop_ns_ = 0;
  std::vector<int64_t> samples_ns_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> integrity_;
  int64_t cpu_ns_ = 0;
  int64_t ctx_switches_ = 0;
  int64_t maxrss_kb_ = 0;
  uint64_t allocs_ = 0;
  uint64_t alloc_bytes_ = 0;
  uint64_t threads_created_ = 0;
  uint64_t ranks_started_ = 0;

  size_t ring_ = size_t{1} << 12;
  TracedTotals totals_;
  std::map<std::string, std::vector<int64_t>> fig1_ns_;
};

} // namespace

int main(int argc, char** argv) {
  const auto entered = SteadyClock::now();
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: parcoach_bench --workload=NAME [--seed=N] "
                 "[--seconds=S] [--mode=plain|counted|traced] [--flip]\n";
    return 2;
  }
  auto subjects = make_workload(args->workload, args->seed);
  if (!subjects) {
    std::cerr << "unknown workload: " << args->workload << '\n';
    return 2;
  }
  Round round(*args, std::move(*subjects));
  round.warm_up();
  round.timed_loop(entered);
  round.probe_fig1();
  round.check_against_ast();
  round.write(std::cout);
  return 0;
}
