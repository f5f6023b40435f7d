#include "driver/report.h"

#include "support/str.h"

#include <iomanip>
#include <sstream>

namespace parcoach::driver {

WarningCensus census_of(const std::string& name, const CompileResult& r,
                        const DiagnosticEngine& diags) {
  WarningCensus c;
  c.program = name;
  c.functions = r.program.funcs.size();
  if (r.module) {
    for (const auto& fn : r.module->functions()) {
      for (const auto& bb : fn->blocks()) {
        for (const auto& in : bb.instrs) {
          c.collectives += in.op == ir::Opcode::CollComm;
          c.parallel_regions += in.op == ir::Opcode::OmpBegin &&
                                in.omp == ir::OmpKind::Parallel;
        }
      }
    }
  }
  c.multithreaded = diags.count(DiagKind::MultithreadedCollective);
  c.concurrent = diags.count(DiagKind::ConcurrentCollectives);
  c.mismatch = r.algorithm1.conditionals_flagged_unfiltered;
  c.mismatch_filtered = r.algorithm1.conditionals_flagged_filtered;
  c.thread_level = diags.count(DiagKind::ThreadLevelViolation);
  c.checks_inserted = r.inserted_checks;
  c.total_collective_sites = r.plan.total_collective_sites;
  c.cc_sites_armed = r.plan.cc_stmts.size();
  c.cc_classes_armed = r.plan.cc_classes.size();
  c.cc_classes_total = r.plan.total_cc_classes;
  return c;
}

std::string format_census_table(const std::vector<WarningCensus>& rows) {
  std::ostringstream os;
  os << std::left << std::setw(14) << "program" << std::right << std::setw(8)
     << "lines" << std::setw(7) << "funcs" << std::setw(7) << "colls"
     << std::setw(7) << "par" << std::setw(8) << "ph1" << std::setw(8) << "ph2"
     << std::setw(8) << "ph3" << std::setw(10) << "ph3-rank" << std::setw(7)
     << "lvl" << std::setw(9) << "checks" << std::setw(9) << "armed"
     << std::setw(8) << "comms" << '\n';
  for (const auto& c : rows) {
    os << std::left << std::setw(14) << c.program << std::right << std::setw(8)
       << c.code_lines << std::setw(7) << c.functions << std::setw(7)
       << c.collectives << std::setw(7) << c.parallel_regions << std::setw(8)
       << c.multithreaded << std::setw(8) << c.concurrent << std::setw(8)
       << c.mismatch << std::setw(10) << c.mismatch_filtered << std::setw(7)
       << c.thread_level << std::setw(9) << c.checks_inserted << std::setw(9)
       << c.cc_sites_armed << std::setw(8)
       << (std::to_string(c.cc_classes_armed) + "/" +
           std::to_string(c.cc_classes_total))
       << '\n';
  }
  return os.str();
}

std::string format_stage_times(const StageTimes& t) {
  auto ms = [](std::chrono::nanoseconds ns) {
    return static_cast<double>(ns.count()) / 1e6;
  };
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "parse=" << ms(t.parse) << "ms sema=" << ms(t.sema)
     << "ms lower=" << ms(t.lower) << "ms opt=" << ms(t.optimize)
     << "ms emit=" << ms(t.emit) << "ms | analysis=" << ms(t.analysis)
     << "ms instrument=" << ms(t.instrument) << "ms | baseline="
     << ms(t.baseline()) << "ms total=" << ms(t.total()) << "ms";
  return os.str();
}

std::string format_run_times(const simmpi::RunReport& r) {
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "spawn=" << ms(r.spawn_ns) << "ms ranks=" << ms(r.ranks_ns)
     << "ms teardown=" << ms(r.teardown_ns) << "ms";
  return os.str();
}

std::string format_run_summary(const interp::ExecResult& r) {
  std::ostringstream os;
  os << "engine=" << r.mpi.engine << " steps=" << r.steps_executed;
  if (r.mpi.bytecode_ops > 0) os << " bytecode_ops=" << r.mpi.bytecode_ops;
  os << " slots=" << r.mpi.app_slots_completed
     << " cc_piggybacked=" << r.mpi.cc_piggybacked;
  if (r.mpi.total_collective_sites > 0)
    os << " cc_armed=" << r.mpi.cc_sites_armed << "/"
       << r.mpi.total_collective_sites << " classes="
       << r.mpi.cc_classes_armed << "/" << r.mpi.cc_classes_total;
  if (!r.mpi.metrics.empty()) {
    os << " | metrics:";
    for (const auto& [name, value] : r.mpi.metrics)
      os << ' ' << name << '=' << value;
  }
  return os.str();
}

} // namespace parcoach::driver
