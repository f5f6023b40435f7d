#include "core/instrumentation.h"

#include <algorithm>

namespace parcoach::core {

namespace {

using ir::Instruction;
using ir::Opcode;

// CommFree / CommRevoke / CommSetErrhandler are local (never matched), so
// they are neither checkable sites nor part of the census. The recovery
// collectives CommShrink/CommAgree ARE matched (registry events) and check
// like any collective.
bool checkable_collective(const Instruction& in) {
  return in.op == Opcode::CollComm && ir::is_matched(in.collective);
}

/// Single traversal shared by planning and censuses: visits every checkable
/// collective site of the module, in function/block/instruction order.
template <typename F>
void for_each_checkable_site(const ir::Module& m, F&& f) {
  for (const auto& fn : m.functions())
    for (const auto& bb : fn->blocks())
      for (const auto& in : bb.instrs)
        if (checkable_collective(in)) f(in);
}

/// Arms `plan` for exactly the classes `armed` (empty = nothing), filling
/// the flat cc_stmts union, the per-class matrix, and the class census.
void arm_classes(const ir::Module& m, InstrumentationPlan& plan,
                 const std::set<std::string>& armed) {
  std::set<std::string> all_classes;
  for_each_checkable_site(m, [&](const Instruction& in) {
    ++plan.total_collective_sites;
    std::string cls = ir::comm_class_of(in);
    all_classes.insert(cls);
    if (!armed.count(cls)) return;
    plan.cc_stmts.insert(in.stmt_id);
    plan.cc_stmts_by_class[cls].push_back(in.stmt_id);
  });
  plan.total_cc_classes = all_classes.size();
  for (const auto& cls : plan.cc_stmts_by_class) plan.cc_classes.insert(cls.first);
  // Every armed class that actually has sites triggers the exit sentinel.
  plan.cc_final_in_main = !plan.cc_classes.empty() && m.find("main") != nullptr;
}

/// The armed set of the selective plan: classes that can diverge between
/// processes (Algorithm 1) or be desynchronized by an intra-process hazard
/// (phases 1/2). The union is per class — the safety invariant ("every rank
/// of an armed comm runs the same checks") holds class-wise because classes
/// are textual: all ranks execute the same sites of a class.
std::set<std::string> divergent_or_hazard_classes(const PhaseResult& phases,
                                                  const Algorithm1Result& alg1) {
  std::set<std::string> armed(alg1.divergent_classes.begin(),
                              alg1.divergent_classes.end());
  armed.insert(phases.hazard_classes.begin(), phases.hazard_classes.end());
  return armed;
}

/// What the plan inserts around one instruction. apply_plan asks this both
/// to skip a block and to rewrite one, so the two cannot disagree.
struct Checks {
  bool mono = false;         // CheckMono before a collective
  bool cc = false;           // CheckCC before a collective
  bool cc_final = false;     // CheckCCFinal before a return of main
  bool region_exit = false;  // RegionExit before a watched region's end
  bool region_enter = false; // RegionEnter after a watched region's begin

  [[nodiscard]] size_t count() const noexcept {
    return size_t{mono} + cc + cc_final + region_exit + region_enter;
  }
  [[nodiscard]] bool any() const noexcept { return count() > 0; }
};

Checks checks_for(const Instruction& in, bool is_main,
                  const InstrumentationPlan& plan) {
  Checks c;
  switch (in.op) {
    case Opcode::CollComm:
      c.mono = plan.mono_stmts.count(in.stmt_id) > 0;
      c.cc = plan.cc_stmts.count(in.stmt_id) > 0;
      break;
    case Opcode::Return:
      c.cc_final = is_main && plan.cc_final_in_main;
      break;
    case Opcode::OmpBegin:
    case Opcode::OmpEnd: {
      const bool watched = ir::is_single_threaded(in.omp) &&
                           plan.watched_regions.count(in.region_id) > 0;
      c.region_enter = watched && in.op == Opcode::OmpBegin;
      c.region_exit = watched && in.op == Opcode::OmpEnd;
      break;
    }
    default:
      break;
  }
  return c;
}

/// A check instruction guarding `in`: it inherits the site and stmt id.
Instruction guard(Opcode op, const Instruction& in) {
  Instruction chk;
  chk.op = op;
  chk.loc = in.loc;
  chk.stmt_id = in.stmt_id;
  return chk;
}

} // namespace

InstrumentationPlan make_plan(const ir::Module& m, const PhaseResult& phases,
                              const Algorithm1Result& alg1) {
  InstrumentationPlan plan;
  for (int32_t sid : phases.mono_check_stmts) plan.mono_stmts.insert(sid);
  for (int32_t rid : phases.watched_regions) plan.watched_regions.insert(rid);
  arm_classes(m, plan, divergent_or_hazard_classes(phases, alg1));
  return plan;
}

InstrumentationPlan make_programwide_plan(const ir::Module& m,
                                          const PhaseResult& phases,
                                          const Algorithm1Result& alg1) {
  InstrumentationPlan plan;
  for (int32_t sid : phases.mono_check_stmts) plan.mono_stmts.insert(sid);
  for (int32_t rid : phases.watched_regions) plan.watched_regions.insert(rid);
  std::set<std::string> armed;
  if (!alg1.divergences.empty() || !phases.multithreaded.empty() ||
      !phases.concurrent.empty()) {
    // Pre-matrix behaviour: anything divergent arms every class.
    for_each_checkable_site(
        m, [&](const Instruction& in) { armed.insert(ir::comm_class_of(in)); });
  }
  arm_classes(m, plan, armed);
  return plan;
}

InstrumentationPlan make_blanket_plan(const ir::Module& m) {
  InstrumentationPlan plan;
  std::set<std::string> armed;
  for_each_checkable_site(
      m, [&](const Instruction& in) { armed.insert(ir::comm_class_of(in)); });
  arm_classes(m, plan, armed);
  for_each_checkable_site(
      m, [&](const Instruction& in) { plan.mono_stmts.insert(in.stmt_id); });
  for (const auto& fn : m.functions())
    for (const auto& bb : fn->blocks())
      for (const auto& in : bb.instrs)
        if (in.op == Opcode::OmpBegin && ir::is_single_threaded(in.omp))
          plan.watched_regions.insert(in.region_id);
  plan.cc_final_in_main = m.find("main") != nullptr;
  return plan;
}

size_t apply_plan(ir::Module& m, const InstrumentationPlan& plan) {
  size_t inserted = 0;
  for (auto& fnp : m.functions()) {
    ir::Function& fn = *fnp;
    const bool is_main = fn.name == "main";
    for (auto& bb : fn.blocks()) {
      // A block with no instrumented site keeps its instruction vector.
      if (std::none_of(bb.instrs.begin(), bb.instrs.end(),
                       [&](const Instruction& in) {
                         return checks_for(in, is_main, plan).any();
                       }))
        continue;
      std::vector<Instruction> out;
      out.reserve(bb.instrs.size() + 4);
      for (auto& in : bb.instrs) {
        const Checks c = checks_for(in, is_main, plan);
        // Checks go *before* the guarded instruction.
        if (c.mono) out.push_back(guard(Opcode::CheckMono, in));
        if (c.cc) {
          out.push_back(guard(Opcode::CheckCC, in));
          out.back().collective = in.collective;
        }
        if (c.cc_final) out.push_back(guard(Opcode::CheckCCFinal, in));
        if (c.region_exit) {
          out.push_back(guard(Opcode::RegionExit, in));
          out.back().region_id = in.region_id;
        }
        out.push_back(std::move(in));
        if (c.region_enter) {
          Instruction enter = guard(Opcode::RegionEnter, out.back());
          enter.region_id = out.back().region_id;
          out.push_back(std::move(enter));
        }
        inserted += c.count();
      }
      bb.instrs = std::move(out);
    }
  }
  return inserted;
}

} // namespace parcoach::core
