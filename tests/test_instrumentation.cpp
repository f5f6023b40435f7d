// Unit tests: selective instrumentation planning, IR materialization, and
// the per-comm-class arming matrix's exact CC counts at runtime.
#include "core/instrumentation.h"
#include "driver/pipeline.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "interp/executor.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/str.h"

#include <gtest/gtest.h>

#include <set>

namespace parcoach::core {
namespace {

struct InstrRun {
  InstrumentationPlan plan;
  PhaseResult phases;
  Algorithm1Result alg1;
  std::unique_ptr<ir::Module> mod;
  DiagnosticEngine diags;
  SourceManager sm;
  size_t inserted = 0;
};

std::unique_ptr<InstrRun> plan_for(const std::string& src, bool apply = true) {
  auto r = std::make_unique<InstrRun>();
  auto prog = frontend::Parser::parse_source(r->sm, "t", src, r->diags);
  frontend::Sema::analyze(prog, r->diags);
  EXPECT_FALSE(r->diags.has_errors()) << r->diags.to_text(r->sm);
  r->mod = frontend::Lowering::lower(prog, r->diags);
  const Summaries sums = Summaries::build(*r->mod);
  r->phases = run_phases(*r->mod, sums, {}, r->diags);
  r->alg1 = run_algorithm1(*r->mod, sums, {}, r->diags);
  r->plan = make_plan(*r->mod, r->phases, r->alg1);
  if (apply) r->inserted = apply_plan(*r->mod, r->plan);
  return r;
}

TEST(Plan, CleanProgramGetsZeroChecks) {
  auto r = plan_for(R"(func main() {
    mpi_init(serialized);
    var x = mpi_allreduce(1, sum);
    mpi_barrier();
    mpi_finalize();
  })");
  EXPECT_TRUE(r->plan.empty());
  EXPECT_EQ(r->inserted, 0u);
  EXPECT_EQ(r->plan.total_collective_sites, 3u);
}

TEST(Plan, DivergenceEnablesProgramWideCc) {
  auto r = plan_for(R"(func main() {
    var x = rank();
    if (rank() == 0) {
      x = mpi_bcast(x, 0);
    }
    mpi_barrier();
    mpi_finalize();
  })");
  // All three collectives get CC, plus CC-final in main.
  EXPECT_EQ(r->plan.cc_stmts.size(), 3u);
  EXPECT_TRUE(r->plan.cc_final_in_main);
  EXPECT_TRUE(r->plan.mono_stmts.empty());
  EXPECT_TRUE(r->plan.watched_regions.empty());
}

TEST(Plan, MonoChecksOnlyAtFlaggedSites) {
  auto r = plan_for(R"(func main() {
    var x = 0;
    var y = 0;
    omp parallel {
      x = mpi_allreduce(x, sum);
    }
    y = mpi_allreduce(y, sum);
  })");
  EXPECT_EQ(r->plan.mono_stmts.size(), 1u);
  // CC is program-wide once anything is flagged.
  EXPECT_EQ(r->plan.cc_stmts.size(), 2u);
}

TEST(Plan, WatchedRegionsFromScc) {
  auto r = plan_for(R"(func main() {
    var a = 0;
    var b = 0;
    omp parallel {
      omp single nowait {
        a = mpi_allreduce(a, sum);
      }
      omp single nowait {
        b = mpi_allreduce(b, max);
      }
    }
  })");
  EXPECT_EQ(r->plan.watched_regions.size(), 2u);
}

TEST(Plan, BlanketPlanCoversEverything) {
  SourceManager sm;
  DiagnosticEngine d;
  auto prog = frontend::Parser::parse_source(sm, "t", R"(func main() {
    var x = 0;
    omp parallel {
      omp single {
        x = mpi_allreduce(x, sum);
      }
      omp master {
        x = mpi_bcast(x, 0);
      }
    }
    mpi_barrier();
  })",
                                             d);
  frontend::Sema::analyze(prog, d);
  auto mod = frontend::Lowering::lower(prog, d);
  const auto plan = make_blanket_plan(*mod);
  EXPECT_EQ(plan.cc_stmts.size(), 3u);
  EXPECT_EQ(plan.mono_stmts.size(), 3u);
  EXPECT_EQ(plan.watched_regions.size(), 2u); // single + master
  EXPECT_TRUE(plan.cc_final_in_main);
}

TEST(Apply, InsertsChecksBeforeGuardedInstructions) {
  auto r = plan_for(R"(func main() {
    var x = rank();
    if (rank() == 0) {
      x = mpi_bcast(x, 0);
    }
    mpi_barrier();
  })");
  EXPECT_GE(r->inserted, 3u); // 2 CC + CC-final (>= because of mono checks)
  // In every block, a CheckCC must immediately precede its CollComm.
  for (const auto& fn : r->mod->functions()) {
    for (const auto& bb : fn->blocks()) {
      for (size_t i = 0; i < bb.instrs.size(); ++i) {
        if (bb.instrs[i].op != ir::Opcode::CollComm) continue;
        ASSERT_GT(i, 0u);
        EXPECT_EQ(bb.instrs[i - 1].op, ir::Opcode::CheckCC);
        EXPECT_EQ(bb.instrs[i - 1].collective, bb.instrs[i].collective);
        EXPECT_EQ(bb.instrs[i - 1].stmt_id, bb.instrs[i].stmt_id);
      }
    }
  }
  // CheckCCFinal precedes main's returns.
  const ir::Function& main_fn = *r->mod->find("main");
  bool final_before_return = false;
  for (const auto& bb : main_fn.blocks()) {
    for (size_t i = 0; i + 1 < bb.instrs.size(); ++i) {
      if (bb.instrs[i].op == ir::Opcode::CheckCCFinal &&
          bb.instrs[i + 1].op == ir::Opcode::Return)
        final_before_return = true;
    }
  }
  EXPECT_TRUE(final_before_return);
}

TEST(Apply, RegionGuardsWrapWatchedRegions) {
  auto r = plan_for(R"(func main() {
    var a = 0;
    var b = 0;
    omp parallel {
      omp single nowait {
        a = mpi_allreduce(a, sum);
      }
      omp single nowait {
        b = mpi_allreduce(b, max);
      }
    }
  })");
  const ir::Function& fn = *r->mod->find("main");
  size_t enters = 0, exits = 0;
  for (const auto& bb : fn.blocks()) {
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
      const auto& in = bb.instrs[i];
      if (in.op == ir::Opcode::RegionEnter) {
        ++enters;
        // Must directly follow its OmpBegin.
        ASSERT_GT(i, 0u);
        EXPECT_EQ(bb.instrs[i - 1].op, ir::Opcode::OmpBegin);
        EXPECT_EQ(bb.instrs[i - 1].region_id, in.region_id);
      }
      if (in.op == ir::Opcode::RegionExit) {
        ++exits;
        ASSERT_LT(i + 1, bb.instrs.size());
        EXPECT_EQ(bb.instrs[i + 1].op, ir::Opcode::OmpEnd);
      }
    }
  }
  EXPECT_EQ(enters, 2u);
  EXPECT_EQ(exits, 2u);
}

TEST(Apply, InstrumentedIrStillVerifies) {
  auto r = plan_for(R"(func main() {
    var x = 0;
    omp parallel {
      omp single nowait {
        x = mpi_allreduce(x, sum);
      }
      omp single nowait {
        x = mpi_allreduce(x, max);
      }
    }
    if (rank() == 0) {
      x = mpi_bcast(x, 0);
    }
  })");
  DiagnosticEngine vd;
  EXPECT_TRUE(ir::verify(*r->mod, vd)) << vd.to_text(r->sm);
  const std::string text = ir::to_text(*r->mod);
  EXPECT_TRUE(str::contains(text, "check_cc"));
  EXPECT_TRUE(str::contains(text, "region_enter"));
}

// apply_plan rewrites only the blocks that hold an instrumented site; every
// other block keeps its instruction buffer.
constexpr const char* kThreeSiteBlocks = R"(func main() {
    var x = rank();
    if (rank() == 0) {
      x = mpi_bcast(x, 0);
    }
    mpi_barrier();
    omp parallel {
      omp single {
        x = mpi_allreduce(x, sum);
      }
    }
  })";

std::vector<const ir::Instruction*> block_buffers(const ir::Module& m) {
  std::vector<const ir::Instruction*> bufs;
  for (const auto& fn : m.functions())
    for (const auto& bb : fn->blocks()) bufs.push_back(bb.instrs.data());
  return bufs;
}

TEST(Apply, EmptyPlanLeavesEveryBlockInPlace) {
  auto r = plan_for(kThreeSiteBlocks, /*apply=*/false);
  const auto before = block_buffers(*r->mod);
  const std::string text = ir::to_text(*r->mod);
  EXPECT_EQ(apply_plan(*r->mod, InstrumentationPlan{}), 0u);
  EXPECT_EQ(block_buffers(*r->mod), before);
  EXPECT_EQ(ir::to_text(*r->mod), text);
}

TEST(Apply, OneArmedSiteRewritesOnlyItsBlock) {
  auto r = plan_for(kThreeSiteBlocks, /*apply=*/false);
  const ir::Function& fn = *r->mod->find("main");
  ASSERT_EQ(r->mod->functions().size(), 1u);
  size_t site_block = 0;
  int32_t site_stmt = -1;
  for (size_t b = 0; b < fn.blocks().size(); ++b)
    for (const auto& in : fn.blocks()[b].instrs)
      if (in.op == ir::Opcode::CollComm &&
          in.collective == ir::CollectiveKind::Bcast) {
        site_block = b;
        site_stmt = in.stmt_id;
      }
  ASSERT_GE(site_stmt, 0);
  InstrumentationPlan plan;
  plan.cc_stmts.insert(site_stmt);
  const auto before = block_buffers(*r->mod);
  EXPECT_EQ(apply_plan(*r->mod, plan), 1u);
  const auto after = block_buffers(*r->mod);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    if (i == site_block)
      EXPECT_NE(after[i], before[i]) << "bb" << i;
    else
      EXPECT_EQ(after[i], before[i]) << "bb" << i;
  }
  const auto& instrs = fn.blocks()[site_block].instrs;
  size_t checks = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].op != ir::Opcode::CheckCC) continue;
    ++checks;
    ASSERT_LT(i + 1, instrs.size());
    EXPECT_EQ(instrs[i + 1].stmt_id, site_stmt);
    EXPECT_EQ(instrs[i].collective, ir::CollectiveKind::Bcast);
  }
  EXPECT_EQ(checks, 1u);
}

// ---- The per-comm-class arming matrix ---------------------------------------

TEST(ArmingMatrix, CleanWorldDirtySubcommArmsOnlySubcomm) {
  auto r = plan_for(R"(func main() {
    mpi_init(single);
    var d = mpi_comm_dup();
    var x = rank() + 1;
    if (rank() == 0) {
      x = mpi_allreduce(x, sum, d);
    } else {
      x = mpi_allreduce(x, max, d);
    }
    x = mpi_allreduce(x, sum);
    mpi_barrier();
    mpi_finalize();
  })");
  // Sites: dup (world class), 2x allreduce@d, allreduce, barrier, finalize.
  EXPECT_EQ(r->plan.total_collective_sites, 6u);
  EXPECT_EQ(r->plan.total_cc_classes, 2u);
  // Only class "d" can diverge: its two sites are armed, world's four are not.
  EXPECT_EQ(r->plan.cc_classes, (std::set<std::string>{"d"}));
  EXPECT_FALSE(r->plan.world_cc_armed());
  EXPECT_EQ(r->plan.cc_stmts.size(), 2u);
  ASSERT_EQ(r->plan.cc_stmts_by_class.count("d"), 1u);
  EXPECT_EQ(r->plan.cc_stmts_by_class.at("d").size(), 2u);
  // The exit sentinel is still planned (it runs per armed comm at runtime).
  EXPECT_TRUE(r->plan.cc_final_in_main);
}

TEST(ArmingMatrix, DirtyWorldArmsWorldOnly) {
  auto r = plan_for(R"(func main() {
    mpi_init(single);
    var c = mpi_comm_split(0, 0);
    var x = rank() + 1;
    if (rank() == 0) {
      mpi_barrier();
    }
    x = mpi_allreduce(x, sum, c);
    mpi_comm_free(c);
    mpi_finalize();
  })");
  // World diverges (the guarded barrier); the subcomm's sequence does not.
  EXPECT_EQ(r->plan.cc_classes, (std::set<std::string>{""}));
  EXPECT_TRUE(r->plan.world_cc_armed());
  // Armed world sites: split (a collective over world), barrier, finalize.
  EXPECT_EQ(r->plan.cc_stmts.size(), 3u);
  EXPECT_EQ(r->plan.cc_stmts_by_class.count("c"), 0u);
}

TEST(ArmingMatrix, ThreadHazardArmsTheHazardsClass) {
  auto r = plan_for(R"(func main() {
    mpi_init(serialized);
    var c = mpi_comm_split(0, 0);
    var x = 0;
    omp parallel {
      x = mpi_allreduce(x, sum, c);
    }
    mpi_barrier();
    mpi_finalize();
  })");
  ASSERT_FALSE(r->phases.multithreaded.empty());
  EXPECT_EQ(r->phases.multithreaded[0].comm_class, "c");
  EXPECT_EQ(r->phases.hazard_classes, (std::vector<std::string>{"c"}));
  // The hazard can desynchronize only class "c": world stays unarmed.
  EXPECT_EQ(r->plan.cc_classes, (std::set<std::string>{"c"}));
  EXPECT_EQ(r->plan.cc_stmts.size(), 1u);
  EXPECT_EQ(r->plan.mono_stmts.size(), 1u);
}

TEST(ArmingMatrix, RankColoredSplitArmsTheResultClass) {
  auto r = plan_for(R"(func main() {
    mpi_init(single);
    var c = mpi_comm_split(rank() % 2, 0);
    var x = rank() + 1;
    x = mpi_allreduce(x, sum, c);
    mpi_barrier();
    mpi_finalize();
  })");
  ASSERT_FALSE(r->alg1.divergences.empty());
  EXPECT_EQ(r->alg1.divergent_classes, (std::vector<std::string>{"c"}));
  EXPECT_EQ(r->plan.cc_classes, (std::set<std::string>{"c"}));
  EXPECT_FALSE(r->plan.world_cc_armed());
}

TEST(ArmingMatrix, BlanketStillArmsEveryClass) {
  SourceManager sm;
  DiagnosticEngine d;
  auto prog = frontend::Parser::parse_source(sm, "t", R"(func main() {
    mpi_init(single);
    var c = mpi_comm_split(0, 0);
    var x = 1;
    x = mpi_allreduce(x, sum, c);
    mpi_barrier();
    mpi_finalize();
  })",
                                             d);
  frontend::Sema::analyze(prog, d);
  auto mod = frontend::Lowering::lower(prog, d);
  const auto plan = make_blanket_plan(*mod);
  EXPECT_EQ(plan.cc_classes, (std::set<std::string>{"", "c"}));
  EXPECT_EQ(plan.cc_stmts.size(), plan.total_collective_sites);
  EXPECT_TRUE(plan.cc_final_in_main);
}

TEST(ArmingMatrix, ProgramWidePlanArmsEverythingOnAnyDivergence) {
  const std::string src = R"(func main() {
    mpi_init(single);
    var d = mpi_comm_dup();
    var x = rank() + 1;
    if (rank() == 0) {
      x = mpi_allreduce(x, sum, d);
    } else {
      x = mpi_allreduce(x, max, d);
    }
    mpi_barrier();
    mpi_finalize();
  })";
  auto r = plan_for(src, /*apply=*/false);
  const auto pw = make_programwide_plan(*r->mod, r->phases, r->alg1);
  // Selective arms the dirty class only; program-wide arms every site.
  EXPECT_LT(r->plan.cc_stmts.size(), pw.cc_stmts.size());
  EXPECT_EQ(pw.cc_stmts.size(), pw.total_collective_sites);
  EXPECT_EQ(pw.cc_classes.size(), pw.total_cc_classes);
  EXPECT_TRUE(pw.world_cc_armed());
}

TEST(ArmingMatrix, DivergenceAttributionNamesClasses) {
  auto r = plan_for(R"(func sub(n) {
    var y = n;
    y = mpi_allreduce(y, sum);
    return y;
  }
  func main() {
    mpi_init(single);
    var x = rank();
    if (rank() == 0) {
      x = sub(x);
    }
    mpi_finalize();
  })",
                    /*apply=*/false);
  // The divergence is on "call sub()"; it attributes to sub's transitive
  // classes — world.
  ASSERT_FALSE(r->alg1.divergences.empty());
  bool call_div = false;
  for (const auto& dp : r->alg1.divergences) {
    if (dp.label.rfind("call ", 0) == 0) {
      call_div = true;
      EXPECT_EQ(dp.comm_classes, (std::vector<std::string>{""}));
    }
  }
  EXPECT_TRUE(call_div);
  EXPECT_EQ(r->alg1.divergent_classes, (std::vector<std::string>{""}));
  EXPECT_GT(r->alg1.labels_interned, 0u);
}

// ---- The arming matrix at runtime ------------------------------------------
//
// A clean communicator (world, or three dups) carries a 150-iteration loop
// while a dirty dup is statically flagged: a rank-dependent conditional whose
// branches run the same allreduce on it, so Algorithm 1 flags its class but
// the program runs clean. With the rank-taint filter the loop's classes stay
// unarmed. cc_piggybacked counts the CC agreements executed under each plan.

const std::string kDirtySubcomm =
    "  if (rank() >= 0) {\n"
    "    x = mpi_allreduce(x, sum, d);\n"
    "  } else {\n"
    "    x = mpi_allreduce(x, sum, d);\n"
    "  }\n";

struct ArmingRun {
  size_t sites = 0;
  size_t sites_armed = 0;
  uint64_t cc_none = 0;
  uint64_t cc_selective = 0;
  uint64_t cc_programwide = 0;
};

ArmingRun run_arming(const std::string& src) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.algorithm1.rank_taint_filter = true;
  const auto c = driver::compile(sm, "t", src, diags, opts);
  EXPECT_TRUE(c.ok) << diags.to_text(sm);
  const auto programwide =
      make_programwide_plan(*c.module, c.phases, c.algorithm1);
  auto cc_rounds = [&](const InstrumentationPlan* plan) {
    interp::Executor exec(c.program, sm, plan);
    interp::ExecOptions eopts;
    eopts.num_ranks = 2;
    eopts.num_threads = 1;
    eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
    const auto result = exec.run(eopts);
    EXPECT_TRUE(result.clean) << result.mpi.abort_reason;
    return result.mpi.cc_piggybacked;
  };
  ArmingRun r;
  r.sites = c.plan.total_collective_sites;
  r.sites_armed = c.plan.cc_stmts.size();
  r.cc_none = cc_rounds(nullptr);
  r.cc_selective = cc_rounds(&c.plan);
  r.cc_programwide = cc_rounds(&programwide);
  return r;
}

TEST(ArmingMatrix, CleanWorldLoopRunsNoCcUnderTheSelectivePlan) {
  const auto r = run_arming(str::cat(
      "func main() {\n  mpi_init(single);\n"
      "  var d = mpi_comm_dup();\n  var x = rank() + 1;\n",
      kDirtySubcomm,
      "  for (r = 0 to 150) {\n"
      "    x = mpi_allreduce(x, sum);\n"
      "  }\n"
      "  mpi_comm_free(d);\n  mpi_finalize();\n}\n"));
  // Sites: dup, the two dirty allreduces, the loop's allreduce, finalize.
  EXPECT_EQ(r.sites, 5u);
  EXPECT_EQ(r.sites_armed, 2u);
  EXPECT_EQ(r.cc_none, 0u);
  // Only the dirty allreduce is checked.
  EXPECT_EQ(r.cc_selective, 1u);
  // Every collective: dup, dirty allreduce, 150 loop allreduces, finalize
  // and the exit sentinel.
  EXPECT_EQ(r.cc_programwide, 154u);
}

TEST(ArmingMatrix, CleanSubcommLoopsRunNoCcUnderTheSelectivePlan) {
  const auto r = run_arming(str::cat(
      "func main() {\n  mpi_init(single);\n"
      "  var a = mpi_comm_dup();\n  var b = mpi_comm_dup();\n"
      "  var c = mpi_comm_dup();\n  var d = mpi_comm_dup();\n"
      "  var x = rank() + 1;\n",
      kDirtySubcomm,
      "  for (r = 0 to 150) {\n"
      "    x = mpi_allreduce(x, sum, a);\n"
      "    x = mpi_allreduce(x, sum, b);\n"
      "    x = mpi_allreduce(x, sum, c);\n"
      "  }\n"
      "  mpi_comm_free(a);\n  mpi_comm_free(b);\n"
      "  mpi_comm_free(c);\n  mpi_comm_free(d);\n"
      "  mpi_finalize();\n}\n"));
  // Sites: four dups, the two dirty allreduces, three loop allreduces,
  // finalize.
  EXPECT_EQ(r.sites, 10u);
  EXPECT_EQ(r.sites_armed, 2u);
  EXPECT_EQ(r.cc_none, 0u);
  EXPECT_EQ(r.cc_selective, 1u);
  // Four dups, dirty allreduce, 3 x 150 loop allreduces, finalize and the
  // exit sentinel.
  EXPECT_EQ(r.cc_programwide, 457u);
}

TEST(Plan, CheckCountReflectsSelectivity) {
  auto clean = plan_for(R"(func main() {
    mpi_barrier();
    mpi_barrier();
    mpi_barrier();
  })");
  EXPECT_EQ(clean->plan.check_count(), 0u);

  auto buggy = plan_for(R"(func main() {
    if (rank() == 0) {
      mpi_barrier();
    }
  })");
  EXPECT_GT(buggy->plan.check_count(), 0u);
  EXPECT_LE(buggy->plan.check_count(),
            make_blanket_plan(*buggy->mod).check_count());
}

} // namespace
} // namespace parcoach::core
