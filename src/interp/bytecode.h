// MiniHPC bytecode: a flat register-based instruction set compiled once per
// (program, instrumentation plan) pair and executed by the VM in vm.cpp.
//
// What the compiler bakes in so the hot loop never looks anything up:
//   - every variable access is a pre-resolved frame slot (frontend/slots.h);
//     frames hold a slot->cell pointer array, so OpenMP shared-by-default
//     falls out of pointer sharing: a team-thread view copies the forker's
//     pointers (shared outer variables) and `Decl` rebinds a slot to the
//     view's own storage the moment the region body re-declares it (private);
//   - every MPI site carries its compile-time arming decision (the plan's
//     cc/mono membership), so no call looks the plan up; the site's
//     evaluated operand registers go to the MPI executor the AST engine
//     uses too (mpi_ops.h);
//   - callee names resolve to dense function ids at compile time.
//
// Control flow inside a function is flat jumps (if/while/for); OpenMP
// constructs and other structured operations reference side-table "sites"
// holding their body ranges and pre-evaluated operand registers, because
// their bodies must run as closures under the miniomp runtime.
//
// Unresolved names (sema escapes in hand-built ASTs) compile to Trap
// instructions carrying the exact diagnostic the AST engine would raise at
// execution time — and only if the offending statement actually executes.
// The statement's code is rolled back to the trap, so in the (sema-rejected)
// corner where one statement combines an unresolved name with another
// operand that faults at runtime, the engines agree on the faulting
// statement but may report either of its faults.
#pragma once

#include "core/instrumentation.h"
#include "frontend/ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parcoach::interp {

// The opcode set lives in bc_ops.def (one X-macro line per op: enumerator,
// disassembler name, per-operand roles). The baseline compiler emits only the
// simple core; the peephole pass (run_passes) rewrites hot shapes into the
// fused blocks.
enum class Op : uint8_t {
#define PARCOACH_OP(id, name, ra, rb, rc, imm) id,
#include "interp/bc_ops.def"
#undef PARCOACH_OP
};

namespace detail {
enum : size_t {
#define PARCOACH_OP(id, name, ra, rb, rc, imm) op_index_##id,
#include "interp/bc_ops.def"
#undef PARCOACH_OP
  op_count
};
} // namespace detail

/// Number of opcodes (sizes the per-opcode metadata table).
inline constexpr size_t kNumOps = detail::op_count;

struct BcInstr {
  Op op;
  int32_t a = -1, b = -1, c = -1;
  int64_t imm = 0;
};

/// Half-open instruction range [begin, end) of a structured body.
struct BcBlock {
  uint32_t begin = 0, end = 0;
};

/// One MPI statement site (MpiColl / MpiRecv / MpiWait / MpiTest /
/// MpiWaitall). Everything decidable at compile time is decided here.
struct MpiSite {
  const frontend::Stmt* stmt = nullptr;
  bool armed = false;        // CC check planned (plan->cc_stmts)
  bool mono = false;         // occupancy check planned (plan->mono_stmts)
  bool child_armed = false;  // comm ctor: result class armed (exit sentinel)
  int32_t root_reg = -1;     // evaluated root / split key / recv source
  int32_t payload_reg = -1;  // payload / split color / request / recv tag
  int32_t comm_reg = -1;     // evaluated communicator handle
  int32_t target_slot = -1;  // result destination (-1: none)
  bool declares_target = false;
  int32_t list = -1;         // reg_lists index (waitall requests)
};

/// One OpenMP construct site.
struct OmpSite {
  const frontend::Stmt* stmt = nullptr;
  BcBlock body;
  std::vector<int32_t> section_sites; // OmpSections: one OmpSite per section
  int32_t nt_reg = -1, if_reg = -1; // parallel clauses
  int32_t lo_reg = -1, hi_reg = -1; // worksharing bounds
  int32_t iv_slot = -1;             // worksharing loop variable
  bool nowait = false;
  bool watched = false;             // region watched by the plan (set Scc)
};

struct CallSite {
  int32_t func = -1;
  int32_t args = -1; // reg_lists index (-1: no arguments)
  int32_t target_slot = -1;
  bool declares_target = false;
};

struct PrintSite {
  int32_t args = -1; // reg_lists index
};

struct BcFunction {
  const frontend::FuncDecl* decl = nullptr;
  std::vector<BcInstr> code;
  int32_t num_slots = 0;
  int32_t num_regs = 0;
  std::vector<int32_t> param_slots;
};

struct BcProgram {
  std::vector<BcFunction> funcs;
  int32_t main_func = -1;
  std::vector<MpiSite> mpi_sites;
  std::vector<OmpSite> omp_sites;
  std::vector<CallSite> call_sites;
  std::vector<PrintSite> print_sites;
  std::vector<std::vector<int32_t>> reg_lists;
  std::vector<std::string> traps;

  [[nodiscard]] size_t total_instrs() const {
    size_t n = 0;
    for (const auto& f : funcs) n += f.code.size();
    return n;
  }
};

/// Compiles `program` against `plan` (may be null: uninstrumented). `sm` is
/// used to render source locations into trap diagnostics. The result is
/// always the baseline encoding; apply run_passes() for the optimized form.
[[nodiscard]] BcProgram compile(const frontend::Program& program,
                                const SourceManager& sm,
                                const core::InstrumentationPlan* plan);

/// Off-switches for the post-compile optimization passes. All on by default;
/// the property/differential tests run every combination, and the CLI
/// exposes them (--no-fuse etc.) for bisecting a suspect pass.
struct BcPassOptions {
  bool regalloc = true; // linear-scan temporary-register reallocation
  bool fuse = true;     // peephole superinstruction fusion
};

/// Rewrites `p` in place through the optimization pipeline: peephole fusion
/// (superinstructions over the hot Load/Const/compare/store shapes), then
/// linear-scan register allocation (live-interval reuse of the one-pass
/// encoder's virtual registers; frame-slot arrays stay the variable ABI). Each pass preserves the AST-oracle semantics exactly — the corpus
/// differential holds every pass combination to byte-identical outcomes.
void run_passes(BcProgram& p, const BcPassOptions& opts = {});

/// Human-readable listing (tests, --dump-bytecode, debugging).
[[nodiscard]] std::string disassemble(const BcProgram& p);

} // namespace parcoach::interp
