// The post-compile optimization pass over interp::BcProgram (see
// bytecode.h).
//
// The baseline encoder (bytecode.cpp) stays a simple one-pass compiler; the
// speed comes from peephole fusion ("superinstructions") applied here. It
// rewrites the hot adjacent shapes of interpreter-bound code — Const/Load
// operands folded into arithmetic (the RI/LL/LI/RL blocks), guard compares
// (Load+JnXX -> JnXX_LI/LL), loop back-edges (Store+Jump -> StoreJump), and
// store forms (Const+Store -> StoreImm, Load+Store -> MovSS,
// Decl+StoreImm -> DeclImm). Every rewrite deletes at least one
// instruction, so iterating to fixpoint terminates. Registers keep the
// encoder's numbering.
//
// Safety rules the fuser lives by (the AST-oracle differential and the
// fused/unfused property test enforce them):
//   - producers must be physically adjacent to their consumer, and neither
//     the consumer nor any later producer may be a jump target — the target
//     set includes every OpenMP body begin/end, which also forbids fusing
//     across a structured-block boundary (a Store hoisted past a body end
//     would change which thread executes it);
//   - a deleted producer's destination register must be dead after the
//     consumer (or be the consumer's own destination): the short-circuit
//     &&/|| encoding keeps its condition register live as the expression
//     result, which is exactly what blocks an unsound Load+Jz fold there;
//   - deleted positions remap to the next surviving instruction, so a jump
//     into the head of a fused chain re-executes the whole fused operation.
//
// Liveness is a standard backward dataflow over the function's successor
// graph, extended for the VM's structured-construct closures: a construct
// instruction flows into both its body and its continuation, and any
// instruction that can reach a body's end also flows back to the body's
// begin (worksharing bodies re-run per chunk, team bodies per thread).
#include "interp/bc_ops.h"
#include "interp/bytecode.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace parcoach::interp {

namespace {

// ---- Generic operand enumeration (driven by bc_ops.def roles) ---------------

/// Calls f(reg_field_ref, is_write) for every register operand of `I`,
/// including registers carried inside the instruction's side-table site
/// (root/payload/comm, omp clauses, call/print/waitall register lists).
/// Fields may be -1 (absent); callers skip negatives.
template <class F>
void for_each_reg(BcProgram& p, BcInstr& I, F&& f) {
  const OpSpec& spec = op_spec(I.op);
  if (spec.a == OpField::RegR) f(I.a, false);
  if (spec.a == OpField::RegW) f(I.a, true);
  if (spec.b == OpField::RegR) f(I.b, false);
  if (spec.c == OpField::RegR) f(I.c, false);
  const auto list = [&](int32_t idx) {
    if (idx < 0) return;
    for (int32_t& r : p.reg_lists[static_cast<size_t>(idx)]) f(r, false);
  };
  if (I.a < 0) return;
  switch (spec.a) {
    case OpField::MpiSiteIdx: {
      MpiSite& st = p.mpi_sites[static_cast<size_t>(I.a)];
      f(st.root_reg, false);
      f(st.payload_reg, false);
      f(st.comm_reg, false);
      list(st.list);
      break;
    }
    case OpField::OmpSiteIdx: {
      OmpSite& st = p.omp_sites[static_cast<size_t>(I.a)];
      f(st.nt_reg, false);
      f(st.if_reg, false);
      f(st.lo_reg, false);
      f(st.hi_reg, false);
      break;
    }
    case OpField::CallSiteIdx:
      list(p.call_sites[static_cast<size_t>(I.a)].args);
      break;
    case OpField::PrintSiteIdx:
      list(p.print_sites[static_cast<size_t>(I.a)].args);
      break;
    default:
      break;
  }
}

/// Calls f(target_field_ref) for every jump-target operand of `I`.
template <class F>
void for_each_target(BcInstr& I, F&& f) {
  const OpSpec& spec = op_spec(I.op);
  if (spec.a == OpField::Target) f(I.a);
  if (spec.b == OpField::Target) f(I.b);
  if (spec.c == OpField::Target) f(I.c);
}

/// Calls f(OmpSite&) for every structured body belonging to `fn` (the sites
/// referenced by its construct instructions, plus Sections sub-bodies, which
/// are only reachable through their parent's section_sites list).
template <class F>
void for_each_body(BcProgram& p, BcFunction& fn, F&& f) {
  for (BcInstr& I : fn.code) {
    if (op_spec(I.op).a != OpField::OmpSiteIdx || I.a < 0) continue;
    OmpSite& st = p.omp_sites[static_cast<size_t>(I.a)];
    f(st);
    for (int32_t sec : st.section_sites)
      f(p.omp_sites[static_cast<size_t>(sec)]);
  }
}

// ---- Successor graph and liveness -------------------------------------------

std::vector<std::vector<uint32_t>> successors(BcProgram& p, BcFunction& fn) {
  const uint32_t n = static_cast<uint32_t>(fn.code.size());
  std::vector<std::vector<uint32_t>> succ(n);
  const auto add = [&](uint32_t i, uint32_t s) {
    if (s < n) succ[i].push_back(s);
  };
  for (uint32_t i = 0; i < n; ++i) {
    BcInstr& I = fn.code[i];
    const bool falls = I.op != Op::Jump && I.op != Op::Ret &&
                       I.op != Op::Trap && I.op != Op::StoreJump;
    if (falls) add(i, i + 1);
    for_each_target(I, [&](int32_t& t) {
      if (t >= 0) add(i, static_cast<uint32_t>(t));
    });
    if (op_spec(I.op).a == OpField::OmpSiteIdx && I.a >= 0) {
      // Construct runs its body as a closure and resumes at body.end; the
      // fall-through above already covers body.begin (== i + 1).
      const OmpSite& st = p.omp_sites[static_cast<size_t>(I.a)];
      add(i, st.body.end);
      for (int32_t sec : st.section_sites)
        add(i, p.omp_sites[static_cast<size_t>(sec)].body.begin);
    }
  }
  // A body may execute more than once (worksharing chunks, one run per team
  // thread): anything that can reach its end can also re-enter its begin.
  for_each_body(p, fn, [&](OmpSite& st) {
    if (st.body.begin >= st.body.end) return;
    for (uint32_t i = st.body.begin; i < st.body.end; ++i)
      for (uint32_t s : std::vector<uint32_t>(succ[i]))
        if (s == st.body.end) {
          add(i, st.body.begin);
          break;
        }
  });
  return succ;
}

/// Backward live-register dataflow; live_out answers "is `r` still needed
/// after instruction `i` completes" (on any path, including re-entry into a
/// structured body).
class Liveness {
public:
  Liveness(BcProgram& p, BcFunction& fn) {
    const size_t n = fn.code.size();
    words_ = (static_cast<size_t>(std::max(fn.num_regs, 1)) + 63) / 64;
    in_.assign(n * words_, 0);
    out_.assign(n * words_, 0);
    std::vector<uint64_t> use(n * words_, 0);
    std::vector<int32_t> def(n, -1);
    for (size_t i = 0; i < n; ++i)
      for_each_reg(p, fn.code[i], [&](int32_t& r, bool is_write) {
        if (r < 0) return;
        if (is_write)
          def[i] = r;
        else
          use[i * words_ + static_cast<size_t>(r) / 64] |=
              1ull << (static_cast<size_t>(r) % 64);
      });
    const auto succ = successors(p, fn);
    std::vector<uint64_t> tmp(words_);
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = n; i-- > 0;) {
        std::fill(tmp.begin(), tmp.end(), 0);
        for (uint32_t s : succ[i])
          for (size_t w = 0; w < words_; ++w) tmp[w] |= in_[s * words_ + w];
        for (size_t w = 0; w < words_; ++w) out_[i * words_ + w] = tmp[w];
        if (def[i] >= 0)
          tmp[static_cast<size_t>(def[i]) / 64] &=
              ~(1ull << (static_cast<size_t>(def[i]) % 64));
        for (size_t w = 0; w < words_; ++w) {
          const uint64_t v = use[i * words_ + w] | tmp[w];
          if (v != in_[i * words_ + w]) {
            in_[i * words_ + w] = v;
            changed = true;
          }
        }
      }
    }
  }

  [[nodiscard]] bool live_out(size_t i, int32_t r) const {
    return (out_[i * words_ + static_cast<size_t>(r) / 64] >>
            (static_cast<size_t>(r) % 64)) &
           1;
  }

private:
  size_t words_ = 0;
  std::vector<uint64_t> in_, out_;
};

/// Positions that some jump or structured body boundary points at. The fuser
/// never rewrites a consumer sitting on one of these (a jumping path would
/// skip the folded producers), and body begins/ends count as boundaries so
/// no fusion spans into or out of a structured block.
std::vector<bool> targets_of(BcProgram& p, BcFunction& fn) {
  std::vector<bool> t(fn.code.size() + 1, false);
  const auto mark = [&](int32_t x) {
    if (x >= 0 && static_cast<size_t>(x) < t.size()) t[static_cast<size_t>(x)] = true;
  };
  for (BcInstr& I : fn.code) for_each_target(I, mark);
  for_each_body(p, fn, [&](OmpSite& st) {
    mark(static_cast<int32_t>(st.body.begin));
    mark(static_cast<int32_t>(st.body.end));
  });
  return t;
}

// ---- Peephole superinstruction fusion ---------------------------------------

/// Rewrites dead instructions out of `fn.code` and remaps every jump target
/// and body range. A deleted position maps to the next surviving
/// instruction, which is correct because the surviving fused instruction
/// re-performs the deleted producers' work.
void compact(BcProgram& p, BcFunction& fn, const std::vector<bool>& dead) {
  const size_t n = fn.code.size();
  std::vector<int32_t> pos(n + 1, 0);
  int32_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    pos[i] = k;
    if (!dead[i]) ++k;
  }
  pos[n] = k;
  const auto remap = [&](int32_t t) {
    return t >= 0 && static_cast<size_t>(t) <= n ? pos[static_cast<size_t>(t)]
                                                 : t;
  };
  for (size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    for_each_target(fn.code[i], [&](int32_t& t) { t = remap(t); });
  }
  for_each_body(p, fn, [&](OmpSite& st) {
    st.body.begin = static_cast<uint32_t>(remap(static_cast<int32_t>(st.body.begin)));
    st.body.end = static_cast<uint32_t>(remap(static_cast<int32_t>(st.body.end)));
  });
  std::vector<BcInstr> out;
  out.reserve(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i)
    if (!dead[i]) out.push_back(fn.code[i]);
  fn.code = std::move(out);
}

/// One fusion round: scan for patterns against fresh liveness/target facts,
/// rewrite consumers in place, mark producers dead, then compact. In-round
/// facts only get more conservative as producers die (uses shrink), so stale
/// liveness is safe. Returns whether anything changed.
bool fuse_round(BcProgram& p, BcFunction& fn) {
  const size_t n = fn.code.size();
  if (n < 2) return false;
  Liveness live(p, fn);
  const std::vector<bool> target = targets_of(p, fn);
  std::vector<bool> dead(n, false);
  bool changed = false;

  // True when the value a deleted producer left in `r` cannot be observed
  // after the consumer at `i`: either the consumer overwrites `r` itself, or
  // `r` is dead on every outgoing path.
  const auto gone_after = [&](size_t i, int32_t r, int32_t write_reg) {
    return r == write_reg || !live.live_out(i, r);
  };
  const auto kill = [&](size_t i) {
    dead[i] = true;
    changed = true;
  };

  for (size_t i = 1; i < n; ++i) {
    if (dead[i] || target[i] || dead[i - 1]) continue;
    BcInstr& C = fn.code[i];
    BcInstr& P = fn.code[i - 1];
    const int rr = block_kind(C.op, Op::Add, kNumArithKinds);
    const int ri = block_kind(C.op, Op::AddImm, kNumArithKinds);
    const int rl = block_kind(C.op, Op::AddRL, kNumArithKinds);
    const int jn = block_kind(C.op, Op::JnLt, kNumCmpKinds);
    const int jni = block_kind(C.op, Op::JnLtImm, kNumCmpKinds);

    // Arith rhs folds: [Const rc][op a,b,rc] / [Load rc,s][op a,b,rc].
    if (rr >= 0 && P.op == Op::Const && P.a == C.c && C.b != C.c &&
        gone_after(i, C.c, C.a)) {
      C.op = arith_ri(rr);
      C.imm = P.imm;
      C.c = -1;
      kill(i - 1);
    } else if (rr >= 0 && P.op == Op::Load && P.a == C.c && C.b != C.c &&
               gone_after(i, C.c, C.a)) {
      C.op = arith_rl(rr);
      C.c = P.b;
      kill(i - 1);
    }
    // Arith lhs folds via the swapped kind (commutative ops and flipped
    // compares; Sub/Div/Mod have no swapped form).
    else if (rr >= 0 && P.op == Op::Const && P.a == C.b && C.b != C.c &&
             arith_swapped(rr) >= 0 && gone_after(i, C.b, C.a)) {
      C.op = arith_ri(arith_swapped(rr));
      C.imm = P.imm;
      C.b = C.c;
      C.c = -1;
      kill(i - 1);
    } else if (rr >= 0 && P.op == Op::Load && P.a == C.b && C.b != C.c &&
               arith_swapped(rr) >= 0 && gone_after(i, C.b, C.a)) {
      C.op = arith_rl(arith_swapped(rr));
      C.b = C.c;
      C.c = P.b;
      kill(i - 1);
    }
    // Second-round folds into the already-fused forms.
    else if (ri >= 0 && P.op == Op::Load && P.a == C.b &&
             gone_after(i, C.b, C.a)) {
      C.op = arith_li(ri); // [Load b,s][op_imm a,b] -> op_li a,s
      C.b = P.b;
      kill(i - 1);
    } else if (rl >= 0 && P.op == Op::Load && P.a == C.b &&
               gone_after(i, C.b, C.a)) {
      C.op = arith_ll(rl); // [Load b,s1][op_rl a,b,s2] -> op_ll a,s1,s2
      C.b = P.b;
      kill(i - 1);
    } else if (rl >= 0 && P.op == Op::Const && P.a == C.b &&
               arith_swapped(rl) >= 0 && gone_after(i, C.b, C.a)) {
      C.op = arith_li(arith_swapped(rl)); // [Const b][op_rl a,b,s] -> op_li
      C.b = C.c;
      C.c = -1;
      C.imm = P.imm;
      kill(i - 1);
    }
    // Guard-compare folds into the fused branches.
    else if (jn >= 0 && P.op == Op::Const && P.a == C.b && C.a != C.b &&
             gone_after(i, C.b, -1)) {
      C.op = jn_ri(jn); // [Const rb][jnXX ra,rb] -> jnXX_imm ra
      C.imm = P.imm;
      C.b = -1;
      kill(i - 1);
    } else if (jn >= 0 && P.op == Op::Const && P.a == C.a && C.a != C.b &&
               gone_after(i, C.a, -1)) {
      C.op = jn_ri(cmp_swapped(jn)); // [Const ra][jnXX ra,rb] -> swapped imm
      C.a = C.b;
      C.b = -1;
      C.imm = P.imm;
      kill(i - 1);
    } else if (jni >= 0 && P.op == Op::Load && P.a == C.a &&
               gone_after(i, C.a, -1)) {
      C.op = jn_li(jni); // [Load ra,s][jnXX_imm ra] -> jnXX_li s
      C.a = P.b;
      kill(i - 1);
    } else if (jn >= 0 && i >= 2 && !dead[i - 2] && !target[i - 1] &&
               fn.code[i - 2].op == Op::Load && P.op == Op::Load &&
               fn.code[i - 2].a == C.a && P.a == C.b && C.a != C.b &&
               gone_after(i, C.a, -1) && gone_after(i, C.b, -1)) {
      C.op = jn_ll(jn); // [Load ra,s1][Load rb,s2][jnXX ra,rb] -> jnXX_ll
      C.a = fn.code[i - 2].b;
      C.b = P.b;
      kill(i - 1);
      kill(i - 2);
    }
    // Truth-test branches.
    else if ((C.op == Op::Jz || C.op == Op::Jnz) && P.op == Op::Load &&
             P.a == C.a && gone_after(i, C.a, -1)) {
      C.op = C.op == Op::Jz ? Op::JzL : Op::JnzL;
      C.a = P.b;
      kill(i - 1);
    } else if ((C.op == Op::Jz || C.op == Op::Jnz) && P.op == Op::Const &&
               P.a == C.a && gone_after(i, C.a, -1)) {
      // Constant condition: an unconditional jump or a no-op.
      if ((C.op == Op::Jz) == (P.imm == 0)) {
        C.op = Op::Jump;
        C.a = C.b;
        C.b = -1;
      } else {
        kill(i);
      }
      kill(i - 1);
    }
    // Store forms.
    else if (C.op == Op::Store && P.op == Op::Const && P.a == C.b &&
             gone_after(i, C.b, -1)) {
      C.op = Op::StoreImm;
      C.imm = P.imm;
      C.b = -1;
      kill(i - 1);
    } else if (C.op == Op::Store && P.op == Op::Load && P.a == C.b &&
               gone_after(i, C.b, -1)) {
      C.op = Op::MovSS;
      C.b = P.b;
      kill(i - 1);
    } else if (C.op == Op::StoreImm && P.op == Op::Decl && P.a == C.a) {
      C.op = Op::DeclImm; // rebind + init in one dispatch
      kill(i - 1);
    } else if (C.op == Op::Jump && P.op == Op::Store) {
      C.op = Op::StoreJump; // the loop back-edge shape
      C.c = C.a;
      C.a = P.a;
      C.b = P.b;
      kill(i - 1);
    }
  }
  if (!changed) return false;
  compact(p, fn, dead);
  return true;
}

void fuse_function(BcProgram& p, BcFunction& fn) {
  while (fuse_round(p, fn)) {
  }
}

} // namespace

void run_passes(BcProgram& p, const BcPassOptions& opts) {
  if (!opts.fuse) return;
  for (BcFunction& fn : p.funcs) fuse_function(p, fn);
}

} // namespace parcoach::interp
