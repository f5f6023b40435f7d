// Per-opcode metadata and block arithmetic shared by the disassembler
// (bytecode.cpp) and the optimization passes (bc_passes.cpp). Everything
// here derives from bc_ops.def; nothing else hard-codes operand roles.
#pragma once

#include "interp/bytecode.h"

namespace parcoach::interp {

/// Role of one instruction field (a/b/c). RegW only ever appears in field a.
enum class OpField : uint8_t {
  None,
  RegR,
  RegW,
  Slot,
  Target,
  MpiSiteIdx,
  OmpSiteIdx,
  CallSiteIdx,
  PrintSiteIdx,
  TrapIdx,
};

struct OpSpec {
  const char* name;
  OpField a, b, c;
  bool imm; // the imm field is a live operand (printed even when zero)
};

[[nodiscard]] const OpSpec& op_spec(Op op);
[[nodiscard]] inline const char* op_name(Op op) { return op_spec(op).name; }

// ---- Contiguous block arithmetic --------------------------------------------
// The 11 binary kinds repeat in the same order across the five operand
// variants, and the 6 fused-branch kinds across four (see bc_ops.def).

inline constexpr int kNumArithKinds = 11; // Add..Ne
inline constexpr int kNumCmpKinds = 6;    // Lt..Ne

/// Kind index (0..10, Add..Ne) of `op` within the block starting at `base`,
/// or -1 if `op` is not in that block.
[[nodiscard]] inline int block_kind(Op op, Op base, int n) {
  const int k = static_cast<int>(op) - static_cast<int>(base);
  return k >= 0 && k < n ? k : -1;
}

[[nodiscard]] inline Op arith_rr(int k) {
  return static_cast<Op>(static_cast<int>(Op::Add) + k);
}
[[nodiscard]] inline Op arith_ri(int k) {
  return static_cast<Op>(static_cast<int>(Op::AddImm) + k);
}
[[nodiscard]] inline Op arith_ll(int k) {
  return static_cast<Op>(static_cast<int>(Op::AddLL) + k);
}
[[nodiscard]] inline Op arith_li(int k) {
  return static_cast<Op>(static_cast<int>(Op::AddLI) + k);
}
[[nodiscard]] inline Op arith_rl(int k) {
  return static_cast<Op>(static_cast<int>(Op::AddRL) + k);
}
[[nodiscard]] inline Op jn_rr(int k) {
  return static_cast<Op>(static_cast<int>(Op::JnLt) + k);
}
[[nodiscard]] inline Op jn_ri(int k) {
  return static_cast<Op>(static_cast<int>(Op::JnLtImm) + k);
}
[[nodiscard]] inline Op jn_ll(int k) {
  return static_cast<Op>(static_cast<int>(Op::JnLtLL) + k);
}
[[nodiscard]] inline Op jn_li(int k) {
  return static_cast<Op>(static_cast<int>(Op::JnLtLI) + k);
}

/// Arith kinds whose operands may be swapped as-is (x OP y == y OP x).
[[nodiscard]] inline bool arith_commutes(int k) {
  const Op op = arith_rr(k);
  return op == Op::Add || op == Op::Mul || op == Op::Eq || op == Op::Ne;
}

/// Arith kind computing the swapped-operand result (Lt<->Gt, Le<->Ge, plus
/// the commutative kinds), or -1 when no swapped form exists (Sub/Div/Mod).
[[nodiscard]] inline int arith_swapped(int k) {
  if (arith_commutes(k)) return k;
  const Op op = arith_rr(k);
  switch (op) {
    case Op::Lt: return block_kind(Op::Gt, Op::Add, kNumArithKinds);
    case Op::Gt: return block_kind(Op::Lt, Op::Add, kNumArithKinds);
    case Op::Le: return block_kind(Op::Ge, Op::Add, kNumArithKinds);
    case Op::Ge: return block_kind(Op::Le, Op::Add, kNumArithKinds);
    default: return -1;
  }
}

/// Compare kind (0..5, Lt..Ne) for swapped operands — always defined.
[[nodiscard]] inline int cmp_swapped(int k) {
  const Op op = static_cast<Op>(static_cast<int>(Op::JnLt) + k);
  switch (op) {
    case Op::JnLt: return static_cast<int>(Op::JnGt) - static_cast<int>(Op::JnLt);
    case Op::JnGt: return static_cast<int>(Op::JnLt) - static_cast<int>(Op::JnLt);
    case Op::JnLe: return static_cast<int>(Op::JnGe) - static_cast<int>(Op::JnLt);
    case Op::JnGe: return static_cast<int>(Op::JnLe) - static_cast<int>(Op::JnLt);
    default: return k; // Eq/Ne commute
  }
}

} // namespace parcoach::interp
