#include "interp/bytecode.h"

#include "frontend/slots.h"
#include "interp/bc_ops.h"
#include "interp/exec_internal.h"
#include "support/source_manager.h"
#include "support/str.h"

#include <unordered_map>

namespace parcoach::interp {

namespace {

using frontend::Stmt;
using frontend::StmtKind;
using ir::Expr;

/// Raised mid-compilation when a name fails to resolve (sema escape). The
/// enclosing statement's code is rolled back and replaced by a Trap carrying
/// the same diagnostic the AST engine raises at execution time — so faults
/// stay execution-time and statement-precise in both engines.
struct Unresolved {
  std::string message;
};

class FnCompiler {
public:
  FnCompiler(const frontend::Program& program, const SourceManager& sm,
             const core::InstrumentationPlan* plan,
             const frontend::SlotMap& slots,
             const std::unordered_map<std::string, int32_t>& func_ids,
             BcProgram& out)
      : program_(program), sm_(sm), plan_(plan), slots_(slots),
        func_ids_(func_ids), out_(out) {}

  void run(const frontend::FuncDecl& decl, BcFunction& fn) {
    fn_ = &fn;
    fn.decl = &decl;
    const auto it = slots_.funcs.find(&decl);
    fn.num_slots = it->second.num_slots;
    fn.param_slots = it->second.param_slots;
    c_block(decl.body);
    fn.num_regs = max_regs_;
  }

private:
  // ---- Emission helpers -----------------------------------------------------
  uint32_t emit(Op op, int32_t a = -1, int32_t b = -1, int32_t c = -1,
                int64_t imm = 0) {
    fn_->code.push_back({op, a, b, c, imm});
    return static_cast<uint32_t>(fn_->code.size() - 1);
  }
  [[nodiscard]] int32_t here() const {
    return static_cast<int32_t>(fn_->code.size());
  }
  void patch_a(uint32_t at) { fn_->code[at].a = here(); }
  void patch_b(uint32_t at) { fn_->code[at].b = here(); }

  /// A forward branch-if-false awaiting its target.
  struct Branch {
    uint32_t at;
    bool fused; // fused compare: target in .c; plain Jz: target in .b
  };

  /// Emits "branch to <later> unless regs[cond_reg]". When the condition was
  /// just computed by a comparison whose result dies here (the If/While/For
  /// shape), the compare is folded into one fused compare-and-branch
  /// instruction — one dispatch instead of two on every loop iteration.
  Branch emit_branch_if_false(int32_t cond_reg) {
    if (!fn_->code.empty()) {
      BcInstr& last = fn_->code.back();
      if (last.a == cond_reg && last.op >= Op::Lt && last.op <= Op::Ne) {
        last.op = static_cast<Op>(static_cast<int>(Op::JnLt) +
                                  (static_cast<int>(last.op) -
                                   static_cast<int>(Op::Lt)));
        last.a = last.b;
        last.b = last.c;
        last.c = -1; // target patched later
        return {static_cast<uint32_t>(fn_->code.size() - 1), true};
      }
    }
    return {emit(Op::Jz, cond_reg), false};
  }
  void patch_branch(Branch br) {
    if (br.fused)
      fn_->code[br.at].c = here();
    else
      fn_->code[br.at].b = here();
  }

  int32_t alloc_reg() {
    if (reg_top_ + 1 > max_regs_) max_regs_ = reg_top_ + 1;
    return reg_top_++;
  }

  int32_t add_list(std::vector<int32_t> regs) {
    out_.reg_lists.push_back(std::move(regs));
    return static_cast<int32_t>(out_.reg_lists.size() - 1);
  }

  int32_t add_trap(std::string msg) {
    out_.traps.push_back(std::move(msg));
    return static_cast<int32_t>(out_.traps.size() - 1);
  }

  int32_t slot_of(const Expr& e) {
    const int32_t slot = slots_.of(e);
    if (slot < 0) throw Unresolved{undefined_var_msg(sm_, e.var, e.loc)};
    return slot;
  }

  int32_t target_slot_of(const Stmt& s) {
    const int32_t slot = slots_.of(s);
    if (slot < 0) throw Unresolved{undefined_var_msg(sm_, s.name, s.loc)};
    return slot;
  }

  // ---- Expressions ----------------------------------------------------------
  int32_t c_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::IntLit: {
        const int32_t r = alloc_reg();
        emit(Op::Const, r, -1, -1, e.int_val);
        return r;
      }
      case Expr::Kind::VarRef: {
        const int32_t r = alloc_reg();
        emit(Op::Load, r, slot_of(e));
        return r;
      }
      case Expr::Kind::Unary: {
        const int32_t r = c_expr(*e.kids[0]);
        emit(e.un_op == ir::UnaryOp::Neg ? Op::Neg : Op::Not, r, r);
        return r;
      }
      case Expr::Kind::Binary:
        return c_binary(e);
      case Expr::Kind::BuiltinCall: {
        const int32_t r = alloc_reg();
        switch (e.builtin) {
          case ir::Builtin::Rank: emit(Op::Rank, r); break;
          case ir::Builtin::Size: emit(Op::Size, r); break;
          case ir::Builtin::OmpThreadNum: emit(Op::ThreadNum, r); break;
          case ir::Builtin::OmpNumThreads: emit(Op::NumThreads, r); break;
        }
        return r;
      }
    }
    const int32_t r = alloc_reg();
    emit(Op::Const, r, -1, -1, 0);
    return r;
  }

  int32_t c_binary(const Expr& e) {
    // Short-circuit && / || with the AST engine's 0/1 normalization.
    if (e.bin_op == ir::BinaryOp::And) {
      const int32_t r = c_expr(*e.kids[0]);
      const uint32_t jz = emit(Op::Jz, r); // result is already 0
      const int32_t rb = c_expr(*e.kids[1]);
      emit(Op::Bool, r, rb);
      reg_top_ = r + 1;
      patch_b(jz);
      return r;
    }
    if (e.bin_op == ir::BinaryOp::Or) {
      const int32_t r = c_expr(*e.kids[0]);
      emit(Op::Bool, r, r);
      const uint32_t jnz = emit(Op::Jnz, r); // result is already 1
      const int32_t rb = c_expr(*e.kids[1]);
      emit(Op::Bool, r, rb);
      reg_top_ = r + 1;
      patch_b(jnz);
      return r;
    }
    const int32_t ra = c_expr(*e.kids[0]);
    const int32_t rb = c_expr(*e.kids[1]);
    Op op;
    switch (e.bin_op) {
      case ir::BinaryOp::Add: op = Op::Add; break;
      case ir::BinaryOp::Sub: op = Op::Sub; break;
      case ir::BinaryOp::Mul: op = Op::Mul; break;
      case ir::BinaryOp::Div: op = Op::Div; break;
      case ir::BinaryOp::Mod: op = Op::Mod; break;
      case ir::BinaryOp::Lt: op = Op::Lt; break;
      case ir::BinaryOp::Le: op = Op::Le; break;
      case ir::BinaryOp::Gt: op = Op::Gt; break;
      case ir::BinaryOp::Ge: op = Op::Ge; break;
      case ir::BinaryOp::Eq: op = Op::Eq; break;
      case ir::BinaryOp::Ne: op = Op::Ne; break;
      default: op = Op::Add; break;
    }
    emit(op, ra, ra, rb);
    reg_top_ = ra + 1;
    return ra;
  }

  // ---- Statements -----------------------------------------------------------
  void c_block(const std::vector<frontend::StmtPtr>& body) {
    for (const auto& s : body) c_stmt(*s);
  }

  void c_stmt(const Stmt& s) {
    const int32_t reg_mark = reg_top_;
    const size_t code_mark = fn_->code.size();
    try {
      c_stmt_inner(s);
    } catch (const Unresolved& u) {
      fn_->code.resize(code_mark);
      emit(Op::Trap, add_trap(u.message));
    }
    reg_top_ = reg_mark;
  }

  void c_stmt_inner(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::VarDecl: {
        // Declaration point first (fresh zeroed cell), then the initializer:
        // `var x = x + 1;` reads the new x, exactly like Env::declare-then-
        // eval in the tree-walker.
        const int32_t slot = target_slot_of(s);
        emit(Op::Decl, slot);
        const int32_t r = c_expr(*s.value);
        emit(Op::Store, slot, r);
        return;
      }
      case StmtKind::Assign: {
        const int32_t slot = target_slot_of(s); // target checked before value
        const int32_t r = c_expr(*s.value);
        emit(Op::Store, slot, r);
        return;
      }
      case StmtKind::If: {
        const int32_t r = c_expr(*s.value);
        const Branch jz = emit_branch_if_false(r);
        reg_top_ = r; // condition register dies here
        c_block(s.body);
        if (s.else_body.empty()) {
          patch_branch(jz);
          return;
        }
        const uint32_t jend = emit(Op::Jump);
        patch_branch(jz);
        c_block(s.else_body);
        patch_a(jend);
        return;
      }
      case StmtKind::While: {
        const int32_t head = here();
        const int32_t r = c_expr(*s.value);
        const Branch jz = emit_branch_if_false(r);
        reg_top_ = r;
        c_block(s.body);
        emit(Op::Jump, head);
        patch_branch(jz);
        return;
      }
      case StmtKind::For: {
        const int32_t r_hi = c_expr(*s.hi); // AST engine evaluates hi first
        const int32_t r_i = c_expr(*s.lo);
        const int32_t iv = target_slot_of(s);
        emit(Op::Decl, iv);
        const int32_t head = here();
        // i < hi, fused with the loop exit branch.
        const uint32_t jge = emit(Op::JnLt, r_i, r_hi);
        emit(Op::Store, iv, r_i);
        c_block(s.body);
        emit(Op::AddImm, r_i, r_i, -1, 1);
        emit(Op::Jump, head);
        fn_->code[jge].c = here();
        return;
      }
      case StmtKind::Return: {
        const int32_t r = s.value ? c_expr(*s.value) : -1;
        emit(Op::Ret, r);
        return;
      }
      case StmtKind::Print: {
        std::vector<int32_t> regs;
        regs.reserve(s.args.size());
        for (const auto& a : s.args) regs.push_back(c_expr(*a));
        out_.print_sites.push_back({add_list(std::move(regs))});
        emit(Op::PrintOp, static_cast<int32_t>(out_.print_sites.size() - 1));
        return;
      }
      case StmtKind::CallStmt: {
        const auto it = func_ids_.find(s.callee);
        if (it == func_ids_.end())
          throw Unresolved{undefined_fn_msg(sm_, s.callee, s.loc)};
        std::vector<int32_t> regs;
        regs.reserve(s.args.size());
        for (const auto& a : s.args) regs.push_back(c_expr(*a));
        CallSite cs;
        cs.func = it->second;
        cs.args = regs.empty() ? -1 : add_list(std::move(regs));
        if (!s.name.empty()) {
          cs.target_slot = target_slot_of(s);
          cs.declares_target = s.declares_target;
        }
        out_.call_sites.push_back(std::move(cs));
        emit(Op::Call, static_cast<int32_t>(out_.call_sites.size() - 1));
        return;
      }
      case StmtKind::MpiCall:
        c_mpi_call(s);
        return;
      case StmtKind::MpiSend: {
        const int32_t rv = c_expr(*s.mpi_value);
        const int32_t rd = c_expr(*s.mpi_root);
        const int32_t rt = c_expr(*s.hi);
        MpiSite st; // locates the destination check's diagnostic
        st.stmt = &s;
        emit(Op::MpiSend, rv, rd, rt, add_mpi_site(std::move(st)));
        return;
      }
      case StmtKind::MpiRecv: {
        MpiSite st;
        st.stmt = &s;
        st.root_reg = c_expr(*s.mpi_root); // source
        st.payload_reg = c_expr(*s.hi);    // tag
        fill_target(st, s);
        emit(Op::MpiRecv, add_mpi_site(std::move(st)));
        return;
      }
      case StmtKind::MpiWait:
      case StmtKind::MpiTest: {
        MpiSite st;
        st.stmt = &s;
        st.payload_reg = c_expr(*s.mpi_value); // request
        fill_target(st, s);
        emit(s.kind == StmtKind::MpiWait ? Op::MpiWait : Op::MpiTest,
             add_mpi_site(std::move(st)));
        return;
      }
      case StmtKind::MpiWaitall: {
        MpiSite st;
        st.stmt = &s;
        std::vector<int32_t> regs;
        regs.reserve(s.args.size());
        for (const auto& a : s.args) regs.push_back(c_expr(*a));
        st.list = add_list(std::move(regs));
        emit(Op::MpiWaitall, add_mpi_site(std::move(st)));
        return;
      }
      case StmtKind::OmpParallel: {
        OmpSite st;
        st.stmt = &s;
        if (s.num_threads) st.nt_reg = c_expr(*s.num_threads);
        if (s.if_clause) st.if_reg = c_expr(*s.if_clause);
        const int32_t site = add_omp_site(std::move(st));
        emit(Op::Par, site);
        compile_body_into(site, s.body);
        return;
      }
      case StmtKind::OmpSingle:
      case StmtKind::OmpMaster: {
        OmpSite st;
        st.stmt = &s;
        st.nowait = s.nowait;
        st.watched = plan_ && plan_->watched_regions.count(s.region_id) > 0;
        const int32_t site = add_omp_site(std::move(st));
        emit(s.kind == StmtKind::OmpSingle ? Op::Single : Op::Master, site);
        compile_body_into(site, s.body);
        return;
      }
      case StmtKind::OmpCritical: {
        OmpSite st;
        st.stmt = &s;
        const int32_t site = add_omp_site(std::move(st));
        emit(Op::Critical, site);
        compile_body_into(site, s.body);
        return;
      }
      case StmtKind::OmpBarrier:
        emit(Op::OmpBarrierOp);
        return;
      case StmtKind::OmpSections: {
        OmpSite st;
        st.stmt = &s;
        st.nowait = s.nowait;
        const int32_t site = add_omp_site(std::move(st));
        emit(Op::Sections, site);
        const uint32_t begin = static_cast<uint32_t>(here());
        std::vector<int32_t> section_sites;
        for (const auto& sec : s.body) {
          OmpSite sst;
          sst.stmt = sec.get();
          sst.watched =
              plan_ && plan_->watched_regions.count(sec->region_id) > 0;
          const int32_t sec_site = add_omp_site(std::move(sst));
          compile_body_into(sec_site, sec->body);
          section_sites.push_back(sec_site);
        }
        out_.omp_sites[static_cast<size_t>(site)].body = {
            begin, static_cast<uint32_t>(here())};
        out_.omp_sites[static_cast<size_t>(site)].section_sites =
            std::move(section_sites);
        return;
      }
      case StmtKind::OmpSection:
        // Only reachable through OmpSections.
        return;
      case StmtKind::OmpFor: {
        OmpSite st;
        st.stmt = &s;
        st.nowait = s.nowait;
        st.lo_reg = c_expr(*s.lo);
        st.hi_reg = c_expr(*s.hi);
        st.iv_slot = target_slot_of(s);
        const int32_t site = add_omp_site(std::move(st));
        emit(Op::OmpForOp, site);
        compile_body_into(site, s.body);
        return;
      }
    }
  }

  /// Compiles a structured body inline right after its construct instruction
  /// and records the [begin, end) range on the site; the VM runs the range as
  /// a closure and resumes at `end`.
  void compile_body_into(int32_t site, const std::vector<frontend::StmtPtr>& body) {
    const uint32_t begin = static_cast<uint32_t>(here());
    c_block(body);
    out_.omp_sites[static_cast<size_t>(site)].body = {
        begin, static_cast<uint32_t>(here())};
  }

  void fill_target(MpiSite& st, const Stmt& s) {
    if (s.name.empty()) return;
    st.target_slot = target_slot_of(s);
    st.declares_target = s.declares_target;
  }

  int32_t add_mpi_site(MpiSite st) {
    out_.mpi_sites.push_back(std::move(st));
    return static_cast<int32_t>(out_.mpi_sites.size() - 1);
  }
  int32_t add_omp_site(OmpSite st) {
    out_.omp_sites.push_back(std::move(st));
    return static_cast<int32_t>(out_.omp_sites.size() - 1);
  }

  void c_mpi_call(const Stmt& s) {
    MpiSite st;
    st.stmt = &s;
    if (s.is_mpi_init) {
      emit(Op::MpiColl, add_mpi_site(std::move(st)));
      return;
    }
    if (s.is_mpi_abort) {
      st.payload_reg = c_expr(*s.mpi_value); // the error code
      emit(Op::MpiColl, add_mpi_site(std::move(st)));
      return;
    }
    st.mono = plan_ && plan_->mono_stmts.count(s.stmt_id) > 0;
    st.armed = plan_ && plan_->cc_stmts.count(s.stmt_id) > 0;
    if (ir::is_comm_op(s.coll)) {
      // AST evaluation order: parent comm, then color/key (split) or the
      // scalar operand (agree flag, errhandler mode).
      if (s.mpi_comm) st.comm_reg = c_expr(*s.mpi_comm);
      if (s.coll == ir::CollectiveKind::CommSplit) {
        st.payload_reg = c_expr(*s.mpi_value); // color
        st.root_reg = c_expr(*s.mpi_root);     // key
      } else if (s.coll == ir::CollectiveKind::CommAgree ||
                 s.coll == ir::CollectiveKind::CommSetErrhandler) {
        st.payload_reg = c_expr(*s.mpi_value); // flag / mode
      }
      st.child_armed = plan_ && plan_->cc_classes.count(s.name) > 0;
      if (ir::is_comm_ctor(s.coll) || s.coll == ir::CollectiveKind::CommAgree)
        fill_target(st, s);
    } else {
      if (s.mpi_root) st.root_reg = c_expr(*s.mpi_root);
      if (s.mpi_value) st.payload_reg = c_expr(*s.mpi_value);
      if (s.mpi_comm) st.comm_reg = c_expr(*s.mpi_comm);
      fill_target(st, s);
    }
    emit(Op::MpiColl, add_mpi_site(std::move(st)));
  }

  const frontend::Program& program_;
  const SourceManager& sm_;
  const core::InstrumentationPlan* plan_;
  const frontend::SlotMap& slots_;
  const std::unordered_map<std::string, int32_t>& func_ids_;
  BcProgram& out_;
  BcFunction* fn_ = nullptr;
  int32_t reg_top_ = 0;
  int32_t max_regs_ = 0;
};

} // namespace

BcProgram compile(const frontend::Program& program, const SourceManager& sm,
                  const core::InstrumentationPlan* plan) {
  BcProgram out;
  const frontend::SlotMap slots = frontend::resolve_slots(program);

  std::unordered_map<std::string, int32_t> func_ids;
  out.funcs.resize(program.funcs.size());
  for (size_t i = 0; i < program.funcs.size(); ++i)
    func_ids.emplace(program.funcs[i].name, static_cast<int32_t>(i));
  const auto main_it = func_ids.find("main");
  out.main_func = main_it == func_ids.end() ? -1 : main_it->second;

  for (size_t i = 0; i < program.funcs.size(); ++i) {
    FnCompiler fc(program, sm, plan, slots, func_ids, out);
    fc.run(program.funcs[i], out.funcs[i]);
  }
  return out;
}

namespace {

constexpr OpSpec kOpSpecs[] = {
#define PARCOACH_OP(id, name, ra, rb, rc, imm) \
  {name, OpField::ra, OpField::rb, OpField::rc, (imm) != 0},
#include "interp/bc_ops.def"
#undef PARCOACH_OP
};
static_assert(sizeof(kOpSpecs) / sizeof(kOpSpecs[0]) == kNumOps,
              "bc_ops.def and kNumOps disagree");

} // namespace

const OpSpec& op_spec(Op op) { return kOpSpecs[static_cast<size_t>(op)]; }

std::string disassemble(const BcProgram& p) {
  std::string out;
  for (size_t f = 0; f < p.funcs.size(); ++f) {
    const BcFunction& fn = p.funcs[f];
    out += str::cat("func #", f, " ", fn.decl ? fn.decl->name : "?",
                    " (slots=", fn.num_slots, ", regs=", fn.num_regs, ")\n");
    for (size_t i = 0; i < fn.code.size(); ++i) {
      const BcInstr& in = fn.code[i];
      const OpSpec& spec = op_spec(in.op);
      out += str::cat("  ", i, ": ", spec.name);
      if (in.a >= 0) out += str::cat(" a=", in.a);
      if (in.b >= 0) out += str::cat(" b=", in.b);
      if (in.c >= 0) out += str::cat(" c=", in.c);
      if (in.imm != 0 || spec.imm) out += str::cat(" imm=", in.imm);
      if (in.op == Op::MpiColl) {
        const MpiSite& st = p.mpi_sites[static_cast<size_t>(in.a)];
        out += str::cat(" [", ir::to_string(st.stmt->coll));
        if (st.armed) out += " cc";
        if (st.mono) out += " mono";
        out += "]";
      }
      out += "\n";
    }
  }
  return out;
}

} // namespace parcoach::interp
