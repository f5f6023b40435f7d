// The bytecode VM: executes interp::BcProgram (see bytecode.h for what the
// compiler pre-resolved). Expression and control-flow semantics match the
// AST tree-walker in executor.cpp statement for statement, and every MPI
// statement goes through the executor both engines share (mpi_ops.h) — the
// corpus-wide differential test (BytecodeMatchesAstOutcome) holds the two
// engines to byte-identical diagnostics, deadlock details and program
// output.
#include "interp/bytecode.h"
#include "interp/exec_internal.h"
#include "interp/mpi_ops.h"

#include <functional>
#include <optional>

namespace parcoach::interp {

namespace {

using frontend::Stmt;

/// Execution frame of one function invocation, as seen by one thread.
///
/// `slots` is the shared-slot indirection: each entry points at the cell a
/// slot currently denotes. The root view points into its own `storage`; a
/// team-thread view copies the forker's pointers (OpenMP shared-by-default)
/// and Op::Decl rebinds a slot to the view's own storage at the declaration
/// point, which is exactly where the tree-walker's per-scope Env would have
/// created a thread-private cell.
struct Frame {
  const BcFunction* fn;
  std::vector<Cell> storage;
  std::vector<Cell*> slots;
  std::vector<int64_t> regs;

  explicit Frame(const BcFunction& f)
      : fn(&f), storage(static_cast<size_t>(f.num_slots)),
        slots(static_cast<size_t>(f.num_slots)),
        regs(static_cast<size_t>(f.num_regs), 0) {
    for (size_t i = 0; i < storage.size(); ++i) slots[i] = &storage[i];
  }

  struct TeamView {};
  Frame(const Frame& parent, TeamView)
      : fn(parent.fn), storage(parent.storage.size()), slots(parent.slots),
        regs(parent.regs.size(), 0) {}
};

/// Per-thread execution state within one rank.
struct VmThread : MpiThread {
  /// Worksharing-construct counter; identical across team threads in
  /// conforming programs, used as the construct-instance id.
  uint64_t construct_counter = 0;
  StepCounter steps;

  VmThread(SharedState& shared, simmpi::Rank& rank) : steps(shared, rank) {}
  VmThread(const VmThread&) = delete;
  VmThread& operator=(const VmThread&) = delete;
};

class VmRank {
public:
  VmRank(SharedState& shared, const BcProgram& bc, simmpi::Rank& rank,
         int32_t default_threads)
      : shared_(shared), bc_(bc), rank_(rank), mpi_(shared, rank),
        default_threads_(default_threads) {}

  void run_main() {
    if (bc_.main_func < 0) throw EvalError("program has no main()");
    const BcFunction& main_fn = bc_.funcs[static_cast<size_t>(bc_.main_func)];
    miniomp::ProcessDomain domain; // per-rank process-wide OpenMP state
    if (shared_.fault) {
      FaultInjector* fault = shared_.fault;
      const int32_t wr = rank_.rank();
      domain.spawn_jitter = [fault, wr](int32_t tid) {
        fault->thread_start_jitter(wr, tid);
      };
    }
    miniomp::ThreadContext root;   // serial context (no team)
    root.domain = &domain;
    VmThread ts(shared_, rank_);
    ts.omp = &root;
    call(main_fn, {}, ts);
    mpi_.leave_main(main_fn.decl->loc);
  }

private:
  int64_t call(const BcFunction& fn, const std::vector<int64_t>& args,
               VmThread& ts) {
    Frame f(fn);
    for (size_t i = 0; i < fn.param_slots.size(); ++i)
      f.slots[static_cast<size_t>(fn.param_slots[i])]->v.store(
          i < args.size() ? args[i] : 0, std::memory_order_relaxed);
    const auto ret =
        exec(f, ts, 0, static_cast<uint32_t>(fn.code.size()));
    return ret.value_or(0);
  }

  /// Region bodies cannot contain `return` (sema guarantee); guard anyway.
  void exec_no_return(Frame& f, VmThread& ts, BcBlock body) {
    if (exec(f, ts, body.begin, body.end))
      throw EvalError("return escaped an OpenMP structured block");
  }

  // ---- The dispatch loop ----------------------------------------------------
  std::optional<int64_t> exec(Frame& f, VmThread& ts, uint32_t pc,
                              uint32_t end) {
    const BcInstr* code = f.fn->code.data();
    int64_t* regs = f.regs.data();
    Cell** slots = f.slots.data();
    // Direct slot read, the fused superinstructions' memory operand.
    const auto lds = [&](int32_t s) {
      return slots[s]->v.load(std::memory_order_relaxed);
    };

// One binary kind across its five operand variants (see bc_ops.def): RR,
// imm rhs, slot/slot, slot/imm, reg/slot. EXPR sees int64_t x (lhs), y (rhs).
#define PARCOACH_BINOP_CASES(NAME, EXPR)                                       \
  case Op::NAME: {                                                             \
    const int64_t x = regs[I.b], y = regs[I.c];                                \
    regs[I.a] = (EXPR);                                                        \
    break;                                                                     \
  }                                                                            \
  case Op::NAME##Imm: {                                                        \
    const int64_t x = regs[I.b], y = I.imm;                                    \
    regs[I.a] = (EXPR);                                                        \
    break;                                                                     \
  }                                                                            \
  case Op::NAME##LL: {                                                         \
    const int64_t x = lds(I.b), y = lds(I.c);                                  \
    regs[I.a] = (EXPR);                                                        \
    break;                                                                     \
  }                                                                            \
  case Op::NAME##LI: {                                                         \
    const int64_t x = lds(I.b), y = I.imm;                                     \
    regs[I.a] = (EXPR);                                                        \
    break;                                                                     \
  }                                                                            \
  case Op::NAME##RL: {                                                         \
    const int64_t x = regs[I.b], y = lds(I.c);                                 \
    regs[I.a] = (EXPR);                                                        \
    break;                                                                     \
  }

// One fused branch kind across its four operand variants: branch to c when
// the comparison is false, fall through when it holds.
#define PARCOACH_JN_CASES(NAME, CMP)                                           \
  case Op::Jn##NAME: {                                                         \
    const int64_t x = regs[I.a], y = regs[I.b];                                \
    if (!(CMP)) {                                                              \
      pc = static_cast<uint32_t>(I.c);                                         \
      continue;                                                                \
    }                                                                          \
    break;                                                                     \
  }                                                                            \
  case Op::Jn##NAME##Imm: {                                                    \
    const int64_t x = regs[I.a], y = I.imm;                                    \
    if (!(CMP)) {                                                              \
      pc = static_cast<uint32_t>(I.c);                                         \
      continue;                                                                \
    }                                                                          \
    break;                                                                     \
  }                                                                            \
  case Op::Jn##NAME##LL: {                                                     \
    const int64_t x = lds(I.a), y = lds(I.b);                                  \
    if (!(CMP)) {                                                              \
      pc = static_cast<uint32_t>(I.c);                                         \
      continue;                                                                \
    }                                                                          \
    break;                                                                     \
  }                                                                            \
  case Op::Jn##NAME##LI: {                                                     \
    const int64_t x = lds(I.a), y = I.imm;                                     \
    if (!(CMP)) {                                                              \
      pc = static_cast<uint32_t>(I.c);                                         \
      continue;                                                                \
    }                                                                          \
    break;                                                                     \
  }

    while (pc < end) {
      const BcInstr& I = code[pc];
      ts.steps.bump();
      switch (I.op) {
        case Op::Const:
          regs[I.a] = I.imm;
          break;
        case Op::Load:
          regs[I.a] = slots[I.b]->v.load(std::memory_order_relaxed);
          break;
        case Op::Store:
          slots[I.a]->v.store(regs[I.b], std::memory_order_relaxed);
          break;
        case Op::Decl:
          slots[I.a] = &f.storage[static_cast<size_t>(I.a)];
          slots[I.a]->v.store(0, std::memory_order_relaxed);
          break;
        case Op::Neg: regs[I.a] = wrap_neg(regs[I.b]); break;
        case Op::Not: regs[I.a] = regs[I.b] == 0 ? 1 : 0; break;
        case Op::Bool: regs[I.a] = regs[I.b] != 0 ? 1 : 0; break;
        PARCOACH_BINOP_CASES(Add, wrap_add(x, y))
        PARCOACH_BINOP_CASES(Sub, wrap_sub(x, y))
        PARCOACH_BINOP_CASES(Mul, wrap_mul(x, y))
        PARCOACH_BINOP_CASES(Div, div_or_fault(x, y))
        PARCOACH_BINOP_CASES(Mod, mod_or_fault(x, y))
        PARCOACH_BINOP_CASES(Lt, x < y ? 1 : 0)
        PARCOACH_BINOP_CASES(Le, x <= y ? 1 : 0)
        PARCOACH_BINOP_CASES(Gt, x > y ? 1 : 0)
        PARCOACH_BINOP_CASES(Ge, x >= y ? 1 : 0)
        PARCOACH_BINOP_CASES(Eq, x == y ? 1 : 0)
        PARCOACH_BINOP_CASES(Ne, x != y ? 1 : 0)
        case Op::Rank: regs[I.a] = rank_.rank(); break;
        case Op::Size: regs[I.a] = rank_.size(); break;
        case Op::ThreadNum: regs[I.a] = ts.omp->thread_num; break;
        case Op::NumThreads: regs[I.a] = ts.omp->team_size(); break;
        case Op::Jump:
          pc = static_cast<uint32_t>(I.a);
          continue;
        case Op::Jz:
          if (regs[I.a] == 0) {
            pc = static_cast<uint32_t>(I.b);
            continue;
          }
          break;
        case Op::Jnz:
          if (regs[I.a] != 0) {
            pc = static_cast<uint32_t>(I.b);
            continue;
          }
          break;
        case Op::JzL:
          if (lds(I.a) == 0) {
            pc = static_cast<uint32_t>(I.b);
            continue;
          }
          break;
        case Op::JnzL:
          if (lds(I.a) != 0) {
            pc = static_cast<uint32_t>(I.b);
            continue;
          }
          break;
        PARCOACH_JN_CASES(Lt, x < y)
        PARCOACH_JN_CASES(Le, x <= y)
        PARCOACH_JN_CASES(Gt, x > y)
        PARCOACH_JN_CASES(Ge, x >= y)
        PARCOACH_JN_CASES(Eq, x == y)
        PARCOACH_JN_CASES(Ne, x != y)
        case Op::StoreImm:
          slots[I.a]->v.store(I.imm, std::memory_order_relaxed);
          break;
        case Op::StoreJump:
          slots[I.a]->v.store(regs[I.b], std::memory_order_relaxed);
          pc = static_cast<uint32_t>(I.c);
          continue;
        case Op::DeclImm:
          slots[I.a] = &f.storage[static_cast<size_t>(I.a)];
          slots[I.a]->v.store(I.imm, std::memory_order_relaxed);
          break;
        case Op::MovSS:
          slots[I.a]->v.store(lds(I.b), std::memory_order_relaxed);
          break;
        case Op::Ret:
          return I.a >= 0 ? regs[I.a] : 0;
        case Op::Trap:
          throw EvalError(bc_.traps[static_cast<size_t>(I.a)]);
        case Op::PrintOp: {
          const PrintSite& st = bc_.print_sites[static_cast<size_t>(I.a)];
          std::string line = str::cat("rank ", rank_.rank(), ":");
          if (st.args >= 0)
            for (int32_t r : bc_.reg_lists[static_cast<size_t>(st.args)])
              line += str::cat(" ", regs[r]);
          std::scoped_lock lk(shared_.output_mu);
          shared_.output.push_back(std::move(line));
          break;
        }
        case Op::Call: {
          const CallSite& cs = bc_.call_sites[static_cast<size_t>(I.a)];
          std::vector<int64_t> args;
          if (cs.args >= 0) {
            const auto& lst = bc_.reg_lists[static_cast<size_t>(cs.args)];
            args.reserve(lst.size());
            for (int32_t r : lst) args.push_back(regs[r]);
          }
          const int64_t ret =
              call(bc_.funcs[static_cast<size_t>(cs.func)], args, ts);
          if (cs.target_slot >= 0)
            store_slot(f, cs.target_slot, cs.declares_target, ret);
          break;
        }
        case Op::MpiSend:
          rank_.send(regs[I.a], static_cast<int32_t>(regs[I.b]),
                     static_cast<int32_t>(regs[I.c]));
          break;
        case Op::MpiColl:
        case Op::MpiRecv:
        case Op::MpiWait:
        case Op::MpiTest:
        case Op::MpiWaitall:
          exec_mpi(bc_.mpi_sites[static_cast<size_t>(I.a)], f, ts);
          break;
        case Op::Par: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          int32_t n = default_threads_;
          if (st.nt_reg >= 0) {
            n = static_cast<int32_t>(regs[st.nt_reg]);
            if (n < 1) n = 1;
          }
          const bool if_clause = st.if_reg < 0 || regs[st.if_reg] != 0;
          miniomp::Runtime::parallel(
              *ts.omp, n, if_clause, [&](miniomp::ThreadContext& child) {
                VmThread cts(shared_, rank_);
                cts.omp = &child;
                Frame view(f, Frame::TeamView{});
                exec_no_return(view, cts, st.body);
              });
          pc = st.body.end;
          continue;
        }
        case Op::OmpForOp: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          ts.construct_counter++;
          const int64_t lo = regs[st.lo_reg];
          const int64_t hi = regs[st.hi_reg];
          // Privatize the loop variable for this thread's view, like the
          // per-iteration scope.declare in the tree-walker.
          Cell* iv = &f.storage[static_cast<size_t>(st.iv_slot)];
          slots[st.iv_slot] = iv;
          miniomp::Runtime::ws_for(*ts.omp, st.nowait, lo, hi,
                                   [&](int64_t i) {
                                     iv->v.store(i, std::memory_order_relaxed);
                                     exec_no_return(f, ts, st.body);
                                   });
          pc = st.body.end;
          continue;
        }
        case Op::Single: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          const uint64_t cid = ts.construct_counter++;
          miniomp::Runtime::single(*ts.omp, cid, st.nowait,
                                   [&] { region_body(st, f, ts); });
          pc = st.body.end;
          continue;
        }
        case Op::Master: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          miniomp::Runtime::master(*ts.omp, [&] { region_body(st, f, ts); });
          pc = st.body.end;
          continue;
        }
        case Op::Critical: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          miniomp::Runtime::critical(*ts.omp,
                                     [&] { exec_no_return(f, ts, st.body); });
          pc = st.body.end;
          continue;
        }
        case Op::Sections: {
          const OmpSite& st = bc_.omp_sites[static_cast<size_t>(I.a)];
          const uint64_t cid = ts.construct_counter++;
          std::vector<std::function<void()>> bodies;
          bodies.reserve(st.section_sites.size());
          for (int32_t sec_id : st.section_sites) {
            const OmpSite* sec = &bc_.omp_sites[static_cast<size_t>(sec_id)];
            bodies.push_back([this, sec, &f, &ts] {
              region_body(*sec, f, ts);
            });
          }
          miniomp::Runtime::sections(*ts.omp, cid, st.nowait, bodies);
          pc = st.body.end;
          continue;
        }
        case Op::OmpBarrierOp:
          miniomp::Runtime::barrier(*ts.omp);
          break;
      }
      ++pc;
    }
    return std::nullopt;
  }

#undef PARCOACH_BINOP_CASES
#undef PARCOACH_JN_CASES

  /// Single/master/section body with the optional RegionGuard for watched
  /// regions (set Scc); the arming decision was baked at compile time.
  void region_body(const OmpSite& st, Frame& f, VmThread& ts) {
    if (st.watched) {
      rt::Verifier::RegionGuard guard(*shared_.verifier, rank_,
                                      st.stmt->region_id, st.stmt->loc);
      exec_no_return(f, ts, st.body);
    } else {
      exec_no_return(f, ts, st.body);
    }
  }

  void store_slot(Frame& f, int32_t slot, bool declares, int64_t value) {
    if (declares)
      f.slots[static_cast<size_t>(slot)] =
          &f.storage[static_cast<size_t>(slot)];
    f.slots[static_cast<size_t>(slot)]->v.store(value,
                                                std::memory_order_relaxed);
  }

  /// Hands the site's evaluated operand registers to the shared MPI
  /// executor and stores its result. Out of line, like MpiOps::exec, so no
  /// landing pad (the waitall buffer's cleanup) lands in the dispatch loop.
  [[gnu::noinline]] void exec_mpi(const MpiSite& st, Frame& f, VmThread& ts) {
    const int64_t* regs = f.regs.data();
    MpiOperands o;
    o.stmt = st.stmt;
    if (st.root_reg >= 0) o.root = regs[st.root_reg];
    if (st.payload_reg >= 0) o.payload = regs[st.payload_reg];
    if (st.comm_reg >= 0) o.comm = regs[st.comm_reg];
    std::vector<int64_t> requests;
    if (st.list >= 0) {
      for (const int32_t r : bc_.reg_lists[static_cast<size_t>(st.list)])
        requests.push_back(regs[r]);
      o.requests = requests;
    }
    o.armed = st.armed;
    o.mono = st.mono;
    o.child_armed = st.child_armed;
    const auto v = mpi_.exec(o, ts);
    if (v && st.target_slot >= 0)
      store_slot(f, st.target_slot, st.declares_target, *v);
  }

  SharedState& shared_;
  const BcProgram& bc_;
  simmpi::Rank& rank_;
  MpiOps mpi_;
  int32_t default_threads_;
};

} // namespace

void run_rank_bytecode(SharedState& shared, const BcProgram& bc,
                       simmpi::Rank& rank, int32_t default_threads) {
  VmRank vm(shared, bc, rank, default_threads);
  vm.run_main();
}

} // namespace parcoach::interp
