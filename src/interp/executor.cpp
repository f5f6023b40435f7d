#include "interp/executor.h"

#include "interp/bytecode.h"
#include "interp/exec_internal.h"
#include "interp/mpi_ops.h"
#include "miniomp/team.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <unordered_map>

namespace parcoach::interp {

namespace {

using frontend::Stmt;
using frontend::StmtKind;
using ir::Expr;

/// Lexical scope chain. Scopes are created per block / function call / team
/// thread; lookups walk outward. Cells live in a deque for address
/// stability; inner scopes of parallel bodies are thread-private while outer
/// scopes are shared by the team (OpenMP shared-by-default).
class Env {
public:
  explicit Env(Env* parent = nullptr) : parent_(parent) {}

  Cell* declare(const std::string& name) {
    cells_.emplace_back();
    vars_[name] = &cells_.back();
    return &cells_.back();
  }

  Cell* lookup(const std::string& name) {
    for (Env* e = this; e; e = e->parent_) {
      auto it = e->vars_.find(name);
      if (it != e->vars_.end()) return it->second;
    }
    return nullptr;
  }

private:
  Env* parent_;
  std::unordered_map<std::string, Cell*> vars_;
  std::deque<Cell> cells_;
};

/// Per-thread execution state within one rank.
struct ThreadState : MpiThread {
  /// Worksharing-construct counter; identical across team threads in
  /// conforming programs, used as the construct-instance id.
  uint64_t construct_counter = 0;
  /// Batched step budget (burns locally, claims from the shared pool in
  /// kStepBatch chunks).
  StepCounter steps;

  ThreadState(SharedState& shared, simmpi::Rank& rank)
      : steps(shared, rank) {}
};

class RankExec {
public:
  RankExec(SharedState& shared, simmpi::Rank& rank)
      : shared_(shared), rank_(rank), mpi_(shared, rank) {}

  void run_main() {
    const frontend::FuncDecl* main_fn = shared_.program->find("main");
    if (!main_fn) throw EvalError("program has no main()");
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
    ThreadState ts(shared_, rank_);
    ts.omp = &root;
    call_function(*main_fn, {}, ts);
    mpi_.leave_main(main_fn->loc);
  }

private:
  // ---- Expressions ----------------------------------------------------------
  int64_t eval(const Expr& e, Env& env, ThreadState& ts) {
    ts.steps.bump();
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return e.int_val;
      case Expr::Kind::VarRef: {
        Cell* c = env.lookup(e.var);
        if (!c) throw EvalError(undefined_var_msg(*shared_.sm, e.var, e.loc));
        return c->v.load(std::memory_order_relaxed);
      }
      case Expr::Kind::Unary: {
        const int64_t v = eval(*e.kids[0], env, ts);
        return e.un_op == ir::UnaryOp::Neg ? wrap_neg(v) : (v == 0 ? 1 : 0);
      }
      case Expr::Kind::Binary: {
        // Short-circuit for && / ||.
        if (e.bin_op == ir::BinaryOp::And)
          return eval(*e.kids[0], env, ts) != 0 && eval(*e.kids[1], env, ts) != 0;
        if (e.bin_op == ir::BinaryOp::Or)
          return eval(*e.kids[0], env, ts) != 0 || eval(*e.kids[1], env, ts) != 0;
        const int64_t a = eval(*e.kids[0], env, ts);
        const int64_t b = eval(*e.kids[1], env, ts);
        switch (e.bin_op) {
          case ir::BinaryOp::Add: return wrap_add(a, b);
          case ir::BinaryOp::Sub: return wrap_sub(a, b);
          case ir::BinaryOp::Mul: return wrap_mul(a, b);
          case ir::BinaryOp::Div: return div_or_fault(a, b);
          case ir::BinaryOp::Mod: return mod_or_fault(a, b);
          case ir::BinaryOp::Lt: return a < b;
          case ir::BinaryOp::Le: return a <= b;
          case ir::BinaryOp::Gt: return a > b;
          case ir::BinaryOp::Ge: return a >= b;
          case ir::BinaryOp::Eq: return a == b;
          case ir::BinaryOp::Ne: return a != b;
          default: return 0;
        }
      }
      case Expr::Kind::BuiltinCall:
        switch (e.builtin) {
          case ir::Builtin::Rank: return rank_.rank();
          case ir::Builtin::Size: return rank_.size();
          case ir::Builtin::OmpThreadNum: return ts.omp->thread_num;
          case ir::Builtin::OmpNumThreads: return ts.omp->team_size();
        }
        return 0;
    }
    return 0;
  }

  // ---- Statements -----------------------------------------------------------
  /// Returns the function's return value when a `return` executed.
  std::optional<int64_t> exec_block(const std::vector<frontend::StmtPtr>& body,
                                    Env& env, ThreadState& ts) {
    Env scope(&env);
    for (const auto& s : body) {
      if (auto ret = exec_stmt(*s, scope, ts)) return ret;
    }
    return std::nullopt;
  }

  std::optional<int64_t> exec_stmt(const Stmt& s, Env& env, ThreadState& ts) {
    ts.steps.bump();
    switch (s.kind) {
      case StmtKind::VarDecl: {
        Cell* c = env.declare(s.name);
        c->v.store(eval(*s.value, env, ts), std::memory_order_relaxed);
        return std::nullopt;
      }
      case StmtKind::Assign: {
        // Env::lookup legitimately returns null for sema escapes
        // (programmatically built ASTs): fault with the source location
        // instead of a bare name.
        Cell* c = env.lookup(s.name);
        if (!c) throw EvalError(undefined_var_msg(*shared_.sm, s.name, s.loc));
        c->v.store(eval(*s.value, env, ts), std::memory_order_relaxed);
        return std::nullopt;
      }
      case StmtKind::If:
        if (eval(*s.value, env, ts) != 0) return exec_block(s.body, env, ts);
        return exec_block(s.else_body, env, ts);
      case StmtKind::While:
        while (eval(*s.value, env, ts) != 0) {
          if (auto r = exec_block(s.body, env, ts)) return r;
        }
        return std::nullopt;
      case StmtKind::For: {
        Env scope(&env);
        Cell* iv = scope.declare(s.name);
        const int64_t hi = eval(*s.hi, env, ts);
        for (int64_t i = eval(*s.lo, env, ts); i < hi; ++i) {
          iv->v.store(i, std::memory_order_relaxed);
          if (auto r = exec_block(s.body, scope, ts)) return r;
        }
        return std::nullopt;
      }
      case StmtKind::Return:
        return s.value ? eval(*s.value, env, ts) : 0;
      case StmtKind::Print: {
        std::string line = str::cat("rank ", rank_.rank(), ":");
        for (const auto& a : s.args) line += str::cat(" ", eval(*a, env, ts));
        std::scoped_lock lk(shared_.output_mu);
        shared_.output.push_back(std::move(line));
        return std::nullopt;
      }
      case StmtKind::CallStmt: {
        const frontend::FuncDecl* callee = shared_.program->find(s.callee);
        if (!callee)
          throw EvalError(undefined_fn_msg(*shared_.sm, s.callee, s.loc));
        std::vector<int64_t> args;
        args.reserve(s.args.size());
        for (const auto& a : s.args) args.push_back(eval(*a, env, ts));
        const int64_t ret = call_function(*callee, args, ts);
        store_target(s, ret, env, ts);
        return std::nullopt;
      }
      case StmtKind::MpiSend: {
        const int64_t value = eval(*s.mpi_value, env, ts);
        const int32_t dest = static_cast<int32_t>(eval(*s.mpi_root, env, ts));
        const int32_t tag = static_cast<int32_t>(eval(*s.hi, env, ts));
        rank_.send(value, dest, tag);
        return std::nullopt;
      }
      case StmtKind::MpiCall:
      case StmtKind::MpiRecv:
      case StmtKind::MpiWait:
      case StmtKind::MpiTest:
      case StmtKind::MpiWaitall:
        exec_mpi(s, env, ts);
        return std::nullopt;
      case StmtKind::OmpParallel:
        exec_parallel(s, env, ts);
        return std::nullopt;
      case StmtKind::OmpSingle: {
        const uint64_t cid = ts.construct_counter++;
        miniomp::Runtime::single(*ts.omp, cid, s.nowait, [&] {
          run_region_body(s, env, ts);
        });
        return std::nullopt;
      }
      case StmtKind::OmpMaster:
        miniomp::Runtime::master(*ts.omp, [&] {
          run_region_body(s, env, ts);
        });
        return std::nullopt;
      case StmtKind::OmpCritical:
        miniomp::Runtime::critical(*ts.omp, [&] {
          // Critical does not change the master chain (all threads pass).
          Env scope(&env);
          exec_block_no_return(s.body, scope, ts);
        });
        return std::nullopt;
      case StmtKind::OmpBarrier:
        miniomp::Runtime::barrier(*ts.omp);
        return std::nullopt;
      case StmtKind::OmpSections: {
        const uint64_t cid = ts.construct_counter++;
        std::vector<std::function<void()>> bodies;
        bodies.reserve(s.body.size());
        for (const auto& sec : s.body) {
          const Stmt* sec_ptr = sec.get();
          bodies.push_back([this, sec_ptr, &env, &ts] {
            run_region_body(*sec_ptr, env, ts);
          });
        }
        miniomp::Runtime::sections(*ts.omp, cid, s.nowait, bodies);
        return std::nullopt;
      }
      case StmtKind::OmpSection:
        // Only reachable through OmpSections.
        return std::nullopt;
      case StmtKind::OmpFor: {
        ts.construct_counter++;
        const int64_t lo = eval(*s.lo, env, ts);
        const int64_t hi = eval(*s.hi, env, ts);
        miniomp::Runtime::ws_for(*ts.omp, s.nowait, lo, hi, [&](int64_t i) {
          Env scope(&env);
          Cell* iv = scope.declare(s.name);
          iv->v.store(i, std::memory_order_relaxed);
          exec_block_no_return(s.body, scope, ts);
        });
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// Region bodies cannot contain `return` (sema guarantee); guard anyway.
  void exec_block_no_return(const std::vector<frontend::StmtPtr>& body, Env& env,
                            ThreadState& ts) {
    if (exec_block(body, env, ts))
      throw EvalError("return escaped an OpenMP structured block");
  }

  /// Executes a single/master/section body with the optional RegionGuard for
  /// watched regions (set Scc).
  void run_region_body(const Stmt& s, Env& env, ThreadState& ts) {
    if (shared_.plan && shared_.plan->watched_regions.count(s.region_id)) {
      rt::Verifier::RegionGuard guard(*shared_.verifier, rank_, s.region_id,
                                      s.loc);
      Env scope(&env);
      exec_block_no_return(s.body, scope, ts);
    } else {
      Env scope(&env);
      exec_block_no_return(s.body, scope, ts);
    }
  }

  void exec_parallel(const Stmt& s, Env& env, ThreadState& ts) {
    int32_t n = default_threads_;
    if (s.num_threads) {
      n = static_cast<int32_t>(eval(*s.num_threads, env, ts));
      if (n < 1) n = 1;
    }
    const bool if_clause = !s.if_clause || eval(*s.if_clause, env, ts) != 0;
    miniomp::Runtime::parallel(
        *ts.omp, n, if_clause, [&](miniomp::ThreadContext& child) {
          ThreadState child_ts(shared_, rank_);
          child_ts.omp = &child;
          Env scope(&env); // thread-private inner scope, shared outer scopes
          exec_block_no_return(s.body, scope, child_ts);
        });
  }

  void store_target(const Stmt& s, int64_t value, Env& env, ThreadState& ts) {
    (void)ts;
    if (s.name.empty()) return;
    Cell* c = s.declares_target ? env.declare(s.name) : env.lookup(s.name);
    if (!c) throw EvalError(undefined_var_msg(*shared_.sm, s.name, s.loc));
    c->v.store(value, std::memory_order_relaxed);
  }

  /// Evaluates the statement's operands in its fixed order (the order the
  /// bytecode compiler emits operand code), then hands them to the shared
  /// MPI executor and stores its result.
  void exec_mpi(const Stmt& s, Env& env, ThreadState& ts) {
    MpiOperands o;
    o.stmt = &s;
    std::vector<int64_t> requests;
    const auto opt = [&](const ir::ExprPtr& e, int64_t& out) {
      if (e) out = eval(*e, env, ts);
    };
    switch (s.kind) {
      case StmtKind::MpiRecv:
        o.root = eval(*s.mpi_root, env, ts); // source
        o.payload = eval(*s.hi, env, ts);    // tag
        break;
      case StmtKind::MpiWait:
      case StmtKind::MpiTest:
        o.payload = eval(*s.mpi_value, env, ts); // request
        break;
      case StmtKind::MpiWaitall:
        requests.reserve(s.args.size());
        for (const auto& a : s.args) requests.push_back(eval(*a, env, ts));
        o.requests = requests;
        break;
      default:
        if (s.is_mpi_init) break;
        if (s.is_mpi_abort) {
          o.payload = eval(*s.mpi_value, env, ts); // error code
          break;
        }
        if (shared_.plan) {
          o.armed = shared_.plan->cc_stmts.count(s.stmt_id) > 0;
          o.mono = shared_.plan->mono_stmts.count(s.stmt_id) > 0;
        }
        if (ir::is_comm_op(s.coll)) {
          // Parent comm, then color and key (split) or the scalar operand
          // (agree flag, errhandler mode).
          opt(s.mpi_comm, o.comm);
          opt(s.mpi_value, o.payload);
          opt(s.mpi_root, o.root);
          o.child_armed =
              shared_.plan && shared_.plan->cc_classes.count(s.name) > 0;
        } else {
          opt(s.mpi_root, o.root);
          opt(s.mpi_value, o.payload);
          opt(s.mpi_comm, o.comm);
        }
        break;
    }
    if (const auto v = mpi_.exec(o, ts)) store_target(s, *v, env, ts);
  }

  int64_t call_function(const frontend::FuncDecl& fn,
                        const std::vector<int64_t>& args, ThreadState& ts) {
    Env env; // fresh root scope per call (no globals in MiniHPC)
    for (size_t i = 0; i < fn.params.size(); ++i) {
      Cell* c = env.declare(fn.params[i]);
      c->v.store(i < args.size() ? args[i] : 0, std::memory_order_relaxed);
    }
    const auto ret = exec_block(fn.body, env, ts);
    return ret.value_or(0);
  }

public:
  int32_t default_threads_ = 2;

private:
  SharedState& shared_;
  simmpi::Rank& rank_;
  MpiOps mpi_;
};

} // namespace

Executor::Executor(const frontend::Program& program, const SourceManager& sm,
                   const core::InstrumentationPlan* plan)
    : program_(program), sm_(sm), plan_(plan) {}

ExecResult Executor::run(const ExecOptions& opts) {
  ExecResult result;
  simmpi::World::Options wopts = opts.mpi;
  wopts.num_ranks = opts.num_ranks;
  // World's CC lane exists only when the plan arms the world comm class: an
  // unarmed (or uninstrumented) run's world collectives skip the lane
  // bookkeeping entirely, so the clean-comm path matches the uninstrumented
  // baseline instruction-for-instruction.
  wopts.world_cc_lane = plan_ && plan_->world_cc_armed();
  wopts.tracer = opts.tracer;
  wopts.metrics = opts.metrics;
  simmpi::World world(wopts);
  rt::Verifier verifier(sm_, opts.verify);

  SharedState shared;
  shared.program = &program_;
  shared.sm = &sm_;
  shared.plan = plan_;
  shared.verifier = &verifier;
  shared.max_steps = opts.max_steps;
  shared.tracer = Tracer::effective(opts.tracer);
  shared.fault = FaultInjector::effective(opts.mpi.fault);
  if (opts.metrics) {
    shared.steps_retired_metric =
        &opts.metrics->counter("vm.instructions_retired");
    shared.batch_claims_metric = &opts.metrics->counter("steps.batch_claims");
  }

  if (opts.engine == Engine::Bytecode) {
    // Compile once per run: the bytecode bakes in the plan's arming
    // decisions. The optimization passes (fusion / regalloc) rewrite the
    // baseline encoding in place; opts.passes can disable either.
    BcProgram bc = interp::compile(program_, sm_, plan_);
    run_passes(bc, opts.passes);
    result.mpi = world.run([&](simmpi::Rank& rank) {
      try {
        run_rank_bytecode(shared, bc, rank, opts.num_threads);
      } catch (const EvalError& e) {
        rank.abort(str::cat("rank ", rank.rank(), ": ", e.what()));
        throw;
      }
    });
    result.mpi.bytecode_ops = shared.steps_executed.load();
  } else {
    result.mpi = world.run([&](simmpi::Rank& rank) {
      RankExec exec(shared, rank);
      exec.default_threads_ = opts.num_threads;
      try {
        exec.run_main();
      } catch (const EvalError& e) {
        rank.abort(str::cat("rank ", rank.rank(), ": ", e.what()));
        throw;
      }
    });
  }
  result.mpi.engine = to_string(opts.engine);
  result.steps_executed = shared.steps_executed.load();

  result.rt_diags = verifier.diagnostics();
  if (plan_) {
    // Selective-arming census: make the skipped work visible next to the
    // run's slot counters.
    result.mpi.cc_sites_armed = plan_->cc_stmts.size();
    result.mpi.cc_classes_armed = plan_->cc_classes.size();
    result.mpi.cc_classes_total = plan_->total_cc_classes;
    result.mpi.total_collective_sites = plan_->total_collective_sites;
  }
  {
    std::scoped_lock lk(shared.output_mu);
    result.output = std::move(shared.output);
  }
  std::sort(result.output.begin(), result.output.end());
  result.clean = result.mpi.ok && verifier.error_count() == 0;
  return result;
}

} // namespace parcoach::interp
