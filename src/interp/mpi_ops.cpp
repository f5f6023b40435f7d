#include "interp/mpi_ops.h"

#include "support/trace.h"

#include <algorithm>

namespace parcoach::interp {

namespace {

using frontend::Stmt;
using frontend::StmtKind;
using ir::CollectiveKind;

/// True iff the executing thread is thread 0 of every enclosing team — the
/// process main thread, which is what MPI_THREAD_FUNNELED permits.
bool is_master_chain(const miniomp::ThreadContext* ctx) {
  for (const miniomp::ThreadContext* c = ctx; c; c = c->parent)
    if (c->thread_num != 0) return false;
  return true;
}

} // namespace

std::optional<int64_t> MpiOps::exec(const MpiOperands& o, MpiThread& t) {
  const Stmt& s = *o.stmt;
  try {
    switch (s.kind) {
      case StmtKind::MpiRecv: {
        const int32_t source =
            checked_rank(o.root, rank_.size(), "source", *shared_.sm, s.loc);
        const int32_t tag = checked_tag(o.payload, *shared_.sm, s.loc);
        return rank_.recv(source, tag);
      }
      case StmtKind::MpiWait: {
        check_thread_usage(s, t);
        const auto out = rank_.wait_outcome(o.payload);
        if (!out.ok()) request_misuse(s.loc, out.error);
        return out.value;
      }
      case StmtKind::MpiTest: {
        check_thread_usage(s, t);
        bool done = false;
        const auto out = rank_.test_outcome(o.payload, done);
        if (!out.ok()) request_misuse(s.loc, out.error);
        return done ? 1 : 0;
      }
      case StmtKind::MpiWaitall:
        check_thread_usage(s, t);
        for (const int64_t req : o.requests) {
          const auto out = rank_.wait_outcome(req);
          if (!out.ok()) request_misuse(s.loc, out.error);
        }
        return std::nullopt;
      default:
        return call(o, t);
    }
  } catch (const simmpi::CcMismatchError& e) {
    shared_.verifier->report_cc_mismatch(rank_, s.coll, s.loc, e);
  } catch (const simmpi::RankFailedError& e) {
    // Status-form delivery (ULFM `return` mode): a statement with a target
    // absorbs a peer's failure as a negative status; without one the rank
    // unwinds. The dying rank itself always unwinds — its own crash is not a
    // recoverable peer failure.
    if (e.dead_rank == rank_.rank() || s.name.empty()) throw;
    return simmpi::kMpiErrRankFailed;
  } catch (const simmpi::RevokedError&) {
    if (s.name.empty()) throw;
    return simmpi::kMpiErrRevoked;
  }
}

std::optional<int64_t> MpiOps::call(const MpiOperands& o, MpiThread& t) {
  const Stmt& s = *o.stmt;
  if (s.is_mpi_init) {
    rank_.init(s.init_level);
    return std::nullopt;
  }
  if (s.is_mpi_abort) {
    const std::string msg =
        str::cat("rank ", rank_.rank(), ": mpi_abort(", o.payload, ")");
    rank_.abort(msg);
    throw simmpi::AbortedError(msg);
  }
  const bool comm_mgmt = ir::is_comm_op(s.coll);
  // A sub-communicator resolves first: a root is checked against the size
  // of the communicator it names a rank of.
  simmpi::Rank::CommRef ref;
  if (s.mpi_comm && !comm_mgmt) ref = resolve(o.comm, t.comms);
  simmpi::Signature sig;
  sig.kind = s.coll;
  if (ir::has_root(s.coll))
    sig.root = checked_rank(o.root, ref.comm ? ref.comm->size() : rank_.size(),
                            "root", *shared_.sm, s.loc);
  if (!comm_mgmt) sig.op = s.reduce_op;

  // The span opens before the checks, so a check that aborts the rank
  // still leaves the collective it was entering in the trace; its exit
  // fires on unwind too.
  TraceSpan span(shared_.tracer, rank_.rank(),
                 trace_pack_coll(static_cast<int32_t>(s.coll),
                                 sig.op ? static_cast<int32_t>(*sig.op) + 1 : 0),
                 sig.root);

  // Planned runtime checks, in paper order: occupancy first (validates the
  // monothread assumption), then the thread level, then CC (validates
  // sequence agreement), then the collective itself. The CC agreement is
  // piggybacked: the id rides in the collective's own slot arrival
  // (Signature::cc), so the check costs no extra synchronization round; a
  // disagreement surfaces as CcMismatchError on exactly one thread, which
  // produces the report. Nonblocking collectives are checked at issue time
  // — that is where the slot is claimed.
  std::optional<rt::Verifier::MonoGuard> mono_guard;
  if (o.mono) mono_guard.emplace(*shared_.verifier, rank_, s.stmt_id, s.loc);
  check_thread_usage(s, t);
  if (comm_mgmt) return comm_op(o);

  if (s.coll == CollectiveKind::Finalize && shared_.plan)
    shared_.verifier->report_leaked_requests(
        rank_, s.loc, rank_.requests().outstanding(rank_.rank()));
  if (!s.mpi_comm) {
    // MPI_COMM_WORLD: the registry-free fast path (comm id 0).
    if (o.armed)
      sig.cc = shared_.verifier->cc_lane_id(s.coll, sig.op, sig.root, 0);
    if (ir::is_nonblocking(s.coll)) return rank_.istart(sig, o.payload);
    return rank_.execute(sig, o.payload).scalar;
  }
  if (o.armed)
    sig.cc = shared_.verifier->cc_lane_id(s.coll, sig.op, sig.root,
                                          ref.comm->comm_id());
  if (ir::is_nonblocking(s.coll)) return rank_.istart_on(ref, sig, o.payload);
  return rank_.execute_on(ref, sig, o.payload).scalar;
}

/// mpi_comm_split / dup / shrink / agree / free / revoke / set_errhandler.
/// The management ops resolve the registry directly: creation and release
/// are not hot.
std::optional<int64_t> MpiOps::comm_op(const MpiOperands& o) {
  const Stmt& s = *o.stmt;
  const int64_t parent = s.mpi_comm ? o.comm : simmpi::Rank::kCommWorld;
  if (s.coll == CollectiveKind::CommFree) {
    rank_.comm_free(parent);
    // Invalidate every thread's CommRef cache for this rank: handles are
    // never reused, so a stale hit would bypass the use-after-free check.
    comm_epoch_.fetch_add(1, std::memory_order_release);
    std::scoped_lock lk(armed_comms_mu_);
    std::erase(armed_comms_, parent);
    return std::nullopt;
  }
  // Local (unmatched) recovery ops: set_errhandler configures, revoke
  // poisons asynchronously. Neither synchronizes, so the ULFM idiom
  // `if (rank == 0) mpi_comm_revoke(c)` is legal rank-guarded. Neither bumps
  // the epoch: the handle stays valid, and shrink/agree still resolve a
  // revoked comm.
  if (s.coll == CollectiveKind::CommSetErrhandler) {
    rank_.comm_set_errhandler(parent, o.payload != 0
                                          ? simmpi::Errhandler::Return
                                          : simmpi::Errhandler::Abort);
    return std::nullopt;
  }
  if (s.coll == CollectiveKind::CommRevoke) {
    rank_.comm_revoke(parent);
    return std::nullopt;
  }
  // Split/dup/shrink/agree are collectives over the parent: the CC id
  // (scoped by the parent's comm id) rides in their agreement round.
  const int64_t cc =
      o.armed ? shared_.verifier->cc_lane_id(
                    s.coll, std::nullopt, -1,
                    s.mpi_comm ? rank_.comm_id_of(parent) : 0)
              : simmpi::kCcNone;
  if (s.coll == CollectiveKind::CommAgree) {
    // Fault-tolerant AND-reduction: completes despite failed members (and
    // on revoked communicators) — the agreed flag is the result.
    return rank_.comm_agree(parent, o.payload, cc);
  }
  // The child's comm class is the textual result variable (sema forbids comm
  // aliasing, so every collective on the child spells this name). Unarmed
  // classes get children without a CC lane — the zero-overhead path — and
  // stay out of the exit sentinel.
  int64_t handle = 0;
  if (s.coll == CollectiveKind::CommSplit)
    handle = rank_.comm_split(parent, o.payload, o.root, cc, o.child_armed);
  else if (s.coll == CollectiveKind::CommShrink)
    handle = rank_.comm_shrink(parent, cc, o.child_armed);
  else
    handle = rank_.comm_dup(parent, cc, o.child_armed);
  if (o.child_armed && handle != simmpi::CommRegistry::kNull) {
    std::scoped_lock lk(armed_comms_mu_);
    armed_comms_.push_back(handle);
  }
  return handle;
}

simmpi::Rank::CommRef MpiOps::resolve(int64_t handle, CommCache& cache) {
  CommCache::Entry& e =
      cache.entries[static_cast<uint64_t>(handle) % cache.entries.size()];
  const uint64_t epoch = comm_epoch_.load(std::memory_order_acquire);
  if (e.ref.comm && e.handle == handle && e.epoch == epoch) return e.ref;
  e.ref = rank_.comm_ref(handle); // throws UsageError on bad handles
  e.handle = handle;
  e.epoch = epoch;
  return e.ref;
}

void MpiOps::leave_main(SourceLoc loc) {
  if (!shared_.plan || !shared_.plan->cc_final_in_main) return;
  // Creation order is identical on all members, since arming is per
  // textual class.
  std::vector<int64_t> armed;
  {
    std::scoped_lock lk(armed_comms_mu_);
    armed = armed_comms_;
  }
  for (const int64_t handle : armed)
    shared_.verifier->check_cc_final_piggybacked_on(rank_, handle, loc);
  if (shared_.plan->world_cc_armed())
    shared_.verifier->check_cc_final_piggybacked(rank_, loc);
}

/// MPI calls fall under the thread-level usage rules (e.g. a non-master
/// wait under FUNNELED), checked only when checks are planned.
void MpiOps::check_thread_usage(const Stmt& s, const MpiThread& t) {
  if (!shared_.plan) return;
  shared_.verifier->check_thread_usage(rank_, t.omp->in_parallel(),
                                       is_master_chain(t.omp), s.loc);
}

/// Routes a request-discipline violation: through the verifier when checks
/// are planned (precise diagnostic + abort), as a plain runtime fault
/// otherwise (the uninstrumented behaviour).
void MpiOps::request_misuse(SourceLoc loc, const std::string& what) {
  if (shared_.plan) shared_.verifier->report_request_misuse(rank_, loc, what);
  throw EvalError(what);
}

} // namespace parcoach::interp
