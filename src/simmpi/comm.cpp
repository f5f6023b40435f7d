#include "simmpi/comm.h"

#include "support/fault.h"
#include "support/metrics.h"
#include "support/spin_wait.h"
#include "support/str.h"
#include "support/trace.h"
#include "support/wrap_int.h"

#include <algorithm>

namespace parcoach::simmpi {
namespace {

/// The tracer's collective payload word for a signature (kind + reduce op;
/// root travels separately since it doesn't fit the packed byte layout).
int64_t packed_sig(const Signature& sig) {
  return trace_pack_coll(static_cast<int32_t>(sig.kind),
                         sig.op ? static_cast<int32_t>(*sig.op) + 1 : 0);
}

} // namespace

std::string Signature::str() const {
  std::string s(ir::to_string(kind));
  if (root >= 0) s += str::cat("(root=", root, ")");
  if (op) s += str::cat("[", ir::to_string(*op), "]");
  return s;
}

std::string slot_site(std::string_view comm, size_t slot) {
  return str::cat(comm, " slot ", slot);
}

std::string BlockedInfo::describe() const {
  if (!blocked) return "not blocked";
  if (!p2p.empty()) return str::cat("blocked on ", comm, " in ", p2p);
  return str::cat(in_wait ? "blocked in MPI_Wait on " : "blocked on ",
                  slot_site(comm, slot), " in ", sig.str(),
                  mismatch ? " (signature differs from the slot's)" : "");
}

void WorldState::abort(const std::string& reason) {
  std::vector<std::function<void()>> wakers;
  {
    std::scoped_lock lk(mu);
    if (!aborted.load(std::memory_order_relaxed)) abort_reason = reason;
    aborted.store(true, std::memory_order_release);
    wakers = wakers_;
  }
  cv.notify_all();
  for (auto& w : wakers) w();
}

std::string WorldState::reason() {
  std::scoped_lock lk(mu);
  return abort_reason;
}

void WorldState::register_waker(std::function<void()> waker) {
  std::scoped_lock lk(mu);
  wakers_.push_back(std::move(waker));
}

void WorldState::init_failure(int32_t num_ranks) {
  failure_slots_ = num_ranks > 0 ? num_ranks : 0;
  failed_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<size_t>(failure_slots_));
  for (int32_t r = 0; r < failure_slots_; ++r)
    failed_[static_cast<size_t>(r)].store(false, std::memory_order_relaxed);
  std::scoped_lock lk(mu);
  death_notes_.assign(static_cast<size_t>(failure_slots_), "");
}

void WorldState::mark_failed(int32_t world_rank, const std::string& note) {
  if (world_rank < 0 || world_rank >= failure_slots_) return;
  std::vector<std::function<void()>> wakers;
  {
    std::scoped_lock lk(mu);
    if (failed_[static_cast<size_t>(world_rank)].load(
            std::memory_order_relaxed))
      return; // already dead; first death site wins
    death_notes_[static_cast<size_t>(world_rank)] = note;
    failed_[static_cast<size_t>(world_rank)].store(true,
                                                   std::memory_order_release);
    failures_.fetch_add(1, std::memory_order_acq_rel);
    wakers = wakers_;
  }
  if (tracer) tracer->emit(TraceEv::RankFail, world_rank, world_rank);
  // A failure event counts as world progress: it unblocks waiters (they
  // unwind with per-peer errors) rather than stalling them.
  progress.fetch_add(1, std::memory_order_relaxed);
  cv.notify_all();
  for (auto& w : wakers) w();
}

std::vector<int32_t> WorldState::failed_ranks() {
  std::vector<int32_t> out;
  for (int32_t r = 0; r < failure_slots_; ++r)
    if (failed_[static_cast<size_t>(r)].load(std::memory_order_acquire))
      out.push_back(r);
  return out;
}

std::string WorldState::death_note(int32_t world_rank) {
  if (world_rank < 0 || world_rank >= failure_slots_) return {};
  std::scoped_lock lk(mu);
  return death_notes_[static_cast<size_t>(world_rank)];
}

int64_t apply_reduce(ReduceOp op, int64_t a, int64_t b) noexcept {
  switch (op) {
    case ReduceOp::Sum: return wrap_add(a, b);
    case ReduceOp::Prod: return wrap_mul(a, b);
    case ReduceOp::Min: return std::min(a, b);
    case ReduceOp::Max: return std::max(a, b);
    case ReduceOp::Land: return (a != 0 && b != 0) ? 1 : 0;
    case ReduceOp::Lor: return (a != 0 || b != 0) ? 1 : 0;
    case ReduceOp::Band: return a & b;
    case ReduceOp::Bor: return a | b;
  }
  return 0;
}

// RAII publication of a thread's blocked state around a park; unregistering
// on unwind keeps the watchdog's view consistent on every exit path. The
// scope owns its record (stack frame outlives the park), so concurrent
// blocked threads of one rank each stay visible.
Comm::BlockedScope::BlockedScope(Comm& c, int32_t rank,
                                 const BlockedRecord& rec)
    : c_(c), rank_(static_cast<size_t>(rank)), rec_(rec) {
  {
    std::scoped_lock lk(c_.blocked_mu_);
    c_.blocked_[rank_].push_back(&rec_);
  }
  if (c_.slot_waits_)
    c_.slot_waits_->fetch_add(1, std::memory_order_relaxed);
  if (c_.trace_) {
    // Park/Unpark must carry identical payloads: they render as a "B"/"E"
    // duration pair in the Chrome export.
    park_c_ = packed_sig(rec_.sig) |
              (rec_.mismatch ? kTraceParkMismatch : 0) |
              (rec_.in_wait ? kTraceParkInWait : 0) |
              (rec_.p2p == BlockedRecord::P2p::Send ? kTraceParkSend : 0) |
              (rec_.p2p == BlockedRecord::P2p::Recv ? kTraceParkRecv : 0);
    park_a_ = rec_.p2p == BlockedRecord::P2p::None
                  ? static_cast<int64_t>(rec_.slot)
                  : rec_.peer;
    c_.trace_->emit(TraceEv::Park, c_.world_rank_of(rank), park_a_,
                    c_.comm_id_, park_c_);
  }
  // Forced park jitter: widen the window between publishing the blocked
  // state and actually parking, where lost-wakeup bugs would hide.
  if (c_.fault_) c_.fault_->park_jitter(c_.world_rank_of(rank));
}

Comm::BlockedScope::~BlockedScope() {
  if (c_.trace_)
    c_.trace_->emit(TraceEv::Unpark,
                    c_.world_rank_of(static_cast<int32_t>(rank_)), park_a_,
                    c_.comm_id_, park_c_);
  std::scoped_lock lk(c_.blocked_mu_);
  auto& active = c_.blocked_[rank_];
  active.erase(std::find(active.begin(), active.end(), &rec_));
}

Comm::Comm(std::string name, int32_t size, WorldState& world, bool strict,
           int32_t comm_id, std::vector<int32_t> world_ranks,
           bool cc_lane_enabled)
    : name_(std::move(name)), size_(size), world_(world), strict_(strict),
      comm_id_(comm_id), world_ranks_(std::move(world_ranks)),
      cc_enabled_(cc_lane_enabled),
      next_slot_(new std::atomic<size_t>[static_cast<size_t>(size)]),
      blocked_(static_cast<size_t>(size)) {
  for (int32_t r = 0; r < size; ++r) next_slot_[static_cast<size_t>(r)] = 0;
  trace_ = world_.tracer; // already effective()-filtered by World
  fault_ = world_.fault;  // same discipline: null unless faults are armed
  if (trace_) trace_->register_comm(comm_id_, name_);
  if (world_.metrics) {
    slot_waits_ =
        &world_.metrics->counter(str::cat("comm.", name_, ".slot_waits"));
    cc_rounds_ = &world_.metrics->counter("cc.rounds");
  }
  world_.register_waker([this] {
    wake_all_slots();
    {
      std::scoped_lock lk(mail_mu_);
    }
    mail_cv_.notify_all();
  });
}

void Comm::compute_results(Slot& s) {
  const size_t n = static_cast<size_t>(size_);
  s.out_scalar.assign(n, 0);
  s.out_vec.assign(n, {});
  const Signature& sig = s.sig;
  // Nonblocking kinds share the data semantics of their blocking counterpart.
  switch (ir::blocking_counterpart(sig.kind)) {
    case CollectiveKind::Barrier:
    case CollectiveKind::Finalize:
    case CollectiveKind::CommDup: // pure agreement round; data-free
      break;
    case CollectiveKind::CommSplit: {
      // Every member sees all (color, key) pairs in local-rank order so the
      // registry can compute identical groups on every rank: out_vec[r] =
      // [color0, key0, color1, key1, ...].
      std::vector<int64_t> pairs;
      pairs.reserve(2 * n);
      for (size_t q = 0; q < n; ++q) {
        const auto& ck = s.vec_contrib[q];
        pairs.push_back(ck.size() > 0 ? ck[0] : 0);
        pairs.push_back(ck.size() > 1 ? ck[1] : 0);
      }
      for (size_t r = 0; r < n; ++r) s.out_vec[r] = pairs;
      break;
    }
    case CollectiveKind::Bcast: {
      const int64_t v = s.contrib[static_cast<size_t>(sig.root)];
      std::fill(s.out_scalar.begin(), s.out_scalar.end(), v);
      break;
    }
    case CollectiveKind::Reduce:
    case CollectiveKind::Allreduce:
    case CollectiveKind::ReduceScatter: {
      int64_t acc = s.contrib[0];
      for (size_t r = 1; r < n; ++r) acc = apply_reduce(*sig.op, acc, s.contrib[r]);
      if (ir::blocking_counterpart(sig.kind) == CollectiveKind::Reduce) {
        // Non-root receive buffers are undefined in MPI; we return the
        // rank's own contribution (documented).
        s.out_scalar = s.contrib;
        s.out_scalar[static_cast<size_t>(sig.root)] = acc;
      } else {
        std::fill(s.out_scalar.begin(), s.out_scalar.end(), acc);
      }
      break;
    }
    case CollectiveKind::Scan: {
      int64_t acc = 0;
      for (size_t r = 0; r < n; ++r) {
        acc = r == 0 ? s.contrib[0] : apply_reduce(*sig.op, acc, s.contrib[r]);
        s.out_scalar[r] = acc;
      }
      break;
    }
    case CollectiveKind::Gather: {
      s.out_vec[static_cast<size_t>(sig.root)] = s.contrib;
      // Scalar view: checksum at root (used by the DSL bridge).
      int64_t sum = 0;
      for (int64_t v : s.contrib) sum = wrap_add(sum, v);
      s.out_scalar[static_cast<size_t>(sig.root)] = sum;
      break;
    }
    case CollectiveKind::Allgather: {
      for (size_t r = 0; r < n; ++r) s.out_vec[r] = s.contrib;
      int64_t sum = 0;
      for (int64_t v : s.contrib) sum = wrap_add(sum, v);
      std::fill(s.out_scalar.begin(), s.out_scalar.end(), sum);
      break;
    }
    case CollectiveKind::Scatter: {
      const auto& src = s.vec_contrib[static_cast<size_t>(sig.root)];
      for (size_t r = 0; r < n; ++r) {
        // Missing root vector entries default to root's scalar + r (the DSL
        // bridge's synthetic scatter payload).
        s.out_scalar[r] = r < src.size()
                              ? src[r]
                              : wrap_add(s.contrib[static_cast<size_t>(sig.root)],
                                         static_cast<int64_t>(r));
      }
      break;
    }
    case CollectiveKind::Alltoall: {
      for (size_t r = 0; r < n; ++r) {
        auto& out = s.out_vec[r];
        out.assign(n, 0);
        int64_t sum = 0;
        for (size_t q = 0; q < n; ++q) {
          const auto& src = s.vec_contrib[q];
          out[q] = r < src.size() ? src[r] : s.contrib[q];
          sum = wrap_add(sum, out[q]);
        }
        s.out_scalar[r] = sum;
      }
      break;
    }
    default:
      break; // I* kinds never reach here (mapped to counterparts above)
  }
}

Comm::Slot* Comm::slot_for(size_t idx) {
  std::scoped_lock lk(slots_mu_);
  if (idx < slot_base_)
    throw UsageError("internal: slot index below base (double completion?)");
  const size_t n = static_cast<size_t>(size_);
  while (slots_.size() <= idx - slot_base_) {
    auto s = std::make_unique<Slot>();
    s->present = std::vector<std::atomic<uint8_t>>(n);
    s->contrib.assign(n, 0);
    s->vec_contrib.assign(n, {});
    // Unarmed communicators carry no CC lane at all (no per-slot id vector,
    // no lane bookkeeping on arrival).
    if (cc_enabled_) s->cc_ids.assign(n, kCcUnchecked);
    slots_.push_back(std::move(s));
  }
  return slots_[idx - slot_base_].get();
}

void Comm::cc_lane(Slot& s, size_t idx, int32_t rank, int64_t cc) {
  if (cc != kCcNone) {
    s.cc_ids[static_cast<size_t>(rank)] = cc;
    s.cc_armed.store(true, std::memory_order_relaxed);
    if (trace_)
      trace_->emit(TraceEv::CcPublish, world_rank_of(rank),
                   static_cast<int64_t>(idx), comm_id_, cc);
  } else {
    s.cc_ids[static_cast<size_t>(rank)] = kCcUnchecked;
  }
  // The acq_rel counter orders every lane publication before the comparison
  // below: the arrival that reads size-1 sees all ids.
  const int32_t seen = s.cc_seen.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (seen != size_ || !s.cc_armed.load(std::memory_order_relaxed)) return;
  cc_checked_.fetch_add(1, std::memory_order_relaxed);
  if (cc_rounds_) cc_rounds_->fetch_add(1, std::memory_order_relaxed);
  int64_t agreed = kCcUnchecked;
  bool mismatch = false;
  for (int64_t id : s.cc_ids) {
    if (id == kCcUnchecked) continue; // unarmed arrival: not part of the vote
    if (agreed == kCcUnchecked) agreed = id;
    mismatch |= id != agreed;
  }
  if (trace_)
    trace_->emit(TraceEv::CcCompare, world_rank_of(rank),
                 static_cast<int64_t>(idx), comm_id_, mismatch ? 1 : 0);
  if (!mismatch) return;
  if (trace_)
    trace_->emit(TraceEv::CcMismatch, world_rank_of(rank),
                 static_cast<int64_t>(idx), comm_id_);
  // Disagreement: this thread is the unique reporter; the slot can never
  // complete (the ids imply at least one signature clash), so nobody blocks
  // on a result. The verifier turns this into the CC diagnostic and aborts.
  // The local->world map rides along so the report names world ranks.
  throw CcMismatchError(idx, s.cc_ids, world_ranks_);
}

bool Comm::arrive(Slot& s, size_t idx, int32_t rank, const Signature& sig,
                  int64_t scalar, const std::vector<int64_t>& vec,
                  const char* verb) {
  if (trace_)
    trace_->emit(TraceEv::SlotArrive, world_rank_of(rank),
                 static_cast<int64_t>(idx), comm_id_, packed_sig(sig));
  Signature slot_sig;
  {
    std::scoped_lock lk(s.m);
    if (!s.sig_stamped) {
      s.sig = sig;
      s.sig.cc = kCcNone; // the CC id lives in the lane, not the stamp
      s.sig_stamped = true;
    }
    slot_sig = s.sig;
  }
  // CC agreement first: divergence must be reported before the signature
  // clash can turn into a hang (the paper's check-before-collective order).
  // Unarmed communicators skip the lane entirely — no id publication, no
  // arrival counting, no compare; the planner guarantees no caller arms a
  // CC id here, and a stray one is a bug worth failing loudly on.
  if (cc_enabled_) {
    cc_lane(s, idx, rank, sig.cc);
  } else if (sig.cc != kCcNone) {
    throw UsageError(str::cat("CC id piggybacked on ", slot_site(name_, idx),
                              " but the communicator's CC lane is disabled "
                              "(unarmed comm class)"));
  }
  if (!(slot_sig == sig)) {
    // Strict mode is deliberately fail-fast: with 3+ ranks it can fire
    // before the CC lane completes (the lane needs every rank), in which
    // case the reference substrate's mismatch report wins over the CC one.
    // Both stop the run cleanly before a hang.
    if (strict_) fail_strict(idx, rank, sig, slot_sig, verb);
    return false;
  }
  const size_t r = static_cast<size_t>(rank);
  s.present[r].store(1, std::memory_order_release);
  s.contrib[r] = scalar;
  s.vec_contrib[r] = vec;
  const int32_t deposited =
      s.deposited.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (deposited == size_) {
    compute_results(s);
    s.complete.store(true, std::memory_order_release);
    completed_.fetch_add(1, std::memory_order_relaxed);
    world_.progress.fetch_add(1, std::memory_order_relaxed);
    if (trace_)
      trace_->emit(TraceEv::SlotComplete, world_rank_of(rank),
                   static_cast<int64_t>(idx), comm_id_);
    {
      std::scoped_lock lk(s.m);
    }
    s.cv.notify_all();
  }
  return true;
}

Comm::Result Comm::take_result(int32_t rank, Slot& s, size_t idx) {
  Result r;
  r.scalar = s.out_scalar[static_cast<size_t>(rank)];
  r.vec = s.out_vec[static_cast<size_t>(rank)];
  r.slot = idx;
  if (s.consumed.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
    // Retire fully consumed slots from the front to bound memory. The
    // acq_rel counter guarantees every rank copied its result out first.
    std::scoped_lock lk(slots_mu_);
    while (!slots_.empty() &&
           slots_.front()->complete.load(std::memory_order_acquire) &&
           slots_.front()->consumed.load(std::memory_order_acquire) == size_) {
      slots_.pop_front();
      ++slot_base_;
    }
  }
  return r;
}

void Comm::wait_complete(Slot& s) {
  // Most slots complete within microseconds of the last arrival, so spin
  // briefly before parking; every wake source sets an atomic first.
  spin_then_wait(s.m, s.cv, [&] {
    return s.complete.load(std::memory_order_acquire) || world_.is_aborted() ||
           revoked_.load(std::memory_order_acquire) || slot_dead(s);
  });
}

void Comm::resolve_incomplete(Slot& s) {
  // Map a wait that ended without completion onto the right error. Order
  // matters for abort-mode parity: an aborted world always unwinds with the
  // recorded reason, exactly as before recovery existed.
  if (world_.is_aborted()) throw AbortedError(world_.reason());
  if (is_revoked()) raise_revoked();
  if (const int32_t dead = dead_nondepositor(s); dead >= 0)
    raise_failure(dead);
  // Spurious resolution (e.g. a dead rank's sibling thread deposited after
  // the predicate fired): the caller parks again.
}

void Comm::wait_abort(Slot& s) {
  for (;;) {
    {
      std::unique_lock lk(s.m);
      s.cv.wait(lk, [&] {
        return world_.is_aborted() ||
               revoked_.load(std::memory_order_acquire) || slot_dead(s);
      });
    }
    // A mismatch park never completes; in a degraded world revocation or a
    // dead nondepositor resolves the hang into an error instead of waiting
    // for the watchdog.
    resolve_incomplete(s);
  }
}

int32_t Comm::dead_nondepositor(Slot& s) const noexcept {
  for (int32_t l = 0; l < size_; ++l) {
    const int32_t wr = world_rank_of(l);
    if (world_.is_failed(wr) &&
        !s.present[static_cast<size_t>(l)].load(std::memory_order_acquire))
      return wr;
  }
  return -1;
}

void Comm::raise_failure(int32_t dead_world_rank) {
  std::string note = world_.death_note(dead_world_rank);
  if (note.empty()) note = str::cat("rank ", dead_world_rank, " died");
  if (errhandler() == Errhandler::Abort) {
    // ULFM MPI_ERRORS_ARE_FATAL on this communicator: the failure is fatal
    // for the whole world, with the precise death site as the reason.
    world_.abort(note);
    throw AbortedError(note);
  }
  throw RankFailedError(note, dead_world_rank);
}

void Comm::raise_revoked() {
  const std::string msg = str::cat("communicator ", name_, " revoked");
  if (errhandler() == Errhandler::Abort) {
    world_.abort(msg);
    throw AbortedError(msg);
  }
  throw RevokedError(msg);
}

bool Comm::revoke(int32_t world_rank) {
  if (revoked_.exchange(true, std::memory_order_acq_rel))
    return false; // idempotent: later revocations are no-ops
  if (trace_) trace_->emit(TraceEv::CommRevoke, world_rank, comm_id_);
  // Revocation is progress: parked members unwind with RevokedError rather
  // than stalling toward the watchdog.
  world_.progress.fetch_add(1, std::memory_order_relaxed);
  wake_all_slots();
  {
    std::scoped_lock lk(mail_mu_);
  }
  mail_cv_.notify_all();
  return true;
}

void Comm::recovery_arrival(int32_t rank, const Signature& sig) {
  throw_if_aborted();
  throw_if_self_failed(rank);
  if (fault_) fault_arrival(rank, sig);
}

void Comm::wake_all_slots() {
  std::scoped_lock lk(slots_mu_);
  for (auto& s : slots_) {
    // Empty critical section: a waiter between its predicate check and the
    // park holds the mutex, so the notify below cannot be lost.
    {
      std::scoped_lock slk(s->m);
    }
    s->cv.notify_all();
  }
}

void Comm::fault_arrival(int32_t rank, const Signature& sig) {
  const int32_t wr = world_rank_of(rank);
  fault_->maybe_delay(wr);
  if (fault_->should_crash(wr)) {
    const std::string msg =
        str::cat("rank ", wr, " died in ", sig.str(), " @", name_);
    if (errhandler() == Errhandler::Abort) {
      // Fail-stop (default): abort the world with the precise site so every
      // peer parked in a slot/wait/creation-event unwinds with this exact
      // diagnostic instead of a generic watchdog hang.
      world_.abort(msg);
      throw AbortedError(msg);
    }
    // ULFM return mode: the rank dies quietly — peers learn of it at their
    // next arrival (or park) on any communicator containing it, each
    // unwinding with a per-peer RankFailedError naming this death site.
    world_.mark_failed(wr, msg);
    throw RankFailedError(msg, wr);
  }
}

void Comm::fail_strict(size_t idx, int32_t rank, const Signature& sig,
                       const Signature& slot_sig, const char* verb) {
  const std::string msg =
      str::cat("collective mismatch on ", slot_site(name_, idx), ": rank ",
               world_rank_of(rank), " ", verb, " ", sig.str(), " but slot is ",
               slot_sig.str());
  world_.abort(msg);
  throw MismatchError(msg);
}

Comm::Result Comm::execute(int32_t rank, const Signature& sig, int64_t scalar,
                           const std::vector<int64_t>& vec) {
  throw_if_aborted();
  throw_if_self_failed(rank);
  // ULFM model choice: on a return-mode communicator MPI_Finalize completes
  // *locally* — the standard requires finalize to succeed despite process
  // failures, and a degraded world could never fill a world-sized slot.
  // Abort-mode (default) keeps the synchronizing finalize, and with it the
  // "rank 0 finalizes while rank 1 broadcasts" mismatch detection.
  if (sig.kind == CollectiveKind::Finalize &&
      errhandler() == Errhandler::Return)
    return {};
  // The crash fires before the slot is claimed, so a dead rank leaves no
  // half-deposited arrival behind.
  if (fault_) fault_arrival(rank, sig);
  if (is_revoked()) raise_revoked();

  const size_t idx =
      next_slot_[static_cast<size_t>(rank)].fetch_add(1, std::memory_order_relaxed);
  if (trace_)
    trace_->emit(TraceEv::SlotClaim, world_rank_of(rank),
                 static_cast<int64_t>(idx), comm_id_);
  Slot* s = slot_for(idx);
  if (!arrive(*s, idx, rank, sig, scalar, vec, "called")) {
    // Signature mismatch: real MPI would hang or corrupt. Default: block
    // until the watchdog or a verifier aborts the world.
    BlockedRecord rec;
    rec.blocked = true;
    rec.mismatch = true;
    rec.slot = idx;
    rec.sig = sig;
    BlockedScope scope(*this, rank, rec);
    wait_abort(*s); // always throws
  }
  if (!s->complete.load(std::memory_order_acquire)) {
    BlockedRecord rec;
    rec.blocked = true;
    rec.slot = idx;
    rec.sig = sig;
    BlockedScope scope(*this, rank, rec);
    for (;;) {
      wait_complete(*s);
      if (s->complete.load(std::memory_order_acquire)) break;
      resolve_incomplete(*s); // throws except on spurious resolution
    }
  }
  return take_result(rank, *s, idx);
}

size_t Comm::post(int32_t rank, const Signature& sig, int64_t scalar,
                  const std::vector<int64_t>& vec, bool& mismatch) {
  throw_if_aborted();
  throw_if_self_failed(rank);
  // Finalize-kind arrivals (the exit sentinel) are local on return-mode
  // communicators, mirroring execute() above.
  if (sig.kind == CollectiveKind::Finalize &&
      errhandler() == Errhandler::Return) {
    mismatch = false;
    return 0;
  }
  if (fault_) fault_arrival(rank, sig);
  if (is_revoked()) raise_revoked();

  mismatch = false;
  const size_t idx =
      next_slot_[static_cast<size_t>(rank)].fetch_add(1, std::memory_order_relaxed);
  if (trace_)
    trace_->emit(TraceEv::SlotClaim, world_rank_of(rank),
                 static_cast<int64_t>(idx), comm_id_);
  Slot* s = slot_for(idx);
  // Nonblocking issue never blocks: on a signature clash the contribution is
  // withheld, the slot stays incomplete, and the hang surfaces at wait time
  // (strict mode and a failed CC lane throw out of arrive instead).
  if (!arrive(*s, idx, rank, sig, scalar, vec, "issued")) mismatch = true;
  return idx;
}

Comm::Result Comm::finish(int32_t rank, size_t slot, const Signature& sig,
                          bool mismatched) {
  throw_if_aborted();
  throw_if_self_failed(rank);
  // An outstanding request on a revoked communicator completes with the
  // revoked error even if the slot's data is ready — the ULFM contract.
  if (is_revoked()) raise_revoked();

  if (mismatched) {
    // The deferred hang of a mismatched issue: real MPI would never complete
    // this request. Publish the wait state and sleep until the world aborts.
    BlockedRecord rec;
    rec.blocked = true;
    rec.mismatch = true;
    rec.in_wait = true;
    rec.slot = slot;
    rec.sig = sig;
    BlockedScope scope(*this, rank, rec);
    Slot* s = slot_for(slot);
    wait_abort(*s); // always throws
  }

  Slot* s = slot_for(slot);
  if (!s->complete.load(std::memory_order_acquire)) {
    BlockedRecord rec;
    rec.blocked = true;
    rec.in_wait = true;
    rec.slot = slot;
    rec.sig = sig;
    BlockedScope scope(*this, rank, rec);
    for (;;) {
      wait_complete(*s);
      if (s->complete.load(std::memory_order_acquire)) break;
      resolve_incomplete(*s); // throws except on spurious resolution
    }
  }
  return take_result(rank, *s, slot);
}

bool Comm::try_finish(int32_t rank, size_t slot, bool mismatched, Result& out) {
  throw_if_aborted();
  throw_if_self_failed(rank);
  if (is_revoked()) raise_revoked();
  Slot* s = slot_for(slot);
  if (s->complete.load(std::memory_order_acquire)) {
    if (mismatched) return false; // never completes
    out = take_result(rank, *s, slot);
    return true;
  }
  if (mismatched) return false;
  // A test on a permanently dead slot errors instead of spinning forever.
  if (world_.any_failed()) {
    if (const int32_t dead = dead_nondepositor(*s); dead >= 0)
      raise_failure(dead);
  }
  return false;
}

void Comm::send(int32_t src, int32_t dst, int32_t tag, int64_t value,
                bool rendezvous) {
  if (fault_) fault_->maybe_delay(world_rank_of(src)); // delayed delivery
  throw_if_self_failed(src);
  std::unique_lock lk(mail_mu_);
  throw_if_aborted();
  if (revoked_.load(std::memory_order_acquire)) {
    lk.unlock(); // raise_revoked may run wakers that take mail_mu_
    raise_revoked();
  }
  if (dst < 0 || dst >= size_)
    throw UsageError(str::cat("send to invalid rank ", dst));
  Mailbox& box = mail_[MailKey{src, dst, tag}];
  box.messages.push_back(value);
  world_.progress.fetch_add(1, std::memory_order_relaxed);
  mail_cv_.notify_all();
  if (!rendezvous) return; // eager sends to a dead peer buffer successfully
  // Rendezvous: wait until a receiver consumed this message (box drained to
  // before-our-message level is hard to track exactly; we wait until our
  // message is gone, which for FIFO order means all earlier ones went too).
  BlockedRecord rec;
  rec.blocked = true;
  rec.p2p = BlockedRecord::P2p::Send;
  rec.peer = dst;
  rec.tag = tag;
  BlockedScope scope(*this, src, rec);
  const size_t target = box.messages.size() - 1; // entries that must drain
  const int32_t dst_wr = world_rank_of(dst);
  mail_cv_.wait(lk, [&] {
    return world_.is_aborted() ||
           mail_[MailKey{src, dst, tag}].messages.size() <= target ||
           revoked_.load(std::memory_order_acquire) ||
           world_.is_failed(dst_wr);
  });
  if (mail_[MailKey{src, dst, tag}].messages.size() <= target) return;
  if (world_.is_aborted()) throw AbortedError(world_.reason());
  lk.unlock(); // the raise paths may abort the world (wakers take mail_mu_)
  if (is_revoked()) raise_revoked();
  raise_failure(dst_wr); // a dead receiver can never match this rendezvous
}

int64_t Comm::recv(int32_t dst, int32_t src, int32_t tag) {
  if (fault_) fault_->maybe_delay(world_rank_of(dst)); // delayed pickup
  throw_if_self_failed(dst);
  std::unique_lock lk(mail_mu_);
  throw_if_aborted();
  if (revoked_.load(std::memory_order_acquire)) {
    lk.unlock();
    raise_revoked();
  }
  if (src < 0 || src >= size_)
    throw UsageError(str::cat("recv from invalid rank ", src));
  Mailbox& box = mail_[MailKey{src, dst, tag}];
  if (box.messages.empty()) {
    BlockedRecord rec;
    rec.blocked = true;
    rec.p2p = BlockedRecord::P2p::Recv;
    rec.peer = src;
    rec.tag = tag;
    BlockedScope scope(*this, dst, rec);
    const int32_t src_wr = world_rank_of(src);
    mail_cv_.wait(lk, [&] {
      return world_.is_aborted() || !box.messages.empty() ||
             revoked_.load(std::memory_order_acquire) ||
             world_.is_failed(src_wr);
    });
    if (box.messages.empty()) {
      if (world_.is_aborted()) throw AbortedError(world_.reason());
      lk.unlock(); // the raise paths may abort the world (wakers take mail_mu_)
      if (is_revoked()) raise_revoked();
      raise_failure(src_wr); // a dead sender will never post this message
    }
  }
  const int64_t v = box.messages.front();
  box.messages.pop_front();
  world_.progress.fetch_add(1, std::memory_order_relaxed);
  mail_cv_.notify_all();
  return v;
}

std::vector<BlockedInfo> Comm::blocked_snapshot() {
  // Copy the PODs under the lock, then materialize the report strings
  // outside any contention with the blocking paths. One line per rank: the
  // most recently parked thread speaks for the rank.
  std::vector<BlockedRecord> recs(blocked_.size());
  {
    std::scoped_lock lk(blocked_mu_);
    for (size_t i = 0; i < blocked_.size(); ++i)
      if (!blocked_[i].empty()) recs[i] = *blocked_[i].back();
  }
  std::vector<BlockedInfo> out(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    const BlockedRecord& r = recs[i];
    BlockedInfo& b = out[i];
    b.blocked = r.blocked;
    b.mismatch = r.mismatch;
    b.in_wait = r.in_wait;
    b.slot = r.slot;
    b.rank = world_rank_of(static_cast<int32_t>(i));
    b.sig = r.sig;
    if (!r.blocked) continue;
    b.comm = name_;
    if (r.p2p == BlockedRecord::P2p::Send)
      b.p2p = str::cat("send to ", r.peer, " tag ", r.tag, " (rendezvous)");
    else if (r.p2p == BlockedRecord::P2p::Recv)
      b.p2p = str::cat("recv from ", r.peer, " tag ", r.tag);
  }
  return out;
}

bool Comm::any_blocked() {
  std::scoped_lock lk(blocked_mu_);
  for (const auto& active : blocked_) {
    if (!active.empty()) return true;
  }
  return false;
}

} // namespace parcoach::simmpi
