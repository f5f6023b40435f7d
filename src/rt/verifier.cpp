#include "rt/verifier.h"

#include "support/str.h"

#include <cassert>
#include <thread>

namespace parcoach::rt {

namespace {

/// CC wire encoding, bit-packed into int64:
///
///   id = comm_id << 47  |  (kind+1) << 41  |  (op+1) << 33  |  (root + 2 + 2^31)
///
/// The FINAL sentinel is negative and never collides with packed ids (they
/// are strictly positive). The root field is biased by 2^31 so ANY evaluated
/// int32 root — including garbage negative roots from buggy programs — packs
/// losslessly into its 33-bit field instead of silently carrying into the op
/// field (the old decimal packing overflowed for root >= 9998). Field 0
/// means "no arguments encoded" (type-only mode).
///
/// The comm-id field carries the registry identity of the communicator the
/// collective runs on (0 = MPI_COMM_WORLD, which keeps world-only ids — and
/// therefore every world-only diagnostic wording — bit-identical). Without
/// it, a communicator-free agreement (the paper's allgather before each
/// collective) would let two identical collectives issued on *different*
/// communicators spuriously agree; with it, the agreement is scoped per
/// communicator. The field is always encoded, even in type-only mode: the
/// paper skips *argument* checking, but "which communicator" is part of the
/// collective's identity, not an argument.
constexpr int64_t kFinalId = -1;
constexpr int kOpShift = 33;
constexpr int kKindShift = 41;
constexpr int kCommShift = 47;
constexpr int64_t kRootBias = int64_t{1} << 31;
/// Registry comm ids must fit the 15 bits above the kind field (bit 62 stays
/// clear so ids remain strictly positive).
constexpr int64_t kMaxCommId = (int64_t{1} << (62 - kCommShift)) - 1;

// Invariants: kind and op+1 must fit their fields; every int32 root must fit
// below the op field once biased. The registry enforces the comm-id cap at
// creation time (UsageError, not assert), so no id that reaches cc_lane_id
// can escape its field even in NDEBUG builds.
static_assert(simmpi::CommRegistry::kMaxCommId == kMaxCommId,
              "registry comm-id cap out of sync with the CC field width");
static_assert(ir::kNumCollectiveKinds + 1 < (1 << (kCommShift - kKindShift)),
              "collective kind overflows its CC field");
static_assert(kRootBias * 2 + 2 < (int64_t{1} << kOpShift),
              "biased root overflows its CC field");

std::string cc_name(int64_t id) {
  if (id == kFinalId) return "<left main>";
  if (id == simmpi::kCcUnchecked) return "<unchecked>";
  const auto kind = static_cast<ir::CollectiveKind>(
      ((id >> kKindShift) & ((1 << (kCommShift - kKindShift)) - 1)) - 1);
  std::string name(ir::to_string(kind));
  const int64_t op = (id >> kOpShift) & ((1 << (kKindShift - kOpShift)) - 1);
  const int64_t root_field = id & ((int64_t{1} << kOpShift) - 1);
  if (op > 0)
    name += str::cat("[", ir::to_string(static_cast<ir::ReduceOp>(op - 1)), "]");
  if (root_field > 0) {
    const int64_t root = root_field - 2 - kRootBias;
    if (root >= 0) name += str::cat("(root=", root, ")");
  }
  // Non-world communicator: name the comm identity so a per-comm divergence
  // report reads "MPI_Allreduce[sum]@comm#2". World ids stay unadorned (and
  // bit-identical to the pre-comm encoding).
  const int64_t comm = id >> kCommShift;
  if (comm > 0) name += str::cat("@comm#", comm);
  return name;
}

/// Shared per-rank mismatch-detail builder ("rank 0=MPI_Bcast, rank
/// 1=MPI_Reduce"), used by every CC report. `world_ranks` maps each index to
/// its world rank (empty = identity): a sub-communicator's CC ids are indexed
/// by comm-local rank, and reports must speak world ranks like every other
/// diagnostic in the system.
std::string per_rank_detail(const std::vector<int64_t>& ids,
                            const std::vector<int32_t>& world_ranks = {}) {
  std::string detail;
  for (size_t r = 0; r < ids.size(); ++r) {
    const int32_t rank =
        world_ranks.empty() ? static_cast<int32_t>(r) : world_ranks[r];
    detail += str::cat(r ? ", " : "", "rank ", rank, "=", cc_name(ids[r]));
  }
  return detail;
}

} // namespace

Verifier::Verifier(const SourceManager& sm, VerifierOptions opts)
    : sm_(sm), opts_(opts) {}

void Verifier::record(Severity sev, DiagKind kind, SourceLoc loc, std::string msg,
                      std::vector<std::pair<SourceLoc, std::string>> notes) {
  std::scoped_lock lk(mu_);
  Diagnostic d;
  d.severity = sev;
  d.kind = kind;
  d.loc = loc;
  d.message = std::move(msg);
  d.notes = std::move(notes);
  diags_.push_back(std::move(d));
}

// ---- CC -----------------------------------------------------------------------

int64_t Verifier::cc_lane_id(ir::CollectiveKind kind,
                             std::optional<ir::ReduceOp> op, int32_t root,
                             int32_t comm_id) const {
  assert(comm_id >= 0 && comm_id <= kMaxCommId &&
         "registry comm id escaped its CC field");
  const int64_t c = static_cast<int64_t>(comm_id) << kCommShift;
  const int64_t k = static_cast<int64_t>(kind) + 1;
  if (!opts_.check_arguments) return c | (k << kKindShift);
  const int64_t o = op ? static_cast<int64_t>(*op) + 1 : 0;
  const int64_t root_field = static_cast<int64_t>(root) + 2 + kRootBias;
  assert(root_field > 0 && root_field < (int64_t{1} << kOpShift) &&
         "biased root escaped its CC field");
  assert(o >= 0 && o < (1 << (kKindShift - kOpShift)) &&
         "reduce op escaped its CC field");
  return c | (k << kKindShift) | (o << kOpShift) | root_field;
}

void Verifier::report_cc_mismatch(simmpi::Rank& rank, ir::CollectiveKind kind,
                                  SourceLoc loc,
                                  const simmpi::CcMismatchError& e) {
  // The slot engine hands the full per-rank picture to exactly one thread,
  // so the report is recorded unconditionally. The wording follows what
  // the communicator's first member contributed: "leave main" when it
  // posted the exit sentinel, "about to execute" otherwise.
  const bool rank0_left_main = !e.ids.empty() && e.ids[0] == kFinalId;
  if (rank0_left_main) {
    record(Severity::Error, DiagKind::RtCollectiveMismatch, loc,
           str::cat("CC check: some processes leave main while others still "
                    "execute collectives (",
                    per_rank_detail(e.ids, e.world_ranks),
                    "); stopping before deadlock"));
    rank.abort(str::cat("CC mismatch at process exit, ", sm_.describe(loc)));
    throw simmpi::AbortedError("CC mismatch at exit");
  }
  record(Severity::Error, DiagKind::RtCollectiveMismatch, loc,
         str::cat("CC check: MPI processes are about to execute different "
                  "collectives (", per_rank_detail(e.ids, e.world_ranks),
                  "); stopping before deadlock"));
  rank.abort(str::cat("CC mismatch detected before ", ir::to_string(kind),
                      " at ", sm_.describe(loc)));
  throw simmpi::AbortedError("CC mismatch");
}

void Verifier::check_cc_final_piggybacked(simmpi::Rank& rank, SourceLoc loc) {
  simmpi::Signature sig{ir::CollectiveKind::Finalize, -1, {}};
  sig.cc = kFinalId;
  try {
    // Direct Comm access: the sentinel runs after mpi_finalize, past the
    // Rank-level "call after finalize" guard.
    rank.app_comm().execute(rank.rank(), sig, 0);
  } catch (const simmpi::CcMismatchError& e) {
    report_cc_mismatch(rank, ir::CollectiveKind::Finalize, loc, e);
  } catch (const simmpi::RankFailedError&) {
    // Degraded world (return-mode errhandler, a peer died): the sentinel has
    // nothing to seal — survivors already reached exit cleanly.
  }
}

void Verifier::check_cc_final_piggybacked_on(simmpi::Rank& rank,
                                             int64_t comm_handle,
                                             SourceLoc loc) {
  simmpi::Rank::CommRef ref;
  try {
    ref = rank.comm_ref(comm_handle);
  } catch (const simmpi::UsageError&) {
    return; // freed meanwhile (or never a member): nothing left to seal
  }
  simmpi::Signature sig{ir::CollectiveKind::Finalize, -1, {}};
  sig.cc = kFinalId;
  bool mismatch = false;
  try {
    // Nonblocking on purpose: every member of the armed class posts its own
    // sentinel (textual classes arm uniformly), so an agreeing lane
    // completes; but a rank-guarded mpi_comm_free elsewhere must not leave
    // this rank parked on a slot that can never fill.
    ref.comm->post(ref.local_rank, sig, 0, {}, mismatch);
  } catch (const simmpi::CcMismatchError& e) {
    report_cc_mismatch(rank, ir::CollectiveKind::Finalize, loc, e);
  } catch (const simmpi::RankFailedError&) {
    // Degraded comm: nothing left to seal, members already exited cleanly.
  } catch (const simmpi::RevokedError&) {
    // Revoked comm: its CC stream is dead by construction; sealing is void.
  }
}

// ---- MonoGuard ----------------------------------------------------------------

Verifier::MonoGuard::MonoGuard(Verifier& v, simmpi::Rank& rank, int32_t stmt_id,
                               SourceLoc loc)
    : v_(v), rank_(rank), stmt_id_(stmt_id) {
  int32_t occupancy;
  {
    std::scoped_lock lk(v_.mu_);
    occupancy = ++v_.site_occupancy_[{rank.rank(), stmt_id}];
  }
  if (v_.opts_.rendezvous.count() > 0)
    std::this_thread::sleep_for(v_.opts_.rendezvous);
  if (occupancy > 1) {
    v_.record(Severity::Error, DiagKind::RtMultithreadedCollective, loc,
              str::cat("monothread check: collective statement executed by ",
                       occupancy, " threads concurrently in rank ",
                       rank.rank()));
    rank.abort(str::cat("collective executed by multiple threads at ",
                        v_.sm_.describe(loc)));
    throw simmpi::AbortedError("multithreaded collective");
  }
}

Verifier::MonoGuard::~MonoGuard() {
  std::scoped_lock lk(v_.mu_);
  --v_.site_occupancy_[{rank_.rank(), stmt_id_}];
}

// ---- RegionGuard --------------------------------------------------------------

Verifier::RegionGuard::RegionGuard(Verifier& v, simmpi::Rank& rank,
                                   int32_t region_id, SourceLoc loc)
    : v_(v), rank_(rank), region_id_(region_id) {
  int32_t self_active = 0;
  int32_t other_region = -1;
  SourceLoc other_loc;
  {
    std::scoped_lock lk(v_.mu_);
    self_active = ++v_.region_active_[{rank.rank(), region_id}];
    v_.region_loc_[{rank.rank(), region_id}] = loc;
    for (const auto& [key, count] : v_.region_active_) {
      if (key.first != rank.rank() || count <= 0) continue;
      if (key.second != region_id) {
        other_region = key.second;
        other_loc = v_.region_loc_[key];
        break;
      }
    }
  }
  if (v_.opts_.rendezvous.count() > 0)
    std::this_thread::sleep_for(v_.opts_.rendezvous);

  if (self_active > 1) {
    v_.record(Severity::Error, DiagKind::RtConcurrentCollectives, loc,
              str::cat("region check: monothreaded region S", region_id,
                       " overlaps itself (", self_active,
                       " instances) in rank ", rank.rank(),
                       "; collective order is nondeterministic"));
    rank.abort(str::cat("concurrent instances of region S", region_id, " at ",
                        v_.sm_.describe(loc)));
    throw simmpi::AbortedError("self-concurrent region");
  }
  if (other_region >= 0) {
    v_.record(
        Severity::Error, DiagKind::RtConcurrentCollectives, loc,
        str::cat("region check: monothreaded regions S", region_id, " and S",
                 other_region, " with collectives are active concurrently in "
                 "rank ", rank.rank(), "; collective order is "
                 "nondeterministic"),
        {{other_loc, str::cat("region S", other_region, " entered here")}});
    rank.abort(str::cat("concurrent collective regions S", region_id, "/S",
                        other_region, " at ", v_.sm_.describe(loc)));
    throw simmpi::AbortedError("concurrent regions");
  }
}

Verifier::RegionGuard::~RegionGuard() {
  std::scoped_lock lk(v_.mu_);
  --v_.region_active_[{rank_.rank(), region_id_}];
}

void Verifier::report_request_misuse(simmpi::Rank& rank, SourceLoc loc,
                                     const std::string& what) {
  record(Severity::Error, DiagKind::RtRequestMisuse, loc,
         str::cat("request check: ", what));
  rank.abort(str::cat("request misuse at ", sm_.describe(loc), ": ", what));
  throw simmpi::AbortedError(what);
}

void Verifier::report_leaked_requests(simmpi::Rank& rank, SourceLoc loc,
                                      const std::vector<std::string>& leaked) {
  if (leaked.empty()) return;
  std::string msg =
      str::cat("request check: rank ", rank.rank(), " reaches mpi_finalize with ",
               leaked.size(), " outstanding nonblocking request",
               leaked.size() == 1 ? "" : "s", " (never waited on): ");
  for (size_t i = 0; i < leaked.size(); ++i)
    msg += str::cat(i ? "; " : "", leaked[i]);
  record(Severity::Error, DiagKind::RtRequestLeak, loc, std::move(msg));
}

void Verifier::check_thread_usage(simmpi::Rank& rank, bool in_parallel,
                                  bool master_only, SourceLoc loc) {
  if (!rank.initialized()) return;
  const ir::ThreadLevel lv = rank.provided();
  bool violation = false;
  std::string what;
  if (lv == ir::ThreadLevel::Single && in_parallel) {
    violation = true;
    what = "MPI call from a parallel region under MPI_THREAD_single";
  } else if (lv == ir::ThreadLevel::Funneled && in_parallel && !master_only) {
    violation = true;
    what = "MPI call from a non-master thread under MPI_THREAD_funneled";
  }
  if (!violation) return;
  record(Severity::Warning, DiagKind::RtThreadLevelViolation, loc,
         str::cat(what, " in rank ", rank.rank()));
  if (opts_.abort_on_thread_level) {
    rank.abort(str::cat(what, " at ", sm_.describe(loc)));
    throw simmpi::AbortedError(what);
  }
}

std::vector<Diagnostic> Verifier::diagnostics() const {
  std::scoped_lock lk(mu_);
  return diags_;
}

size_t Verifier::error_count() const {
  std::scoped_lock lk(mu_);
  size_t n = 0;
  for (const auto& d : diags_) n += d.severity == Severity::Error;
  return n;
}

} // namespace parcoach::rt
