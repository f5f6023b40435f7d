// Execution-time verification (Section 3 of the paper).
//
// The CC check runs with each instrumented collective: every rank's id of
// the collective it is about to execute (cc_lane_id) rides in that
// collective's own slot arrival (simmpi::Signature::cc), so the agreement
// costs no synchronization round of its own. The paper runs it as a
// separate allgather before the collective; piggybacking halves the rounds
// per checked collective and keeps the guarantee. If the ids disagree, the
// slot hands the full per-rank picture to one thread, the error is reported
// with the collective names and source locations involved, and the world is
// aborted — before the mismatched application collectives can deadlock. A
// sentinel id is posted before a process leaves main, catching "rank 0
// returned while rank 1 still waits in MPI_Allreduce" situations.
//
// Occupancy checks guard collectives that the static phase could not prove
// monothreaded: a per-site counter detects two threads inside the same
// collective statement. The region registry detects two concurrent
// monothreaded regions (set Scc) overlapping inside one process, including a
// region overlapping itself across loop iterations. An optional rendezvous
// window dwells inside checks to make genuinely racy overlaps deterministic
// in tests.
#pragma once

#include "ir/collective.h"
#include "simmpi/world.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <chrono>
#include <map>
#include <mutex>
#include <optional>

namespace parcoach::rt {

struct VerifierOptions {
  /// Dwell time inside occupancy/region checks; widens real race windows so
  /// tests can observe them deterministically. Zero = no dwell.
  std::chrono::milliseconds rendezvous{0};
  /// Record (not abort) thread-level violations.
  bool abort_on_thread_level = false;
  /// Include reduction operator and root rank in the CC agreement (extension
  /// over the paper, which checks collective *types* only — "the correctness
  /// of collectives arguments ... is not checked"). Off = paper-faithful:
  /// an op/root divergence then manifests as a hang caught by the watchdog.
  bool check_arguments = true;
};

class Verifier {
public:
  Verifier(const SourceManager& sm, VerifierOptions opts);

  /// The CC id of an instrumented collective, to ride in
  /// simmpi::Signature::cc. `op` and `root` take part in the agreement when
  /// options.check_arguments is set; root is the *evaluated* root rank (-1
  /// for rootless collectives). `comm_id` is the registry identity of the
  /// communicator the collective runs on (0 = MPI_COMM_WORLD); it always
  /// takes part, so identical collectives on different communicators do not
  /// spuriously agree.
  [[nodiscard]] int64_t cc_lane_id(ir::CollectiveKind kind,
                                   std::optional<ir::ReduceOp> op = std::nullopt,
                                   int32_t root = -1,
                                   int32_t comm_id = 0) const;

  /// Reports a CC disagreement — the CcMismatchError the slot engine throws
  /// to exactly one thread world-wide — then aborts the world.
  [[noreturn]] void report_cc_mismatch(simmpi::Rank& rank,
                                       ir::CollectiveKind kind, SourceLoc loc,
                                       const simmpi::CcMismatchError& e);

  /// Piggybacked exit sentinel: deposits the FINAL id into the rank's next
  /// application-communicator slot, where it meets whatever the other ranks
  /// do next (their next collective, or their own sentinel) in one shared
  /// synchronization round. Used for MPI_COMM_WORLD, and only when world's
  /// comm class is armed.
  void check_cc_final_piggybacked(simmpi::Rank& rank, SourceLoc loc);

  /// Per-comm exit sentinel for an armed sub-communicator the rank still
  /// holds: *posts* (nonblocking) the FINAL id into the comm's next slot, so
  /// a member still issuing collectives on that comm trips the CC lane,
  /// while legitimate membership divergence (a rank that already freed its
  /// handle, or opted out of the split) cannot deadlock the exit path.
  /// Freed/invalid handles are skipped silently.
  void check_cc_final_piggybacked_on(simmpi::Rank& rank, int64_t comm_handle,
                                     SourceLoc loc);

  /// RAII guard for collective-site occupancy (set S / Sipw validation).
  class MonoGuard {
  public:
    MonoGuard(Verifier& v, simmpi::Rank& rank, int32_t stmt_id, SourceLoc loc);
    ~MonoGuard();
    MonoGuard(const MonoGuard&) = delete;
    MonoGuard& operator=(const MonoGuard&) = delete;

  private:
    Verifier& v_;
    simmpi::Rank& rank_;
    int32_t stmt_id_;
  };

  /// RAII guard for watched monothreaded regions (set Scc validation).
  class RegionGuard {
  public:
    RegionGuard(Verifier& v, simmpi::Rank& rank, int32_t region_id,
                SourceLoc loc);
    ~RegionGuard();
    RegionGuard(const RegionGuard&) = delete;
    RegionGuard& operator=(const RegionGuard&) = delete;

  private:
    Verifier& v_;
    simmpi::Rank& rank_;
    int32_t region_id_;
  };

  /// Thread-level usage check at a collective site. `master_only` = the
  /// executing thread is thread 0 of every enclosing team.
  void check_thread_usage(simmpi::Rank& rank, bool in_parallel, bool master_only,
                          SourceLoc loc);

  // -- Request discipline (nonblocking collectives) ---------------------------
  /// Reports a request-discipline violation detected by the request engine
  /// (double wait, cross-thread wait race, foreign/unknown handle) and
  /// aborts the world: after misuse the request state is unreliable, so
  /// continuing would produce cascading nonsense.
  [[noreturn]] void report_request_misuse(simmpi::Rank& rank, SourceLoc loc,
                                          const std::string& what);

  /// Reports requests still outstanding when `rank` reaches mpi_finalize
  /// (leaked: issued but never completed by wait/test). Recording only — the
  /// program completes, the run is just not clean.
  void report_leaked_requests(simmpi::Rank& rank, SourceLoc loc,
                              const std::vector<std::string>& leaked);

  /// Runtime diagnostics collected so far (thread-safe copy).
  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;
  [[nodiscard]] size_t error_count() const;

private:
  void record(Severity sev, DiagKind kind, SourceLoc loc, std::string msg,
              std::vector<std::pair<SourceLoc, std::string>> notes = {});

  const SourceManager& sm_;
  VerifierOptions opts_;

  mutable std::mutex mu_;
  std::vector<Diagnostic> diags_;
  /// Occupancy per (rank, stmt). Guarded by mu_.
  std::map<std::pair<int32_t, int32_t>, int32_t> site_occupancy_;
  /// Active watched regions per (rank, region) with entry loc. Guarded by mu_.
  std::map<std::pair<int32_t, int32_t>, int32_t> region_active_;
  std::map<std::pair<int32_t, int32_t>, SourceLoc> region_loc_;
};

} // namespace parcoach::rt
