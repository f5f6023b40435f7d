// The MPI-statement executor shared by both engines (the AST tree-walker in
// executor.cpp and the bytecode VM in vm.cpp).
//
// An engine evaluates a statement's operand expressions, in the statement's
// fixed operand order, and hands the values to MpiOps::exec. Everything
// after that lives here, once:
//   - the paper's runtime checks in order (occupancy, then thread level,
//     then the piggybacked CC id) inside the collective's trace span, so an
//     aborting check still leaves a CollEnter/CollExit pair in the trace;
//   - communicator resolution through a per-thread CommRef cache;
//   - ULFM status-form delivery (`var st = mpi_xxx(...)` absorbs a peer
//     failure or a revocation as a negative status) and request-misuse
//     routing;
//   - the communicator operations, the list of armed communicators and the
//     exit sentinels posted when a process leaves main.
// A new MPI operation therefore touches one handler, and the engines agree
// on MPI semantics by construction.
#pragma once

#include "interp/exec_internal.h"

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace parcoach::interp {

/// Evaluated operands of one MPI statement (MpiCall, MpiRecv, MpiWait,
/// MpiTest, MpiWaitall). Which fields an engine fills follows the
/// statement: absent operands keep their defaults.
struct MpiOperands {
  const frontend::Stmt* stmt = nullptr;
  int64_t root = -1;   // collective root / split key / recv source
  int64_t payload = 0; // payload / split color / agree flag / errhandler
                       // mode / abort code / request / recv tag
  int64_t comm = simmpi::Rank::kCommWorld; // handle, when stmt->mpi_comm
  std::span<const int64_t> requests;       // mpi_waitall
  bool armed = false;       // CC check planned (plan->cc_stmts)
  bool mono = false;        // occupancy check planned (plan->mono_stmts)
  bool child_armed = false; // comm ctor: the result's comm class is armed
};

/// Per-thread CommRef cache, direct-mapped by handle. A resolved
/// communicator stays valid while no mpi_comm_free ran on this rank since it
/// was cached (the rank's free-epoch), so a steady-state collective on a
/// sub-communicator costs one compare and one atomic load instead
/// of a registry lookup.
struct CommCache {
  struct Entry {
    int64_t handle = 0;
    uint64_t epoch = 0;
    simmpi::Rank::CommRef ref; // ref.comm == nullptr: empty entry
  };
  std::array<Entry, 16> entries;
};

/// Per-thread executor state; each engine's thread state derives from it.
struct MpiThread {
  miniomp::ThreadContext* omp = nullptr;
  CommCache comms;
};

/// One rank's MPI executor. Threads of the rank share it (MPI_THREAD_MULTIPLE
/// included); per-thread state travels in MpiThread.
class MpiOps {
public:
  MpiOps(SharedState& shared, simmpi::Rank& rank)
      : shared_(shared), rank_(rank) {}

  /// Executes one MPI statement. Returns the value for the statement's
  /// target (engines store it only when the statement has one), or nothing.
  /// Out of line so the VM dispatch loop holds no landing pad for it.
  [[gnu::noinline]] std::optional<int64_t> exec(const MpiOperands& o,
                                                MpiThread& t);

  /// Exit sentinels when the process leaves main (plan->cc_final_in_main):
  /// a FINAL post on every armed communicator this rank still holds, in
  /// creation order, then world's blocking sentinel when world's comm class
  /// is armed.
  [[gnu::noinline]] void leave_main(SourceLoc loc);

private:
  std::optional<int64_t> call(const MpiOperands& o, MpiThread& t);
  std::optional<int64_t> comm_op(const MpiOperands& o);
  simmpi::Rank::CommRef resolve(int64_t handle, CommCache& cache);
  void check_thread_usage(const frontend::Stmt& s, const MpiThread& t);
  [[noreturn]] void request_misuse(SourceLoc loc, const std::string& what);

  SharedState& shared_;
  simmpi::Rank& rank_;
  /// Bumped by every mpi_comm_free on this rank; invalidates CommRef caches.
  std::atomic<uint64_t> comm_epoch_{0};
  /// Live handles of communicators created at armed-class sites (the
  /// per-comm exit sentinel targets), in creation order.
  std::mutex armed_comms_mu_;
  std::vector<int64_t> armed_comms_;
};

} // namespace parcoach::interp
