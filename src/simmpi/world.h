// The simulated MPI world: ranks as threads, a watchdog that converts
// blocked-forever situations into deadlock reports, and per-rank MPI handles.
//
// Usage:
//   World::Options opts; opts.num_ranks = 4;
//   World world(opts);
//   RunReport rep = world.run([](Rank& mpi) {
//     mpi.init(ir::ThreadLevel::Serialized);
//     int64_t sum = mpi.allreduce(mpi.rank(), ReduceOp::Sum);
//     mpi.finalize();
//   });
//
// The Rank object is the per-process MPI library instance. With thread level
// MULTIPLE, multiple threads may call into the same Rank concurrently; lower
// levels are *monitored*: concurrent calls are detected and recorded as
// thread-level violations (like a checking MPI implementation would).
#pragma once

#include "simmpi/comm.h"
#include "simmpi/registry.h"
#include "simmpi/request.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace parcoach::simmpi {

class World;

/// Per-process (per-rank) MPI handle.
class Rank {
public:
  [[nodiscard]] int32_t rank() const noexcept { return rank_; }
  [[nodiscard]] int32_t size() const noexcept;

  /// MPI_Init_thread: returns the provided level (requested, capped by
  /// World::Options::max_provided_level).
  ir::ThreadLevel init(ir::ThreadLevel requested);
  [[nodiscard]] bool initialized() const noexcept { return initialized_; }
  [[nodiscard]] ir::ThreadLevel provided() const noexcept { return provided_; }

  // -- Communicator management ----------------------------------------------
  /// Handle of MPI_COMM_WORLD (the default communicator of every wrapper
  /// below; pass it — or a split/dup result — to the *_on entry points).
  static constexpr int64_t kCommWorld = CommRegistry::kWorld;

  /// MPI_Comm_split: a collective over `comm`; returns the handle of the
  /// caller's color group (0 for color < 0). `cc` rides in the agreement
  /// round's CC lane. Ordering within the group follows (key, world rank).
  /// `child_cc_lane` = false creates the children without a CC lane — the
  /// zero-overhead path for comm classes the plan leaves unarmed.
  int64_t comm_split(int64_t comm, int64_t color, int64_t key,
                     int64_t cc = kCcNone, bool child_cc_lane = true);
  /// MPI_Comm_dup: a collective over `comm`; fresh communicator, same
  /// members, independent slot + CC streams.
  int64_t comm_dup(int64_t comm, int64_t cc = kCcNone,
                   bool child_cc_lane = true);
  /// MPI_Comm_free: local release; this rank may not use the handle again.
  void comm_free(int64_t comm);
  /// Registry identity of `comm` (the CC encoding's comm-id field).
  int32_t comm_id_of(int64_t comm);

  // -- ULFM recovery ----------------------------------------------------------
  /// MPI_Comm_set_errhandler: local switch between fail-stop (`Abort`, the
  /// default) and ULFM return-mode failure delivery on `comm`.
  void comm_set_errhandler(int64_t comm, Errhandler mode);
  /// MPI_Comm_revoke: asynchronous poison — every member's operations on
  /// `comm` (except shrink/agree) error out from now on.
  void comm_revoke(int64_t comm);
  /// MPI_Comm_shrink: fault-tolerant creation collective over the live
  /// members; returns the survivor communicator's handle.
  int64_t comm_shrink(int64_t comm, int64_t cc = kCcNone,
                      bool child_cc_lane = true);
  /// MPI_Comm_agree: fault-tolerant bitwise-AND agreement on `flag` that
  /// completes despite dead members and revocation.
  int64_t comm_agree(int64_t comm, int64_t flag, int64_t cc = kCcNone);

  // -- Blocking collectives on the application communicator -----------------
  void barrier();
  int64_t bcast(int64_t value, int32_t root);
  int64_t reduce(int64_t value, ReduceOp op, int32_t root);
  int64_t allreduce(int64_t value, ReduceOp op);
  std::vector<int64_t> gather(int64_t value, int32_t root);
  std::vector<int64_t> allgather(int64_t value);
  int64_t scatter(const std::vector<int64_t>& values, int32_t root);
  std::vector<int64_t> alltoall(const std::vector<int64_t>& values);
  int64_t scan(int64_t value, ReduceOp op);
  int64_t reduce_scatter(int64_t value, ReduceOp op);
  void finalize();

  // -- Nonblocking collectives (request handles) ------------------------------
  /// Issue MPI_Ibarrier/Ibcast/Ireduce/Iallreduce; returns a request handle
  /// to pass to wait/test. The slot is claimed at issue time (MPI matching
  /// order); completion happens in wait/test.
  int64_t ibarrier();
  int64_t ibcast(int64_t value, int32_t root);
  int64_t ireduce(int64_t value, ReduceOp op, int32_t root);
  int64_t iallreduce(int64_t value, ReduceOp op);

  /// MPI_Wait: blocks until the request completes; returns the collective's
  /// scalar result (0 for ibarrier). Request misuse (double wait, foreign
  /// rank, unknown handle, cross-thread race) throws UsageError.
  int64_t wait(int64_t request);
  /// MPI_Test: completes the request and returns its value if the operation
  /// finished; std::nullopt when still pending. Misuse throws UsageError.
  std::optional<int64_t> test(int64_t request);
  /// MPI_Waitall over any number of requests (in order).
  void waitall(const std::vector<int64_t>& requests);

  /// Structured-outcome variants used by the interpreter so the runtime
  /// verifier can report discipline violations instead of unwinding.
  RequestEngine::Outcome wait_outcome(int64_t request);
  RequestEngine::Outcome test_outcome(int64_t request, bool& done);
  /// Raw nonblocking issue for bridged callers (sig.kind must be an I-kind).
  int64_t istart(const Signature& sig, int64_t scalar,
                 const std::vector<int64_t>& vec = {});

  /// The world's request engine (leak queries, tests).
  [[nodiscard]] RequestEngine& requests() noexcept;

  // -- Blocking point-to-point (tagged, FIFO per (src,dst,tag)) -------------
  void send(int64_t value, int32_t dest, int32_t tag);
  int64_t recv(int32_t source, int32_t tag);

  /// Raw slot-level access for bridged callers (the interpreter): executes
  /// `sig` with the given contributions on the application communicator.
  Comm::Result execute(const Signature& sig, int64_t scalar,
                       const std::vector<int64_t>& vec = {});

  /// Resolved communicator reference: ONE registry lookup covers handle
  /// validation, membership and the local rank; everything else (comm_id,
  /// execute) then runs lock-free w.r.t. the registry. Instrumented callers
  /// resolve once per collective instead of once for the CC id and again
  /// for the execution.
  struct CommRef {
    Comm* comm = nullptr;
    int32_t local_rank = -1;
  };
  /// Resolves `comm` for this rank. Throws UsageError for null/unknown
  /// handles, non-members, and use after mpi_comm_free.
  CommRef comm_ref(int64_t comm);

  /// Like execute(), but on an arbitrary communicator handle (world-rank ->
  /// local-rank translation included). Throws UsageError on bad handles.
  Comm::Result execute_on(int64_t comm, const Signature& sig, int64_t scalar,
                          const std::vector<int64_t>& vec = {});
  Comm::Result execute_on(const CommRef& ref, const Signature& sig,
                          int64_t scalar, const std::vector<int64_t>& vec = {});
  /// Like istart(), but on an arbitrary communicator handle.
  int64_t istart_on(int64_t comm, const Signature& sig, int64_t scalar,
                    const std::vector<int64_t>& vec = {});
  int64_t istart_on(const CommRef& ref, const Signature& sig, int64_t scalar,
                    const std::vector<int64_t>& vec = {});

  [[nodiscard]] Comm& app_comm() noexcept;
  /// The world's communicator registry (split/dup events, watchdog polling).
  [[nodiscard]] CommRegistry& comms() noexcept;

  /// Aborts the whole world (all ranks unwind with AbortedError).
  void abort(const std::string& reason);
  [[nodiscard]] bool aborted() const;

private:
  friend class World;
  World* world_ = nullptr;
  int32_t rank_ = -1;
  bool initialized_ = false;
  bool finalized_ = false;
  ir::ThreadLevel provided_ = ir::ThreadLevel::Single;
  std::atomic<int32_t> in_mpi_{0};

  /// RAII guard counting concurrent MPI calls on this rank for thread-level
  /// monitoring.
  class CallGuard;
};

struct RunReport {
  bool ok = false;
  bool deadlock = false;
  bool aborted = false;
  std::string abort_reason;
  std::string deadlock_details;
  /// Per-rank error strings ("" when the rank finished cleanly).
  std::vector<std::string> rank_errors;
  /// Thread-level violations observed (rank, description).
  std::vector<std::string> thread_level_violations;
  /// Nonblocking requests never completed by wait/test, per description
  /// ("rank 1: MPI_Iallreduce[sum] on MPI_COMM_WORLD slot 3, request 7").
  std::vector<std::string> leaked_requests;
  /// Completed matching slots across MPI_COMM_WORLD *and* every registry
  /// child communicator (split/dup results).
  uint64_t app_slots_completed = 0;
  /// Always 0: every CC agreement rides inside an application slot (see
  /// cc_piggybacked). Kept only because bench/e2e/main.cpp adds it to
  /// app_slots_completed, and bench/e2e changes only with the benchmark.
  uint64_t verifier_slots_completed = 0;
  /// Child communicators created by mpi_comm_split / mpi_comm_dup.
  uint64_t comms_created = 0;
  /// CC agreements that rode inside application slots (piggybacked checks):
  /// each one is a runtime CC check that cost zero extra synchronization
  /// rounds.
  uint64_t cc_piggybacked = 0;
  /// Selective-arming census, filled by the interpreter from the
  /// instrumentation plan driving the run (0 for plan-free direct API runs):
  /// how many collective sites / comm classes carried CC checks versus the
  /// program's totals. `cc_sites_armed < total_collective_sites` means some
  /// communicators ran the true zero-overhead unarmed path.
  uint64_t cc_sites_armed = 0;
  uint64_t cc_classes_armed = 0;
  uint64_t cc_classes_total = 0;
  uint64_t total_collective_sites = 0;
  /// Which interpreter engine drove the run ("ast" / "bytecode"; empty for
  /// plan-free direct API runs) and, for the bytecode engine, how many VM
  /// instructions were dispatched in total (contention-free per-thread
  /// counters, reconciled at thread exit).
  std::string engine;
  uint64_t bytecode_ops = 0;
  /// Snapshot of the attached MetricsRegistry at end of run (name/value,
  /// sorted by name; counters and gauges merged). Empty when no registry
  /// was attached.
  std::vector<std::pair<std::string, int64_t>> metrics;
  /// Escalation-ladder soft deadline: non-empty when progress stalled past
  /// Options::soft_deadline before the run resolved. Carries the blocked
  /// picture at stall time (plus the flight-recorder appendix when a tracer
  /// is attached) even when the run later completes or aborts for another
  /// reason.
  std::string stall_report;
  /// ULFM recovery census. `ranks_failed` lists the world ranks that died
  /// under return-mode error handling (sorted); their rank_errors entries
  /// record the death site but do not count against `ok` — a run where every
  /// SURVIVOR finished cleanly after revoke/shrink is a successful recovery.
  std::vector<int32_t> ranks_failed;
  uint64_t comms_revoked = 0;
  uint64_t comms_shrunk = 0;
};

class World {
public:
  struct Options {
    int32_t num_ranks = 2;
    /// Watchdog: declare deadlock after this long without progress while at
    /// least one rank is blocked.
    std::chrono::milliseconds hang_timeout{500};
    /// Report signature mismatches at match time instead of hanging.
    bool strict_matching = false;
    /// Cap on the provided thread level (models MPI builds without
    /// MPI_THREAD_MULTIPLE support).
    ir::ThreadLevel max_provided_level = ir::ThreadLevel::Multiple;
    /// Record concurrent MPI calls at insufficient thread levels.
    bool monitor_thread_levels = true;
    /// Sends block until the matching receive (unbuffered MPI_Send
    /// semantics; exposes head-to-head exchange deadlocks). Default: eager.
    bool rendezvous_sends = false;
    /// Build MPI_COMM_WORLD with its piggybacked-CC lane. The interpreter
    /// turns this off when the plan leaves the world comm class unarmed, so
    /// uninstrumented world collectives skip the lane bookkeeping entirely.
    bool world_cc_lane = true;
    /// Observability: optional flight-recorder tracer and metrics registry,
    /// owned by the caller and shared by every component of the world. A
    /// null (or disabled) tracer costs one predictable branch per emit
    /// point — the same zero-overhead-when-off contract as the CC lane.
    Tracer* tracer = nullptr;
    MetricsRegistry* metrics = nullptr;
    /// Fault injection: optional injector (caller-owned), consulted by the
    /// slot engine, registry, request engine, and mailboxes. Null or an
    /// inert plan costs one predictable branch per hook — the tracer's
    /// contract exactly.
    FaultInjector* fault = nullptr;
    /// Watchdog escalation ladder, stage 1 (soft): after this long without
    /// progress while a rank is blocked, capture a stall report (plus
    /// flight-recorder dump when tracing) into RunReport::stall_report
    /// WITHOUT aborting; the run may still recover. Zero = disabled. Fires
    /// at most once per stall (re-arms when progress resumes).
    std::chrono::milliseconds soft_deadline{0};
    /// Stage 2 (abort on stall) is `hang_timeout` above. Stage 3 (hard):
    /// abort unconditionally after this much wall-clock time, even while
    /// progress is still being made — the backstop that bounds teardown
    /// when a fault keeps the world busy-looping. Zero = disabled.
    std::chrono::milliseconds hard_deadline{0};
  };

  explicit World(Options opts);

  /// Runs `body` once per rank, each on its own thread; returns when all
  /// rank threads finished (normally or by unwinding). Single use: the
  /// World keeps that run's slots, communicators and abort state, so call
  /// run() at most once per instance.
  RunReport run(const std::function<void(Rank&)>& body);

  [[nodiscard]] const Options& options() const noexcept { return opts_; }
  WorldState& state() noexcept { return state_; }

private:
  friend class Rank;
  void record_thread_violation(int32_t rank, const std::string& what);

  Options opts_;
  WorldState state_;
  std::unique_ptr<CommRegistry> comms_;
  std::unique_ptr<RequestEngine> requests_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::mutex violations_mu_;
  std::vector<std::string> violations_;
};

} // namespace parcoach::simmpi
