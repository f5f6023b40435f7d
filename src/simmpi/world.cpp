#include "simmpi/world.h"

#include "support/fault.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

namespace parcoach::simmpi {

// ---- Rank -------------------------------------------------------------------

class Rank::CallGuard {
public:
  CallGuard(Rank& r, const char* what) : r_(r) {
    const int32_t concurrent = r_.in_mpi_.fetch_add(1) + 1;
    if (concurrent > 1 && r_.world_->options().monitor_thread_levels &&
        r_.provided_ != ir::ThreadLevel::Multiple) {
      r_.world_->record_thread_violation(
          r_.rank_, str::cat("rank ", r_.rank_, ": ", concurrent,
                             " threads concurrently inside MPI (", what,
                             ") but provided level is MPI_THREAD_",
                             ir::to_string(r_.provided_)));
    }
  }
  ~CallGuard() { r_.in_mpi_.fetch_sub(1); }
  CallGuard(const CallGuard&) = delete;
  CallGuard& operator=(const CallGuard&) = delete;

private:
  Rank& r_;
};

int32_t Rank::size() const noexcept { return world_->options().num_ranks; }

ir::ThreadLevel Rank::init(ir::ThreadLevel requested) {
  initialized_ = true;
  const auto cap = world_->options().max_provided_level;
  provided_ = static_cast<int>(requested) <= static_cast<int>(cap) ? requested : cap;
  return provided_;
}

Comm& Rank::app_comm() noexcept { return world_->comms_->world_comm(); }
CommRegistry& Rank::comms() noexcept { return *world_->comms_; }

// ---- Communicator management --------------------------------------------------

int64_t Rank::comm_split(int64_t comm, int64_t color, int64_t key, int64_t cc,
                         bool child_cc_lane) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_split");
  return world_->comms_->split(comm, rank_, color, key, cc, child_cc_lane);
}

int64_t Rank::comm_dup(int64_t comm, int64_t cc, bool child_cc_lane) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_dup");
  return world_->comms_->dup(comm, rank_, cc, child_cc_lane);
}

void Rank::comm_free(int64_t comm) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_free");
  world_->comms_->free(comm, rank_);
}

int32_t Rank::comm_id_of(int64_t comm) {
  return world_->comms_->comm_id_of(comm, rank_);
}

void Rank::comm_set_errhandler(int64_t comm, Errhandler mode) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_set_errhandler");
  world_->comms_->set_errhandler(comm, rank_, mode);
}

void Rank::comm_revoke(int64_t comm) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_revoke");
  world_->comms_->revoke(comm, rank_);
}

int64_t Rank::comm_shrink(int64_t comm, int64_t cc, bool child_cc_lane) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_shrink");
  return world_->comms_->shrink(comm, rank_, cc, child_cc_lane);
}

int64_t Rank::comm_agree(int64_t comm, int64_t flag, int64_t cc) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Comm_agree");
  return world_->comms_->agree(comm, rank_, flag, cc);
}

Rank::CommRef Rank::comm_ref(int64_t comm) {
  CommRef ref;
  ref.comm = &world_->comms_->resolve(comm, rank_, ref.local_rank);
  return ref;
}

Comm::Result Rank::execute_on(int64_t comm, const Signature& sig,
                              int64_t scalar, const std::vector<int64_t>& vec) {
  return execute_on(comm_ref(comm), sig, scalar, vec);
}

Comm::Result Rank::execute_on(const CommRef& ref, const Signature& sig,
                              int64_t scalar, const std::vector<int64_t>& vec) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, ir::to_string(sig.kind).data());
  return ref.comm->execute(ref.local_rank, sig, scalar, vec);
}

int64_t Rank::istart_on(int64_t comm, const Signature& sig, int64_t scalar,
                        const std::vector<int64_t>& vec) {
  return istart_on(comm_ref(comm), sig, scalar, vec);
}

int64_t Rank::istart_on(const CommRef& ref, const Signature& sig,
                        int64_t scalar, const std::vector<int64_t>& vec) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, ir::to_string(sig.kind).data());
  return world_->requests_->start(*ref.comm, ref.local_rank, rank_, sig,
                                  scalar, vec);
}

Comm::Result Rank::execute(const Signature& sig, int64_t scalar,
                           const std::vector<int64_t>& vec) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, ir::to_string(sig.kind).data());
  return app_comm().execute(rank_, sig, scalar, vec);
}

void Rank::barrier() { execute({CollectiveKind::Barrier, -1, {}}, 0); }

int64_t Rank::bcast(int64_t value, int32_t root) {
  return execute({CollectiveKind::Bcast, root, {}}, value).scalar;
}

int64_t Rank::reduce(int64_t value, ReduceOp op, int32_t root) {
  return execute({CollectiveKind::Reduce, root, op}, value).scalar;
}

int64_t Rank::allreduce(int64_t value, ReduceOp op) {
  return execute({CollectiveKind::Allreduce, -1, op}, value).scalar;
}

std::vector<int64_t> Rank::gather(int64_t value, int32_t root) {
  return execute({CollectiveKind::Gather, root, {}}, value).vec;
}

std::vector<int64_t> Rank::allgather(int64_t value) {
  return execute({CollectiveKind::Allgather, -1, {}}, value).vec;
}

int64_t Rank::scatter(const std::vector<int64_t>& values, int32_t root) {
  const int64_t own = values.empty() ? 0 : values[0];
  return execute({CollectiveKind::Scatter, root, {}}, own, values).scalar;
}

std::vector<int64_t> Rank::alltoall(const std::vector<int64_t>& values) {
  const int64_t own = values.empty() ? 0 : values[0];
  return execute({CollectiveKind::Alltoall, -1, {}}, own, values).vec;
}

int64_t Rank::scan(int64_t value, ReduceOp op) {
  return execute({CollectiveKind::Scan, -1, op}, value).scalar;
}

int64_t Rank::reduce_scatter(int64_t value, ReduceOp op) {
  return execute({CollectiveKind::ReduceScatter, -1, op}, value).scalar;
}

void Rank::send(int64_t value, int32_t dest, int32_t tag) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Send");
  app_comm().send(rank_, dest, tag, value,
                  world_->options().rendezvous_sends);
}

int64_t Rank::recv(int32_t source, int32_t tag) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Recv");
  return app_comm().recv(rank_, source, tag);
}

void Rank::finalize() {
  execute({CollectiveKind::Finalize, -1, {}}, 0);
  finalized_ = true;
}

// ---- Nonblocking collectives --------------------------------------------------

int64_t Rank::istart(const Signature& sig, int64_t scalar,
                     const std::vector<int64_t>& vec) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, ir::to_string(sig.kind).data());
  return world_->requests_->start(app_comm(), rank_, rank_, sig, scalar, vec);
}

int64_t Rank::ibarrier() {
  return istart({CollectiveKind::Ibarrier, -1, {}}, 0);
}

int64_t Rank::ibcast(int64_t value, int32_t root) {
  return istart({CollectiveKind::Ibcast, root, {}}, value);
}

int64_t Rank::ireduce(int64_t value, ReduceOp op, int32_t root) {
  return istart({CollectiveKind::Ireduce, root, op}, value);
}

int64_t Rank::iallreduce(int64_t value, ReduceOp op) {
  return istart({CollectiveKind::Iallreduce, -1, op}, value);
}

RequestEngine::Outcome Rank::wait_outcome(int64_t request) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Wait");
  return world_->requests_->wait(rank_, request);
}

RequestEngine::Outcome Rank::test_outcome(int64_t request, bool& done) {
  if (finalized_)
    throw UsageError(str::cat("rank ", rank_, ": MPI call after mpi_finalize"));
  CallGuard guard(*this, "MPI_Test");
  return world_->requests_->test(rank_, request, done);
}

int64_t Rank::wait(int64_t request) {
  const auto out = wait_outcome(request);
  if (!out.ok()) throw UsageError(out.error);
  return out.value;
}

std::optional<int64_t> Rank::test(int64_t request) {
  bool done = false;
  const auto out = test_outcome(request, done);
  if (!out.ok()) throw UsageError(out.error);
  if (!done) return std::nullopt;
  return out.value;
}

void Rank::waitall(const std::vector<int64_t>& requests) {
  for (int64_t r : requests) wait(r);
}

RequestEngine& Rank::requests() noexcept { return *world_->requests_; }

void Rank::abort(const std::string& reason) { world_->state().abort(reason); }

bool Rank::aborted() const { return world_->state_.is_aborted(); }

// ---- World ------------------------------------------------------------------

World::World(Options opts) : opts_(opts) {
  // Observability hooks go into WorldState before any component exists:
  // comms and the request engine cache them at construction.
  state_.tracer = Tracer::effective(opts_.tracer);
  state_.metrics = opts_.metrics;
  state_.fault = FaultInjector::effective(opts_.fault);
  state_.init_failure(opts_.num_ranks);
  comms_ = std::make_unique<CommRegistry>(state_, opts_.num_ranks,
                                          opts_.strict_matching,
                                          opts_.world_cc_lane);
  requests_ = std::make_unique<RequestEngine>(state_, opts_.num_ranks);
  ranks_.reserve(static_cast<size_t>(opts_.num_ranks));
  for (int32_t r = 0; r < opts_.num_ranks; ++r) {
    ranks_.push_back(std::unique_ptr<Rank>(new Rank()));
    ranks_.back()->world_ = this;
    ranks_.back()->rank_ = r;
  }
}

void World::record_thread_violation(int32_t rank, const std::string& what) {
  (void)rank;
  std::scoped_lock lk(violations_mu_);
  violations_.push_back(what);
}

RunReport World::run(const std::function<void(Rank&)>& body) {
  using Clock = std::chrono::steady_clock;
  const auto entry = Clock::now();
  RunReport report;
  report.rank_errors.assign(static_cast<size_t>(opts_.num_ranks), "");

  // Completion wakeup: the rank whose fetch_add brings `finished` to
  // num_ranks locks and unlocks done_mu, then notifies done_cv, so the
  // watchdog's predicate check and its wait cannot straddle the last
  // increment (no lost wakeup). That rank still touches done_cv after its
  // increment; joining every rank thread before run() returns keeps these
  // locals alive until it is done.
  std::atomic<int32_t> finished{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  Clock::time_point ranks_end{};
  auto rank_main = [&](int32_t r) {
    Rank& rank = *ranks_[static_cast<size_t>(r)];
    try {
      body(rank);
    } catch (const AbortedError& e) {
      report.rank_errors[static_cast<size_t>(r)] = str::cat("aborted: ", e.what());
    } catch (const DeadlockError& e) {
      report.rank_errors[static_cast<size_t>(r)] = str::cat("deadlock: ", e.what());
    } catch (const MismatchError& e) {
      report.rank_errors[static_cast<size_t>(r)] = str::cat("mismatch: ", e.what());
    } catch (const RankFailedError& e) {
      // Either this rank died (its own unwind) or a peer failure escaped
      // the program unhandled; the census below distinguishes the two.
      report.rank_errors[static_cast<size_t>(r)] =
          str::cat("rank failed: ", e.what());
    } catch (const RevokedError& e) {
      report.rank_errors[static_cast<size_t>(r)] = str::cat("revoked: ", e.what());
    } catch (const std::exception& e) {
      report.rank_errors[static_cast<size_t>(r)] = str::cat("error: ", e.what());
    }
    if (finished.fetch_add(1) + 1 == opts_.num_ranks) {
      ranks_end = Clock::now();
      { std::scoped_lock lk(done_mu); }
      done_cv.notify_one();
    }
  };

  // A rank thread that cannot be created (no memory for its stack, a thread
  // limit) aborts the world: the ranks already running unwind from their
  // waits, and the run reports the failure instead of throwing.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(opts_.num_ranks));
  for (int32_t r = 0; r < opts_.num_ranks; ++r) {
    try {
      threads.emplace_back(rank_main, r);
    } catch (const std::exception& e) {
      const std::string reason =
          str::cat("could not start rank thread ", r, ": ", e.what());
      state_.abort(reason);
      for (int32_t u = r; u < opts_.num_ranks; ++u)
        report.rank_errors[static_cast<size_t>(u)] =
            str::cat("not started: ", reason);
      break;
    }
  }
  const bool all_started =
      threads.size() == static_cast<size_t>(opts_.num_ranks);
  const auto spawned = Clock::now();

  // Watchdog: no progress for hang_timeout while not everyone finished and
  // at least one rank is blocked in a collective => declare deadlock. The
  // cheap poll reads the atomic heartbeat, POD blocked flags and the cached
  // comm list only (refreshed — one registry lock — just when the atomic
  // creation counter says a split/dup added a comm; comms are never
  // removed); the human-readable snapshot is materialized just for the
  // final report.
  uint64_t last_progress = 0;
  std::vector<Comm*> all_comms = comms_->all_comms();
  uint64_t comms_version = comms_->created_comms();
  std::atomic<uint64_t>* watchdog_polls =
      state_.metrics ? &state_.metrics->counter("watchdog.polls") : nullptr;
  const auto run_start = std::chrono::steady_clock::now();
  auto last_change = run_start;
  bool soft_fired = false;
  // Shared by the soft (stall report) and hard (deadlock) ladder stages:
  // describes every blocked rank across all communicators. Sub-communicator
  // snapshots already carry world ranks, so a cross-communicator cycle reads
  // e.g. "rank 0 blocked on comm_split#1 slot 0 in MPI_Allreduce[sum] /
  // rank 1 blocked on MPI_COMM_WORLD slot 2 in MPI_Barrier".
  auto describe_blocked = [&](std::ostream& os,
                              std::vector<int32_t>& blocked_ranks) {
    // A degraded world (dead ranks / revoked comms) is reported as such up
    // front: a stall involving them is recovery-in-progress, not a classic
    // mismatch hang, and the report must not read like one.
    if (state_.any_failed()) {
      os << "  degraded: failed ranks {";
      const auto failed = state_.failed_ranks();
      for (size_t i = 0; i < failed.size(); ++i)
        os << (i ? ", " : "") << failed[i];
      os << "}\n";
    }
    for (Comm* c : all_comms)
      if (c->is_revoked()) os << "  degraded: " << c->name() << " revoked\n";
    auto describe = [&](const std::vector<BlockedInfo>& blocked) {
      for (const auto& b : blocked) {
        if (!b.blocked) continue;
        os << "  rank " << b.rank << ' ' << b.describe() << '\n';
        blocked_ranks.push_back(b.rank);
      }
    };
    for (Comm* c : all_comms) describe(c->blocked_snapshot());
  };
  auto recorder_appendix = [&](std::vector<int32_t> blocked_ranks) {
    if (!state_.tracer) return std::string();
    std::sort(blocked_ranks.begin(), blocked_ranks.end());
    blocked_ranks.erase(
        std::unique(blocked_ranks.begin(), blocked_ranks.end()),
        blocked_ranks.end());
    return state_.tracer->flight_recorder(blocked_ranks);
  };
  // The watchdog wakes every kWatchdogPeriod to climb the ladder below, or
  // at once when the last rank finishes; that wake is not a poll.
  const auto all_finished = [&] { return finished.load() == opts_.num_ranks; };
  while (all_started) {
    {
      std::unique_lock lk(done_mu);
      if (done_cv.wait_for(lk, kWatchdogPeriod, all_finished)) break;
    }
    if (watchdog_polls) watchdog_polls->fetch_add(1, std::memory_order_relaxed);
    if (state_.tracer) state_.tracer->emit(TraceEv::WatchdogTick, -1);
    if (state_.is_aborted()) break;
    const uint64_t progress = state_.progress.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    // Ladder stage 3 (hard backstop): bound the whole run's wall-clock even
    // while progress is still being made — no fault may wedge the world.
    if (opts_.hard_deadline.count() > 0 &&
        now - run_start >= opts_.hard_deadline) {
      state_.abort(str::cat("hard deadline exceeded: run still active after ",
                            opts_.hard_deadline.count(), "ms"));
      break;
    }
    if (progress != last_progress) {
      last_progress = progress;
      last_change = now;
      soft_fired = false; // progress resumed: re-arm the soft stage
      continue;
    }
    // Poll every communicator the registry knows (world + split/dup
    // children): a deadlock cycle can span several.
    if (const uint64_t v = comms_->created_comms(); v != comms_version) {
      all_comms = comms_->all_comms();
      comms_version = v;
    }
    bool blocked_somewhere = false;
    for (Comm* c : all_comms) blocked_somewhere |= c->any_blocked();
    if (!blocked_somewhere) {
      last_change = now; // ranks are computing, not stuck in MPI
      continue;
    }
    // Ladder stage 1 (soft): capture the blocked picture + flight recorder
    // without aborting; the stall may still resolve on its own.
    if (!soft_fired && opts_.soft_deadline.count() > 0 &&
        now - last_change >= opts_.soft_deadline) {
      soft_fired = true;
      std::ostringstream os;
      os << "stall: no collective progress for " << opts_.soft_deadline.count()
         << "ms (soft deadline)\n";
      std::vector<int32_t> blocked_ranks;
      describe_blocked(os, blocked_ranks);
      report.stall_report = os.str() + recorder_appendix(std::move(blocked_ranks));
    }
    if (now - last_change < opts_.hang_timeout) continue;

    // Ladder stage 2: declare deadlock — build the arrival map, then abort
    // so blocked ranks unwind.
    std::ostringstream os;
    os << "hang detected: no collective progress for "
       << std::chrono::duration_cast<std::chrono::milliseconds>(
              opts_.hang_timeout)
              .count()
       << "ms\n";
    std::vector<int32_t> blocked_ranks;
    describe_blocked(os, blocked_ranks);
    report.deadlock = true;
    report.deadlock_details = os.str();
    // Abort with the base report only; the flight-recorder appendix below
    // is additive to deadlock_details and must not leak into the abort
    // reason the unwinding ranks record.
    state_.abort(str::cat("deadlock: ", os.str()));
    if (state_.tracer) state_.tracer->emit(TraceEv::Deadlock, -1);
    report.deadlock_details += recorder_appendix(std::move(blocked_ranks));
    break;
  }

  for (auto& t : threads) t.join();
  if (!all_started) ranks_end = Clock::now();

  report.aborted = state_.is_aborted() && !report.deadlock;
  {
    std::scoped_lock lk(state_.mu);
    report.abort_reason = state_.abort_reason;
  }
  {
    std::scoped_lock lk(violations_mu_);
    report.thread_level_violations = violations_;
  }
  for (Comm* c : comms_->all_comms()) {
    report.app_slots_completed += c->completed_slots();
    report.cc_piggybacked += c->cc_checked_slots();
  }
  report.comms_created = comms_->created_comms();
  report.ranks_failed = state_.failed_ranks();
  report.comms_revoked = comms_->comms_revoked();
  report.comms_shrunk = comms_->comms_shrunk();
  for (int32_t r = 0; r < opts_.num_ranks; ++r)
    for (const auto& leak : requests_->outstanding(r))
      report.leaked_requests.push_back(str::cat("rank ", r, ": ", leak));
  bool all_clean = !report.deadlock && !report.aborted;
  // Recovery contract: a dead rank's own unwind ("rank failed: ...") is the
  // expected outcome of its injected crash, not a program failure — `ok`
  // judges the SURVIVORS. The census above still reports every death.
  for (int32_t r = 0; r < opts_.num_ranks; ++r) {
    if (state_.is_failed(r)) continue;
    all_clean &= report.rank_errors[static_cast<size_t>(r)].empty();
  }
  report.ok = all_clean;
  if (state_.metrics) {
    if (state_.tracer) {
      state_.metrics->set_gauge(
          "trace.events_captured",
          static_cast<int64_t>(state_.tracer->events_captured()));
      state_.metrics->set_gauge(
          "trace.events_dropped",
          static_cast<int64_t>(state_.tracer->events_dropped()));
    }
    for (const auto& s : state_.metrics->snapshot())
      report.metrics.emplace_back(s.name, s.value);
  }
  const auto ns = [](Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  ranks_end = std::max(ranks_end, spawned); // ranks may end before the spawn
  report.spawn_ns = ns(spawned - entry);
  report.ranks_ns = ns(ranks_end - spawned);
  report.teardown_ns = ns(Clock::now() - ranks_end);
  return report;
}

} // namespace parcoach::simmpi
