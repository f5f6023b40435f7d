// MiniOMP: an explicit fork/join thread-team runtime with perfectly nested
// parallelism — exactly the thread model the paper assumes.
//
// Supported constructs: parallel (nested, num_threads / if clauses), single
// [nowait], master, critical (global unnamed lock), barrier, sections
// [nowait], static worksharing for [nowait].
//
// Threads: team members other than the master run on a process-wide cache
// of parked worker threads, so a region creates no OS thread once the cache
// holds enough idle workers. Barriers, the join and a worker's wait for its
// next region spin briefly, then block (support/spin_wait.h).
//
// Cancellation: if any team thread throws, the team is cancelled — threads
// blocked at team barriers unwind with TeamCancelled and the first exception
// is rethrown on the forking thread after the join. This lets the MPI
// verifier abort a world cleanly from inside nested parallel regions.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace parcoach::miniomp {

/// Largest team a run may ask for: the CLI's --threads bound and the cap on a
/// program's own num_threads clause.
inline constexpr int32_t kMaxThreads = 256;

/// Thrown by team operations after cancellation.
class TeamCancelled : public std::runtime_error {
public:
  TeamCancelled() : std::runtime_error("miniomp team cancelled") {}
};

class Team;

/// Per-process state shared by all teams of one simulated process. In a real
/// MPI+OpenMP program the unnamed critical lock is process-wide; since our
/// MPI ranks share one OS process, each rank owns a ProcessDomain so that
/// rank A blocking inside a critical region can never starve rank B.
struct ProcessDomain {
  std::mutex critical_mu;
  /// Optional fault-injection hook (PCT-style priority perturbation): when
  /// set, every team member calls it with its thread number at region entry,
  /// before running its region body, letting a seeded injector reshuffle
  /// which thread "wins" each region. Null (the default) costs one branch
  /// per member per region.
  std::function<void(int32_t)> spawn_jitter;
};

/// Per-thread view of its innermost team. Contexts form a chain to the root
/// (serial) context via `parent`.
struct ThreadContext {
  Team* team = nullptr;
  int32_t thread_num = 0;
  const ThreadContext* parent = nullptr;
  ProcessDomain* domain = nullptr;

  [[nodiscard]] int32_t team_size() const noexcept;
  /// True if any enclosing team has more than one thread.
  [[nodiscard]] bool in_parallel() const noexcept;
  /// Nesting depth of parallel regions with >1 thread.
  [[nodiscard]] int32_t active_level() const noexcept;
};

/// A thread team. Construct instances (single/sections/for) are identified
/// by the per-thread count of worksharing constructs encountered, which all
/// team threads encounter in the same order in conforming programs.
class Team {
public:
  explicit Team(int32_t size);

  [[nodiscard]] int32_t size() const noexcept { return size_; }

  /// Team barrier (also used for implicit barriers). Throws TeamCancelled
  /// if the team was cancelled while waiting.
  void barrier();

  /// Returns true if the calling thread (by construct instance) is the one
  /// that should execute the single region. `construct_id` is the per-thread
  /// worksharing-construct counter value.
  bool claim_single(uint64_t construct_id);

  /// Grabs the next unexecuted section index of construct `construct_id`,
  /// or -1 when all `num_sections` are taken.
  int32_t next_section(uint64_t construct_id, int32_t num_sections);

  /// Marks the team cancelled and wakes barrier waiters.
  void cancel() noexcept;
  [[nodiscard]] bool cancelled() const noexcept;

private:
  int32_t size_;
  std::mutex mu_;
  std::condition_variable cv_;
  int32_t arrived_ = 0; // guarded by mu_
  // Written under mu_; read without it by spinning barrier waiters.
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> cancelled_{false};
  std::map<uint64_t, bool> single_claims_;
  std::map<uint64_t, int32_t> section_next_;
};

/// The fork/join runtime entry points.
class Runtime {
public:
  /// Runs `body` on a new team. The calling thread becomes thread 0
  /// (master); threads 1..num_threads-1 run on workers borrowed from the
  /// process-wide cache, which creates a worker only when none is idle. An
  /// `if_clause` of false or `num_threads <= 1` creates a serialized team of
  /// size 1 (a real team, as OpenMP does). The join implies a full barrier
  /// and returns only after every borrowed worker has handed back. The first
  /// exception thrown by any team thread is rethrown after the join.
  static void parallel(const ThreadContext& parent, int32_t num_threads,
                       bool if_clause,
                       const std::function<void(ThreadContext&)>& body);

  /// Worker threads created so far by the process-wide cache (idle or busy).
  /// Workers live until the process exits.
  [[nodiscard]] static size_t worker_count();

  /// Executes the per-thread flow of a `single [nowait]` construct:
  /// `construct_id` must come from the caller's per-thread counter.
  static void single(ThreadContext& ctx, uint64_t construct_id, bool nowait,
                     const std::function<void()>& body);

  static void master(ThreadContext& ctx, const std::function<void()>& body);
  /// Unnamed critical region, scoped to the context's ProcessDomain (or a
  /// global fallback when no domain was attached).
  static void critical(ThreadContext& ctx, const std::function<void()>& body);
  static void barrier(ThreadContext& ctx);

  /// sections [nowait]: each section body runs exactly once, distributed
  /// over arriving threads.
  static void sections(ThreadContext& ctx, uint64_t construct_id, bool nowait,
                       const std::vector<std::function<void()>>& bodies);

  /// Static worksharing loop over [lo, hi): contiguous chunks per thread.
  static void ws_for(ThreadContext& ctx, bool nowait, int64_t lo, int64_t hi,
                     const std::function<void(int64_t)>& body);
};

} // namespace parcoach::miniomp
