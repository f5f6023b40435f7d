// Deterministic fault injection: a seeded plan of injection points (rank
// crash at the Nth collective arrival, delayed slot/mailbox arrival, forced
// park/wake jitter, PCT-style thread-priority perturbation in miniomp)
// delivered through an injector that the runtime components consult on
// their hot paths.
//
// Hot-path contract (the tracer discipline): components cache an *effective*
// `FaultInjector*` at construction — null when injection is absent or the
// plan is inert — so every hook in the slot engine, request engine, registry,
// mailboxes, and execution engines is a single predictable `if (fault_)`
// branch. Armed hooks allocate nothing and format no strings; the crash
// diagnostic string materializes only at the moment a crash actually fires.
//
// Determinism: every random draw is keyed on (plan seed, world rank, per-rank
// draw counter) through SplitMix64, so a given seed replays the same schedule
// of decisions regardless of wall-clock timing. Crash selection counts only
// collective arrivals (per rank, atomically), so "crash rank R at its Nth
// collective" lands on the same program site across runs as long as rank R's
// own collective sequence is deterministic. Delay and jitter faults are
// bounded (microseconds, far below any watchdog deadline) and perturb timing
// only — they can reorder thread interleavings but never change a correct
// program's outcome.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace parcoach {

/// A declarative schedule of faults. Fields with zero probability / negative
/// rank are inert; a plan with nothing armed yields a null effective
/// injector (see FaultInjector::effective).
struct FaultPlan {
  bool enabled = true;
  /// Keys every random draw; two runs with the same plan replay the same
  /// decision schedule.
  uint64_t seed = 0;

  /// Rank crash: world rank `crash_rank` dies on its `crash_at`-th
  /// collective arrival (0-based, counted per rank across all comms,
  /// including comm_split/dup creation events). -1 = no crash.
  int32_t crash_rank = -1;
  uint64_t crash_at = 0;

  /// Delayed arrival: with probability delay_num/delay_den per slot or
  /// mailbox operation, sleep a seeded duration in [0, max_delay_us].
  uint32_t delay_num = 0;
  uint32_t delay_den = 1;
  uint32_t max_delay_us = 0;

  /// Park/wake jitter: with probability jitter_num/jitter_den, yield (and
  /// with a nested coin flip, briefly sleep) right before a thread parks on
  /// a slot, wait, or mailbox — widening the windows where waker/wakee races
  /// would hide.
  uint32_t jitter_num = 0;
  uint32_t jitter_den = 1;

  /// PCT-style priority perturbation: with probability pct_num/pct_den a
  /// miniomp team member sleeps a seeded duration in [0, max_delay_us] at
  /// region entry, before running its body, reshuffling which thread "wins"
  /// each region.
  uint32_t pct_num = 0;
  uint32_t pct_den = 1;

  /// True when any fault is actually armed.
  [[nodiscard]] bool any() const noexcept {
    return crash_rank >= 0 || (delay_num > 0 && max_delay_us > 0) ||
           jitter_num > 0 || (pct_num > 0 && max_delay_us > 0);
  }

  /// A seeded chaos schedule: picks a crash rank/site from the seed and arms
  /// moderate delay + jitter + PCT perturbation. `num_ranks` bounds the
  /// crash rank; some seeds intentionally place the crash beyond typical
  /// program length so the run completes fault-free (exercising the armed
  /// no-op path).
  [[nodiscard]] static FaultPlan chaos(uint64_t seed, int32_t num_ranks);

  /// Parses the `--fault-plan` file format: one `key = value` pair per line,
  /// `#` comments. Keys: seed, crash_rank, crash_at, delay_num, delay_den,
  /// max_delay_us, jitter_num, jitter_den, pct_num, pct_den.
  /// Returns std::nullopt and sets `error` on malformed input.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& text,
                                                      std::string& error);

  /// Human-readable one-line summary ("seed=7 crash=1@3 delay=1/8x200us ...").
  [[nodiscard]] std::string str() const;
};

/// Consults a FaultPlan on the runtime's hot paths. All hooks are noexcept,
/// allocation-free, and safe to call from any thread.
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan plan, int32_t num_ranks);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The pointer components should cache: null unless `f` is non-null, the
  /// plan is enabled, and at least one fault is armed — so the disabled hot
  /// path is one branch on a cached pointer.
  [[nodiscard]] static FaultInjector* effective(FaultInjector* f) noexcept {
    return (f && f->plan_.enabled && f->plan_.any()) ? f : nullptr;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Counts a collective arrival for `world_rank` and returns true when the
  /// plan says this rank dies here. Fires at most once per injector.
  [[nodiscard]] bool should_crash(int32_t world_rank) noexcept;

  /// Number of crashes that actually fired (0 or 1).
  [[nodiscard]] uint64_t crashes_fired() const noexcept {
    return crash_fired_.load(std::memory_order_relaxed) ? 1 : 0;
  }

  /// Delayed-arrival fault: maybe sleep a bounded seeded duration.
  void maybe_delay(int32_t world_rank) noexcept;

  /// Park/wake jitter: maybe yield / briefly sleep before a park.
  void park_jitter(int32_t world_rank) noexcept;

  /// PCT-style perturbation of a miniomp team member at region entry.
  void thread_start_jitter(int32_t world_rank, int32_t thread_num) noexcept;

private:
  /// Next deterministic draw for `world_rank` in stream `stream`.
  uint64_t draw(int32_t world_rank, uint32_t stream) noexcept;

  struct alignas(64) PerRank {
    std::atomic<uint64_t> collectives{0};
    std::atomic<uint64_t> draws[3] = {{0}, {0}, {0}};
  };

  FaultPlan plan_;
  int32_t num_ranks_;
  std::unique_ptr<PerRank[]> ranks_;
  std::atomic<bool> crash_fired_{false};
};

} // namespace parcoach
