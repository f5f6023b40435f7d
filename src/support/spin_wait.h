// Spin-then-block waiting for short synchronization waits (team barriers,
// worker hand-offs, collective slot parks).
//
// A waiter first polls its predicate for a fixed budget of CPU pause
// instructions, yielding its time slice every kYieldEvery polls so that a
// spinner never starves the thread it waits for on an oversubscribed host.
// When the budget runs out it falls into the ordinary mutex/condvar park with
// the same predicate, so a failed spin costs only time, never correctness.
//
// The contract with the notifier is the usual one: change the state the
// predicate reads, then acquire and release the mutex (or change it while
// holding the mutex), then notify. A spinner reads the state directly, so the
// predicate must only read atomics.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace parcoach {

/// How long a waiter polls before it blocks. Long enough to cover a team
/// barrier or a slot completion on a busy core, short enough that a waiter
/// whose partner is descheduled stops burning CPU quickly.
inline constexpr std::chrono::microseconds kSpinBudget{30};
/// Polls between std::this_thread::yield() calls (and clock reads).
inline constexpr uint32_t kYieldEvery = 64;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Polls `pred` for up to kSpinBudget; returns its last value.
template <typename Pred>
[[nodiscard]] bool spin_until(Pred&& pred) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (uint32_t i = 1;; ++i) {
    if (pred()) return true;
    cpu_relax();
    if (i % kYieldEvery == 0) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) return pred();
    }
  }
}

/// Spins on `pred`, then parks on `cv` under `mu` until `pred` holds.
template <typename Pred>
void spin_then_wait(std::mutex& mu, std::condition_variable& cv, Pred pred) {
  if (spin_until(pred)) return;
  std::unique_lock lk(mu);
  cv.wait(lk, pred);
}

} // namespace parcoach
