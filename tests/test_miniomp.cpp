// Unit tests: MiniOMP fork/join runtime — every construct, nesting,
// cancellation, per-process critical domains.
#include "miniomp/team.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>

namespace parcoach::miniomp {
namespace {

TEST(MiniOmp, ParallelRunsAllThreads) {
  ThreadContext root;
  std::atomic<int> count{0};
  std::mutex mu;
  std::set<int32_t> ids;
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    count.fetch_add(1);
    std::scoped_lock lk(mu);
    ids.insert(ctx.thread_num);
    EXPECT_EQ(ctx.team_size(), 4);
    EXPECT_TRUE(ctx.in_parallel());
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(ids, (std::set<int32_t>{0, 1, 2, 3}));
}

TEST(MiniOmp, IfClauseFalseSerializes) {
  ThreadContext root;
  std::atomic<int> count{0};
  Runtime::parallel(root, 8, false, [&](ThreadContext& ctx) {
    count.fetch_add(1);
    EXPECT_EQ(ctx.team_size(), 1);
    EXPECT_FALSE(ctx.in_parallel());
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(MiniOmp, NestedParallelism) {
  ThreadContext root;
  std::atomic<int> leaf{0};
  Runtime::parallel(root, 2, true, [&](ThreadContext& outer) {
    EXPECT_EQ(outer.active_level(), 1);
    Runtime::parallel(outer, 3, true, [&](ThreadContext& inner) {
      EXPECT_EQ(inner.active_level(), 2);
      EXPECT_EQ(inner.team_size(), 3);
      leaf.fetch_add(1);
    });
  });
  EXPECT_EQ(leaf.load(), 6);
}

TEST(MiniOmp, SingleExecutedExactlyOncePerConstruct) {
  ThreadContext root;
  std::atomic<int> first{0}, second{0};
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    uint64_t cid = 0;
    Runtime::single(ctx, cid++, false, [&] { first.fetch_add(1); });
    Runtime::single(ctx, cid++, false, [&] { second.fetch_add(1); });
  });
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST(MiniOmp, SingleInLoopOncePerIteration) {
  ThreadContext root;
  std::atomic<int> total{0};
  Runtime::parallel(root, 3, true, [&](ThreadContext& ctx) {
    uint64_t cid = 0;
    for (int i = 0; i < 10; ++i)
      Runtime::single(ctx, cid++, false, [&] { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(MiniOmp, MasterOnlyThreadZero) {
  ThreadContext root;
  std::atomic<int> count{0};
  std::atomic<int32_t> who{-1};
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    Runtime::master(ctx, [&] {
      count.fetch_add(1);
      who.store(ctx.thread_num);
    });
  });
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(who.load(), 0);
}

TEST(MiniOmp, BarrierSynchronizesPhases) {
  ThreadContext root;
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    phase1.fetch_add(1);
    Runtime::barrier(ctx);
    if (phase1.load() != 4) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(MiniOmp, SectionsDistributeAllBodies) {
  ThreadContext root;
  std::atomic<int> a{0}, b{0}, c{0};
  Runtime::parallel(root, 2, true, [&](ThreadContext& ctx) {
    uint64_t cid = 0;
    Runtime::sections(ctx, cid++, false,
                      {[&] { a.fetch_add(1); }, [&] { b.fetch_add(1); },
                       [&] { c.fetch_add(1); }});
  });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 1);
  EXPECT_EQ(c.load(), 1);
}

TEST(MiniOmp, WsForCoversRangeExactlyOnce) {
  ThreadContext root;
  std::vector<std::atomic<int>> hits(100);
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    Runtime::ws_for(ctx, false, 0, 100,
                    [&](int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MiniOmp, WsForEmptyAndSmallRanges) {
  ThreadContext root;
  std::atomic<int> n{0};
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    Runtime::ws_for(ctx, false, 5, 5, [&](int64_t) { n.fetch_add(1); });
    Runtime::ws_for(ctx, false, 0, 2, [&](int64_t) { n.fetch_add(1); });
  });
  EXPECT_EQ(n.load(), 2);
}

TEST(MiniOmp, CriticalMutualExclusion) {
  ThreadContext root;
  ProcessDomain domain;
  root.domain = &domain;
  int unguarded = 0; // intentionally non-atomic: critical must protect it
  Runtime::parallel(root, 8, true, [&](ThreadContext& ctx) {
    for (int i = 0; i < 1000; ++i)
      Runtime::critical(ctx, [&] { ++unguarded; });
  });
  EXPECT_EQ(unguarded, 8000);
}

TEST(MiniOmp, CriticalDomainsAreIndependent) {
  // Two "processes": blocking inside one domain's critical must not stop
  // the other domain's threads.
  ProcessDomain d1, d2;
  std::atomic<bool> p1_in_critical{false}, release{false};
  std::atomic<int> p2_done{0};
  std::thread proc1([&] {
    ThreadContext root;
    root.domain = &d1;
    Runtime::critical(root, [&] {
      p1_in_critical.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!p1_in_critical.load()) std::this_thread::yield();
  std::thread proc2([&] {
    ThreadContext root;
    root.domain = &d2;
    Runtime::critical(root, [&] { p2_done.fetch_add(1); });
  });
  proc2.join(); // must complete while proc1 still holds its critical
  EXPECT_EQ(p2_done.load(), 1);
  release.store(true);
  proc1.join();
}

TEST(MiniOmp, ExceptionCancelsTeamAndRethrows) {
  ThreadContext root;
  std::atomic<int> reached_barrier{0};
  EXPECT_THROW(
      Runtime::parallel(root, 4, true,
                        [&](ThreadContext& ctx) {
                          if (ctx.thread_num == 2)
                            throw std::runtime_error("boom");
                          reached_barrier.fetch_add(1);
                          Runtime::barrier(ctx); // would hang without cancel
                        }),
      std::runtime_error);
}

TEST(MiniOmp, SerialContextConstructsWork) {
  ThreadContext root; // no team
  int n = 0;
  Runtime::single(root, 0, false, [&] { ++n; });
  Runtime::master(root, [&] { ++n; });
  Runtime::barrier(root);
  Runtime::sections(root, 1, false, {[&] { ++n; }, [&] { ++n; }});
  Runtime::ws_for(root, false, 0, 3, [&](int64_t) { ++n; });
  EXPECT_EQ(n, 7);
}

TEST(MiniOmp, JoinBarrierOrdersSideEffects) {
  ThreadContext root;
  std::vector<int> data(64, 0);
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    Runtime::ws_for(ctx, true, 0, 64, [&](int64_t i) {
      data[static_cast<size_t>(i)] = 1;
    });
    // nowait: no team barrier here, but the parallel join must still
    // guarantee visibility after the region.
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 64);
}

// ---- The worker cache ------------------------------------------------------

/// Spins (yielding) until `pred` holds or `limit` passes; true if it held.
template <typename Pred>
bool eventually(Pred pred, std::chrono::seconds limit = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(MiniOmpPool, BackToBackRegionsReuseCachedWorkers) {
  ThreadContext root;
  Runtime::parallel(root, 4, true, [](ThreadContext&) {}); // warm the cache
  const size_t warm = Runtime::worker_count();
  EXPECT_GE(warm, 3u);
  std::atomic<int64_t> sum{0};
  for (int i = 0; i < 10000; ++i)
    Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
      sum.fetch_add(ctx.thread_num + 1, std::memory_order_relaxed);
    });
  EXPECT_EQ(sum.load(), 10000 * (1 + 2 + 3 + 4));
  // Every region handed its workers back before returning, so the next one
  // found them idle: no thread was created after the warm-up.
  EXPECT_EQ(Runtime::worker_count(), warm);
}

TEST(MiniOmpPool, NestedTeamsBorrowWhileOuterWorkersAreBusy) {
  // The outer workers are busy running the inner regions' masters, so the
  // inner teams must get fresh workers instead of waiting for busy ones.
  // All 2x3 leaves must be live at once: each waits for the other five.
  ThreadContext root;
  std::atomic<int> live{0};
  std::atomic<bool> starved{false};
  std::mutex mu;
  std::set<std::thread::id> threads;
  Runtime::parallel(root, 2, true, [&](ThreadContext& outer) {
    Runtime::parallel(outer, 3, true, [&](ThreadContext& inner) {
      EXPECT_EQ(inner.active_level(), 2);
      {
        std::scoped_lock lk(mu);
        threads.insert(std::this_thread::get_id());
      }
      live.fetch_add(1);
      if (!eventually([&] { return live.load() == 6; })) starved.store(true);
      Runtime::barrier(inner);
    });
  });
  EXPECT_FALSE(starved.load());
  EXPECT_EQ(live.load(), 6);
  EXPECT_EQ(threads.size(), 6u);
}

class MiniOmpPoolCancel : public ::testing::TestWithParam<std::tuple<int32_t, int>> {};

TEST_P(MiniOmpPoolCancel, ThrowCancelsSiblingsAtTheBarrierAndRethrowsOnMaster) {
  // The thrower waits `delay_ms` first: 0 catches its siblings still
  // spinning at the barrier, 50 lets them park on the condition variable.
  const auto [thrower, delay_ms] = GetParam();
  ThreadContext root;
  std::atomic<int> at_barrier{0};
  std::atomic<int> past_barrier{0};
  try {
    Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
      if (ctx.thread_num == thrower) {
        if (delay_ms > 0) {
          eventually([&] { return at_barrier.load() == 3; });
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        }
        throw std::runtime_error("boom from " + std::to_string(thrower));
      }
      at_barrier.fetch_add(1);
      Runtime::barrier(ctx); // would hang without cancellation
      past_barrier.fetch_add(1);
    });
    ADD_FAILURE() << "the member's exception was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom from " + std::to_string(thrower));
  }
  EXPECT_EQ(past_barrier.load(), 0);
  // The cancelled team's workers went back to the cache in working order.
  std::atomic<int> after{0};
  Runtime::parallel(root, 4, true, [&](ThreadContext& ctx) {
    Runtime::barrier(ctx);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

INSTANTIATE_TEST_SUITE_P(SpinningOrParked, MiniOmpPoolCancel,
                         ::testing::Combine(::testing::Values(0, 2),
                                            ::testing::Values(0, 50)));

TEST(MiniOmpPool, OversubscribedTeamCompletes) {
  // 16 members on a host with far fewer cores: the spin phase yields, so
  // barriers still complete promptly instead of starving descheduled members.
  ThreadContext root;
  std::atomic<int> rounds{0};
  Runtime::parallel(root, 16, true, [&](ThreadContext& ctx) {
    for (int i = 0; i < 200; ++i) {
      if (ctx.thread_num == 0) rounds.fetch_add(1);
      Runtime::barrier(ctx);
    }
  });
  EXPECT_EQ(rounds.load(), 200);
}

TEST(MiniOmpPoolDeathTest, ProcessExitsCleanlyWithIdleWorkers) {
  // A fresh process parks workers and exits while they sit idle. Exit must
  // not hang on them, and under LeakSanitizer (the ASan job) the cached
  // workers must not count as leaks: LSan fails the exit code otherwise.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        ThreadContext root;
        Runtime::parallel(root, 2, true, [](ThreadContext& outer) {
          Runtime::parallel(outer, 3, true, [](ThreadContext&) {});
        });
        if (Runtime::worker_count() == 0) std::exit(3);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace parcoach::miniomp
