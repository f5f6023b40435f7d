// Unit tests: simulated MPI — data semantics of every collective, slot
// matching, mismatch behaviours (hang + watchdog vs strict), abort
// propagation, thread-level monitoring.
#include "simmpi/world.h"

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>

// ASan and TSan reserve huge shadow mappings, so an RLIMIT_AS low enough to
// refuse a thread stack cannot be set under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARCOACH_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PARCOACH_SHADOW_SANITIZER 1
#endif
#endif

namespace parcoach::simmpi {
namespace {

World::Options fast_world(int32_t ranks) {
  World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(150);
  return o;
}

TEST(SimMpi, BarrierCompletes) {
  World w(fast_world(4));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    mpi.barrier();
    mpi.barrier();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_EQ(rep.app_slots_completed, 2u);
}

TEST(SimMpi, BcastDistributesRootValue) {
  World w(fast_world(4));
  std::atomic<int> correct{0};
  w.run([&](Rank& mpi) {
    const int64_t v = mpi.bcast(mpi.rank() == 2 ? 777 : -1, 2);
    if (v == 777) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 4);
}

TEST(SimMpi, AllreduceOps) {
  World w(fast_world(4));
  std::atomic<int> checked{0};
  w.run([&](Rank& mpi) {
    const int64_t r = mpi.rank();
    if (mpi.allreduce(r, ReduceOp::Sum) == 6) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Max) == 3) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Min) == 0) checked.fetch_add(1);
    if (mpi.allreduce(r + 1, ReduceOp::Prod) == 24) checked.fetch_add(1);
    if (mpi.allreduce(r % 2, ReduceOp::Land) == 0) checked.fetch_add(1);
    if (mpi.allreduce(r % 2, ReduceOp::Lor) == 1) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Bor) == 3) checked.fetch_add(1);
    if (mpi.allreduce(r + 4, ReduceOp::Band) == 4) checked.fetch_add(1);
  });
  EXPECT_EQ(checked.load(), 4 * 8);
}

TEST(SimMpi, ReductionsAndChecksumsWrapOnOverflow) {
  // Sums and products past INT64_MAX wrap in two's complement (no undefined
  // behaviour; the ASan+UBSan job runs this test). The vector collectives'
  // internal checksums overflow too, and their data must come through intact.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  World w(fast_world(4));
  std::atomic<int> ok{0};
  const auto rep = w.run([&](Rank& mpi) {
    const uint64_t r = static_cast<uint64_t>(mpi.rank());
    // 4 * (2^63 - 1) = 2^65 - 4, and (2^63 - 1)^2 = 1 (mod 2^64).
    if (mpi.allreduce(kMax, ReduceOp::Sum) == -4) ok.fetch_add(1);
    if (mpi.allreduce(kMax, ReduceOp::Prod) == 1) ok.fetch_add(1);
    if (mpi.allreduce(kMin, ReduceOp::Sum) == 0) ok.fetch_add(1);
    const uint64_t prefix = (r + 1) * static_cast<uint64_t>(kMax);
    if (mpi.scan(kMax, ReduceOp::Sum) == static_cast<int64_t>(prefix))
      ok.fetch_add(1);
    const std::vector<int64_t> all(4, kMax);
    if (mpi.allgather(kMax) == all) ok.fetch_add(1);
    const auto g = mpi.gather(kMax, 0);
    if (g == (mpi.rank() == 0 ? all : std::vector<int64_t>{})) ok.fetch_add(1);
    if (mpi.alltoall(all) == all) ok.fetch_add(1);
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_EQ(ok.load(), 4 * 7);
}

TEST(SimMpi, ReduceOnlyRootGetsResult) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const int64_t v = mpi.reduce(mpi.rank() + 1, ReduceOp::Sum, 1);
    if (mpi.rank() == 1 && v == 6) ok.fetch_add(1);
    if (mpi.rank() != 1 && v == mpi.rank() + 1) ok.fetch_add(1); // own input
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, GatherAndAllgather) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const auto g = mpi.gather(mpi.rank() * 10, 0);
    if (mpi.rank() == 0) {
      if (g == std::vector<int64_t>{0, 10, 20}) ok.fetch_add(1);
    } else if (g.empty()) {
      ok.fetch_add(1);
    }
    const auto ag = mpi.allgather(mpi.rank() + 1);
    if (ag == std::vector<int64_t>{1, 2, 3}) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 6);
}

TEST(SimMpi, ScatterDistributesRootVector) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    std::vector<int64_t> data;
    if (mpi.rank() == 0) data = {100, 200, 300};
    const int64_t mine = mpi.scatter(data, 0);
    if (mine == (mpi.rank() + 1) * 100) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, AlltoallTransposes) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    // Rank r sends r*10 + q to rank q.
    std::vector<int64_t> out(3);
    for (int64_t q = 0; q < 3; ++q) out[static_cast<size_t>(q)] = mpi.rank() * 10 + q;
    const auto in = mpi.alltoall(out);
    // Rank r receives q*10 + r from every q.
    std::vector<int64_t> want(3);
    for (int64_t q = 0; q < 3; ++q) want[static_cast<size_t>(q)] = q * 10 + mpi.rank();
    if (in == want) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, ScanIsPrefixReduction) {
  World w(fast_world(4));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const int64_t p = mpi.scan(mpi.rank() + 1, ReduceOp::Sum);
    // prefix sums of 1,2,3,4: 1,3,6,10
    const int64_t want = (mpi.rank() + 1) * (mpi.rank() + 2) / 2;
    if (p == want) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(SimMpi, KindMismatchHangsAndWatchdogReports) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.barrier();
    } else {
      mpi.bcast(1, 0);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("MPI_Bcast"), std::string::npos);
  EXPECT_NE(rep.deadlock_details.find("signature differs"), std::string::npos);
}

TEST(SimMpi, RootMismatchAlsoHangs) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.bcast(1, mpi.rank()); // different roots
  });
  EXPECT_TRUE(rep.deadlock);
}

TEST(SimMpi, MissingParticipantHangs) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) mpi.barrier();
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("rank 0 blocked"), std::string::npos);
}

TEST(SimMpi, StrictModeReportsMismatchImmediately) {
  auto opts = fast_world(2);
  opts.strict_matching = true;
  opts.hang_timeout = std::chrono::milliseconds(5000); // must not be needed
  World w(opts);
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.barrier();
    } else {
      mpi.allreduce(1, ReduceOp::Sum);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "strict mode must not need the watchdog";
  EXPECT_NE(rep.abort_reason.find("collective mismatch"), std::string::npos);
}

TEST(SimMpi, AbortUnblocksEveryone) {
  World w(fast_world(3));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 2) {
      mpi.abort("user abort");
      return;
    }
    mpi.barrier(); // ranks 0,1 blocked until the abort
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_EQ(rep.abort_reason, "user abort");
  EXPECT_FALSE(rep.deadlock);
}

TEST(SimMpi, CollectiveAfterFinalizeIsUsageError) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    mpi.finalize();
    if (mpi.rank() == 0) mpi.barrier();
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.rank_errors[0].find("after mpi_finalize"), std::string::npos);
}

TEST(SimMpi, ProvidedLevelCappedByWorld) {
  auto opts = fast_world(2);
  opts.max_provided_level = ir::ThreadLevel::Serialized;
  World w(opts);
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    if (mpi.init(ir::ThreadLevel::Multiple) == ir::ThreadLevel::Serialized)
      ok.fetch_add(1);
    if (mpi.provided() == ir::ThreadLevel::Serialized) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(SimMpi, ConcurrentCallsAtLowLevelAreRecorded) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Serialized);
    // Two threads per rank calling concurrently (allreduce matches in any
    // order since all slots carry the same signature).
    std::thread t([&] {
      for (int i = 0; i < 20; ++i) mpi.allreduce(1, ReduceOp::Sum);
    });
    for (int i = 0; i < 20; ++i) mpi.allreduce(1, ReduceOp::Sum);
    t.join();
  });
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_FALSE(rep.thread_level_violations.empty())
      << "concurrent MPI calls under SERIALIZED must be recorded";
}

TEST(SimMpi, ManySlotsMemoryBounded) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    for (int i = 0; i < 5000; ++i) mpi.barrier();
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.app_slots_completed, 5000u);
}

} // namespace
} // namespace parcoach::simmpi

namespace parcoach::simmpi {
namespace {

TEST(SimMpiP2P, SendRecvDeliversValue) {
  World w(fast_world(2));
  std::atomic<int64_t> got{-1};
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(4242, 1, 7);
    } else {
      got.store(mpi.recv(0, 7));
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(got.load(), 4242);
}

TEST(SimMpiP2P, FifoOrderPerChannel) {
  World w(fast_world(2));
  std::vector<int64_t> got;
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 5; ++i) mpi.send(i * 10, 1, 0);
    } else {
      for (int i = 0; i < 5; ++i) got.push_back(mpi.recv(0, 0));
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(got, (std::vector<int64_t>{0, 10, 20, 30, 40}));
}

TEST(SimMpiP2P, TagsIsolateChannels) {
  World w(fast_world(2));
  std::atomic<int64_t> a{0}, b{0};
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 1, /*tag=*/5);
      mpi.send(2, 1, /*tag=*/9);
    } else {
      // Receive in the opposite tag order: tags keep channels apart.
      b.store(mpi.recv(0, 9));
      a.store(mpi.recv(0, 5));
    }
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(SimMpiP2P, PingPongRoundTrip) {
  World w(fast_world(2));
  std::atomic<int64_t> final_val{0};
  const auto rep = w.run([&](Rank& mpi) {
    int64_t v = 100;
    for (int i = 0; i < 20; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(v, 1, 0);
        v = mpi.recv(1, 1);
      } else {
        const int64_t m = mpi.recv(0, 0);
        mpi.send(m + 1, 0, 1);
      }
    }
    if (mpi.rank() == 0) final_val.store(v);
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(final_val.load(), 120); // +1 per round trip, 20 rounds
}

TEST(SimMpiP2P, RecvWithoutSendDeadlocksWithP2pReport) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 1) {
      const int64_t v = mpi.recv(0, 3); // never sent
      (void)v;
    }
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("recv from 0 tag 3"), std::string::npos);
}

TEST(SimMpiP2P, EagerSendsAllowHeadToHeadExchange) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    const int32_t other = 1 - mpi.rank();
    mpi.send(mpi.rank(), other, 0); // both send first: fine when buffered
    const int64_t got = mpi.recv(other, 0);
    EXPECT_EQ(got, other);
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
}

TEST(SimMpiP2P, RendezvousRecvFirstCycleDeadlocks) {
  auto opts = fast_world(2);
  opts.rendezvous_sends = true;
  World w(opts);
  const auto rep = w.run([&](Rank& mpi) {
    const int32_t other = 1 - mpi.rank();
    // Both receive first: classic cyclic wait under unbuffered semantics.
    const int64_t got = mpi.recv(other, 0);
    mpi.send(mpi.rank(), other, 0);
    (void)got;
  });
  EXPECT_TRUE(rep.deadlock);
}

TEST(SimMpiP2P, MixedP2pAndCollectives) {
  World w(fast_world(3));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) mpi.send(5, 1, 0);
    if (mpi.rank() == 1) {
      EXPECT_EQ(mpi.recv(0, 0), 5);
    }
    const int64_t s = mpi.allreduce(1, ReduceOp::Sum);
    EXPECT_EQ(s, 3);
    mpi.barrier();
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
}

TEST(SimMpiP2P, InvalidPeerIsUsageError) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) mpi.send(1, 99, 0);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.rank_errors[0].find("invalid rank"), std::string::npos);
}

// ---- Completion wakeup --------------------------------------------------------

// The last rank to finish wakes the watchdog, so a run that ends does not
// wait out World::kWatchdogPeriod: short runs are not quantized to its ticks.
// A batch of 50 2-rank barrier runs must have median wall time and median
// teardown under the period. A polling watchdog fails every batch (each run
// waits at least one period), as does a lost wakeup; a host too busy to
// schedule two threads within the period may fail one batch, so up to five
// are tried.
TEST(SimMpiWakeup, FinishedRunDoesNotWaitForTheWatchdogPeriod) {
  using std::chrono::nanoseconds;
  auto median = [](std::vector<nanoseconds> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  nanoseconds wall_p50{};
  nanoseconds teardown_p50{};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<nanoseconds> wall;
    std::vector<nanoseconds> teardown;
    for (int i = 0; i < 50; ++i) {
      World w(fast_world(2));
      const auto t0 = std::chrono::steady_clock::now();
      const auto rep = w.run([](Rank& mpi) { mpi.barrier(); });
      const nanoseconds elapsed = std::chrono::steady_clock::now() - t0;
      ASSERT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
      EXPECT_LE(nanoseconds(rep.spawn_ns + rep.ranks_ns + rep.teardown_ns),
                elapsed);
      wall.push_back(elapsed);
      teardown.push_back(nanoseconds(rep.teardown_ns));
    }
    wall_p50 = median(wall);
    teardown_p50 = median(teardown);
    if (wall_p50 < World::kWatchdogPeriod &&
        teardown_p50 < World::kWatchdogPeriod)
      break;
  }
  EXPECT_LT(wall_p50, World::kWatchdogPeriod);
  EXPECT_LT(teardown_p50, World::kWatchdogPeriod);
}

// ---- Rank threads that cannot start -------------------------------------------

/// In a death-test child: caps the address space at its current size plus
/// `headroom` bytes, runs a 4-rank barrier world, prints the abort reason and
/// exits 0 when the run failed with it, 1 otherwise.
[[noreturn]] void run_with_address_headroom(size_t headroom) {
  World w(fast_world(4));
  size_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages; // first field: VmSize in pages
  rlimit lim{};
  getrlimit(RLIMIT_AS, &lim);
  lim.rlim_cur = pages * static_cast<size_t>(sysconf(_SC_PAGESIZE)) + headroom;
  if (pages == 0 || setrlimit(RLIMIT_AS, &lim) != 0) std::_Exit(2);
  const auto rep = w.run([](Rank& mpi) { mpi.barrier(); });
  std::fprintf(stderr, "%s\n", rep.abort_reason.c_str());
  std::_Exit(!rep.ok && rep.aborted ? 0 : 1);
}

size_t default_thread_stack() {
  pthread_attr_t attr;
  size_t stack = 0;
  if (pthread_getattr_default_np(&attr) == 0) {
    pthread_attr_getstacksize(&attr, &stack);
    pthread_attr_destroy(&attr);
  }
  return stack;
}

TEST(SimMpiSpawnDeathTest, NoRankThreadStarts) {
#ifdef PARCOACH_SHADOW_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS is unusable under ASan/TSan shadow memory";
#endif
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(run_with_address_headroom(size_t{1} << 20),
              ::testing::ExitedWithCode(0), "could not start rank thread 0: ");
}

TEST(SimMpiSpawnDeathTest, OneRankThreadStarts) {
#ifdef PARCOACH_SHADOW_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS is unusable under ASan/TSan shadow memory";
#endif
  const size_t stack = default_thread_stack();
  ASSERT_GT(stack, 0u);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Room for one default stack, not two: rank 0 starts and parks in the
  // barrier, the abort unwinds it, and the run reports rank 1.
  EXPECT_EXIT(run_with_address_headroom(stack + stack / 2),
              ::testing::ExitedWithCode(0), "could not start rank thread 1: ");
}

} // namespace
} // namespace parcoach::simmpi
