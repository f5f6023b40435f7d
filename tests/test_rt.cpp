// Unit tests: the runtime verifier — CC agreement piggybacked on the
// collective's own slot (agreement, mismatch, process-exit sentinel),
// occupancy guards, region registry, thread-usage checks. Exercised directly
// over simmpi worlds (no interpreter).
#include "rt/verifier.h"

#include <gtest/gtest.h>

namespace parcoach::rt {
namespace {

using simmpi::Rank;
using simmpi::World;

World::Options fast_world(int32_t ranks) {
  World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(200);
  return o;
}

/// One instrumented collective on MPI_COMM_WORLD: the CC id rides in the
/// collective's own slot arrival (Signature::cc), and a disagreement comes
/// back as CcMismatchError on exactly one thread, which reports it. Returns
/// the collective's scalar result.
int64_t checked(Verifier& v, Rank& mpi, simmpi::Signature sig,
                int64_t payload = 1, int32_t comm_id = 0) {
  sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root, comm_id);
  try {
    if (ir::is_nonblocking(sig.kind)) return mpi.wait(mpi.istart(sig, payload));
    return mpi.execute(sig, payload).scalar;
  } catch (const simmpi::CcMismatchError& e) {
    v.report_cc_mismatch(mpi, sig.kind, {}, e);
  }
}

TEST(CcProtocol, KindMismatchAbortsBeforeCollective) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  std::atomic<int> completed{0};
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0)
      checked(v, mpi, {ir::CollectiveKind::Bcast, 0, {}});
    else
      checked(v, mpi, {ir::CollectiveKind::Reduce, 0, simmpi::ReduceOp::Sum});
    completed.fetch_add(1);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "CC must fire before the app collectives hang";
  EXPECT_EQ(completed.load(), 0);
  ASSERT_EQ(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_EQ(diags[0].kind, DiagKind::RtCollectiveMismatch);
  EXPECT_NE(diags[0].message.find("MPI_Bcast"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Reduce"), std::string::npos);
}

TEST(CcProtocol, ArgumentDivergenceCaughtWhenEnabled) {
  // Extension over the paper: op/root take part in the agreement.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const auto op = mpi.rank() == 0 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    checked(v, mpi, {ir::CollectiveKind::Allreduce, -1, op});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "argument checking must fire before the hang";
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("[sum]"), std::string::npos);
  EXPECT_NE(v.diagnostics()[0].message.find("[max]"), std::string::npos);
}

TEST(CcProtocol, TypeOnlyModeIsPaperFaithful) {
  // With check_arguments off, an op divergence passes CC (the paper does not
  // check arguments) and becomes a hang caught by the watchdog instead.
  SourceManager sm;
  World w(fast_world(2));
  VerifierOptions vopts;
  vopts.check_arguments = false;
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    const auto op = mpi.rank() == 0 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    checked(v, mpi, {ir::CollectiveKind::Allreduce, -1, op});
  });
  EXPECT_EQ(v.error_count(), 0u) << "type-only CC must not flag op divergence";
  EXPECT_TRUE(rep.deadlock) << "the op mismatch then hangs in the collective";
}

TEST(CcProtocol, TypeOnlyModeRootDivergenceHangs) {
  // Paper-faithful mode on a *root* divergence: kinds agree so CC passes,
  // and the wrong root becomes a hang the watchdog reports — not a CC abort.
  SourceManager sm;
  World w(fast_world(2));
  VerifierOptions vopts;
  vopts.check_arguments = false;
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    checked(v, mpi, {ir::CollectiveKind::Bcast, mpi.rank(), {}});
  });
  EXPECT_EQ(v.error_count(), 0u) << "type-only CC must not see the root";
  EXPECT_TRUE(rep.deadlock) << "root divergence must surface as a hang";
  EXPECT_NE(rep.deadlock_details.find("root="), std::string::npos)
      << rep.deadlock_details;
}

TEST(CcProtocol, CoversNonblockingKinds) {
  // The agreement distinguishes Ibarrier from Iallreduce (and from their
  // blocking counterparts) at issue time.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0)
      checked(v, mpi, {ir::CollectiveKind::Ibarrier, -1, {}});
    else
      checked(v, mpi,
              {ir::CollectiveKind::Iallreduce, -1, simmpi::ReduceOp::Sum});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "CC must fire before the waits hang";
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("MPI_Ibarrier"), std::string::npos);
  EXPECT_NE(v.diagnostics()[0].message.find("MPI_Iallreduce"),
            std::string::npos);
}

TEST(CcProtocol, BlockingVsNonblockingKindDistinguished) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    checked(v, mpi,
            {mpi.rank() == 0 ? ir::CollectiveKind::Barrier
                             : ir::CollectiveKind::Ibarrier,
             -1,
             {}});
  });
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_NE(diags[0].message.find("MPI_Barrier"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Ibarrier"), std::string::npos);
}

TEST(CcProtocol, RootDivergenceCaught) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    checked(v, mpi, {ir::CollectiveKind::Bcast, mpi.rank(), {}});
  });
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("root="), std::string::npos);
}

TEST(CcProtocol, EarlyExitDetectedBySentinel) {
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      // Leaving main while the others still communicate.
      v.check_cc_final_piggybacked(mpi, {});
    } else {
      checked(v, mpi, {ir::CollectiveKind::Barrier, -1, {}});
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("leave main"), std::string::npos);
}

TEST(CcProtocol, AllFinalsPass) {
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep =
      w.run([&](Rank& mpi) { v.check_cc_final_piggybacked(mpi, {}); });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(CcProtocol, PerCommSentinelCatchesEarlyExitOnSubcomm) {
  // Rank 0 leaves main still holding an armed dup'd comm: its per-comm
  // sentinel posts FINAL into the comm's next slot, where rank 1's
  // allreduce on that comm meets it.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const int64_t d = mpi.comm_dup(Rank::kCommWorld);
    if (mpi.rank() == 0) {
      v.check_cc_final_piggybacked_on(mpi, d, {});
      return;
    }
    simmpi::Signature sig{ir::CollectiveKind::Allreduce, -1,
                          simmpi::ReduceOp::Sum};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root, mpi.comm_id_of(d));
    try {
      mpi.execute_on(d, sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("leave main"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1=MPI_Allreduce[sum]@comm#1"), std::string::npos)
      << msg;
}

TEST(CcProtocol, CommIdentityDistinguishesSameKindOnDifferentComms) {
  // Without the comm-id field, two identical collectives on different
  // communicators would carry the same id (same kind, op, root). With the
  // comm identity in the encoding, the CC catches the divergence and names
  // both comms. The ids meet on world's slot here, as they would in any
  // communicator-free agreement.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    // Rank r claims to be about to run the allreduce on comm id r+1.
    checked(v, mpi,
            {ir::CollectiveKind::Allreduce, -1, simmpi::ReduceOp::Sum}, 1,
            /*comm_id=*/mpi.rank() + 1);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "comm divergence must be a CC abort, not a hang";
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("@comm#1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("@comm#2"), std::string::npos) << msg;
}

TEST(CcProtocol, CommIdentityTakesPartEvenInTypeOnlyMode) {
  // "Which communicator" is part of the collective's identity, not an
  // argument: the paper-faithful type-only mode must still see it.
  SourceManager sm;
  VerifierOptions vopts;
  vopts.check_arguments = false;
  World w(fast_world(2));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    checked(v, mpi, {ir::CollectiveKind::Barrier, -1, {}}, 0,
            /*comm_id=*/mpi.rank() == 0 ? 0 : 3);
  });
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("@comm#3"), std::string::npos)
      << v.diagnostics()[0].message;
}

TEST(CcProtocol, WorldCommIdKeepsLegacyIdsBitIdentical) {
  // comm id 0 must not change any world-only encoding: every pre-comm
  // diagnostic wording (asserted string-equal elsewhere) depends on it.
  SourceManager sm;
  Verifier v(sm, {});
  EXPECT_EQ(v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1),
            v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/0));
  EXPECT_NE(v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/1),
            v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/2));
}

TEST(CcProtocol, PiggybackedPerCommStreamCatchesDupMismatch) {
  // End-to-end on a dup'd communicator: ranks disagree on the reduce op of
  // the collective they run on the dup; the CC id rides in the dup comm's
  // own slot and the report names the comm identity.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const int64_t d = mpi.comm_dup(Rank::kCommWorld);
    const auto op =
        mpi.rank() == 0 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    simmpi::Signature sig{ir::CollectiveKind::Allreduce, -1, op};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root, mpi.comm_id_of(d));
    try {
      mpi.execute_on(d, sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "per-comm CC must fire before the hang";
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("[sum]@comm#1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[max]@comm#1"), std::string::npos) << msg;
}

TEST(CcProtocol, SubcommMismatchReportNamesWorldRanks) {
  // World ranks 1 and 2 form comm_split#1 (rank 0 opts out) and disagree on
  // the reduce op there. The CC ids are gathered by comm-LOCAL rank; the
  // report must translate to world ranks — naming rank 0 (not even a
  // member) or misattributing rank 2's op to rank 1 would be wrong.
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const int64_t c =
        mpi.comm_split(Rank::kCommWorld, mpi.rank() == 0 ? -1 : 0, 0);
    if (mpi.rank() == 0) return;
    const auto op =
        mpi.rank() == 1 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    simmpi::Signature sig{ir::CollectiveKind::Allreduce, -1, op};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root, mpi.comm_id_of(c));
    try {
      mpi.execute_on(c, sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("rank 1=MPI_Allreduce[sum]@comm#1"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 2=MPI_Allreduce[max]@comm#1"), std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("rank 0="), std::string::npos)
      << "non-members must not appear: " << msg;
}

TEST(MonoGuard, SingleThreadPasses) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int i = 0; i < 5; ++i) {
      Verifier::MonoGuard guard(v, mpi, /*stmt_id=*/7, {});
      mpi.barrier();
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(MonoGuard, ConcurrentThreadsDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    auto hit_site = [&] {
      try {
        Verifier::MonoGuard guard(v, mpi, /*stmt_id=*/9, {});
      } catch (const simmpi::AbortedError&) {
        // expected on the detecting thread
      }
    };
    std::thread t(hit_site);
    hit_site();
    t.join();
  });
  (void)rep;
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtMultithreadedCollective);
}

TEST(RegionGuard, DistinctRegionsConcurrentlyActiveDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto enter = [&](int32_t region) {
      try {
        Verifier::RegionGuard guard(v, mpi, region, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread t([&] { enter(1); });
    enter(2);
    t.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtConcurrentCollectives);
}

TEST(RegionGuard, SelfOverlapDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto enter = [&] {
      try {
        Verifier::RegionGuard guard(v, mpi, 5, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread t(enter);
    enter();
    t.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("overlaps itself"),
            std::string::npos);
}

TEST(RegionGuard, LoopIterationReentryIsFine) {
  // The same region entered once per loop iteration, strictly sequentially
  // (the conforming shape): never a self-overlap.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int iter = 0; iter < 6; ++iter) {
      Verifier::RegionGuard guard(v, mpi, /*region_id=*/3, {});
      mpi.barrier();
    }
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(RegionGuard, LoopCarriedSelfOverlapDetected) {
  // A nowait single in a loop lets iteration i+1's instance start while
  // iteration i's is still running (another thread). Model the two loop
  // iterations as two threads racing into the SAME region id.
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto iteration = [&] {
      try {
        Verifier::RegionGuard guard(v, mpi, /*region_id=*/8, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread next_iter(iteration);
    iteration();
    next_iter.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtConcurrentCollectives);
  EXPECT_NE(v.diagnostics()[0].message.find("overlaps itself"),
            std::string::npos);
}

TEST(CcProtocol, FinalSentinelAgainstNonblockingIssue) {
  // Rank 0 leaves main while rank 1 is about to issue an Iallreduce: the
  // sentinel names both sides.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0)
      v.check_cc_final_piggybacked(mpi, {});
    else
      checked(v, mpi,
              {ir::CollectiveKind::Iallreduce, -1, simmpi::ReduceOp::Sum});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_GE(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_NE(diags[0].message.find("leave main"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Iallreduce"), std::string::npos);
}

TEST(CcProtocol, FinalSentinelSymmetricInTypeOnlyMode) {
  // The sentinel works identically when argument checking is off (it
  // compares the FINAL id, not arguments).
  SourceManager sm;
  VerifierOptions vopts;
  vopts.check_arguments = false;
  World w(fast_world(2));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0)
      v.check_cc_final_piggybacked(mpi, {});
    else
      checked(v, mpi, {ir::CollectiveKind::Barrier, -1, {}});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("leave main"), std::string::npos);
}

TEST(RegionGuard, SequentialRegionsAreFine) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int32_t region = 0; region < 4; ++region) {
      Verifier::RegionGuard guard(v, mpi, region, {});
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(RegionGuard, DifferentRanksDoNotInterfere) {
  SourceManager sm;
  World w(fast_world(2));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(30);
  Verifier v(sm, vopts);
  // Rank 0 sits in region 1 while rank 1 sits in region 2: fine (the
  // registry is per process).
  const auto rep = w.run([&](Rank& mpi) {
    Verifier::RegionGuard guard(v, mpi, mpi.rank() + 1, {});
    mpi.barrier(); // both inside simultaneously
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(ThreadUsage, FunneledViolationRecorded) {
  SourceManager sm;
  World w(fast_world(1));
  Verifier v(sm, {});
  w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Funneled);
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/false, {});
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/true, {});
    v.check_thread_usage(mpi, /*in_parallel=*/false, /*master_only=*/true, {});
  });
  const auto diags = v.diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::RtThreadLevelViolation);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
}

TEST(ThreadUsage, SingleLevelViolationAndAbortOption) {
  SourceManager sm;
  VerifierOptions vopts;
  vopts.abort_on_thread_level = true;
  World w(fast_world(1));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/true, {});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(v.diagnostics().size(), 1u);
}

TEST(ThreadUsage, UninitializedRankIsIgnored) {
  SourceManager sm;
  World w(fast_world(1));
  Verifier v(sm, {});
  w.run([&](Rank& mpi) {
    v.check_thread_usage(mpi, true, false, {});
  });
  EXPECT_TRUE(v.diagnostics().empty());
}

} // namespace
} // namespace parcoach::rt
