// Error conditions surfaced by the simulated MPI runtime.
//
// Exceptions are used to unwind rank threads: a rank blocked inside a
// collective throws when the world aborts (verifier-initiated or watchdog
// deadlock). World::run catches them per rank and folds them into the
// RunReport — they never escape to the caller.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace parcoach::simmpi {

/// The world was aborted (verifier check failed, or user abort).
class AbortedError : public std::runtime_error {
public:
  explicit AbortedError(const std::string& what) : std::runtime_error(what) {}
};

/// Piggybacked CC agreement failed at a slot: the arrival that completed the
/// slot's CC lane (exactly one thread world-wide) throws this with the full
/// per-rank id vector, from which the runtime verifier builds its report.
/// Only slots armed through Signature::cc can raise it.
class CcMismatchError : public std::runtime_error {
public:
  CcMismatchError(size_t slot_idx, std::vector<int64_t> per_rank_ids,
                  std::vector<int32_t> world_ranks_by_index = {})
      : std::runtime_error("piggybacked CC mismatch"), slot(slot_idx),
        ids(std::move(per_rank_ids)),
        world_ranks(std::move(world_ranks_by_index)) {}

  size_t slot;
  std::vector<int64_t> ids; // CC ids gathered by the slot, by comm-local rank
  /// World rank of each index in `ids` (empty = identity, i.e. a world-sized
  /// communicator); reports must speak world ranks, not local indices.
  std::vector<int32_t> world_ranks;

  [[nodiscard]] int32_t world_rank_of(size_t index) const noexcept {
    return world_ranks.empty() ? static_cast<int32_t>(index)
                               : world_ranks[index];
  }
};

/// Status codes stored by the DSL's `var st = mpi_xxx(...)` error-status
/// forms when a `return`-mode operation fails. Both engines must store the
/// same values so reports stay byte-identical.
inline constexpr int64_t kMpiErrRankFailed = -1;
inline constexpr int64_t kMpiErrRevoked = -2;

/// A peer rank died (fault injection) and the communicator's error handler
/// is `return`: the operation completes with this error instead of aborting
/// the world. Carries the world rank that died so both engines can produce
/// the identical status/diagnostic. Thrown at the next slot arrival (or
/// wait) on any communicator containing the dead rank.
class RankFailedError : public std::runtime_error {
public:
  RankFailedError(const std::string& what, int32_t dead_world_rank)
      : std::runtime_error(what), dead_rank(dead_world_rank) {}
  int32_t dead_rank;
};

/// The communicator was revoked (mpi_comm_revoke): every parked or arriving
/// member unwinds with this error. Only shrink/agree still complete on a
/// revoked communicator.
class RevokedError : public std::runtime_error {
public:
  explicit RevokedError(const std::string& what) : std::runtime_error(what) {}
};

/// The watchdog declared a hang (collective mismatch left ranks blocked).
class DeadlockError : public std::runtime_error {
public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Strict-matching mode detected a signature mismatch at match time.
class MismatchError : public std::runtime_error {
public:
  explicit MismatchError(const std::string& what) : std::runtime_error(what) {}
};

/// MPI misuse independent of matching (e.g. collective after finalize).
class UsageError : public std::runtime_error {
public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

} // namespace parcoach::simmpi
