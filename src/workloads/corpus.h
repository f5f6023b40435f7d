// Canonical corpus: small MiniHPC programs, each exercising one behaviour of
// the validator, with machine-checkable expectations. Integration tests walk
// this table; examples and the benchmarks reuse it.
#pragma once

#include "support/diagnostics.h"

#include <string>
#include <vector>

namespace parcoach::workloads {

/// What an *uninstrumented* run does, and what the verifier must catch.
enum class DynamicOutcome : uint8_t {
  Clean,            // runs clean with and without instrumentation
  CaughtBeforeHang, // uninstrumented: deadlock; instrumented: clean abort
  CaughtRace,       // instrumented with rendezvous: occupancy/region error
  ThreadLevelWarn,  // instrumented: RtThreadLevelViolation recorded
  CaughtAtFinalize, // uninstrumented: completes (silently wrong);
                    // instrumented: rt error recorded at mpi_finalize
  DeadlockReported, // cross-communicator cycle: no shared slot exists for
                    // the CC agreement to compare, so the watchdog must
                    // *report* the deadlock (naming every communicator in
                    // the cycle) instead of hanging — instrumented or not
};

struct CorpusEntry {
  std::string name;
  std::string description;
  std::string source;
  /// Static warning kinds that MUST be reported (subset check).
  std::vector<DiagKind> expected_static;
  /// Static warning kinds that must NOT be reported.
  std::vector<DiagKind> forbidden_static;
  DynamicOutcome dynamic = DynamicOutcome::Clean;
  /// Runtime diagnostic kind expected when instrumented (for Caught* cases).
  DiagKind expected_rt = DiagKind::RtCollectiveMismatch;
  /// Ranks/threads the dynamic test should use.
  int32_t ranks = 2;
  int32_t threads = 2;
};

/// The full corpus (stable order; names are unique).
[[nodiscard]] const std::vector<CorpusEntry>& corpus();

/// Lookup by name; aborts if missing (test programming error).
[[nodiscard]] const CorpusEntry& corpus_entry(const std::string& name);

} // namespace parcoach::workloads
