// Process-level counters of the benchmark driver: heap allocations (from a
// replaced global operator new), threads created (from a pthread_create
// interposer) and getrusage. Both hooks live only in parcoach_bench; the
// library and its other binaries never see them.
#pragma once

#include <cstdint>

namespace bench {

struct ProcessCounts {
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t threads_created = 0;
};

/// Allocation counting is off by default, so a plain round pays one
/// predictable branch per allocation and nothing else.
void count_allocations(bool on);

[[nodiscard]] ProcessCounts process_counts();

struct Usage {
  int64_t cpu_ns = 0;       // user + system, all threads
  int64_t ctx_switches = 0; // voluntary + involuntary
  int64_t maxrss_kb = 0;    // peak resident set since exec
};

[[nodiscard]] Usage usage();

} // namespace bench
