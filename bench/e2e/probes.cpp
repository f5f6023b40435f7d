#include "probes.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include <dlfcn.h>
#include <pthread.h>
#include <sys/resource.h>

namespace {

// Sharded tallies: rank and team threads allocate concurrently, and one shared
// counter would put a contended cache line on every allocation of a counted
// round.
constexpr unsigned kShards = 64;

struct alignas(64) Shard {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> bytes{0};
};

Shard g_shards[kShards];
std::atomic<unsigned> g_next_shard{0};
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_threads_created{0};

thread_local const unsigned t_shard =
    g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;

} // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    Shard& s = g_shards[t_shard];
    s.allocs.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const auto real =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  g_threads_created.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace bench {

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

ProcessCounts process_counts() {
  ProcessCounts c;
  for (const Shard& s : g_shards) {
    c.allocs += s.allocs.load(std::memory_order_relaxed);
    c.alloc_bytes += s.bytes.load(std::memory_order_relaxed);
  }
  c.threads_created = g_threads_created.load(std::memory_order_relaxed);
  return c;
}

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<int64_t>(tv.tv_usec) * 1'000;
  };
  Usage u;
  u.cpu_ns = ns(ru.ru_utime) + ns(ru.ru_stime);
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  // Not ru_maxrss: Linux carries it across execve, so a process started by
  // a larger parent reports the parent's peak. VmHWM starts fresh at exec.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) u.maxrss_kb = std::stoll(line.substr(6));
  return u;
}

} // namespace bench
