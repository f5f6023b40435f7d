#include "miniomp/team.h"

#include "support/spin_wait.h"

#include <algorithm>
#include <memory>
#include <thread>

namespace parcoach::miniomp {

int32_t ThreadContext::team_size() const noexcept {
  return team ? team->size() : 1;
}

bool ThreadContext::in_parallel() const noexcept {
  for (const ThreadContext* c = this; c; c = c->parent)
    if (c->team && c->team->size() > 1) return true;
  return false;
}

int32_t ThreadContext::active_level() const noexcept {
  int32_t n = 0;
  for (const ThreadContext* c = this; c; c = c->parent)
    if (c->team && c->team->size() > 1) ++n;
  return n;
}

Team::Team(int32_t size) : size_(size) {}

void Team::barrier() {
  if (size_ == 1) {
    if (cancelled()) throw TeamCancelled();
    return;
  }
  uint64_t gen = 0;
  {
    std::scoped_lock lk(mu_);
    if (cancelled()) throw TeamCancelled();
    gen = generation_.load(std::memory_order_relaxed);
    if (++arrived_ == size_) {
      arrived_ = 0;
      generation_.store(gen + 1, std::memory_order_release);
      cv_.notify_all();
      return;
    }
  }
  spin_then_wait(mu_, cv_, [&] {
    return generation_.load(std::memory_order_acquire) != gen || cancelled();
  });
  if (generation_.load(std::memory_order_acquire) == gen)
    throw TeamCancelled();
}

bool Team::claim_single(uint64_t construct_id) {
  std::scoped_lock lk(mu_);
  if (cancelled()) throw TeamCancelled();
  auto [it, inserted] = single_claims_.emplace(construct_id, true);
  return inserted;
}

int32_t Team::next_section(uint64_t construct_id, int32_t num_sections) {
  std::scoped_lock lk(mu_);
  if (cancelled()) throw TeamCancelled();
  int32_t& next = section_next_[construct_id];
  if (next >= num_sections) return -1;
  return next++;
}

void Team::cancel() noexcept {
  {
    std::scoped_lock lk(mu_);
    cancelled_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

bool Team::cancelled() const noexcept {
  return cancelled_.load(std::memory_order_acquire);
}

namespace {

/// One cached worker thread. Every piece of hand-off state lives here, not
/// in a region's frame, so the master may leave a region as soon as each
/// worker it borrowed has reported its task finished.
struct Worker {
  using Fn = void (*)(void*, int32_t);

  std::mutex mu;
  std::condition_variable cv; // the master and this worker, never both waiting
  // The master bumps `posted` once per task; the worker copies the value to
  // `finished` when the task has returned.
  std::atomic<uint64_t> posted{0};
  std::atomic<uint64_t> finished{0};
  // Written by the master before its release store of `posted`. A null `fn`
  // is the pool's stop task: the loop returns.
  Fn fn = nullptr;
  void* arg = nullptr;
  int32_t tid = 0;
  std::thread thread; // last: runs loop(), which uses every member above

  void post(Fn f, void* a, int32_t t) {
    fn = f;
    arg = a;
    tid = t;
    {
      std::scoped_lock lk(mu);
      posted.store(posted.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    }
    cv.notify_all();
  }

  /// Returns once the last posted task has finished.
  void join() {
    const uint64_t seq = posted.load(std::memory_order_relaxed);
    spin_then_wait(mu, cv, [&] {
      return finished.load(std::memory_order_acquire) == seq;
    });
  }

  void loop() {
    uint64_t seen = 0;
    for (;;) {
      spin_then_wait(mu, cv, [&] {
        return posted.load(std::memory_order_acquire) != seen;
      });
      seen = posted.load(std::memory_order_acquire);
      if (!fn) return;
      fn(arg, tid);
      {
        std::scoped_lock lk(mu);
        finished.store(seen, std::memory_order_release);
      }
      cv.notify_all();
    }
  }
};

/// The process-wide cache of parked workers. A region borrows idle workers
/// and creates one only when none is idle, so nested teams never starve.
/// Workers stay parked between regions until the process exits.
class WorkerPool {
public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs at process exit, when every worker is idle: each region joins its
  /// crew before it returns, and every rank thread has been joined.
  ~WorkerPool() {
    for (auto& w : all_) w->post(nullptr, nullptr, 0);
    for (auto& w : all_) w->thread.join();
  }

  /// Appends `n` workers to `crew`, creating threads only for the shortfall.
  void borrow(size_t n, std::vector<Worker*>& crew) {
    {
      std::scoped_lock lk(mu_);
      while (crew.size() < n && !idle_.empty()) {
        crew.push_back(idle_.back());
        idle_.pop_back();
      }
    }
    try {
      while (crew.size() < n) {
        auto w = std::make_unique<Worker>();
        w->thread = std::thread([raw = w.get()] { raw->loop(); });
        crew.push_back(w.get());
        std::scoped_lock lk(mu_);
        all_.push_back(std::move(w));
      }
    } catch (...) {
      give_back(crew);
      throw;
    }
  }

  void give_back(const std::vector<Worker*>& crew) {
    std::scoped_lock lk(mu_);
    idle_.insert(idle_.end(), crew.begin(), crew.end());
  }

  [[nodiscard]] size_t size() {
    std::scoped_lock lk(mu_);
    return all_.size();
  }

private:
  std::mutex mu_;
  std::vector<Worker*> idle_;
  std::vector<std::unique_ptr<Worker>> all_;
};

WorkerPool& pool() {
  static WorkerPool p;
  return p;
}

} // namespace

void Runtime::parallel(const ThreadContext& parent, int32_t num_threads,
                       bool if_clause,
                       const std::function<void(ThreadContext&)>& body) {
  const int32_t n = (!if_clause || num_threads < 1) ? 1 : num_threads;
  Team team(n);

  std::exception_ptr first_error;
  std::mutex error_mu;
  auto run_member = [&](int32_t tid) {
    ThreadContext ctx;
    ctx.team = &team;
    ctx.thread_num = tid;
    ctx.parent = &parent;
    ctx.domain = parent.domain;
    try {
      if (ctx.domain && ctx.domain->spawn_jitter) ctx.domain->spawn_jitter(tid);
      body(ctx);
      team.barrier(); // implicit join barrier
    } catch (const TeamCancelled&) {
      // Another member failed first; unwind quietly.
    } catch (...) {
      {
        std::scoped_lock lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      team.cancel();
    }
  };
  using Member = decltype(run_member);
  const Worker::Fn run = [](void* member, int32_t tid) {
    (*static_cast<Member*>(member))(tid);
  };

  std::vector<Worker*> crew;
  if (n > 1) {
    crew.reserve(static_cast<size_t>(n - 1));
    pool().borrow(static_cast<size_t>(n - 1), crew);
  }
  for (size_t i = 0; i < crew.size(); ++i)
    crew[i]->post(run, &run_member, static_cast<int32_t>(i + 1));
  run_member(0);
  for (Worker* w : crew) w->join();
  if (!crew.empty()) pool().give_back(crew);
  if (first_error) std::rethrow_exception(first_error);
}

size_t Runtime::worker_count() { return pool().size(); }

void Runtime::single(ThreadContext& ctx, uint64_t construct_id, bool nowait,
                     const std::function<void()>& body) {
  if (!ctx.team) { // orphaned at serial level: team of one
    body();
    return;
  }
  Team& team = *ctx.team;
  if (team.claim_single(construct_id)) body();
  if (!nowait) team.barrier();
}

void Runtime::master(ThreadContext& ctx, const std::function<void()>& body) {
  if (ctx.thread_num == 0) body();
}

void Runtime::critical(ThreadContext& ctx, const std::function<void()>& body) {
  static std::mutex fallback;
  ProcessDomain* domain = nullptr;
  for (const ThreadContext* c = &ctx; c; c = c->parent)
    if (c->domain) {
      domain = c->domain;
      break;
    }
  std::scoped_lock lk(domain ? domain->critical_mu : fallback);
  body();
}

void Runtime::barrier(ThreadContext& ctx) {
  if (ctx.team) ctx.team->barrier();
}

void Runtime::sections(ThreadContext& ctx, uint64_t construct_id, bool nowait,
                       const std::vector<std::function<void()>>& bodies) {
  if (!ctx.team) {
    for (const auto& b : bodies) b();
    return;
  }
  Team& team = *ctx.team;
  const int32_t n = static_cast<int32_t>(bodies.size());
  for (;;) {
    const int32_t idx = team.next_section(construct_id, n);
    if (idx < 0) break;
    bodies[static_cast<size_t>(idx)]();
  }
  if (!nowait) team.barrier();
}

void Runtime::ws_for(ThreadContext& ctx, bool nowait, int64_t lo, int64_t hi,
                     const std::function<void(int64_t)>& body) {
  const int64_t n = ctx.team_size();
  const int64_t tid = ctx.thread_num;
  const int64_t total = hi > lo ? hi - lo : 0;
  const int64_t chunk = (total + n - 1) / (n > 0 ? n : 1);
  const int64_t begin = lo + tid * chunk;
  const int64_t end = std::min(hi, begin + chunk);
  for (int64_t i = begin; i < end; ++i) body(i);
  if (!nowait && ctx.team) ctx.team->barrier();
}

} // namespace parcoach::miniomp
