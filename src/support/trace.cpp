#include "support/trace.h"

#include "ir/collective.h"
#include "support/json_writer.h"
#include "support/str.h"

#include <algorithm>
#include <ostream>

namespace parcoach {
namespace {

// Globally unique tracer ids key the per-thread buffer cache below: a cached
// (uid, buffer) pair can never be mistaken for a different Tracer that was
// later allocated at the same address.
std::atomic<uint64_t> g_tracer_uids{1};

struct TlsCache {
  uint64_t uid = 0;
  void* buffer = nullptr;
};
struct TlsRegistration {
  TlsCache cache;
  std::weak_ptr<const void> alive; // expires with the Tracer
};
// Fast single-entry cache for the common one-tracer-per-run case, backed by
// the list of (tracer uid, buffer) registrations this thread has made —
// without it, a thread alternating between two live tracers would register a
// fresh ring on every switch. A stale uid in the single entry is harmless:
// uids are never reused, so it simply never matches again. The list sheds
// the entries of destroyed tracers whenever the thread registers anew, so a
// long-lived thread (a cached team worker) that writes into one tracer per
// run keeps it bounded by the tracers still alive.
thread_local TlsCache g_tls;
thread_local std::vector<TlsRegistration> g_tls_all;

size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Decodes a trace_pack_coll payload back into "MPI_Allreduce[sum]" form,
/// matching Signature::str()'s spelling (root appended only when >= 0).
std::string coll_name(int64_t packed, int64_t root = -1) {
  const auto kind = static_cast<int32_t>(packed & 0xff) - 1;
  if (kind < 0 || kind >= ir::kNumCollectiveKinds) return "?";
  std::string name(ir::to_string(static_cast<ir::CollectiveKind>(kind)));
  if (root >= 0) name += str::cat("(root=", root, ")");
  const auto op = static_cast<int32_t>((packed >> 8) & 0xff);
  if (op >= 1 && op <= 8)
    name += str::cat("[", ir::to_string(static_cast<ir::ReduceOp>(op - 1)), "]");
  return name;
}

} // namespace

const char* to_string(TraceEv ev) noexcept {
  switch (ev) {
    case TraceEv::None: return "none";
    case TraceEv::CollEnter: return "coll_enter";
    case TraceEv::CollExit: return "coll_exit";
    case TraceEv::SlotClaim: return "slot_claim";
    case TraceEv::SlotArrive: return "slot_arrive";
    case TraceEv::SlotComplete: return "slot_complete";
    case TraceEv::CcPublish: return "cc_publish";
    case TraceEv::CcCompare: return "cc_compare";
    case TraceEv::CcMismatch: return "cc_mismatch";
    case TraceEv::ReqIssue: return "req_issue";
    case TraceEv::ReqWait: return "req_wait";
    case TraceEv::ReqComplete: return "req_complete";
    case TraceEv::CommCreate: return "comm_create";
    case TraceEv::CommFree: return "comm_free";
    case TraceEv::Park: return "park";
    case TraceEv::Unpark: return "unpark";
    case TraceEv::WatchdogTick: return "watchdog_tick";
    case TraceEv::Deadlock: return "deadlock";
    case TraceEv::RankFail: return "rank_fail";
    case TraceEv::CommRevoke: return "comm_revoke";
    case TraceEv::RecoveryDone: return "recovery_done";
  }
  return "?";
}

Tracer::Tracer(Options opts)
    : opts_(opts),
      uid_(g_tracer_uids.fetch_add(1, std::memory_order_relaxed)),
      alive_(std::make_shared<const char>()),
      epoch_(std::chrono::steady_clock::now()) {
  opts_.ring_capacity = round_up_pow2(std::max<size_t>(opts_.ring_capacity, 8));
}

Tracer::~Tracer() = default;

int64_t Tracer::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (g_tls.uid == uid_) return *static_cast<ThreadBuffer*>(g_tls.buffer);
  for (const TlsRegistration& entry : g_tls_all) {
    if (entry.cache.uid == uid_) {
      g_tls = entry.cache;
      return *static_cast<ThreadBuffer*>(entry.cache.buffer);
    }
  }
  std::scoped_lock lk(mu_);
  auto tb = std::make_unique<ThreadBuffer>();
  tb->ring = std::make_unique<Rec[]>(opts_.ring_capacity);
  tb->mask = opts_.ring_capacity - 1;
  tb->tid = static_cast<int32_t>(buffers_.size());
  ThreadBuffer& ref = *tb;
  buffers_.push_back(std::move(tb));
  g_tls = {uid_, &ref};
  std::erase_if(g_tls_all,
                [](const TlsRegistration& r) { return r.alive.expired(); });
  g_tls_all.push_back({g_tls, alive_});
  return ref;
}

size_t Tracer::thread_registrations() noexcept { return g_tls_all.size(); }

void Tracer::emit(TraceEv kind, int32_t rank, int64_t a, int64_t b,
                  int64_t c) noexcept {
  ThreadBuffer& tb = buffer();
  const uint64_t pos = tb.head.load(std::memory_order_relaxed);
  Rec& r = tb.ring[pos & tb.mask];
  r.ts.store(now_ns(), std::memory_order_relaxed);
  r.a.store(a, std::memory_order_relaxed);
  r.b.store(b, std::memory_order_relaxed);
  r.c.store(c, std::memory_order_relaxed);
  r.kind.store(static_cast<int32_t>(kind), std::memory_order_relaxed);
  r.rank.store(rank, std::memory_order_relaxed);
  // Publish: readers that acquire `head` see every field of slots < head.
  tb.head.store(pos + 1, std::memory_order_release);
}

void Tracer::register_comm(int32_t comm_id, const std::string& name) {
  std::scoped_lock lk(mu_);
  comm_names_[comm_id] = name;
}

void Tracer::decode_ring(const ThreadBuffer& tb,
                         std::vector<TraceEvent>& out) const {
  const uint64_t head = tb.head.load(std::memory_order_acquire);
  const size_t cap = tb.mask + 1;
  const uint64_t first = head > cap ? head - cap : 0;
  for (uint64_t i = first; i < head; ++i) {
    const Rec& r = tb.ring[i & tb.mask];
    const int32_t k = r.kind.load(std::memory_order_relaxed);
    // A writer lapping us may have torn the oldest slots; skip anything
    // whose kind is out of range (including still-zero None slots).
    if (k <= 0 || k > static_cast<int32_t>(TraceEv::Deadlock)) continue;
    TraceEvent e;
    e.ts_ns = r.ts.load(std::memory_order_relaxed);
    e.kind = static_cast<TraceEv>(k);
    e.tid = tb.tid;
    e.rank = r.rank.load(std::memory_order_relaxed);
    e.a = r.a.load(std::memory_order_relaxed);
    e.b = r.b.load(std::memory_order_relaxed);
    e.c = r.c.load(std::memory_order_relaxed);
    out.push_back(e);
  }
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<const ThreadBuffer*> bufs;
  {
    std::scoped_lock lk(mu_);
    bufs.reserve(buffers_.size());
    for (const auto& b : buffers_) bufs.push_back(b.get());
  }
  std::vector<TraceEvent> out;
  for (const ThreadBuffer* tb : bufs) decode_ring(*tb, out);
  std::sort(out.begin(), out.end(), [](const TraceEvent& x, const TraceEvent& y) {
    return x.ts_ns != y.ts_ns ? x.ts_ns < y.ts_ns : x.tid < y.tid;
  });
  return out;
}

uint64_t Tracer::events_captured() const {
  std::scoped_lock lk(mu_);
  uint64_t total = 0;
  for (const auto& b : buffers_)
    total += b->head.load(std::memory_order_acquire);
  return total;
}

uint64_t Tracer::events_dropped() const {
  std::scoped_lock lk(mu_);
  const uint64_t cap = opts_.ring_capacity;
  uint64_t dropped = 0;
  for (const auto& b : buffers_) {
    const uint64_t head = b->head.load(std::memory_order_acquire);
    if (head > cap) dropped += head - cap;
  }
  return dropped;
}

std::string Tracer::comm_label(int64_t comm_id) const {
  // Callers hold no lock; comm registration is cold, so a short lock here
  // (export/report path only) is fine.
  std::scoped_lock lk(mu_);
  const auto it = comm_names_.find(comm_id);
  return it != comm_names_.end() ? it->second : str::cat("comm#", comm_id);
}

std::string Tracer::describe(const TraceEvent& e) const {
  switch (e.kind) {
    case TraceEv::CollEnter: return str::cat("enter ", coll_name(e.a, e.b));
    case TraceEv::CollExit: return str::cat("exit ", coll_name(e.a, e.b));
    case TraceEv::SlotClaim:
      return str::cat("claim ", comm_label(e.b), " slot ", e.a);
    case TraceEv::SlotArrive:
      return str::cat("arrive ", comm_label(e.b), " slot ", e.a, " with ",
                      coll_name(e.c));
    case TraceEv::SlotComplete:
      return str::cat("complete ", comm_label(e.b), " slot ", e.a);
    case TraceEv::CcPublish:
      return str::cat("cc publish on ", comm_label(e.b), " slot ", e.a);
    case TraceEv::CcCompare:
      return str::cat("cc compare on ", comm_label(e.b), " slot ", e.a,
                      e.c ? " (MISMATCH)" : " (agree)");
    case TraceEv::CcMismatch:
      return str::cat("cc mismatch on ", comm_label(e.b), " slot ", e.a);
    case TraceEv::ReqIssue:
      return str::cat("issue request ", e.a, " on ", comm_label(e.b), " slot ",
                      e.c);
    case TraceEv::ReqWait: return str::cat("wait request ", e.a);
    case TraceEv::ReqComplete:
      return str::cat("request ", e.a, " complete", e.c ? " (via test)" : "");
    case TraceEv::CommCreate:
      return str::cat("create ", comm_label(e.a), " (size ", e.b, ")");
    case TraceEv::CommFree: return str::cat("free ", comm_label(e.a));
    case TraceEv::Park: {
      if (e.c & kTraceParkSend)
        return str::cat("park in send to rank ", e.a);
      if (e.c & kTraceParkRecv)
        return str::cat("park in recv from rank ", e.a);
      std::string s = str::cat("park on ", comm_label(e.b), " slot ", e.a,
                               " in ", coll_name(e.c & 0xffff));
      if (e.c & kTraceParkInWait) s += " (in MPI_Wait)";
      if (e.c & kTraceParkMismatch) s += " (signature mismatch)";
      return s;
    }
    case TraceEv::Unpark: return "unpark";
    case TraceEv::WatchdogTick: return "watchdog tick";
    case TraceEv::Deadlock: return "watchdog: deadlock declared";
    case TraceEv::RankFail: return str::cat("rank ", e.a, " failed");
    case TraceEv::CommRevoke: return str::cat("revoke ", comm_label(e.a));
    case TraceEv::RecoveryDone:
      return str::cat("recovery ", e.a, " on ", comm_label(e.b), " done (",
                      e.c, " survivors)");
    case TraceEv::None: break;
  }
  return "?";
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const auto events = snapshot();
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.key("traceEvents").begin_array();

  // Track metadata: one process per rank (pid = rank), one thread per ring
  // buffer (tid). The schema test requires ts/ph/pid/tid/name on *every*
  // event, metadata included.
  std::vector<std::pair<int32_t, int32_t>> tracks; // (rank, tid) seen
  for (const auto& e : events) {
    if (std::find(tracks.begin(), tracks.end(),
                  std::make_pair(e.rank, e.tid)) == tracks.end())
      tracks.emplace_back(e.rank, e.tid);
  }
  std::sort(tracks.begin(), tracks.end());
  int32_t last_rank = INT32_MIN;
  for (const auto& [rank, tid] : tracks) {
    if (rank != last_rank) {
      last_rank = rank;
      w.begin_object();
      w.kv("name", "process_name").kv("ph", "M").kv("ts", 0);
      w.kv("pid", rank).kv("tid", 0);
      w.key("args").begin_object();
      w.kv("name", rank < 0 ? std::string("runtime (watchdog)")
                            : str::cat("rank ", rank));
      w.end_object();
      w.end_object();
    }
    w.begin_object();
    w.kv("name", "thread_name").kv("ph", "M").kv("ts", 0);
    w.kv("pid", rank).kv("tid", tid);
    w.key("args").begin_object();
    w.kv("name", str::cat("thread ", tid));
    w.end_object();
    w.end_object();
  }

  for (const auto& e : events) {
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    const char* ph = "i";
    std::string name;
    switch (e.kind) {
      case TraceEv::CollEnter:
        ph = "B";
        name = coll_name(e.a, e.b);
        break;
      case TraceEv::CollExit:
        ph = "E";
        name = coll_name(e.a, e.b);
        break;
      case TraceEv::Park:
        ph = "B";
        name = "blocked";
        break;
      case TraceEv::Unpark:
        ph = "E";
        name = "blocked";
        break;
      default:
        name = to_string(e.kind);
        break;
    }
    w.begin_object();
    w.kv("name", name).kv("ph", ph).kv("ts", ts_us, 3);
    w.kv("pid", e.rank).kv("tid", e.tid);
    if (ph[0] == 'i') w.kv("s", "t"); // thread-scoped instant
    // Payload details (decoded labels) ride in args for the instant and
    // park events where they matter most.
    switch (e.kind) {
      case TraceEv::SlotClaim:
      case TraceEv::SlotComplete:
      case TraceEv::CcPublish:
      case TraceEv::CcMismatch:
        w.key("args").begin_object();
        w.kv("comm", comm_label(e.b)).kv("slot", e.a);
        w.end_object();
        break;
      case TraceEv::SlotArrive:
        w.key("args").begin_object();
        w.kv("comm", comm_label(e.b)).kv("slot", e.a);
        w.kv("sig", coll_name(e.c));
        w.end_object();
        break;
      case TraceEv::CcCompare:
        w.key("args").begin_object();
        w.kv("comm", comm_label(e.b)).kv("slot", e.a);
        w.kv("mismatch", e.c != 0);
        w.end_object();
        break;
      case TraceEv::ReqIssue:
        w.key("args").begin_object();
        w.kv("request", e.a).kv("comm", comm_label(e.b)).kv("slot", e.c);
        w.end_object();
        break;
      case TraceEv::ReqWait:
      case TraceEv::ReqComplete:
        w.key("args").begin_object();
        w.kv("request", e.a);
        w.end_object();
        break;
      case TraceEv::CommCreate:
        w.key("args").begin_object();
        w.kv("comm", comm_label(e.a)).kv("size", e.b);
        w.end_object();
        break;
      case TraceEv::CommFree:
        w.key("args").begin_object();
        w.kv("comm", comm_label(e.a));
        w.end_object();
        break;
      case TraceEv::Park:
        w.key("args").begin_object();
        w.kv("detail", describe(e));
        w.end_object();
        break;
      default:
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  os << '\n';
}

std::string Tracer::flight_recorder(const std::vector<int32_t>& ranks,
                                    size_t per_rank) const {
  const auto events = snapshot();
  std::string out = str::cat(kFlightRecorderMarker, " (last ", per_rank,
                             " events per blocked rank) ---\n");
  for (const int32_t rank : ranks) {
    std::vector<const TraceEvent*> mine;
    for (const auto& e : events)
      if (e.rank == rank) mine.push_back(&e);
    out += str::cat("  rank ", rank, ":\n");
    if (mine.empty()) {
      out += "    (no events recorded)\n";
      continue;
    }
    const size_t first = mine.size() > per_rank ? mine.size() - per_rank : 0;
    for (size_t i = first; i < mine.size(); ++i) {
      const TraceEvent& e = *mine[i];
      out += str::cat("    [", e.ts_ns / 1000, "us t", e.tid, "] ",
                      describe(e), "\n");
    }
  }
  return out;
}

} // namespace parcoach
