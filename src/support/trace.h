// Flight-recorder tracing: per-thread lock-free ring buffers of POD event
// records, exported as Chrome trace-event JSON and replayed into the
// watchdog's deadlock report.
//
// Hot-path contract (the `cc_lane_enabled` discipline): components cache an
// *effective* `Tracer*` at construction — null when tracing is absent or
// disabled — so every emit point in the runtime is a single predictable
// `if (trace_)` branch. `emit()` itself allocates nothing and formats no
// strings; event payloads are three int64 words whose meaning depends on the
// event kind, and names/labels materialize only at export time (the same
// model as simmpi's `BlockedRecord` / `blocked_snapshot()`).
//
// Concurrency: each registered thread owns one ring of relaxed-atomic slots
// plus a release-stored head counter. Writers never block or wait; readers
// (`snapshot()`, `flight_recorder()`, the exporters) acquire the head and
// read slots lock-free, so the watchdog can dump a live world without
// stopping it. A writer lapping the reader can tear the *oldest* events in
// a ring; decoders bounds-check the kind and tolerate garbage payloads in
// that sliver rather than making writers wait.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parcoach {

/// Event kinds recorded by the runtime. Values are stable within a build
/// only — the JSON export writes names, never these raw values.
enum class TraceEv : int32_t {
  None = 0,      // unwritten / torn slot; decoders skip it
  CollEnter,     // a=packed collective (see trace_pack_coll), b=root
  CollExit,      // same payload as the matching CollEnter
  SlotClaim,     // a=slot, b=comm_id
  SlotArrive,    // a=slot, b=comm_id, c=packed signature
  SlotComplete,  // a=slot, b=comm_id
  CcPublish,     // a=slot, b=comm_id, c=raw CC id
  CcCompare,     // a=slot, b=comm_id, c=1 if mismatch
  CcMismatch,    // a=slot, b=comm_id
  ReqIssue,      // a=request id, b=comm_id, c=slot
  ReqWait,       // a=request id
  ReqComplete,   // a=request id, c=1 when completed via test()
  CommCreate,    // a=comm_id, b=size (rank = -1: registry-side event)
  CommFree,      // a=comm_id
  Park,          // a=slot (or peer for p2p), b=comm_id, c=packed sig | flags
  Unpark,        // same payload as the matching Park
  WatchdogTick,  // rank = -1
  Deadlock,      // rank = -1: the watchdog declared a deadlock
  RankFail,      // a=dead world rank (ULFM return-mode crash)
  CommRevoke,    // a=comm_id
  RecoveryDone,  // a=recovery event seq, b=comm_id, c=survivor count
};

[[nodiscard]] const char* to_string(TraceEv ev) noexcept;

/// Packs a collective kind + reduce op into one payload word so emit points
/// never touch strings: low byte = kind + 1, next byte = op + 1 (0 = none).
[[nodiscard]] constexpr int64_t trace_pack_coll(int32_t kind,
                                                int32_t op_plus1) noexcept {
  return (static_cast<int64_t>(op_plus1) << 8) |
         static_cast<int64_t>(kind + 1);
}

// Flag bits OR-ed into the Park/Unpark `c` payload above the packed
// signature (bits 0..15).
inline constexpr int64_t kTraceParkMismatch = int64_t{1} << 16;
inline constexpr int64_t kTraceParkInWait = int64_t{1} << 17;
inline constexpr int64_t kTraceParkSend = int64_t{1} << 18;
inline constexpr int64_t kTraceParkRecv = int64_t{1} << 19;

/// A decoded event, materialized by readers only.
struct TraceEvent {
  int64_t ts_ns = 0; // monotonic, relative to the tracer's construction
  TraceEv kind = TraceEv::None;
  int32_t tid = 0;  // per-tracer thread registration order
  int32_t rank = 0; // world rank; -1 for runtime-side events
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

/// Marker line introducing the flight-recorder appendix appended to a
/// watchdog deadlock report. Tests strip everything from this marker on when
/// comparing traced vs untraced runs.
inline constexpr const char* kFlightRecorderMarker = "--- flight recorder";

struct TracerOptions {
  bool enabled = true;
  /// Events retained per thread; rounded up to a power of two.
  size_t ring_capacity = 256;
};

class Tracer {
public:
  using Options = TracerOptions;

  explicit Tracer(Options opts = Options());
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The pointer components should cache: null unless `t` is non-null and
  /// enabled, so the disabled hot path is one branch on a cached pointer.
  [[nodiscard]] static Tracer* effective(Tracer* t) noexcept {
    return (t && t->opts_.enabled) ? t : nullptr;
  }

  [[nodiscard]] bool enabled() const noexcept { return opts_.enabled; }

  /// Records one event into the calling thread's ring. Lock-free after the
  /// thread's first emit (which registers a buffer under the mutex).
  void emit(TraceEv kind, int32_t rank, int64_t a = 0, int64_t b = 0,
            int64_t c = 0) noexcept;

  /// Associates a comm id with its name for export-time labels. Cold path.
  void register_comm(int32_t comm_id, const std::string& name);

  /// All decoded events across threads, oldest first (ts order).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Total events emitted / overwritten-before-read across all threads.
  [[nodiscard]] uint64_t events_captured() const;
  [[nodiscard]] uint64_t events_dropped() const;

  /// Chrome trace-event JSON (the "JSON object" flavour wrapped in
  /// {"traceEvents": [...]}): one track per (rank, thread), duration events
  /// for collectives and parked intervals, instant events for the rest.
  /// Loads directly in Perfetto / chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

  /// The deadlock appendix: for each listed world rank, its last
  /// `per_rank` events as human-readable lines, newest last. Starts with
  /// kFlightRecorderMarker; empty ranks are reported as such.
  [[nodiscard]] std::string flight_recorder(const std::vector<int32_t>& ranks,
                                            size_t per_rank = 8) const;

  /// Human-readable one-liner for a decoded event (flight recorder body).
  [[nodiscard]] std::string describe(const TraceEvent& e) const;

  /// Tracers the calling thread holds a buffer registration for. Entries of
  /// destroyed tracers are shed at the thread's next registration.
  [[nodiscard]] static size_t thread_registrations() noexcept;

private:
  // One ring slot. All-relaxed atomic fields + the buffer's release-stored
  // head make concurrent reads TSan-clean without slowing writers (plain
  // stores on x86/ARM).
  struct Rec {
    std::atomic<int64_t> ts{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
    std::atomic<int32_t> kind{0};
    std::atomic<int32_t> rank{0};
  };

  struct ThreadBuffer {
    std::unique_ptr<Rec[]> ring;
    size_t mask = 0;
    int32_t tid = 0;
    std::atomic<uint64_t> head{0}; // total events ever written
  };

  [[nodiscard]] ThreadBuffer& buffer();
  [[nodiscard]] int64_t now_ns() const noexcept;
  void decode_ring(const ThreadBuffer& tb, std::vector<TraceEvent>& out) const;
  [[nodiscard]] std::string comm_label(int64_t comm_id) const;

  Options opts_;
  const uint64_t uid_;                  // globally unique; keys the TLS cache
  std::shared_ptr<const void> alive_;   // TLS registrations watch its expiry
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;               // guards buffers_ / comm_names_ lists
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<int64_t, std::string> comm_names_;
};

/// RAII collective span: emits CollEnter on construction and the matching
/// CollExit on destruction (including exception unwind, so every "B" event
/// in the export has its "E"). No-op when `t` is null.
struct TraceSpan {
  TraceSpan(Tracer* t, int32_t rank, int64_t packed, int64_t root) noexcept
      : t_(t), rank_(rank), packed_(packed), root_(root) {
    if (t_) t_->emit(TraceEv::CollEnter, rank_, packed_, root_);
  }
  ~TraceSpan() {
    if (t_) t_->emit(TraceEv::CollExit, rank_, packed_, root_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

private:
  Tracer* t_;
  int32_t rank_;
  int64_t packed_;
  int64_t root_;
};

} // namespace parcoach
