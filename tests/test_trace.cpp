// Unit tests: the observability layer — flight-recorder ring buffers, the
// metrics registry, the shared JSON writer, and the Chrome trace-event
// export (schema-validated with a minimal JSON parser, so a regression that
// breaks Perfetto loading fails here instead of in someone's browser), and
// the zero-overhead-when-off contract as an exact event count.
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/json_writer.h"
#include "support/metrics.h"
#include "support/str.h"
#include "support/trace.h"
#include "workloads/workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace parcoach {
namespace {

// ---- JsonWriter ---------------------------------------------------------

TEST(JsonWriter, EscapesStringsPerRfc8259) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("k\"ey", "a\\b\"c\n\t\x01z");
  w.end_object();
  EXPECT_EQ(os.str(), R"({"k\"ey":"a\\b\"c\n\t\u0001z"})");
}

TEST(JsonWriter, NestedContainersAndNumbers) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.value(int64_t{-3});
  w.value(true);
  w.value(1.5, 2);
  w.begin_object();
  w.kv("n", uint64_t{18446744073709551615ull});
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":[-3,true,1.50,{"n":18446744073709551615}]})");
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("bad", 0.0 / 0.0);
  w.end_object();
  EXPECT_EQ(os.str(), R"({"bad":0})");
}

// ---- MetricsRegistry ----------------------------------------------------

TEST(Metrics, CountersAndGaugesSnapshotSorted) {
  MetricsRegistry m;
  m.counter("zeta").fetch_add(3, std::memory_order_relaxed);
  m.counter("alpha").fetch_add(1, std::memory_order_relaxed);
  m.counter("alpha").fetch_add(1, std::memory_order_relaxed);
  m.set_gauge("mid", -7);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[0].value, 2);
  EXPECT_FALSE(snap[0].is_gauge);
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[1].value, -7);
  EXPECT_TRUE(snap[1].is_gauge);
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[2].value, 3);
}

TEST(Metrics, CounterReferenceIsStable) {
  MetricsRegistry m;
  auto& c = m.counter("x");
  for (int i = 0; i < 100; ++i) (void)m.counter(str::cat("other", i));
  c.fetch_add(5, std::memory_order_relaxed);
  EXPECT_EQ(m.counter("x").load(), 5u);
}

// ---- Tracer ring buffers ------------------------------------------------

TEST(Trace, RingKeepsMostRecentEventsAndCountsDrops) {
  Tracer t(Tracer::Options{true, /*ring_capacity=*/8});
  for (int i = 0; i < 20; ++i)
    t.emit(TraceEv::WatchdogTick, /*rank=*/-1, /*a=*/i);
  EXPECT_EQ(t.events_captured(), 20u);
  EXPECT_EQ(t.events_dropped(), 12u);
  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), 8u);
  for (size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].kind, TraceEv::WatchdogTick);
    EXPECT_EQ(evs[i].a, static_cast<int64_t>(12 + i)); // oldest survivor = 12
  }
}

// Deadlock reports and the Chrome trace's `detail` field render every event
// through describe(); none may fall through to the "?" placeholder.
TEST(Trace, DescribeCoversEveryEvent) {
  Tracer t(Tracer::Options{true, /*ring_capacity=*/8});
  for (auto k = static_cast<int32_t>(TraceEv::CollEnter);
       k <= static_cast<int32_t>(TraceEv::RecoveryDone); ++k) {
    const TraceEvent e{.kind = static_cast<TraceEv>(k), .a = 1, .c = 2};
    EXPECT_NE(t.describe(e), "?") << to_string(e.kind);
  }
}

TEST(Trace, EffectiveFiltersDisabledTracers) {
  Tracer off(Tracer::Options{false, 8});
  Tracer on(Tracer::Options{true, 8});
  EXPECT_EQ(Tracer::effective(nullptr), nullptr);
  EXPECT_EQ(Tracer::effective(&off), nullptr);
  EXPECT_EQ(Tracer::effective(&on), &on);
}

TEST(Trace, SpanEmitsEnterExitPair) {
  Tracer t;
  {
    TraceSpan span(&t, /*rank=*/1, trace_pack_coll(0, 0), /*root=*/-1);
  }
  const auto evs = t.snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, TraceEv::CollEnter);
  EXPECT_EQ(evs[1].kind, TraceEv::CollExit);
  EXPECT_EQ(evs[0].a, evs[1].a);
  EXPECT_LE(evs[0].ts_ns, evs[1].ts_ns);
}

TEST(Trace, ConcurrentEmittersAndReaderStayCoherent) {
  Tracer t(Tracer::Options{true, 64});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i)
        t.emit(TraceEv::SlotClaim, w, i, w, 0);
    });
  }
  std::thread reader([&t, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto evs = t.snapshot();
      for (const auto& e : evs) {
        // Decoded events must never be torn into an out-of-range kind.
        EXPECT_GE(static_cast<int32_t>(e.kind), 1);
        EXPECT_LE(static_cast<int32_t>(e.kind),
                  static_cast<int32_t>(TraceEv::Deadlock));
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(t.events_captured(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Trace, LongLivedThreadShedsRegistrationsOfDestroyedTracers) {
  // A cached team worker outlives every run; one tracer per run must not
  // grow its registration list without bound.
  std::thread worker([] {
    Tracer keeper(Tracer::Options{true, 8}); // stays alive throughout
    keeper.emit(TraceEv::WatchdogTick, /*rank=*/-1, /*a=*/-1);
    size_t most = 0;
    for (int run = 0; run < 10000; ++run) {
      Tracer t(Tracer::Options{true, 8});
      t.emit(TraceEv::SlotClaim, /*rank=*/0, /*a=*/run, /*b=*/1);
      t.emit(TraceEv::SlotComplete, /*rank=*/0, /*a=*/run, /*b=*/2);
      most = std::max(most, Tracer::thread_registrations());
      const auto evs = t.snapshot();
      ASSERT_EQ(evs.size(), 2u);
      EXPECT_EQ(evs[0].kind, TraceEv::SlotClaim);
      EXPECT_EQ(evs[1].kind, TraceEv::SlotComplete);
      EXPECT_EQ(evs[0].a, run);
      EXPECT_EQ(evs[1].a, run);
      EXPECT_EQ(evs[0].tid, 0);
    }
    // Registering each new tracer sheds its destroyed predecessor: only the
    // keeper and the current tracer remain.
    EXPECT_EQ(most, 2u);
    keeper.emit(TraceEv::WatchdogTick, /*rank=*/-1, /*a=*/-2);
    const auto kept = keeper.snapshot();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0].a, -1);
    EXPECT_EQ(kept[1].a, -2);
    EXPECT_EQ(keeper.events_captured(), 2u);
  });
  worker.join();
}

TEST(Trace, FlightRecorderListsRequestedRanks) {
  Tracer t;
  t.register_comm(0, "MPI_COMM_WORLD");
  t.emit(TraceEv::SlotClaim, 0, /*slot=*/3, /*comm=*/0);
  t.emit(TraceEv::Park, 1, /*slot=*/3, /*comm=*/0, trace_pack_coll(0, 0));
  const std::string fr = t.flight_recorder({0, 1, 2}, /*per_rank=*/4);
  EXPECT_TRUE(str::contains(fr, kFlightRecorderMarker));
  EXPECT_TRUE(str::contains(fr, "rank 0:"));
  EXPECT_TRUE(str::contains(fr, "rank 1:"));
  EXPECT_TRUE(str::contains(fr, "rank 2:"));
  EXPECT_TRUE(str::contains(fr, "MPI_COMM_WORLD"));
  EXPECT_TRUE(str::contains(fr, "(no events recorded)")); // rank 2 is silent
}

// ---- Minimal JSON parser (validation only) ------------------------------
//
// Just enough JSON to validate the Chrome trace export: objects, arrays,
// strings with escapes, numbers, true/false/null. Throws std::runtime_error
// on malformed input.

struct JsonValue {
  enum class Kind { Object, Array, String, Number, Bool, Null } kind;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  [[nodiscard]] bool has(const std::string& k) const {
    return object.count(k) > 0;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(str::cat("JSON error at offset ", pos_, ": ",
                                      what));
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
    case '{': return object();
    case '[': return array();
    case '"': return string_value();
    case 't': return keyword("true", JsonValue{JsonValue::Kind::Bool});
    case 'f': return keyword("false", JsonValue{JsonValue::Kind::Bool});
    case 'n': return keyword("null", JsonValue{JsonValue::Kind::Null});
    default: return number();
    }
  }

  JsonValue keyword(const char* word, JsonValue v) {
    const size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) fail("bad keyword");
    pos_ += n;
    v.boolean = word[0] == 't';
    return v;
  }

  JsonValue object() {
    JsonValue v{JsonValue::Kind::Object};
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace(key.string, value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v{JsonValue::Kind::Array};
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v{JsonValue::Kind::String};
    expect('"');
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c == '\\') {
        const char e = peek();
        ++pos_;
        switch (e) {
        case '"': v.string += '"'; break;
        case '\\': v.string += '\\'; break;
        case '/': v.string += '/'; break;
        case 'b': v.string += '\b'; break;
        case 'f': v.string += '\f'; break;
        case 'n': v.string += '\n'; break;
        case 'r': v.string += '\r'; break;
        case 't': v.string += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          v.string += '?'; // validation only; code point not reconstructed
          pos_ += 4;
          break;
        }
        default: fail("bad escape");
        }
      } else {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control char");
        v.string += c;
      }
    }
  }

  JsonValue number() {
    JsonValue v{JsonValue::Kind::Number};
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- Chrome trace export schema ----------------------------------------

interp::ExecResult run_traced(const std::string& name,
                              const std::string& source, Tracer& tracer,
                              MetricsRegistry* metrics, int32_t ranks,
                              int32_t threads, int32_t timeout_ms,
                              interp::Engine engine =
                                  interp::Engine::Bytecode) {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, name, source, diags, popts);
  EXPECT_TRUE(r.ok) << diags.to_text(sm);
  interp::Executor exec(r.program, sm, &r.plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = ranks;
  eopts.num_threads = threads;
  eopts.engine = engine;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(timeout_ms);
  eopts.tracer = &tracer;
  eopts.metrics = metrics;
  return exec.run(eopts);
}

// ---- Zero overhead when off ------------------------------------------------

// The funneled-barrier kernel: 2 ranks x 2 threads, each team's master calls
// mpi_barrier between two team barriers, so both engines, the team runtime
// and the slot engine all pass their emit points on every iteration.
constexpr const char* kFunneledBarrier = R"(func main() {
  mpi_init(serialized);
  for (r = 0 to 150) {
    omp parallel num_threads(2) {
      omp barrier;
      omp master {
        mpi_barrier();
      }
      omp barrier;
    }
  }
  mpi_finalize();
})";

TEST(TraceOff, DisabledTracerIsNeverReached) {
  // Tracer::emit does not check `enabled`, so any emit point that bypasses
  // Tracer::effective() records events.
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    Tracer off(Tracer::Options{/*enabled=*/false});
    const auto result = run_traced("funneled_barrier", kFunneledBarrier, off,
                                   nullptr, 2, 2, 5000, engine);
    EXPECT_TRUE(result.clean)
        << to_string(engine) << ": " << result.mpi.abort_reason;
    EXPECT_EQ(off.events_captured(), 0u) << to_string(engine);

    // The same kernel under an enabled tracer does reach the emit points.
    Tracer on;
    run_traced("funneled_barrier", kFunneledBarrier, on, nullptr, 2, 2, 5000,
               engine);
    EXPECT_GT(on.events_captured(), 0u) << to_string(engine);
  }
}

TEST(TraceExport, NpbMzChromeTraceIsSchemaValid) {
  workloads::NpbParams p;
  p.zones = 2;
  p.stages = 2;
  p.steps = 2;
  p.threads = 2;
  p.zone_comms = true;
  const auto g = workloads::make_npb_mz(workloads::NpbVariant::BT, p);
  Tracer tracer(Tracer::Options{true, /*ring_capacity=*/4096});
  MetricsRegistry metrics;
  const auto result =
      run_traced(g.name, g.source, tracer, &metrics, 2, 2, 5000);
  EXPECT_TRUE(result.clean) << result.mpi.abort_reason << "\n"
                            << result.mpi.deadlock_details;
  EXPECT_GT(tracer.events_captured(), 0u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::Object);
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.object.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::Array);
  ASSERT_FALSE(events.array.empty());
  size_t begins = 0, ends = 0;
  for (const auto& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::Object);
    for (const char* field : {"name", "ph", "ts", "pid", "tid"})
      EXPECT_TRUE(e.has(field)) << "missing " << field;
    EXPECT_EQ(e.object.at("name").kind, JsonValue::Kind::String);
    EXPECT_EQ(e.object.at("ph").kind, JsonValue::Kind::String);
    EXPECT_EQ(e.object.at("ts").kind, JsonValue::Kind::Number);
    EXPECT_GE(e.object.at("ts").number, 0.0);
    const std::string& ph = e.object.at("ph").string;
    begins += ph == "B";
    ends += ph == "E";
  }
  EXPECT_EQ(begins, ends) << "unbalanced duration events";
  EXPECT_GT(begins, 0u);

  // The metrics registry saw the run, and its snapshot reached the report.
  EXPECT_GT(metrics.counter("cc.rounds").load(), 0u);
  EXPECT_FALSE(result.mpi.metrics.empty());

  // The metrics JSON export parses too.
  std::ostringstream ms;
  metrics.write_json(ms);
  const JsonValue mroot = JsonParser(ms.str()).parse();
  ASSERT_EQ(mroot.kind, JsonValue::Kind::Object);
  EXPECT_TRUE(mroot.has("counters"));
  EXPECT_TRUE(mroot.has("gauges"));
}

// ---- Flight recorder on a real deadlock --------------------------------

TEST(TraceExport, WatchdogReportIncludesFlightRecorder) {
  // Rank 0 enters the guarded bcast while the others head to the barrier:
  // a textbook PARCOACH deadlock, run uninstrumented so it actually hangs.
  const char* buggy = R"(func main() {
  var x = rank();
  if (rank() == 0) {
    x = mpi_bcast(x, 0);
  }
  mpi_barrier();
  mpi_finalize();
})";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::Baseline;
  const auto r = driver::compile(sm, "buggy", buggy, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  Tracer tracer;
  interp::Executor exec(r.program, sm, /*plan=*/nullptr);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(300);
  eopts.tracer = &tracer;
  const auto result = exec.run(eopts);
  ASSERT_TRUE(result.mpi.deadlock);
  EXPECT_TRUE(str::contains(result.mpi.deadlock_details, kFlightRecorderMarker))
      << result.mpi.deadlock_details;
  EXPECT_TRUE(str::contains(result.mpi.deadlock_details, "rank 0:"));
  EXPECT_TRUE(str::contains(result.mpi.deadlock_details, "park"))
      << result.mpi.deadlock_details;
  // The appendix stays out of the per-rank error strings (byte parity for
  // traced vs untraced runs everywhere except deadlock_details).
  for (const auto& e : result.mpi.rank_errors)
    EXPECT_FALSE(str::contains(e, kFlightRecorderMarker)) << e;
}

} // namespace
} // namespace parcoach
