// Tests for the observability layer (util/trace.h, util/metrics.h and their
// engine/stream integration): span parent/child integrity across the staged
// pipeline, ring eviction that keeps slow-query exemplars
// pinned, MetricsRegistry delta snapshots, trace-tagged logging scopes, and
// a TSan-targeted concurrent session (drill-down chains + stream appends
// racing the sink's readers).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <unordered_set>
#include <vector>

#include "subtab/service/engine.h"
#include "subtab/stream/stream_session.h"
#include "subtab/util/logging.h"
#include "subtab/util/metrics.h"
#include "subtab/util/trace.h"

namespace subtab {
namespace {

using service::EngineOptions;
using service::SelectRequest;
using service::SelectResponse;
using service::ServingEngine;
using stream::StreamSession;
using stream::StreamSessionOptions;

/// Deterministic table with enough rows for drill-down chains (same shape
/// as the containment suite's fixture).
Table DrillTable(size_t n = 120, size_t offset = 0) {
  std::vector<double> a, b;
  std::vector<std::string> c;
  for (size_t i = offset; i < offset + n; ++i) {
    a.push_back(static_cast<double>(i % 60));
    b.push_back(static_cast<double>(i % 7) * 2.5);
    c.push_back(i % 3 == 0 ? "x" : i % 3 == 1 ? "y" : "z");
  }
  Result<Table> table = Table::Make({Column::Numeric("a", a),
                                     Column::Numeric("b", b),
                                     Column::Categorical("c", c)});
  SUBTAB_CHECK(table.ok());
  return std::move(*table);
}

SubTabConfig TinyConfig(uint64_t seed = 7) {
  SubTabConfig config;
  config.k = 4;
  config.l = 3;
  config.embedding.dim = 8;
  config.embedding.epochs = 1;
  config.seed = seed;
  return config;
}

SpQuery Where(std::vector<Predicate> filters) {
  SpQuery q;
  q.filters = std::move(filters);
  return q;
}

/// A fabricated completed trace with a controlled root duration — the sink
/// does not care who produced a trace, only how slow it was.
std::shared_ptr<const CompletedTrace> FakeTrace(uint64_t id,
                                                uint64_t duration_ns) {
  auto trace = std::make_shared<CompletedTrace>();
  trace->trace_id = id;
  trace->name = "fake";
  trace->duration_ns = duration_ns;
  TraceSpan root;
  root.trace_id = id;
  root.span_id = 1;
  root.name = "fake";
  root.duration_ns = duration_ns;
  trace->spans.push_back(std::move(root));
  return trace;
}

// ----------------------------------------------------------- TraceContext --

TEST(TraceContextTest, DisabledContextIsFreeNoOp) {
  TraceContext context;
  EXPECT_FALSE(context.enabled());
  EXPECT_EQ(context.trace_id(), 0u);

  TraceSpan span = context.StartSpan("scan");
  EXPECT_FALSE(span.enabled());
  span.AddAttr("rows", uint64_t{7});  // No-op, no crash.
  EXPECT_EQ(span.FindAttr("rows"), nullptr);
  context.FinishSpan(std::move(span));
  context.AddRootAttr("table", "t");
  EXPECT_EQ(context.FinishRoot(), nullptr);
}

TEST(TraceContextTest, RootAndChildStructure) {
  auto sink = std::make_shared<TraceSink>();
  TraceContext context = TraceContext::Start("select", sink);
  ASSERT_TRUE(context.enabled());
  EXPECT_NE(context.trace_id(), 0u);
  context.AddRootAttr("table", "t");

  TraceSpan first = context.StartSpan("queue.scan");
  EXPECT_TRUE(first.enabled());
  EXPECT_EQ(first.trace_id, context.trace_id());
  context.FinishSpan(std::move(first));
  TraceSpan second = context.StartSpan("scan");
  second.AddAttr("rows_visited", uint64_t{60});
  context.FinishSpan(std::move(second));

  std::shared_ptr<const CompletedTrace> done = context.FinishRoot();
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->spans.size(), 3u);
  const TraceSpan& root = done->root();
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.name, "select");
  EXPECT_NE(root.span_id, 0u);
  EXPECT_EQ(done->duration_ns, root.duration_ns);
  ASSERT_NE(root.FindAttr("table"), nullptr);
  EXPECT_EQ(*root.FindAttr("table"), "t");

  std::vector<uint64_t> ids{root.span_id};
  for (size_t i = 1; i < done->spans.size(); ++i) {
    const TraceSpan& child = done->spans[i];
    EXPECT_EQ(child.trace_id, done->trace_id);
    EXPECT_EQ(child.parent_id, root.span_id);
    EXPECT_NE(child.span_id, 0u);
    EXPECT_GE(child.start_ns, root.start_ns);
    ids.push_back(child.span_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  ASSERT_NE(done->spans[2].FindAttr("rows_visited"), nullptr);
  EXPECT_EQ(*done->spans[2].FindAttr("rows_visited"), "60");

  // Committed exactly once; FinishRoot is idempotent.
  EXPECT_EQ(sink->Stats().committed, 1u);
  EXPECT_EQ(context.FinishRoot().get(), done.get());
  EXPECT_EQ(sink->Stats().committed, 1u);

  // Spans finished after the root are dropped, not resurrected.
  TraceSpan late = context.StartSpan("late");
  context.FinishSpan(std::move(late));
  EXPECT_EQ(done->spans.size(), 3u);
}

TEST(TraceContextTest, SpanHandedAcrossThreadsByValue) {
  // The pipeline's contract: a span opened by the submitting thread is
  // finished by whichever worker picks the stage up — the span travels by
  // value, no thread-local anywhere.
  auto sink = std::make_shared<TraceSink>();
  TraceContext context = TraceContext::Start("select", sink);
  TraceSpan hop = context.StartSpan("queue.scan");
  std::thread worker([&context, span = std::move(hop)]() mutable {
    context.FinishSpan(std::move(span));
    context.FinishSpan(context.StartSpan("scan"));
  });
  worker.join();
  std::shared_ptr<const CompletedTrace> done = context.FinishRoot();
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->spans.size(), 3u);
  EXPECT_EQ(done->spans[1].name, "queue.scan");
  EXPECT_EQ(done->spans[1].parent_id, done->root().span_id);
}

// -------------------------------------------------------------- TraceSink --

TEST(TraceSinkTest, RingEvictsOldestButPinsSlowExemplars) {
  TraceSinkOptions options;
  options.ring_capacity = 8;
  options.shards = 1;
  options.exemplar_capacity = 4;
  options.exemplar_percentile = 0.9;
  options.exemplar_min_samples = 16;
  TraceSink sink(options);

  // Arm the threshold with fast traces, then commit two slow spikes, then
  // churn the ring far past its capacity with more fast traffic.
  uint64_t id = 1;
  for (int i = 0; i < 16; ++i) sink.Commit(FakeTrace(id++, 1'000'000));
  sink.Commit(FakeTrace(900, 3'000'000'000));
  sink.Commit(FakeTrace(901, 2'000'000'000));
  for (int i = 0; i < 64; ++i) sink.Commit(FakeTrace(id++, 1'000'000));

  // The slow traces are long gone from the ring...
  bool slow_in_ring = false;
  for (const auto& trace : sink.Recent()) {
    if (trace->trace_id == 900 || trace->trace_id == 901) slow_in_ring = true;
  }
  EXPECT_FALSE(slow_in_ring);
  // ...but pinned as exemplars, slowest first.
  std::vector<std::shared_ptr<const CompletedTrace>> exemplars =
      sink.Exemplars();
  ASSERT_GE(exemplars.size(), 2u);
  EXPECT_EQ(exemplars[0]->trace_id, 900u);
  EXPECT_EQ(exemplars[1]->trace_id, 901u);

  const TraceSinkStats stats = sink.Stats();
  EXPECT_EQ(stats.committed, 82u);
  EXPECT_GT(stats.ring_evicted, 0u);
  EXPECT_GE(stats.exemplars_pinned, 2u);
  EXPECT_GT(stats.exemplar_threshold_seconds, 0.0);
}

TEST(TraceSinkTest, ExemplarReplacementConvergesOnSlowest) {
  TraceSinkOptions options;
  options.ring_capacity = 4;
  options.shards = 1;
  options.exemplar_capacity = 2;
  options.exemplar_percentile = 0.5;
  options.exemplar_min_samples = 4;
  TraceSink sink(options);

  for (int i = 0; i < 8; ++i) sink.Commit(FakeTrace(100 + i, 1'000'000));
  // Ascending slow spikes: each one displaces the fastest pinned exemplar.
  for (uint64_t s = 1; s <= 5; ++s) {
    sink.Commit(FakeTrace(200 + s, s * 1'000'000'000));
  }
  std::vector<std::shared_ptr<const CompletedTrace>> exemplars =
      sink.Exemplars();
  ASSERT_EQ(exemplars.size(), 2u);
  EXPECT_EQ(exemplars[0]->trace_id, 205u);  // 5s
  EXPECT_EQ(exemplars[1]->trace_id, 204u);  // 4s
  EXPECT_GT(sink.Stats().exemplars_evicted, 0u);
}

TEST(TraceSinkTest, PeekIsNonDestructiveAndDrainConsumesRingOnce) {
  TraceSinkOptions options;
  options.ring_capacity = 8;
  options.shards = 2;
  options.exemplar_capacity = 2;
  options.exemplar_percentile = 0.5;
  options.exemplar_min_samples = 4;
  TraceSink sink(options);

  for (uint64_t i = 1; i <= 6; ++i) sink.Commit(FakeTrace(i, 1'000'000));
  // A slow spike pinned as an exemplar, then churn it out of the ring.
  sink.Commit(FakeTrace(500, 5'000'000'000));
  for (uint64_t i = 7; i <= 20; ++i) sink.Commit(FakeTrace(i, 1'000'000));

  // Peek merges ring + evicted exemplars, deduplicated, and is capped.
  std::vector<std::shared_ptr<const CompletedTrace>> peeked = sink.Peek();
  const size_t ring_size = sink.Recent().size();
  EXPECT_GE(peeked.size(), ring_size);  // Exemplar 500 rides along.
  bool saw_exemplar = false;
  std::unordered_set<uint64_t> ids;
  for (const auto& trace : peeked) {
    EXPECT_TRUE(ids.insert(trace->trace_id).second);  // Exactly once.
    if (trace->trace_id == 500) saw_exemplar = true;
  }
  EXPECT_TRUE(saw_exemplar);
  EXPECT_EQ(sink.Peek(3).size(), 3u);

  // Peeking consumed nothing: a drain after the peek still returns the
  // whole ring, exactly once.
  std::vector<std::shared_ptr<const CompletedTrace>> drained = sink.Drain();
  EXPECT_EQ(drained.size(), ring_size);
  EXPECT_TRUE(sink.Recent().empty());
  EXPECT_TRUE(sink.Drain().empty());  // Second drain: already consumed.

  // Exemplars are retention, not a queue: the pin survives the drain and
  // still shows up in observer views.
  ASSERT_FALSE(sink.Exemplars().empty());
  EXPECT_EQ(sink.Exemplars()[0]->trace_id, 500u);
  std::vector<std::shared_ptr<const CompletedTrace>> after = sink.Peek();
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after[0]->trace_id, 500u);

  // Draining is not an eviction; the sink's stats stay truthful.
  EXPECT_EQ(sink.Stats().committed, 21u);
}

TEST(TraceSinkTest, JsonlExportOneLinePerTrace) {
  auto sink = std::make_shared<TraceSink>();
  TraceContext context = TraceContext::Start("select", sink);
  context.AddRootAttr("query", "a >= \"x\"\n");  // Needs escaping.
  context.FinishSpan(context.StartSpan("scan"));
  context.FinishRoot();

  const std::string jsonl = TracesToJsonl(sink->Recent());
  EXPECT_NE(jsonl.find("\"name\":\"select\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"spans\":["), std::string::npos);
  EXPECT_NE(jsonl.find("\\\"x\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
}

// -------------------------------------------------------- MetricsRegistry --

TEST(MetricsTest, RegistryInstrumentsAreStableAndNamed) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("engine.requests.submitted");
  EXPECT_EQ(registry.counter("engine.requests.submitted"), counter);
  counter->Add();
  counter->Add(4);
  EXPECT_EQ(counter->Value(), 5u);

  Gauge* gauge = registry.gauge("engine.queue_depth");
  gauge->Set(3.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 3.5);

  LatencyHistogram* histogram = registry.histogram("pipeline.latency");
  histogram->Record(0.010);
  histogram->Record(0.020);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("engine.requests.submitted"), 5u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("engine.queue_depth"), 3.5);
  EXPECT_EQ(snapshot.histograms.at("pipeline.latency").count, 2u);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"engine.requests.submitted\":5"), std::string::npos);
  EXPECT_NE(json.find("\"engine.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\""), std::string::npos);
}

TEST(MetricsTest, DeltaSnapshotsSubtractCountersAndHistograms) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("scan.rows_visited");
  LatencyHistogram* histogram = registry.histogram("pipeline.stage.scan");
  Gauge* gauge = registry.gauge("engine.tables");

  counter->Add(10);
  histogram->Record(0.001);
  gauge->Set(1.0);
  const MetricsSnapshot before = registry.Snapshot();

  counter->Add(32);
  histogram->Record(0.002);
  histogram->Record(0.004);
  gauge->Set(2.0);
  const MetricsSnapshot after = registry.Snapshot();

  const MetricsSnapshot delta = after.Delta(before);
  EXPECT_EQ(delta.counters.at("scan.rows_visited"), 32u);
  EXPECT_EQ(delta.histograms.at("pipeline.stage.scan").count, 2u);
  EXPECT_NEAR(delta.histograms.at("pipeline.stage.scan").sum_seconds, 0.006,
              1e-9);
  // Gauges are point-in-time: the delta carries the later value.
  EXPECT_DOUBLE_EQ(delta.gauges.at("engine.tables"), 2.0);

  // An instrument registered after `before` still deltas cleanly.
  registry.counter("engine.requests.failed")->Add(2);
  const MetricsSnapshot delta2 = registry.Snapshot().Delta(before);
  EXPECT_EQ(delta2.counters.at("engine.requests.failed"), 2u);
}

// ------------------------------------------------------------ Log tagging --

TEST(LogTraceScopeTest, NestsAndRestores) {
  EXPECT_EQ(CurrentLogTraceId(), 0u);
  {
    LogTraceScope outer(42);
    EXPECT_EQ(CurrentLogTraceId(), 42u);
    {
      LogTraceScope inner(77);
      EXPECT_EQ(CurrentLogTraceId(), 77u);
      {
        LogTraceScope zero(0);  // Disabled trace: keeps the current tag.
        EXPECT_EQ(CurrentLogTraceId(), 77u);
      }
    }
    EXPECT_EQ(CurrentLogTraceId(), 42u);
  }
  EXPECT_EQ(CurrentLogTraceId(), 0u);
}

// ----------------------------------------------------- Engine integration --

TEST(EngineTraceTest, DrillDownTraceSpansEveryStage) {
  EngineOptions options;
  options.num_threads = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());

  // Parent resolves first so the refinement's scan goes through containment.
  SelectRequest parent;
  parent.table_id = "t";
  parent.query = Where({Predicate::Num("a", CmpOp::kGe, 10.0)});
  ASSERT_TRUE(engine.Select(parent).status.ok());

  SelectRequest refined;
  refined.table_id = "t";
  refined.query = Where({Predicate::Num("a", CmpOp::kGe, 10.0),
                         Predicate::Str("c", CmpOp::kEq, "x")});
  refined.trace_explain = true;
  SelectResponse response = engine.Select(refined);
  ASSERT_TRUE(response.status.ok());
  EXPECT_NE(response.trace_id, 0u);
  ASSERT_NE(response.trace, nullptr);

  const CompletedTrace& trace = *response.trace;
  EXPECT_EQ(trace.trace_id, response.trace_id);
  ASSERT_EQ(trace.spans.size(), 4u);
  const TraceSpan& root = trace.root();
  EXPECT_EQ(root.name, "select");
  ASSERT_NE(root.FindAttr("table"), nullptr);
  ASSERT_NE(root.FindAttr("admission"), nullptr);
  EXPECT_EQ(*root.FindAttr("admission"), "admitted");
  ASSERT_NE(root.FindAttr("status"), nullptr);
  EXPECT_EQ(*root.FindAttr("status"), "ok");

  // The three stage spans, in finish order, all children of the root.
  const char* expected[] = {"queue.scan", "scan", "select"};
  uint64_t staged_ns = 0;
  for (size_t i = 1; i < trace.spans.size(); ++i) {
    const TraceSpan& span = trace.spans[i];
    EXPECT_EQ(span.name, expected[i - 1]);
    EXPECT_EQ(span.parent_id, root.span_id);
    EXPECT_GE(span.start_ns, root.start_ns);
    staged_ns += span.duration_ns;
  }
  EXPECT_LE(staged_ns, root.duration_ns);

  // The scan span explains its cost: containment verdict + rows + chunks.
  const TraceSpan& scan = trace.spans[2];
  ASSERT_NE(scan.FindAttr("containment"), nullptr);
  EXPECT_EQ(*scan.FindAttr("containment"), "hit");
  ASSERT_NE(scan.FindAttr("ancestor_rows"), nullptr);
  ASSERT_NE(scan.FindAttr("rows_visited"), nullptr);
  ASSERT_NE(scan.FindAttr("restricted"), nullptr);
  EXPECT_EQ(*scan.FindAttr("restricted"), "true");
  const TraceSpan& select = trace.spans[3];
  ASSERT_NE(select.FindAttr("scope_rows"), nullptr);

  // The sink retained it (no explain needed to be retained).
  bool retained = false;
  for (const auto& kept : engine.trace_sink()->Recent()) {
    if (kept->trace_id == response.trace_id) retained = true;
  }
  EXPECT_TRUE(retained);
}

TEST(EngineTraceTest, ScanHandsItsScopeToSelectWithoutRequeueing) {
  EngineOptions options;
  options.num_threads = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());

  // Hold the only worker while two distinct misses queue up behind it.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });
  SelectRequest a;
  a.table_id = "t";
  a.query = Where({Predicate::Num("a", CmpOp::kGe, 5.0)});
  a.trace_explain = true;
  SelectRequest b = a;
  b.query = Where({Predicate::Num("a", CmpOp::kGe, 6.0)});
  const auto before = std::chrono::steady_clock::now();
  std::shared_future<SelectResponse> fa = engine.SubmitSelect(a);
  std::shared_future<SelectResponse> fb = engine.SubmitSelect(b);
  const auto after = std::chrono::steady_clock::now();
  // A probe queued after both: one task per computation means A and B have
  // both resolved by the time the worker reaches it. A re-queued select
  // stage would still be waiting behind the probe.
  std::promise<bool> probe;
  engine.SubmitBarrierTaskForTesting([fa, fb, &probe] {
    const auto ready = [](const std::shared_future<SelectResponse>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    };
    probe.set_value(ready(fa) && ready(fb));
  });
  gate.set_value();
  engine.Drain();
  EXPECT_TRUE(probe.get_future().get());

  const SelectResponse ra = fa.get();
  const SelectResponse rb = fb.get();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  ASSERT_NE(ra.trace, nullptr);
  ASSERT_NE(rb.trace, nullptr);
  const auto find = [](const CompletedTrace& trace, const char* name) {
    for (const TraceSpan& span : trace.spans) {
      if (span.name == name) return span;
    }
    ADD_FAILURE() << "no span " << name;
    return TraceSpan{};
  };
  const TraceSpan a_select = find(*ra.trace, "select");
  const TraceSpan b_scan = find(*rb.trace, "scan");
  // Span times are relative to each trace's own epoch, and B's epoch lies
  // at most `window` after A's: A's select must end before B's scan starts.
  const uint64_t window = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(after - before)
          .count());
  EXPECT_LE(a_select.start_ns + a_select.duration_ns, b_scan.start_ns + window);
}

TEST(EngineTraceTest, CacheHitTraceIsRootOnlyWithTier) {
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());
  SelectRequest request;
  request.table_id = "t";
  request.query = Where({Predicate::Num("a", CmpOp::kGe, 30.0)});
  ASSERT_TRUE(engine.Select(request).status.ok());

  request.trace_explain = true;
  SelectResponse hit = engine.Select(request);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.from_cache);
  EXPECT_NE(hit.trace_id, 0u);
  ASSERT_NE(hit.trace, nullptr);
  EXPECT_EQ(hit.trace->spans.size(), 1u);  // Root only: no stages ran.
  ASSERT_NE(hit.trace->root().FindAttr("cache"), nullptr);
  EXPECT_EQ(*hit.trace->root().FindAttr("cache"), "exact");
}

TEST(EngineTraceTest, ShedResponseCarriesTraceIdAndStage) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_pending_per_tenant = 1;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());

  // Hold the worker so the first admitted request stays pending, then
  // overflow the tenant bound with a distinct request.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  engine.SubmitBarrierTaskForTesting([opened] { opened.wait(); });

  SelectRequest first;
  first.table_id = "t";
  first.query = Where({Predicate::Num("a", CmpOp::kGe, 5.0)});
  std::shared_future<SelectResponse> admitted = engine.SubmitSelect(first);

  SelectRequest second = first;
  second.query = Where({Predicate::Num("a", CmpOp::kGe, 6.0)});
  second.trace_explain = true;
  SelectResponse shed = engine.SubmitSelect(second).get();
  gate.set_value();
  engine.Drain();

  ASSERT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.trace_id, 0u);
  // The message names the stage and the trace id, greppable from a client
  // log straight into the sink's retained traces.
  EXPECT_NE(shed.status.message().find("[stage=admission"), std::string::npos);
  EXPECT_NE(shed.status.message().find("trace="), std::string::npos);
  ASSERT_NE(shed.trace, nullptr);
  ASSERT_NE(shed.trace->root().FindAttr("admission"), nullptr);
  EXPECT_EQ(*shed.trace->root().FindAttr("admission"), "shed_tenant");
  EXPECT_TRUE(admitted.get().status.ok());
  EXPECT_EQ(engine.Stats().pipeline.shed_tenant, 1u);
  EXPECT_EQ(engine.Stats().pipeline.requests_shed, 1u);
}

TEST(EngineTraceTest, TracingDisabledLeavesNoTraceAndNoSink) {
  EngineOptions options;
  options.tracing = false;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());
  EXPECT_EQ(engine.trace_sink(), nullptr);

  SelectRequest request;
  request.table_id = "t";
  request.query = Where({Predicate::Num("a", CmpOp::kGe, 20.0)});
  request.trace_explain = true;  // Opt-in is moot with tracing off.
  SelectResponse response = engine.Select(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.trace_id, 0u);
  EXPECT_EQ(response.trace, nullptr);
  // The stage histograms still record — metrics do not depend on tracing.
  EXPECT_EQ(engine.Stats().pipeline.stage_scan.count, 1u);
  EXPECT_NE(engine.MetricsJson().find("\"pipeline.stage.scan\""),
            std::string::npos);
}

TEST(EngineTraceTest, StatsJsonCarriesStagesAndTraceSections) {
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterTable("t", DrillTable(), TinyConfig()).ok());
  SelectRequest request;
  request.table_id = "t";
  request.query = Where({Predicate::Num("a", CmpOp::kGe, 15.0)});
  ASSERT_TRUE(engine.Select(request).status.ok());

  const std::string json = engine.Stats().ToJson();
  for (const char* key :
       {"\"stages\":", "\"queue_scan\":",
        "\"shed_global_queue\":", "\"shed_tenant\":", "\"trace\":",
        "\"exemplars_pinned\":", "\"worker_utilization\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(engine.Stats().trace.committed, 1u);
}

// ------------------------------------------------------- Stream refreshes --

TEST(StreamTraceTest, AppendEmitsRefreshTrace) {
  StreamSessionOptions options;
  options.config = TinyConfig();
  Result<std::shared_ptr<StreamSession>> session =
      StreamSession::Open(DrillTable(), options);
  ASSERT_TRUE(session.ok());
  auto sink = std::make_shared<TraceSink>();
  (*session)->SetTraceSink(sink);

  ASSERT_TRUE((*session)->Append(DrillTable(30, 500)).ok());

  std::vector<std::shared_ptr<const CompletedTrace>> recent = sink->Recent();
  ASSERT_EQ(recent.size(), 1u);
  const CompletedTrace& trace = *recent[0];
  EXPECT_EQ(trace.name, "stream.append");
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.spans[1].name, "refresh");
  EXPECT_EQ(trace.spans[1].parent_id, trace.root().span_id);
  ASSERT_NE(trace.spans[1].FindAttr("action"), nullptr);
  ASSERT_NE(trace.root().FindAttr("version"), nullptr);
  EXPECT_EQ(*trace.root().FindAttr("version"), "1");
  ASSERT_NE(trace.root().FindAttr("delta_rows"), nullptr);
  EXPECT_EQ(*trace.root().FindAttr("delta_rows"), "30");
  ASSERT_NE(trace.root().FindAttr("status"), nullptr);
  EXPECT_EQ(*trace.root().FindAttr("status"), "ok");
}

TEST(StreamTraceTest, EngineInstallsItsSinkOnRegisteredStreams) {
  ServingEngine engine;
  StreamSessionOptions options;
  options.config = TinyConfig();
  Result<std::shared_ptr<StreamSession>> session =
      StreamSession::Open(DrillTable(), options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("s", *session).ok());

  ASSERT_TRUE(engine.Append("s", DrillTable(30, 500)).ok());
  bool saw_append_trace = false;
  for (const auto& trace : engine.trace_sink()->Recent()) {
    if (trace->name == "stream.append") saw_append_trace = true;
  }
  EXPECT_TRUE(saw_append_trace);
}

// ------------------------------------------------------------ Concurrency --
// TSan target (run in the CI sanitizer matrix): drill-down chains and
// stream appends race the sink's readers and the metrics endpoints.

TEST(TraceConcurrencyTest, ChainsAppendsAndSinkDrainsRace) {
  EngineOptions options;
  options.num_threads = 4;
  options.trace_sink.ring_capacity = 32;  // Force eviction churn.
  options.trace_sink.exemplar_min_samples = 8;
  ServingEngine engine(options);
  StreamSessionOptions stream_options;
  stream_options.config = TinyConfig();
  Result<std::shared_ptr<StreamSession>> session =
      StreamSession::Open(DrillTable(), stream_options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(engine.RegisterStream("t", *session).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> traced_ok{0};
  std::vector<std::thread> threads;

  // Drill-down clients: each replays refinement chains with explain on.
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&engine, &traced_ok, c] {
      for (int round = 0; round < 12; ++round) {
        const double base = 5.0 * ((c + round) % 8);
        SpQuery query = Where({Predicate::Num("a", CmpOp::kGe, base)});
        for (int step = 0; step < 3; ++step) {
          SelectRequest request;
          request.table_id = "t";
          request.query = query;
          request.seed = static_cast<uint64_t>(c * 1000 + round);
          request.trace_explain = (step == 2);
          SelectResponse response = engine.Select(request);
          if (response.status.ok() && response.trace_id != 0) ++traced_ok;
          query.filters.push_back(
              Predicate::Num("a", CmpOp::kGe, base + 5.0 * (step + 1)));
        }
      }
    });
  }
  // Appender: publishes new versions (and their stream.append traces).
  threads.emplace_back([&engine] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(engine.Append("t", DrillTable(20, 1000 + 20 * i)).ok());
    }
  });
  // Drainer: hammers every read endpoint while writers commit.
  threads.emplace_back([&engine, &stop] {
    size_t drained = 0;
    while (!stop.load(std::memory_order_acquire)) {
      drained += engine.trace_sink()->Recent().size();
      drained += engine.trace_sink()->Exemplars().size();
      (void)engine.trace_sink()->Stats();
      (void)engine.MetricsJson();
      (void)engine.Stats().ToJson();
      std::this_thread::yield();
    }
    EXPECT_GT(drained, 0u);
  });

  for (size_t i = 0; i + 2 < threads.size(); ++i) threads[i].join();
  threads[threads.size() - 2].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();
  engine.Drain();

  EXPECT_GT(traced_ok.load(), 0u);
  const TraceSinkStats stats = engine.trace_sink()->Stats();
  EXPECT_GT(stats.committed, 0u);
  const service::EngineStats engine_stats = engine.Stats();
  EXPECT_EQ(engine_stats.requests_submitted, engine_stats.requests_completed);
}

}  // namespace
}  // namespace subtab
