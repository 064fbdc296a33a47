// Serving-engine demo — the multi-tenant counterpart of session_replay:
// register a table once, then replay synthetic analyst sessions through the
// concurrent ServingEngine (service/engine.h) with N worker threads. The
// demo verifies the production properties the engine promises:
//
//   1. every engine response is BIT-IDENTICAL to the serial
//      SubTab::SelectForQuery path (same model, same seed),
//   2. replaying the same sessions again is served from the selection
//      cache (hit counter > 0, selection work skipped),
//   3. a second session opening the same table shares the fitted model
//      (registry hit instead of a second pre-processing pass).
//
// With --admin_port=N it also boots the ops plane (ops/admin_server.h):
// /metrics, /statusz, /traces, /healthz, /readyz on that port (0 =
// ephemeral, printed at startup) while the demo runs, then keeps serving
// for --serve_seconds=S after the workload so a scraper (or `curl`) has
// something live to hit:
//
//   ./serving_demo --admin_port=8080 --serve_seconds=30 &
//   curl -s localhost:8080/metrics | head

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <thread>

#include "subtab/core/subtab.h"
#include "subtab/data/datasets.h"
#include "subtab/eda/engine_replay.h"
#include "subtab/eda/session_generator.h"
#include "subtab/ops/admin_server.h"
#include "subtab/ops/slo_monitor.h"
#include "subtab/service/engine.h"

using namespace subtab;

namespace {

// Collects every scoreable step query of the sessions (what the replay
// submits to the engine).
std::vector<SpQuery> StepQueries(const std::vector<Session>& sessions) {
  std::vector<SpQuery> queries;
  for (const Session& session : sessions) {
    for (size_t i = 0; i + 1 < session.steps.size(); ++i) {
      queries.push_back(session.steps[i].query);
    }
  }
  return queries;
}

// `--flag=N` integer arguments (no dependency-worthy flag parsing for a
// demo); anything unrecognized is a usage error.
struct DemoArgs {
  bool admin = false;
  long admin_port = 0;
  long serve_seconds = 0;
};

DemoArgs ParseDemoArgs(int argc, char** argv) {
  DemoArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--admin_port=", 13) == 0) {
      args.admin = true;
      args.admin_port = std::strtol(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--serve_seconds=", 16) == 0) {
      args.serve_seconds = std::strtol(arg + 16, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: serving_demo [--admin_port=N] [--serve_seconds=S]\n");
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr size_t kWorkers = 4;
  constexpr size_t kK = 10;
  constexpr size_t kL = 7;
  const DemoArgs args = ParseDemoArgs(argc, argv);

  std::printf("Generating the cyber-security dataset and analyst sessions...\n");
  GeneratedDataset cyber = MakeCyber(10000);

  SessionGeneratorOptions session_options;
  session_options.num_sessions = 40;
  session_options.seed = 4;
  std::vector<Session> sessions = GenerateSessions(cyber, session_options);
  const std::vector<SpQuery> queries = StepQueries(sessions);
  std::printf("%zu sessions -> %zu step queries\n", sessions.size(),
              queries.size());
  SUBTAB_CHECK(queries.size() >= 100);

  service::EngineOptions options;
  options.num_threads = kWorkers;
  // This demo's headline property is that the pipeline + caches return the
  // serial path's result bit-identically; sampled selection is a
  // deliberate, quality-gated approximation on large scopes, so pin it off
  // here (sampling_test and BENCH_serving's selection_sampling phase cover
  // that path).
  options.sampled_selection_min_rows = 0;
  service::ServingEngine engine(options);

  // Ops plane: started BEFORE the workload so /metrics and /healthz are
  // live for the whole run, not just the tail.
  std::unique_ptr<ops::SloMonitor> monitor;
  std::unique_ptr<ops::AdminServer> admin;
  if (args.admin) {
    monitor = std::make_unique<ops::SloMonitor>(&engine);
    monitor->Start();
    ops::AdminServerOptions admin_options;
    admin_options.port = static_cast<uint16_t>(args.admin_port);
    admin = std::make_unique<ops::AdminServer>(&engine, monitor.get(),
                                               admin_options);
    Status up = admin->Start();
    SUBTAB_CHECK(up.ok());
    std::printf("admin: ops plane on http://127.0.0.1:%u "
                "(/metrics /statusz /traces /healthz /readyz)\n",
                (unsigned)admin->port());
  }

  SubTabConfig config;
  config.embedding.num_threads = 0;
  std::printf("Registering table 'cyber' (one shared pre-processing pass)...\n");
  Status registered = engine.RegisterTable("cyber", cyber.table, config);
  SUBTAB_CHECK(registered.ok());

  // ---- Replay through the engine across kWorkers threads. ------------------
  std::printf("\nReplaying %zu queries through the engine (%zu workers)...\n",
              queries.size(), kWorkers);
  EngineReplayResult first =
      ReplayThroughEngine(engine, "cyber", sessions, kK, kL);
  std::printf("scored %zu steps, captured %zu fragments (%.1f%%), "
              "%zu empty-result queries skipped\n",
              first.stats.steps_scored, first.stats.fragments_captured,
              first.stats.capture_rate * 100.0, first.failures);

  // ---- 1. Bit-identical to the serial path. --------------------------------
  std::printf("\nVerifying engine responses against serial SelectForQuery...\n");
  std::shared_ptr<const SubTab> model = engine.GetModel("cyber");
  size_t verified = 0;
  for (const SpQuery& query : queries) {
    service::SelectRequest request;
    request.table_id = "cyber";
    request.query = query;
    request.k = kK;
    request.l = kL;
    service::SelectResponse response = engine.Select(request);
    Result<SubTabView> serial = model->SelectForQuery(query, kK, kL);
    SUBTAB_CHECK(response.status.ok() == serial.ok());
    if (!serial.ok()) continue;
    SUBTAB_CHECK(response.view->row_ids == serial->row_ids);
    SUBTAB_CHECK(response.view->col_ids == serial->col_ids);
    ++verified;
  }
  std::printf("%zu/%zu query displays bit-identical to the serial path\n",
              verified, queries.size());

  // ---- 2. Repeated replay is served from cache. ----------------------------
  EngineReplayResult second =
      ReplayThroughEngine(engine, "cyber", sessions, kK, kL);
  service::EngineStats stats = engine.Stats();
  std::printf("\nSecond replay: %zu/%zu responses straight from the selection "
              "cache\n", second.cache_hits, second.queries);
  SUBTAB_CHECK(stats.selection_cache.hits > 0);
  SUBTAB_CHECK(second.stats.fragments_captured == first.stats.fragments_captured);

  // ---- 3. A second session on the same table reuses the model. -------------
  Status again = engine.RegisterTable("cyber-analyst-2", cyber.table, config);
  SUBTAB_CHECK(again.ok());
  stats = engine.Stats();
  SUBTAB_CHECK(stats.registry.fits == 1);  // Still only one fit.

  // One machine-readable line with every counter (same "json |" convention
  // as the bench harnesses), replacing per-counter ad-hoc formatting.
  std::printf("\n=== engine stats ===\n");
  std::printf("json | %s\n", stats.ToJson().c_str());

  // ---- 4. Pipeline gauges: what an ops dashboard scrapes off ToJson. ------
  const service::PipelineStats& pipeline = stats.pipeline;
  std::printf("\npipeline: queue %zu, workers %zu/%zu (utilization %.0f%%), "
              "%llu sheds, scan %.2fs / select %.2fs, latency p50 %.2fms "
              "p95 %.2fms p99 %.2fms over %llu responses\n",
              stats.queue_depth, pipeline.workers_active, stats.num_threads,
              pipeline.worker_utilization * 100.0,
              (unsigned long long)pipeline.requests_shed,
              pipeline.scan_seconds, pipeline.select_seconds,
              pipeline.latency_p50_ms, pipeline.latency_p95_ms,
              pipeline.latency_p99_ms,
              (unsigned long long)pipeline.latency_count);
  SUBTAB_CHECK(stats.queue_depth == 0);  // Drained after the replays.
  SUBTAB_CHECK(pipeline.worker_utilization >= 0.0 &&
               pipeline.worker_utilization <= 1.0);
  SUBTAB_CHECK(pipeline.latency_count >= stats.requests_submitted -
                                             stats.requests_coalesced -
                                             stats.requests_failed);
  SUBTAB_CHECK(pipeline.latency_p99_ms >= pipeline.latency_p50_ms);
  SUBTAB_CHECK(stats.ToJson().find("\"worker_utilization\"") != std::string::npos);

  // Scan attribution: zone maps prune chunks a conjunct provably cannot
  // match, and dictionary-column conjuncts run over integer codes.
  const service::ScanAttributionStats& scan = stats.scan;
  const uint64_t scan_chunk_walk = scan.chunks_scanned + scan.chunks_pruned;
  std::printf("scan: %llu chunks walked, %llu pruned by zone maps (%.0f%%), "
              "%llu code-eval conjuncts, %llu rows visited\n",
              (unsigned long long)scan_chunk_walk,
              (unsigned long long)scan.chunks_pruned,
              scan_chunk_walk == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(scan.chunks_pruned) /
                        static_cast<double>(scan_chunk_walk),
              (unsigned long long)scan.code_eval_predicates,
              (unsigned long long)scan.rows_visited);
  SUBTAB_CHECK(stats.ToJson().find("\"chunks_pruned\"") != std::string::npos);

  // ---- 5. Request-scoped tracing: the per-request stage waterfall. ---------
  // A fresh seed forces a cache miss, so the request walks every stage:
  // queue.scan -> scan -> select under one root span.
  service::SelectRequest traced;
  traced.table_id = "cyber";
  traced.query = queries.front();
  traced.k = kK;
  traced.l = kL;
  traced.seed = 20230408;
  traced.trace_explain = true;
  service::SelectResponse traced_response = engine.Select(traced);
  SUBTAB_CHECK(traced_response.status.ok());
  SUBTAB_CHECK(traced_response.trace_id != 0);
  SUBTAB_CHECK(traced_response.trace != nullptr);
  const CompletedTrace& trace = *traced_response.trace;
  std::printf("\n=== request waterfall (trace %016llx) ===\n",
              (unsigned long long)trace.trace_id);
  const TraceSpan& root = trace.root();
  for (const TraceSpan& span : trace.spans) {
    const bool child = span.parent_id != 0;
    std::string attrs;
    for (const TraceAttr& attr : span.attrs) {
      attrs += "  " + attr.key + "=" + attr.value;
    }
    std::printf("  %s%-14s @%9.3fms  %9.3fms%s\n", child ? "  " : "",
                span.name.c_str(),
                static_cast<double>(span.start_ns - root.start_ns) * 1e-6,
                static_cast<double>(span.duration_ns) * 1e-6, attrs.c_str());
  }
  SUBTAB_CHECK(trace.spans.size() == 4);  // root + 3 stage spans
  // The scan span's waterfall line carries the zone-map attribution.
  bool scan_span_attributed = false;
  for (const TraceSpan& span : trace.spans) {
    if (span.name != "scan") continue;
    for (const TraceAttr& attr : span.attrs) {
      if (attr.key == "chunks_pruned") scan_span_attributed = true;
    }
  }
  SUBTAB_CHECK(scan_span_attributed);
  uint64_t staged_ns = 0;
  for (const TraceSpan& span : trace.spans) {
    if (span.parent_id != 0) {
      SUBTAB_CHECK(span.parent_id == root.span_id);
      staged_ns += span.duration_ns;
    }
  }
  std::printf("stage spans cover %.1f%% of the request's %.3fms wall time\n",
              100.0 * static_cast<double>(staged_ns) /
                  static_cast<double>(root.duration_ns),
              static_cast<double>(root.duration_ns) * 1e-6);

  const TraceSinkStats sink_stats = engine.trace_sink()->Stats();
  std::printf("trace sink: %llu committed, %llu ring-evicted, "
              "%llu slow exemplars pinned\n",
              (unsigned long long)sink_stats.committed,
              (unsigned long long)sink_stats.ring_evicted,
              (unsigned long long)sink_stats.exemplars_pinned);
  SUBTAB_CHECK(sink_stats.committed > 0);

  std::printf("\nOK: >=100 queries, %zu workers, bit-identical, cache hits > 0\n",
              kWorkers);

  if (admin != nullptr && args.serve_seconds > 0) {
    std::printf("admin: serving for %lds more on port %u (ctrl-c to stop)\n",
                args.serve_seconds, (unsigned)admin->port());
    std::this_thread::sleep_for(std::chrono::seconds(args.serve_seconds));
  }
  return 0;
}
