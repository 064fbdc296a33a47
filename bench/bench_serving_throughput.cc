// Serving-engine throughput — not a paper figure, but the number the ROADMAP
// north star cares about: how many display requests per second can one
// process answer, and at what tail latency, as worker threads scale 1/4/16?
//
// Workload: synthetic analyst sessions over the cyber-security dataset
// (Sec. 6.2.2's replay study), every step query issued as a SelectRequest by
// closed-loop client threads (one client per engine worker). Phases per
// thread count:
//   cold   — the staged pipeline (scan then select in one worker task, no
//            intermediate materialization): mostly cache misses, raw
//            throughput;
//   warm   — every client replays the full list: the served-from-cache path.
// A final overload phase hammers a bounded-admission engine open-loop to
// measure the shed rate, and a drill-down phase replays sessions of 4-6
// successively refined queries with containment reuse on vs off (hit rate,
// restricted- vs full-scan rows, throughput delta). Emits the repo's
// standard "json |" records AND the machine-readable BENCH_serving.json
// artifact (p50/p95/p99 latency, throughput, shed rate, containment hit
// rate) so the repo accumulates a perf trajectory; every run enforces
// containment hits > 0 with restricted scans smaller than the table.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "subtab/core/subtab.h"
#include "subtab/eda/session_generator.h"
#include "subtab/service/engine.h"
#include "subtab/table/query.h"
#include "subtab/util/sample_quality.h"
#include "subtab/util/stopwatch.h"
#include "subtab/util/string_util.h"

namespace subtab::bench {
namespace {

/// Nearest-rank percentile over an ascending-sorted sample.
double NearestRank(const std::vector<double>& sorted, double p) {
  SUBTAB_CHECK(!sorted.empty());
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size()))),
      1, sorted.size());
  return sorted[rank - 1];
}

/// Nearest-rank percentile over ascending-sorted seconds, in ms.
double PercentileMs(const std::vector<double>& sorted_seconds, double p) {
  return NearestRank(sorted_seconds, p) * 1e3;
}

struct PhaseResult {
  size_t requests = 0;
  double seconds = 0.0;
  std::vector<double> latencies;
  double rps = 0.0;
};

/// Each client thread runs a closed loop over its assigned queries.
PhaseResult RunClients(service::ServingEngine& engine, size_t num_clients,
                       const std::vector<std::vector<SpQuery>>& per_client) {
  std::vector<PhaseResult> partial(num_clients);
  std::vector<std::thread> clients;
  Stopwatch wall;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&engine, &partial, &per_client, c] {
      for (const SpQuery& query : per_client[c]) {
        service::SelectRequest request;
        request.table_id = "cyber";
        request.query = query;
        Stopwatch watch;
        service::SelectResponse response = engine.Select(request);
        partial[c].latencies.push_back(watch.ElapsedSeconds());
        // Empty query results are valid outcomes of session replay.
        SUBTAB_CHECK(response.status.ok() ||
                     response.status.code() == StatusCode::kInvalidArgument);
      }
    });
  }
  for (auto& t : clients) t.join();

  PhaseResult merged;
  merged.seconds = wall.ElapsedSeconds();
  for (PhaseResult& p : partial) {
    merged.requests += p.latencies.size();
    merged.latencies.insert(merged.latencies.end(), p.latencies.begin(),
                            p.latencies.end());
  }
  merged.rps = static_cast<double>(merged.requests) / merged.seconds;
  return merged;
}

/// Reports one phase; cache/coalescing rates are per-phase deltas.
void Report(const std::string& phase, size_t threads, const PhaseResult& result,
            const service::EngineStats& before,
            const service::EngineStats& after, BenchJsonFile* file) {
  std::vector<double> sorted = result.latencies;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = PercentileMs(sorted, 0.50);
  const double p95 = PercentileMs(sorted, 0.95);
  const double p99 = PercentileMs(sorted, 0.99);
  const uint64_t hits = after.selection_cache.hits - before.selection_cache.hits;
  const uint64_t misses =
      after.selection_cache.misses - before.selection_cache.misses;
  const uint64_t coalesced = after.requests_coalesced - before.requests_coalesced;
  const uint64_t shed =
      after.pipeline.requests_shed - before.pipeline.requests_shed;
  const double hit_rate = static_cast<double>(hits) /
                          static_cast<double>(std::max<uint64_t>(1, hits + misses));
  const double shed_rate =
      static_cast<double>(shed) /
      static_cast<double>(std::max<uint64_t>(
          1, after.requests_submitted - before.requests_submitted));
  Measured(StrFormat("%-7s %2zu threads  %5zu req in %6.2fs  %8.1f req/s  "
                     "p50 %7.3fms  p95 %7.3fms  p99 %7.3fms  cache-hit %4.1f%%",
                     phase.c_str(), threads, result.requests, result.seconds,
                     result.rps, p50, p95, p99, hit_rate * 100.0));
  JsonLine("serving_throughput")
      .Field("phase", phase)
      .Field("threads", static_cast<uint64_t>(threads))
      .Field("requests", static_cast<uint64_t>(result.requests))
      .Field("seconds", result.seconds)
      .Field("rps", result.rps)
      .Field("p50_ms", p50)
      .Field("p95_ms", p95)
      .Field("p99_ms", p99)
      .Field("cache_hit_rate", hit_rate)
      .Field("coalesced", coalesced)
      .Field("shed_rate", shed_rate)
      .Emit(file);
}

/// One thread count: the staged pipeline cold + warm.
void RunOne(size_t threads, const GeneratedDataset& data,
            const std::vector<SpQuery>& queries, const std::string& model_dir,
            BenchJsonFile* file) {
  // Cold phases partition the distinct work across clients.
  std::vector<std::vector<SpQuery>> shards(threads);
  for (size_t i = 0; i < queries.size(); ++i) {
    shards[i % threads].push_back(queries[i]);
  }

  service::EngineOptions options;
  options.num_threads = threads;
  options.persist_dir = model_dir;  // Fit once, load on later phases.
  service::ServingEngine engine(options);
  SUBTAB_CHECK(engine.RegisterTable("cyber", data.table, DefaultConfig()).ok());

  service::EngineStats before = engine.Stats();
  PhaseResult cold = RunClients(engine, threads, shards);
  service::EngineStats after = engine.Stats();
  Report("cold", threads, cold, before, after, file);

  // Warm: every client replays everything; the cache absorbs the load.
  std::vector<std::vector<SpQuery>> full(threads, queries);
  before = after;
  PhaseResult warm = RunClients(engine, threads, full);
  after = engine.Stats();
  Report("warm", threads, warm, before, after, file);
  JsonLine("engine_stats")
      .Field("threads", static_cast<uint64_t>(threads))
      .RawField("stats", after.ToJson())
      .Emit(file);
}

/// Open-loop overload against a bounded-admission engine: the shed-rate
/// measurement (admission keeps tail latency sane by failing fast).
void RunOverload(const GeneratedDataset& data,
                 const std::vector<SpQuery>& queries,
                 const std::string& model_dir, BenchJsonFile* file) {
  service::EngineOptions options;
  options.num_threads = 4;
  options.persist_dir = model_dir;
  options.max_pending_per_tenant = 32;
  service::ServingEngine engine(options);
  SUBTAB_CHECK(engine.RegisterTable("cyber", data.table, DefaultConfig()).ok());

  constexpr size_t kSubmitters = 8;
  std::vector<std::thread> submitters;
  Stopwatch wall;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&engine, &queries, t] {
      for (size_t i = t; i < queries.size(); i += 2) {  // Overlapping halves.
        service::SelectRequest request;
        request.table_id = "cyber";
        request.query = queries[i % queries.size()];
        request.seed = 77777 + t * queries.size() + i;  // Dodge cache/dedup.
        engine.SubmitSelect(request);
      }
    });
  }
  for (auto& t : submitters) t.join();
  engine.Drain();
  const double seconds = wall.ElapsedSeconds();

  const service::EngineStats stats = engine.Stats();
  const double shed_rate = static_cast<double>(stats.pipeline.requests_shed) /
                           static_cast<double>(stats.requests_submitted);
  Measured(StrFormat("overload: %llu submitted open-loop in %.2fs, "
                     "%llu shed (%.1f%%), p95 %.3fms, queue bounded",
                     (unsigned long long)stats.requests_submitted, seconds,
                     (unsigned long long)stats.pipeline.requests_shed,
                     shed_rate * 100.0, stats.pipeline.latency_p95_ms));
  JsonLine("serving_overload")
      .Field("submitted", stats.requests_submitted)
      .Field("shed", stats.pipeline.requests_shed)
      .Field("shed_rate", shed_rate)
      .Field("seconds", seconds)
      .Field("p50_ms", stats.pipeline.latency_p50_ms)
      .Field("p95_ms", stats.pipeline.latency_p95_ms)
      .Field("p99_ms", stats.pipeline.latency_p99_ms)
      .Emit(file);
  // Bounded queues shed under overload instead of queueing unboundedly (the
  // saturation suite proves no-deadlock; this pins the bench workload too).
  SUBTAB_CHECK(stats.pipeline.requests_shed > 0);
  SUBTAB_CHECK(stats.requests_submitted == stats.requests_completed);
}

/// Synthetic drill-down sessions: chains of 4-6 successively narrower
/// queries over the cyber table, the workload Smart Drill-Down reports
/// dominating interactive exploration. Each step either tightens an existing
/// numeric bound or adds a conjunct, so every step's result is contained in
/// its predecessor's — the shape the containment tier reuses.
std::vector<std::vector<SpQuery>> DrillDownSessions(const GeneratedDataset& data,
                                                    size_t num_sessions,
                                                    uint64_t seed) {
  double ts_min = 0.0, ts_max = 1.0, by_min = 0.0, by_max = 1.0;
  {
    size_t ts_idx = *data.table.ColumnIndex("timestamp");
    size_t by_idx = *data.table.ColumnIndex("bytes");
    SUBTAB_CHECK(data.table.column(ts_idx).NumericRange(&ts_min, &ts_max));
    SUBTAB_CHECK(data.table.column(by_idx).NumericRange(&by_min, &by_max));
  }
  auto ts_at = [&](double frac) { return ts_min + frac * (ts_max - ts_min); };
  const char* protocols[] = {"tcp", "udp", "icmp"};
  const char* actions[] = {"allow", "deny", "drop"};

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> base_frac(0.05, 0.35);
  std::vector<std::vector<SpQuery>> sessions;
  for (size_t s = 0; s < num_sessions; ++s) {
    const double lo = base_frac(rng);
    std::vector<SpQuery> chain;
    SpQuery q;
    q.filters = {Predicate::Num("timestamp", CmpOp::kGe, ts_at(lo))};
    chain.push_back(q);
    q.filters.push_back(Predicate::Str("protocol", CmpOp::kEq, protocols[s % 3]));
    chain.push_back(q);
    // Tighten the bound already held: interval containment, no shared literal.
    q.filters[0] = Predicate::Num("timestamp", CmpOp::kGe, ts_at(lo + 0.15));
    chain.push_back(q);
    q.filters.push_back(Predicate::Num(
        "bytes", CmpOp::kLe, by_min + 0.9 * (by_max - by_min)));
    chain.push_back(q);
    if (s % 3 != 0) {  // Chains of 4, 5, and 6 steps.
      q.filters.push_back(Predicate::Str("action", CmpOp::kEq, actions[s % 3]));
      chain.push_back(q);
    }
    if (s % 3 == 2) {
      q.filters[0] = Predicate::Num("timestamp", CmpOp::kGe, ts_at(lo + 0.25));
      chain.push_back(q);
    }
    sessions.push_back(std::move(chain));
  }
  return sessions;
}

/// Walks the sink's retained drill-down traces and enforces the
/// observability acceptance bar: some fully-staged request's
/// queue.scan/scan/select spans must attribute >= 90% of its
/// root's wall time, with the scan span carrying containment + row-cost
/// attributes. Emits the trace_summary record (per-stage p50/p95 off the
/// unified registry histograms) and writes the two artifacts CI uploads:
/// TRACE_serving_exemplars.jsonl (slow-query exemplars; the full ring when
/// nothing crossed the threshold yet) and METRICS_serving.json.
void ReportTraces(const service::ServingEngine& engine,
                  const service::EngineStats& stats, BenchJsonFile* file) {
  const std::shared_ptr<TraceSink>& sink = engine.trace_sink();
  SUBTAB_CHECK(sink != nullptr);
  std::vector<std::shared_ptr<const CompletedTrace>> exemplars =
      sink->Exemplars();
  // Non-destructive observer view: ring (newest first) + exemplars the ring
  // already dropped, deduplicated — the same merge /traces serves.
  std::vector<std::shared_ptr<const CompletedTrace>> retained = sink->Peek();

  size_t staged_traces = 0;
  size_t containment_hit_traces = 0;
  bool scan_attrs_populated = false;
  double best_coverage = 0.0;
  for (const auto& trace : retained) {
    if (trace->spans.size() < 4) continue;  // Root + the 3 stage spans.
    ++staged_traces;
    uint64_t staged_ns = 0;
    for (const TraceSpan& span : trace->spans) {
      if (span.parent_id != 0) staged_ns += span.duration_ns;
      if (span.name != "scan") continue;
      const std::string* containment = span.FindAttr("containment");
      if (containment != nullptr && span.FindAttr("rows_visited") != nullptr &&
          span.FindAttr("chunks_scanned") != nullptr) {
        scan_attrs_populated = true;
        if (*containment == "hit") ++containment_hit_traces;
      }
    }
    best_coverage = std::max(
        best_coverage,
        static_cast<double>(staged_ns) /
            static_cast<double>(
                std::max<uint64_t>(1, trace->root().duration_ns)));
  }

  const TraceSinkStats sink_stats = sink->Stats();
  const service::PipelineStats& pipeline = stats.pipeline;
  Measured(StrFormat(
      "traces: %zu staged retained (%zu containment-hit), best stage "
      "coverage %.1f%% of root wall, %llu exemplars pinned (threshold %.3fms)",
      staged_traces, containment_hit_traces, best_coverage * 100.0,
      (unsigned long long)sink_stats.exemplars_pinned,
      sink_stats.exemplar_threshold_seconds * 1e3));
  JsonLine("trace_summary")
      .Field("staged_traces", static_cast<uint64_t>(staged_traces))
      .Field("containment_hit_traces",
             static_cast<uint64_t>(containment_hit_traces))
      .Field("span_coverage", best_coverage)
      .Field("queue_scan_p50_ms", pipeline.stage_queue_scan.p50_ms)
      .Field("queue_scan_p95_ms", pipeline.stage_queue_scan.p95_ms)
      .Field("scan_p50_ms", pipeline.stage_scan.p50_ms)
      .Field("scan_p95_ms", pipeline.stage_scan.p95_ms)
      .Field("select_p50_ms", pipeline.stage_select.p50_ms)
      .Field("select_p95_ms", pipeline.stage_select.p95_ms)
      .Field("traces_committed", sink_stats.committed)
      .Field("exemplars_pinned", sink_stats.exemplars_pinned)
      .Field("exemplar_threshold_ms",
             sink_stats.exemplar_threshold_seconds * 1e3)
      .Emit(file);

  // Acceptance: the stage spans account for the request, not just decorate
  // it — and the scan span explains its cost (containment verdict + rows).
  SUBTAB_CHECK(staged_traces > 0);
  SUBTAB_CHECK(scan_attrs_populated);
  SUBTAB_CHECK(best_coverage >= 0.9);

  // Artifacts for the CI stress job. Exemplar pinning needs a minimum
  // sample count before the percentile threshold arms; fall back to the
  // ring so the artifact is never empty on short runs.
  const std::string jsonl =
      TracesToJsonl(exemplars.empty() ? retained : exemplars);
  if (std::FILE* f = std::fopen("TRACE_serving_exemplars.jsonl", "w")) {
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("wrote TRACE_serving_exemplars.jsonl (%zu traces)\n",
                exemplars.empty() ? retained.size() : exemplars.size());
  }
  const std::string metrics = engine.MetricsJson();
  if (std::FILE* f = std::fopen("METRICS_serving.json", "w")) {
    std::fwrite(metrics.data(), 1, metrics.size(), f);
    std::fclose(f);
    std::printf("wrote METRICS_serving.json\n");
  }
}

/// Drill-down trace through the containment tier, against the same trace
/// with reuse disabled: hit rate, restricted- vs full-scan rows, and the
/// throughput delta. The full-size AND quick runs both enforce the
/// acceptance criteria: containment hits > 0, restricted scans smaller
/// than the table.
void RunDrillDown(const GeneratedDataset& data,
                  const std::string& model_dir, bool quick,
                  BenchJsonFile* file) {
  constexpr size_t kClients = 4;
  const std::vector<std::vector<SpQuery>> sessions =
      DrillDownSessions(data, quick ? 24 : 120, 123);
  // Whole chains per client, steps in order: a refinement is always
  // submitted after its parent resolved, as an analyst would.
  std::vector<std::vector<SpQuery>> per_client(kClients);
  for (size_t s = 0; s < sessions.size(); ++s) {
    for (const SpQuery& q : sessions[s]) per_client[s % kClients].push_back(q);
  }

  double rps_without = 0.0;
  for (const bool containment : {false, true}) {
    service::EngineOptions options;
    options.num_threads = kClients;
    options.persist_dir = model_dir;
    options.containment_reuse = containment;
    service::ServingEngine engine(options);
    SUBTAB_CHECK(engine.RegisterTable("cyber", data.table, DefaultConfig()).ok());

    const service::EngineStats before = engine.Stats();
    PhaseResult result = RunClients(engine, kClients, per_client);
    const service::EngineStats after = engine.Stats();
    Report(containment ? "drill+c" : "drill", kClients, result, before, after,
           file);

    const auto& c = after.containment;
    const double hit_rate =
        static_cast<double>(c.containment_hits) /
        static_cast<double>(
            std::max<uint64_t>(1, c.containment_hits + c.containment_misses));
    const double avg_restricted =
        c.containment_hits == 0
            ? 0.0
            : static_cast<double>(c.restricted_scan_rows) /
                  static_cast<double>(c.containment_hits);
    const double table_rows = static_cast<double>(data.table.num_rows());
    Measured(StrFormat(
        "drill-down %-3s  %8.1f req/s  containment-hit %4.1f%%  "
        "restricted scan %7.1f rows vs table %zu  (%.2fx vs no-reuse)",
        containment ? "on" : "off", result.rps, hit_rate * 100.0,
        avg_restricted, data.table.num_rows(),
        rps_without > 0.0 ? result.rps / rps_without : 1.0));
    JsonLine("serving_drilldown")
        .Field("containment", containment ? uint64_t{1} : uint64_t{0})
        .Field("requests", static_cast<uint64_t>(result.requests))
        .Field("rps", result.rps)
        .Field("containment_hits", c.containment_hits)
        .Field("containment_hit_rate", hit_rate)
        .Field("restricted_scan_rows", c.restricted_scan_rows)
        .Field("avg_restricted_scan_rows", avg_restricted)
        .Field("full_scan_rows", c.full_scan_rows)
        .Field("table_rows", static_cast<uint64_t>(data.table.num_rows()))
        .Field("speedup_vs_no_reuse",
               rps_without > 0.0 ? result.rps / rps_without : 1.0)
        .Emit(file);

    if (!containment) {
      rps_without = result.rps;
      SUBTAB_CHECK(c.containment_hits == 0);  // Reuse actually disabled.
    } else {
      // Acceptance: drill-downs reuse cached ancestors, and restricted
      // scans are genuinely smaller than full-table scans.
      SUBTAB_CHECK(c.containment_hits > 0);
      SUBTAB_CHECK(avg_restricted < table_rows);
      // The drill-down engine is also where the retained traces must carry
      // their weight (containment attributes on real refinement chains).
      ReportTraces(engine, after, file);
    }
  }
}

/// Tracing cost guard: the same cold workload (per-request seeds dodge the
/// cache, so every request walks scan + select) through fresh engines with
/// tracing off and on. The arms run interleaved for kTrials pairs, and
/// alternate which arm leads a pair, so warm-up and machine drift land on
/// both arms alike; the record carries the median per-pair overhead and its IQR. The
/// full-size run enforces the <= 3% bound on the median; --quick's
/// per-request work is too small for a stable ratio in CI.
void RunTracingOverhead(const GeneratedDataset& data,
                        const std::vector<SpQuery>& queries,
                        const std::string& model_dir, bool quick,
                        BenchJsonFile* file) {
  static constexpr size_t kClients = 4;
  constexpr size_t kTrials = 5;
  // Passes over the query list per arm: enough work that one pair's ratio
  // is not dominated by scheduling noise at --quick sizes.
  static constexpr size_t kRepeats = 3;

  const auto run_arm = [&](bool tracing) {
    service::EngineOptions options;
    options.num_threads = kClients;
    options.persist_dir = model_dir;
    options.tracing = tracing;
    service::ServingEngine engine(options);
    SUBTAB_CHECK(engine.RegisterTable("cyber", data.table, DefaultConfig()).ok());
    SUBTAB_CHECK((engine.trace_sink() != nullptr) == tracing);

    // Unique seeds per request keep both arms on the full staged path.
    Stopwatch wall;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&engine, &queries, c] {
        for (size_t r = 0; r < kRepeats; ++r) {
          for (size_t i = c; i < queries.size(); i += kClients) {
            service::SelectRequest request;
            request.table_id = "cyber";
            request.query = queries[i];
            request.seed = 900000 + (r * kClients + c) * queries.size() + i;
            const service::SelectResponse response = engine.Select(request);
            SUBTAB_CHECK(response.status.ok() ||
                         response.status.code() ==
                             StatusCode::kInvalidArgument);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    return static_cast<double>(engine.Stats().requests_submitted) /
           wall.ElapsedSeconds();
  };

  std::vector<double> rps_off, rps_on, overheads;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    const bool traced_first = trial % 2 == 1;
    const double first = run_arm(traced_first);
    const double second = run_arm(!traced_first);
    rps_off.push_back(traced_first ? second : first);
    rps_on.push_back(traced_first ? first : second);
    overheads.push_back(1.0 - rps_on.back() / rps_off.back());
  }
  std::sort(rps_off.begin(), rps_off.end());
  std::sort(rps_on.begin(), rps_on.end());
  std::sort(overheads.begin(), overheads.end());
  const double overhead = NearestRank(overheads, 0.50);
  const double overhead_iqr =
      NearestRank(overheads, 0.75) - NearestRank(overheads, 0.25);
  const double median_off = NearestRank(rps_off, 0.50);
  const double median_on = NearestRank(rps_on, 0.50);
  Measured(StrFormat("tracing overhead (cold staged path, %zu interleaved "
                     "pairs): median %.1f traced vs %.1f untraced req/s, "
                     "overhead %+.2f%% (IQR %.2f%%, bound 3%%)",
                     kTrials, median_on, median_off, overhead * 100.0,
                     overhead_iqr * 100.0));
  JsonLine("tracing_overhead")
      .Field("rps_traced", median_on)
      .Field("rps_untraced", median_off)
      .Field("overhead", overhead)
      .Field("overhead_iqr", overhead_iqr)
      .Field("trials", static_cast<uint64_t>(kTrials))
      .Emit(file);
  if (!quick) SUBTAB_CHECK(overhead <= 0.03);
}

/// Sub-linear sampled selection vs the exact path on a scope large enough
/// that the threshold (10k rows) is exceeded even in --quick. Timed on the
/// model directly (SelectScoped with and without sampling, same seeds) so
/// the comparison isolates the select stage; quality ratios come from the
/// same SampleQualityCheck the engine's gate uses. Both run sizes enforce
/// the acceptance criteria: sampled p95 <= 0.3x exact, and MEAN combined
/// coverage+diversity ratio >= 0.95 across the paired seeds. Per-seed
/// ratios straddle 1.0 either way (k-means local optima: a sample can beat
/// the exact run), so the worst seed is reported but not gated — in
/// production a sub-gate seed is exactly what the engine's quality check
/// catches and serves exact instead (quality_fallbacks counts them here).
void RunSampledSelection(const BenchArgs& args, BenchJsonFile* file) {
  GeneratedDataset data = LoadDataset("CY", ScaleFor(args.quick).Rows(30000, 12000));
  Result<SubTab> fitted = SubTab::Fit(data.table, DefaultConfig());
  SUBTAB_CHECK(fitted.ok());
  const SubTab& model = *fitted;

  SelectionScope scope;  // Full table: the worst case for exact selection.
  SelectionSamplingOptions sampling;
  sampling.min_rows = 1;
  sampling.sample_rows = 2048;
  constexpr size_t kRows = 10, kCols = 8;

  // Exact is the slow side, so only the first `pairs` iterations run it
  // (paired seeds: the quality ratio compares like with like).
  const size_t pairs = args.quick ? 6 : 15;
  const size_t sampled_iters = args.quick ? 24 : 60;

  SampleQualityCheck quality;
  std::vector<double> sampled_seconds, exact_seconds;
  double worst_ratio = 2.0, ratio_sum = 0.0;
  uint64_t checks = 0, fallbacks = 0;
  for (size_t i = 0; i < sampled_iters; ++i) {
    const uint64_t seed = 4242 + i;
    const SubTabView sampled =
        model.SelectScoped(scope, kRows, kCols, seed, sampling);
    SUBTAB_CHECK(sampled.sampled);
    sampled_seconds.push_back(sampled.selection_seconds);
    if (i < pairs) {
      const SubTabView exact = model.SelectScoped(scope, kRows, kCols, seed);
      exact_seconds.push_back(exact.selection_seconds);
      const double ratio = quality.QualityRatio(
          /*model_digest=*/1, model.preprocessed().binned(),
          /*keep_alive=*/nullptr, sampled.row_ids, sampled.col_ids,
          exact.row_ids, exact.col_ids);
      ++checks;
      worst_ratio = std::min(worst_ratio, ratio);
      ratio_sum += ratio;
      if (ratio < 0.95) ++fallbacks;
    }
  }
  std::sort(sampled_seconds.begin(), sampled_seconds.end());
  std::sort(exact_seconds.begin(), exact_seconds.end());
  const double sampled_p95 = PercentileMs(sampled_seconds, 0.95);
  const double exact_p95 = PercentileMs(exact_seconds, 0.95);
  const double speedup = exact_p95 / sampled_p95;
  const double mean_ratio = ratio_sum / static_cast<double>(checks);

  Measured(StrFormat(
      "sampled selection %zu of %zu rows: p95 %.2f ms vs exact %.2f ms "
      "(%.1fx, floor 3.3x)  quality ratio %.3f mean / %.3f worst "
      "(gate 0.95 on mean; %zu of %zu seeds would fall back)",
      sampling.sample_rows, data.table.num_rows(), sampled_p95, exact_p95,
      speedup, mean_ratio, worst_ratio, static_cast<size_t>(fallbacks),
      static_cast<size_t>(checks)));
  JsonLine("selection_sampling")
      .Field("scope_rows", static_cast<uint64_t>(data.table.num_rows()))
      .Field("sample_rows", static_cast<uint64_t>(sampling.sample_rows))
      .Field("sampled_select_p95_ms", sampled_p95)
      .Field("exact_select_p95_ms", exact_p95)
      .Field("speedup", speedup)
      .Field("quality_ratio", mean_ratio)
      .Field("worst_quality_ratio", worst_ratio)
      .Field("quality_checks", checks)
      .Field("quality_fallbacks", fallbacks)
      .Emit(file);

  SUBTAB_CHECK(sampled_p95 <= 0.3 * exact_p95);
  SUBTAB_CHECK(mean_ratio >= 0.95);
}

/// Zone-map pruning on the scan stage itself: a wide clustered table
/// (ascending timestamps rechunked into ~128 sealed chunks, a block-local
/// categorical riding along) under narrowing drill-down chains — the
/// analyst refinement pattern where each step's range is a subset of its
/// parent's, so most chunks refute most steps. ResolveQueryScope is timed
/// directly (pruning on vs off, identical queries and repeats) so the
/// comparison isolates the filter scan from selection/caching; bit-identity
/// is asserted on every query. Both run sizes enforce the acceptance bar:
/// mean pruned-chunk fraction >= 60% and full-scan p95 >= 2x the pruned p95.
void RunScanPruning(const BenchArgs& args, BenchJsonFile* file) {
  const size_t rows = ScaleFor(args.quick).Rows(512000);
  constexpr size_t kChunks = 128;
  const size_t chunk_rows = rows / kChunks;
  constexpr size_t kBlocks = 8;  // Categorical value per table eighth.
  std::vector<double> ts(rows);
  std::vector<std::string> shard(rows);
  for (size_t i = 0; i < rows; ++i) {
    ts[i] = static_cast<double>(i);
    shard[i] = "shard" + std::to_string(i * kBlocks / rows);
  }
  Result<Table> made =
      Table::Make({Column::Numeric("ts", ts).Rechunked(chunk_rows),
                   Column::Categorical("shard", shard).Rechunked(chunk_rows)});
  SUBTAB_CHECK(made.ok());
  const Table& table = *made;

  // Drill-down chains: each starts on a quarter of the domain at a random
  // offset plus the shard holding its lower edge, then tightens the range
  // by 0.6x per step — interval containment, like DrillDownSessions.
  const size_t chains = ScaleFor(args.quick).Count(8, 4);
  constexpr size_t kSteps = 10;
  std::mt19937 rng(271);
  std::uniform_real_distribution<double> offset(0.0, 0.7);
  std::vector<SpQuery> queries;
  for (size_t c = 0; c < chains; ++c) {
    const double lo = offset(rng) * static_cast<double>(rows);
    double span = 0.25 * static_cast<double>(rows);
    const std::string value =
        "shard" + std::to_string(static_cast<size_t>(lo) * kBlocks / rows);
    for (size_t s = 0; s < kSteps; ++s) {
      SpQuery q;
      q.filters = {Predicate::Num("ts", CmpOp::kGe, lo),
                   Predicate::Num("ts", CmpOp::kLt, lo + span),
                   Predicate::Str("shard", CmpOp::kEq, value)};
      queries.push_back(q);
      span *= 0.6;
    }
  }

  QueryExecOptions pruned;  // Serial: isolate pruning from thread fan-out.
  pruned.zone_map_pruning = true;
  QueryExecOptions full = pruned;
  full.zone_map_pruning = false;

  const size_t repeats = ScaleFor(args.quick).Count(9, 5);
  std::vector<double> pruned_seconds, full_seconds;
  double pruned_fraction_sum = 0.0;
  uint64_t code_eval = 0;
  for (const SpQuery& q : queries) {
    Result<QueryScope> off = ResolveQueryScope(table, q, full);
    SUBTAB_CHECK(off.ok());
    Result<QueryScope> on = ResolveQueryScope(table, q, pruned);
    SUBTAB_CHECK(on.ok());
    SUBTAB_CHECK(on->row_ids == off->row_ids);  // Bit-identity, every query.
    SUBTAB_CHECK(on->col_ids == off->col_ids);
    const ScanStats& s = on->stats;
    SUBTAB_CHECK(s.chunks_scanned + s.chunks_pruned ==
                 off->stats.chunks_scanned);
    pruned_fraction_sum += static_cast<double>(s.chunks_pruned) /
                           static_cast<double>(std::max<size_t>(
                               1, s.chunks_scanned + s.chunks_pruned));
    code_eval += s.code_eval_predicates;
    for (size_t r = 0; r < repeats; ++r) {
      Stopwatch watch;
      (void)ResolveQueryScope(table, q, pruned);
      pruned_seconds.push_back(watch.ElapsedSeconds());
      watch.Reset();
      (void)ResolveQueryScope(table, q, full);
      full_seconds.push_back(watch.ElapsedSeconds());
    }
  }
  std::sort(pruned_seconds.begin(), pruned_seconds.end());
  std::sort(full_seconds.begin(), full_seconds.end());
  const double pruned_p95 = PercentileMs(pruned_seconds, 0.95);
  const double full_p95 = PercentileMs(full_seconds, 0.95);
  const double speedup = full_p95 / pruned_p95;
  const double pruned_fraction =
      pruned_fraction_sum / static_cast<double>(queries.size());

  Measured(StrFormat(
      "scan pruning over %zu rows / %zu chunks: %zu drill-down queries, "
      "%.1f%% chunks pruned (floor 60%%), scan p95 %.3f ms pruned vs %.3f ms "
      "full (%.1fx, floor 2x), %llu code-eval conjuncts",
      rows, kChunks, queries.size(), pruned_fraction * 100.0, pruned_p95,
      full_p95, speedup, static_cast<unsigned long long>(code_eval)));
  JsonLine("scan_pruning")
      .Field("table_rows", static_cast<uint64_t>(rows))
      .Field("chunks", static_cast<uint64_t>(kChunks))
      .Field("queries", static_cast<uint64_t>(queries.size()))
      .Field("pruned_chunk_fraction", pruned_fraction)
      .Field("scan_p95_pruned_ms", pruned_p95)
      .Field("scan_p95_full_ms", full_p95)
      .Field("speedup", speedup)
      .Field("code_eval_predicates", code_eval)
      .Field("bit_identical", uint64_t{1})
      .Emit(file);

  SUBTAB_CHECK(pruned_fraction >= 0.6);
  SUBTAB_CHECK(speedup >= 2.0);
}

}  // namespace
}  // namespace subtab::bench

int main(int argc, char** argv) {
  using namespace subtab::bench;
  using namespace subtab;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  BenchJsonFile file("serving", args.quick);

  Header("Serving throughput: requests/sec and latency vs worker threads");
  PaperRef("(no paper figure; ROADMAP north-star metric. Paper reports 1-5s");
  PaperRef("per serial selection, Fig. 9 — the engine must beat that at p99");
  PaperRef("while scaling with threads and serving repeats from cache.)");

  GeneratedDataset data = LoadDataset("CY", ScaleFor(args.quick).Rows(8000));
  SessionGeneratorOptions session_options;
  session_options.num_sessions = ScaleFor(args.quick).Count(40, 12);
  session_options.seed = 9;
  std::vector<Session> sessions = GenerateSessions(data, session_options);
  const std::vector<SpQuery> queries = StepQueries(sessions);
  std::printf("\n%zu sessions -> %zu step queries, %zu hardware threads\n\n",
              sessions.size(), queries.size(), HardwareThreads());

  const std::string model_dir =
      (std::filesystem::temp_directory_path() / "subtab_bench_models").string();
  std::filesystem::create_directories(model_dir);

  const std::vector<size_t> thread_counts =
      args.quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16};
  for (size_t threads : thread_counts) {
    RunOne(threads, data, queries, model_dir, &file);
  }

  RunOverload(data, queries, model_dir, &file);
  RunDrillDown(data, model_dir, args.quick, &file);
  RunTracingOverhead(data, queries, model_dir, args.quick, &file);
  RunSampledSelection(args, &file);
  RunScanPruning(args, &file);
  file.Write();
  return 0;
}
