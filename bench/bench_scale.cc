#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "subtab/service/engine.h"
#include "subtab/util/parallel.h"
#include "subtab/util/stopwatch.h"
#include "subtab/util/string_util.h"
#include "subtab/workload/synthetic_table.h"
#include "subtab/workload/traffic_driver.h"

/// \file bench_scale.cc
/// BENCH_scale: the workload-forge scaling harness (ROADMAP item 4). Two
/// phases:
///
///   1. generator_scaling — GenerateSyntheticTable must be O(rows): the
///      per-row cost of a 10x larger table (10^6 rows full-size) must stay
///      flat within [0.8, 1.2] (CHECKed; wider under --quick where runner
///      noise dominates short runs).
///
///   2. scale_sweep — the OPEN-LOOP knee. For each rows x threads point an
///      engine serves Zipf-skewed multi-tenant drill-down traffic fired by
///      the TrafficDriver at rates calibrated against the measured per-
///      request busy time: below capacity, around capacity, and past
///      saturation (plus a bursty point at capacity in full runs). Unlike
///      the closed-loop benches, arrival never waits for completion, so
///      shed rate and queueing delay are real observables. Per (rows,
///      threads) group the knee is CHECKed: past saturation the shed rate
///      must rise while the p95 of ADMITTED requests stays bounded by the
///      admission queue (no unbounded queueing) — bounded-queue theory
///      gives wait <= (max_queue_depth / threads + 1) service times, and we
///      allow generous slack for percentile-vs-mean spread and histogram
///      bucket resolution.
///
/// Emits BENCH_scale.json (scale_sweep / generator_scaling / scale_knee
/// records; scripts/check_bench_schema.py --scale pins the schema, and
/// scripts/bench_history.py --scale folds the headline numbers into the
/// bench trajectory).

namespace subtab::bench {
namespace {

using subtab::workload::ArrivalProcess;
using subtab::workload::ArrivalProcessName;
using subtab::workload::ColumnDataDistribution;
using subtab::workload::DriveReport;
using subtab::workload::GenerateSyntheticTable;
using subtab::workload::PlantedRule;
using subtab::workload::SyntheticColumnSpec;
using subtab::workload::SyntheticTable;
using subtab::workload::SyntheticTableSpec;
using subtab::workload::TrafficDriver;
using subtab::workload::TrafficOptions;
using subtab::workload::TrafficRequest;

/// The forge spec every phase shares: heavy-tailed and skewed marginals,
/// planted rules over the categorical triplet, profile-driven cluster
/// structure — million-row data the coverage metrics still mean something
/// on.
SyntheticTableSpec ForgeSpec(size_t rows, uint64_t seed) {
  SyntheticTableSpec spec;
  spec.name = "forge";
  spec.num_rows = rows;
  spec.chunk_rows = 16384;
  spec.seed = seed;
  auto amount = ColumnDataDistribution::Pareto(1.0, 1.3);
  amount.null_fraction = 0.04;
  spec.columns = {
      SyntheticColumnSpec::Numeric("amount", amount),
      SyntheticColumnSpec::Numeric(
          "score", ColumnDataDistribution::NormalSkewed(50.0, 12.0, 4.0)),
      SyntheticColumnSpec::Numeric(
          "age", ColumnDataDistribution::Uniform(18.0, 90.0, 64), 0.35),
      SyntheticColumnSpec::Categorical(
          "region", ColumnDataDistribution::Uniform(0.0, 1.0, 4)),
      SyntheticColumnSpec::Categorical(
          "device", ColumnDataDistribution::Uniform(0.0, 1.0, 4), 0.5),
      SyntheticColumnSpec::Categorical(
          "outcome", ColumnDataDistribution::Uniform(0.0, 1.0, 4)),
      SyntheticColumnSpec::Categorical(
          "plan", ColumnDataDistribution::Pareto(1.0, 1.1, 6)),
  };
  spec.rules = {
      PlantedRule{{{"region", 1}, {"device", 2}}, {"outcome", 0}, 0.12, 0.9},
      PlantedRule{{{"region", 2}, {"device", 0}}, {"outcome", 3}, 0.08, 0.85},
  };
  spec.num_profiles = 8;
  spec.profile_zipf = 1.1;
  return spec;
}

/// Drill-down chains over the forge columns (the bench_serving idiom:
/// narrowing numeric bounds + categorical refinements, so containment reuse
/// and zone-map pruning see their intended workload).
std::vector<std::vector<SpQuery>> ForgeSessions(const SyntheticTable& data,
                                                size_t num_sessions,
                                                uint64_t seed) {
  double score_min = 0.0, score_max = 1.0, age_min = 0.0, age_max = 1.0;
  SUBTAB_CHECK(data.table.column(data.ColumnIndex("score"))
                   .NumericRange(&score_min, &score_max));
  SUBTAB_CHECK(data.table.column(data.ColumnIndex("age"))
                   .NumericRange(&age_min, &age_max));
  auto score_at = [&](double f) {
    return score_min + f * (score_max - score_min);
  };
  Rng rng(seed);
  std::vector<std::vector<SpQuery>> sessions;
  sessions.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    const double lo = rng.UniformDouble(0.05, 0.35);
    std::vector<SpQuery> chain;
    SpQuery q;
    q.filters = {Predicate::Num("score", CmpOp::kGe, score_at(lo))};
    chain.push_back(q);
    q.filters.push_back(Predicate::Str(
        "region", CmpOp::kEq, workload::CategoryOfIndex(rng.Uniform(4))));
    chain.push_back(q);
    q.filters[0] = Predicate::Num("score", CmpOp::kGe, score_at(lo + 0.1));
    chain.push_back(q);
    q.filters.push_back(Predicate::Num(
        "age", CmpOp::kLe, age_min + 0.85 * (age_max - age_min)));
    chain.push_back(q);
    if (s % 2 == 0) {
      q.filters.push_back(Predicate::Str(
          "device", CmpOp::kEq, workload::CategoryOfIndex(rng.Uniform(4))));
      chain.push_back(q);
    }
    sessions.push_back(std::move(chain));
  }
  return sessions;
}

// ---------------------------------------------------------------- phase 1 --

double BestGenerationSeconds(const SyntheticTableSpec& spec, int attempts) {
  double best = 1e300;
  for (int i = 0; i < attempts; ++i) {
    Stopwatch watch;
    SyntheticTable generated = GenerateSyntheticTable(spec);
    best = std::min(best, watch.ElapsedSeconds());
    SUBTAB_CHECK(generated.table.num_rows() == spec.num_rows);
  }
  return best;
}

void RunGeneratorScaling(const BenchScale& scale, BenchJsonFile* file) {
  Header("Generator scaling: per-row cost flat across 10x (O(rows))");
  PaperRef("(no paper figure; ROADMAP item 4 — the harness must mint");
  PaperRef("10^6-row tables in O(rows) or the sweep cannot afford them.)");

  const size_t rows_small = scale.Rows(100000, 25000);
  const size_t rows_large = rows_small * 10;  // 10^6 at full size.
  const double small_s = BestGenerationSeconds(ForgeSpec(rows_small, 7), 3);
  const double large_s = BestGenerationSeconds(ForgeSpec(rows_large, 7), 2);
  const double ns_small = small_s / static_cast<double>(rows_small) * 1e9;
  const double ns_large = large_s / static_cast<double>(rows_large) * 1e9;
  const double ratio = ns_large / ns_small;
  // Quick CI sizes are small enough that constant costs and runner noise
  // smear the ratio; the strict O(rows) gate is the full-size run's.
  const double lo = scale.quick ? 0.6 : 0.8;
  const double hi = scale.quick ? 1.7 : 1.2;
  const bool flat = ratio >= lo && ratio <= hi;

  Measured(StrFormat("%zu rows in %.3fs (%.0f ns/row); %zu rows in %.3fs "
                     "(%.0f ns/row); per-row ratio %.3f (flat in [%.1f, %.1f])",
                     rows_small, small_s, ns_small, rows_large, large_s,
                     ns_large, ratio, lo, hi));
  JsonLine("generator_scaling")
      .Field("rows_small", static_cast<uint64_t>(rows_small))
      .Field("rows_large", static_cast<uint64_t>(rows_large))
      .Field("ns_per_row_small", ns_small)
      .Field("ns_per_row_large", ns_large)
      .Field("per_row_ratio", ratio)
      .Field("flat", static_cast<uint64_t>(flat ? 1 : 0))
      .Emit(file);
  SUBTAB_CHECK(flat);
}

// ---------------------------------------------------------------- phase 2 --

struct SweepResult {
  double rate_rps = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double shed_fraction = 0.0;
};

double HistP95Ms(const MetricsSnapshot& delta, const std::string& name) {
  const auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0.0
                                      : it->second.Percentile(0.95) * 1e3;
}

/// One open-loop point: fire `total` requests at `rate`, report admitted
/// latency (engine-side pipeline.latency delta — client-side timing would
/// re-measure the closed loop we just removed) and the shed fraction.
SweepResult RunSweepPoint(service::ServingEngine& engine,
                          const std::vector<std::vector<SpQuery>>& sessions,
                          size_t rows, size_t threads, size_t tenants,
                          ArrivalProcess arrival, double rate, size_t total,
                          uint64_t seed, BenchJsonFile* file) {
  TrafficOptions traffic;
  traffic.rate_rps = rate;
  traffic.arrival = arrival;
  traffic.num_tenants = tenants;
  traffic.tenant_zipf = 1.0;
  traffic.total_requests = total;
  traffic.seed = seed;
  TrafficDriver driver(traffic, sessions);

  const MetricsSnapshot before = engine.metrics().Snapshot();
  const service::EngineStats stats_before = engine.Stats();
  // Unique per-request seeds dodge the selection cache / in-flight dedup, so
  // every admitted request pays real pipeline work and admission control is
  // actually exercised (cache hits are admission-free).
  const uint64_t seed_base = seed * 1000003ULL;
  Stopwatch wall;
  const DriveReport report = driver.Drive([&](const TrafficRequest& request) {
    service::SelectRequest select;
    select.table_id = request.table_id;
    select.query = *request.query;
    select.seed = seed_base + request.sequence;
    engine.SubmitSelect(select);  // Open loop: never wait here.
  });
  engine.Drain();
  const double elapsed = wall.ElapsedSeconds();

  const service::EngineStats stats_after = engine.Stats();
  const MetricsSnapshot delta = engine.metrics().Snapshot().Delta(before);
  const uint64_t submitted =
      stats_after.requests_submitted - stats_before.requests_submitted;
  const uint64_t shed = stats_after.pipeline.requests_shed -
                        stats_before.pipeline.requests_shed;
  SUBTAB_CHECK(submitted == report.fired);

  SweepResult result;
  result.rate_rps = rate;
  result.shed_fraction =
      static_cast<double>(shed) /
      static_cast<double>(std::max<uint64_t>(1, submitted));
  result.rps = static_cast<double>(submitted - shed) / std::max(1e-9, elapsed);
  const auto latency = delta.histograms.find("pipeline.latency");
  if (latency != delta.histograms.end()) {
    result.p50_ms = latency->second.Percentile(0.50) * 1e3;
    result.p95_ms = latency->second.Percentile(0.95) * 1e3;
    result.p99_ms = latency->second.Percentile(0.99) * 1e3;
  }

  Measured(StrFormat(
      "%7zu rows %2zu thr %2zu tenants %-7s %7.1f rps offered -> %7.1f "
      "served  p50 %7.2fms p95 %7.2fms  shed %5.1f%%  lag max %.2fms",
      rows, threads, tenants, ArrivalProcessName(arrival), rate, result.rps,
      result.p50_ms, result.p95_ms, result.shed_fraction * 100.0,
      report.max_lag_seconds * 1e3));
  JsonLine("scale_sweep")
      .Field("rows", static_cast<uint64_t>(rows))
      .Field("threads", static_cast<uint64_t>(threads))
      .Field("tenants", static_cast<uint64_t>(tenants))
      .Field("arrival", std::string(ArrivalProcessName(arrival)))
      .Field("rate_rps", rate)
      .Field("fired", static_cast<uint64_t>(report.fired))
      .Field("duration_s", elapsed)
      .Field("rps", result.rps)
      .Field("p50_ms", result.p50_ms)
      .Field("p95_ms", result.p95_ms)
      .Field("p99_ms", result.p99_ms)
      .Field("shed_fraction", result.shed_fraction)
      .Field("queue_scan_p95_ms", HistP95Ms(delta, "pipeline.stage.queue_scan"))
      .Field("scan_p95_ms", HistP95Ms(delta, "pipeline.stage.scan"))
      .Field("select_p95_ms", HistP95Ms(delta, "pipeline.stage.select"))
      .Field("max_lag_ms", report.max_lag_seconds * 1e3)
      .Emit(file);
  return result;
}

void RunScaleSweep(const BenchScale& scale, const std::string& model_dir,
                   BenchJsonFile* file) {
  Header("Open-loop scale sweep: rows x threads x tenants x arrival rate");
  PaperRef("(no paper figure; ROADMAP north star — 'heavy traffic from");
  PaperRef("millions of users'. Closed-loop benches cannot show the knee:");
  PaperRef("offered load must exceed capacity for shed/queueing to exist.)");

  const std::vector<size_t> rows_list =
      scale.quick ? std::vector<size_t>{scale.Rows(250000)}
                  : std::vector<size_t>{250000, 1000000};
  const std::vector<size_t> threads_list =
      scale.quick ? std::vector<size_t>{4} : std::vector<size_t>{4, 16};
  const size_t tenants = scale.Count(8, 4);

  SubTabConfig config = DefaultConfig(17);
  // The forge tables are 1-2 orders past the paper-replica benches; bound
  // the one-off fit without touching the serving path under test.
  config.embedding.epochs = 2;
  config.embedding.num_threads = HardwareThreads();

  for (const size_t rows : rows_list) {
    const SyntheticTable data = GenerateSyntheticTable(ForgeSpec(rows, 7));
    const std::vector<std::vector<SpQuery>> sessions =
        ForgeSessions(data, scale.Count(64, 24), 123);

    for (const size_t threads : threads_list) {
      service::EngineOptions options;
      options.num_threads = threads;
      options.persist_dir = model_dir;  // Fit once, load on later engines.
      options.max_queue_depth = 4 * threads;
      options.max_pending_per_tenant = 2 * threads;
      options.tracing = false;  // Stage histograms record regardless.
      service::ServingEngine engine(options);
      for (size_t t = 0; t < tenants; ++t) {
        // Same table under every tenant id: the registry dedups by content
        // fingerprint, so one fit serves all tenants (multi-tenancy without
        // N copies — exactly the production claim being tested).
        SUBTAB_CHECK(engine
                         .RegisterTable("t" + std::to_string(t), data.table,
                                        config)
                         .ok());
      }

      // Calibrate capacity by direct measurement: a short CLOSED-loop burst
      // with `threads` concurrent clients (each waits for its responses, so
      // admission control never sheds) saturates the workers, and served
      // throughput IS the capacity. Deriving it from solo stage times would
      // overestimate — selection fans out internally and workers contend
      // for the same cores, so per-request wall time stretches under load.
      const size_t cal_per_client = 12;
      Stopwatch cal_watch;
      {
        std::vector<std::thread> clients;
        for (size_t c = 0; c < threads; ++c) {
          clients.emplace_back([&, c] {
            for (size_t i = 0; i < cal_per_client; ++i) {
              const size_t n = c * cal_per_client + i;
              service::SelectRequest request;
              request.table_id = "t" + std::to_string(n % tenants);
              request.query = sessions[n % sessions.size()]
                                      [n % sessions[n % sessions.size()].size()];
              request.seed = 900000000ULL + n;
              SUBTAB_CHECK(engine.Select(request).status.ok());
            }
          });
        }
        for (std::thread& client : clients) client.join();
      }
      const double cal_s = std::max(1e-6, cal_watch.ElapsedSeconds());
      const double capacity =
          static_cast<double>(threads * cal_per_client) / cal_s;
      // Effective busy time per request per worker at saturation (feeds the
      // queueing bound below).
      const double busy_per_request = static_cast<double>(threads) / capacity;
      Measured(StrFormat(
          "%7zu rows %2zu thr: calibrated capacity ~%.0f rps (%.2fms "
          "effective busy/request)",
          rows, threads, capacity, busy_per_request * 1e3));

      // Below capacity / near capacity / past saturation (+ a bursty point
      // at capacity in full runs).
      struct Point {
        ArrivalProcess arrival;
        double fraction;
      };
      std::vector<Point> points = {{ArrivalProcess::kPoisson, 0.25},
                                   {ArrivalProcess::kPoisson, 0.7},
                                   {ArrivalProcess::kPoisson, 2.5}};
      if (!scale.quick) {
        points.push_back({ArrivalProcess::kBursty, 1.0});
      }
      const double target_seconds = scale.quick ? 4.0 : 6.0;
      std::vector<SweepResult> results;
      for (size_t p = 0; p < points.size(); ++p) {
        const double rate = std::max(1.0, capacity * points[p].fraction);
        const size_t total = std::min<size_t>(
            6000,
            std::max<size_t>(80, static_cast<size_t>(rate * target_seconds)));
        results.push_back(RunSweepPoint(
            engine, sessions, rows, threads, tenants, points[p].arrival,
            rate, total, /*seed=*/1000 + rows / 1000 + threads * 13 + p,
            file));
      }

      // The knee: shed must rise past saturation while admitted p95 stays
      // bounded by the admission queue.
      const SweepResult& low = results.front();
      const SweepResult& top = results[2];  // The 2.5x-capacity point.
      const double bound_ms =
          (static_cast<double>(options.max_queue_depth) /
               static_cast<double>(threads) +
           2.0) *
          busy_per_request * 1e3 * (scale.quick ? 6.0 : 4.0);
      const bool knee = top.shed_fraction >
                            std::max(0.05, low.shed_fraction + 0.02) &&
                        low.shed_fraction < 0.10 && top.p95_ms <= bound_ms;
      Measured(StrFormat(
          "knee @ %zu rows %zu thr: shed %.1f%% -> %.1f%%, admitted p95 "
          "%.2fms (bound %.2fms) -> %s",
          rows, threads, low.shed_fraction * 100.0, top.shed_fraction * 100.0,
          top.p95_ms, bound_ms, knee ? "DEMONSTRATED" : "NOT demonstrated"));
      JsonLine("scale_knee")
          .Field("rows", static_cast<uint64_t>(rows))
          .Field("threads", static_cast<uint64_t>(threads))
          .Field("low_rate_rps", low.rate_rps)
          .Field("top_rate_rps", top.rate_rps)
          .Field("low_shed_fraction", low.shed_fraction)
          .Field("top_shed_fraction", top.shed_fraction)
          .Field("admitted_p95_ms", top.p95_ms)
          .Field("p95_bound_ms", bound_ms)
          .Field("knee_demonstrated", static_cast<uint64_t>(knee ? 1 : 0))
          .Emit(file);
      SUBTAB_CHECK(knee);
    }
  }
}

}  // namespace
}  // namespace subtab::bench

int main(int argc, char** argv) {
  using namespace subtab::bench;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const BenchScale scale = ScaleFor(args.quick);
  BenchJsonFile file("scale", args.quick);

  Header("Workload forge: synthetic scale data + open-loop traffic curves");
  std::printf("quick=%d  hardware threads: %zu\n", args.quick ? 1 : 0,
              subtab::HardwareThreads());

  const std::string model_dir =
      (std::filesystem::temp_directory_path() / "subtab_bench_scale_models")
          .string();
  std::filesystem::create_directories(model_dir);

  RunGeneratorScaling(scale, &file);
  RunScaleSweep(scale, model_dir, &file);

  file.Write();
  std::printf("\nbench_scale: all checks passed\n");
  return 0;
}
