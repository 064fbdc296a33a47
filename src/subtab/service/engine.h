#ifndef SUBTAB_SERVICE_ENGINE_H_
#define SUBTAB_SERVICE_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "subtab/core/fingerprint.h"
#include "subtab/core/subtab.h"
#include "subtab/service/model_registry.h"
#include "subtab/service/selection_cache.h"
#include "subtab/stream/stream_session.h"
#include "subtab/util/latency_histogram.h"
#include "subtab/util/metrics.h"
#include "subtab/util/sample_quality.h"
#include "subtab/util/stopwatch.h"
#include "subtab/util/thread_pool.h"
#include "subtab/util/trace.h"

/// \file engine.h
/// The concurrent sub-table serving engine — the multi-tenant front door of
/// the library. The paper splits SubTab into a one-off pre-processing phase
/// and a cheap per-display selection phase (Sec. 5.1, Fig. 9); the engine
/// turns that split into a server architecture:
///
///   RegisterTable ── ModelRegistry ── one shared fit per (table, config),
///                                     LRU-evicted, optionally disk-backed
///   RegisterStream ─ StreamSession ── append-mostly tables: versions are
///                                     registry entries (fp, config, version)
///   SubmitSelect ─── SelectionCache ── repeated displays are cache hits
///                └── in-flight dedup ── identical concurrent requests run once
///                └── admission ──────── bounded per-tenant queues shed early
///                └── pipeline ───────── normalize, then one worker task:
///                                       scan -> select
///                └── containment ────── a miss whose query refines a cached
///                                       ancestor rescans only that scope
///
/// Requests flow through a staged pipeline: normalization and cache/dedup
/// checks happen at submit, then ONE worker-pool task runs the *scan* stage
/// (ResolveScope — the query's zone-map-pruned filter scan) and hands its
/// scope straight to the *select* stage (SelectScoped — clustering), so
/// the intermediate query result is never materialized. A second queue
/// hop between the stages would add no parallelism: both stages run on the
/// same workers. Admission control
/// bounds what a single tenant (table id) may keep in flight and what the
/// whole queue may hold; excess requests fail fast with kUnavailable
/// instead of queueing unboundedly (EngineStats::pipeline counts sheds and
/// latency percentiles for the ops loop that tunes those bounds).
///
/// Results are bit-identical to the serial SubTab::SelectForQuery path:
/// ResolveScope + SelectScoped *is* that method split at its seam (see
/// core/subtab.h), zone-map pruning skips only chunks that provably fail,
/// and caching only memoizes a deterministic function of (model, query, k,
/// l, seed). Containment reuse (the scope index in selection_cache.h) only
/// changes where the scan LOOKS — a proven superset scope instead of the
/// whole table — never what it finds: a drill-down refinement of an
/// already-served query re-evaluates just its extra
/// conjuncts over the parent's rows (RestrictQueryScope), shrinking the
/// scan stage from O(table) to O(parent scope).
///
/// Streaming tables (stream/): Append ingests a batch through the bound
/// StreamSession — inline or background refresh per its options — and every
/// publication (each new version, and each background upgrade republishing a
/// version at a higher ModelKey::refresh generation) synchronously
/// republishes the bound ids via the session's publish listener. In-flight
/// selects finish against the version they started on; the superseded
/// publication's selection-cache entries are invalidated, every other
/// table's stay warm.
///
/// Future scaling seams (see ROADMAP.md): the registry generalizes to a
/// shard-per-node map, SubmitSelect to an async RPC.

namespace subtab::service {

/// One display request against a registered table. Empty query = whole
/// table; k/l/seed default to the registered config.
struct SelectRequest {
  std::string table_id;
  SpQuery query;
  std::optional<size_t> k;
  std::optional<size_t> l;
  std::optional<uint64_t> seed;
  /// Opt-in explain payload: when tracing is on, the response carries the
  /// request's completed trace (SelectResponse::trace) so the caller can
  /// render a stage waterfall without scraping the sink. Coalesced waiters
  /// receive the initiating request's choice (they share one response).
  bool trace_explain = false;
};

/// Outcome of one request. `view` is set iff `status.ok()`; it is shared
/// with the selection cache, so treat it as immutable. Shed requests carry
/// kUnavailable and were never queued.
struct SelectResponse {
  Status status;
  std::shared_ptr<const SubTabView> view;
  bool from_cache = false;
  /// The request's trace id (0 when tracing is disabled). Shed responses
  /// carry it too — the id in the kUnavailable message is this one.
  uint64_t trace_id = 0;
  /// Set iff the initiating request asked for trace_explain (and tracing
  /// is on): the completed trace, root span first.
  std::shared_ptr<const CompletedTrace> trace;
};

struct EngineOptions {
  /// Worker threads executing selections (0 = HardwareThreads()).
  size_t num_threads = 0;
  /// Resident fitted models (one per distinct table x config).
  size_t model_capacity = 16;
  /// Cached selection results across all tables.
  size_t selection_cache_capacity = 4096;
  size_t cache_shards = 8;
  /// Forwarded to ModelRegistryOptions::persist_dir.
  std::string persist_dir;
  /// Admission control: maximum computations one tenant (table id) may have
  /// admitted (queued or running; cache hits and coalesced attaches are
  /// free) before further ones are shed with kUnavailable. 0 = unbounded.
  size_t max_pending_per_tenant = 0;
  /// Global bound on the worker queue depth before sheds kick in for
  /// everyone. 0 = unbounded.
  size_t max_queue_depth = 0;
  /// Containment-based scan reuse for drill-down sessions: on a selection-
  /// cache miss, probe the scope index for the nearest cached ancestor query
  /// (a proven superset, table/query.h QueryContains) and scan only its rows
  /// (RestrictQueryScope) instead of the whole table. Results are
  /// bit-identical either way; off = every miss pays a full scan (the
  /// pre-containment behavior, kept for differential testing and benches).
  bool containment_reuse = true;
  /// Resolved scopes the containment index keeps per model version (LRU).
  size_t scope_index_per_model = 32;
  /// Row-id budget of the containment index per model version: indexed
  /// scopes can approach table size, so this — not the entry count — is
  /// what bounds the index's memory (~8 bytes/row). Entries are LRU-evicted
  /// past the budget; a single scope exceeding it is not indexed. 0 =
  /// unbounded.
  size_t scope_index_rows_per_model = 1u << 20;
  /// Request-scoped tracing (util/trace.h): every request opens a root span
  /// plus one child span per pipeline stage, completed traces land in the
  /// engine's TraceSink (slow-query exemplars pinned past ring eviction),
  /// and shed/error messages carry trace ids. Off = the sink is never
  /// created, contexts are disabled handles, and the request path pays
  /// nothing (bench_serving_throughput CHECKs the <=3% bound). Stage
  /// latency histograms (pipeline.stage.*) record either way.
  bool tracing = true;
  /// Ring/exemplar tuning of the engine's sink (ignored when !tracing).
  TraceSinkOptions trace_sink;
  /// Sub-linear selection (core/select.h sampled path): scopes with at
  /// least this many rows cluster over a deterministic weighted sample of
  /// the scope instead of every scoped row. The sample is a pure function
  /// of the request key, so caching/dedup semantics are unchanged; exact
  /// SelectScoped stays the differential reference. 0 = always exact.
  size_t sampled_selection_min_rows = 10000;
  /// Distinct scope rows drawn per sampled selection (weighted toward rare
  /// bin signatures so planted patterns survive the sample).
  size_t selection_sample_rows = 2048;
  /// Quality gate (util/sample_quality.h): every Nth sampled selection per
  /// model is also run exactly and both results scored with the combined
  /// coverage+diversity metric (Eq. 3); when sampled/exact falls below
  /// `sampled_selection_min_quality` the exact result is served instead and
  /// selection.sample_quality_fallbacks counts it. The first sampled
  /// selection of each model is always checked. 0 = never check.
  uint64_t sample_quality_check_every = 32;
  double sampled_selection_min_quality = 0.95;
};

/// Refresh activity across every stream bound to the engine (aggregated
/// from stream::StreamStats, deduplicated when one stream serves many ids).
struct StreamingStats {
  size_t streams = 0;
  uint64_t appends = 0;
  uint64_t rows_appended = 0;
  uint64_t fold_ins = 0;
  uint64_t incremental_refreshes = 0;
  uint64_t full_refits = 0;
  double fold_in_seconds = 0.0;
  double incremental_seconds = 0.0;
  double refit_seconds = 0.0;
  /// Background refresh: upgrades scheduled / republished / discarded
  /// because an append superseded the version mid-training.
  uint64_t deferred_upgrades = 0;
  uint64_t upgrades_completed = 0;
  uint64_t upgrades_discarded = 0;
  /// Selection-cache entries dropped when a publication was superseded.
  uint64_t cache_invalidations = 0;
};

/// Resident-table accounting across every model and stream bound to the
/// engine. `logical_bytes` counts each binding's table independently — what
/// the pre-chunking design kept resident (every SubTab owned its own copy of
/// the table, so a stream's live version was resident twice: once in the
/// snapshot, once in the model). `resident_bytes` deduplicates shared Table
/// objects and shared chunks across versions, so `shared_saved_bytes =
/// logical - resident` is the double-residency the zero-copy snapshot path
/// eliminated. Registry-cached models not currently bound to an id are not
/// walked (they are LRU-bounded and share chunks the same way).
struct MemoryStats {
  size_t tables = 0;  ///< Distinct Table objects referenced by bindings.
  size_t chunks = 0;  ///< Distinct chunks across those tables.
  uint64_t logical_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t shared_saved_bytes = 0;
};

/// Latency view of one pipeline stage (a registry histogram's snapshot,
/// util/latency_histogram.h bucket resolution).
struct StageLatencyStats {
  uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

/// Pipeline health: shed/latency counters plus the gauges a load balancer
/// or autoscaler reads (queue depth lives on EngineStats directly).
struct PipelineStats {
  /// Requests refused by admission control (never queued).
  uint64_t requests_shed = 0;
  /// Sheds attributed to the bound that tripped (sum = requests_shed).
  uint64_t shed_global_queue = 0;
  uint64_t shed_tenant = 0;
  /// Summed wall time inside each stage, across all workers.
  double scan_seconds = 0.0;
  double select_seconds = 0.0;
  /// End-to-end latency (submit -> response) percentiles over every
  /// response that resolved against a table — cache hits included, sheds
  /// and unknown-table misses excluded (util/latency_histogram.h bucket
  /// resolution).
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  uint64_t latency_count = 0;
  /// Gauges at snapshot time.
  size_t workers_active = 0;
  double worker_utilization = 0.0;  ///< workers_active / num_threads.
  size_t tenants_tracked = 0;       ///< Tenants with admitted work.
  /// Per-stage latency attribution: queue wait from admission until a
  /// worker picks the computation up, the scan itself, the selection.
  /// Recorded for every staged computation whether tracing is on or off.
  StageLatencyStats stage_queue_scan;
  StageLatencyStats stage_scan;
  StageLatencyStats stage_select;
  /// Admission limits TryAdmit enforces (EngineOptions; 0 = unbounded).
  size_t max_queue_depth = 0;
  size_t max_pending_per_tenant = 0;
};

/// Containment-tier accounting: how often a selection-cache miss was served
/// by restricting a cached ancestor scope instead of scanning the table,
/// and how many rows those restricted scans visited vs what full scans
/// cost. `restricted_scan_rows / containment_hits` vs
/// `full_scan_rows / containment_misses` is the drill-down win in average
/// rows per scan (misses and hits partition the containment-enabled scans).
struct ContainmentStats {
  /// Scans served by restricting a cached ancestor scope.
  uint64_t containment_hits = 0;
  /// Scans that fell back to a full table scan: the probe found no
  /// containing ancestor, or the found ancestor failed the benefit gate
  /// (too large to beat the full scan's cost).
  uint64_t containment_misses = 0;
  /// Rows visited by restricted scans (the ancestors' scope sizes).
  uint64_t restricted_scan_rows = 0;
  /// Rows visited by full-table scans (misses and disabled reuse).
  uint64_t full_scan_rows = 0;
  /// Scopes currently indexed across all content versions.
  size_t scope_entries = 0;
  /// Scopes dropped because their CONTENT version was superseded. Refresh
  /// upgrades (same rows, retrained embedding) preserve indexed scopes —
  /// they key on (table fp, version), not the full model digest.
  uint64_t scope_invalidations = 0;
};

/// Sub-linear selection accounting: how many select stages ran over a
/// sampled scope vs the full scope, how much row work sampling skipped
/// (`scope_rows_sampled - sample_rows_total` is the rows never embedded),
/// and what the quality gate measured. `min_quality_ratio` is the worst
/// sampled/exact combined-score ratio any check observed (0 until the
/// first check).
struct SelectionStats {
  uint64_t sampled = 0;            ///< Select stages over a sampled scope.
  uint64_t exact = 0;              ///< Select stages over the full scope.
  uint64_t sample_rows_total = 0;  ///< Rows actually clustered when sampled.
  uint64_t scope_rows_sampled = 0; ///< Scope rows of those sampled selects.
  uint64_t quality_checks = 0;
  uint64_t quality_fallbacks = 0;  ///< Checks that served the exact result.
  double last_quality_ratio = 0.0;
  double min_quality_ratio = 0.0;
};

/// Scan-stage attribution summed over every full (non-restricted) filter
/// scan the engine ran: how much chunk walking the zone maps skipped and how
/// often dictionary comparisons ran code-level. `chunks_pruned /
/// (chunks_scanned + chunks_pruned)` is the prune rate the drill-down
/// workload is expected to drive up (table/query.h ScanStats per request).
struct ScanAttributionStats {
  uint64_t rows_visited = 0;
  uint64_t rows_matched = 0;
  uint64_t chunks_scanned = 0;
  uint64_t chunks_pruned = 0;
  /// Conjuncts on dictionary columns evaluated over integer codes.
  uint64_t code_eval_predicates = 0;
};

/// Counter snapshot for introspection / load-shedding decisions.
struct EngineStats {
  ModelRegistryStats registry;
  CacheCounters selection_cache;
  ContainmentStats containment;
  StreamingStats streaming;
  MemoryStats memory;
  PipelineStats pipeline;
  SelectionStats selection;
  ScanAttributionStats scan;
  /// Trace retention (zeros when tracing is disabled).
  TraceSinkStats trace;
  uint64_t requests_submitted = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_failed = 0;
  /// Requests that attached to an identical in-flight computation.
  uint64_t requests_coalesced = 0;
  size_t num_threads = 0;
  size_t queue_depth = 0;
  size_t tables = 0;

  /// One-line JSON rendering of every counter — the machine-readable form
  /// emitted by serving_demo and the bench harnesses (bench_common.h's
  /// "json |" convention) and by any ops endpoint that scrapes the engine.
  /// Includes the pipeline gauges (queue depth, worker utilization) next to
  /// the counters.
  std::string ToJson() const;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineOptions options = {});
  /// Completes all outstanding requests, then stops the workers.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Binds `table_id` to a fitted model, fitting (or fetching from the
  /// registry / disk) as needed; the table is only copied when a fit/load
  /// actually happens. Blocking; typically called at session start.
  /// Re-registering an id atomically swaps the binding.
  Status RegisterTable(const std::string& table_id, const Table& table,
                       SubTabConfig config);

  /// Binds `table_id` to an append-mostly stream (stream/stream_session.h):
  /// the id serves the stream's latest publication, starting from its
  /// current model. Appends go through Append() below or directly through
  /// the session; a stream may be bound under several ids (all republished
  /// on every publication via the session's publish listener, including
  /// background-refresh upgrades). A stream binds to one engine at a time.
  Status RegisterStream(const std::string& table_id,
                        std::shared_ptr<stream::StreamSession> stream);

  /// Ingests one batch into the stream bound to `table_id`. Every id bound
  /// to that stream is republished at the new version before this returns
  /// (synchronously via the publish listener). Selects submitted before the
  /// republish complete against the version they resolved; selects after it
  /// see the new rows. Returns the stream's refresh outcome (which
  /// maintenance level ran, whether an upgrade was deferred, and the cost).
  Result<stream::RefreshEvent> Append(const std::string& table_id,
                                      const Table& batch);

  /// The model behind an id (nullptr if unregistered). Shared and immutable.
  std::shared_ptr<const SubTab> GetModel(const std::string& table_id) const;

  /// Enqueues a request; the future resolves when a worker (or the cache)
  /// has produced the response. Identical in-flight requests are deduped
  /// onto one computation; repeated requests hit the selection cache; over
  /// the admission bounds the future is already resolved with kUnavailable.
  std::shared_future<SelectResponse> SubmitSelect(const SelectRequest& request);

  /// Convenience: SubmitSelect + wait. Do not call from a worker task.
  SelectResponse Select(const SelectRequest& request);

  /// Blocks until every submitted request has completed.
  void Drain();

  EngineStats Stats() const;

  /// The trace sink (null when EngineOptions::tracing is false). Benches
  /// export its exemplars as JSONL; ops endpoints scrape Recent().
  const std::shared_ptr<TraceSink>& trace_sink() const { return trace_sink_; }

  /// The unified registry every EngineStats section snapshots from
  /// (util/metrics.h naming scheme — see docs/OBSERVABILITY.md). Counters
  /// and histograms are live; gauges refresh on Stats()/MetricsJson().
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Mutable registry access for co-located observers (ops/slo_monitor.h
  /// registers its slo.* gauges here so one /metrics scrape exposes engine
  /// and monitor state together). The registry is internally synchronized.
  MetricsRegistry* mutable_metrics() const { return &metrics_; }

  /// Refreshes the gauges (one Stats() pass) and renders the registry.
  std::string MetricsJson() const;

  /// Test-only: enqueues an opaque task on the worker pool, letting tests
  /// hold workers busy deterministically (e.g. to pin requests in flight).
  void SubmitBarrierTaskForTesting(std::function<void()> task);

 private:
  struct TableEntry {
    std::shared_ptr<const SubTab> model;
    /// Registry key of `model`; key.Digest() is the selection-cache
    /// model_digest.
    ModelKey key;
    uint64_t model_digest = 0;
    /// Containment-tier key: a CONTENT digest over (table fp, version) —
    /// refresh- and config-insensitive, because resolved scopes depend only
    /// on the table's rows and the query's filters. Background-refresh
    /// upgrades keep it, so drill-down reuse survives them.
    uint64_t scope_digest = 0;
    /// Set when the id is bound to a stream; key's (version, refresh) orders
    /// republishes so a slow publisher can never roll an id back.
    std::shared_ptr<stream::StreamSession> stream;
  };

  /// One admitted computation, handed from the submitting thread to the
  /// worker task that runs its scan and select stages.
  struct PendingSelect {
    SelectionKey key;
    uint64_t key_digest = 0;
    uint64_t scope_digest = 0;  ///< TableEntry::scope_digest at submit.
    std::shared_ptr<const SubTab> model;
    SelectRequest request;
    Stopwatch submitted;   ///< End-to-end latency clock.
    bool tenant_admitted = false;
    /// The request's trace, carried BY VALUE from the submitting thread to
    /// the worker — nothing trace-shaped may live in thread-locals
    /// (util/trace.h). Disabled handle when tracing is off.
    TraceContext trace;
    /// The open queue.scan span; finished when a worker picks the
    /// computation up.
    TraceSpan queue_span;
    /// Queue-wait clock from admission to worker pickup — feeds the
    /// pipeline.stage.queue_scan histogram even when tracing is off.
    Stopwatch hop;
  };

  /// Cache/dedup identity of a request against a resolved table entry.
  SelectionKey KeyFor(const TableEntry& entry, const SelectRequest& request) const;

  /// The containment tier's content digest for a publication.
  static uint64_t ScopeDigestFor(const ModelKey& key);

  /// The containment tier's one liveness test: is any binding still
  /// serving this content digest? Caller holds tables_mu_.
  bool ScopeDigestLiveLocked(uint64_t scope_digest) const;
  /// Swaps `table_id`'s binding (tables_mu_ held) and returns the replaced
  /// binding's scope digest iff the swap removed its last reference —
  /// the caller must pass it to SweepDeadScopes outside the lock, or the
  /// old content's scope bucket leaks (only liveness checks sweep it).
  uint64_t ReplaceBindingLocked(const std::string& table_id, TableEntry entry);
  /// Sweeps one dead content digest's scopes (no-op for 0).
  void SweepDeadScopes(uint64_t scope_digest);

  /// Admission control outcome: admitted, or which bound shed the request
  /// (the response message names the knob an operator must tune).
  enum class Admission { kAdmitted, kShedGlobalQueue, kShedTenant };

  /// Returns which bound (if any) refuses the request (the caller counts
  /// the shed). An admitted return must be paired with ReleaseTenant at
  /// completion.
  Admission TryAdmit(const std::string& tenant);
  void ReleaseTenant(const std::string& tenant);

  /// The worker task: the query's filter scan (pipeline stage 2), then the
  /// select stage on the same worker.
  void ExecuteScan(const std::shared_ptr<PendingSelect>& pending);
  /// Pipeline stage 3: clustering over the resolved scope.
  void ExecuteSelect(const std::shared_ptr<PendingSelect>& pending,
                     const SelectionScope& scope);
  /// Shared tail: memoize, resolve every waiter, release admission.
  void FinishComputation(const std::shared_ptr<PendingSelect>& pending,
                         const CachedSelection& outcome);

  /// Republishes every id bound to `stream` at `published` (no-op for ids
  /// already at or past it), sweeping superseded cache/registry entries.
  /// Runs on every stream publication (the session's listener) and is
  /// idempotent.
  void OnStreamPublish(const std::shared_ptr<stream::StreamSession>& stream,
                       const stream::PublishedModel& published);

  const EngineOptions options_;
  ModelRegistry registry_;
  SelectionCache selection_cache_;

  mutable std::shared_mutex tables_mu_;
  std::unordered_map<std::string, TableEntry> tables_;

  /// One in-flight computation: the promise its worker resolves, the shared
  /// future every duplicate submitter receives, and how many duplicates
  /// attached (their completion is accounted when the computation resolves).
  struct InFlight {
    std::shared_ptr<std::promise<SelectResponse>> promise;
    std::shared_future<SelectResponse> future;
    uint64_t coalesced_waiters = 0;
    /// The initiating request's trace id, so a coalesced waiter's trace
    /// can point at the computation it attached to.
    uint64_t trace_id = 0;
  };

  std::mutex inflight_mu_;
  std::unordered_map<uint64_t, InFlight> inflight_;

  /// Admitted computations per tenant (only tracked when bounded).
  mutable std::mutex admission_mu_;
  std::unordered_map<std::string, size_t> tenant_pending_;

  /// Every counter/gauge/histogram the engine maintains lives here under a
  /// stable dotted name; the EngineStats sections are snapshot views over
  /// it. The pointers below are the constructor-cached instruments the
  /// request path updates lock-free (util/metrics.h contract). Mutable:
  /// Stats()/MetricsJson() refresh gauges from a const context.
  mutable MetricsRegistry metrics_;
  Counter* c_submitted_;
  Counter* c_completed_;
  Counter* c_failed_;
  Counter* c_coalesced_;
  Counter* c_shed_global_;
  Counter* c_shed_tenant_;
  Counter* c_cache_invalidations_;
  Counter* c_containment_hits_;
  Counter* c_containment_misses_;
  Counter* c_restricted_scan_rows_;
  Counter* c_full_scan_rows_;
  Counter* c_scope_invalidations_;
  Counter* c_scan_busy_ns_;
  Counter* c_select_busy_ns_;
  Counter* c_rows_visited_;
  Counter* c_rows_matched_;
  Counter* c_chunks_scanned_;
  Counter* c_chunks_pruned_;
  Counter* c_code_eval_preds_;
  Counter* c_sel_sampled_;
  Counter* c_sel_exact_;
  Counter* c_sel_sample_rows_;
  Counter* c_sel_scope_rows_;
  Counter* c_sel_quality_checks_;
  Counter* c_sel_quality_fallbacks_;
  Gauge* g_sel_last_quality_;
  Gauge* g_sel_min_quality_;
  LatencyHistogram* h_latency_;
  LatencyHistogram* h_queue_scan_;
  LatencyHistogram* h_scan_;
  LatencyHistogram* h_select_;
  Gauge* g_queue_depth_;
  Gauge* g_workers_active_;
  Gauge* g_worker_utilization_;
  Gauge* g_tables_;
  Gauge* g_scope_entries_;
  Gauge* g_memory_resident_;
  Gauge* g_memory_logical_;
  Gauge* g_memory_saved_;

  /// Quality gate for the sampled selection path (internally synchronized);
  /// quality_mu_ guards only the last/min ratio aggregates below, which the
  /// rare check path writes and Stats() reads.
  SampleQualityCheck sample_quality_;
  mutable std::mutex quality_mu_;
  double last_quality_ratio_ = 0.0;
  double min_quality_ratio_ = 0.0;

  /// Created iff options_.tracing; shared with bound streams so refresh
  /// traces land next to request traces.
  std::shared_ptr<TraceSink> trace_sink_;

  /// Declared last: destroyed first, so workers drain while the caches and
  /// tables above are still alive.
  ThreadPool pool_;
};

}  // namespace subtab::service

#endif  // SUBTAB_SERVICE_ENGINE_H_
