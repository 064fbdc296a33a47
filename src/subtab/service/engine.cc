#include "subtab/service/engine.h"

#include <algorithm>
#include <unordered_set>

#include "subtab/util/logging.h"
#include "subtab/util/string_util.h"

namespace subtab::service {
namespace {

/// A future that is already resolved (table miss, cache hit, shed).
std::shared_future<SelectResponse> ReadyFuture(SelectResponse response) {
  std::promise<SelectResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

/// Stage-latency snapshot view over a registry histogram.
StageLatencyStats StageView(const LatencyHistogram* histogram) {
  const LatencyHistogram::Snapshot snap = histogram->TakeSnapshot();
  StageLatencyStats stage;
  stage.count = snap.count;
  stage.mean_ms = snap.MeanSeconds() * 1e3;
  stage.p50_ms = snap.Percentile(0.50) * 1e3;
  stage.p95_ms = snap.Percentile(0.95) * 1e3;
  return stage;
}

}  // namespace

ServingEngine::ServingEngine(EngineOptions options)
    : options_(options),
      registry_(ModelRegistryOptions{options.model_capacity,
                                     std::max<size_t>(1, options.cache_shards / 2),
                                     options.persist_dir}),
      selection_cache_(options.selection_cache_capacity, options.cache_shards,
                       options.scope_index_per_model,
                       options.scope_index_rows_per_model),
      sample_quality_([&options] {
        SampleQualityOptions quality;
        quality.check_every = options.sample_quality_check_every;
        return quality;
      }()),
      pool_(options.num_threads) {
  // Register every instrument once, up front — the request path only ever
  // touches the cached pointers (metrics.h: registration is mutexed, the
  // instruments themselves are relaxed atomics). The dotted names are the
  // stable external contract (docs/OBSERVABILITY.md).
  c_submitted_ = metrics_.counter("engine.requests.submitted");
  c_completed_ = metrics_.counter("engine.requests.completed");
  c_failed_ = metrics_.counter("engine.requests.failed");
  c_coalesced_ = metrics_.counter("engine.requests.coalesced");
  c_shed_global_ = metrics_.counter("pipeline.shed.global_queue");
  c_shed_tenant_ = metrics_.counter("pipeline.shed.tenant");
  c_cache_invalidations_ = metrics_.counter("streaming.cache_invalidations");
  c_containment_hits_ = metrics_.counter("containment.hits");
  c_containment_misses_ = metrics_.counter("containment.misses");
  c_restricted_scan_rows_ = metrics_.counter("containment.restricted_scan_rows");
  c_full_scan_rows_ = metrics_.counter("containment.full_scan_rows");
  c_scope_invalidations_ = metrics_.counter("containment.scope_invalidations");
  c_scan_busy_ns_ = metrics_.counter("pipeline.scan_busy_ns");
  c_select_busy_ns_ = metrics_.counter("pipeline.select_busy_ns");
  c_rows_visited_ = metrics_.counter("scan.rows_visited");
  c_rows_matched_ = metrics_.counter("scan.rows_matched");
  c_chunks_scanned_ = metrics_.counter("scan.chunks_scanned");
  c_chunks_pruned_ = metrics_.counter("scan.chunks_pruned");
  c_code_eval_preds_ = metrics_.counter("scan.code_eval_predicates");
  c_sel_sampled_ = metrics_.counter("selection.sampled");
  c_sel_exact_ = metrics_.counter("selection.exact");
  c_sel_sample_rows_ = metrics_.counter("selection.sample_rows");
  c_sel_scope_rows_ = metrics_.counter("selection.scope_rows_sampled");
  c_sel_quality_checks_ = metrics_.counter("selection.sample_quality_checks");
  c_sel_quality_fallbacks_ =
      metrics_.counter("selection.sample_quality_fallbacks");
  g_sel_last_quality_ = metrics_.gauge("selection.last_quality_ratio");
  g_sel_min_quality_ = metrics_.gauge("selection.min_quality_ratio");
  h_latency_ = metrics_.histogram("pipeline.latency");
  h_queue_scan_ = metrics_.histogram("pipeline.stage.queue_scan");
  h_scan_ = metrics_.histogram("pipeline.stage.scan");
  h_select_ = metrics_.histogram("pipeline.stage.select");
  g_queue_depth_ = metrics_.gauge("engine.queue_depth");
  g_workers_active_ = metrics_.gauge("pipeline.workers_active");
  g_worker_utilization_ = metrics_.gauge("pipeline.worker_utilization");
  g_tables_ = metrics_.gauge("engine.tables");
  g_scope_entries_ = metrics_.gauge("containment.scope_entries");
  g_memory_resident_ = metrics_.gauge("memory.resident_bytes");
  g_memory_logical_ = metrics_.gauge("memory.logical_bytes");
  g_memory_saved_ = metrics_.gauge("memory.shared_saved_bytes");
  if (options_.tracing) {
    trace_sink_ = std::make_shared<TraceSink>(options_.trace_sink);
  }
}

ServingEngine::~ServingEngine() {
  // Uninstall publish listeners first (blocking on any in-flight
  // invocation), so no stream publication re-enters a half-destroyed
  // engine; then drain our own workers. Listeners must be cleared without
  // tables_mu_ held — an in-flight listener call acquires it.
  std::vector<std::shared_ptr<stream::StreamSession>> streams;
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    std::unordered_set<const stream::StreamSession*> seen;
    for (auto& [id, entry] : tables_) {
      if (entry.stream != nullptr && seen.insert(entry.stream.get()).second) {
        streams.push_back(entry.stream);
      }
    }
  }
  for (const auto& stream : streams) stream->SetPublishListener(nullptr);
  Drain();
}

uint64_t ServingEngine::ScopeDigestFor(const ModelKey& key) {
  // Content only: resolved scopes are a pure function of (table rows,
  // filters), so refresh generations — and even configs — share them.
  return HashCombine(HashMix(key.table_fp), key.version);
}

Status ServingEngine::RegisterTable(const std::string& table_id,
                                    const Table& table, SubTabConfig config) {
  const ModelKey key = MakeModelKey(table, config);
  Result<std::shared_ptr<const SubTab>> model =
      registry_.GetOrFitKeyed(key, table, config);
  if (!model.ok()) return model.status();
  uint64_t dead_scope_digest = 0;
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    dead_scope_digest = ReplaceBindingLocked(
        table_id,
        TableEntry{*model, key, key.Digest(), ScopeDigestFor(key), nullptr});
  }
  SweepDeadScopes(dead_scope_digest);
  return Status::Ok();
}

bool ServingEngine::ScopeDigestLiveLocked(uint64_t scope_digest) const {
  // THE liveness test of the containment tier — every sweep decision
  // (binding swap, stream supersede, insert-recheck) must use this one
  // definition, or the leak-closure reasoning at those sites diverges.
  // Caller holds tables_mu_ (shared or unique).
  for (const auto& [id, entry] : tables_) {
    if (entry.scope_digest == scope_digest) return true;
  }
  return false;
}

uint64_t ServingEngine::ReplaceBindingLocked(const std::string& table_id,
                                             TableEntry entry) {
  // The scope index is swept only by content-digest liveness checks; a
  // binding swap (re-registering an id to different content) must run one
  // too, or the old content's bucket — up to scope_index_rows_per_model
  // row ids — leaks for the engine's lifetime. Returns the replaced
  // binding's scope digest when this swap removed its last reference
  // (0 = nothing to sweep); the caller sweeps after releasing tables_mu_.
  uint64_t old_scope = 0;
  auto it = tables_.find(table_id);
  if (it != tables_.end()) old_scope = it->second.scope_digest;
  tables_[table_id] = std::move(entry);
  if (old_scope == 0 || old_scope == tables_[table_id].scope_digest) return 0;
  return ScopeDigestLiveLocked(old_scope) ? 0 : old_scope;
}

void ServingEngine::SweepDeadScopes(uint64_t scope_digest) {
  if (scope_digest == 0) return;
  c_scope_invalidations_->Add(selection_cache_.InvalidateScopes(scope_digest));
}

Status ServingEngine::RegisterStream(
    const std::string& table_id,
    std::shared_ptr<stream::StreamSession> stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("stream must not be null");
  }
  // Install the publish listener BEFORE binding (and without tables_mu_
  // held: the listener itself acquires it, and the session serializes
  // installation against in-flight invocations). A publication racing in
  // between touches no entries yet; the bind below snapshots the newest
  // publication under tables_mu_, so nothing is missed.
  stream->SetPublishListener(
      [this, weak = std::weak_ptr<stream::StreamSession>(stream)](
          const stream::PublishedModel& published) {
        if (std::shared_ptr<stream::StreamSession> s = weak.lock()) {
          OnStreamPublish(s, published);
        }
      });
  // Refresh traces (fold-in vs retrain spans) land in the engine's sink
  // next to the request traces they collide with.
  if (trace_sink_ != nullptr) stream->SetTraceSink(trace_sink_);
  // Snapshot and bind under tables_mu_: snapshotting outside it would let a
  // concurrent publication sweep run in between and leave this id bound to
  // the swept (stale) publication forever. Inside the lock, any sweep
  // either happened before (the snapshot already sees its publication) or
  // happens after our insert (the sweep upgrades this entry with the rest).
  // The snapshot's publish_mu_ nests inside tables_mu_ only here, and no
  // path acquires them in the opposite order.
  uint64_t dead_scope_digest = 0;
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    stream::PublishedModel published = stream->Snapshot();
    registry_.Publish(published.key, published.model);
    const uint64_t scope_digest = ScopeDigestFor(published.key);
    dead_scope_digest = ReplaceBindingLocked(
        table_id,
        TableEntry{std::move(published.model), published.key,
                   published.key.Digest(), scope_digest, std::move(stream)});
  }
  SweepDeadScopes(dead_scope_digest);
  return Status::Ok();
}

Result<stream::RefreshEvent> ServingEngine::Append(const std::string& table_id,
                                                   const Table& batch) {
  std::shared_ptr<stream::StreamSession> stream;
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    auto it = tables_.find(table_id);
    if (it == tables_.end() || it->second.stream == nullptr) {
      return Status::NotFound("no stream registered as: " + table_id);
    }
    stream = it->second.stream;
  }

  // The session serializes appends and model maintenance internally and
  // invokes the publish listener (OnStreamPublish) synchronously for the
  // new version's model — and later for any background upgrade — so every
  // bound id is republished before Append returns. Concurrent selects keep
  // serving whatever entry they already resolved.
  return stream->Append(batch);
}

void ServingEngine::OnStreamPublish(
    const std::shared_ptr<stream::StreamSession>& stream,
    const stream::PublishedModel& published) {
  // Every id bound to this stream at an older publication republishes;
  // their superseded registry entries and cached selections go. Ids bound
  // to the same stream share one superseded (digest, key) — dedup so each
  // O(entries) cache sweep runs once. The registry Publish happens inside
  // the same critical section that proves this publication is still the
  // newest bound one — a preempted publisher whose version was already
  // superseded must not re-insert its dead model after the sweep.
  std::vector<std::pair<uint64_t, ModelKey>> superseded;
  std::vector<uint64_t> dead_scope_digests;
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    for (auto& [id, entry] : tables_) {
      // The (version, refresh) guard keeps a slow publisher from rolling an
      // id back below a newer publication.
      if (entry.stream != stream || !published.key.Supersedes(entry.key)) {
        continue;
      }
      superseded.emplace_back(entry.model_digest, entry.key);
      entry.model = published.model;
      entry.key = published.key;
      entry.model_digest = published.key.Digest();
      entry.scope_digest = ScopeDigestFor(published.key);
    }
    if (!superseded.empty()) registry_.Publish(published.key, published.model);
    // A superseded digest can still be live under another entry: a static
    // RegisterTable of the same (table, config) shares the stream's
    // version-0 key by design. Sweeping it would flush that table's warm
    // selections and evict its shared fitted model — keep those.
    std::erase_if(superseded, [this](const auto& dead) {
      for (const auto& [id, entry] : tables_) {
        if (entry.model_digest == dead.first) return true;
      }
      return false;
    });
    // The containment tier sweeps by CONTENT digest, and only when the
    // content is gone: a refresh upgrade republishes the same (table fp,
    // version), whose resolved scopes stay valid — sweeping them would
    // zero drill-down reuse on every background upgrade for no reason.
    for (const auto& [digest, old_key] : superseded) {
      const uint64_t old_scope = ScopeDigestFor(old_key);
      if (old_scope == ScopeDigestFor(published.key)) continue;
      if (!ScopeDigestLiveLocked(old_scope)) {
        dead_scope_digests.push_back(old_scope);
      }
    }
  }
  std::sort(superseded.begin(), superseded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  superseded.erase(std::unique(superseded.begin(), superseded.end(),
                               [](const auto& a, const auto& b) {
                                 return a.first == b.first;
                               }),
                   superseded.end());
  std::sort(dead_scope_digests.begin(), dead_scope_digests.end());
  dead_scope_digests.erase(
      std::unique(dead_scope_digests.begin(), dead_scope_digests.end()),
      dead_scope_digests.end());
  uint64_t invalidated = 0;
  for (const auto& [digest, old_key] : superseded) {
    invalidated += selection_cache_.InvalidateModel(digest);
    registry_.Erase(old_key);
  }
  uint64_t scopes_invalidated = 0;
  for (const uint64_t scope_digest : dead_scope_digests) {
    scopes_invalidated += selection_cache_.InvalidateScopes(scope_digest);
  }
  c_cache_invalidations_->Add(invalidated);
  c_scope_invalidations_->Add(scopes_invalidated);
}

std::shared_ptr<const SubTab> ServingEngine::GetModel(
    const std::string& table_id) const {
  std::shared_lock<std::shared_mutex> lock(tables_mu_);
  auto it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second.model;
}

SelectionKey ServingEngine::KeyFor(const TableEntry& entry,
                                   const SelectRequest& request) const {
  const SubTabConfig& config = entry.model->config();
  SelectionKey key;
  key.model_digest = entry.model_digest;
  key.query = NormalizedQueryKey(request.query);
  key.k = request.k.value_or(config.k);
  key.l = request.l.value_or(config.l);
  key.seed = request.seed.value_or(config.seed);
  return key;
}

ServingEngine::Admission ServingEngine::TryAdmit(const std::string& tenant) {
  const size_t max_depth = options_.max_queue_depth;
  if (max_depth > 0 && pool_.queue_depth() >= max_depth) {
    return Admission::kShedGlobalQueue;
  }
  if (options_.max_pending_per_tenant == 0) return Admission::kAdmitted;
  std::lock_guard<std::mutex> lock(admission_mu_);
  size_t& pending = tenant_pending_[tenant];
  if (pending >= options_.max_pending_per_tenant) {
    return Admission::kShedTenant;
  }
  ++pending;
  return Admission::kAdmitted;
}

void ServingEngine::ReleaseTenant(const std::string& tenant) {
  if (options_.max_pending_per_tenant == 0) return;
  std::lock_guard<std::mutex> lock(admission_mu_);
  auto it = tenant_pending_.find(tenant);
  SUBTAB_CHECK(it != tenant_pending_.end() && it->second > 0);
  if (--it->second == 0) tenant_pending_.erase(it);
}

std::shared_future<SelectResponse> ServingEngine::SubmitSelect(
    const SelectRequest& request) {
  c_submitted_->Add();

  TableEntry entry;
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    auto it = tables_.find(request.table_id);
    if (it == tables_.end()) {
      c_completed_->Add();
      c_failed_->Add();
      SelectResponse response;
      response.status =
          Status::NotFound("table not registered: " + request.table_id);
      return ReadyFuture(std::move(response));
    }
    entry = it->second;
  }

  Stopwatch submitted;
  // Root span per request, opened the moment the table resolved. The
  // context is a by-value handle (util/trace.h); every early-exit tier
  // below commits a root-only trace carrying its outcome attribute, so the
  // sink sees cache hits and sheds, not just full computations.
  TraceContext trace;
  if (options_.tracing) {
    trace = TraceContext::Start("select", trace_sink_);
    trace.AddRootAttr("table", request.table_id);
    trace.AddRootAttr("query", request.query.ToString());
  }

  const SelectionKey key = KeyFor(entry, request);
  if (std::shared_ptr<const CachedSelection> cached = selection_cache_.Get(key)) {
    c_completed_->Add();
    if (!cached->status.ok()) c_failed_->Add();
    h_latency_->Record(submitted.ElapsedSeconds());
    SelectResponse response;
    response.status = cached->status;
    response.view = cached->view;
    response.from_cache = true;
    response.trace_id = trace.trace_id();
    if (trace.enabled()) {
      trace.AddRootAttr("cache", "exact");
      trace.AddRootAttr("status", cached->status.ok() ? "ok" : "error");
      std::shared_ptr<const CompletedTrace> done = trace.FinishRoot();
      if (request.trace_explain) response.trace = std::move(done);
    }
    return ReadyFuture(std::move(response));
  }

  // Dedup by key digest: an identical request already being computed gets
  // the same future — attaching is free, so it happens before admission.
  // (A 64-bit digest collision would share the wrong result; with in-flight
  // populations of at most thousands the probability is ~n^2/2^64 —
  // ignored, as with the fingerprint-keyed registry.)
  const uint64_t digest = SelectionKeyHasher{}(key);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(digest);
    if (it != inflight_.end()) {
      c_coalesced_->Add();
      ++it->second.coalesced_waiters;
      if (trace.enabled()) {
        trace.AddRootAttr("cache", "coalesced");
        trace.AddRootAttr("coalesced_into",
                          StrFormat("%016llx",
                                    (unsigned long long)it->second.trace_id));
        trace.FinishRoot();
      }
      return it->second.future;
    }
  }

  // A genuinely new computation: it must pass admission before it may
  // occupy queue slots.
  const Admission admission = TryAdmit(request.table_id);
  if (admission != Admission::kAdmitted) {
    (admission == Admission::kShedGlobalQueue ? c_shed_global_
                                              : c_shed_tenant_)
        ->Add();
    c_completed_->Add();
    c_failed_->Add();
    SelectResponse response;
    response.trace_id = trace.trace_id();
    // Name the bound that tripped: an operator tuning sheds must know
    // whether to raise max_queue_depth or max_pending_per_tenant. The
    // message also carries the shed stage and the trace id, so one grep
    // connects a client's kUnavailable to its retained trace.
    std::string message =
        admission == Admission::kShedGlobalQueue
            ? StrFormat("request shed: global queue depth is over its "
                        "bound (%llu)",
                        (unsigned long long)options_.max_queue_depth)
            : "request shed: tenant '" + request.table_id +
                  "' is over its bound (" +
                  StrFormat("%llu",
                            (unsigned long long)options_.max_pending_per_tenant) +
                  ")";
    message += " [stage=admission";
    if (trace.enabled()) {
      message += StrFormat(", trace=%016llx",
                           (unsigned long long)trace.trace_id());
    }
    message += "]";
    response.status = Status::Unavailable(message);
    if (trace.enabled()) {
      trace.AddRootAttr("admission", admission == Admission::kShedGlobalQueue
                                         ? "shed_global_queue"
                                         : "shed_tenant");
      trace.AddRootAttr("shed_stage", "admission");
      trace.AddRootAttr("status", "unavailable");
      std::shared_ptr<const CompletedTrace> done = trace.FinishRoot();
      if (request.trace_explain) response.trace = std::move(done);
    }
    return ReadyFuture(std::move(response));
  }

  std::shared_future<SelectResponse> future;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(digest);
    if (it != inflight_.end()) {
      // An identical computation slipped in while we took the admission
      // token; attach to it and hand the token back.
      c_coalesced_->Add();
      ++it->second.coalesced_waiters;
      future = it->second.future;
      if (options_.max_pending_per_tenant > 0) ReleaseTenant(request.table_id);
      if (trace.enabled()) {
        trace.AddRootAttr("cache", "coalesced");
        trace.AddRootAttr("coalesced_into",
                          StrFormat("%016llx",
                                    (unsigned long long)it->second.trace_id));
        trace.FinishRoot();
      }
      return future;
    }
    auto promise = std::make_shared<std::promise<SelectResponse>>();
    future = promise->get_future().share();
    inflight_[digest] = InFlight{std::move(promise), future, 0,
                                 trace.trace_id()};
  }

  auto pending = std::make_shared<PendingSelect>();
  pending->key = key;
  pending->key_digest = digest;
  pending->scope_digest = entry.scope_digest;
  pending->model = entry.model;
  pending->request = request;
  pending->submitted = submitted;
  pending->tenant_admitted = options_.max_pending_per_tenant > 0;
  if (trace.enabled()) {
    trace.AddRootAttr("admission", "admitted");
    trace.AddRootAttr("cache", "miss");
    pending->trace = trace;
    pending->queue_span = trace.StartSpan("queue.scan");
  }
  pending->hop.Reset();
  pool_.Submit([this, pending] { ExecuteScan(pending); });
  return future;
}

void ServingEngine::ExecuteScan(const std::shared_ptr<PendingSelect>& pending) {
  // Queue wait ends here; the hop stopwatch feeds the stage histogram even
  // with tracing off, the queue span only when the request carries a trace.
  h_queue_scan_->Record(pending->hop.ElapsedSeconds());
  LogTraceScope log_scope(pending->trace.trace_id());
  pending->trace.FinishSpan(std::move(pending->queue_span));
  TraceSpan span = pending->trace.StartSpan("scan");
  Stopwatch stage;
  // Containment probe: a drill-down refinement of an already-resolved query
  // has a cached ancestor scope; restricting it visits O(parent scope) rows
  // instead of O(table). The hint never changes the resolved scope — see
  // RestrictQueryScope's bit-identity contract — only the scan's cost.
  ScopeHint hint;
  const char* containment_attr = "disabled";
  size_t ancestor_rows_attr = 0;
  size_t extra_conjuncts_attr = 0;
  if (options_.containment_reuse) {
    containment_attr = "miss";
    std::optional<AncestorScope> ancestor = selection_cache_.FindAncestorScope(
        pending->scope_digest, pending->request.query);
    if (ancestor.has_value()) {
      std::vector<Predicate> extra =
          ExtraConjuncts(ancestor->query, pending->request.query);
      // Benefit gate: the restricted scan point-evaluates rows (a per-row
      // chunk lookup, only the extra conjuncts), the full scan runs
      // chunk-sequential. An empty-extra restriction (same conjunction,
      // e.g. a new seed) skips evaluation entirely and always wins;
      // otherwise require the ancestor to actually shrink the row count by
      // a margin (>= 1/8), so a near-table ancestor's point-lookup overhead
      // can never make reuse slower than the scan it replaces.
      const size_t table_rows = pending->model->table().num_rows();
      const size_t ancestor_rows = ancestor->rows->size();
      if (extra.empty() || ancestor_rows <= table_rows - table_rows / 8) {
        c_containment_hits_->Add();
        c_restricted_scan_rows_->Add(ancestor->rows->size());
        containment_attr = "hit";
        ancestor_rows_attr = ancestor_rows;
        extra_conjuncts_attr = extra.size();
        hint.parent_rows = std::move(ancestor->rows);
        hint.extra_conjuncts = std::move(extra);
      } else {
        c_containment_misses_->Add();
      }
    } else {
      c_containment_misses_->Add();
    }
  }
  const bool restricted = hint.parent_rows != nullptr;
  const size_t table_rows = pending->model->table().num_rows();
  if (!restricted) c_full_scan_rows_->Add(table_rows);
  ScanStats scan_stats;
  Result<SelectionScope> scope = pending->model->ResolveScope(
      pending->request.query, {}, restricted ? &hint : nullptr, &scan_stats);
  c_scan_busy_ns_->Add(static_cast<uint64_t>(stage.ElapsedSeconds() * 1e9));
  h_scan_->Record(stage.ElapsedSeconds());
  c_rows_visited_->Add(scan_stats.rows_visited);
  c_rows_matched_->Add(scan_stats.rows_matched);
  c_chunks_scanned_->Add(scan_stats.chunks_scanned);
  c_chunks_pruned_->Add(scan_stats.chunks_pruned);
  c_code_eval_preds_->Add(scan_stats.code_eval_predicates);
  if (span.enabled()) {
    // Cost attribution: "rows scanned vs restricted" is what makes a
    // drill-down trace self-explanatory — a hit's rows_visited equals the
    // ancestor scope, a miss's equals the table.
    span.AddAttr("containment", containment_attr);
    if (containment_attr[0] == 'h') {
      span.AddAttr("ancestor_rows", (uint64_t)ancestor_rows_attr);
      span.AddAttr("extra_conjuncts", (uint64_t)extra_conjuncts_attr);
    }
    span.AddAttr("restricted", scan_stats.restricted ? "true" : "false");
    span.AddAttr("table_rows", (uint64_t)table_rows);
    span.AddAttr("rows_visited", (uint64_t)scan_stats.rows_visited);
    span.AddAttr("rows_matched", (uint64_t)scan_stats.rows_matched);
    span.AddAttr("chunks_scanned", (uint64_t)scan_stats.chunks_scanned);
    span.AddAttr("chunks_pruned", (uint64_t)scan_stats.chunks_pruned);
    span.AddAttr("code_eval_predicates",
                 (uint64_t)scan_stats.code_eval_predicates);
    span.AddAttr("status", scope.ok() ? "ok" : "error");
  }
  pending->trace.FinishSpan(std::move(span));
  if (!scope.ok()) {
    // Deterministic scan errors (unknown column, empty result) are as
    // memoizable as views; no select stage to run.
    CachedSelection outcome;
    outcome.status = scope.status();
    FinishComputation(pending, outcome);
    return;
  }
  if (options_.containment_reuse) {
    // Offer the resolved scope to the containment index, then re-check the
    // binding: a content-superseding republish between the insert and this
    // check (or before the insert) has already run its InvalidateScopes
    // sweep, so an insert that lost the race would park a scope no future
    // sweep targets — unlike the capacity-bounded exact tier, a dead
    // ScopeIndex bucket would leak for the engine's lifetime.
    // Insert-then-recheck closes it: either the sweep ran after our insert
    // (it took the scope with it), or we observe the dead content digest
    // here and sweep again (idempotent). The liveness test matches
    // OnStreamPublish's: the content may still be served by ANOTHER entry
    // (a static registration sharing a stream's version-0 content, or a
    // refresh upgrade of the same version), whose scopes must survive.
    const bool within_budget =
        options_.scope_index_rows_per_model == 0 ||
        scope->rows.size() <= options_.scope_index_rows_per_model;
    if (ScopeIndex::Indexable(pending->request.query) && within_budget) {
      // The budget pre-check keeps an oversized scope (which Insert would
      // reject anyway) from being deep-copied just to be discarded.
      selection_cache_.InsertScope(
          pending->scope_digest, pending->request.query,
          std::make_shared<const std::vector<size_t>>(scope->rows));
      bool content_live = false;
      {
        std::shared_lock<std::shared_mutex> lock(tables_mu_);
        content_live = ScopeDigestLiveLocked(pending->scope_digest);
      }
      if (!content_live) {
        c_scope_invalidations_->Add(
            selection_cache_.InvalidateScopes(pending->scope_digest));
      }
    }
  }
  ExecuteSelect(pending, *scope);
}

void ServingEngine::ExecuteSelect(const std::shared_ptr<PendingSelect>& pending,
                                  const SelectionScope& scope) {
  TraceSpan span = pending->trace.StartSpan("select");
  Stopwatch stage;
  // k/l/seed were resolved against the model's config at submit time
  // (KeyFor), so passing them explicitly equals the serial path's
  // value_or chain bit for bit.
  SelectionSamplingOptions sampling;
  sampling.min_rows = options_.sampled_selection_min_rows;
  sampling.sample_rows = options_.selection_sample_rows;
  SubTabView view = pending->model->SelectScoped(
      scope, pending->key.k, pending->key.l, pending->key.seed,
      sampling);
  c_select_busy_ns_->Add(static_cast<uint64_t>(stage.ElapsedSeconds() * 1e9));
  h_select_->Record(stage.ElapsedSeconds());

  // Quality gate: on the deterministic schedule, re-run exactly and score
  // both results; below the floor the exact result is served instead. The
  // check (and the fallback result it may substitute) is itself a pure
  // function of the per-model request sequence, so within one engine the
  // memoized outcome stays consistent across duplicates and cache hits.
  double quality_ratio = -1.0;
  bool quality_fallback = false;
  if (view.sampled) {
    c_sel_sampled_->Add(1);
    c_sel_sample_rows_->Add(view.sample_rows);
    c_sel_scope_rows_->Add(scope.rows.size());
    if (sample_quality_.ShouldCheck(pending->key.model_digest)) {
      SubTabView exact = pending->model->SelectScoped(
          scope, pending->key.k, pending->key.l, pending->key.seed);
      quality_ratio = sample_quality_.QualityRatio(
          pending->key.model_digest, pending->model->preprocessed().binned(),
          pending->model, view.row_ids, view.col_ids, exact.row_ids,
          exact.col_ids);
      c_sel_quality_checks_->Add(1);
      {
        std::lock_guard<std::mutex> lock(quality_mu_);
        last_quality_ratio_ = quality_ratio;
        min_quality_ratio_ = min_quality_ratio_ == 0.0
                                 ? quality_ratio
                                 : std::min(min_quality_ratio_, quality_ratio);
        g_sel_last_quality_->Set(last_quality_ratio_);
        g_sel_min_quality_->Set(min_quality_ratio_);
      }
      if (quality_ratio < options_.sampled_selection_min_quality) {
        c_sel_quality_fallbacks_->Add(1);
        quality_fallback = true;
        view = std::move(exact);
      }
    }
  } else {
    c_sel_exact_->Add(1);
  }

  if (span.enabled()) {
    span.AddAttr("k", (uint64_t)pending->key.k);
    span.AddAttr("l", (uint64_t)pending->key.l);
    span.AddAttr("scope_rows", (uint64_t)scope.rows.size());
    span.AddAttr("scope_cols", (uint64_t)scope.cols.size());
    span.AddAttr("sampled", (uint64_t)(view.sampled ? 1 : 0));
    span.AddAttr("sample_rows", (uint64_t)view.sample_rows);
    if (quality_ratio >= 0.0) {
      span.AddAttr("quality_ratio", quality_ratio);
      span.AddAttr("quality_fallback", (uint64_t)(quality_fallback ? 1 : 0));
    }
  }
  pending->trace.FinishSpan(std::move(span));
  CachedSelection outcome;
  outcome.view = std::make_shared<const SubTabView>(std::move(view));
  FinishComputation(pending, outcome);
}

void ServingEngine::FinishComputation(
    const std::shared_ptr<PendingSelect>& pending,
    const CachedSelection& outcome) {
  // Both outcomes are deterministic functions of the key, so errors are
  // memoized too — a repeated empty-result query must not rescan the table.
  // Guard: cache only while the table still serves this model version — a
  // result computed across a stream republish would otherwise re-insert
  // under a digest InvalidateModel already swept, parking an unreachable
  // entry until LRU eviction. (Best-effort: a republish between this check
  // and the Put still leaks one entry; it cannot serve wrong results, the
  // digest no longer matches any table.)
  bool version_current = false;
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    auto it = tables_.find(pending->request.table_id);
    version_current = it != tables_.end() &&
                      it->second.model_digest == pending->key.model_digest;
  }
  if (version_current) {
    selection_cache_.Put(pending->key,
                         std::make_shared<const CachedSelection>(outcome));
  }
  SelectResponse response;
  response.status = outcome.status;
  response.view = outcome.view;
  response.trace_id = pending->trace.trace_id();
  if (pending->trace.enabled()) {
    pending->trace.AddRootAttr("status",
                               outcome.status.ok() ? "ok" : "error");
    std::shared_ptr<const CompletedTrace> done = pending->trace.FinishRoot();
    if (pending->request.trace_explain) response.trace = std::move(done);
  }

  std::shared_ptr<std::promise<SelectResponse>> promise;
  uint64_t resolved = 1;
  {
    // Erase before resolving: a submitter that misses the in-flight map from
    // here on finds the result in the selection cache instead.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(pending->key_digest);
    SUBTAB_CHECK(it != inflight_.end());
    promise = std::move(it->second.promise);
    resolved += it->second.coalesced_waiters;
    inflight_.erase(it);
  }
  if (pending->tenant_admitted) ReleaseTenant(pending->request.table_id);
  h_latency_->Record(pending->submitted.ElapsedSeconds());
  // The computation and every coalesced waiter complete together — and fail
  // together — keeping submitted/completed/failed consistent per response.
  c_completed_->Add(resolved);
  if (!response.status.ok()) c_failed_->Add(resolved);
  promise->set_value(std::move(response));
}

SelectResponse ServingEngine::Select(const SelectRequest& request) {
  return SubmitSelect(request).get();
}

void ServingEngine::Drain() { pool_.Wait(); }

void ServingEngine::SubmitBarrierTaskForTesting(std::function<void()> task) {
  pool_.Submit(std::move(task));
}

EngineStats ServingEngine::Stats() const {
  EngineStats stats;
  stats.registry = registry_.Stats();
  stats.selection_cache = selection_cache_.Stats();
  stats.requests_submitted = c_submitted_->Value();
  stats.requests_completed = c_completed_->Value();
  stats.requests_failed = c_failed_->Value();
  stats.requests_coalesced = c_coalesced_->Value();
  stats.num_threads = pool_.num_threads();
  stats.queue_depth = pool_.queue_depth();

  stats.containment.containment_hits = c_containment_hits_->Value();
  stats.containment.containment_misses = c_containment_misses_->Value();
  stats.containment.restricted_scan_rows = c_restricted_scan_rows_->Value();
  stats.containment.full_scan_rows = c_full_scan_rows_->Value();
  stats.containment.scope_entries = selection_cache_.scope_entries();
  stats.containment.scope_invalidations = c_scope_invalidations_->Value();

  stats.scan.rows_visited = c_rows_visited_->Value();
  stats.scan.rows_matched = c_rows_matched_->Value();
  stats.scan.chunks_scanned = c_chunks_scanned_->Value();
  stats.scan.chunks_pruned = c_chunks_pruned_->Value();
  stats.scan.code_eval_predicates = c_code_eval_preds_->Value();

  stats.pipeline.shed_global_queue = c_shed_global_->Value();
  stats.pipeline.shed_tenant = c_shed_tenant_->Value();
  stats.pipeline.requests_shed =
      stats.pipeline.shed_global_queue + stats.pipeline.shed_tenant;
  stats.pipeline.scan_seconds =
      static_cast<double>(c_scan_busy_ns_->Value()) * 1e-9;
  stats.pipeline.select_seconds =
      static_cast<double>(c_select_busy_ns_->Value()) * 1e-9;
  stats.pipeline.stage_queue_scan = StageView(h_queue_scan_);
  stats.pipeline.stage_scan = StageView(h_scan_);
  stats.pipeline.stage_select = StageView(h_select_);
  const LatencyHistogram::Snapshot latency = h_latency_->TakeSnapshot();
  stats.pipeline.latency_p50_ms = latency.Percentile(0.50) * 1e3;
  stats.pipeline.latency_p95_ms = latency.Percentile(0.95) * 1e3;
  stats.pipeline.latency_p99_ms = latency.Percentile(0.99) * 1e3;
  stats.pipeline.latency_mean_ms = latency.MeanSeconds() * 1e3;
  stats.pipeline.latency_count = latency.count;
  stats.pipeline.workers_active = pool_.active_count();
  stats.pipeline.worker_utilization =
      stats.num_threads == 0
          ? 0.0
          : static_cast<double>(stats.pipeline.workers_active) /
                static_cast<double>(stats.num_threads);
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    stats.pipeline.tenants_tracked = tenant_pending_.size();
  }
  stats.pipeline.max_queue_depth = options_.max_queue_depth;
  stats.pipeline.max_pending_per_tenant = options_.max_pending_per_tenant;

  stats.selection.sampled = c_sel_sampled_->Value();
  stats.selection.exact = c_sel_exact_->Value();
  stats.selection.sample_rows_total = c_sel_sample_rows_->Value();
  stats.selection.scope_rows_sampled = c_sel_scope_rows_->Value();
  stats.selection.quality_checks = c_sel_quality_checks_->Value();
  stats.selection.quality_fallbacks = c_sel_quality_fallbacks_->Value();
  {
    std::lock_guard<std::mutex> lock(quality_mu_);
    stats.selection.last_quality_ratio = last_quality_ratio_;
    stats.selection.min_quality_ratio = min_quality_ratio_;
  }

  std::vector<std::shared_ptr<stream::StreamSession>> streams;
  std::vector<std::shared_ptr<const Table>> bound_tables;
  {
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    stats.tables = tables_.size();
    std::unordered_set<const stream::StreamSession*> seen;
    for (const auto& [id, entry] : tables_) {
      if (entry.model != nullptr) {
        bound_tables.push_back(entry.model->shared_table());
      }
      // One stream may be bound under several ids; count it once.
      if (entry.stream != nullptr && seen.insert(entry.stream.get()).second) {
        streams.push_back(entry.stream);
      }
    }
  }
  // Streams' current snapshots are read outside tables_mu_ (their internal
  // locks must not nest inside it).
  for (const auto& stream : streams) {
    bound_tables.push_back(stream->current_version().table);
  }
  // Memory accounting: logical counts every binding's table independently;
  // resident deduplicates shared Table objects, then shared chunks across
  // distinct tables (successive stream versions share all but the newest
  // chunk).
  std::unordered_set<const Table*> seen_tables;
  std::unordered_set<const Chunk*> seen_chunks;
  std::unordered_set<const void*> seen_dicts;
  for (const auto& table : bound_tables) {
    if (table == nullptr) continue;
    stats.memory.logical_bytes += table->ApproxBytes();
    if (!seen_tables.insert(table.get()).second) continue;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& col = table->column(c);
      for (const auto& chunk : col.chunks()) {
        if (seen_chunks.insert(chunk.get()).second) {
          stats.memory.resident_bytes += chunk->ByteSize();
        }
      }
      // Dictionaries are shared copy-on-write across versions; count each
      // distinct dictionary object once, like chunks.
      if (col.dict_identity() != nullptr &&
          seen_dicts.insert(col.dict_identity()).second) {
        stats.memory.resident_bytes += col.DictBytes();
      }
    }
  }
  stats.memory.tables = seen_tables.size();
  stats.memory.chunks = seen_chunks.size();
  stats.memory.shared_saved_bytes =
      stats.memory.logical_bytes - stats.memory.resident_bytes;
  stats.streaming.streams = streams.size();
  stats.streaming.cache_invalidations = c_cache_invalidations_->Value();
  for (const auto& stream : streams) {
    const stream::StreamStats s = stream->Stats();
    stats.streaming.appends += s.appends;
    stats.streaming.rows_appended += s.rows_appended;
    stats.streaming.fold_ins += s.fold_ins;
    stats.streaming.incremental_refreshes += s.incremental_refreshes;
    stats.streaming.full_refits += s.full_refits;
    stats.streaming.fold_in_seconds += s.fold_in_seconds;
    stats.streaming.incremental_seconds += s.incremental_seconds;
    stats.streaming.refit_seconds += s.refit_seconds;
    stats.streaming.deferred_upgrades += s.deferred_upgrades;
    stats.streaming.upgrades_completed += s.upgrades_completed;
    stats.streaming.upgrades_discarded += s.upgrades_discarded;
  }
  if (trace_sink_ != nullptr) stats.trace = trace_sink_->Stats();
  // Point-in-time gauges are refreshed on read, so a registry Snapshot (or
  // MetricsJson) taken right after Stats() carries current values — the hot
  // path never touches them.
  g_queue_depth_->Set(static_cast<double>(stats.queue_depth));
  g_workers_active_->Set(static_cast<double>(stats.pipeline.workers_active));
  g_worker_utilization_->Set(stats.pipeline.worker_utilization);
  g_tables_->Set(static_cast<double>(stats.tables));
  g_scope_entries_->Set(static_cast<double>(stats.containment.scope_entries));
  g_memory_resident_->Set(static_cast<double>(stats.memory.resident_bytes));
  g_memory_logical_->Set(static_cast<double>(stats.memory.logical_bytes));
  g_memory_saved_->Set(static_cast<double>(stats.memory.shared_saved_bytes));
  return stats;
}

std::string ServingEngine::MetricsJson() const {
  Stats();  // refresh gauges
  return metrics_.ToJson();
}

std::string EngineStats::ToJson() const {
  std::string json = "{";
  json += StrFormat("\"tables\":%zu,\"threads\":%zu,\"queue_depth\":%zu,",
                    tables, num_threads, queue_depth);
  json += StrFormat(
      "\"requests\":{\"submitted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"coalesced\":%llu,\"shed\":%llu},",
      (unsigned long long)requests_submitted,
      (unsigned long long)requests_completed,
      (unsigned long long)requests_failed,
      (unsigned long long)requests_coalesced,
      (unsigned long long)pipeline.requests_shed);
  json += StrFormat(
      "\"pipeline\":{\"queue_depth\":%zu,\"workers_active\":%zu,"
      "\"worker_utilization\":%.6g,\"tenants_tracked\":%zu,"
      "\"shed_global_queue\":%llu,\"shed_tenant\":%llu,"
      "\"scan_seconds\":%.6g,\"select_seconds\":%.6g,"
      "\"latency_ms\":{\"count\":%llu,\"mean\":%.6g,\"p50\":%.6g,"
      "\"p95\":%.6g,\"p99\":%.6g},",
      queue_depth, pipeline.workers_active, pipeline.worker_utilization,
      pipeline.tenants_tracked,
      (unsigned long long)pipeline.shed_global_queue,
      (unsigned long long)pipeline.shed_tenant,
      pipeline.scan_seconds, pipeline.select_seconds,
      (unsigned long long)pipeline.latency_count, pipeline.latency_mean_ms,
      pipeline.latency_p50_ms, pipeline.latency_p95_ms,
      pipeline.latency_p99_ms);
  const auto stage_json = [](const char* name, const StageLatencyStats& s) {
    return StrFormat(
        "\"%s\":{\"count\":%llu,\"mean_ms\":%.6g,\"p50_ms\":%.6g,"
        "\"p95_ms\":%.6g}",
        name, (unsigned long long)s.count, s.mean_ms, s.p50_ms, s.p95_ms);
  };
  json += "\"stages\":{";
  json += stage_json("queue_scan", pipeline.stage_queue_scan) + ",";
  json += stage_json("scan", pipeline.stage_scan) + ",";
  json += stage_json("select", pipeline.stage_select);
  json += "},";
  json += StrFormat(
      "\"admission\":{\"max_queue_depth\":%zu,"
      "\"max_pending_per_tenant\":%zu}",
      pipeline.max_queue_depth, pipeline.max_pending_per_tenant);
  json += "},";
  json += StrFormat(
      "\"trace\":{\"committed\":%llu,\"ring_evicted\":%llu,"
      "\"exemplars_pinned\":%llu,\"exemplars_evicted\":%llu,"
      "\"threshold_ms\":%.6g},",
      (unsigned long long)trace.committed,
      (unsigned long long)trace.ring_evicted,
      (unsigned long long)trace.exemplars_pinned,
      (unsigned long long)trace.exemplars_evicted,
      trace.exemplar_threshold_seconds * 1e3);
  json += StrFormat(
      "\"selection\":{\"sampled\":%llu,\"exact\":%llu,"
      "\"sample_rows_total\":%llu,\"scope_rows_sampled\":%llu,"
      "\"quality_checks\":%llu,\"quality_fallbacks\":%llu,"
      "\"last_quality_ratio\":%.6g,\"min_quality_ratio\":%.6g},",
      (unsigned long long)selection.sampled,
      (unsigned long long)selection.exact,
      (unsigned long long)selection.sample_rows_total,
      (unsigned long long)selection.scope_rows_sampled,
      (unsigned long long)selection.quality_checks,
      (unsigned long long)selection.quality_fallbacks,
      selection.last_quality_ratio, selection.min_quality_ratio);
  json += StrFormat(
      "\"selection_cache\":{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,"
      "\"evictions\":%llu,\"entries\":%zu},",
      (unsigned long long)selection_cache.hits,
      (unsigned long long)selection_cache.misses,
      (unsigned long long)selection_cache.insertions,
      (unsigned long long)selection_cache.evictions, selection_cache.entries);
  json += StrFormat(
      "\"containment\":{\"hits\":%llu,\"misses\":%llu,"
      "\"restricted_scan_rows\":%llu,\"full_scan_rows\":%llu,"
      "\"scope_entries\":%zu,\"scope_invalidations\":%llu},",
      (unsigned long long)containment.containment_hits,
      (unsigned long long)containment.containment_misses,
      (unsigned long long)containment.restricted_scan_rows,
      (unsigned long long)containment.full_scan_rows,
      containment.scope_entries,
      (unsigned long long)containment.scope_invalidations);
  json += StrFormat(
      "\"scan\":{\"rows_visited\":%llu,\"rows_matched\":%llu,"
      "\"chunks_scanned\":%llu,\"chunks_pruned\":%llu,"
      "\"code_eval_predicates\":%llu},",
      (unsigned long long)scan.rows_visited,
      (unsigned long long)scan.rows_matched,
      (unsigned long long)scan.chunks_scanned,
      (unsigned long long)scan.chunks_pruned,
      (unsigned long long)scan.code_eval_predicates);
  json += StrFormat(
      "\"registry\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
      "\"entries\":%zu,\"loads\":%llu,\"fits\":%llu,\"coalesced\":%llu},",
      (unsigned long long)registry.cache.hits,
      (unsigned long long)registry.cache.misses,
      (unsigned long long)registry.cache.evictions, registry.cache.entries,
      (unsigned long long)registry.loads, (unsigned long long)registry.fits,
      (unsigned long long)registry.coalesced);
  json += StrFormat(
      "\"memory\":{\"tables\":%zu,\"chunks\":%zu,\"logical_bytes\":%llu,"
      "\"resident_bytes\":%llu,\"shared_saved_bytes\":%llu},",
      memory.tables, memory.chunks, (unsigned long long)memory.logical_bytes,
      (unsigned long long)memory.resident_bytes,
      (unsigned long long)memory.shared_saved_bytes);
  json += StrFormat(
      "\"streaming\":{\"streams\":%zu,\"appends\":%llu,\"rows_appended\":%llu,"
      "\"fold_ins\":%llu,\"incremental_refreshes\":%llu,\"full_refits\":%llu,"
      "\"fold_in_seconds\":%.6g,\"incremental_seconds\":%.6g,"
      "\"refit_seconds\":%.6g,\"deferred_upgrades\":%llu,"
      "\"upgrades_completed\":%llu,\"upgrades_discarded\":%llu,"
      "\"cache_invalidations\":%llu}}",
      streaming.streams, (unsigned long long)streaming.appends,
      (unsigned long long)streaming.rows_appended,
      (unsigned long long)streaming.fold_ins,
      (unsigned long long)streaming.incremental_refreshes,
      (unsigned long long)streaming.full_refits, streaming.fold_in_seconds,
      streaming.incremental_seconds, streaming.refit_seconds,
      (unsigned long long)streaming.deferred_upgrades,
      (unsigned long long)streaming.upgrades_completed,
      (unsigned long long)streaming.upgrades_discarded,
      (unsigned long long)streaming.cache_invalidations);
  return json;
}

}  // namespace subtab::service
