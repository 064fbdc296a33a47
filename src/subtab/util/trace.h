#ifndef SUBTAB_UTIL_TRACE_H_
#define SUBTAB_UTIL_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "subtab/util/latency_histogram.h"

/// \file trace.h
/// Request-scoped tracing for the staged serving pipeline. One trace per
/// request: a root span ("select", "stream.append", ...) plus child spans,
/// one per pipeline stage, each carrying monotonic timestamps relative to
/// the trace's epoch and an explicit parent id — the attribution layer that
/// answers "which stage / cache tier / refresh collision ate this request's
/// time" (docs/OBSERVABILITY.md).
///
/// Propagation is BY VALUE: a TraceContext is a copyable handle over shared
/// state, carried inside the pipeline's PendingSelect from the submitting
/// thread to the worker, and an in-flight TraceSpan is a plain value struct
/// handed from the code that opened it to the code that closes it (the
/// queue.scan span opens at submit and closes on the worker). No
/// thread-locals anywhere in the span path — a request migrates threads at
/// the queue, so ambient state would attribute spans to whichever request
/// last ran on the worker. (The only thread-local in the observability
/// layer is the *log tag*, logging.h's LogTraceScope, which the worker task
/// re-arms at entry.)
///
/// Completed traces land in a TraceSink: a lock-sharded in-memory ring
/// buffer (bounded, overwrite-oldest) plus a bounded per-shard exemplar
/// list that PINS slow queries — traces whose root duration clears the
/// sink's latency-percentile threshold survive ring eviction, so the trace
/// of last night's p99 spike is still there in the morning while the
/// thousands of healthy requests that followed it have long been recycled.

namespace subtab {

/// One span attribute, rendered to a string at record time (values are
/// small: verdicts, row counts, version numbers).
struct TraceAttr {
  std::string key;
  std::string value;
};

/// One timed region of a trace. `start_ns` is monotonic, relative to the
/// owning trace's epoch (steady clock — never wall time, so spans order
/// correctly across NTP steps). `parent_id` is explicit; 0 marks the root.
/// A default-constructed span (trace_id 0) is the disabled no-op every
/// tracing-off code path carries for free.
struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  std::vector<TraceAttr> attrs;

  bool enabled() const { return trace_id != 0; }

  /// Attribute setters are no-ops on a disabled span, so call sites never
  /// need an `if (tracing)` around attribute bookkeeping.
  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, const char* value);
  void AddAttr(std::string key, uint64_t value);
  void AddAttr(std::string key, double value);

  /// The attribute's value, or nullptr. Linear — spans carry a handful.
  const std::string* FindAttr(std::string_view key) const;
};

/// An immutable finished trace: root span first, children in finish order.
struct CompletedTrace {
  uint64_t trace_id = 0;
  std::string name;
  uint64_t duration_ns = 0;  ///< Root span duration.
  std::vector<TraceSpan> spans;

  const TraceSpan& root() const { return spans.front(); }

  /// One-line JSON object (spans + attrs inline) — the JSONL exemplar
  /// export format the CI stress job uploads.
  std::string ToJson() const;
};

struct TraceSinkOptions {
  /// Completed traces retained across all shards (overwrite-oldest).
  size_t ring_capacity = 256;
  /// Lock shards; commits hash by trace id.
  size_t shards = 4;
  /// Slow-query exemplars pinned across all shards (0 disables pinning).
  size_t exemplar_capacity = 32;
  /// A trace is an exemplar candidate when its root duration reaches this
  /// percentile of all committed root durations...
  double exemplar_percentile = 0.95;
  /// ...once at least this many traces have been committed (below it the
  /// percentile is noise and nothing is pinned).
  uint64_t exemplar_min_samples = 32;
};

struct TraceSinkStats {
  uint64_t committed = 0;
  uint64_t ring_evicted = 0;
  uint64_t exemplars_pinned = 0;  ///< Currently held.
  uint64_t exemplars_evicted = 0;
  /// Current slow-query threshold in seconds (0 until min_samples reached).
  double exemplar_threshold_seconds = 0.0;
};

/// Lock-sharded retention of completed traces. Commit is the request path's
/// only contact: one histogram record plus one shard lock. Readers (Recent /
/// Exemplars / Stats) walk every shard and are snapshot-consistent per shard
/// only — they are ops endpoints, not synchronization points.
class TraceSink {
 public:
  explicit TraceSink(TraceSinkOptions options = {});

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void Commit(std::shared_ptr<const CompletedTrace> trace);

  /// Retained ring contents, oldest first within a shard (cross-shard order
  /// is unspecified).
  std::vector<std::shared_ptr<const CompletedTrace>> Recent() const;

  /// Pinned slow-query exemplars, slowest first.
  std::vector<std::shared_ptr<const CompletedTrace>> Exemplars() const;

  /// Non-destructive observer view for ops endpoints (`/traces` on the
  /// admin server): the ring's retained traces NEWEST first, then any
  /// pinned exemplars not already in the ring (slowest first), deduplicated
  /// by trace id and capped at `max_traces` (0 = everything). Peeking never
  /// consumes — a later Peek or Drain still sees every trace.
  std::vector<std::shared_ptr<const CompletedTrace>> Peek(
      size_t max_traces = 0) const;

  /// Destructive export of the ring: returns its contents (oldest first per
  /// shard, cross-shard order unspecified) and clears it, so repeated
  /// exporters (a log shipper, a trace uploader) see each trace exactly
  /// once. Exemplars are retention, not a queue — they stay pinned and keep
  /// appearing in Peek()/Exemplars() after a drain. Drained ring slots are
  /// not counted as evictions.
  std::vector<std::shared_ptr<const CompletedTrace>> Drain();

  TraceSinkStats Stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Fixed-capacity ring; `next` is the overwrite cursor.
    std::vector<std::shared_ptr<const CompletedTrace>> ring;
    size_t next = 0;
    uint64_t committed = 0;
    uint64_t evicted = 0;
    /// Bounded; when full, the fastest pinned exemplar yields to a slower
    /// candidate — the list converges on the slowest traces ever seen.
    std::vector<std::shared_ptr<const CompletedTrace>> exemplars;
    uint64_t exemplars_evicted = 0;
  };

  Shard& ShardFor(uint64_t trace_id) const;

  const TraceSinkOptions options_;
  const size_t ring_per_shard_;
  const size_t exemplars_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Root durations of every committed trace — supplies the exemplar
  /// threshold (relaxed atomics; see util/latency_histogram.h).
  LatencyHistogram durations_;
};

/// The per-request tracing handle. Copyable by value (a shared_ptr under
/// the hood); a default-constructed context is disabled and every operation
/// on it is a free no-op, so tracing-off request paths carry it at zero
/// cost. All operations are thread-safe: concurrent stages of one request
/// may finish spans and add attributes from different workers.
class TraceContext {
 public:
  /// Disabled context: trace_id() == 0, spans are no-ops.
  TraceContext() = default;

  /// Opens a trace: assigns a process-unique nonzero trace id, stamps the
  /// epoch, and opens the root span. `sink` (may be null) receives the
  /// completed trace at FinishRoot.
  static TraceContext Start(std::string root_name,
                            std::shared_ptr<TraceSink> sink);

  bool enabled() const { return state_ != nullptr; }
  uint64_t trace_id() const;

  /// Opens a child span of the root, stamped now. The returned value is
  /// owned by the caller until FinishSpan — hand it across threads by
  /// value (e.g. inside the pipeline's PendingSelect).
  TraceSpan StartSpan(std::string name) const;

  /// Stamps the span's duration and records it into the trace. No-op for a
  /// disabled span (or context), so unconditional call sites stay branch-
  /// free. Finishing after FinishRoot is allowed but the span is dropped.
  void FinishSpan(TraceSpan&& span) const;

  /// Attribute on the root span (request-level facts: table id, admission
  /// verdict, cache tier, status).
  void AddRootAttr(std::string key, std::string value) const;
  void AddRootAttr(std::string key, const char* value) const;
  void AddRootAttr(std::string key, uint64_t value) const;
  void AddRootAttr(std::string key, double value) const;

  /// Closes the root span, freezes the trace, commits it to the sink, and
  /// returns it (for SelectResponse's opt-in explain payload). Idempotent:
  /// later calls return the same object without re-committing. Returns
  /// nullptr on a disabled context.
  std::shared_ptr<const CompletedTrace> FinishRoot() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Renders traces as JSONL (one CompletedTrace::ToJson per line) — the
/// artifact format bench_serving_throughput writes and CI uploads.
std::string TracesToJsonl(
    const std::vector<std::shared_ptr<const CompletedTrace>>& traces);

}  // namespace subtab

#endif  // SUBTAB_UTIL_TRACE_H_
