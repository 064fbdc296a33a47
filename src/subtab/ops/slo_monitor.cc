#include "subtab/ops/slo_monitor.h"

#include <algorithm>
#include <chrono>

#include "subtab/util/logging.h"
#include "subtab/util/string_util.h"
#include "subtab/util/trace.h"

namespace subtab::ops {
namespace {

using Clock = std::chrono::steady_clock;

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

uint64_t CounterValue(const MetricsSnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

std::string SloStatus::ToJson() const {
  return StrFormat(
      "{\"state\":\"%s\",\"ticks\":%llu,\"transitions\":%llu,"
      "\"burn\":{\"latency_short\":%.6g,\"latency_long\":%.6g,"
      "\"shed_short\":%.6g,\"shed_long\":%.6g},"
      "\"latency_p95_short_ms\":%.6g,\"shed_rate_short\":%.6g,"
      "\"clean_streak\":%zu}",
      HealthStateName(state), (unsigned long long)ticks,
      (unsigned long long)transitions, burn_latency_short, burn_latency_long,
      burn_shed_short, burn_shed_long, latency_p95_short_ms, shed_rate_short,
      clean_streak);
}

SloMonitor::SloMonitor(service::ServingEngine* engine, SloOptions options)
    : engine_(engine),
      options_(options),
      burn_threshold_(options.burn_threshold) {
  MetricsRegistry* registry = engine_->mutable_metrics();
  g_health_ = registry->gauge("slo.health");
  g_burn_latency_short_ = registry->gauge("slo.burn.latency_short");
  g_burn_latency_long_ = registry->gauge("slo.burn.latency_long");
  g_burn_shed_short_ = registry->gauge("slo.burn.shed_short");
  g_burn_shed_long_ = registry->gauge("slo.burn.shed_long");
  g_latency_p95_short_ms_ = registry->gauge("slo.latency_p95_short_ms");
  g_shed_rate_short_ = registry->gauge("slo.shed_rate_short");
  c_ticks_ = registry->counter("slo.ticks");
  c_transitions_ = registry->counter("slo.transitions");
}

SloMonitor::~SloMonitor() { Stop(); }

void SloMonitor::Start() {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_.joinable()) return;
  stopping_ = false;
  ticker_ = std::thread([this] { RunTicker(); });
}

void SloMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    stopping_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

void SloMonitor::RunTicker() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(ticker_mu_);
      ticker_cv_.wait_for(
          lock,
          std::chrono::duration<double>(std::max(0.01, options_.tick_seconds)),
          [this] { return stopping_; });
      if (stopping_) return;
    }
    // Stats() refreshes the registry's gauges so the snapshot the window
    // math (and the next /metrics scrape) sees is current.
    engine_->Stats();
    const MetricsSnapshot snapshot = engine_->metrics().Snapshot();
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    TickLocked(snapshot, now);
  }
}

void SloMonitor::TickWithSnapshotForTesting(const MetricsSnapshot& snapshot,
                                            double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  TickLocked(snapshot, now_seconds);
}

SloMonitor::WindowBurn SloMonitor::BurnOver(const MetricsSnapshot& current,
                                            double now_seconds,
                                            double window_seconds) const {
  WindowBurn burn;
  if (history_.empty()) return burn;
  // The newest retained sample at least `window_seconds` old; when the
  // history is younger than the window (startup), the oldest stands in, so
  // the monitor starts judging as soon as it has any baseline at all.
  const Sample* reference = &history_.front();
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (now_seconds - it->at_seconds >= window_seconds) {
      reference = &*it;
      break;
    }
  }
  const MetricsSnapshot delta = current.Delta(reference->snapshot);

  auto hist = delta.histograms.find("pipeline.latency");
  if (hist != delta.histograms.end() && hist->second.count > 0) {
    burn.p95_seconds = hist->second.Percentile(0.95);
  }
  const uint64_t submitted =
      CounterValue(delta, "engine.requests.submitted");
  const uint64_t shed = CounterValue(delta, "pipeline.shed.global_queue") +
                        CounterValue(delta, "pipeline.shed.tenant");
  burn.shed_rate = submitted == 0 ? 0.0
                                  : static_cast<double>(shed) /
                                        static_cast<double>(submitted);
  if (options_.latency_p95_objective_seconds > 0.0) {
    burn.latency = burn.p95_seconds / options_.latency_p95_objective_seconds;
  }
  if (options_.shed_rate_objective > 0.0) {
    burn.shed = burn.shed_rate / options_.shed_rate_objective;
  }
  return burn;
}

void SloMonitor::TickLocked(const MetricsSnapshot& snapshot,
                            double now_seconds) {
  ++ticks_;
  c_ticks_->Add();

  // Windows are judged against the PRIOR history; the current snapshot only
  // joins it afterwards (a window must never be a self-delta of zero).
  const WindowBurn s = BurnOver(snapshot, now_seconds,
                                options_.short_window_seconds);
  const WindowBurn l = BurnOver(snapshot, now_seconds,
                                options_.long_window_seconds);
  last_short_ = s;
  last_long_ = l;
  history_.push_back(Sample{now_seconds, snapshot});
  // Keep exactly one sample older than the long window (the reference);
  // everything older than it is dead weight.
  while (history_.size() >= 2 &&
         now_seconds - history_[1].at_seconds >=
             options_.long_window_seconds) {
    history_.pop_front();
  }

  const auto burning = [this](const WindowBurn& w) {
    return std::max(w.latency, w.shed) > burn_threshold_;
  };
  const bool short_burning = burning(s);
  const bool both_burning = short_burning && burning(l);

  const HealthState before = health();
  HealthState after = before;
  if (short_burning) clean_streak_ = 0;
  if (both_burning) {
    // Escalate one level per burning tick — unhealthy takes two ticks of
    // sustained two-window burn, never one spike.
    if (after == HealthState::kOk) {
      after = HealthState::kDegraded;
    } else if (after == HealthState::kDegraded) {
      after = HealthState::kUnhealthy;
    }
  } else if (!short_burning && before != HealthState::kOk) {
    // Hysteresis: one recovery step per recovery_ticks clean short windows.
    ++clean_streak_;
    if (clean_streak_ >= std::max<size_t>(1, options_.recovery_ticks)) {
      clean_streak_ = 0;
      after = before == HealthState::kUnhealthy ? HealthState::kDegraded
                                                : HealthState::kOk;
    }
  }

  g_health_->Set(static_cast<double>(static_cast<int>(after)));
  g_burn_latency_short_->Set(s.latency);
  g_burn_latency_long_->Set(l.latency);
  g_burn_shed_short_->Set(s.shed);
  g_burn_shed_long_->Set(l.shed);
  g_latency_p95_short_ms_->Set(s.p95_seconds * 1e3);
  g_shed_rate_short_->Set(s.shed_rate);

  if (after != before) {
    ++transitions_;
    c_transitions_->Add();
    state_.store(static_cast<int>(after), std::memory_order_release);
    Transition(before, after, s, l);
  }
}

void SloMonitor::Transition(HealthState from, HealthState to,
                            const WindowBurn& s, const WindowBurn& l) {
  // The transition is an event worth retaining: commit it as a trace (so
  // /traces and the exemplar export show it next to the requests that
  // caused it) and tag the log line with its id.
  uint64_t trace_id = 0;
  if (engine_->trace_sink() != nullptr) {
    TraceContext trace =
        TraceContext::Start("slo.transition", engine_->trace_sink());
    trace.AddRootAttr("from", HealthStateName(from));
    trace.AddRootAttr("to", HealthStateName(to));
    trace.AddRootAttr("burn_latency_short", s.latency);
    trace.AddRootAttr("burn_latency_long", l.latency);
    trace.AddRootAttr("burn_shed_short", s.shed);
    trace.AddRootAttr("burn_shed_long", l.shed);
    trace_id = trace.trace_id();
    trace.FinishRoot();
  }
  LogTraceScope log_scope(trace_id);
  SUBTAB_LOG_STREAM(Warning)
      << "slo: health " << HealthStateName(from) << " -> "
      << HealthStateName(to) << " (burn latency short/long "
      << StrFormat("%.3g/%.3g", s.latency, l.latency) << ", shed short/long "
      << StrFormat("%.3g/%.3g", s.shed, l.shed) << ")";
}

SloStatus SloMonitor::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloStatus out;
  out.state = health();
  out.ticks = ticks_;
  out.transitions = transitions_;
  out.burn_latency_short = last_short_.latency;
  out.burn_latency_long = last_long_.latency;
  out.burn_shed_short = last_short_.shed;
  out.burn_shed_long = last_long_.shed;
  out.latency_p95_short_ms = last_short_.p95_seconds * 1e3;
  out.shed_rate_short = last_short_.shed_rate;
  out.clean_streak = clean_streak_;
  return out;
}

}  // namespace subtab::ops
