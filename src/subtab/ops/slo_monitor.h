#ifndef SUBTAB_OPS_SLO_MONITOR_H_
#define SUBTAB_OPS_SLO_MONITOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "subtab/service/engine.h"
#include "subtab/util/metrics.h"

/// \file slo_monitor.h
/// Multi-window SLO burn-rate monitoring for the serving engine — the live
/// health signal behind the admin server's /healthz (ops/admin_server.h).
///
/// A ticker thread snapshots the engine's MetricsRegistry once per tick and
/// keeps a short history, so every tick can compute windowed deltas
/// (MetricsSnapshot::Delta) over a SHORT window (default 5 s, the fast
/// trigger) and a LONG window (default 60 s, the flap damper). From each
/// window it derives two burn rates against configured objectives:
///
///   latency burn = windowed pipeline.latency p95 / latency_p95_objective
///   shed burn    = windowed shed fraction      / shed_rate_objective
///
/// A window is BURNING when either burn rate exceeds burn_threshold. Health
/// escalates one level per tick (ok -> degraded -> unhealthy) only while
/// BOTH windows burn — a transient spike trips the short window but not the
/// long one, so it never flips health. Recovery is hysteretic: health steps
/// down one level only after recovery_ticks consecutive CLEAN short
/// windows, so health doesn't oscillate at the threshold.
///
/// Every tick exports the burn rates and health as slo.* gauges into the
/// engine's own registry (one /metrics scrape shows engine and monitor
/// state together — docs/STATS.md); every transition commits an
/// "slo.transition" trace to the engine's sink and emits a trace-tagged
/// warning log line. The monitor only observes: the engine's admission
/// bounds are the configured EngineOptions values.

namespace subtab::ops {

enum class HealthState { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

/// Lowercase state name ("ok", "degraded", "unhealthy") — the /healthz body.
const char* HealthStateName(HealthState state);

struct SloOptions {
  /// Ticker period. Tests drive ticks synthetically instead
  /// (TickWithSnapshotForTesting) and never start the thread.
  double tick_seconds = 1.0;
  double short_window_seconds = 5.0;
  double long_window_seconds = 60.0;
  /// Latency SLO: windowed pipeline.latency p95 must stay below this.
  double latency_p95_objective_seconds = 0.5;
  /// Shed SLO: windowed sheds / submissions must stay below this fraction.
  double shed_rate_objective = 0.01;
  /// A window burns when max(latency burn, shed burn) exceeds this.
  double burn_threshold = 1.0;
  /// Consecutive clean short-window ticks required per recovery step.
  size_t recovery_ticks = 3;
};

/// Point-in-time monitor state, as exposed on /statusz and by tests.
struct SloStatus {
  HealthState state = HealthState::kOk;
  uint64_t ticks = 0;
  uint64_t transitions = 0;
  /// Burn rates from the most recent tick (objective multiples; 1.0 = at
  /// the objective).
  double burn_latency_short = 0.0;
  double burn_latency_long = 0.0;
  double burn_shed_short = 0.0;
  double burn_shed_long = 0.0;
  /// Raw short-window observations behind those burns.
  double latency_p95_short_ms = 0.0;
  double shed_rate_short = 0.0;
  /// Clean short-window streak (resets whenever the short window burns).
  size_t clean_streak = 0;

  std::string ToJson() const;
};

/// One monitor per engine. Start() spawns the ticker; the destructor (or
/// Stop()) joins it. All public methods are thread-safe.
class SloMonitor {
 public:
  SloMonitor(service::ServingEngine* engine, SloOptions options = {});
  ~SloMonitor();

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// Spawns the ticker thread (idempotent).
  void Start();
  /// Stops and joins the ticker (idempotent; the destructor calls it).
  void Stop();

  HealthState health() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }
  SloStatus status() const;

  /// Test seam: runs one tick against an externally supplied snapshot and
  /// clock, exactly as the ticker thread would (window math, hysteresis,
  /// gauge export, transition traces). `now_seconds` is
  /// an arbitrary monotonic clock; ticks must be fed in increasing order.
  void TickWithSnapshotForTesting(const MetricsSnapshot& snapshot,
                                  double now_seconds);

 private:
  struct Sample {
    double at_seconds = 0.0;
    MetricsSnapshot snapshot;
  };

  /// Burn rates of one window (current vs the newest sample at least
  /// `window_seconds` old, falling back to the oldest retained).
  struct WindowBurn {
    double latency = 0.0;  ///< p95 / objective.
    double shed = 0.0;     ///< shed rate / objective.
    double p95_seconds = 0.0;
    double shed_rate = 0.0;
  };

  void TickLocked(const MetricsSnapshot& snapshot, double now_seconds);
  WindowBurn BurnOver(const MetricsSnapshot& current, double now_seconds,
                      double window_seconds) const;
  void Transition(HealthState from, HealthState to, const WindowBurn& s,
                  const WindowBurn& l);
  void RunTicker();

  service::ServingEngine* const engine_;
  const SloOptions options_;
  const double burn_threshold_;

  /// slo.* gauges live in the ENGINE's registry so one scrape sees both.
  Gauge* g_health_;
  Gauge* g_burn_latency_short_;
  Gauge* g_burn_latency_long_;
  Gauge* g_burn_shed_short_;
  Gauge* g_burn_shed_long_;
  Gauge* g_latency_p95_short_ms_;
  Gauge* g_shed_rate_short_;
  Counter* c_ticks_;
  Counter* c_transitions_;

  /// Published health, readable without mu_ (the /healthz hot path).
  std::atomic<int> state_{0};

  mutable std::mutex mu_;
  std::deque<Sample> history_;
  uint64_t ticks_ = 0;
  uint64_t transitions_ = 0;
  size_t clean_streak_ = 0;
  WindowBurn last_short_;
  WindowBurn last_long_;

  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool stopping_ = false;
  std::thread ticker_;
};

}  // namespace subtab::ops

#endif  // SUBTAB_OPS_SLO_MONITOR_H_
