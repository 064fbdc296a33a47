#ifndef SUBTAB_UTIL_LOGGING_H_
#define SUBTAB_UTIL_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

/// \file logging.h
/// Tiny leveled logger used by long-running stages (embedding training,
/// mining) to report progress. Defaults to kWarning so tests stay quiet;
/// benches raise it to kInfo. Each message is emitted in a single write, so
/// concurrent pipeline stages never shear each other's lines, and lines are
/// tagged with the active trace id when one is in scope (LogTraceScope).

namespace subtab {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Tags log lines emitted by the current thread with a trace id (RAII;
/// restores the previous tag on destruction, so nested scopes stack).
/// The pipeline's worker task arms this at entry from the trace carried BY
/// VALUE in the request — the thread-local here is only the log-line tag,
/// never the span propagation path (a request migrates threads at the
/// queue; see util/trace.h). A zero id leaves lines untagged.
class LogTraceScope {
 public:
  explicit LogTraceScope(uint64_t trace_id);
  ~LogTraceScope();

  LogTraceScope(const LogTraceScope&) = delete;
  LogTraceScope& operator=(const LogTraceScope&) = delete;

 private:
  uint64_t saved_;
};

/// The current thread's active trace-id tag (0 = none).
uint64_t CurrentLogTraceId();

namespace internal {

/// Collects one message and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows a log statement that is below the threshold.
struct NullLog {
  template <typename T>
  NullLog& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define SUBTAB_LOG(level)                                        \
  (::subtab::LogLevel::k##level < ::subtab::GetLogLevel())       \
      ? (void)0                                                  \
      : (void)(::subtab::internal::LogMessage(                   \
            ::subtab::LogLevel::k##level, __FILE__, __LINE__))

// Stream-style logging: SUBTAB_LOG_STREAM(Info) << "trained " << n;
#define SUBTAB_LOG_STREAM(level)                                 \
  if (::subtab::LogLevel::k##level < ::subtab::GetLogLevel()) {  \
  } else                                                         \
    ::subtab::internal::LogMessage(::subtab::LogLevel::k##level, __FILE__, __LINE__)

}  // namespace subtab

#endif  // SUBTAB_UTIL_LOGGING_H_
