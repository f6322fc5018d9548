// Minimal leveled logger. Thread-safe (one mutex around the sink), no global
// construction order issues (Meyers singleton), no allocation on the disabled
// path.
#pragma once

#include <chrono>
#include <mutex>
#include <sstream>
#include <string>

namespace splpg::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log configuration.
class Logger {
 public:
  static Logger& instance();

  [[nodiscard]] bool enabled(LogLevel level) const noexcept { return level >= level_; }

  /// Writes one line (with level prefix and elapsed-time stamp) to stderr.
  void write(LogLevel level, const std::string& message);

 private:
  Logger();
  LogLevel level_ = LogLevel::kInfo;
  std::mutex mutex_;
  std::chrono::steady_clock::time_point start_;
};

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().write(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace splpg::util

#define SPLPG_LOG(level)                                          \
  if (!::splpg::util::Logger::instance().enabled(level)) {        \
  } else                                                          \
    ::splpg::util::detail::LogLine(level)

#define SPLPG_DEBUG SPLPG_LOG(::splpg::util::LogLevel::kDebug)
#define SPLPG_INFO SPLPG_LOG(::splpg::util::LogLevel::kInfo)
#define SPLPG_WARN SPLPG_LOG(::splpg::util::LogLevel::kWarn)
#define SPLPG_ERROR SPLPG_LOG(::splpg::util::LogLevel::kError)
