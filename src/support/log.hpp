#pragma once
// Tiny leveled logger. Thread-safe (one mutex around emission); each message
// is tagged with an optional rank id so SCMD runs interleave readably.
// The level is fixed at `warn` so tests and benches stay quiet.

#include <mutex>
#include <sstream>
#include <string>

namespace ccaperf {

enum class LogLevel : int { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

class Logger {
 public:
  static Logger& instance();

  void write(LogLevel lvl, int rank, const std::string& msg);

 private:
  Logger() = default;
  const LogLevel level_ = LogLevel::warn;
  std::mutex mu_;
};

/// Stream-style log statement: `CCAPERF_LOG(info, rank) << "n=" << n;`
class LogLine {
 public:
  LogLine(LogLevel lvl, int rank) : lvl_(lvl), rank_(rank) {}
  ~LogLine() { Logger::instance().write(lvl_, rank_, os_.str()); }
  template <class T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  int rank_;
  std::ostringstream os_;
};

}  // namespace ccaperf

#define CCAPERF_LOG(level, rank) \
  ::ccaperf::LogLine(::ccaperf::LogLevel::level, (rank))
