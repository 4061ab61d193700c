#include "common/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <mutex>
#include <utility>

namespace tunekit {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};
std::atomic<bool> g_decorations{false};
std::mutex g_mutex;  // guards the sink and serializes emission
LogSink g_sink;      // empty = default stderr sink

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}

// Dense thread index for decorated output (0 = first thread that logged).
unsigned this_thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// Wall clock is correct here: decorated timestamps exist so log lines can be
// correlated with external events (cron, dmesg), unlike elapsed-time
// measurement which must stay on steady_clock (see common/stopwatch.hpp).
std::string utc_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  const std::size_t n = std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  std::snprintf(buf + n, sizeof(buf) - n, ".%03dZ", static_cast<int>(ms));
  return buf;
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

LogSink set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  LogSink previous = std::move(g_sink);
  g_sink = std::move(sink);
  return previous;
}

void set_log_decorations(bool on) { g_decorations.store(on, std::memory_order_relaxed); }

bool log_decorations() { return g_decorations.load(std::memory_order_relaxed); }

std::string format_log_line(LogLevel level, const std::string& msg) {
  std::string line = "[tunekit ";
  line += level_name(level);
  if (log_decorations()) {
    line += ' ';
    line += utc_timestamp();
    line += " t=";
    line += std::to_string(this_thread_index());
  }
  line += "] ";
  line += msg;
  return line;
}

void log_message(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink) {
    g_sink(level, msg);
    return;
  }
  std::cerr << format_log_line(level, msg) << '\n';
}

}  // namespace tunekit
