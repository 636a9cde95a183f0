#include "common/logging.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace trustddl {
namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

thread_local int t_party = -1;

std::string iso8601_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t seconds = system_clock::to_time_t(now);
  const auto millis =
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Sized for the worst case gcc must assume: seven plain-int fields
  // of up to 11 characters each, seven literal characters and the NUL.
  char buffer[7 * 11 + 7 + 1];
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", utc.tm_year + 1900,
                utc.tm_mon + 1, utc.tm_mday, utc.tm_hour, utc.tm_min,
                utc.tm_sec, static_cast<int>(millis));
  return buffer;
}

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::recompute_min_level_locked() {
  int floor = static_cast<int>(level_);
  for (const auto& [component, level] : component_levels_) {
    floor = std::min(floor, static_cast<int>(level));
  }
  min_level_.store(floor, std::memory_order_relaxed);
}

void Logger::set_level(LogLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  level_ = level;
  recompute_min_level_locked();
}

LogLevel Logger::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

void Logger::set_component_level(const std::string& component,
                                 LogLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  component_levels_[component] = level;
  recompute_min_level_locked();
}

void Logger::clear_component_levels() {
  std::lock_guard<std::mutex> lock(mu_);
  component_levels_.clear();
  recompute_min_level_locked();
}

LogLevel Logger::effective_level(const std::string& component) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = component_levels_.find(component);
  return it != component_levels_.end() ? it->second : level_;
}

void Logger::set_thread_party(int party) { t_party = party; }

void Logger::write(LogLevel level, const std::string& component,
                   const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = component_levels_.find(component);
  const LogLevel effective =
      it != component_levels_.end() ? it->second : level_;
  if (static_cast<int>(level) < static_cast<int>(effective)) {
    return;
  }
  std::string line = iso8601_now();
  if (t_party >= 0) {
    line += " [p" + std::to_string(t_party) + "]";
  }
  line += std::string(" [") + level_name(level) + "] " + component + ": " +
          message + "\n";
  if (capture_) {
    if (capture_truncated_) {
      return;
    }
    if (captured_.size() + line.size() > kCaptureLimit) {
      captured_ += kTruncationMarker;
      capture_truncated_ = true;
      return;
    }
    captured_ += line;
  } else {
    std::fputs(line.c_str(), stderr);
  }
}

void Logger::set_capture(bool capture) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = capture;
}

std::string Logger::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

void Logger::clear_captured() {
  std::lock_guard<std::mutex> lock(mu_);
  captured_.clear();
  capture_truncated_ = false;
}

}  // namespace trustddl
