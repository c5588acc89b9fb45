#include "util/log.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "util/error.h"
#include "util/json.h"

namespace nwdec::logging {

namespace {

std::atomic<int> g_min_level{static_cast<int>(level::info)};

// The sink state is rarely mutated (daemon startup, test setup) and read
// once per emitted record; one mutex guards both it and the line writes
// so interleaved records from connection threads stay line-atomic.
std::mutex g_sink_mutex;
std::ostream* g_stream = nullptr;  ///< non-owning test/explicit sink
std::ofstream* g_file = nullptr;   ///< owning --log-file sink

void write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::ostream& out = g_file != nullptr
                          ? static_cast<std::ostream&>(*g_file)
                          : (g_stream != nullptr ? *g_stream : std::cerr);
  out << line << '\n';
  out.flush();
}

std::string format_double(double value) {
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace

const char* level_name(level value) {
  switch (value) {
    case level::debug: return "debug";
    case level::info: return "info";
    case level::warn: return "warn";
    case level::error: return "error";
    case level::off: return "off";
  }
  return "unknown";
}

level parse_level(const std::string& name) {
  if (name == "debug") return level::debug;
  if (name == "info") return level::info;
  if (name == "warn") return level::warn;
  if (name == "error") return level::error;
  if (name == "off") return level::off;
  throw invalid_argument_error(
      "unknown log level '" + name +
      "' (valid: debug, info, warn, error, off)");
}

void set_min_level(level minimum) {
  g_min_level.store(static_cast<int>(minimum), std::memory_order_relaxed);
}

level min_level() {
  return static_cast<level>(g_min_level.load(std::memory_order_relaxed));
}

bool enabled(level value) {
  return value != level::off &&
         static_cast<int>(value) >=
             g_min_level.load(std::memory_order_relaxed);
}

void set_stream(std::ostream* sink) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_stream = sink;
  if (g_file != nullptr) {
    delete g_file;
    g_file = nullptr;
  }
}

void set_file(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*file) {
    throw io_error("cannot open log file '" + path + "' for appending");
  }
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  delete g_file;
  g_file = file.release();  // lives until replaced or process exit
  g_stream = nullptr;
}

std::string timestamp_utc() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm split{};
  gmtime_r(&seconds, &split);
  // strftime bounds the date-time part by the buffer; the millisecond
  // suffix is at most ".999Z".
  char buffer[32];
  const std::size_t length =
      std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%S", &split);
  std::snprintf(buffer + length, sizeof(buffer) - length, ".%03uZ",
                static_cast<unsigned>(millis % 1000));
  return buffer;
}

record::record(level value, const char* component, const char* event)
    : active_(enabled(value)) {
  if (!active_) return;
  line_ << "{\"ts\":\"" << timestamp_utc() << "\",\"level\":\""
        << level_name(value) << "\",\"component\":\""
        << json_escape(component) << "\",\"event\":\"" << json_escape(event)
        << "\"";
}

record::record(record&& other) noexcept : active_(other.active_) {
  if (active_) line_ << other.line_.str();
  other.active_ = false;
}

record::~record() { emit(); }

void record::emit() {
  if (!active_) return;
  active_ = false;
  line_ << "}";
  write_line(line_.str());
}

void record::append_raw(const char* name, const std::string& rendered) {
  line_ << ",\"" << json_escape(name) << "\":" << rendered;
}

record& record::field(const char* name, const std::string& value) {
  if (active_) append_raw(name, "\"" + json_escape(value) + "\"");
  return *this;
}

record& record::field(const char* name, const char* value) {
  return field(name, std::string(value));
}

record& record::field(const char* name, double value) {
  if (active_) append_raw(name, format_double(value));
  return *this;
}

record& record::field(const char* name, bool value) {
  if (active_) append_raw(name, value ? "true" : "false");
  return *this;
}

record event(level value, const char* component, const char* event) {
  return record(value, component, event);
}

}  // namespace nwdec::logging
