#include "client/resilient_client.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace nwdec::api {

namespace {

/// The parsed facts retry decisions need from a request line.
struct line_shape {
  bool parsed = false;
  std::string kind;
  bool has_request_id = false;
};

line_shape inspect_line(const std::string& line) {
  line_shape shape;
  try {
    const json_value root = json_parse(line);
    if (!root.is_object()) return shape;
    shape.parsed = true;
    if (const json_value* kind = root.find("kind"))
      shape.kind = kind->as_string();
    shape.has_request_id = root.find("request_id") != nullptr;
  } catch (const std::exception&) {
    // Malformed lines go to the server as-is (it answers with its own
    // diagnostic); shape.parsed stays false.
  }
  return shape;
}

/// True for the kinds that never enqueue work -- always safe to re-send.
bool kind_never_enqueues(const std::string& kind) {
  return kind == "status" || kind == "cancel" || kind == "stats" ||
         kind == "flush" || kind == "metrics" || kind == "subscribe";
}

bool terminal_event_type(const std::string& type) {
  return type == "done" || type == "failed" || type == "cancelled" ||
         type == "timed_out";
}

/// The "code" of an "ok": false response line; "" otherwise.
std::string response_code(const std::string& response) {
  try {
    const json_value root = json_parse(response);
    if (!root.is_object()) return "";
    const json_value* ok = root.find("ok");
    if (ok == nullptr || ok->as_bool()) return "";
    if (const json_value* code = root.find("code")) return code->as_string();
  } catch (const std::exception&) {
  }
  return "";
}

}  // namespace

retry_class classify_code(const std::string& code) {
  if (code == "overloaded") return retry_class::backoff;
  if (code == "idle_timeout" || code == "read_timeout" ||
      code == "too_many_connections" || code == "draining") {
    return retry_class::reconnect;
  }
  return retry_class::none;
}

bool resilient_client::idempotent(const std::string& line) {
  const line_shape shape = inspect_line(line);
  if (!shape.parsed) return false;
  if (kind_never_enqueues(shape.kind)) return true;
  return shape.has_request_id;
}

resilient_client::resilient_client(client_options options)
    : options_(std::move(options)), rng_state_(rng::counter_seed(options_.seed, 0)) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

resilient_client::~resilient_client() { disconnect(); }

void resilient_client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool resilient_client::ensure_connected(std::string* error) {
  if (fd_ >= 0) return true;
  fd_ = net::connect_tcp(options_.host, options_.port,
                         options_.connect_timeout_ms);
  if (fd_ < 0) {
    *error = "cannot connect to " + options_.host + ":" +
             std::to_string(options_.port);
    return false;
  }
  return true;
}

std::uint64_t resilient_client::next_random() {
  rng_state_ = rng::counter_seed(rng_state_, 0);
  return rng_state_;
}

int resilient_client::backoff_ms(int attempt_index) {
  double base = static_cast<double>(options_.backoff_initial_ms);
  for (int i = 0; i < attempt_index; ++i) base *= options_.backoff_growth;
  if (base > options_.backoff_max_ms)
    base = static_cast<double>(options_.backoff_max_ms);
  // Jitter in [base/2, base]: decorrelates a thundering herd of clients
  // all kicked off the same dead server.
  const double fraction =
      0.5 + 0.5 * (static_cast<double>(next_random() >> 11) /
                   static_cast<double>(1ULL << 53));
  return static_cast<int>(base * fraction);
}

bool resilient_client::attempt(const std::string& line, std::string* response,
                               std::string* error) {
  if (!ensure_connected(error)) return false;
  std::string wire = line;
  if (wire.empty() || wire.back() != '\n') wire += '\n';
  if (!net::send_all(fd_, wire)) {
    *error = "send failed (connection reset)";
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    int wait_ms = -1;
    if (options_.request_timeout_ms > 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        *error = "no response within " +
                 std::to_string(options_.request_timeout_ms) + " ms";
        return false;
      }
      wait_ms = static_cast<int>(remaining);
    }
    const long n = net::read_some(fd_, chunk, sizeof(chunk), wait_ms);
    if (n == -2) {
      *error = "no response within " +
               std::to_string(options_.request_timeout_ms) + " ms";
      return false;
    }
    if (n == 0) {
      *error = "connection closed before the response line";
      return false;
    }
    if (n < 0) {
      *error = "read failed (connection reset)";
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      *response = buffer.substr(0, newline);
      // Anything past the newline belongs to no outstanding request on
      // this strictly request/response client; drop it.
      return true;
    }
  }
}

retry_class resilient_client::pump_subscription(
    std::uint64_t job, subscribe_result& result,
    const std::function<void(const std::string&)>& on_event,
    std::string* error) {
  if (!ensure_connected(error)) return retry_class::reconnect;
  std::string wire =
      "{\"id\":0,\"kind\":\"subscribe\",\"job\":" + std::to_string(job);
  if (result.last_seq > 0)
    wire += ",\"from\":" + std::to_string(result.last_seq);
  wire += "}\n";
  if (!net::send_all(fd_, wire)) {
    *error = "send failed (connection reset)";
    return retry_class::reconnect;
  }

  std::string buffer;
  char chunk[4096];
  // The per-line deadline restarts on every delivered line: a stream
  // that keeps flowing may run as long as the job does, a stream that
  // goes quiet for request_timeout_ms reconnects (and resumes).
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.request_timeout_ms);
  for (;;) {
    std::size_t newline = 0;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(options_.request_timeout_ms);
      json_value root;
      try {
        root = json_parse(line);
      } catch (const std::exception&) {
        *error = "unparseable line from the server: " + line;
        return retry_class::reconnect;
      }
      if (const json_value* event = root.find("event")) {
        if (const json_value* seq = root.find("seq")) {
          const std::uint64_t value =
              static_cast<std::uint64_t>(seq->as_number());
          if (value > result.last_seq) result.last_seq = value;
        }
        const std::string type = event->as_string();
        if (type == "event_overflow" || type == "draining") {
          // The server ended the stream, not the job: an evicted slow
          // consumer resubscribes and the replay fills the gap; a
          // draining daemon is reconnected like any dying connection.
          *error = "stream closed by the server (" + type + ")";
          return retry_class::reconnect;
        }
        ++result.events;
        if (on_event) on_event(line);
        if (terminal_event_type(type)) {
          result.ok = true;
          result.terminal = line;
          result.error.clear();
          return retry_class::none;
        }
        continue;
      }
      const std::string code = response_code(line);
      if (const json_value* ok = root.find("ok"); ok && ok->as_bool()) {
        continue;  // the subscription ack; events follow
      }
      const retry_class verdict = classify_code(code);
      if (verdict == retry_class::none) {
        // A definitive refusal (unknown job, bad grammar): the answer is
        // the answer.
        result.ok = false;
        result.error = line;
        return retry_class::none;
      }
      *error = "server refused the subscription (" +
               (code.empty() ? std::string("no code") : code) + ")";
      return verdict;
    }
    int wait_ms = -1;
    if (options_.request_timeout_ms > 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        *error = "no event within " +
                 std::to_string(options_.request_timeout_ms) + " ms";
        return retry_class::reconnect;
      }
      wait_ms = static_cast<int>(remaining);
    }
    const long n = net::read_some(fd_, chunk, sizeof(chunk), wait_ms);
    if (n == -2) {
      *error = "no event within " +
               std::to_string(options_.request_timeout_ms) + " ms";
      return retry_class::reconnect;
    }
    if (n == 0) {
      *error = "connection closed mid-stream";
      return retry_class::reconnect;
    }
    if (n < 0) {
      *error = "read failed (connection reset)";
      return retry_class::reconnect;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

subscribe_result resilient_client::subscribe_wait(
    std::uint64_t job, std::uint64_t from_seq,
    const std::function<void(const std::string&)>& on_event) {
  subscribe_result result;
  result.last_seq = from_seq;
  for (int i = 0; i < options_.max_attempts; ++i) {
    ++result.attempts;
    std::string error;
    const retry_class verdict =
        pump_subscription(job, result, on_event, &error);
    if (verdict == retry_class::none) return result;
    if (verdict == retry_class::reconnect) disconnect();
    result.error = error;
    if (i + 1 == options_.max_attempts) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(i)));
  }
  return result;
}

client_result resilient_client::call(const std::string& request_line) {
  std::string line = request_line;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();

  minted_id_.clear();
  if (options_.auto_request_id) {
    const line_shape shape = inspect_line(line);
    if (shape.parsed && (shape.kind == "sweep" || shape.kind == "refine") &&
        !shape.has_request_id) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(
                        rng::counter_seed(options_.seed ^ ++mint_counter_,
                                          0)));
      minted_id_ = options_.request_id_prefix + "-" + hex;
      // Splice the key in right after the opening brace; the request is
      // an object (shape.parsed checked), so the text form starts at '{'.
      const std::size_t brace = line.find('{');
      std::size_t after = brace + 1;
      while (after < line.size() &&
             (line[after] == ' ' || line[after] == '\t'))
        ++after;
      const bool empty_object = after < line.size() && line[after] == '}';
      line.insert(brace + 1, "\"request_id\":\"" + minted_id_ + "\"" +
                                 (empty_object ? "" : ","));
    }
  }

  const bool transport_retry_safe = idempotent(line);
  client_result result;
  for (int i = 0; i < options_.max_attempts; ++i) {
    ++result.attempts;
    const bool last = i + 1 == options_.max_attempts;
    std::string response, error;
    if (!attempt(line, &response, &error)) {
      disconnect();
      result.ok = false;
      result.response.clear();
      result.error = error;
      // An ambiguous failure (the request may have landed, the response
      // is gone) is only re-sent when the dedup window -- or the kind --
      // makes the retry a no-op server-side.
      if (!transport_retry_safe || last) return result;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(i)));
      continue;
    }
    result.ok = true;
    result.response = response;
    result.error.clear();
    switch (classify_code(response_code(response))) {
      case retry_class::none:
        return result;
      case retry_class::backoff:
        // "overloaded" sheds before any job exists, so re-sending is
        // safe for every request kind.
        break;
      case retry_class::reconnect:
        disconnect();
        break;
    }
    if (last) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(i)));
  }
  return result;
}

}  // namespace nwdec::api
