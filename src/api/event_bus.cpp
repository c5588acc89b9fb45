#include "api/event_bus.h"

#include <chrono>
#include <utility>

#include "util/metrics.h"

namespace nwdec::api {

namespace {

// How long the pump waits before re-checking a quiet feed, in ms. Every
// push and close wakes it sooner, so this never affects delivered bytes.
constexpr int kEventPollMs = 250;

struct bus_metrics {
  metrics::counter& published;
  metrics::counter& delivered;
  metrics::counter& overflows;

  static bus_metrics& get() {
    static bus_metrics instance = [] {
      metrics::registry& reg = metrics::registry::global();
      return bus_metrics{
          reg.get_counter("nwdec_events_published_total"),
          reg.get_counter("nwdec_events_delivered_total"),
          reg.get_counter("nwdec_event_subscribers_evicted_total")};
    }();
    return instance;
  }
};

std::string render_line(std::uint64_t job, std::uint64_t seq,
                        const char* type, const std::string& body) {
  // The envelope members are fixed tokens and integers; `body` is a
  // pre-rendered ","-led fragment (api::json_fragment), so plain
  // concatenation is already well-formed JSON.
  return "{\"job\":" + std::to_string(job) +
         ",\"seq\":" + std::to_string(seq) + ",\"event\":\"" + type + "\"" +
         body + "}\n";
}

}  // namespace

std::optional<job_event> event_subscription::next(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
               [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  job_event event = std::move(queue_.front());
  queue_.pop_front();
  return event;
}

bool event_subscription::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_ && queue_.empty();
}

bool event_subscription::pump(
    const std::function<bool(const job_event&)>& deliver) {
  for (;;) {
    const std::optional<job_event> event = next(kEventPollMs);
    if (event.has_value()) {
      if (!deliver(*event)) return false;
      continue;
    }
    if (closed()) return true;
  }
}

std::uint64_t event_bus::publish(std::uint64_t job, const char* type,
                                 bool terminal, std::string body) {
  return publish_lazy(job, type, terminal,
                      body.empty() ? body_fn()
                                   : body_fn([body = std::move(body)] {
                                       return body;
                                     }));
}

std::string event_bus::line_of(std::uint64_t job, std::uint64_t seq,
                               const stored_event& event) {
  return render_line(job, seq, event.type,
                     event.body ? event.body() : std::string());
}

void event_bus::push_to(const std::shared_ptr<event_subscription>& subscriber,
                        const job_event& event) {
  const std::lock_guard<std::mutex> lock(subscriber->mutex_);
  if (subscriber->closed_) return;
  if (subscriber->queue_.size() >= subscriber->capacity_) {
    // Slow-consumer eviction: drop the backlog this subscriber never
    // read, replace it with one closing diagnostic, and close. The
    // client resubscribes from its last PROCESSED seq; the replay then
    // delivers everything the eviction dropped.
    const std::size_t dropped = subscriber->queue_.size();
    subscriber->queue_.clear();
    job_event overflow;
    overflow.job = event.job;
    overflow.seq = event.seq;
    overflow.type = "event_overflow";
    overflow.closing = true;
    overflow.line = render_line(
        event.job, event.seq, "event_overflow",
        ",\"code\":\"event_overflow\",\"dropped\":" + std::to_string(dropped));
    subscriber->queue_.push_back(std::move(overflow));
    subscriber->closed_ = true;
    bus_metrics::get().overflows.inc();
    subscriber->cv_.notify_all();
    return;
  }
  subscriber->queue_.push_back(event);
  if (event.terminal || event.closing) subscriber->closed_ = true;
  bus_metrics::get().delivered.inc();
  subscriber->cv_.notify_all();
}

// The one append path: sequence assignment, history append and fan-out
// happen atomically under mutex_, so delivery order always equals
// sequence order.
std::uint64_t event_bus::publish_lazy(std::uint64_t job, const char* type,
                                      bool terminal, body_fn body) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stream& entry = streams_[job];
  // A sweep's whole lifecycle (queued, running, terminal) in one
  // allocation: retained streams outnumber live ones by far.
  if (entry.history.empty()) entry.history.reserve(3);
  const std::uint64_t seq = entry.history.size() + 1;
  entry.history.push_back(stored_event{type, terminal, std::move(body)});
  bus_metrics::get().published.inc();

  // Prune dead/closed subscribers, keep the live ones.
  std::vector<std::shared_ptr<event_subscription>> live;
  live.reserve(entry.subscribers.size());
  for (const std::weak_ptr<event_subscription>& weak : entry.subscribers) {
    const std::shared_ptr<event_subscription> subscriber = weak.lock();
    if (subscriber == nullptr) continue;
    {
      const std::lock_guard<std::mutex> sub_lock(subscriber->mutex_);
      if (subscriber->closed_) continue;
    }
    live.push_back(subscriber);
  }

  if (!live.empty()) {
    job_event out;
    out.job = job;
    out.seq = seq;
    out.type = type;
    out.terminal = terminal;
    out.line = line_of(job, seq, entry.history.back());
    for (const std::shared_ptr<event_subscription>& subscriber : live) {
      push_to(subscriber, out);
    }
  }

  entry.subscribers.clear();
  if (!terminal) {
    for (const std::shared_ptr<event_subscription>& subscriber : live) {
      entry.subscribers.push_back(subscriber);
    }
  }
  if (terminal) entry.terminal = true;
  return seq;
}

std::shared_ptr<event_subscription> event_bus::subscribe(
    std::uint64_t job, std::uint64_t from_seq) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = streams_.find(job);
  if (found == streams_.end()) return nullptr;
  stream& entry = found->second;

  auto subscriber = std::make_shared<event_subscription>();
  subscriber->capacity_ = options_.subscriber_capacity;
  subscriber->job_ = job;
  // Replay bypasses the capacity bound: history length is bounded by the
  // job's lifecycle (a handful of events plus refine progress), and a
  // replay that evicted its own subscriber could never catch up.
  for (std::size_t k = from_seq; k < entry.history.size(); ++k) {
    job_event out;
    out.job = job;
    out.seq = k + 1;
    out.type = entry.history[k].type;
    out.terminal = entry.history[k].terminal;
    out.line = line_of(job, out.seq, entry.history[k]);
    subscriber->queue_.push_back(std::move(out));
    bus_metrics::get().delivered.inc();
  }
  if (entry.terminal) {
    // Subscribe-after-terminal: the replay (possibly empty, when the
    // client already saw everything) is all there will ever be.
    subscriber->closed_ = true;
  } else {
    entry.subscribers.emplace_back(subscriber);
  }
  return subscriber;
}

void event_bus::forget(std::uint64_t job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = streams_.find(job);
  if (found == streams_.end()) return;
  for (const std::weak_ptr<event_subscription>& weak :
       found->second.subscribers) {
    if (const std::shared_ptr<event_subscription> subscriber = weak.lock()) {
      const std::lock_guard<std::mutex> sub_lock(subscriber->mutex_);
      subscriber->closed_ = true;
      subscriber->cv_.notify_all();
    }
  }
  streams_.erase(found);
}

void event_bus::close_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [job, entry] : streams_) {
    for (const std::weak_ptr<event_subscription>& weak : entry.subscribers) {
      const std::shared_ptr<event_subscription> subscriber = weak.lock();
      if (subscriber == nullptr) continue;
      const std::lock_guard<std::mutex> sub_lock(subscriber->mutex_);
      if (subscriber->closed_) continue;
      job_event drain;
      drain.job = job;
      // The next seq, not consumed: no stream gap results.
      drain.seq = entry.history.size() + 1;
      drain.type = "draining";
      drain.closing = true;
      drain.line = render_line(job, drain.seq, "draining",
                               ",\"code\":\"draining\"");
      subscriber->queue_.push_back(std::move(drain));
      subscriber->closed_ = true;
      subscriber->cv_.notify_all();
    }
    entry.subscribers.clear();
  }
}

std::size_t event_bus::history_size(std::uint64_t job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = streams_.find(job);
  return found == streams_.end() ? 0 : found->second.history.size();
}

}  // namespace nwdec::api
