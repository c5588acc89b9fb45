// api::event_bus: per-job lifecycle event streams with bounded fan-out.
//
// Publishers (the job scheduler, under its own mutex) append events to a
// per-job stream; each event gets the stream's next monotonic sequence
// number (1, 2, 3, ... with no gaps -- subscribers detect loss by a gap,
// and the bus itself never creates one). Subscribers attach with
// subscribe(job, from_seq) and receive, in order: every already-published
// event with seq > from_seq (the replay -- this is how a reconnecting
// client resumes without missing anything), then live events as they are
// published.
//
// Slow consumers are evicted, never waited on: a subscriber whose bounded
// queue is full when an event arrives has its queued events dropped and
// replaced by a single closing
//   {"job": J, "seq": S, "event": "event_overflow",
//    "code": "event_overflow", "dropped": K}
// line, after which the subscription is closed -- the client resubscribes
// from its last processed sequence number and the replay fills the hole.
// Publishing therefore never blocks on any subscriber.
//
// Terminal events (done/failed/cancelled/timed_out) end a stream: the
// subscription closes once it has delivered one, and a subscribe() after
// the terminal was published replays up to and including it (the
// subscribe-after-terminal contract: a late or reconnecting client still
// gets the result payload). A stored event keeps only its type and a
// body closure, never a rendered line: the closure runs when the event is
// published to live subscribers and again on every replay that reaches
// it, so a job nobody watches never pays the render, and a retained
// stream costs a few small closures (the job scheduler's capture a few
// scalars or a pointer to the job's immutable record).
//
// close_all() (the daemon's drain hook) pushes a final
//   {"job": J, "seq": S, "event": "draining", "code": "draining"}
// to every live subscriber and closes them, so event feeds end promptly
// on SIGTERM instead of pinning connection threads past the drain window.
//
// Lock order: bus mutex -> subscription mutex; the bus never calls out
// under its lock except the body closures (which are pure renders).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace nwdec::api {

/// One delivered event. `line` is the full NDJSON wire form, newline
/// terminated: {"job": J, "seq": S, "event": "<type>", ...body}.
struct job_event {
  std::uint64_t job = 0;
  std::uint64_t seq = 0;
  std::string type;
  bool terminal = false;  ///< done | failed | cancelled | timed_out
  bool closing = false;   ///< event_overflow | draining: the feed ends here
  std::string line;
};

class event_bus;

/// One subscriber's bounded queue. next() is the consumer side; the bus
/// pushes. A subscription outlives its bus registration safely (the bus
/// holds weak_ptrs), so transports may drop it whenever the peer goes.
class event_subscription {
 public:
  /// Blocks up to timeout_ms for the next event; nullopt on timeout.
  /// After a terminal or closing event the queue drains to empty and
  /// closed() turns true.
  std::optional<job_event> next(int timeout_ms);
  bool closed() const;

  /// The one event pump, behind both the NDJSON "subscribe" verb and the
  /// HTTP SSE route (they differ only in framing): hands every event to
  /// `deliver`, in order, until the feed ends (terminal, event_overflow
  /// or draining delivered) or `deliver` returns false (peer gone).
  /// Returns true when the feed ended.
  bool pump(const std::function<bool(const job_event&)>& deliver);

 private:
  friend class event_bus;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<job_event> queue_;
  bool closed_ = false;
  std::size_t capacity_ = 0;
  std::uint64_t job_ = 0;
};

class event_bus {
 public:
  struct options {
    /// Events a subscriber may have pending before it is evicted with
    /// event_overflow. Generous relative to a job's lifecycle (a sweep
    /// emits 3 events; refine adds one progress event per probe).
    std::size_t subscriber_capacity = 256;
  };

  event_bus() = default;
  explicit event_bus(options opts) : options_(opts) {}
  event_bus(const event_bus&) = delete;
  event_bus& operator=(const event_bus&) = delete;

  /// Renders an event's extra body members as a ","-led fragment (or "").
  /// It must be pure: every call returns the same bytes.
  using body_fn = std::function<std::string()>;

  /// Appends one event to the job's stream (creating the stream on first
  /// publish) and fans it out to live subscribers. Returns the assigned
  /// sequence number. `type` must be a string with static storage (an
  /// event-name literal): the stream keeps the pointer. The stream keeps
  /// the body as a closure that returns it.
  std::uint64_t publish(std::uint64_t job, const char* type, bool terminal,
                        std::string body);
  /// publish() with the body as a closure (empty = no body): it renders
  /// now iff someone is subscribed, and on every replay that reaches the
  /// event. Whatever it captures must outlive the job's stream.
  std::uint64_t publish_lazy(std::uint64_t job, const char* type,
                             bool terminal, body_fn body);

  /// Attaches a subscriber: replays history with seq > from_seq, then
  /// streams live events. Returns nullptr for a job with no stream
  /// (never published, or forgotten). A subscription attached after the
  /// stream's terminal event closes right after the replay.
  std::shared_ptr<event_subscription> subscribe(std::uint64_t job,
                                                std::uint64_t from_seq);

  /// Drops a job's stream (retention trim); remaining subscribers are
  /// closed (their terminal event, if any, was already delivered).
  void forget(std::uint64_t job);

  /// Drain hook: pushes a closing "draining" event to every live
  /// subscriber and closes them. Streams stay readable for replay;
  /// idempotent (a second call finds no live subscribers).
  void close_all();

  /// Test introspection: events retained for a job's replay (0 = no
  /// stream).
  std::size_t history_size(std::uint64_t job) const;

 private:
  struct stored_event {
    const char* type = "";  ///< a string literal (publish's `type`)
    bool terminal = false;
    body_fn body;  ///< the ","-led body fragment; empty = no body
  };
  struct stream {
    bool terminal = false;
    /// Event k carries seq k + 1: sequence numbers start at 1 and have no
    /// gaps.
    std::vector<stored_event> history;
    std::vector<std::weak_ptr<event_subscription>> subscribers;
  };

  /// Renders a stored event's wire line.
  static std::string line_of(std::uint64_t job, std::uint64_t seq,
                             const stored_event& event);
  /// Delivers to one subscriber, evicting it on overflow. Caller holds
  /// mutex_; takes the subscription mutex (the documented lock order).
  void push_to(const std::shared_ptr<event_subscription>& subscriber,
               const job_event& event);

  options options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, stream> streams_;
};

}  // namespace nwdec::api
