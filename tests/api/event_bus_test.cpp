// api::event_bus contract tests: monotonic gap-free sequencing under
// concurrent publishers, slow-consumer eviction with replay recovery,
// the subscribe-after-terminal replay, lazy terminal-body rendering, and
// the drain hook. The scheduler integration (which events a job emits)
// lives in subscribe_test.cpp; this file tests the bus alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/event_bus.h"

namespace nwdec::api {
namespace {

// Drains everything currently deliverable (stops at a timeout or once
// the subscription closes and empties).
std::vector<job_event> drain(event_subscription& events,
                             int timeout_ms = 200) {
  std::vector<job_event> seen;
  for (;;) {
    std::optional<job_event> event = events.next(timeout_ms);
    if (!event.has_value()) break;
    seen.push_back(std::move(*event));
    if (events.closed()) break;
  }
  return seen;
}

TEST(EventBusTest, SequencesAreMonotonicAndGapFreeUnderConcurrentPublishers) {
  event_bus bus;
  bus.publish(7, "queued", false, "");  // create the stream first
  auto events = bus.subscribe(7, 0);
  ASSERT_NE(events, nullptr);

  constexpr int kPublishers = 4;
  constexpr int kEach = 25;
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&bus] {
      for (int i = 0; i < kEach; ++i) {
        bus.publish(7, "progress", false, ",\"tick\":1");
      }
    });
  }
  for (std::thread& publisher : publishers) publisher.join();
  bus.publish(7, "done", true, "");

  std::uint64_t previous = 0;
  std::size_t count = 0;
  for (;;) {
    const std::optional<job_event> event = events->next(1000);
    ASSERT_TRUE(event.has_value()) << "stream stalled after " << count;
    // The whole contract in one assertion: every delivery is exactly the
    // previous sequence number plus one.
    EXPECT_EQ(event->seq, previous + 1);
    previous = event->seq;
    ++count;
    if (event->terminal) break;
  }
  EXPECT_EQ(count, 1u + kPublishers * kEach + 1u);
  EXPECT_TRUE(events->closed());
}

TEST(EventBusTest, SlowConsumerIsEvictedAndTheReplayFillsTheHole) {
  event_bus::options small;
  small.subscriber_capacity = 4;
  event_bus bus(small);
  bus.publish(3, "queued", false, "");
  auto slow = bus.subscribe(3, 0);
  ASSERT_NE(slow, nullptr);

  // Publish far past the subscriber's capacity without consuming.
  for (int i = 0; i < 10; ++i) bus.publish(3, "progress", false, "");
  bus.publish(3, "done", true, "");

  const std::vector<job_event> delivered = drain(*slow);
  ASSERT_FALSE(delivered.empty());
  const job_event& eviction = delivered.back();
  EXPECT_EQ(eviction.type, "event_overflow");
  EXPECT_TRUE(eviction.closing);
  EXPECT_NE(eviction.line.find("\"code\":\"event_overflow\""),
            std::string::npos);
  EXPECT_NE(eviction.line.find("\"dropped\":"), std::string::npos);
  EXPECT_TRUE(slow->closed());
  // Everything before the eviction line is still in order.
  for (std::size_t i = 1; i + 1 < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].seq, delivered[i - 1].seq + 1);
  }

  // The recovery protocol: resubscribe from the last seq actually
  // processed; the replay delivers every dropped event, through the
  // terminal, with no gap.
  const std::uint64_t resume_from =
      delivered.size() > 1 ? delivered[delivered.size() - 2].seq : 0;
  auto resumed = bus.subscribe(3, resume_from);
  ASSERT_NE(resumed, nullptr);
  const std::vector<job_event> replay = drain(*resumed);
  ASSERT_FALSE(replay.empty());
  EXPECT_EQ(replay.front().seq, resume_from + 1);
  for (std::size_t i = 1; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].seq, replay[i - 1].seq + 1);
  }
  EXPECT_EQ(replay.back().type, "done");
  EXPECT_TRUE(replay.back().terminal);
  EXPECT_TRUE(resumed->closed());
}

TEST(EventBusTest, SubscribeAfterTerminalReplaysTheWholeStream) {
  event_bus bus;
  bus.publish(5, "queued", false, ",\"kind\":\"sweep\"");
  bus.publish(5, "running", false, "");
  bus.publish(5, "done", true, ",\"result\":{\"n\":1}");

  auto late = bus.subscribe(5, 0);
  ASSERT_NE(late, nullptr);
  const std::vector<job_event> replay = drain(*late);
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].type, "queued");
  EXPECT_EQ(replay[1].type, "running");
  EXPECT_EQ(replay[2].type, "done");
  EXPECT_NE(replay[2].line.find("\"result\":{\"n\":1}"), std::string::npos);
  EXPECT_TRUE(late->closed());

  // A mid-stream cursor replays only the tail.
  auto tail = bus.subscribe(5, 2);
  ASSERT_NE(tail, nullptr);
  const std::vector<job_event> tail_replay = drain(*tail);
  ASSERT_EQ(tail_replay.size(), 1u);
  EXPECT_EQ(tail_replay[0].seq, 3u);
  EXPECT_EQ(tail_replay[0].type, "done");

  // A cursor past the terminal replays nothing and closes immediately:
  // the reconnecting client already has everything.
  auto caught_up = bus.subscribe(5, 3);
  ASSERT_NE(caught_up, nullptr);
  EXPECT_TRUE(drain(*caught_up).empty());
  EXPECT_TRUE(caught_up->closed());
}

TEST(EventBusTest, LazyBodyRendersOnlyWhenSomeoneReads) {
  event_bus bus;
  bus.publish(9, "queued", false, "");
  std::atomic<int> renders{0};
  bus.publish_lazy(9, "done", true, [&renders] {
    ++renders;
    return std::string(",\"result\":{\"expensive\":true}");
  });
  // Nobody was subscribed: the render has not happened.
  EXPECT_EQ(renders.load(), 0);

  auto first = bus.subscribe(9, 0);
  ASSERT_NE(first, nullptr);
  const std::vector<job_event> replay = drain(*first);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_NE(replay[1].line.find("\"expensive\":true"), std::string::npos);
  EXPECT_EQ(renders.load(), 1);

  // Not memoized (a retained stream keeps no rendered lines): a second
  // replay renders again, to the same bytes.
  auto second = bus.subscribe(9, 0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(drain(*second).back().line, replay[1].line);
  EXPECT_EQ(renders.load(), 2);
}

TEST(EventBusTest, LazyBodyRendersEagerlyForLiveSubscribers) {
  event_bus bus;
  bus.publish(11, "queued", false, "");
  auto live = bus.subscribe(11, 0);
  ASSERT_NE(live, nullptr);
  std::atomic<int> renders{0};
  bus.publish_lazy(11, "done", true, [&renders] {
    ++renders;
    return std::string(",\"result\":{}");
  });
  // A live subscriber forces the render at publish time.
  EXPECT_EQ(renders.load(), 1);
  const std::vector<job_event> delivered = drain(*live);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NE(delivered[1].line.find("\"result\":{}"), std::string::npos);
}

TEST(EventBusTest, CloseAllPushesOneDrainingEventAndIsIdempotent) {
  event_bus bus;
  bus.publish(2, "queued", false, "");
  auto events = bus.subscribe(2, 0);
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->next(1000).has_value());  // consume "queued"

  bus.close_all();
  bus.close_all();  // second call finds no live subscribers; no effect

  const std::vector<job_event> rest = drain(*events);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].type, "draining");
  EXPECT_TRUE(rest[0].closing);
  EXPECT_NE(rest[0].line.find("\"code\":\"draining\""), std::string::npos);
  EXPECT_TRUE(events->closed());

  // Streams stay readable after a drain: history replay still works.
  auto replay = bus.subscribe(2, 0);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(drain(*replay).size(), 1u);  // "queued"; draining is not history
}

TEST(EventBusTest, ForgetDropsTheStreamAndClosesSubscribers) {
  event_bus bus;
  bus.publish(4, "queued", false, "");
  auto events = bus.subscribe(4, 0);
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(bus.history_size(4), 1u);

  bus.forget(4);
  EXPECT_EQ(bus.history_size(4), 0u);
  drain(*events);
  EXPECT_TRUE(events->closed());
  EXPECT_EQ(bus.subscribe(4, 0), nullptr);
}

TEST(EventBusTest, SubscribeToAnUnknownJobReturnsNull) {
  event_bus bus;
  EXPECT_EQ(bus.subscribe(12345, 0), nullptr);
}

}  // namespace
}  // namespace nwdec::api
