// The chaos soak: resilient clients through the fault-injecting proxy
// against a real daemon stack (service + dispatcher + tcp_transport),
// with resets, truncation, fragmented writes, and a kill-restart -- and
// still: every request completes, result payloads are byte-identical to
// a clean run, and no unit of engine work is ever computed twice (the
// store-miss count equals a clean run's, even across the restart).
//
// Everything is deterministic where it matters: proxy faults derive from
// a fixed seed, failpoints place the surgical reset exactly, and result
// payloads are pure functions of (config, request) by the determinism
// contract -- the chaos only shuffles wrappers and provenance counters,
// which is why the comparisons strip to the "result" member.
#include "client/chaos_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/tcp_transport.h"
#include "client/resilient_client.h"
#include "service/sweep_service.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace nwdec::api {
namespace {

class temp_dir {
 public:
  explicit temp_dir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~temp_dir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// One restartable daemon stack: service (optionally durable),
/// dispatcher, serving TCP transport.
class daemon {
 public:
  explicit daemon(const std::string& cache_path = "") {
    service_.emplace(crossbar::crossbar_spec{}, device::paper_technology(),
                     service::service_options{});
    if (!cache_path.empty()) service_->enable_durability(cache_path);
    dispatcher::options options;
    options.workers = 2;
    dispatch_.emplace(*service_, options);
    transport_.emplace(0, 64, tcp_limits{});
    thread_ = std::thread([this] { transport_->serve(*dispatch_); });
  }

  ~daemon() { stop(); }

  /// Graceful stop; the store's durable state survives for a successor.
  /// Returns the lifetime store-miss count (one per point computed).
  std::size_t stop() {
    if (!transport_.has_value()) return misses_;
    transport_->shutdown();
    thread_.join();
    misses_ = service_->stats().store.misses;
    transport_.reset();
    dispatch_.reset();
    service_.reset();
    return misses_;
  }

  std::uint16_t port() const { return transport_->port(); }
  std::size_t misses() const {
    return service_.has_value() ? service_->stats().store.misses : misses_;
  }
  job_scheduler& scheduler() { return dispatch_->scheduler(); }

 private:
  std::optional<service::sweep_service> service_;
  std::optional<dispatcher> dispatch_;
  std::optional<tcp_transport> transport_;
  std::thread thread_;
  std::size_t misses_ = 0;
};

/// The k-th workload request: one unique grid point per k, so the
/// expected clean-run miss count is exactly the number of distinct k's.
std::string workload_line(int k) {
  char sigma[32];
  std::snprintf(sigma, sizeof(sigma), "%.3f", 0.020 + 0.002 * k);
  return R"({"id":)" + std::to_string(k) +
         R"(,"kind":"sweep","codes":["BGC"],"lengths":[8],"sigmas_vt":[)" +
         sigma + R"(],"trials":40})";
}

/// The "result" member, rendered compactly -- the part of a response the
/// determinism contract pins (wrappers carry provenance counters that
/// legitimately differ between cold, warm, and deduplicated answers).
std::string payload_of(const std::string& response) {
  const json_value root = json_parse(response);
  const json_value* ok = root.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->as_bool()) << response;
  const json_value* result = root.find("result");
  EXPECT_NE(result, nullptr) << response;
  return result == nullptr
             ? ""
             : json_render(*result, json_writer::style::compact);
}

/// Clean-run reference: every workload line once, direct dispatch, no
/// network anywhere. Returns k -> payload, and reports the miss count.
std::map<int, std::string> reference_payloads(const std::vector<int>& ks,
                                              std::size_t* misses) {
  service::sweep_service service(crossbar::crossbar_spec{},
                                 device::paper_technology(),
                                 service::service_options{});
  dispatcher::options options;
  options.workers = 1;
  dispatcher dispatch(service, options);
  std::map<int, std::string> payloads;
  for (const int k : ks)
    payloads[k] = payload_of(dispatch.handle_line(workload_line(k)));
  *misses = service.stats().store.misses;
  return payloads;
}

client_options chaos_client_options(std::uint16_t port, std::uint64_t seed) {
  client_options options;
  options.port = port;
  options.seed = seed;
  options.auto_request_id = true;
  options.request_id_prefix = "chaos" + std::to_string(seed);
  options.max_attempts = 20;
  options.request_timeout_ms = 20000;
  options.connect_timeout_ms = 2000;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 100;
  return options;
}

TEST(ChaosTest, SurgicalResponseResetIsAbsorbedByDedup) {
  // The sharpest single case: the daemon runs the job, the wire eats the
  // response. The retry must map to the EXISTING job (dedup) and return
  // its bytes -- not run the sweep twice.
  daemon server;
  chaos_options options;
  options.upstream_port = server.port();
  chaos_transport proxy(options);
  proxy.start();

  failpoints::arm("chaos.forward.response", failpoints::action::error);
  std::atomic<bool> disarmed{false};
  std::thread watcher([&] {
    // One reset is the experiment; disarm so the retry goes through.
    while (proxy.stats().resets == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    failpoints::disarm("chaos.forward.response");
    disarmed.store(true);
  });

  resilient_client client(chaos_client_options(proxy.port(), 1));
  const client_result result = client.call(workload_line(0));
  watcher.join();
  EXPECT_TRUE(disarmed.load());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.attempts, 2);

  std::size_t reference_misses = 0;
  const std::map<int, std::string> reference =
      reference_payloads({0}, &reference_misses);
  EXPECT_EQ(payload_of(result.response), reference.at(0));
  // The retried submission was answered from the dedup window; the
  // engine computed the point exactly once.
  EXPECT_GE(server.scheduler().stats().deduplicated, 1u);
  EXPECT_EQ(server.misses(), reference_misses);
  proxy.stop();
}

TEST(ChaosTest, ConcurrentClientsConvergeThroughChaos) {
  daemon server;
  chaos_options options;
  options.upstream_port = server.port();
  options.seed = 20090211;
  options.reset_probability = 0.03;
  options.truncate_probability = 0.03;
  options.max_write_bytes = 64;  // fragment everything
  chaos_transport proxy(options);
  proxy.start();

  constexpr int kClients = 3;
  constexpr int kPerClient = 5;
  std::vector<int> ks;
  for (int k = 0; k < kClients * kPerClient; ++k) ks.push_back(k);
  std::size_t reference_misses = 0;
  const std::map<int, std::string> reference =
      reference_payloads(ks, &reference_misses);

  std::vector<std::map<int, std::string>> got(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      resilient_client client(chaos_client_options(
          proxy.port(), static_cast<std::uint64_t>(c + 1)));
      for (int j = 0; j < kPerClient; ++j) {
        const int k = c * kPerClient + j;
        const client_result result = client.call(workload_line(k));
        if (!result.ok) {
          failures[c] = result.error;
          return;
        }
        got[c][k] = payload_of(result.response);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  proxy.stop();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    for (const auto& [k, payload] : got[c])
      EXPECT_EQ(payload, reference.at(k)) << "k=" << k;
  }
  // Zero duplicate engine work: every unique point was computed exactly
  // once, no matter how many times the wire made clients re-send.
  EXPECT_EQ(server.misses(), reference_misses);
}

TEST(ChaosTest, KillRestartSoakCompletesEveryJobExactlyOnce) {
  temp_dir dir("nwdec_chaos_soak");
  const std::string cache = dir.file("cache.json");

  constexpr int kTotal = 12;
  std::vector<int> ks;
  for (int k = 0; k < kTotal; ++k) ks.push_back(k);
  std::size_t reference_misses = 0;
  const std::map<int, std::string> reference =
      reference_payloads(ks, &reference_misses);

  auto server = std::make_unique<daemon>(cache);
  chaos_options options;
  options.upstream_port = server->port();
  options.seed = 77;
  options.reset_probability = 0.02;
  options.max_write_bytes = 128;
  chaos_transport proxy(options);
  proxy.start();

  // Phase A: the first half of the workload lands and persists.
  {
    resilient_client client(chaos_client_options(proxy.port(), 100));
    for (int k = 0; k < kTotal / 2; ++k) {
      const client_result result = client.call(workload_line(k));
      ASSERT_TRUE(result.ok) << "k=" << k << ": " << result.error;
      EXPECT_EQ(payload_of(result.response), reference.at(k)) << "k=" << k;
    }
  }

  // Phase B: clients work through the FULL workload (fresh keys) while
  // the daemon is killed and restarted under them. Re-run points are
  // answered from the durable store; interrupted requests retry until
  // the successor answers.
  const std::size_t first_life_misses_floor = server->misses();
  EXPECT_EQ(first_life_misses_floor, static_cast<std::size_t>(kTotal / 2));

  std::vector<std::map<int, std::string>> got(2);
  std::vector<std::string> failures(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      resilient_client client(chaos_client_options(
          proxy.port(), static_cast<std::uint64_t>(200 + c)));
      for (int k = c; k < kTotal; k += 2) {
        const client_result result = client.call(workload_line(k));
        if (!result.ok) {
          failures[c] = "k=" + std::to_string(k) + ": " + result.error;
          return;
        }
        got[c][k] = payload_of(result.response);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::size_t first_life_misses = server->stop();  // the "kill"
  server = std::make_unique<daemon>(cache);  // restart, warm from disk
  proxy.set_upstream_port(server->port());

  for (std::thread& thread : clients) thread.join();
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    for (const auto& [k, payload] : got[c])
      EXPECT_EQ(payload, reference.at(k)) << "k=" << k;
  }
  // Across BOTH daemon lifetimes, each unique point was computed exactly
  // once: whatever the first life persisted, the second life never
  // recomputed (every completed point's store insert is durable).
  EXPECT_EQ(first_life_misses + server->misses(), reference_misses);
  proxy.stop();
}

}  // namespace
}  // namespace nwdec::api
