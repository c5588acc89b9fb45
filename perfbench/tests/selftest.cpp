// perfbench self-test: the generator is a pure function of its seed, and
// the output check accepts the reference payload and rejects corrupted or
// structurally wrong ones. Exits nonzero on the first failed expectation.
#include <iostream>
#include <string>

#include "check.h"
#include "workload.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

std::string request_bytes(const workload& load, std::size_t count) {
  std::string bytes;
  for (std::size_t index = 0; index < count; ++index) {
    for (std::size_t c = 0; c < load.shape().clients; ++c) {
      bytes += load.request(c, index).line + "\n";
    }
  }
  for (const std::string& line : load.store_snapshot_lines()) bytes += line;
  for (const std::string& line : load.store_wal_lines()) bytes += line;
  return bytes;
}

void same_seed_same_bytes() {
  for (const char* name : {"fig78_cold", "warm_http", "durable_ingest"}) {
    const workload_kind kind = parse_workload(name);
    const std::string first = request_bytes(workload(kind, 7), 200);
    expect(first == request_bytes(workload(kind, 7), 200),
           std::string(name) + ": seed 7 twice gives identical bytes");
    expect(first != request_bytes(workload(kind, 8), 200),
           std::string(name) + ": seeds 7 and 8 give different bytes");
  }
}

void unique_fresh_sigmas() {
  const workload load(workload_kind::fig78_cold, 3);
  std::string previous;
  bool unique = true;
  for (std::size_t index = 0; index < 500; ++index) {
    for (std::size_t c = 0; c < load.shape().clients; ++c) {
      const std::string key = request_key(load.request(c, index).line);
      unique = unique && key != previous;
      previous = key;
    }
  }
  expect(unique, "fig78_cold requests never repeat a sigma back to back");
}

void result_extraction() {
  const std::string line =
      "{\"id\":1,\"kind\":\"sweep\",\"ok\":true,\"cached\":0,\"computed\":1,"
      "\"result\":{\"points\":[{\"code\":\"T}C\"}]}}";
  expect(result_bytes(line) == "{\"points\":[{\"code\":\"T}C\"}]}",
         "result_bytes returns the balanced result object");
  expect(result_bytes("{\"ok\":false}").empty(),
         "result_bytes is empty without a result");
}

void check_accepts_reference_and_rejects_corruption() {
  const workload load(workload_kind::warm_http, 11);
  const request_spec spec = load.request(0, 0);
  reference expected;
  const std::string payload = expected.payload(spec.line);
  expect(check_answer(spec, payload, expected).empty(),
         "the reference payload passes the check");

  std::string corrupted = payload;
  const std::size_t digit = corrupted.find_first_of("123456789");
  corrupted[digit] = corrupted[digit] == '1' ? '2' : '1';
  expect(!check_answer(spec, corrupted, expected).empty(),
         "a payload with one digit flipped fails the check");

  request_spec wrong_size = spec;
  wrong_size.points += 1;
  expect(!check_structure(wrong_size, payload).empty(),
         "a grid-size mismatch fails the structural check");
  request_spec wrong_budget = spec;
  wrong_budget.trials = 100;
  expect(!check_structure(wrong_budget, payload).empty(),
         "a missing Monte-Carlo leg fails the structural check");
  expect(!check_answer(spec, "", expected).empty(),
         "a missing payload fails the check");
}

}  // namespace

int main() {
  same_seed_same_bytes();
  unique_fresh_sigmas();
  result_extraction();
  check_accepts_reference_and_rejects_corruption();
  if (failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
