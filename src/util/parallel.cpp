#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace nwdec {

std::size_t thread_budget() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t runner_count(std::size_t count, std::size_t width) {
  return std::min(width == 0 ? thread_budget() : width, count);
}

void parallel_for(std::size_t count, std::size_t width,
                  const parallel_body& body) {
  const std::size_t runners = runner_count(count, width);
  std::atomic<std::size_t> cursor{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  const auto run = [&](std::size_t runner) {
    for (std::size_t index = cursor.fetch_add(1); index < count;
         index = cursor.fetch_add(1)) {
      try {
        body(runner, index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        cursor.store(count);  // no runner takes a new index
        return;
      }
    }
  };

  std::vector<std::thread> spawned;
  spawned.reserve(runners > 0 ? runners - 1 : 0);
  for (std::size_t runner = 1; runner < runners; ++runner) {
    try {
      spawned.emplace_back(run, runner);
    } catch (...) {
      break;  // out of threads: the runners already started cover every index
    }
  }
  if (runners > 0) run(0);
  for (std::thread& thread : spawned) thread.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace nwdec
