// The crash-injection sweep -- the acceptance test of the durability
// tentpole: discover every failpoint the persistence cycle crosses (trace
// mode, no hard-coded list), then for each one fork a child that arms a
// simulated kill -9 there and runs the cycle. After every crash the
// parent must recover without aborting, and every entry that was durable
// BEFORE the crash workload must come back byte-identical.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/sweep_engine.h"
#include "service/durable_store.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"

namespace nwdec::service {
namespace {

stored_result make_result(double sigma, std::size_t trials_used) {
  stored_result result;
  result.request.design = {codes::code_type::balanced_gray, 2, 8};
  result.request.nanowires = 20;
  result.request.sigma_vt = sigma;
  result.request.mc_trials = 150;
  result.evaluation.point = result.request.design;
  result.evaluation.code_space = 16;
  result.evaluation.nanowire_yield = 0.8641173107133364;
  result.evaluation.crosspoint_yield = 0.7466987266744488;
  result.evaluation.effective_bits = 97871.29550267335;
  result.evaluation.total_area_nm2 = 21362884.0;
  result.evaluation.bit_area_nm2 = 218.27527560842876;
  result.evaluation.has_monte_carlo = true;
  result.evaluation.mc_nanowire_yield = 0.859;
  result.evaluation.mc_ci_low = 0.8404924447859798;
  result.evaluation.mc_ci_high = 0.8775075552140199;
  result.mc_trials_used = trials_used;
  return result;
}

std::uint64_t key_of(const stored_result& result) {
  return core::fingerprint(result.request);
}

std::string render_entry(std::uint64_t fingerprint,
                         const stored_result& result) {
  json_writer json(json_writer::style::compact);
  write_store_entry(json, fingerprint, result);
  return json.str();
}

// A scratch directory private to this process: ctest runs each test of
// this suite as its own process, in parallel under -j, so a shared name
// would let one test's cleanup delete another's files mid-cycle.
class temp_dir {
 public:
  explicit temp_dir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~temp_dir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

const store_header kHeader{2009, yield::mc_mode::operational, 131072, 7, 0};

durable_options fast_options() {
  durable_options options;
  options.fsync = false;  // process kills, not power loss: page cache holds
  options.compact_min_bytes = 1;
  options.compact_ratio = 0.0001;
  return options;
}

// The canonical persistence cycle the sweep injects crashes into: recover
// whatever is on disk, append two entries around a compaction. Crossing
// every append and compaction failpoint (plus atomic_write's, via the
// snapshot rotation).
void run_cycle(const std::string& path, double first_sigma) {
  result_store store(64);
  durable_store durable(path, fast_options());
  durable.open(store, kHeader);
  const stored_result a = make_result(first_sigma, 150);
  store.insert(key_of(a), a);
  durable.append(key_of(a), a);
  durable.sync();
  durable.compact(store, kHeader);
  const stored_result b = make_result(first_sigma + 0.001, 150);
  store.insert(key_of(b), b);
  durable.append(key_of(b), b);
  durable.sync();
}

// Discovers the failpoints a full cycle crosses; the sweep below iterates
// exactly this set, so a new marker in the persistence code is swept
// automatically (forgetting to list it is not a way to dodge the test).
std::vector<std::string> discover_failpoints() {
  temp_dir dir("nwdec_crash_discover");
  failpoints::set_trace(true);
  run_cycle(dir.file("cache.json"), 0.01);
  failpoints::set_trace(false);
  std::vector<std::string> names;
  for (const std::string& name : failpoints::trace()) {
    if (name.rfind("durable.", 0) == 0 ||
        name.rfind("atomic_write.", 0) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

TEST(DurableCrashTest, EveryPersistenceFailpointIsDiscovered) {
  const std::vector<std::string> names = discover_failpoints();
  // The exact set may grow with the code; the sweep must at least see the
  // append, compaction, and atomic-rotation families.
  EXPECT_GE(names.size(), 8u) << "trace saw only " << names.size()
                              << " persistence failpoints";
  const auto has = [&](const std::string& name) {
    for (const std::string& seen : names) {
      if (seen == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("durable.append.partial"));
  EXPECT_TRUE(has("durable.compact.before_truncate"));
  EXPECT_TRUE(has("atomic_write.before_rename"));
}

TEST(DurableCrashTest, KillAtEveryFailpointRecoversCommittedStateExactly) {
  const std::vector<std::string> names = discover_failpoints();
  ASSERT_FALSE(names.empty());

  for (const std::string& name : names) {
    SCOPED_TRACE("failpoint: " + name);
    temp_dir dir("nwdec_crash_" + std::to_string(&name - names.data()));
    const std::string path = dir.file("cache.json");

    // Committed state the crash must never lose: two entries rotated into
    // the snapshot, one more in the log, all synced.
    std::vector<std::pair<std::uint64_t, std::string>> committed;
    {
      result_store store(64);
      durable_store durable(path, fast_options());
      durable.open(store, kHeader);
      for (const double sigma : {0.02, 0.03}) {
        const stored_result entry = make_result(sigma, 150);
        store.insert(key_of(entry), entry);
        durable.append(key_of(entry), entry);
      }
      durable.sync();
      durable.compact(store, kHeader);
      const stored_result tail = make_result(0.04, 150);
      store.insert(key_of(tail), tail);
      durable.append(key_of(tail), tail);
      durable.sync();
      committed.emplace_back(key_of(make_result(0.02, 150)),
                             render_entry(key_of(make_result(0.02, 150)),
                                          make_result(0.02, 150)));
      committed.emplace_back(key_of(make_result(0.03, 150)),
                             render_entry(key_of(make_result(0.03, 150)),
                                          make_result(0.03, 150)));
      committed.emplace_back(key_of(tail), render_entry(key_of(tail), tail));
    }

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: arm the kill and run the next cycle into it. _exit
      // everywhere -- the child must never return into gtest.
      try {
        failpoints::arm(name, failpoints::action::kill);
        run_cycle(path, 0.05);
      } catch (...) {
        ::_exit(97);  // the kill action never throws; anything else failed
      }
      ::_exit(0);  // failpoint not crossed before the cycle finished
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == failpoints::kill_exit_code || code == 0)
        << "child exited " << code;
    EXPECT_EQ(code, failpoints::kill_exit_code)
        << "the armed failpoint was never crossed";

    // Recovery: must not throw, and must reproduce every committed entry
    // byte for byte, whatever state the kill left behind.
    result_store recovered(64);
    durable_store durable(path, fast_options());
    recovery_report report;
    ASSERT_NO_THROW(report = durable.open(recovered, kHeader));
    for (const auto& [fingerprint, golden] : committed) {
      const auto found = recovered.find(fingerprint);
      ASSERT_NE(found, nullptr)
          << "committed entry " << fingerprint << " lost";
      EXPECT_EQ(render_entry(fingerprint, *found), golden);
    }

    // And the store keeps serving writes after the crash.
    const stored_result after = make_result(0.09, 150);
    recovered.insert(key_of(after), after);
    ASSERT_NO_THROW(durable.append(key_of(after), after));
    ASSERT_NO_THROW(durable.sync());
  }
}

TEST(DurableCrashTest, KillMidSnapshotWriteLeavesTheOldSaveFileIntact) {
  // The save_file atomicity regression, with a real kill: a process dying
  // halfway through the replacement write leaves the previous bytes.
  temp_dir dir("nwdec_crash_savefile");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  const stored_result a = make_result(0.02, 150);
  store.insert(key_of(a), a);
  store.save_file(path, kHeader);
  const std::string before = read_file(path).value();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      failpoints::arm("atomic_write.partial", failpoints::action::kill);
      result_store mine(64);
      const stored_result b = make_result(0.02, 150);
      const stored_result c = make_result(0.03, 150);
      mine.insert(key_of(b), b);
      mine.insert(key_of(c), c);
      mine.save_file(path, kHeader);
    } catch (...) {
      ::_exit(97);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), failpoints::kill_exit_code);

  EXPECT_EQ(read_file(path).value(), before);
  result_store reloaded(64);
  reloaded.load_json(read_file(path).value(), kHeader);
  EXPECT_EQ(reloaded.size(), 1u);
}

}  // namespace
}  // namespace nwdec::service
