// The crash-safe persistence layer: write-ahead log round trips, snapshot
// compaction, and -- the robustness contract -- recovery that degrades
// (quarantine + cold start, torn-tail truncation) instead of aborting, no
// matter what bytes a crash or a corruptor left on disk.
#include "service/durable_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/sweep_engine.h"
#include "service/sweep_service.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"

namespace nwdec::service {
namespace {

stored_result make_result(double sigma, std::size_t trials_used = 0) {
  stored_result result;
  result.request.design = {codes::code_type::balanced_gray, 2, 8};
  result.request.nanowires = 20;
  result.request.sigma_vt = sigma;
  result.request.mc_trials = trials_used == 0 ? 0 : 150;
  result.evaluation.point = result.request.design;
  result.evaluation.code_space = 16;
  result.evaluation.nanowire_yield = 0.8641173107133364;
  result.evaluation.crosspoint_yield = 0.7466987266744488;
  result.evaluation.effective_bits = 97871.29550267335;
  result.evaluation.total_area_nm2 = 21362884.0;
  result.evaluation.bit_area_nm2 = 218.27527560842876;
  if (trials_used > 0) {
    result.evaluation.has_monte_carlo = true;
    result.evaluation.mc_nanowire_yield = 0.859;
    result.evaluation.mc_ci_low = 0.8404924447859798;
    result.evaluation.mc_ci_high = 0.8775075552140199;
    result.mc_trials_used = trials_used;
  }
  return result;
}

std::uint64_t key_of(const stored_result& result) {
  return core::fingerprint(result.request);
}

// A per-test scratch directory so quarantine files and logs never leak
// between tests (or runs).
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

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t file_size(const std::string& path) {
  return static_cast<std::size_t>(std::filesystem::file_size(path));
}

const store_header kHeader{2009, yield::mc_mode::operational, 131072, 7, 0};

// Tests that want appends to survive without rotation disable the
// compactor via an unreachable floor; fsync off keeps tmpfs runs fast
// (process-crash durability is what the suite exercises).
durable_options no_compact_options() {
  durable_options options;
  options.fsync = false;
  options.compact_min_bytes = std::size_t{1} << 30;
  return options;
}

TEST(DurableStoreTest, AppendedRecordsSurviveReopenByteIdentically) {
  temp_dir dir("nwdec_durable_roundtrip");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  std::string expected_json;
  {
    durable_store durable(path, no_compact_options());
    const recovery_report fresh = durable.open(store, kHeader);
    EXPECT_TRUE(fresh.warnings.empty());
    EXPECT_FALSE(fresh.snapshot_loaded);
    for (const double sigma : {0.01, 0.02, 0.03}) {
      const stored_result result = make_result(sigma, 150);
      store.insert(key_of(result), result);
      durable.append(key_of(result), result);
    }
    durable.sync();
    expected_json = store.to_json(kHeader);
    // No snapshot was ever written: everything lives in the log.
    EXPECT_FALSE(std::filesystem::exists(path));
  }

  result_store reloaded(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(reloaded, kHeader);
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.log_records, 3u);
  EXPECT_EQ(report.dropped_bytes, 0u);
  EXPECT_EQ(reloaded.to_json(kHeader), expected_json);
}

TEST(DurableStoreTest, CompactionRotatesLogIntoSnapshot) {
  temp_dir dir("nwdec_durable_compact");
  const std::string path = dir.file("cache.json");
  durable_options options;
  options.fsync = false;
  options.compact_min_bytes = 1;  // every append crosses the floor
  options.compact_ratio = 0.0001;

  result_store store(64);
  std::string expected_json;
  {
    durable_store durable(path, options);
    durable.open(store, kHeader);
    const stored_result result = make_result(0.04, 150);
    store.insert(key_of(result), result);
    durable.append(key_of(result), result);
    EXPECT_TRUE(durable.wants_compaction());
    durable.compact(store, kHeader);
    expected_json = store.to_json(kHeader);
    // Rotated: snapshot holds the state, the log is back to its header.
    EXPECT_EQ(read_file(path).value(), expected_json);
    EXPECT_EQ(file_size(path + ".log"), 16u);
    EXPECT_FALSE(durable.wants_compaction());
  }

  result_store reloaded(64);
  durable_store durable(path, options);
  const recovery_report report = durable.open(reloaded, kHeader);
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_entries, 1u);
  EXPECT_EQ(report.log_records, 0u);
  EXPECT_EQ(reloaded.to_json(kHeader), expected_json);
}

TEST(DurableStoreTest, TornTailIsTruncatedQuarantinedAndPrefixReplayed) {
  temp_dir dir("nwdec_durable_torn");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  {
    durable_store durable(path, no_compact_options());
    durable.open(store, kHeader);
    for (const double sigma : {0.01, 0.02}) {
      const stored_result result = make_result(sigma, 150);
      store.insert(key_of(result), result);
      durable.append(key_of(result), result);
    }
  }
  const std::string committed = store.to_json(kHeader);
  const std::size_t committed_bytes = file_size(path + ".log");

  // A torn append: a length prefix promising more bytes than exist.
  {
    std::ofstream log(path + ".log",
                      std::ios::binary | std::ios::app);
    const char torn[] = {'\xff', '\x00', '\x00', '\x00', 'x', 'y'};
    log.write(torn, sizeof(torn));
  }

  result_store reloaded(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(reloaded, kHeader);
  EXPECT_EQ(report.log_records, 2u);
  EXPECT_EQ(report.dropped_bytes, 6u);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("invalid log tail"), std::string::npos);
  EXPECT_EQ(reloaded.to_json(kHeader), committed);
  // The tail was preserved for diagnosis and cut from the live log.
  EXPECT_TRUE(std::filesystem::exists(path + ".log.corrupt-1"));
  EXPECT_EQ(file_size(path + ".log.corrupt-1"), 6u);
  EXPECT_EQ(file_size(path + ".log"), committed_bytes);

  // The reopened log keeps working: appends land after the valid prefix.
  const stored_result more = make_result(0.05, 150);
  reloaded.insert(key_of(more), more);
  durable.append(key_of(more), more);
}

TEST(DurableStoreTest, CrcMismatchEndsTheCommittedPrefix) {
  temp_dir dir("nwdec_durable_crc");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  stored_result first = make_result(0.01, 150);
  {
    durable_store durable(path, no_compact_options());
    durable.open(store, kHeader);
    store.insert(key_of(first), first);
    durable.append(key_of(first), first);
    const stored_result second = make_result(0.02, 150);
    store.insert(key_of(second), second);
    durable.append(key_of(second), second);
  }

  // Flip one payload byte of the LAST record: its CRC no longer matches.
  std::string bytes = read_file(path + ".log").value();
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 1);
  write_bytes(path + ".log", bytes);

  result_store reloaded(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(reloaded, kHeader);
  EXPECT_EQ(report.log_records, 1u);
  EXPECT_GT(report.dropped_bytes, 0u);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_NE(reloaded.find(key_of(first)), nullptr);
  EXPECT_TRUE(std::filesystem::exists(path + ".log.corrupt-1"));
}

TEST(DurableStoreTest, CorruptSnapshotIsQuarantinedAndBootsCold) {
  temp_dir dir("nwdec_durable_snapshot");
  const std::string path = dir.file("cache.json");
  for (const char* garbage :
       {"not json at all", "{\"truncated\": [1,", "{\"different\": 1}\n"}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".log");
    write_bytes(path, garbage);
    result_store store(64);
    durable_store durable(path, no_compact_options());
    recovery_report report;
    ASSERT_NO_THROW(report = durable.open(store, kHeader)) << garbage;
    EXPECT_FALSE(report.snapshot_loaded);
    EXPECT_EQ(store.size(), 0u);
    ASSERT_FALSE(report.warnings.empty());
    EXPECT_NE(report.warnings[0].find("quarantined corrupt snapshot"),
              std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(path));  // set aside, not read
    // The store keeps working after the cold boot.
    const stored_result result = make_result(0.06, 150);
    store.insert(key_of(result), result);
    ASSERT_NO_THROW(durable.append(key_of(result), result));
  }
  // Each pass quarantined under a fresh, non-clobbering name.
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt-1"));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt-2"));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt-3"));
}

TEST(DurableStoreTest, HeaderMismatchedSnapshotIsQuarantinedNotLoaded) {
  temp_dir dir("nwdec_durable_header");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  const stored_result result = make_result(0.02, 150);
  store.insert(key_of(result), result);
  store.save_file(path, kHeader);

  store_header other = kHeader;
  other.seed = 7777;
  result_store reloaded(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(reloaded, other);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(reloaded.size(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt-1"));
}

TEST(DurableStoreTest, EmptyLogIsAFreshLogNotCorruption) {
  // Compaction can be killed between ftruncate(0) and the header rewrite;
  // recovery must treat the resulting 0-byte log as fresh.
  temp_dir dir("nwdec_durable_empty");
  const std::string path = dir.file("cache.json");
  write_bytes(path + ".log", "");
  result_store store(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(store, kHeader);
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.log_records, 0u);
  EXPECT_EQ(file_size(path + ".log"), 16u);  // header rewritten
}

TEST(DurableStoreTest, BadMagicOrForeignDigestQuarantinesTheWholeLog) {
  temp_dir dir("nwdec_durable_magic");
  const std::string path = dir.file("cache.json");

  write_bytes(path + ".log", "GARBAGEGARBAGEGARBAGE");
  {
    result_store store(64);
    durable_store durable(path, no_compact_options());
    const recovery_report report = durable.open(store, kHeader);
    EXPECT_EQ(report.log_records, 0u);
    ASSERT_FALSE(report.warnings.empty());
    EXPECT_NE(report.warnings[0].find("quarantined log"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(path + ".log.corrupt-1"));
  }

  // A log written under a different configuration: valid magic, wrong
  // digest. Never replayed -- its entries belong to another universe.
  std::filesystem::remove(path + ".log");
  result_store store(64);
  {
    durable_store durable(path, no_compact_options());
    durable.open(store, kHeader);
    const stored_result result = make_result(0.03, 150);
    store.insert(key_of(result), result);
    durable.append(key_of(result), result);
  }
  store_header other = kHeader;
  other.budget_fingerprint = 42;
  result_store reloaded(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(reloaded, other);
  EXPECT_EQ(report.log_records, 0u);
  EXPECT_EQ(reloaded.size(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path + ".log.corrupt-2"));
}

TEST(DurableStoreTest, StaleSnapshotTmpIsRemovedOnOpen) {
  temp_dir dir("nwdec_durable_tmp");
  const std::string path = dir.file("cache.json");
  write_bytes(path + ".tmp", "half a snapshot");
  result_store store(64);
  durable_store durable(path, no_compact_options());
  const recovery_report report = durable.open(store, kHeader);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("stale snapshot tmp"),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableStoreTest, WantsCompactionNeedsBothFloorAndRatio) {
  temp_dir dir("nwdec_durable_thresholds");
  const std::string path = dir.file("cache.json");
  durable_options options;
  options.fsync = false;
  options.compact_min_bytes = std::size_t{1} << 20;  // far above one entry
  options.compact_ratio = 0.0001;
  result_store store(64);
  durable_store durable(path, options);
  durable.open(store, kHeader);
  EXPECT_FALSE(durable.wants_compaction());  // empty log
  const stored_result result = make_result(0.01, 150);
  store.insert(key_of(result), result);
  durable.append(key_of(result), result);
  // Ratio satisfied (no snapshot yet) but the absolute floor is not.
  EXPECT_FALSE(durable.wants_compaction());
}

TEST(DurableStoreTest, FailedAtomicSnapshotWriteLeavesTheOldFileIntact) {
  // The mid-write-failure regression for result_store::save_file: an
  // interrupted replacement must leave the previous snapshot byte-intact
  // (tmp + rename, never in-place truncation) and no tmp debris behind.
  temp_dir dir("nwdec_atomic_save");
  const std::string path = dir.file("cache.json");
  result_store store(64);
  const stored_result result = make_result(0.02, 150);
  store.insert(key_of(result), result);
  store.save_file(path, kHeader);
  const std::string before = read_file(path).value();

  const stored_result more = make_result(0.03, 150);
  store.insert(key_of(more), more);
  failpoints::arm("atomic_write.partial", failpoints::action::error);
  EXPECT_THROW(store.save_file(path, kHeader), nwdec::error);
  failpoints::disarm_all();
  EXPECT_EQ(read_file(path).value(), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // And the retry after the fault heals cleanly.
  store.save_file(path, kHeader);
  result_store reloaded(64);
  reloaded.load_json(read_file(path).value(), kHeader);
  EXPECT_EQ(reloaded.size(), 2u);
}

TEST(DurableStoreTest, ServiceEnableDurabilityPersistsAcrossRestart) {
  // End to end through sweep_service: evaluate -> WAL -> restart ->
  // byte-identical payloads with cached provenance.
  temp_dir dir("nwdec_durable_service");
  const std::string path = dir.file("cache.json");
  core::sweep_request point;
  point.design = {codes::code_type::balanced_gray, 2, 8};
  point.sigma_vt = 0.05;
  point.mc_trials = 150;

  std::string cold_payload;
  {
    sweep_service service(crossbar::crossbar_spec{},
                          device::paper_technology(), {});
    durable_options options;
    options.fsync = false;
    const recovery_report report = service.enable_durability(path, options);
    EXPECT_TRUE(report.warnings.empty());
    EXPECT_EQ(service.snapshot_path(), path);
    const sweep_response response = service.evaluate({point});
    EXPECT_EQ(response.computed, 1u);
    json_writer json;
    write_stored_result(json, *response.points[0].result);
    cold_payload = json.str();
    // No flush: durability is the WAL alone.
  }

  sweep_service restarted(crossbar::crossbar_spec{},
                          device::paper_technology(), {});
  durable_options options;
  options.fsync = false;
  const recovery_report report = restarted.enable_durability(path, options);
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.log_records, 1u);
  const sweep_response warm = restarted.evaluate({point});
  EXPECT_EQ(warm.cached, 1u);
  EXPECT_EQ(warm.computed, 0u);
  json_writer json;
  write_stored_result(json, *warm.points[0].result);
  EXPECT_EQ(json.str(), cold_payload);
}

TEST(DurableStoreTest, ServiceSaveCacheCompactsTheDurablePath) {
  temp_dir dir("nwdec_durable_flush");
  const std::string path = dir.file("cache.json");
  core::sweep_request point;
  point.design = {codes::code_type::balanced_gray, 2, 8};
  point.sigma_vt = 0.07;
  point.mc_trials = 150;

  sweep_service service(crossbar::crossbar_spec{},
                        device::paper_technology(), {});
  durable_options options;
  options.fsync = false;
  service.enable_durability(path, options);
  service.evaluate({point});
  service.flush(path, false);
  // A flush to the durable path rotates: snapshot written, log reset.
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(file_size(path + ".log"), 16u);

  // Exporting to a DIFFERENT path stays a plain snapshot write and leaves
  // the durable log alone.
  const std::string exported = dir.file("export.json");
  service.flush(exported, false);
  EXPECT_TRUE(std::filesystem::exists(exported));
  EXPECT_FALSE(std::filesystem::exists(exported + ".log"));
}

}  // namespace
}  // namespace nwdec::service
