#include "service/durable_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "core/sweep_engine.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace nwdec::service {

namespace {

// WAL traffic counters; resolved once, relaxed-atomic updates after.
struct wal_metrics {
  metrics::counter& appended_bytes;
  metrics::counter& records;
  metrics::counter& syncs;
  metrics::counter& compactions;

  static wal_metrics& get() {
    static wal_metrics instance = [] {
      metrics::registry& reg = metrics::registry::global();
      return wal_metrics{reg.get_counter("nwdec_wal_appended_bytes_total"),
                         reg.get_counter("nwdec_wal_records_total"),
                         reg.get_counter("nwdec_wal_syncs_total"),
                         reg.get_counter("nwdec_wal_compactions_total")};
    }();
    return instance;
  }
};

// Log header: 8-byte magic (version baked in: bump the last byte when the
// record format changes) + u64 little-endian store-config digest.
constexpr char log_magic[8] = {'N', 'W', 'D', 'C', 'W', 'A', 'L', '1'};
constexpr std::size_t log_header_bytes = 16;
// Record sanity bound: a single store entry is a few hundred bytes of
// JSON; anything near this is a corrupt length field, not a record.
constexpr std::uint32_t max_record_payload = 256u << 20;  // 256 MiB

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFFu));
  }
}

std::uint32_t get_u32(const std::string& bytes, std::size_t offset) {
  std::uint32_t value = 0;
  for (int k = 3; k >= 0; --k) {
    value = (value << 8) |
            static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(k)]);
  }
  return value;
}

std::uint64_t get_u64(const std::string& bytes, std::size_t offset) {
  std::uint64_t value = 0;
  for (int k = 7; k >= 0; --k) {
    value = (value << 8) |
            static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(k)]);
  }
  return value;
}

std::string render_log_header(const store_header& header) {
  std::string bytes(log_magic, sizeof(log_magic));
  put_u64(bytes, store_config_digest(header));
  return bytes;
}

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw io_error(what + " '" + path + "' (" + std::strerror(errno) + ")");
}

// Full-buffer write(2) loop.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

// Preserves an invalid log tail for diagnosis: the bytes go to the first
// free `<log>.corrupt-<n>` as a new file (the log itself is then truncated
// to its valid prefix, so this is a copy-out, not a rename).
std::string preserve_tail(const std::string& log_path, const char* bytes,
                          std::size_t size) {
  for (std::size_t n = 1;; ++n) {
    const std::string candidate =
        log_path + ".corrupt-" + std::to_string(n);
    if (std::filesystem::exists(candidate)) continue;
    const int fd =
        ::open(candidate.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
      if (errno == EEXIST) continue;  // raced another instance; next n
      throw_errno("cannot create quarantine file", candidate);
    }
    if (!write_all(fd, bytes, size)) {
      ::close(fd);
      throw_errno("cannot write quarantine file", candidate);
    }
    ::close(fd);
    return candidate;
  }
}

}  // namespace

std::uint64_t store_config_digest(const store_header& header) {
  std::uint64_t h = 0xb10c5afe0dacULL;  // domain separator
  h = rng::counter_seed(h, header.seed);
  h = rng::counter_seed(h, static_cast<std::uint64_t>(header.mode));
  h = rng::counter_seed(h, header.raw_bits);
  h = rng::counter_seed(h, header.tech_fingerprint);
  h = rng::counter_seed(h, header.budget_fingerprint);
  return h;
}

durable_store::durable_store(std::string path, durable_options options)
    : path_(std::move(path)),
      log_path_(path_ + ".log"),
      options_(options) {
  NWDEC_EXPECTS(!path_.empty(), "the durable store needs a snapshot path");
  NWDEC_EXPECTS(options_.compact_ratio > 0.0,
                "compact_ratio must be positive");
}

durable_store::~durable_store() {
  if (fd_ >= 0) ::close(fd_);
}

recovery_report durable_store::open(result_store& store,
                                    const store_header& expected) {
  NWDEC_EXPECTS(fd_ < 0, "the durable store is already open");
  recovery_report report;

  // A stale .tmp is an interrupted snapshot rotation: possibly torn, never
  // promoted, safe to discard (the promoted state is `path_` + the log).
  const std::string tmp = path_ + ".tmp";
  if (std::filesystem::exists(tmp)) {
    ::unlink(tmp.c_str());
    report.warnings.push_back("removed stale snapshot tmp '" + tmp +
                              "' left by an interrupted rotation");
  }

  const std::optional<std::string> text = read_file(path_);
  if (text.has_value()) {
    try {
      store.load_json(*text, expected);
      report.snapshot_loaded = true;
      report.snapshot_entries = store.size();
      snapshot_bytes_ = text->size();
    } catch (const std::exception& failure) {
      // Never abort on corrupt state: set the snapshot aside and boot
      // cold (load_json stages before clearing, so `store` is untouched).
      const std::string aside = quarantine_file(path_);
      report.warnings.push_back("quarantined corrupt snapshot '" + path_ +
                                "' -> '" + aside + "' (" + failure.what() +
                                "); starting cold");
    }
  }

  recover_log(store, expected, report);
  return report;
}

void durable_store::recover_log(result_store& store,
                                const store_header& expected,
                                recovery_report& report) {
  const std::optional<std::string> raw = read_file(log_path_);
  bool fresh = true;
  std::size_t valid_bytes = 0;

  if (raw.has_value() && !raw->empty()) {
    // A 0-byte log is a fresh log (a crash between compaction's truncate
    // and header rewrite leaves exactly that); anything shorter than the
    // header, with the wrong magic, or digested under a different
    // configuration is quarantined whole.
    const bool header_ok =
        raw->size() >= log_header_bytes &&
        std::memcmp(raw->data(), log_magic, sizeof(log_magic)) == 0 &&
        get_u64(*raw, sizeof(log_magic)) == store_config_digest(expected);
    if (!header_ok) {
      const std::string aside = quarantine_file(log_path_);
      report.warnings.push_back(
          "quarantined log '" + log_path_ + "' -> '" + aside +
          "' (bad header, or written under a different configuration)");
    } else {
      // Replay the longest valid record prefix; the first record that is
      // short, CRC-mismatched, or unparseable ends the committed log.
      std::size_t offset = log_header_bytes;
      std::vector<parsed_store_entry> staged;
      while (offset + 8 <= raw->size()) {
        const std::uint32_t length = get_u32(*raw, offset);
        const std::uint32_t recorded_crc = get_u32(*raw, offset + 4);
        if (length == 0 || length > max_record_payload ||
            offset + 8 + length > raw->size()) {
          break;  // torn tail
        }
        const std::string_view payload(raw->data() + offset + 8, length);
        if (crc32(payload) != recorded_crc) break;
        try {
          staged.push_back(parse_store_entry(payload));
        } catch (const std::exception&) {
          break;  // CRC-valid but unparseable: treat as end of commit
        }
        offset += 8 + length;
      }
      // Records are full entries, so replay is idempotent re-insertion --
      // safe even when the snapshot already contains them (a crash
      // between compaction's rename and truncate).
      for (parsed_store_entry& entry : staged) {
        store.insert(entry.fingerprint, std::move(entry.result));
      }
      report.log_records = staged.size();
      fresh = false;
      valid_bytes = offset;
      if (offset < raw->size()) {
        report.dropped_bytes = raw->size() - offset;
        const std::string aside = preserve_tail(
            log_path_, raw->data() + offset, raw->size() - offset);
        report.warnings.push_back(
            "dropped " + std::to_string(report.dropped_bytes) +
            " invalid log tail bytes after " +
            std::to_string(report.log_records) + " valid records -> '" +
            aside + "'");
      }
    }
  }

  fd_ = ::open(log_path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("cannot open log", log_path_);
  if (fresh) {
    reset_log(expected);
  } else if (valid_bytes < raw->size()) {
    // Truncate the torn tail away so new records append to the valid
    // prefix instead of burying garbage mid-log.
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
      throw_errno("cannot truncate log", log_path_);
    }
    log_bytes_ = valid_bytes;
  } else {
    log_bytes_ = valid_bytes;
  }
}

void durable_store::append(std::uint64_t fingerprint,
                           const stored_result& result) {
  NWDEC_EXPECTS(fd_ >= 0, "the durable store is not open");
  json_writer json(json_writer::style::compact);
  write_store_entry(json, fingerprint, result);
  const std::string payload = json.str();

  std::string record;
  record.reserve(8 + payload.size());
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_u32(record, crc32(payload));
  record += payload;

  // Two half-writes around a failpoint: the crash suite kills between
  // them to leave a genuinely torn record for recovery to truncate.
  NWDEC_FAILPOINT("durable.append.before");
  const std::size_t half = record.size() / 2;
  bool ok = write_all(fd_, record.data(), half);
  if (ok) NWDEC_FAILPOINT("durable.append.partial");
  ok = ok && write_all(fd_, record.data() + half, record.size() - half);
  if (!ok) throw_errno("cannot append to log", log_path_);
  NWDEC_FAILPOINT("durable.append.after_write");
  log_bytes_ += record.size();
  wal_metrics::get().records.inc();
  wal_metrics::get().appended_bytes.inc(record.size());
}

void durable_store::sync() {
  if (fd_ >= 0 && options_.fsync) {
    ::fsync(fd_);
    wal_metrics::get().syncs.inc();
  }
}

bool durable_store::wants_compaction() const {
  if (fd_ < 0 || log_bytes_ <= log_header_bytes) return false;
  const std::size_t record_bytes = log_bytes_ - log_header_bytes;
  const double ratio_floor =
      options_.compact_ratio * static_cast<double>(snapshot_bytes_);
  return record_bytes >= options_.compact_min_bytes &&
         static_cast<double>(record_bytes) >= ratio_floor;
}

void durable_store::compact(const result_store& store,
                            const store_header& header) {
  NWDEC_EXPECTS(fd_ >= 0, "the durable store is not open");
  NWDEC_FAILPOINT("durable.compact.begin");
  // Order is the whole safety argument: (1) the complete snapshot becomes
  // durable atomically; only then (2) the log is truncated. A crash
  // before (2) replays records into a store that already holds them --
  // idempotent -- while truncating first would drop everything a crash
  // during (1) still needs.
  const std::string text = store.to_json(header);
  write_file_atomic(path_, text, options_.fsync);
  snapshot_bytes_ = text.size();
  NWDEC_FAILPOINT("durable.compact.before_truncate");
  reset_log(header);
  NWDEC_FAILPOINT("durable.compact.after_truncate");
  wal_metrics::get().compactions.inc();
}

void log_recovery(const recovery_report& report) {
  metrics::registry::global()
      .get_counter("nwdec_recovery_warnings_total")
      .inc(report.warnings.size());
  for (const std::string& warning : report.warnings) {
    logging::event(logging::level::warn, "durable_store", "recovery_warning")
        .field("warning", warning);
  }
}

void durable_store::reset_log(const store_header& header) {
  if (::ftruncate(fd_, 0) != 0) throw_errno("cannot truncate log", log_path_);
  const std::string bytes = render_log_header(header);
  // O_APPEND lands this at offset 0 of the now-empty file.
  if (!write_all(fd_, bytes.data(), bytes.size())) {
    throw_errno("cannot write log header", log_path_);
  }
  if (options_.fsync) ::fsync(fd_);
  log_bytes_ = log_header_bytes;
}

}  // namespace nwdec::service
