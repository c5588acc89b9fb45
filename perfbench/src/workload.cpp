#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

// The Figs. 7/8 design set: five code families x three lengths, default N.
constexpr const char* kCodes[] = {"TC", "GC", "BGC", "HC", "AHC"};
constexpr std::size_t kLengths[] = {6, 8, 10};
constexpr std::size_t kDesigns = 15;

// fig78_cold: fixed Monte-Carlo budget per point of a 15-point sweep.
constexpr std::size_t kFig78Trials = 2000;
// warm_http: an analytic store of kDesigns x kWarmSigmas points, read by
// a catalogue of kWarmCatalogue distinct sweeps.
constexpr std::size_t kWarmSigmas = 300;
constexpr std::size_t kWarmCatalogue = 4096;
// durable_ingest: a pool of kDesigns x budgets x kIngestSigmas stored
// points; every request pairs kIngestHits of them with kIngestFresh fresh
// points (unique sigmas) under one budget. The pool size sets the
// snapshot rotations (the log is compacted once it outgrows 4x the
// snapshot): at ~180 fresh points/s the first comes in the warm-up, the
// second mid-window, the third well after the window.
constexpr std::size_t kIngestBudgets[] = {0, 64, 192};
constexpr std::size_t kIngestSigmas = 4;
constexpr std::size_t kIngestHits = 4;
constexpr std::size_t kIngestFresh = 4;
// Unique sigmas: (offset + n * kStride) mod kLadder is a permutation of
// [0, kLadder) because the stride is a prime that does not divide it.
constexpr std::uint64_t kLadder = 400000;
constexpr std::uint64_t kStride = 7919;

const workload_shape kShapes[] = {
    {"fig78_cold", 2, false, false, false},
    {"warm_http", 4, true, false, true},
    {"durable_ingest", 2, false, true, true},
};

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Rank in [0, n) skewed towards 0: P(rank < k) = (k / n)^(1/3).
std::size_t skewed(std::uint64_t bits, std::size_t n) {
  const double u = unit(bits);
  return std::min(n - 1, static_cast<std::size_t>(n * u * u * u));
}

std::string format(const char* pattern, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, pattern, value);
  return buffer;
}

std::string design_fields(std::size_t design) {
  return std::string("\"codes\":[\"") + kCodes[design / 3] +
         "\"],\"lengths\":[" + std::to_string(kLengths[design % 3]) + "]";
}

std::string sigma_list(const std::vector<std::string>& sigmas) {
  std::string out = "\"sigmas_vt\":[";
  for (std::size_t k = 0; k < sigmas.size(); ++k) {
    if (k > 0) out += ",";
    out += sigmas[k];
  }
  return out + "]";
}

std::string warm_sigma(std::size_t index) {
  return format("%.4f", 0.0200 + 0.0001 * static_cast<double>(index));
}

std::string ingest_sigma(std::size_t index) {
  return format("%.4f", 0.0400 + 0.0010 * static_cast<double>(index));
}

}  // namespace

std::uint64_t mix64(std::uint64_t value) {
  value += 0x9e3779b97f4a7c15ULL;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return value ^ (value >> 31);
}

workload_kind parse_workload(const std::string& name) {
  for (const workload_kind kind :
       {workload_kind::fig78_cold, workload_kind::warm_http,
        workload_kind::durable_ingest}) {
    if (name == shape_of(kind).name) return kind;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fig78_cold | warm_http | durable_ingest)");
}

const workload_shape& shape_of(workload_kind kind) {
  return kShapes[static_cast<int>(kind)];
}

workload::workload(workload_kind kind, std::uint64_t seed)
    : kind_(kind), seed_(seed), offset_(mix64(seed ^ 0x5eed) % kLadder) {}

request_spec workload::request(std::size_t client, std::size_t index) const {
  const std::size_t id = index * shape().clients + client + 1;
  const std::uint64_t draw = mix64(seed_ ^ mix64(id));
  switch (kind_) {
    case workload_kind::fig78_cold: return fig78(id);
    case workload_kind::warm_http: return warm(draw, id);
    case workload_kind::durable_ingest: return ingest(draw, id);
  }
  throw std::logic_error("unreachable workload kind");
}

// A unique sigma per request, so every point misses the store while the
// engine's design and contact-plan caches still hit.
request_spec workload::fig78(std::size_t id) const {
  const double sigma =
      0.030 + 1e-7 * static_cast<double>((offset_ + id * kStride) % kLadder);
  request_spec spec;
  spec.line = "{\"id\":" + std::to_string(id) +
              ",\"kind\":\"sweep\",\"codes\":[\"TC\",\"GC\",\"BGC\",\"HC\","
              "\"AHC\"],\"lengths\":[6,8,10]," +
              sigma_list({format("%.7f", sigma)}) +
              ",\"trials\":" + std::to_string(kFig78Trials) + "}";
  spec.points = kDesigns;
  spec.trials = kFig78Trials;
  spec.fresh_points = kDesigns;
  return spec;
}

// A request from a seeded catalogue of kWarmCatalogue distinct sweeps,
// drawn with a skew: entry c is one design and 1-4 distinct stored sigmas.
request_spec workload::warm(std::uint64_t draw, std::size_t id) const {
  const std::uint64_t entry = mix64(
      seed_ ^ (0xca7a1096ULL + skewed(mix64(draw + 1), kWarmCatalogue)));
  const std::size_t design = mix64(entry + 1) % kDesigns;
  const std::size_t count = 1 + mix64(entry + 2) % 4;
  std::vector<std::size_t> picked;
  for (std::uint64_t k = 3; picked.size() < count; ++k) {
    const std::size_t index = mix64(entry + k) % kWarmSigmas;
    if (std::find(picked.begin(), picked.end(), index) == picked.end()) {
      picked.push_back(index);
    }
  }
  std::vector<std::string> sigmas;
  for (const std::size_t index : picked) sigmas.push_back(warm_sigma(index));
  request_spec spec;
  spec.line = "{\"id\":" + std::to_string(id) + ",\"kind\":\"sweep\"," +
              design_fields(design) + "," + sigma_list(sigmas) +
              ",\"trials\":0}";
  spec.points = count;
  return spec;
}

// Four stored points of one (design, budget) pair plus four fresh sigmas.
request_spec workload::ingest(std::uint64_t draw, std::size_t id) const {
  const std::size_t design =
      (skewed(mix64(draw + 1), kDesigns) * 2 + offset_) % kDesigns;
  const std::size_t trials = kIngestBudgets[mix64(draw + 2) % 3];
  std::vector<std::size_t> pool(kIngestSigmas);
  for (std::size_t j = 0; j < kIngestSigmas; ++j) pool[j] = j;
  std::vector<std::string> sigmas;
  for (std::uint64_t k = 0; k < kIngestHits; ++k) {
    std::swap(pool[k], pool[k + mix64(draw + 3 + k) % (kIngestSigmas - k)]);
    sigmas.push_back(ingest_sigma(pool[k]));
  }
  for (std::uint64_t k = 0; k < kIngestFresh; ++k) {
    const std::uint64_t n = kIngestFresh * id + k;
    sigmas.push_back(format(
        "%.7f",
        0.060 + 1e-7 * static_cast<double>((offset_ + n * kStride) % kLadder)));
  }
  request_spec spec;
  spec.line = "{\"id\":" + std::to_string(id) +
              ",\"kind\":\"sweep\",\"async\":true," + design_fields(design) +
              "," + sigma_list(sigmas) +
              ",\"trials\":" + std::to_string(trials) + "}";
  spec.points = kIngestHits + kIngestFresh;
  spec.trials = trials;
  spec.fresh_points = kIngestFresh;
  return spec;
}

std::vector<std::string> workload::store_snapshot_lines() const {
  std::vector<std::string> lines;
  if (kind_ == workload_kind::warm_http) {
    std::vector<std::string> sigmas;
    for (std::size_t j = 0; j < kWarmSigmas; ++j) {
      sigmas.push_back(warm_sigma(j));
    }
    for (std::size_t design = 0; design < kDesigns; ++design) {
      lines.push_back("{\"kind\":\"sweep\"," + design_fields(design) + "," +
                      sigma_list(sigmas) + ",\"trials\":0}");
    }
  } else if (kind_ == workload_kind::durable_ingest) {
    // The analytic third of the pool; the MC thirds ride the log tail.
    std::vector<std::string> sigmas;
    for (std::size_t j = 0; j < kIngestSigmas; ++j) {
      sigmas.push_back(ingest_sigma(j));
    }
    for (std::size_t design = 0; design < kDesigns; ++design) {
      lines.push_back("{\"kind\":\"sweep\"," + design_fields(design) + "," +
                      sigma_list(sigmas) + ",\"trials\":0}");
    }
  }
  return lines;
}

std::vector<std::string> workload::store_wal_lines() const {
  std::vector<std::string> lines;
  if (kind_ != workload_kind::durable_ingest) return lines;
  std::vector<std::string> sigmas;
  for (std::size_t j = 0; j < kIngestSigmas; ++j) {
    sigmas.push_back(ingest_sigma(j));
  }
  for (std::size_t b = 1; b < 3; ++b) {
    for (std::size_t design = 0; design < kDesigns; ++design) {
      lines.push_back("{\"kind\":\"sweep\"," + design_fields(design) + "," +
                      sigma_list(sigmas) + ",\"trials\":" +
                      std::to_string(kIngestBudgets[b]) + "}");
    }
  }
  return lines;
}

}  // namespace perfbench
