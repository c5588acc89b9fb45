// The lane-mask operational verdicts (below_level_masks +
// addressable_group_masks) against the test kit's margin-sweep oracle, on
// random slabs whose thresholds often sit exactly on a drive level (the
// one place "vt < gate" and "gate - vt > 0" could be confused), at radix
// 2-4, with more than 64 regions, more than 64 group members, and lane
// counts on both sides of one 64-bit mask word -- on every dispatch path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "decoder/addressing.h"
#include "margin_oracles.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace nwdec::decoder {
namespace {

struct path_guard {
  cpu::simd_path saved = cpu::active_path();
  ~path_guard() { cpu::force_path(saved); }
};

// A random design slab: `rows` nanowires of `regions` regions, `radix`
// strictly increasing drive levels, random digits, and one standard-deviate
// lane row per (nanowire, region) with its realize map vt = offset +
// scale * z. A third of the rows realize as is (offset 0, scale 1), a
// third sit on a level (offset = level), a third are arbitrary; the
// deviates land a third of the time exactly on a level (or on 0, the
// level itself, for the level-offset rows), a third just beside it, and
// the rest anywhere.
struct mask_case {
  std::size_t rows, regions, radix, lanes, lane_stride;
  std::vector<double> levels;
  std::vector<codes::digit> digits;
  std::vector<double> drive_table;
  std::vector<double> slab;  ///< deviates z
  std::vector<double> offsets, scales;

  mask_case(std::size_t rows, std::size_t regions, std::size_t radix,
            std::size_t lanes, std::uint64_t seed)
      : rows(rows),
        regions(regions),
        radix(radix),
        lanes(lanes),
        lane_stride((lanes + 7) & ~std::size_t{7}),
        digits(rows * regions),
        drive_table(rows * regions),
        slab(rows * regions * lane_stride, 0.0),
        offsets(rows * regions),
        scales(rows * regions) {
    rng random(seed);
    for (std::size_t d = 0; d < radix; ++d) {
      levels.push_back(0.2 + 0.3 * static_cast<double>(d));
    }
    const double top = 0.2 + 0.3 * static_cast<double>(radix);
    for (std::size_t k = 0; k < digits.size(); ++k) {
      digits[k] = static_cast<codes::digit>(random.index(radix));
      drive_table[k] = levels[digits[k]];
    }
    for (std::size_t r = 0; r < rows * regions; ++r) {
      const std::size_t kind = r % 3;
      offsets[r] = kind == 0   ? 0.0
                   : kind == 1 ? levels[random.index(radix)]
                               : random.uniform(0.0, top);
      scales[r] = kind == 0 ? 1.0 : random.uniform(0.01, 0.2);
      for (std::size_t t = 0; t < lanes; ++t) {
        const double level = levels[random.index(radix)];
        const double on_level = kind == 0 ? level : 0.0;
        double z = kind == 0 ? random.uniform(0.0, top)
                             : random.uniform(-3.0, 3.0);
        switch (random.index(3)) {
          case 0: z = on_level; break;
          case 1: z = on_level + random.uniform(-1e-12, 1e-12); break;
          default: break;
        }
        slab[r * lane_stride + t] = z;
      }
    }
  }

  // The realized thresholds, by the same expression the kernel applies.
  std::vector<double> realized() const {
    std::vector<double> vt(slab.size(), 0.0);
    for (std::size_t r = 0; r < rows * regions; ++r) {
      for (std::size_t t = 0; t < lanes; ++t) {
        vt[r * lane_stride + t] =
            offsets[r] + scales[r] * slab[r * lane_stride + t];
      }
    }
    return vt;
  }

  // Every member's lane verdicts through the masks, as 0/1 per lane.
  std::vector<int> mask_verdicts(const std::vector<std::size_t>& members)
      const {
    const std::size_t words = (lanes + 63) / 64;
    std::vector<std::uint64_t> below(rows * regions * radix * words, ~0ULL);
    below_level_masks(slab.data(), lane_stride, rows * regions, lanes,
                      offsets.data(), scales.data(), levels.data(), radix,
                      below.data());
    // Every mask bit is the scalar comparison on the realized threshold.
    const std::vector<double> vt = realized();
    for (std::size_t r = 0; r < rows * regions; ++r) {
      for (std::size_t d = 0; d < radix; ++d) {
        for (std::size_t t = 0; t < lanes; ++t) {
          const std::uint64_t bit =
              (below[(r * radix + d) * words + t / 64] >> (t % 64)) & 1;
          EXPECT_EQ(bit, vt[r * lane_stride + t] < levels[d] ? 1u : 0u)
              << "row " << r << " level " << d << " lane " << t;
        }
      }
    }
    std::vector<std::uint64_t> out(members.size() * words, ~0ULL);
    addressable_group_masks(below.data(), digits.data(), regions, radix,
                            words, members.data(), members.size(),
                            out.data());
    std::vector<int> verdicts(members.size() * lanes);
    for (std::size_t k = 0; k < members.size(); ++k) {
      for (std::size_t w = 0; w < words; ++w) {
        // Bits past the last lane must stay clear.
        const std::size_t live = lanes - 64 * w < 64 ? lanes - 64 * w : 64;
        if (live < 64) {
          EXPECT_EQ(out[k * words + w] >> live, 0u);
        }
      }
      for (std::size_t t = 0; t < lanes; ++t) {
        verdicts[k * lanes + t] =
            static_cast<int>((out[k * words + t / 64] >> (t % 64)) & 1);
      }
    }
    return verdicts;
  }

  std::vector<int> oracle_verdicts(const std::vector<std::size_t>& members)
      const {
    std::vector<double> scratch((members.size() + 1) * lanes);
    std::vector<double> out(members.size() * lanes, -1.0);
    const std::vector<double> vt = realized();
    testkit::addressable_group_block(drive_table.data(), vt.data(),
                                     lane_stride, regions, lanes,
                                     members.data(), members.size(),
                                     scratch.data(), out.data(), lanes);
    std::vector<int> verdicts(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      verdicts[k] = out[k] == 1.0 ? 1 : 0;
    }
    return verdicts;
  }
};

std::vector<std::size_t> all_rows(std::size_t rows) {
  std::vector<std::size_t> members(rows);
  for (std::size_t r = 0; r < rows; ++r) members[r] = r;
  return members;
}

void expect_matches_oracle(const mask_case& c,
                           const std::vector<std::size_t>& members,
                           const std::string& what) {
  path_guard restore;
  const std::vector<int> oracle = c.oracle_verdicts(members);
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    ASSERT_EQ(c.mask_verdicts(members), oracle)
        << what << " path " << cpu::simd_path_name(path);
  }
}

TEST(LaneMaskVerdictTest, MatchesMarginOracleAtEveryLaneCount) {
  for (std::size_t lanes = 1; lanes <= 64; ++lanes) {
    const mask_case c(6, 3, 2, lanes, 100 + lanes);
    expect_matches_oracle(c, all_rows(6), "lanes " + std::to_string(lanes));
  }
  for (const std::size_t lanes : {65UL, 100UL, 128UL, 129UL, 200UL}) {
    const mask_case c(6, 3, 3, lanes, 300 + lanes);
    expect_matches_oracle(c, all_rows(6), "lanes " + std::to_string(lanes));
  }
}

TEST(LaneMaskVerdictTest, MatchesMarginOracleAtRadixThreeAndFour) {
  for (const std::size_t radix : {3UL, 4UL}) {
    for (const std::size_t lanes : {7UL, 32UL, 70UL}) {
      const mask_case c(9, 4, radix, lanes, 17 * radix + lanes);
      // A group that skips rows: member lists need not cover the slab.
      expect_matches_oracle(c, {0, 2, 3, 5, 8},
                            "radix " + std::to_string(radix) + " lanes " +
                                std::to_string(lanes));
    }
  }
}

TEST(LaneMaskVerdictTest, MatchesMarginOracleBeyondSixtyFourRegions) {
  // Random thresholds almost never conduct across 70 regions, so build the
  // slab near the nominal rule instead: each cell sits just below its own
  // drive level and lands exactly on it (blocking) 1 time in 140, and row
  // 1's word lies below row 0's (one digit lowered), so row 1 conducts
  // under row 0's address wherever it conducts under its own -- both the
  // self test and the impostor veto stay live across all 70 regions (rows
  // 2-4 hold random radix-3 words, which almost surely block under row
  // 0's all-1 address).
  mask_case c(5, 70, 3, 40, 4242);
  rng random(99);
  for (std::size_t j = 0; j < c.regions; ++j) c.digits[j] = 1;
  for (std::size_t j = 0; j < c.regions; ++j) {
    c.digits[c.regions + j] = j == 66 ? 0 : 1;
  }
  for (std::size_t k = 0; k < c.digits.size(); ++k) {
    c.drive_table[k] = c.levels[c.digits[k]];
  }
  for (std::size_t r = 0; r < c.rows * c.regions; ++r) {
    c.offsets[r] = 0.0;
    c.scales[r] = 1.0;
    for (std::size_t t = 0; t < c.lanes; ++t) {
      const double level = c.levels[c.digits[r]];
      c.slab[r * c.lane_stride + t] =
          random.index(140) == 0 ? level : level - 0.01;
    }
  }
  expect_matches_oracle(c, all_rows(5), "70 regions");
  // Non-vacuous: row 0 is addressable in some lanes and vetoed in others.
  const std::vector<int> verdicts = c.oracle_verdicts(all_rows(5));
  int row0 = 0;
  for (std::size_t t = 0; t < c.lanes; ++t) row0 += verdicts[t];
  EXPECT_GT(row0, 0);
  EXPECT_LT(row0, static_cast<int>(c.lanes));
}

TEST(LaneMaskVerdictTest, MatchesMarginOracleBeyondSixtyFourMembers) {
  const mask_case c(70, 4, 4, 66, 777);
  expect_matches_oracle(c, all_rows(70), "70 members");
}

TEST(LaneMaskVerdictTest, SingleMemberGroupIsBareConduction) {
  const mask_case c(3, 2, 2, 20, 5);
  expect_matches_oracle(c, {1}, "single member");
}

}  // namespace
}  // namespace nwdec::decoder
