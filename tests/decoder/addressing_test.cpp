#include "decoder/addressing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "codes/factory.h"
#include "codes/tree_code.h"
#include "decoder/pattern_matrix.h"
#include "device/tech_params.h"
#include "util/cpu.h"
#include "util/error.h"
#include "util/rng.h"
#include "margin_oracles.h"

namespace nwdec::decoder {
namespace {

using codes::parse_word;

TEST(ConductionTest, DigitRuleIsComponentwiseLe) {
  EXPECT_TRUE(conducts(parse_word(3, "0102"), parse_word(3, "0112")));
  EXPECT_FALSE(conducts(parse_word(3, "0120"), parse_word(3, "0110")));
  EXPECT_TRUE(conducts(parse_word(3, "0000"), parse_word(3, "2222")));
}

TEST(ConductionTest, VoltageRuleRequiresEveryRegionOn) {
  const std::vector<double> vt = {0.3, 0.6};
  EXPECT_TRUE(conducts(vt, {0.5, 0.9}));
  EXPECT_FALSE(conducts(vt, {0.5, 0.6}));  // gate == threshold blocks
  EXPECT_FALSE(conducts(vt, {0.2, 0.9}));
  EXPECT_THROW(conducts(vt, {0.5}), invalid_argument_error);
}

TEST(ConductionTest, DriveVoltagesImplementTheDigitRule) {
  // Nominal thresholds + drive pattern must reproduce the digit rule for
  // every pattern/address pair of a small space.
  const device::vt_levels levels(3, device::paper_technology());
  const codes::code gc = codes::make_code(codes::code_type::gray, 3, 4);
  for (const codes::code_word& pattern : gc.words) {
    std::vector<double> realized;
    for (std::size_t j = 0; j < pattern.length(); ++j) {
      realized.push_back(levels.level(pattern.at(j)));
    }
    for (const codes::code_word& address : gc.words) {
      EXPECT_EQ(conducts(realized, drive_pattern(address, levels)),
                conducts(pattern, address))
          << pattern.to_string() << " @ " << address.to_string();
    }
  }
}

TEST(ConductionTest, DrivePatternChecksRadix) {
  const device::vt_levels levels(2, device::paper_technology());
  EXPECT_THROW(drive_pattern(parse_word(3, "012"), levels),
               invalid_argument_error);
}

TEST(ConductionTest, SpanFormMatchesVectorForm) {
  const std::vector<double> vt = {0.3, 0.6, 0.1};
  const std::vector<std::vector<double>> gates = {
      {0.5, 0.9, 0.2}, {0.5, 0.6, 0.2}, {0.2, 0.9, 0.2}, {0.5, 0.9, 0.1}};
  for (const auto& gate : gates) {
    EXPECT_EQ(conducts(vt.data(), gate.data(), vt.size()),
              conducts(vt, gate));
  }
}

TEST(ConductionTest, DrivePatternIntoReusesTheBuffer) {
  const device::vt_levels levels(3, device::paper_technology());
  std::vector<double> buffer;
  drive_pattern_into(parse_word(3, "012"), levels, buffer);
  EXPECT_EQ(buffer, drive_pattern(parse_word(3, "012"), levels));
  // A second call reshapes in place (shorter word, same storage).
  drive_pattern_into(parse_word(3, "20"), levels, buffer);
  EXPECT_EQ(buffer, drive_pattern(parse_word(3, "20"), levels));
  EXPECT_THROW(drive_pattern_into(parse_word(2, "01"), levels, buffer),
               invalid_argument_error);
}

TEST(AddressedRowsTest, RejectsMismatchedRadix) {
  const codes::code gc = codes::make_code(codes::code_type::gray, 2, 6);
  const matrix<codes::digit> p = pattern_matrix(gc, gc.size());
  EXPECT_THROW(addressed_rows(p, 2, parse_word(3, "000000")),
               invalid_argument_error);
}

TEST(AddressedRowsTest, FindsExactlyTheSelectedNanowire) {
  const codes::code gc = codes::make_code(codes::code_type::gray, 2, 6);
  const matrix<codes::digit> p = pattern_matrix(gc, gc.size());
  for (std::size_t i = 0; i < gc.size(); ++i) {
    const std::vector<std::size_t> rows =
        addressed_rows(p, 2, gc.words[i]);
    ASSERT_EQ(rows.size(), 1u) << i;
    EXPECT_EQ(rows[0], i);
  }
}

TEST(AddressedRowsTest, CyclicReuseAddressesOnePerPeriod) {
  // With N = 2 * Omega the same address selects one nanowire per period --
  // which is why contact groups must separate the periods.
  const codes::code hc = codes::make_code(codes::code_type::hot, 2, 4);
  const matrix<codes::digit> p = pattern_matrix(hc, 2 * hc.size());
  const std::vector<std::size_t> rows = addressed_rows(p, 2, hc.words[3]);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0] % hc.size(), 3u);
  EXPECT_EQ(rows[1] % hc.size(), 3u);
}

class UniqueAddressabilityTest
    : public ::testing::TestWithParam<std::tuple<codes::code_type, unsigned,
                                                 std::size_t>> {};

TEST_P(UniqueAddressabilityTest, EveryFactoryCodeIsUniquelyAddressable) {
  const auto [type, radix, length] = GetParam();
  const codes::code c = codes::make_code(type, radix, length);
  EXPECT_TRUE(uniquely_addressable(c.words));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UniqueAddressabilityTest,
    ::testing::Values(
        std::make_tuple(codes::code_type::tree, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::gray, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::balanced_gray, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::hot, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::arranged_hot, 2u, std::size_t{8}),
        std::make_tuple(codes::code_type::gray, 3u, std::size_t{6}),
        std::make_tuple(codes::code_type::hot, 3u, std::size_t{6})),
    [](const auto& info) {
      return codes::code_type_name(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_M" +
             std::to_string(std::get<2>(info.param));
    });

TEST(UniqueAddressabilityTest, UnreflectedTreeCodeFails) {
  // 000 conducts under every address: not uniquely addressable.
  EXPECT_FALSE(uniquely_addressable(codes::tree_code_words(2, 3)));
}

TEST(AddressTableTest, SelectRoundTrip) {
  const codes::code ahc = codes::make_code(codes::code_type::arranged_hot, 2, 6);
  const address_table table(ahc.words);
  EXPECT_EQ(table.size(), 20u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto selected = table.select(table.address_of(i));
    ASSERT_TRUE(selected.has_value());
    EXPECT_EQ(*selected, i);
  }
}

TEST(AddressTableTest, ForeignAddressSelectsNothing) {
  const codes::code hc = codes::make_code(codes::code_type::hot, 2, 4);
  std::vector<codes::code_word> half(hc.words.begin(), hc.words.begin() + 3);
  const address_table table(half);
  // An address from the removed half must not select anything.
  EXPECT_FALSE(table.select(hc.words[5]).has_value());
}

TEST(AddressTableTest, NonAntichainInputRejected) {
  EXPECT_THROW(address_table(codes::tree_code_words(2, 3)),
               invalid_argument_error);
  EXPECT_THROW(address_table({}), invalid_argument_error);
}

// --- the test kit's margin oracles (the reference the lane-mask verdicts
// are checked against) and the dispatched window kernel: every lane
// verdict must equal the scalar voltage rule on that lane's row.

// Random structure-of-arrays slab: region j of nanowire r, lane t at
// slab[(r * regions + j) * lane_stride + t].
struct lane_fixture {
  std::size_t rows, regions, lanes, lane_stride;
  std::vector<double> slab;
  std::vector<double> drives;  ///< one drive row per nanowire

  lane_fixture(std::size_t rows, std::size_t regions, std::size_t lanes,
               std::uint64_t seed, std::size_t extra_stride = 0)
      : rows(rows),
        regions(regions),
        lanes(lanes),
        lane_stride(lanes + extra_stride),
        slab(rows * regions * lane_stride),
        drives(rows * regions) {
    rng random(seed);
    // Voltages near each other so every comparison outcome is exercised.
    for (double& v : slab) v = random.uniform(0.0, 1.0);
    for (double& v : drives) v = random.uniform(0.0, 1.0);
  }

  std::vector<double> lane_row(std::size_t row, std::size_t t) const {
    std::vector<double> out(regions);
    for (std::size_t j = 0; j < regions; ++j) {
      out[j] = slab[(row * regions + j) * lane_stride + t];
    }
    return out;
  }

  const double* drive(std::size_t row) const {
    return drives.data() + row * regions;
  }
};

TEST(ConductsBlockTest, MatchesScalarRuleLaneByLane) {
  for (const std::size_t regions : {1UL, 5UL}) {
    for (const std::size_t lanes : {1UL, 3UL, 8UL, 33UL}) {
      lane_fixture f(2, regions, lanes, 101 + regions * lanes, 3);
      std::vector<std::uint8_t> out(lanes, 2);
      const bool any = testkit::conducts_block(
          f.drive(1), f.slab.data() + 1 * regions * f.lane_stride,
          f.lane_stride, regions, lanes, out.data());
      bool expected_any = false;
      for (std::size_t t = 0; t < lanes; ++t) {
        const std::vector<double> row = f.lane_row(1, t);
        const bool expected =
            conducts(row.data(), f.drive(1), regions);
        EXPECT_EQ(out[t] != 0, expected) << "lane " << t;
        expected_any = expected_any || expected;
      }
      EXPECT_EQ(any, expected_any);
    }
  }
}

TEST(AddressableBlockTest, MatchesScalarGroupRule) {
  const std::size_t rows = 6, regions = 4, lanes = 17;
  lane_fixture f(rows, regions, lanes, 7);
  const std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  for (std::size_t self = 0; self < rows; ++self) {
    std::vector<double> scratch(2 * lanes), out(lanes, -1.0);
    testkit::addressable_block(f.drive(self), f.slab.data(), f.lane_stride,
                               regions, lanes, self, members.data(),
                               members.size(), scratch.data(), out.data());
    for (std::size_t t = 0; t < lanes; ++t) {
      const std::vector<double> own = f.lane_row(self, t);
      bool expected = conducts(own.data(), f.drive(self), regions);
      for (const std::size_t other : members) {
        if (other == self || !expected) continue;
        const std::vector<double> row = f.lane_row(other, t);
        if (conducts(row.data(), f.drive(self), regions)) expected = false;
      }
      EXPECT_EQ(out[t], expected ? 1.0 : 0.0)
          << "self " << self << " lane " << t;
    }
  }
}

TEST(AddressableBlockTest, EmptyAndSelfOnlyGroups) {
  const std::size_t regions = 3, lanes = 5;
  lane_fixture f(2, regions, lanes, 99);
  std::vector<double> scratch(2 * lanes), no_members(lanes), self_only(lanes);
  // No members at all: the verdict is the bare self conduction.
  testkit::addressable_block(f.drive(0), f.slab.data(), f.lane_stride,
                             regions, lanes, 0, nullptr, 0, scratch.data(),
                             no_members.data());
  // A group whose only member is the addressee behaves identically.
  const std::size_t self_member[] = {0};
  std::vector<double> group_scratch(2 * lanes);
  testkit::addressable_block(f.drive(0), f.slab.data(), f.lane_stride,
                             regions, lanes, 0, self_member, 1,
                             group_scratch.data(), self_only.data());
  for (std::size_t t = 0; t < lanes; ++t) {
    const std::vector<double> row = f.lane_row(0, t);
    const double expected =
        conducts(row.data(), f.drive(0), regions) ? 1.0 : 0.0;
    EXPECT_EQ(no_members[t], expected) << "lane " << t;
    EXPECT_EQ(self_only[t], expected) << "lane " << t;
  }
}

TEST(AddressableGroupBlockTest, MatchesPerMemberBlocks) {
  for (const std::size_t regions : {1UL, 4UL}) {
    const std::size_t rows = 7, lanes = 9;
    lane_fixture f(rows, regions, lanes, 1234 + regions);
    // The group skips row 3: member lists need not cover every row.
    const std::vector<std::size_t> members = {0, 1, 2, 4, 5, 6};
    std::vector<double> group_scratch((members.size() + 1) * lanes);
    std::vector<double> group_out(members.size() * lanes, -1.0);
    testkit::addressable_group_block(
        f.drives.data(), f.slab.data(), f.lane_stride, regions, lanes,
        members.data(), members.size(), group_scratch.data(),
        group_out.data(), lanes);
    for (std::size_t k = 0; k < members.size(); ++k) {
      std::vector<double> scratch(2 * lanes), expected(lanes);
      testkit::addressable_block(f.drive(members[k]), f.slab.data(),
                                 f.lane_stride, regions, lanes, members[k],
                                 members.data(), members.size(),
                                 scratch.data(), expected.data());
      for (std::size_t t = 0; t < lanes; ++t) {
        EXPECT_EQ(group_out[k * lanes + t], expected[t])
            << "member " << k << " lane " << t;
      }
    }
  }
}

TEST(AddressableGroupBlockTest, AllBlockedGroupZeroesEveryLane) {
  const std::size_t rows = 3, regions = 2, lanes = 6;
  lane_fixture f(rows, regions, lanes, 4);
  // Drive far below every threshold: nothing conducts anywhere.
  for (double& v : f.drives) v = -10.0;
  const std::vector<std::size_t> members = {0, 1, 2};
  std::vector<double> scratch((members.size() + 1) * lanes);
  std::vector<double> out(members.size() * lanes, -1.0);
  testkit::addressable_group_block(f.drives.data(), f.slab.data(),
                                   f.lane_stride, regions, lanes,
                                   members.data(), members.size(),
                                   scratch.data(), out.data(), lanes);
  for (const double verdict : out) EXPECT_EQ(verdict, 0.0);
}

TEST(WindowMarginBlockTest, MatchesScalarWindowRule) {
  // One nanowire's slab rows against its nominal levels: the lane verdict
  // must equal the scalar two-sided check, with the -infinity low guard
  // exempting digit-0 regions from the lower bound.
  const std::size_t regions = 4, lanes = 13, lane_stride = 16;
  const double whw = 0.05;
  rng random(321);
  std::vector<double> slab(regions * lane_stride);
  std::vector<double> nominal(regions);
  std::vector<double> low_guard(regions);
  for (std::size_t j = 0; j < regions; ++j) {
    nominal[j] = random.uniform(0.0, 1.0);
    // Region 2 plays digit 0: lower bound exempt.
    low_guard[j] =
        j == 2 ? -std::numeric_limits<double>::infinity() : -whw;
    for (std::size_t t = 0; t < lanes; ++t) {
      // Deltas straddling both bounds so every outcome is exercised.
      slab[j * lane_stride + t] = nominal[j] + random.uniform(-0.1, 0.1);
    }
  }
  std::vector<double> margin(lane_stride), out(lane_stride, -1.0);
  window_margin_block(slab.data(), lane_stride, lanes, nominal.data(),
                      low_guard.data(), whw, regions, margin.data(),
                      out.data());
  for (std::size_t t = 0; t < lanes; ++t) {
    bool expected = true;
    for (std::size_t j = 0; j < regions; ++j) {
      const double delta = slab[j * lane_stride + t] - nominal[j];
      if (delta >= whw) expected = false;
      if (j != 2 && delta <= -whw) expected = false;
    }
    EXPECT_EQ(out[t], expected ? 1.0 : 0.0) << "lane " << t;
  }
}

TEST(BlockKernelDispatchTest, EveryPathBitIdenticalToScalar) {
  // The dispatched lane kernels through every compiled-and-supported path
  // must produce byte-identical masks, verdicts and margins. scalar is the
  // oracle.
  struct path_guard {
    cpu::simd_path saved = cpu::active_path();
    ~path_guard() { cpu::force_path(saved); }
  } restore;

  const std::size_t rows = 6, regions = 3, lanes = 33;
  lane_fixture f(rows, regions, lanes, 2026, 7);
  const std::vector<std::size_t> members = {0, 1, 2, 3, 4, 5};
  const std::vector<double> levels = {0.25, 0.5, 0.75};
  std::vector<double> offsets(rows * regions), scales(rows * regions);
  for (std::size_t r = 0; r < rows * regions; ++r) {
    offsets[r] = 0.01 * static_cast<double>(r);
    scales[r] = 0.9 + 0.02 * static_cast<double>(r);
  }
  std::vector<codes::digit> digits(rows * regions);
  for (std::size_t k = 0; k < digits.size(); ++k) {
    digits[k] = static_cast<codes::digit>((k * 7 + 1) % levels.size());
  }
  const double whw = 0.04;
  std::vector<double> low_guard(regions, -whw);
  low_guard[1] = -std::numeric_limits<double>::infinity();

  struct outputs {
    std::vector<std::uint64_t> below;
    std::vector<std::uint64_t> group;
    std::vector<double> window_margin, window_out;
  };
  const auto run = [&] {
    outputs o;
    o.below.assign(rows * regions * levels.size(), 0);
    below_level_masks(f.slab.data(), f.lane_stride, rows * regions, lanes,
                      offsets.data(), scales.data(), levels.data(),
                      levels.size(), o.below.data());
    o.group.assign(members.size(), 0);
    addressable_group_masks(o.below.data(), digits.data(), regions,
                            levels.size(), 1, members.data(), members.size(),
                            o.group.data());
    o.window_margin.assign(lanes, -1.0);
    o.window_out.assign(lanes, -1.0);
    window_margin_block(f.slab.data(), f.lane_stride, lanes, f.drive(0),
                        low_guard.data(), whw, regions,
                        o.window_margin.data(), o.window_out.data());
    return o;
  };

  cpu::force_path(cpu::simd_path::scalar);
  const outputs oracle = run();
  for (const cpu::simd_path path : cpu::available_paths()) {
    cpu::force_path(path);
    const outputs got = run();
    const char* name = cpu::simd_path_name(path);
    ASSERT_EQ(oracle.below, got.below) << name;
    ASSERT_EQ(oracle.group, got.group) << name;
    ASSERT_EQ(oracle.window_margin, got.window_margin) << name;
    ASSERT_EQ(oracle.window_out, got.window_out) << name;
  }
}

}  // namespace
}  // namespace nwdec::decoder
