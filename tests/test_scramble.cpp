// Tests of address scrambling and the descrambled low-power order: the
// logical sequence a BIST must issue so a scrambled memory is physically
// walked word-line-after-word-line (the LP-mode precondition).
#include <gtest/gtest.h>

#include "core/session.h"
#include "march/algorithms.h"
#include "march/scramble_order.h"
#include "sram/scramble.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using sram::AddressScramble;
using sram::PhysicalAddress;

// --- the mapping itself -------------------------------------------------------

TEST(AddressScramble, IdentityMapsToItself) {
  const auto s = AddressScramble::identity(8, 16);
  EXPECT_TRUE(s.is_identity());
  EXPECT_EQ(s.to_physical(3, 7), (PhysicalAddress{3, 7}));
  EXPECT_EQ(s.to_logical(3, 7), (PhysicalAddress{3, 7}));
}

TEST(AddressScramble, XorFoldIsInvolutive) {
  const auto s = AddressScramble::xor_fold(8, 8, 0b101, 0b011);
  EXPECT_FALSE(s.is_identity());
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 8; ++c) {
      const auto p = s.to_physical(r, c);
      EXPECT_EQ(p.row, r ^ 0b101u);
      EXPECT_EQ(p.col, c ^ 0b011u);
      EXPECT_EQ(s.to_logical(p.row, p.col), (PhysicalAddress{r, c}));
    }
}

TEST(AddressScramble, BitReversalReversesRowBits) {
  const auto s = AddressScramble::row_bit_reversal(8, 4);
  EXPECT_EQ(s.to_physical(1, 0).row, 4u);  // 001 -> 100
  EXPECT_EQ(s.to_physical(3, 0).row, 6u);  // 011 -> 110
  EXPECT_EQ(s.to_physical(7, 0).row, 7u);  // 111 -> 111
  EXPECT_EQ(s.to_physical(2, 3).col, 3u);  // columns untouched
}

TEST(AddressScramble, RoundTripForAllFactories) {
  for (const auto& s :
       {AddressScramble::identity(16, 8),
        AddressScramble::xor_fold(16, 8, 9, 5),
        AddressScramble::row_bit_reversal(16, 8),
        AddressScramble::custom({1, 0, 3, 2}, {2, 0, 1})}) {
    for (std::size_t r = 0; r < s.rows(); ++r)
      for (std::size_t c = 0; c < s.col_groups(); ++c) {
        const auto p = s.to_physical(r, c);
        EXPECT_EQ(s.to_logical(p.row, p.col), (PhysicalAddress{r, c}));
      }
  }
}

TEST(AddressScramble, RejectsInvalidMaps) {
  EXPECT_THROW(AddressScramble::custom({0, 0}, {0}), Error);   // duplicate
  EXPECT_THROW(AddressScramble::custom({0, 2}, {0}), Error);   // out of range
  EXPECT_THROW(AddressScramble::xor_fold(6, 4, 4, 0), Error);  // leaves range
  EXPECT_THROW(AddressScramble::row_bit_reversal(6, 4), Error);// not pow2
  EXPECT_THROW(AddressScramble::identity(8, 4).to_physical(8, 0), Error);
}

// --- the descrambled LP order ---------------------------------------------------

TEST(ScrambleOrder, IdentityYieldsCanonicalOrder) {
  const auto order =
      march::wlawl_logical_order(AddressScramble::identity(4, 8));
  EXPECT_TRUE(order.is_word_line_after_word_line());
}

TEST(ScrambleOrder, PhysicalImageIsWordLineAfterWordLine) {
  for (const auto& scramble :
       {AddressScramble::xor_fold(8, 8, 5, 3),
        AddressScramble::row_bit_reversal(8, 8),
        AddressScramble::custom({3, 1, 0, 2}, {1, 0, 3, 2})}) {
    const auto order = march::wlawl_logical_order(scramble);
    // Mapping each logical address through the scramble must reproduce the
    // physical row-major walk.
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto logical = order.at(i, march::Direction::kUp);
      const auto p = scramble.to_physical(logical.row, logical.col);
      EXPECT_EQ(p.row, i / scramble.col_groups());
      EXPECT_EQ(p.col, i % scramble.col_groups());
    }
    // And it is still a legal DOF-1 permutation (validated on build) that
    // is generally NOT the canonical logical order.
    if (!scramble.is_identity()) {
      EXPECT_FALSE(order.is_word_line_after_word_line());
    }
  }
}

// End-to-end: a physically-ordered LP run equals what a BIST would get by
// issuing the descrambled logical sequence — same coverage, same energy.
TEST(ScrambleOrder, LpRunThroughScrambleMatchesDirectPhysicalRun) {
  const auto scramble = AddressScramble::xor_fold(8, 8, 6, 5);
  const auto test = march::algorithms::march_c_minus();

  // Direct physical WLAWL run (what the array sees either way).
  core::SessionConfig direct;
  direct.geometry = {8, 8, 1};
  direct.mode = sram::Mode::kLowPowerTest;
  core::TestSession direct_session(direct);
  const auto reference = direct_session.run(test);

  // The descrambled order exists and is a permutation; the physical trace
  // it produces is exactly the canonical one, so the run is the same by
  // construction. Verify the claim on the order itself and run the
  // functional-mode session with it (LP mode would fall back, since the
  // session addresses the array in logical=physical space).
  const auto logical = march::wlawl_logical_order(scramble);
  core::SessionConfig via_logical = direct;
  via_logical.mode = sram::Mode::kFunctional;
  via_logical.order = logical;
  core::TestSession logical_session(via_logical);
  const auto logical_run = logical_session.run(test);

  EXPECT_EQ(reference.mismatches, 0u);
  EXPECT_EQ(logical_run.mismatches, 0u);
  EXPECT_EQ(reference.cycles, logical_run.cycles);
}

}  // namespace
