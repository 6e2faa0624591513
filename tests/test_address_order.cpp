// Property tests for address orders (March DOF-1): every generator must
// produce a permutation of the address space, the down sequence must be the
// exact reverse of the up sequence, and only the word-line-after-word-line
// order qualifies for the low-power test mode.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "march/address_order.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using march::Address;
using march::AddressOrder;
using march::AddressOrderKind;
using march::Direction;

using GeometryParam = std::tuple<std::size_t, std::size_t>;  // rows, cols

class AddressOrderProperty
    : public ::testing::TestWithParam<GeometryParam> {};

/// The up sequence of @p order, materialized through at().
std::vector<Address> sequence_of(const AddressOrder& order) {
  std::vector<Address> seq;
  seq.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    seq.push_back(order.at(i, Direction::kUp));
  return seq;
}

std::vector<AddressOrder> all_orders(std::size_t rows, std::size_t cols) {
  std::vector<AddressOrder> orders;
  orders.push_back(AddressOrder::word_line_after_word_line(rows, cols));
  orders.push_back(AddressOrder::fast_row(rows, cols));
  orders.push_back(AddressOrder::pseudo_random(rows, cols, 123));
  orders.push_back(AddressOrder::address_complement(rows, cols));
  orders.push_back(AddressOrder::gray_code(rows, cols));
  return orders;
}

// DOF-1's requirement: "all addresses occur exactly once".
TEST_P(AddressOrderProperty, EveryGeneratorIsAPermutation) {
  const auto [rows, cols] = GetParam();
  for (const auto& order : all_orders(rows, cols)) {
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const Address& a : sequence_of(order)) {
      EXPECT_LT(a.row, rows);
      EXPECT_LT(a.col, cols);
      seen.insert({a.row, a.col});
    }
    EXPECT_EQ(seen.size(), rows * cols) << to_string(order.kind());
  }
}

// The paper: "(down) is the reverse of (up)".
TEST_P(AddressOrderProperty, DownIsExactReverseOfUp) {
  const auto [rows, cols] = GetParam();
  for (const auto& order : all_orders(rows, cols)) {
    const std::size_t n = order.size();
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(order.at(i, Direction::kDown),
                order.at(n - 1 - i, Direction::kUp))
          << to_string(order.kind());
  }
}

TEST_P(AddressOrderProperty, OnlyWlawlSequencesQualifyForLpMode) {
  const auto [rows, cols] = GetParam();
  const auto canonical =
      sequence_of(AddressOrder::word_line_after_word_line(rows, cols));
  for (const auto& order : all_orders(rows, cols)) {
    // Degenerate geometries can make other generators coincide with the
    // canonical order (e.g. fast-row with a single row), so the property
    // is about the sequence, not the generator kind.
    const bool expected = sequence_of(order) == canonical;
    EXPECT_EQ(order.is_word_line_after_word_line(), expected)
        << to_string(order.kind());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddressOrderProperty,
    ::testing::Values(GeometryParam{1, 2}, GeometryParam{2, 2},
                      GeometryParam{4, 8}, GeometryParam{8, 4},
                      GeometryParam{16, 16}, GeometryParam{5, 7},
                      GeometryParam{3, 32}));

TEST(AddressOrder, WlawlVisitsRowsInOrder) {
  const auto order = AddressOrder::word_line_after_word_line(3, 4);
  const auto seq = sequence_of(order);
  ASSERT_EQ(seq.size(), 12u);
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[3], (Address{0, 3}));
  EXPECT_EQ(seq[4], (Address{1, 0}));   // next word line
  EXPECT_EQ(seq[11], (Address{2, 3}));
}

TEST(AddressOrder, FastRowVisitsColumnsSlowest) {
  const auto order = AddressOrder::fast_row(3, 4);
  const auto seq = sequence_of(order);
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[1], (Address{1, 0}));
  EXPECT_EQ(seq[3], (Address{0, 1}));
}

TEST(AddressOrder, AddressComplementAlternatesEnds) {
  const auto order = AddressOrder::address_complement(2, 3);
  const auto seq = sequence_of(order);
  EXPECT_EQ(seq[0], (Address{0, 0}));
  EXPECT_EQ(seq[1], (Address{1, 2}));  // complement of the first address
  EXPECT_EQ(seq[2], (Address{0, 1}));
}

TEST(AddressOrder, PseudoRandomIsSeedDeterministic) {
  const auto a = AddressOrder::pseudo_random(8, 8, 42);
  const auto b = AddressOrder::pseudo_random(8, 8, 42);
  const auto c = AddressOrder::pseudo_random(8, 8, 43);
  EXPECT_EQ(sequence_of(a), sequence_of(b));
  EXPECT_NE(sequence_of(a), sequence_of(c));
}

// The word-line-after-word-line order stores no sequence; at() and size()
// must answer exactly as a stored copy of the row-major walk does, and that
// copy, as a custom order, still qualifies for the low-power mode.
TEST(AddressOrder, ComputedWlawlMatchesAStoredCopy) {
  for (const auto& [rows, cols] :
       {GeometryParam{1, 37}, GeometryParam{37, 1}, GeometryParam{7, 13},
        GeometryParam{512, 512}}) {
    const auto computed = AddressOrder::word_line_after_word_line(rows, cols);
    std::vector<Address> seq;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) seq.push_back({r, c});
    const auto stored = AddressOrder::custom(rows, cols, std::move(seq));
    const std::string where =
        std::to_string(rows) + "x" + std::to_string(cols);
    ASSERT_EQ(computed.size(), stored.size()) << where;
    ASSERT_EQ(computed.size(), rows * cols) << where;
    for (std::size_t i = 0; i < computed.size(); ++i) {
      for (const Direction dir : {Direction::kUp, Direction::kDown}) {
        if (computed.at(i, dir) != stored.at(i, dir)) {
          ADD_FAILURE() << where << " step " << i;
          return;
        }
      }
    }
    EXPECT_TRUE(computed.is_word_line_after_word_line()) << where;
    EXPECT_TRUE(stored.is_word_line_after_word_line()) << where;
    EXPECT_EQ(stored.kind(), AddressOrderKind::kCustom) << where;
    EXPECT_THROW(computed.at(rows * cols, Direction::kDown), Error) << where;
  }
}

TEST(AddressOrder, CustomValidatesPermutation) {
  EXPECT_NO_THROW(AddressOrder::custom(
      1, 2, {Address{0, 1}, Address{0, 0}}));
  // Duplicate address.
  EXPECT_THROW(
      AddressOrder::custom(1, 2, {Address{0, 0}, Address{0, 0}}), Error);
  // Wrong length.
  EXPECT_THROW(AddressOrder::custom(1, 2, {Address{0, 0}}), Error);
  // Out of range.
  EXPECT_THROW(
      AddressOrder::custom(1, 2, {Address{0, 0}, Address{1, 0}}), Error);
}

TEST(AddressOrder, AtRejectsOutOfRangeStep) {
  const auto order = AddressOrder::word_line_after_word_line(2, 2);
  EXPECT_THROW(order.at(4, Direction::kUp), Error);
}

TEST(AddressOrder, KindNamesAreUnique) {
  std::set<std::string> names;
  for (auto kind : {AddressOrderKind::kWordLineAfterWordLine,
                    AddressOrderKind::kFastRow, AddressOrderKind::kPseudoRandom,
                    AddressOrderKind::kAddressComplement,
                    AddressOrderKind::kGrayCode, AddressOrderKind::kCustom})
    names.insert(march::to_string(kind));
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
