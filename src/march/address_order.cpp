#include "march/address_order.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace sramlp::march {

std::string to_string(AddressOrderKind kind) {
  switch (kind) {
    case AddressOrderKind::kWordLineAfterWordLine:
      return "word-line-after-word-line";
    case AddressOrderKind::kFastRow: return "fast-row";
    case AddressOrderKind::kPseudoRandom: return "pseudo-random";
    case AddressOrderKind::kAddressComplement: return "address-complement";
    case AddressOrderKind::kGrayCode: return "gray-code";
    case AddressOrderKind::kCustom: return "custom";
  }
  throw Error("invalid AddressOrderKind");
}

AddressOrder::AddressOrder(AddressOrderKind kind, std::size_t rows,
                           std::size_t col_groups,
                           std::vector<Address> sequence)
    : kind_(kind), rows_(rows), col_groups_(col_groups),
      sequence_(std::move(sequence)) {
  SRAMLP_REQUIRE(rows_ >= 1 && col_groups_ >= 1, "empty address space");
  // The word-line-after-word-line order is computed, trivially a
  // permutation; every other kind — including the cold pseudo-random /
  // Gray-code / complement generators — keeps the O(n) DOF-1 scan as a
  // safety net.
  if (kind_ != AddressOrderKind::kWordLineAfterWordLine)
    validate_permutation();
}

void AddressOrder::validate_permutation() const {
  const std::size_t n = rows_ * col_groups_;
  SRAMLP_REQUIRE(sequence_.size() == n,
                 "sequence length must equal rows * column groups");
  std::vector<bool> seen(n, false);
  for (const Address& a : sequence_) {
    SRAMLP_REQUIRE(a.row < rows_ && a.col < col_groups_,
                   "address outside the array");
    const std::size_t flat = a.row * col_groups_ + a.col;
    SRAMLP_REQUIRE(!seen[flat], "address visited twice (violates DOF-1)");
    seen[flat] = true;
  }
}

Address AddressOrder::at(std::size_t step, Direction direction) const {
  const std::size_t n = size();
  SRAMLP_REQUIRE(step < n, "step beyond sequence end");
  const std::size_t i = direction == Direction::kDown ? n - 1 - step : step;
  if (kind_ == AddressOrderKind::kWordLineAfterWordLine)
    return {i / col_groups_, i % col_groups_};
  return sequence_[i];
}

bool AddressOrder::is_word_line_after_word_line() const {
  // Factory-built WLAWL orders are tagged; only stored permutations need
  // the O(n) scan.
  if (kind_ == AddressOrderKind::kWordLineAfterWordLine) return true;
  for (std::size_t i = 0; i < sequence_.size(); ++i) {
    if (sequence_[i].row != i / col_groups_ ||
        sequence_[i].col != i % col_groups_)
      return false;
  }
  return true;
}

AddressOrder AddressOrder::word_line_after_word_line(std::size_t rows,
                                                     std::size_t col_groups) {
  return AddressOrder(AddressOrderKind::kWordLineAfterWordLine, rows,
                      col_groups, {});
}

AddressOrder AddressOrder::fast_row(std::size_t rows, std::size_t col_groups) {
  std::vector<Address> seq;
  seq.reserve(rows * col_groups);
  for (std::size_t c = 0; c < col_groups; ++c)
    for (std::size_t r = 0; r < rows; ++r) seq.push_back({r, c});
  return AddressOrder(AddressOrderKind::kFastRow, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::pseudo_random(std::size_t rows,
                                         std::size_t col_groups,
                                         std::uint64_t seed) {
  std::vector<Address> seq;
  seq.reserve(rows * col_groups);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < col_groups; ++c) seq.push_back({r, c});
  util::Rng rng(seed);
  util::shuffle(seq, rng);
  return AddressOrder(AddressOrderKind::kPseudoRandom, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::address_complement(std::size_t rows,
                                              std::size_t col_groups) {
  const std::size_t n = rows * col_groups;
  std::vector<Address> seq;
  seq.reserve(n);
  const auto to_address = [col_groups](std::size_t flat) {
    return Address{flat / col_groups, flat % col_groups};
  };
  for (std::size_t i = 0; i < n / 2; ++i) {
    seq.push_back(to_address(i));
    seq.push_back(to_address(n - 1 - i));
  }
  if (n % 2 == 1) seq.push_back(to_address(n / 2));
  return AddressOrder(AddressOrderKind::kAddressComplement, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::gray_code(std::size_t rows,
                                     std::size_t col_groups) {
  const std::size_t n = rows * col_groups;
  // Walk the reflected-Gray sequence of the next power of two and keep the
  // codes inside [0, n); a bijection filtered this way stays a permutation.
  std::size_t span = 1;
  while (span < n) span <<= 1;
  std::vector<Address> seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < span; ++i) {
    const std::size_t gray = i ^ (i >> 1);
    if (gray < n) seq.push_back({gray / col_groups, gray % col_groups});
  }
  return AddressOrder(AddressOrderKind::kGrayCode, rows, col_groups,
                      std::move(seq));
}

AddressOrder AddressOrder::custom(std::size_t rows, std::size_t col_groups,
                                  std::vector<Address> sequence) {
  return AddressOrder(AddressOrderKind::kCustom, rows, col_groups,
                      std::move(sequence));
}

}  // namespace sramlp::march
