// Exact fast-forward of repeated floating-point additions.
//
// The simulator's parity contract meters bulk events as repeated additions:
// adding v to a total n times is NOT `total + n * v` in IEEE-754 (0.1 added
// ten times is 0.9999999999999999, 10 * 0.1 is 1.0), and the engines must
// agree with each other addition by addition.  The loop's result is still
// predictable a binade at a time.  While a non-negative running sum stays in
// one binade [2^e, 2^(e+1)), every representable value there is a multiple
// of the binade's ulp u = 2^(e-52), so adding v >= 0 rounds to the sum plus
// round(v / u) ulps — the same whole number of ulps whatever the sum, unless
// v / u lies exactly halfway between two integers (a tie, which rounds
// towards the even neighbour and so depends on the sum).  A period of m
// additions therefore moves the sum by a fixed K ulps until the binade's
// top; repeat_add jumps there in one step.  Ties, negative or non-finite
// values, a zero, subnormal or negative sum, and the period that crosses a
// binade boundary run as the plain loop, so the result is the loop's to the
// bit in every case (pinned by test_power.cpp against the naive loop).
#pragma once

#include <cstddef>
#include <cstdint>

namespace sramlp::power {

/// Counts up to this many periods always run the plain loop: a jump costs
/// a few periods' work (scaling each value to ulps, then the period that
/// reaches the binade's top), so short counts gain nothing from it.
inline constexpr std::uint64_t kRepeatAddPlainMax = 16;

namespace detail {
double repeat_add_long(double acc, const double* values, std::size_t m,
                       std::uint64_t n);
}  // namespace detail

/// The sum `acc += values[0]; ...; acc += values[m - 1];` leaves after @p n
/// repetitions, bit-identical to that loop, in O(m x binades crossed)
/// instead of O(m x n) for non-negative values.  Taking and returning the
/// sum by value lets callers keep it in a register; both overloads are
/// always inlined, since an out-of-line copy (which GCC picked for some
/// hot loops) spills the single value and the sum through memory.
[[nodiscard, gnu::always_inline]] inline double repeat_add(
    double acc, const double* values, std::size_t m, std::uint64_t n) {
  if (n > kRepeatAddPlainMax) return detail::repeat_add_long(acc, values, m, n);
  for (std::uint64_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < m; ++i) acc += values[i];
  return acc;
}

/// `acc += value`, @p n times (a period of one).
[[nodiscard, gnu::always_inline]] inline double repeat_add(
    double acc, double value, std::uint64_t n) {
  return repeat_add(acc, &value, 1, n);
}

}  // namespace sramlp::power
