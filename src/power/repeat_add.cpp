#include "power/repeat_add.h"

#include <algorithm>
#include <bit>

namespace sramlp::power::detail {

namespace {

constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << 52;
constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;

double plain_period(double acc, const double* values, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) acc += values[i];
  return acc;
}

/// Ulps one period adds to a sum in the binade whose ulp is 1 / @p inv_ulp.
/// False when some addition's increment depends on the sum (a tie) or a
/// value is negative, NaN, or too large for the period to stay in the binade.
bool period_ulps(const double* values, std::size_t m, double inv_ulp,
                 std::uint64_t* ulps) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    // Scaling by a power of two is exact (an underflow only loses digits
    // far below half an ulp, which round to zero ulps either way).
    const double q = values[i] * inv_ulp;
    if (!(q >= 0.0 && q < 0x1p53)) return false;
    const auto whole = static_cast<std::uint64_t>(q);
    const double frac = q - static_cast<double>(whole);  // exact below 2^53
    if (frac == 0.5) return false;
    total += whole + (frac > 0.5 ? 1 : 0);
    if (total >= kTwo53) return false;
  }
  *ulps = total;
  return true;
}

}  // namespace

double repeat_add_long(double acc, const double* values, std::size_t m,
                       std::uint64_t n) {
  while (n > 0) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(acc);
    // Sign and exponent field; a positive normal sum has 1..2046 here.  The
    // binade's ulp is 2^(biased - 1075), and its inverse 2^(1075 - biased)
    // is a normal double (exponent field 2098 - biased) for biased >= 52.
    const std::uint64_t biased = bits >> 52;
    std::uint64_t ulps = 0;
    if (biased >= 52 && biased <= 2046 &&
        period_ulps(values, m, std::bit_cast<double>((2098 - biased) << 52),
                    &ulps)) {
      if (ulps == 0) return acc;  // every addition rounds back to the sum
      // The sum in ulps, and how many whole periods keep every partial
      // sum at most one ulp below the binade's top.
      const std::uint64_t sum_ulps = (bits & kMantissaMask) | kHiddenBit;
      const std::uint64_t periods =
          std::min(n, (kTwo53 - 1 - sum_ulps) / ulps);
      acc = std::bit_cast<double>(
          (biased << 52) | ((sum_ulps + periods * ulps) & kMantissaMask));
      n -= periods;
      if (n == 0) return acc;
      acc = plain_period(acc, values, m);  // the next period may leave the binade
      --n;
      continue;
    }
    // Outside the argument: plain periods until the sum changes binade (or
    // sign, or leaves zero / the subnormals), then look again.
    do {
      acc = plain_period(acc, values, m);
      --n;
    } while (n > 0 && (std::bit_cast<std::uint64_t>(acc) >> 52) == biased);
  }
  return acc;
}

}  // namespace sramlp::power::detail
