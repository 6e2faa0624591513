// The batch kernels of sram/simd.h against naive per-element loops: the
// cohort closed form written out one factor at a time, std::popcount per
// word, and a word-by-word compare.  The sizes cover empty input, single
// elements and batches well past any vector width the compiler might
// choose for the loops.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sram/simd.h"

namespace {

using namespace sramlp;

/// splitmix64: deterministic word / factor streams for the kernel tests.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31,
                                  64, 100};

TEST(SimdKernels, CohortEvalBatchMatchesClosedForm) {
  const sram::simd::CohortEvalConstants k{
      /*vdd=*/1.6, /*half_c=*/0.5 * 250e-15, /*c_vdd=*/250e-15 * 1.6,
      /*tau_over_duty=*/1.0e4 / 0.5};
  for (const std::size_t n : kSizes) {
    std::uint64_t state = 42 + n;
    std::vector<double> factors(n);
    for (double& f : factors)
      f = static_cast<double>(mix(state) >> 11) * 0x1.0p-53;  // [0, 1)
    std::vector<std::vector<double>> out(5, std::vector<double>(n, -1.0));
    sram::simd::cohort_eval_batch(factors.data(), n, k, out[0].data(),
                                  out[1].data(), out[2].data(),
                                  out[3].data(), out[4].data());
    for (std::size_t i = 0; i < n; ++i) {
      const double v_low = k.vdd * factors[i];
      const double dv = k.vdd - v_low;
      const double expect[5] = {
          v_low, k.half_c * (k.vdd * k.vdd - v_low * v_low), dv,
          k.tau_over_duty * dv / k.vdd, k.c_vdd * dv};
      for (std::size_t arr = 0; arr < 5; ++arr)
        EXPECT_EQ(out[arr][i], expect[arr])
            << "n=" << n << " array=" << arr << " i=" << i;
    }
  }
}

TEST(SimdKernels, WordKernelsMatchPerWordLoops) {
  for (const std::size_t n : kSizes) {
    std::uint64_t state = 7 + n;
    std::vector<std::uint64_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = mix(state);
      b[i] = mix(state);
    }
    std::uint64_t pop = 0, xpop = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pop += static_cast<std::uint64_t>(std::popcount(a[i]));
      xpop += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
    }
    const std::string where = "n=" + std::to_string(n);
    EXPECT_EQ(sram::simd::popcount_words(a.data(), n), pop) << where;
    EXPECT_EQ(sram::simd::xor_popcount_words(a.data(), b.data(), n), xpop)
        << where;

    const std::uint64_t pattern = 0xaaaaaaaaaaaaaaaaull;
    std::vector<std::uint64_t> words(n, pattern);
    EXPECT_TRUE(sram::simd::all_words_equal(words.data(), n, pattern))
        << where;
    // One flipped bit anywhere — first word, interior, last word — fails
    // the compare.
    for (std::size_t i = 0; i < n; ++i) {
      words[i] ^= 1ull << (i % 64);
      EXPECT_FALSE(sram::simd::all_words_equal(words.data(), n, pattern))
          << where << " flipped word " << i;
      words[i] = pattern;
    }
  }
}

}  // namespace
