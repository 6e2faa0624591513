#include "sram/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sramlp::sram::simd {

// --- cohort evaluation -------------------------------------------------------

void cohort_eval_batch(const double* factors, std::size_t n,
                       const CohortEvalConstants& k, double* v_low,
                       double* stress_j, double* dv, double* equiv,
                       double* recharge_e) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = k.vdd * factors[i];
    const double d = k.vdd - v;
    v_low[i] = v;
    stress_j[i] = k.half_c * (k.vdd * k.vdd - v * v);
    dv[i] = d;
    equiv[i] = k.tau_over_duty * d / k.vdd;
    recharge_e[i] = k.c_vdd * d;
  }
}

// --- candidate-schedule scoring ---------------------------------------------

// Window-walk state per lane: `fill` cycles and `acc` joules sit in the
// current partial window; `peak` tracks the max closed-window energy.
// Each slot contributes a head (closing the current window if it crosses),
// m full windows of r*W each, and a tail that reopens the partial window.
void search_score_batch(const double* rates, const double* cycles,
                        std::size_t lanes, std::size_t slots,
                        double window_cycles, double* energy_j,
                        double* total_cycles, double* peak_window_j) {
  const double window = window_cycles;
  for (std::size_t l = 0; l < lanes; ++l) {
    double energy = 0.0;
    double cyc = 0.0;
    double fill = 0.0;
    double acc = 0.0;
    double peak = 0.0;
    for (std::size_t s = 0; s < slots; ++s) {
      const double r = rates[s * lanes + l];
      const double c = cycles[s * lanes + l];
      energy += r * c;
      cyc += c;
      const double avail = window - fill;
      const bool crosses = c >= avail;
      const double head = crosses ? avail : c;
      const double acc_head = acc + r * head;
      const double rem = crosses ? c - avail : 0.0;
      const double m = std::floor(rem / window);
      const double closed = crosses ? acc_head : 0.0;
      peak = std::max(peak, closed);
      const double mid = m >= 1.0 ? r * window : 0.0;
      peak = std::max(peak, mid);
      const double tail = rem - m * window;
      acc = crosses ? r * tail : acc_head;
      fill = crosses ? tail : fill + c;
    }
    // The trailing partial window is rated against the full window width by
    // PowerTrace, so its energy competes for the peak as-is.
    peak = std::max(peak, acc);
    energy_j[l] = energy;
    total_cycles[l] = cyc;
    peak_window_j[l] = peak;
  }
}

// --- word kernels ------------------------------------------------------------

std::uint64_t popcount_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::uint64_t>(std::popcount(words[i]));
  return total;
}

std::uint64_t xor_popcount_words(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  return total;
}

bool all_words_equal(const std::uint64_t* words, std::size_t n,
                     std::uint64_t pattern) {
  for (std::size_t i = 0; i < n; ++i)
    if (words[i] != pattern) return false;
  return true;
}

}  // namespace sramlp::sram::simd
