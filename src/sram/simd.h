// Batch kernels for the bitsliced engine and the schedule search.
//
// One plain scalar implementation per kernel.  The floating-point kernels
// evaluate their expression trees exactly as written, one element at a
// time: the build pins -ffp-contract=off and never enables fast-math, so
// whatever the compiler makes of the loops (including auto-vectorized
// code) keeps each output bit-identical to the per-element IEEE-754
// evaluation — the engines' parity contract (test_bitsliced_parity.cpp)
// rides on it.
//
// There are no hand-vectorized variants: the cohort table is filled once
// per array and the whole-row path compares a few words per row, so these
// kernels sit off the hot loops, and AVX2/AVX-512 variants with runtime
// dispatch moved no end-to-end perfbench figure against this code.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sramlp::sram::simd {

/// The kernels' implementation level.  There is only one; the enum and the
/// queries below remain because perfbench's host tag still prints
/// `simd_active` / `simd_detected` through them.
enum class Level { kScalar };

constexpr Level active_level() { return Level::kScalar; }
constexpr Level detected_level() { return Level::kScalar; }
constexpr const char* level_name(Level) { return "scalar"; }

/// Loop-invariant constants of the cohort closed form (see
/// SramArray::eval_cohort): each is the exact product/quotient the scalar
/// expression computes from the configuration, hoisted once.
struct CohortEvalConstants {
  double vdd = 0.0;
  double half_c = 0.0;        ///< 0.5 * c_bitline
  double c_vdd = 0.0;         ///< c_bitline * vdd
  double tau_over_duty = 0.0; ///< decay_tau_cycles / wordline_duty
};

/// Batched cohort evaluation: for each decay factor f = exp(-t/tau) in
/// @p factors, compute the CohortEval terms
///   v_low     = vdd * f
///   stress_j  = half_c * (vdd * vdd - v_low * v_low)
///   dv        = vdd - v_low
///   equiv     = tau_over_duty * dv / vdd
///   recharge  = c_vdd * dv
/// into the five output arrays — the exact expression tree of
/// SramArray::eval_cohort, one factor at a time.
void cohort_eval_batch(const double* factors, std::size_t n,
                       const CohortEvalConstants& k, double* v_low,
                       double* stress_j, double* dv, double* equiv,
                       double* recharge_e);

/// Batched candidate-schedule scoring for the search subsystem
/// (src/search/): each LANE is one candidate schedule of @p slots segments;
/// @p rates / @p cycles are slot-major SoA, the entry for slot s of lane l
/// at index `s * lanes + l`.  Per lane the kernel walks the slots once,
/// accumulating
///
///   energy_j[l]      = sum_s rates[s][l] * cycles[s][l]
///   total_cycles[l]  = sum_s cycles[s][l]
///   peak_window_j[l] = max energy of any fixed window of
///                      @p window_cycles cycles, windows aligned at cycle 0
///                      — exactly power::PowerTrace's fixed-window peak
///                      semantics (a trailing partial window counts).
///
/// All inputs are integer-valued doubles < 2^53 (cycle counts) or
/// non-negative rates, for which floor(rem / window) is exact-enough: the
/// correctly-rounded quotient of integers below 2^53 can never round
/// across the next integer, so the per-window decomposition matches exact
/// arithmetic.
void search_score_batch(const double* rates, const double* cycles,
                        std::size_t lanes, std::size_t slots,
                        double window_cycles, double* energy_j,
                        double* total_cycles, double* peak_window_j);

/// Total set bits over @p n words.
std::uint64_t popcount_words(const std::uint64_t* words, std::size_t n);

/// Total differing bits between two @p n-word runs (compare paths, swap
/// counting).
std::uint64_t xor_popcount_words(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n);

/// True when every one of the @p n words equals @p pattern (word-parallel
/// read-compare against a repeating background word).
bool all_words_equal(const std::uint64_t* words, std::size_t n,
                     std::uint64_t pattern);

}  // namespace sramlp::sram::simd
