// The memoized batch-analytic schedule evaluator — the search's hot loop.
//
// Scoring a candidate from scratch would re-run the closed-form analytic
// model per candidate.  This evaluator instead precomputes, ONCE per
// (config, base test) pair, each base element's closed-form contribution:
//
//   rate   — per-cycle supply expectation (engine::analytic_element_rate,
//            the exact arithmetic of the AnalyticBackend's traced
//            per-element attribution; idle rate for pauses),
//   cycles — the element's span (MarchTest::element_cycles — the shared
//            boundary arithmetic of both engines' traces).
//
// A candidate score is then an O(elements) composition of the cached
// segments: total energy, total cycles and the fixed-window peak profile
// (power::PowerTrace window semantics, including the partial trailing
// window).  Batches of candidates are laid out candidate-per-lane in a
// slot-major SoA and scored by the search_score_batch kernel
// (sram/simd.h), whose plain IEEE-754 expression tree makes scores
// independent of the machine evaluating them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/session.h"
#include "march/test.h"
#include "search/schedule.h"

namespace sramlp::search {

/// Analytic score of one candidate schedule.
struct Score {
  double energy_j = 0.0;
  double cycles = 0.0;        ///< integer-valued (exact below 2^53)
  double peak_window_j = 0.0; ///< max fixed-window supply energy
  double peak_power_w = 0.0;  ///< peak_window_j over one full window
};

class ScheduleEvaluator {
 public:
  /// @p window_cycles is the peak-window width (>= 1); pick a thermal-scale
  /// window (a few element spans) — windows much narrower than one element
  /// land entirely inside it, where no schedule move can help.
  ScheduleEvaluator(const core::SessionConfig& config,
                    const march::MarchTest& base,
                    std::uint64_t window_cycles);

  std::size_t elements() const { return rates_.size(); }
  const std::vector<StateCond>& conds() const { return conds_; }
  double idle_rate() const { return idle_rate_; }
  double window_seconds() const { return window_seconds_; }

  /// Score a batch; @p out is resized to match.  Not thread-safe (scratch
  /// buffers) — use one evaluator per thread; construction is cheap.
  void score(const std::vector<Candidate>& candidates,
             std::vector<Score>& out);

  Score score_one(const Candidate& candidate);

 private:
  std::vector<double> rates_;   ///< per base element [J/cycle]
  std::vector<double> cycles_;  ///< per base element span
  std::vector<StateCond> conds_;
  double idle_rate_ = 0.0;
  double window_cycles_ = 0.0;
  double window_seconds_ = 0.0;
  // Batch scratch, reused across score() calls.
  std::vector<double> soa_rates_;
  std::vector<double> soa_cycles_;
  std::vector<double> out_energy_;
  std::vector<double> out_cycles_;
  std::vector<double> out_peak_;
};

}  // namespace sramlp::search
