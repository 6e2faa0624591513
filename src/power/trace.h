// PowerTrace — the time-resolved sink of the probe/sink metering layer.
//
// The scalar EnergyMeter answers "how much energy did each source draw";
// it cannot say WHEN the power is drawn, what the worst window looks like,
// or which March element dominates.  A PowerTrace subscribes to the
// meter's event stream (MeterSink) and folds every
// (source, joules, count, cycle) event into
//
//   * fixed windows of window_cycles cycles — supply energy per window,
//     the basis of peak-window power (test-power literature treats peak
//     power as a first-class constraint next to average power);
//   * per-March-element accumulators — the execution backend marks element
//     boundaries (begin_element), so the trace attributes supply energy to
//     the March element whose cycles drew it.
//
// Determinism contract: every accumulator is per (source, window) or
// (source, element), and bulk events accumulate as repeated additions —
// the same identity EnergyMeter::add(source, joules, count) maintains —
// so the two SramArray column engines, which emit identical per-source
// event sequences at identical cycles, produce bit-identical traces
// (regression-tested in test_bitsliced_parity.cpp).  Energy lands at the
// cycle the SUPPLY delivers it: a lazily-settled cohort's recharge lands
// in the window of the recharge cycle (that is when the pre-charge circuit
// drains VDD), and idle blocks (March "Del" elements) spread their
// clock/control energy uniformly across the windows they span.  Non-supply
// sinks (bit-line decay stress) are outside the trace: window and element
// power is a supply-side measure, like the paper's PF / PLPT.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "power/energy_source.h"
#include "power/meter.h"

namespace sramlp::power {

/// Opt-in configuration of a PowerTrace (see core::SessionConfig::trace).
struct TraceConfig {
  /// Accumulation window width in clock cycles (>= 1).
  std::uint64_t window_cycles = 64;
  /// Retain the full per-window supply series in the summary (off by
  /// default: a 512x512 March run spans tens of thousands of windows).
  bool keep_windows = false;
};

/// Supply energy attributed to one March element.
struct ElementEnergy {
  std::size_t element = 0;         ///< index into MarchTest::elements()
  std::uint64_t start_cycle = 0;   ///< first cycle of the element
  std::uint64_t cycles = 0;        ///< cycles the element spanned
  double supply_energy_j = 0.0;    ///< supply energy drawn in those cycles
  double precharge_energy_j = 0.0; ///< pre-charge-related part of it
};

/// What a traced run reports (core::SessionResult::trace).
struct TraceSummary {
  std::uint64_t window_cycles = 0;  ///< window width used
  std::uint64_t total_cycles = 0;   ///< cycles the run spanned
  std::uint64_t windows = 0;        ///< windows covering the run
  std::uint64_t peak_window = 0;    ///< index of the peak window (first max)
  double peak_window_energy_j = 0.0;  ///< supply energy of the peak window
  /// Peak-window supply power [W]: peak energy over one full window's
  /// duration (a partial final window is rated against the full width —
  /// conservative, never overstating its power).
  double peak_power_w = 0.0;
  double supply_energy_j = 0.0;     ///< window-accumulated supply total
  double average_power_w = 0.0;     ///< supply_energy_j over the whole run
  std::vector<ElementEnergy> elements;  ///< execution order
  /// Per-window supply energy [J]; only when TraceConfig::keep_windows.
  std::vector<double> window_supply_j;
};

/// The windowed trace accumulator.  Attach to an EnergyMeter
/// (EnergyMeter::attach_sink) to subscribe to a cycle-accurate run, or
/// feed closed-form expectations directly via add_supply_block.
class PowerTrace final : public MeterSink {
 public:
  /// @param clock_period_s converts window energy to power; pass the
  ///   technology's clock_period (0 disables the power conversions).
  PowerTrace(const TraceConfig& config, double clock_period_s);

  /// Mark the start of March element @p element at @p cycle (the meter's
  /// cycle counter).  Idempotent while the element is unchanged; elements
  /// must arrive in execution order.  Events before the first call land in
  /// an implicit element 0.
  void begin_element(std::size_t element, std::uint64_t cycle);

  // --- MeterSink (driven by the attached EnergyMeter) ---------------------
  void on_add(EnergySource source, double joules, std::uint64_t count,
              std::uint64_t cycle) override;
  void on_spread(EnergySource source, double joules, std::uint64_t first_cycle,
                 std::uint64_t cycles) override;

  // Bulk-fold contract: every trace accumulator is a per (source, window)
  // or (source, element) chain of repeated additions, so the batch
  // executor may fold whole runs directly into the slot blocks — the
  // addition sequences (and therefore the bits) match on_add delivery
  // exactly, so the executor keeps the trace's blocks in registers instead
  // of forwarding every event.
  bool bulk_fold_supported() const override { return true; }
  std::uint64_t bulk_window_cycles() const override {
    return config_.window_cycles;
  }
  double* bulk_window_slots(std::uint64_t window) override;
  double* bulk_element_slots() override;

  /// Closed-form entry point (no meter involved): spread @p joules of
  /// supply energy uniformly over [first_cycle, first_cycle + cycles),
  /// attributed to the current element.  The AnalyticBackend emits its
  /// per-element expectation through this.
  void add_supply_block(double joules, std::uint64_t first_cycle,
                        std::uint64_t cycles);

  /// Reduce the accumulators to the reportable summary.  @p total_cycles
  /// is the run length (meter cycle count after the run).
  TraceSummary summarize(std::uint64_t total_cycles) const;

 private:
  /// Per-window / per-element accumulator block: one slot per source plus
  /// one "direct" slot for unsourced closed-form supply blocks.
  static constexpr std::size_t kDirectSlot = kEnergySourceCount;
  using Slots = std::array<double, kEnergySourceCount + 1>;

  struct ElementAcc {
    std::size_t element = 0;
    std::uint64_t start_cycle = 0;
    Slots slots{};
  };

  Slots& window_at(std::uint64_t index);
  ElementAcc& element_now();
  /// Uniform spread of @p joules over the windows [first, first + cycles).
  void spread_windows(std::size_t slot, double joules, std::uint64_t first,
                      std::uint64_t cycles);
  /// Fold every retained window below @p window into the scalar running
  /// state (supply total, peak, optional kept series) and release it.
  /// Event cycles are monotone within a run, so a window behind the
  /// event frontier can never receive energy again — retained storage
  /// stays O(spread look-ahead), not O(run length), whatever the window
  /// width.
  void fold_below(std::uint64_t window);
  void finalize_window(double supply);

  TraceConfig config_;
  double clock_period_;
  /// Retained (still writable) windows; windows_[0] is base_window_.
  std::vector<Slots> windows_;
  std::uint64_t base_window_ = 0;
  // Running reduction over finalized windows, in window order — the same
  // deterministic fold summarize() used to perform at the end.
  double folded_supply_ = 0.0;
  double peak_energy_ = 0.0;
  std::uint64_t peak_window_ = 0;
  std::vector<double> kept_supply_;  ///< per-window series (keep_windows)
  std::vector<ElementAcc> elements_;
};

}  // namespace sramlp::power
