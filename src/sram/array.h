// Cycle-accurate SRAM array simulator with per-event energy accounting.
//
// The simulator models the paper's two-phase clock cycle (Fig. 2):
//   * operate phase — word line high; the selected column group's pre-charge
//     is off and the read/write executes; other columns behave per mode;
//   * restore phase — word line low; the selected columns' pre-charge
//     restores their bit-lines to VDD.
//
// Functional mode: every column's pre-charge circuit is always on, so all
// cells sharing the active word line except the selected group suffer a full
// Read Equivalent Stress each cycle (energy P_A per column per cycle drawn
// through the pre-charge keepers).
//
// Low-power test mode (the paper's contribution): only the selected column
// group and the group that immediately follows in scan order are pre-charged.
// Every other bit-line floats and is discharged by the cell it stays
// connected to (exponential decay, Fig. 6a); the energy dissipated that way
// comes from charge already stored on the bit-line, not from the supply.
// The follower group's pre-charge must recharge its decayed bit-lines (the
// cost of which the simulator meters explicitly) and sustains the single
// remaining full RES.  On the last operation before a row change the caller
// raises restore_row_transition, which re-enables every pre-charge circuit
// for that one cycle (Fig. 7) — omitting it reproduces the faulty-swap
// mechanism, which the simulator models faithfully.
//
// Two column-state engines implement the same contract:
//
//   * ColumnModel::kBitslicedCohort (default) — cell data lives in the
//     64-cell-packed CellArray and is read/written/compared a word group at
//     a time; floating columns are grouped into *decay cohorts* keyed by
//     their decay-start cycle, so settling, recharging and stressing a
//     whole cohort costs one closed-form evaluation plus bulk meter
//     accumulation instead of per-column work.  Per-column ColumnState is
//     materialized lazily, only for columns something actually observes:
//     RES-sensitive columns of an attached fault model (which need
//     per-cycle on_res callbacks), columns left with partial bit-line
//     voltage across a non-restored row hand-over or an idle window, and
//     nothing else.  Diagnostics (bitline_low_side_voltage,
//     precharge_was_active) evaluate the cohort closed form on demand
//     without materializing.
//
//   * ColumnModel::kPerColumnReference — the original per-column engine,
//     kept as the executable specification.  The cohort path is required
//     (and regression-tested) to produce bit-identical supply energy,
//     ArrayStats and detections; every bulk accumulation has the result of
//     the repeated additions the reference performs one column at a time
//     (power::repeat_add), so per-source floating-point sums match the
//     reference path's addition-by-addition.
//
// The bitsliced engine has one executor, the batch executor behind
// execute_run; cycle() hands it a run of one address and one operation.
// A run takes one of two paths:
//
//   * the whole-row path, for a run of more than one address with no fault
//     model and no raw-event sink attached and no materialized column among
//     its selected groups — in low-power mode additionally a clean whole
//     row entered by this run, whose decay structure is then fixed by the
//     scan.  Every read of the run is checked against the whole row at once
//     (row_matches_pattern; a read after a write in the same element
//     compares logical values) and only the element's last write is applied
//     (fill_row_pattern).  Each meter accumulator receives the same
//     constants at every address but the first and the last, so
//     power::repeat_add skips those periods ahead bit-exactly; the
//     low-power follower-recharge and restore decay terms differ per
//     address and run as one serial pass over the cohort evaluation table.
//     A traced run (bulk-fold sink) splits its cycles at the sink's window
//     boundaries: each window's block takes its segment of the additions,
//     the element block (like the totals) the whole run's, and the full
//     windows of a row that start empty, which all end alike, are worked
//     out once.  A run costs O(row / 64 + sources x binades crossed) in
//     functional mode (per distinct window segment when traced), plus
//     O(row) for the decay terms in low-power mode.
//   * the per-address loop, otherwise.  Its fallbacks: a raw-event sink
//     (waveform writer), a fault model, a partial row (a one-address run
//     is one) or materialized columns, and a read the whole-row check finds
//     mismatching — the check returns before anything has changed.
//     run_path_counts() tells how many runs took each path.
//
// The loop is compiled once per kind of meter sink: none (totals held in
// registers), a bulk-fold sink (PowerTrace: its window and element blocks
// are folded in registers too) and a raw-event sink (waveform writer:
// every event is forwarded through the meter, stamped with its cycle).
// All three perform the same additions in the same order, and so does the
// whole-row path.
//
// Bit-line voltages are tracked lazily (closed-form exponential decay from
// the last capture point, memoized per integer cycle count), so a cycle
// outside whole-row runs costs O(word_width) amortised work, plus O(cols)
// at a low-power row hand-over or restore.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "power/meter.h"
#include "power/technology.h"
#include "sram/background.h"
#include "sram/cell_array.h"
#include "sram/command.h"
#include "sram/fault_hooks.h"
#include "sram/geometry.h"
#include "sram/simd.h"

namespace sramlp::sram {

/// Which column-state engine executes the cycles (see file comment).
enum class ColumnModel {
  kBitslicedCohort,    ///< word-packed data + decay-cohort accounting (fast)
  kPerColumnReference, ///< original per-column engine (executable spec)
};

/// Static configuration of one simulated array.
struct SramConfig {
  Geometry geometry;
  power::TechnologyParams tech = power::TechnologyParams::tech_0p13um();
  Mode mode = Mode::kFunctional;
  /// Apply the one-cycle functional restore at row transitions (Fig. 7 fix).
  /// The TestSession honours this; disabling it reproduces faulty swaps.
  bool row_transition_restore = true;
  /// Fraction of the cycle the word line stays high (decay advances only
  /// while cells are connected to their bit-lines).
  double wordline_duty = 0.5;
  /// A floating bit-line below this fraction of VDD overpowers an opposing
  /// cell at row entry (bit-line capacitance >> cell node capacitance).
  double swap_threshold_frac = 0.5;
  /// Column-state engine; the reference model exists for parity tests.
  ColumnModel column_model = ColumnModel::kBitslicedCohort;
};

/// Counters accumulated over a run.
struct ArrayStats {
  std::uint64_t cycles = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_mismatches = 0;
  std::uint64_t faulty_swaps = 0;
  std::uint64_t row_transitions = 0;
  std::uint64_t restore_cycles = 0;
  /// Column-cycles of full RES (pre-charge fighting a connected cell).
  std::uint64_t full_res_column_cycles = 0;
  /// Integrated decaying stress in "full-RES column-cycle" equivalents,
  /// split by decay phase (the paper's α analysis covers the post-op tail).
  double decay_stress_equiv_post_op = 0.0;
  double decay_stress_equiv_pre_op = 0.0;

  /// Average stressed cells per cycle counting the post-operation tail plus
  /// the follower column — the paper's α (expected inside (2, 10)).
  double alpha_post_op() const;
  /// Same including the pre-operation decay the paper's analysis omits.
  double alpha_total() const;
};

/// How the bitsliced engine executed its runs (execute_run calls, and
/// cycle() calls as one-address runs): the whole-row path, or the
/// per-address loop and why (see file comment).  Execution
/// diagnostics only — the results are identical either way — so they stay
/// out of ArrayStats, which result documents serialize.
struct RunPathCounts {
  std::uint64_t whole_row = 0;
  std::uint64_t events = 0;    ///< loop: a raw-event sink is attached
  std::uint64_t faults = 0;    ///< loop: a fault model is attached
  /// loop: partial row (a one-address run is one) or materialized columns
  std::uint64_t partial = 0;
  std::uint64_t mismatch = 0;  ///< loop: the whole-row check found one

  std::uint64_t loop_runs() const {
    return events + faults + partial + mismatch;
  }
};

/// The simulated memory.
class SramArray {
 public:
  explicit SramArray(const SramConfig& config);

  const SramConfig& config() const { return config_; }
  const Geometry& geometry() const { return config_.geometry; }
  Mode mode() const { return config_.mode; }
  ColumnModel column_model() const { return config_.column_model; }

  /// Switch operating mode between runs; resets bit-line state to
  /// pre-charged (a functional settling period is assumed) but keeps data.
  void set_mode(Mode mode);

  /// Execute one clock cycle. In low-power test mode the caller must issue
  /// addresses word-line-after-word-line (the TestSession enforces this).
  /// The bitsliced engine runs it as a one-address, one-operation run.
  CycleResult cycle(const CycleCommand& command);

  /// Execute a whole-row batch of cycles (see RunCommand): group_count
  /// addresses in scan order, op_count operations each.  Supply energy,
  /// statistics, cell contents and detections are bit-identical to
  /// issuing the equivalent CycleCommands through cycle(); the bitsliced
  /// engine executes the batch with meter accumulators held in registers
  /// (unless a raw-event sink is attached) and per-cycle glue amortised
  /// over the row.
  RunResult execute_run(const RunCommand& run);

  /// Idle for @p cycles clock cycles (March "Del" elements): no access,
  /// word lines low.  Only the clock tree and the control FSM burn energy;
  /// floating bit-lines hold their charge (no discharge path with the
  /// access transistors off).  Retention faults receive on_idle().
  void idle(std::uint64_t cycles);

  /// Attach (or clear) the behavioural fault model. Non-owning.
  void attach_fault_model(CellFaultModel* model);

  // --- direct data access (no energy, no hooks, no clocking) -------------
  bool peek(std::size_t row, std::size_t col) const {
    return cells_.get(row, col);
  }
  void poke(std::size_t row, std::size_t col, bool value) {
    cells_.set(row, col, value);
  }
  /// Fault-model backdoor used by coupling faults to strike victims.
  void force(CellCoord cell, bool value) {
    cells_.set(cell.row, cell.col, value);
  }
  CellArray& cells() { return cells_; }
  const CellArray& cells() const { return cells_; }

  const power::EnergyMeter& meter() const { return meter_; }
  power::EnergyMeter& meter() { return meter_; }
  const ArrayStats& stats() const { return stats_; }
  /// Run paths taken since construction (reset_measurements keeps them;
  /// the reference engine records none).
  const RunPathCounts& run_path_counts() const { return run_paths_; }

  /// Average supply energy per cycle so far [J].
  double energy_per_cycle() const { return meter_.supply_per_cycle(); }

  /// Reset meters and statistics.  Measurement-only: the electrical state
  /// is untouched — bit-line voltages, decay cohorts and lazily
  /// materialized per-column state all survive unchanged, so a reset in
  /// the middle of a run never perturbs subsequent decay, swap or
  /// detection behaviour (regression-tested).
  void reset_measurements();

  /// Current voltage of a column's cell-driven bit-line [V] (diagnostics;
  /// evaluates the lazy decay — or the column's cohort closed form — at
  /// the present cycle, without materializing per-column state).
  double bitline_low_side_voltage(std::size_t col) const;

  /// True if the column's pre-charge circuit is on this cycle (diagnostic
  /// snapshot of the last executed cycle; Fig. 4 activity map).
  bool precharge_was_active(std::size_t col) const;

 private:
  /// Per-column bit-line pair, captured at cycle `since`.
  struct ColumnState {
    double v_bl = 0.0;
    double v_blb = 0.0;
    std::uint64_t since = 0;
    bool connected = false;      ///< decaying (WL high, pre-charge off)
    bool pre_op_phase = false;   ///< decay began at row entry (not post-op)
  };

  // --- shared helpers ----------------------------------------------------
  double decayed(double v, std::uint64_t from_cycle) const;
  /// Memoized exp(-(elapsed * duty) / tau); same bits as computing it raw.
  double decay_factor(std::uint64_t elapsed) const {
    if (elapsed < decay_memo_.size()) return decay_memo_[elapsed];
    return decay_factor_slow(elapsed);
  }
  double decay_factor_slow(std::uint64_t elapsed) const;
  /// Current (v_bl, v_blb) of a column, without mutating state.
  void evaluate(const ColumnState& s, std::size_t col, double* v_bl,
                double* v_blb) const;
  /// Fold elapsed decay into the capture point and meter the stress.
  void settle(std::size_t col);
  /// Settle, meter the recharge to VDD into @p source, mark pre-charged.
  void recharge(std::size_t col, power::EnergySource source);
  /// Mark a column as decaying from VDD starting now.
  void begin_decay(std::size_t col, bool pre_op);
  /// Full RES on one column for one cycle (fight energy + hooks).
  void apply_full_res(std::size_t row, std::size_t col);
  void charge_peripheral(const CycleCommand& command);

  // --- per-column reference engine ---------------------------------------
  /// The read/write data-path of one selected cell (meters + fault hooks);
  /// the batch executor's hooked data path performs the same sequence.
  void op_bit(const CycleCommand& command, std::size_t col,
              CycleResult* result);
  CycleResult reference_cycle(const CycleCommand& command);
  void reference_idle(std::uint64_t cycles);
  std::uint32_t enter_row(std::size_t row);
  CycleResult execute_op(const CycleCommand& command);

  // --- bitsliced / decay-cohort engine ------------------------------------
  /// A set of columns whose bit-lines all float from VDD since the same
  /// cycle; one closed-form evaluation covers every member.
  struct Cohort {
    std::uint64_t start = 0;  ///< decay-start cycle (may be one ahead)
    bool pre_op = false;      ///< decay began at row entry
  };
  /// Everything the bulk paths need to know about a cohort "now".
  struct CohortEval {
    double v_low = 0.0;      ///< decayed low-side voltage
    double stress_j = 0.0;   ///< settle: bit-line charge spent, per column
    double equiv = 0.0;      ///< settle: full-RES column-cycle equivalents
    double dv = 0.0;         ///< voltage deficit folded by a settle
    double recharge_e = 0.0; ///< supply energy to restore one pair to VDD
  };

  void fast_idle(std::uint64_t cycles);
  std::uint32_t fast_enter_row(std::size_t row);
  /// The column work of a non-virtual run's Fig. 7 all-column restore
  /// cycle (recharge + RES + the everything-pre-charged tail).
  void fast_restore_cycle(std::size_t row, std::size_t first_col);
  /// The reference engine's execute_run: the run's cycles one at a time
  /// through reference_cycle.
  RunResult run_per_cycle(const RunCommand& run);
  /// The bitsliced engine's execute_run (and cycle()): picks the
  /// fast_run_impl instantiation for the attached sink.  Overwrites
  /// @p rr's counters and the detections it reports.
  void fast_run(const RunCommand& run, RunResult* rr);
  /// How a batch-executor instantiation meters (see file comment).
  enum class Metering {
    kTotals,  ///< no sink: meter totals held in registers
    kFolded,  ///< bulk-fold sink: its window / element blocks as well
    kEvents,  ///< raw-event sink: every event forwarded through the meter
  };
  /// The batch executor, compiled once per Metering; every instantiation
  /// performs the identical addition sequences.
  template <Metering kMetering>
  void fast_run_impl(const RunCommand& run, RunResult* out);
  /// The whole-row path (see file comment) for a fault-free run without
  /// materialized columns, untraced or with a bulk-fold sink — in
  /// low-power mode a virtual-cohort run (see fast_run_impl).  Returns
  /// false, having changed nothing, when a read would mismatch; otherwise
  /// sets rr->read_value.
  bool whole_row_run(const RunCommand& run, RunResult* rr);
  struct RowPeriods;
  /// The periods of a whole-row run (see RowPeriods), rebuilt only if the
  /// run's shape differs from the last one's.
  const RowPeriods& row_periods(const RunCommand& run,
                                bool first_group_advance);
  /// Shared end of both fast_run paths: the deferred cohort state of a
  /// virtual-cohort run and the run-edge bookkeeping.
  void end_run(const RunCommand& run, bool virt);
  CohortEval eval_cohort(const Cohort& cohort) const;
  /// eval_cohort keyed by elapsed decay cycles, served from the grow-only
  /// batch-filled table below (the closed form itself past the table cap).
  /// Always inlined: the whole-row path calls it once per address, and as
  /// an out-of-line call it made low-power sessions about 20% slower.
  [[gnu::always_inline]] CohortEval eval_elapsed(
      std::uint64_t elapsed) const {
    if (elapsed >= eval_table_.size()) return eval_elapsed_slow(elapsed);
    return {eval_table_.v_low[elapsed], eval_table_.stress_j[elapsed],
            eval_table_.equiv[elapsed], eval_table_.dv[elapsed],
            eval_table_.recharge_e[elapsed]};
  }
  /// eval_elapsed past the table's end: grows it, or past its cap
  /// evaluates the closed form.
  CohortEval eval_elapsed_slow(std::uint64_t elapsed) const;
  void grow_eval_table(std::uint64_t elapsed) const;
  /// Meter the settle of @p count cohort members (stress + α bookkeeping).
  void cohort_settle_bulk(const CohortEval& eval, bool pre_op,
                          std::uint64_t count);
  /// Settle + recharge-to-VDD of @p count cohort members into @p source.
  void cohort_recharge_bulk(const CohortEval& eval, const Cohort& cohort,
                            std::uint64_t count, power::EnergySource source);
  /// Full RES on @p count columns at once (no sensitive columns inside:
  /// those are always materialized and take the per-column path).
  void full_res_bulk(std::uint64_t count);
  /// Promote a cohort-tracked or pre-charged column to explicit
  /// ColumnState (exact: cohorts capture at VDD, decay stays lazy).
  void materialize_column(std::size_t col);
  /// Walk [begin, end) as maximal runs of columns sharing a state tag.
  template <typename Fn>
  void for_each_run(std::size_t begin, std::size_t end, Fn&& fn) const {
    std::size_t col = begin;
    while (col < end) {
      const std::uint32_t tag = cohort_of_[col];
      std::size_t run_end = col + 1;
      while (run_end < end && cohort_of_[run_end] == tag) ++run_end;
      fn(col, run_end - col, tag);
      col = run_end;
    }
  }
  void compact_cohorts();

  SramConfig config_;
  CellArray cells_;
  power::EnergyMeter meter_;
  ArrayStats stats_;
  RunPathCounts run_paths_;
  /// cycle()'s run result, reused: constructing a RunResult zeroes its
  /// whole detection array, which would cost a one-address run more than
  /// the rest of its bookkeeping.
  RunResult cycle_run_;
  /// whole_row_run's per-address addition periods.  Every address of a
  /// whole-row run adds the same constants to each source, except the
  /// first (the control element switches only on a group advance) and the
  /// last (no follower; the restore), so three periods describe the run.
  /// They depend only on the run's shape, which the rows of one March
  /// element share.
  struct RowPeriods {
    static constexpr std::size_t kFirst = 0, kMiddle = 1, kLast = 2;
    // The run shape the periods were built for.
    bool valid = false;
    bool lp = false;
    bool restore_last = false;
    bool first_group_advance = false;
    std::size_t addrs = 0;
    std::vector<bool> reads;  ///< per operation
    /// adds[kind][source]: one address's additions to the source, in
    /// cycle order.
    std::array<std::array<std::vector<double>, power::kEnergySourceCount>, 3>
        adds;
    /// start[kind][o * kEnergySourceCount + source]: where operation o's
    /// additions to the source begin in adds[kind][source]; o == op_count
    /// is the end.
    std::array<std::vector<std::uint32_t>, 3> start;
  };
  RowPeriods periods_;
  CellFaultModel* faults_ = nullptr;
  /// Sensitive cells grouped by row (from the fault model).
  std::vector<std::vector<std::size_t>> sensitive_by_row_;

  /// Hot-loop constants derived from the technology + geometry once; every
  /// value is the identical product/call the engines previously computed
  /// per cycle (pure functions of config), cached for speed.
  struct PerCycleEnergies {
    double wordline = 0.0;
    double decoder = 0.0;
    double address_bus = 0.0;
    double clock_tree = 0.0;
    double control_base = 0.0;
    double res_fight = 0.0;
    double cell_res = 0.0;
    double others_res_fight = 0.0;  ///< (cols - w) columns of RES fight
    double others_cell_res = 0.0;
    double control_element_group = 0.0;  ///< w control elements switching
    double lptest_driver = 0.0;
    double sense_amp = 0.0;
    double data_io = 0.0;
    double read_restore = 0.0;
    double write_driver = 0.0;
    double write_restore = 0.0;
  };
  PerCycleEnergies e_;
  /// geometry().col_groups(), kept so a cycle pays no division for it.
  std::size_t groups_ = 0;

  std::vector<ColumnState> columns_;
  std::vector<bool> precharge_active_;  ///< reference engine only
  std::uint64_t cycle_ = 0;
  std::optional<std::size_t> active_row_;
  std::optional<std::size_t> last_col_group_;
  bool restored_last_cycle_ = false;

  // --- bitsliced-engine state --------------------------------------------
  static constexpr std::uint32_t kColPrecharged = 0xFFFFFFFFu;
  static constexpr std::uint32_t kColMaterialized = 0xFFFFFFFEu;
  bool fast_ = true;                      ///< config_.column_model cached
  std::vector<std::uint32_t> cohort_of_;  ///< per-column state tag
  std::vector<Cohort> cohorts_;
  std::vector<bool> always_materialized_; ///< RES-sensitive columns
  /// Rows where the fault model's data-path hooks can act (from
  /// CellFaultModel::relevant_rows); other rows run word-parallel.
  std::vector<bool> hooked_rows_;
  bool all_rows_hooked_ = false;
  /// Last cycle's pre-charge activity, reconstructed on demand instead of
  /// refilling an O(cols) snapshot every cycle.
  struct PrechargeSnapshot {
    bool valid = false;
    bool all_on = false;
    std::size_t first_col = 0;
    std::size_t width = 0;
    bool has_follower = false;
    std::size_t follower_first = 0;
  };
  PrechargeSnapshot snap_;
  mutable std::vector<double> decay_memo_;  ///< exp factor per elapsed cycle
  /// Grow-only structure-of-arrays memo of eval_cohort by elapsed cycle:
  /// cohort evaluations depend only on (elapsed, fixed config), so one
  /// table serves every cohort of every run.  Filled in batches
  /// (simd::cohort_eval_batch) from the decay-factor memo; each entry is
  /// bit-identical to the closed form.  Capped like decay_memo_.
  struct CohortEvalTable {
    std::vector<double> v_low;
    std::vector<double> stress_j;
    std::vector<double> dv;
    std::vector<double> equiv;
    std::vector<double> recharge_e;
    std::size_t size() const { return v_low.size(); }
  };
  mutable CohortEvalTable eval_table_;
  /// Hoisted constants of the cohort closed form (exact subtrees of the
  /// scalar expressions; see simd::CohortEvalConstants).
  simd::CohortEvalConstants eval_k_;
};

}  // namespace sramlp::sram
