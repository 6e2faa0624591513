#include "sram/array.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "power/repeat_add.h"
#include "sram/bits.h"
#include "util/error.h"

namespace sramlp::sram {

using power::EnergySource;

using power::repeat_add;

double ArrayStats::alpha_post_op() const {
  if (cycles == 0) return 0.0;
  return (static_cast<double>(full_res_column_cycles) +
          decay_stress_equiv_post_op) /
         static_cast<double>(cycles);
}

double ArrayStats::alpha_total() const {
  if (cycles == 0) return 0.0;
  return alpha_post_op() +
         decay_stress_equiv_pre_op / static_cast<double>(cycles);
}

SramArray::SramArray(const SramConfig& config)
    : config_(config), cells_(config.geometry) {
  config_.geometry.validate();
  config_.tech.validate();
  SRAMLP_REQUIRE(config_.wordline_duty > 0.0 && config_.wordline_duty <= 1.0,
                 "word-line duty must be in (0, 1]");
  SRAMLP_REQUIRE(config_.swap_threshold_frac > 0.0 &&
                     config_.swap_threshold_frac < 1.0,
                 "swap threshold must be a fraction of VDD");
  const double vdd = config_.tech.vdd;
  const Geometry& g = config_.geometry;
  groups_ = g.col_groups();
  columns_.assign(g.cols, ColumnState{vdd, vdd, 0, false, false});
  sensitive_by_row_.assign(g.rows, {});

  // Per-cycle constants: each value is exactly what the engines previously
  // recomputed every cycle (pure functions of the fixed config).
  const auto& t = config_.tech;
  const auto bits = static_cast<double>(g.address_bits());
  const auto others = static_cast<double>(g.cols - g.word_width);
  e_.wordline = t.e_wordline(g.cols);
  e_.decoder = bits * t.e_decoder_per_address_bit;
  e_.address_bus = bits * t.e_addressbus_per_bit;
  e_.clock_tree = t.e_clock_tree;
  e_.control_base = t.e_control_base;
  e_.res_fight = t.e_res_fight_per_cycle();
  e_.cell_res = t.e_cell_res_dynamic();
  e_.others_res_fight = others * t.e_res_fight_per_cycle();
  e_.others_cell_res = others * t.e_cell_res_dynamic();
  e_.control_element_group =
      static_cast<double>(g.word_width) * t.e_control_element_switch();
  e_.lptest_driver = t.e_lptest_driver(g.cols);
  e_.sense_amp = t.e_sense_amp_per_bit;
  e_.data_io = t.e_data_io_per_bit;
  e_.read_restore = t.e_read_restore();
  e_.write_driver = t.e_write_driver_per_bit;
  e_.write_restore = t.e_write_restore();

  // Hoisted cohort closed-form constants: each is the exact left-to-right
  // subtree eval_cohort's scalar expressions compute from the config, so
  // table entries built from them carry identical bits.
  eval_k_.vdd = vdd;
  eval_k_.half_c = 0.5 * t.c_bitline;
  eval_k_.c_vdd = t.c_bitline * vdd;
  eval_k_.tau_over_duty = t.decay_tau_cycles / config_.wordline_duty;

  fast_ = config_.column_model == ColumnModel::kBitslicedCohort;
  if (fast_) {
    cohort_of_.assign(g.cols, kColPrecharged);
    always_materialized_.assign(g.cols, false);
    decay_memo_.reserve(256);
  } else {
    precharge_active_.assign(g.cols, config_.mode == Mode::kFunctional);
  }
}

void SramArray::set_mode(Mode mode) {
  config_.mode = mode;
  const double vdd = config_.tech.vdd;
  for (auto& s : columns_) s = ColumnState{vdd, vdd, cycle_, false, false};
  if (fast_) {
    cohorts_.clear();
    for (std::size_t col = 0; col < cohort_of_.size(); ++col)
      cohort_of_[col] =
          always_materialized_[col] ? kColMaterialized : kColPrecharged;
    snap_ = PrechargeSnapshot{};
  } else {
    precharge_active_.assign(config_.geometry.cols, mode == Mode::kFunctional);
  }
  active_row_.reset();
  last_col_group_.reset();
  restored_last_cycle_ = false;
}

void SramArray::attach_fault_model(CellFaultModel* model) {
  if (model == nullptr && faults_ == nullptr) return;  // nothing to clear
  faults_ = model;
  sensitive_by_row_.assign(config_.geometry.rows, {});
  if (fast_) std::fill(always_materialized_.begin(),
                       always_materialized_.end(), false);
  if (faults_ != nullptr) {
    faults_->on_attach(*this);
    // Fail fast on mis-specified faults: an out-of-range victim would
    // otherwise never fire (its coordinate compare never matches) and an
    // out-of-range aggressor would throw from force() deep inside a run.
    for (const CellCoord& cell : faults_->declared_cells())
      SRAMLP_REQUIRE(cell.row < config_.geometry.rows &&
                         cell.col < config_.geometry.cols,
                     "fault cell outside the array");
    for (const CellCoord& cell : faults_->res_sensitive_cells()) {
      SRAMLP_REQUIRE(cell.row < config_.geometry.rows &&
                         cell.col < config_.geometry.cols,
                     "RES-sensitive cell outside the array");
      sensitive_by_row_[cell.row].push_back(cell.col);
      if (fast_) always_materialized_[cell.col] = true;
    }
  }
  if (fast_) {
    // Sensitive columns need per-cycle on_res delivery while decaying, so
    // they leave cohort tracking for good; everything else stays bulk.
    for (std::size_t col = 0; col < cohort_of_.size(); ++col)
      if (always_materialized_[col] && cohort_of_[col] != kColMaterialized)
        materialize_column(col);
    // Row-sparse hook delivery: rows the model promises not to act on run
    // the word-parallel data path with no per-cell hook calls.
    all_rows_hooked_ = false;
    hooked_rows_.assign(config_.geometry.rows, false);
    if (faults_ != nullptr) {
      const auto rows = faults_->relevant_rows();
      if (!rows) {
        all_rows_hooked_ = true;
      } else {
        for (const std::size_t row : *rows) {
          SRAMLP_REQUIRE(row < config_.geometry.rows,
                         "relevant row outside the array");
          hooked_rows_[row] = true;
        }
      }
    }
  }
}

void SramArray::reset_measurements() {
  meter_.reset();
  stats_ = ArrayStats{};
}

double SramArray::decay_factor_slow(std::uint64_t elapsed) const {
  constexpr std::uint64_t kMemoCap = 4096;
  if (elapsed >= kMemoCap) {
    const double t = static_cast<double>(elapsed) * config_.wordline_duty;
    return std::exp(-t / config_.tech.decay_tau_cycles);
  }
  while (decay_memo_.size() <= elapsed) {
    const double t =
        static_cast<double>(decay_memo_.size()) * config_.wordline_duty;
    decay_memo_.push_back(std::exp(-t / config_.tech.decay_tau_cycles));
  }
  return decay_memo_[elapsed];
}

double SramArray::decayed(double v, std::uint64_t from_cycle) const {
  if (from_cycle >= cycle_) return v;  // decay starts at `from_cycle`
  return v * decay_factor(cycle_ - from_cycle);
}

void SramArray::evaluate(const ColumnState& s, std::size_t col, double* v_bl,
                         double* v_blb) const {
  *v_bl = s.v_bl;
  *v_blb = s.v_blb;
  if (!s.connected || !active_row_) return;
  // The cell of the active row drives its '0'-side node's bit-line low.
  // Paper Fig. 5 convention: storing '1' means node S (on BL) is at 0 V,
  // so a '1' cell discharges BL and a '0' cell discharges BLB.
  const bool value = cells_.get_unchecked(*active_row_, col);
  if (value)
    *v_bl = decayed(s.v_bl, s.since);
  else
    *v_blb = decayed(s.v_blb, s.since);
}

void SramArray::settle(std::size_t col) {
  ColumnState& s = columns_[col];
  double v_bl = s.v_bl;
  double v_blb = s.v_blb;
  evaluate(s, col, &v_bl, &v_blb);
  if (s.connected) {
    // Energy the cell dissipated draining the bit-line: comes from the
    // charge stored on C_BL, not from the supply.
    const double c = config_.tech.c_bitline;
    const double stress_j = 0.5 * c *
                            ((s.v_bl * s.v_bl - v_bl * v_bl) +
                             (s.v_blb * s.v_blb - v_blb * v_blb));
    if (stress_j > 0.0) meter_.add(EnergySource::kBitlineDecayStress, stress_j);
    // Stress expressed in full-RES column-cycle equivalents:
    // integral of v/VDD over connected cycles = (tau/duty) * dv / VDD.
    const double dv = (s.v_bl - v_bl) + (s.v_blb - v_blb);
    const double equiv = (config_.tech.decay_tau_cycles /
                          config_.wordline_duty) *
                         dv / config_.tech.vdd;
    if (s.pre_op_phase)
      stats_.decay_stress_equiv_pre_op += equiv;
    else
      stats_.decay_stress_equiv_post_op += equiv;
    // Deliver decaying-stress notifications to sensitive cells of the
    // active row in this column.
    if (faults_ != nullptr && active_row_) {
      for (std::size_t sensitive_col : sensitive_by_row_[*active_row_]) {
        if (sensitive_col != col) continue;
        const double low0 = std::min(s.v_bl, s.v_blb);
        const std::uint64_t elapsed =
            cycle_ > s.since ? cycle_ - s.since : 0;
        for (std::uint64_t step = 0; step < elapsed; ++step) {
          // Stress at `step` connected cycles after the capture point;
          // decays monotonically, so stop once it drops below 1 %.
          const double frac = decayed(low0, cycle_ - step) / config_.tech.vdd;
          if (frac <= 0.01) break;
          faults_->on_res(*this, {*active_row_, col}, frac);
        }
      }
    }
  }
  s.v_bl = v_bl;
  s.v_blb = v_blb;
  // A decay scheduled to start in the future keeps its start stamp.
  if (s.since < cycle_) s.since = cycle_;
}

void SramArray::recharge(std::size_t col, EnergySource source) {
  settle(col);
  ColumnState& s = columns_[col];
  const double vdd = config_.tech.vdd;
  const double dv = (vdd - s.v_bl) + (vdd - s.v_blb);
  if (dv > 0.0) meter_.add(source, config_.tech.c_bitline * vdd * dv);
  s.v_bl = vdd;
  s.v_blb = vdd;
  s.connected = false;
  s.pre_op_phase = false;
  s.since = cycle_;
}

void SramArray::begin_decay(std::size_t col, bool pre_op) {
  ColumnState& s = columns_[col];
  const double vdd = config_.tech.vdd;
  s.v_bl = vdd;
  s.v_blb = vdd;
  s.connected = true;
  s.pre_op_phase = pre_op;
  // Post-operation decay only starts once the restore phase has returned
  // the bit-lines to VDD, i.e. from the next cycle onward.
  s.since = pre_op ? cycle_ : cycle_ + 1;
}

std::uint32_t SramArray::enter_row(std::size_t row) {
  std::uint32_t swaps = 0;
  const bool had_row = active_row_.has_value();
  const bool lp = config_.mode == Mode::kLowPowerTest;
  if (lp) {
    const double vdd = config_.tech.vdd;
    const double threshold = config_.swap_threshold_frac * vdd;
    for (std::size_t col = 0; col < config_.geometry.cols; ++col) {
      // Settle under the OLD row first: the decay so far was driven by the
      // previous row's cell.
      settle(col);
      ColumnState& s = columns_[col];
      if (s.connected && !restored_last_cycle_) {
        // The bit-line pair may overpower the newly connected cell
        // (C_BL >> C_cellnode): a discharged line forces its side to 0.
        const bool bl_low = s.v_bl <= threshold;
        const bool blb_low = s.v_blb <= threshold;
        if (bl_low != blb_low) {
          // BL low  => implied stored value '1' (Fig. 5 convention);
          // BLB low => implied stored value '0'.
          const bool implied = bl_low;
          const bool stored = cells_.get_unchecked(row, col);
          if (stored != implied) {
            cells_.set_unchecked(row, col, implied);
            ++swaps;
          }
        }
      }
    }
  }
  active_row_ = row;
  if (lp) {
    // Every column of the new row is connected (common word line) with its
    // pre-charge off until selected: fresh pre-operation decay phase.
    for (std::size_t col = 0; col < config_.geometry.cols; ++col) {
      ColumnState& s = columns_[col];
      if (!s.connected) {
        // Pre-charged columns start a fresh decay from VDD.
        begin_decay(col, /*pre_op=*/true);
      } else {
        // Already-decayed columns keep their voltages, now driven by the
        // new row's cell (settled above); re-stamp the phase.
        s.pre_op_phase = true;
        s.since = cycle_;
      }
    }
  }
  if (had_row) ++stats_.row_transitions;
  return swaps;
}

void SramArray::apply_full_res(std::size_t row, std::size_t col) {
  meter_.add(EnergySource::kPrechargeResFight, e_.res_fight);
  meter_.add(EnergySource::kCellRes, e_.cell_res);
  ++stats_.full_res_column_cycles;
  if (faults_ != nullptr) {
    for (std::size_t sensitive_col : sensitive_by_row_[row]) {
      if (sensitive_col == col) faults_->on_res(*this, {row, col}, 1.0);
    }
  }
}

void SramArray::charge_peripheral(const CycleCommand& command) {
  (void)command;
  meter_.add(EnergySource::kWordline, e_.wordline);
  meter_.add(EnergySource::kDecoder, e_.decoder);
  meter_.add(EnergySource::kAddressBus, e_.address_bus);
  meter_.add(EnergySource::kClockTree, e_.clock_tree);
  meter_.add(EnergySource::kMemoryControl, e_.control_base);
}

void SramArray::op_bit(const CycleCommand& command, std::size_t col,
                       CycleResult* result) {
  const CellCoord cell{command.row, col};
  const bool stored = cells_.get_unchecked(cell.row, cell.col);
  // The command carries the *logical* March data bit; the data
  // background maps it to the physical cell value.
  const bool physical =
      command.background.physical(command.value, cell.row, cell.col);
  if (command.is_read) {
    bool stored_after = stored;
    bool sensed = stored;
    if (faults_ != nullptr)
      sensed = faults_->read_result(cell, stored, &stored_after);
    if (stored_after != stored)
      cells_.set_unchecked(cell.row, cell.col, stored_after);
    result->read_value = sensed;
    if (sensed != physical) {
      if (!result->mismatch) result->first_bad_col = col;
      result->mismatch = true;
      if (faults_ != nullptr) faults_->on_read_mismatch(cell);
    }
    meter_.add(EnergySource::kSenseAmp, e_.sense_amp);
    meter_.add(EnergySource::kDataIo, e_.data_io);
    meter_.add(EnergySource::kPrechargeRestoreRead, e_.read_restore);
    meter_.add(EnergySource::kCellRes, e_.cell_res);
  } else {
    bool effective = physical;
    if (faults_ != nullptr)
      effective = faults_->write_result(cell, stored, physical);
    cells_.set_unchecked(cell.row, cell.col, effective);
    if (faults_ != nullptr)
      faults_->after_write(*this, cell, stored, effective);
    meter_.add(EnergySource::kWriteDriver, e_.write_driver);
    meter_.add(EnergySource::kDataIo, e_.data_io);
    meter_.add(EnergySource::kPrechargeRestoreWrite, e_.write_restore);
  }
}

CycleResult SramArray::execute_op(const CycleCommand& command) {
  CycleResult result;
  const auto& t = config_.tech;
  const std::size_t w = config_.geometry.word_width;
  const std::size_t first_col = command.col_group * w;

  for (std::size_t b = 0; b < w; ++b) {
    const std::size_t col = first_col + b;
    // The selected column was pre-charged by the follower mechanism (or is
    // permanently pre-charged in functional mode); fold in any residual
    // decay before the operation drives the bit-lines.  Back-to-back
    // operations on the same column (multi-op March elements) are exempt:
    // the intervening bit-line movement is the operation's own swing,
    // already paid for by the read/write restore energy.
    ColumnState& s = columns_[col];
    if (s.connected && cycle_ - s.since <= 1 &&
        s.v_bl >= t.vdd - 1e-3 && s.v_blb >= t.vdd - 1e-3) {
      s.v_bl = t.vdd;
      s.v_blb = t.vdd;
      s.connected = false;
      s.pre_op_phase = false;
      s.since = cycle_;
    } else {
      recharge(col, EnergySource::kPrechargeNextColumn);
    }

    op_bit(command, col, &result);
  }
  if (command.is_read)
    ++stats_.reads;
  else
    ++stats_.writes;
  if (result.mismatch) ++stats_.read_mismatches;
  return result;
}

CycleResult SramArray::cycle(const CycleCommand& command) {
  const Geometry& g = config_.geometry;
  SRAMLP_REQUIRE(command.row < g.rows, "row out of range");
  SRAMLP_REQUIRE(command.col_group < groups_, "column out of range");
  if (!fast_) return reference_cycle(command);
  // The bitsliced engine has one executor: a cycle is a run of one address
  // and one operation.
  const RunOp op{command.is_read, command.value};
  RunCommand run;
  run.row = command.row;
  run.first_group = command.col_group;
  run.group_count = 1;
  run.descending = command.scan == Scan::kDescending;
  run.ops = &op;
  run.op_count = 1;
  run.background = command.background;
  run.scan = command.scan;
  run.restore_last = command.restore_row_transition;
  fast_run(run, &cycle_run_);
  const RunResult& rr = cycle_run_;
  CycleResult result;
  result.read_value = rr.read_value;
  result.mismatch = rr.mismatches != 0;
  if (result.mismatch) result.first_bad_col = rr.detections[0].col;
  result.faulty_swaps = rr.faulty_swaps;
  return result;
}

CycleResult SramArray::reference_cycle(const CycleCommand& command) {
  const Geometry& g = config_.geometry;
  CycleResult result;
  const bool lp = config_.mode == Mode::kLowPowerTest;
  const std::size_t w = g.word_width;
  const std::size_t first_col = command.col_group * w;

  // Row hand-over bookkeeping (swap hazard in LP mode without restore).
  if (!active_row_ || *active_row_ != command.row)
    result.faulty_swaps = enter_row(command.row);
  stats_.faulty_swaps += result.faulty_swaps;

  charge_peripheral(command);

  // The operation itself (selected columns).
  const CycleResult op = execute_op(command);
  result.read_value = op.read_value;
  result.mismatch = op.mismatch;
  result.first_bad_col = op.first_bad_col;

  // Pre-charge activity snapshot for diagnostics (Fig. 4).
  std::fill(precharge_active_.begin(), precharge_active_.end(), !lp);
  for (std::size_t b = 0; b < w; ++b)
    precharge_active_[first_col + b] = true;

  if (!lp) {
    // Functional mode: every unselected column of the active row fights a
    // full RES against its live pre-charge circuit, every cycle.
    meter_.add(EnergySource::kPrechargeResFight, e_.others_res_fight);
    meter_.add(EnergySource::kCellRes, e_.others_cell_res);
    stats_.full_res_column_cycles += g.cols - w;
    if (faults_ != nullptr) {
      for (std::size_t col : sensitive_by_row_[command.row]) {
        if (col < first_col || col >= first_col + w)
          faults_->on_res(*this, {command.row, col}, 1.0);
      }
    }
  } else if (command.restore_row_transition) {
    // One functional cycle: all pre-charge circuits on, restoring every
    // bit-line to VDD for the next row (paper Fig. 7) and re-exposing all
    // unselected columns to one full RES.
    for (std::size_t col = 0; col < g.cols; ++col) {
      if (col >= first_col && col < first_col + w) continue;
      recharge(col, EnergySource::kRowTransitionRestore);
      apply_full_res(command.row, col);
      precharge_active_[col] = true;
    }
    meter_.add(EnergySource::kLpTestDriver, e_.lptest_driver);
    ++stats_.restore_cycles;
  } else {
    // Steady LP cycle: only the follower group's pre-charge is on (driven
    // by the previous column's selection signal, Fig. 8).  The last group
    // of the scan has no follower (its CS line is not wrapped around).
    const bool ascending = command.scan == Scan::kAscending;
    const std::size_t groups = g.col_groups();
    std::optional<std::size_t> follower;
    if (ascending && command.col_group + 1 < groups)
      follower = command.col_group + 1;
    else if (!ascending && command.col_group > 0)
      follower = command.col_group - 1;
    if (follower) {
      for (std::size_t b = 0; b < w; ++b) {
        const std::size_t col = *follower * w + b;
        recharge(col, EnergySource::kPrechargeNextColumn);
        apply_full_res(command.row, col);
        precharge_active_[col] = true;
      }
    }
    // One control element switches per column-group advance (paper §5.5).
    if (!last_col_group_ || *last_col_group_ != command.col_group)
      meter_.add(EnergySource::kControlLogic, e_.control_element_group);
  }

  // After the restore phase the selected columns sit at VDD; from the next
  // cycle on they decay again (WL still strobes this row every cycle).
  for (std::size_t b = 0; b < w; ++b) {
    const std::size_t col = first_col + b;
    if (lp && !command.restore_row_transition)
      begin_decay(col, /*pre_op=*/false);
    else {
      columns_[col].v_bl = config_.tech.vdd;
      columns_[col].v_blb = config_.tech.vdd;
      columns_[col].connected = false;
      columns_[col].since = cycle_;
    }
  }
  if (lp && command.restore_row_transition) {
    // All columns were restored; they stay pre-charged until the next row
    // entry re-connects them.
    for (std::size_t col = 0; col < g.cols; ++col) {
      columns_[col].connected = false;
      columns_[col].v_bl = config_.tech.vdd;
      columns_[col].v_blb = config_.tech.vdd;
      columns_[col].since = cycle_;
    }
  }

  restored_last_cycle_ = lp && command.restore_row_transition;
  last_col_group_ = command.col_group;
  ++cycle_;
  meter_.tick_cycle();
  ++stats_.cycles;
  return result;
}

void SramArray::idle(std::uint64_t cycles) {
  if (fast_) {
    fast_idle(cycles);
    return;
  }
  reference_idle(cycles);
}

void SramArray::reference_idle(std::uint64_t cycles) {
  if (cycles == 0) return;
  const auto& t = config_.tech;
  // add_spread performs the same double(cycles) * e multiply-add these
  // paths always did; an attached trace additionally sees the block span.
  meter_.add_spread(EnergySource::kClockTree, t.e_clock_tree, cycles);
  meter_.add_spread(EnergySource::kMemoryControl, t.e_control_base, cycles);
  // Word lines are low during the idle window: connected bit-lines stop
  // discharging.  Fold the decay accrued so far into the capture points
  // (clearing the active row below disables further lazy decay until the
  // next row entry re-stamps the state).
  for (std::size_t col = 0; col < columns_.size(); ++col)
    if (columns_[col].connected) settle(col);
  cycle_ += cycles;
  meter_.tick_cycles(cycles);
  stats_.cycles += cycles;
  // No row is active while idling; the next access re-enters its row.
  active_row_.reset();
  restored_last_cycle_ = false;
  if (faults_ != nullptr) faults_->on_idle(*this, cycles);
}

// --- bitsliced / decay-cohort engine ----------------------------------------

SramArray::CohortEval SramArray::eval_cohort(const Cohort& cohort) const {
  // Cohort members hold both lines at VDD at the capture point; only the
  // side driven by the active row's cell decays, and every energy term is
  // side-symmetric, so one evaluation covers the whole cohort.  The
  // evaluation depends only on the elapsed connected cycles (plus fixed
  // config), so it is served from the grow-only table; every entry
  // mirrors settle()/recharge() exactly (the untouched side contributes
  // an exact 0.0 there), and elapsed 0 — no active row, or a decay
  // scheduled to start now or later — reproduces the undecayed case
  // bitwise (factor exp(-0.0) == 1.0).
  const std::uint64_t elapsed =
      (!active_row_ || cohort.start >= cycle_) ? 0 : cycle_ - cohort.start;
  return eval_elapsed(elapsed);
}

SramArray::CohortEval SramArray::eval_elapsed_slow(
    std::uint64_t elapsed) const {
  constexpr std::uint64_t kTableCap = 4096;  // matches the decay-memo cap
  if (elapsed < kTableCap) {
    grow_eval_table(elapsed);
    return eval_elapsed(elapsed);
  }
  // Past the memo horizon: evaluate the closed form directly (the batch
  // kernel with n = 1 is the scalar expression tree).
  CohortEval e;
  const double factor = decay_factor(elapsed);
  simd::cohort_eval_batch(&factor, 1, eval_k_, &e.v_low, &e.stress_j, &e.dv,
                          &e.equiv, &e.recharge_e);
  return e;
}

void SramArray::grow_eval_table(std::uint64_t elapsed) const {
  const std::size_t old = eval_table_.size();
  std::size_t next = std::max<std::size_t>(
      {static_cast<std::size_t>(elapsed) + 1, 2 * old, 64});
  next = std::min<std::size_t>(next, 4096);
  decay_factor_slow(next - 1);  // the factor memo now covers [0, next)
  eval_table_.v_low.resize(next);
  eval_table_.stress_j.resize(next);
  eval_table_.dv.resize(next);
  eval_table_.equiv.resize(next);
  eval_table_.recharge_e.resize(next);
  simd::cohort_eval_batch(decay_memo_.data() + old, next - old, eval_k_,
                          eval_table_.v_low.data() + old,
                          eval_table_.stress_j.data() + old,
                          eval_table_.dv.data() + old,
                          eval_table_.equiv.data() + old,
                          eval_table_.recharge_e.data() + old);
}

void SramArray::cohort_settle_bulk(const CohortEval& eval, bool pre_op,
                                   std::uint64_t count) {
  if (eval.stress_j > 0.0)
    meter_.add(EnergySource::kBitlineDecayStress, eval.stress_j, count);
  double& equiv = pre_op ? stats_.decay_stress_equiv_pre_op
                         : stats_.decay_stress_equiv_post_op;
  equiv = repeat_add(equiv, eval.equiv, count);
}

void SramArray::cohort_recharge_bulk(const CohortEval& eval,
                                     const Cohort& cohort,
                                     std::uint64_t count,
                                     EnergySource source) {
  cohort_settle_bulk(eval, cohort.pre_op, count);
  if (eval.dv > 0.0) meter_.add(source, eval.recharge_e, count);
}

void SramArray::full_res_bulk(std::uint64_t count) {
  meter_.add(EnergySource::kPrechargeResFight, e_.res_fight, count);
  meter_.add(EnergySource::kCellRes, e_.cell_res, count);
  stats_.full_res_column_cycles += count;
}

void SramArray::materialize_column(std::size_t col) {
  const std::uint32_t tag = cohort_of_[col];
  if (tag == kColMaterialized) return;
  const double vdd = config_.tech.vdd;
  if (tag == kColPrecharged) {
    columns_[col] = ColumnState{vdd, vdd, cycle_, false, false};
  } else {
    const Cohort& k = cohorts_[tag];
    columns_[col] = ColumnState{vdd, vdd, k.start, true, k.pre_op};
  }
  cohort_of_[col] = kColMaterialized;
}

void SramArray::compact_cohorts() {
  std::vector<std::uint32_t> remap(cohorts_.size(), kColPrecharged);
  std::vector<Cohort> live;
  for (auto& tag : cohort_of_) {
    if (tag == kColPrecharged || tag == kColMaterialized) continue;
    if (remap[tag] == kColPrecharged) {
      remap[tag] = static_cast<std::uint32_t>(live.size());
      live.push_back(cohorts_[tag]);
    }
    tag = remap[tag];
  }
  cohorts_ = std::move(live);
}

std::uint32_t SramArray::fast_enter_row(std::size_t row) {
  std::uint32_t swaps = 0;
  const bool had_row = active_row_.has_value();
  const bool lp = config_.mode == Mode::kLowPowerTest;
  if (lp) {
    const double vdd = config_.tech.vdd;
    const double threshold = config_.swap_threshold_frac * vdd;
    const std::size_t old_row = had_row ? *active_row_ : 0;
    // Phase 1 — settle everything under the OLD row, in column order.
    // Whole cohorts fold with one closed-form evaluation; the swap hazard
    // resolves per cohort (the depth of discharge is a cohort property)
    // with a word-parallel compare-and-copy against the old row's data.
    for_each_run(0, config_.geometry.cols,
                 [&](std::size_t col, std::size_t n, std::uint32_t tag) {
      if (tag == kColPrecharged) return;  // at VDD: nothing settles or swaps
      if (tag == kColMaterialized) {
        for (std::size_t c = col; c < col + n; ++c) {
          settle(c);
          ColumnState& s = columns_[c];
          if (s.connected && !restored_last_cycle_) {
            const bool bl_low = s.v_bl <= threshold;
            const bool blb_low = s.v_blb <= threshold;
            if (bl_low != blb_low) {
              const bool implied = bl_low;
              const bool stored = cells_.get_unchecked(row, c);
              if (stored != implied) {
                cells_.set_unchecked(row, c, implied);
                ++swaps;
              }
            }
          }
        }
        return;
      }
      const Cohort& k = cohorts_[tag];
      const CohortEval e = eval_cohort(k);
      cohort_settle_bulk(e, k.pre_op, n);
      if (!restored_last_cycle_ && e.v_low <= threshold) {
        // Exactly one side of every member is below threshold, and its
        // implied value is the old row's stored bit (that cell drove the
        // decay): overpowering copies the old row's data onto the new row.
        swaps += cells_.copy_row_range(row, old_row, col, n);
      }
      if (e.v_low < vdd) {
        // Partial voltage survives the hand-over: per-column state from
        // here on (the decayed side depends on the old row's data).
        for (std::size_t c = col; c < col + n; ++c) {
          const bool one = cells_.get_unchecked(old_row, c);
          columns_[c] = one ? ColumnState{e.v_low, vdd, cycle_, true, k.pre_op}
                            : ColumnState{vdd, e.v_low, cycle_, true, k.pre_op};
          cohort_of_[c] = kColMaterialized;
        }
      }
    });
    active_row_ = row;
    // Phase 2 — every column of the new row is connected with its
    // pre-charge off: fresh pre-operation decay.  All fully-charged
    // columns share one new cohort; materialized columns re-stamp.
    cohorts_.clear();
    cohorts_.push_back(Cohort{cycle_, /*pre_op=*/true});
    for (std::size_t col = 0; col < config_.geometry.cols; ++col) {
      if (cohort_of_[col] == kColMaterialized) {
        ColumnState& s = columns_[col];
        if (!s.connected) {
          begin_decay(col, /*pre_op=*/true);
        } else {
          s.pre_op_phase = true;
          s.since = cycle_;
        }
      } else {
        cohort_of_[col] = 0;
      }
    }
  } else {
    active_row_ = row;
  }
  if (had_row) ++stats_.row_transitions;
  return swaps;
}

void SramArray::fast_restore_cycle(std::size_t row, std::size_t first_col) {
  const Geometry& g = config_.geometry;
  const std::size_t w = g.word_width;
  // One functional cycle: all pre-charge circuits on (paper Fig. 7).
  // Recharge + full RES, cohort-bulk per run of equal decay state.
  const auto restore_run = [&](std::size_t col, std::size_t n,
                               std::uint32_t tag) {
    if (tag == kColPrecharged) {
      full_res_bulk(n);  // recharging a full bit-line pair costs nothing
    } else if (tag == kColMaterialized) {
      for (std::size_t c = col; c < col + n; ++c) {
        recharge(c, EnergySource::kRowTransitionRestore);
        apply_full_res(row, c);
      }
    } else {
      const Cohort& k = cohorts_[tag];
      const CohortEval e = eval_cohort(k);
      cohort_recharge_bulk(e, k, n, EnergySource::kRowTransitionRestore);
      full_res_bulk(n);
    }
  };
  for_each_run(0, first_col, restore_run);
  for_each_run(first_col + w, g.cols, restore_run);
  meter_.add(EnergySource::kLpTestDriver, e_.lptest_driver);
  ++stats_.restore_cycles;
  // All columns restored: everything stays pre-charged until the next row
  // entry re-connects it.
  for (std::size_t col = 0; col < g.cols; ++col) {
    if (cohort_of_[col] == kColMaterialized) {
      columns_[col].connected = false;
      columns_[col].v_bl = config_.tech.vdd;
      columns_[col].v_blb = config_.tech.vdd;
      columns_[col].since = cycle_;
    } else {
      cohort_of_[col] = kColPrecharged;
    }
  }
  cohorts_.clear();
}

void SramArray::fast_idle(std::uint64_t cycles) {
  if (cycles == 0) return;
  const auto& t = config_.tech;
  meter_.add_spread(EnergySource::kClockTree, t.e_clock_tree, cycles);
  meter_.add_spread(EnergySource::kMemoryControl, t.e_control_base, cycles);
  // Word lines are low during the idle window: connected bit-lines stop
  // discharging.  Fold cohort decay in bulk; members keeping a partial
  // voltage across the window become materialized (their frozen state is
  // what the next row entry's swap check must see).
  const double vdd = t.vdd;
  for_each_run(0, config_.geometry.cols,
               [&](std::size_t col, std::size_t count, std::uint32_t tag) {
    if (tag == kColPrecharged) return;
    if (tag == kColMaterialized) {
      for (std::size_t c = col; c < col + count; ++c)
        if (columns_[c].connected) settle(c);
      return;
    }
    const Cohort& k = cohorts_[tag];
    const CohortEval e = eval_cohort(k);
    cohort_settle_bulk(e, k.pre_op, count);
    const std::uint64_t since = k.start < cycle_ ? cycle_ : k.start;
    for (std::size_t c = col; c < col + count; ++c) {
      const bool one =
          active_row_ && cells_.get_unchecked(*active_row_, c);
      columns_[c] = one ? ColumnState{e.v_low, vdd, since, true, k.pre_op}
                        : ColumnState{vdd, e.v_low, since, true, k.pre_op};
      cohort_of_[c] = kColMaterialized;
    }
  });
  cohorts_.clear();
  cycle_ += cycles;
  meter_.tick_cycles(cycles);
  stats_.cycles += cycles;
  // No row is active while idling; the next access re-enters its row.
  active_row_.reset();
  restored_last_cycle_ = false;
  if (faults_ != nullptr) faults_->on_idle(*this, cycles);
}

RunResult SramArray::execute_run(const RunCommand& run) {
  const Geometry& g = config_.geometry;
  SRAMLP_REQUIRE(run.ops != nullptr && run.op_count >= 1,
                 "run without operations");
  SRAMLP_REQUIRE(run.row < g.rows, "row out of range");
  SRAMLP_REQUIRE(run.group_count >= 1, "empty run");
  if (run.descending) {
    SRAMLP_REQUIRE(run.first_group < groups_ &&
                       run.group_count <= run.first_group + 1,
                   "column run out of range");
  } else {
    SRAMLP_REQUIRE(run.first_group + run.group_count <= groups_,
                   "column run out of range");
  }
  if (!fast_) return run_per_cycle(run);
  RunResult rr;
  fast_run(run, &rr);
  return rr;
}

RunResult SramArray::run_per_cycle(const RunCommand& run) {
  RunResult rr;
  CycleCommand cmd;
  cmd.row = run.row;
  cmd.background = run.background;
  cmd.scan = run.scan;
  std::size_t group = run.first_group;
  for (std::size_t k = 0; k < run.group_count; ++k) {
    cmd.col_group = group;
    for (std::size_t o = 0; o < run.op_count; ++o) {
      cmd.is_read = run.ops[o].is_read;
      cmd.value = run.ops[o].value;
      cmd.restore_row_transition = run.restore_last &&
                                   k + 1 == run.group_count &&
                                   o + 1 == run.op_count;
      const CycleResult r = reference_cycle(cmd);
      rr.faulty_swaps += r.faulty_swaps;
      if (cmd.is_read) rr.read_value = r.read_value;
      if (cmd.is_read && r.mismatch) {
        ++rr.mismatches;
        if (rr.detection_count < RunResult::kDetectionCap)
          rr.detections[rr.detection_count++] = {o, group, r.first_bad_col};
      }
    }
    group = run.descending ? group - 1 : group + 1;
  }
  return rr;
}

void SramArray::fast_run(const RunCommand& run, RunResult* rr) {
  // Pick the instantiation matching the attached sink once per run.
  if (!meter_.has_sink()) {
    fast_run_impl<Metering::kTotals>(run, rr);
  } else if (meter_.sink()->bulk_fold_supported()) {
    fast_run_impl<Metering::kFolded>(run, rr);
  } else {
    fast_run_impl<Metering::kEvents>(run, rr);
  }
}

template <SramArray::Metering kMetering>
void SramArray::fast_run_impl(const RunCommand& run, RunResult* out) {
  const Geometry& g = config_.geometry;
  const std::size_t w = g.word_width;
  const bool lp = config_.mode == Mode::kLowPowerTest;
  const double vdd = config_.tech.vdd;
  // The result may still hold an earlier run's (cycle() reuses one);
  // detections past detection_count are never read.
  RunResult& rr = *out;
  rr.mismatches = 0;
  rr.faulty_swaps = 0;
  rr.read_value = false;
  rr.detection_count = 0;

  // Row hand-over once for the whole run.
  bool entered = false;
  if (!active_row_ || *active_row_ != run.row) {
    rr.faulty_swaps = fast_enter_row(run.row);
    entered = true;
  }
  stats_.faulty_swaps += rr.faulty_swaps;

  // Materialized columns among the run's selected groups (a whole-row run
  // selects every column); scanning only those keeps a one-address run
  // O(word_width).
  const std::size_t span_first =
      (run.descending ? run.first_group + 1 - run.group_count
                      : run.first_group) *
      w;
  bool have_mat = false;
  for (std::size_t col = span_first; col < span_first + run.group_count * w;
       ++col) {
    if (cohort_of_[col] == kColMaterialized) {
      have_mat = true;
      break;
    }
  }
  // Per-cell hooks are needed only on rows the fault model can act on;
  // everywhere else the data path runs word-parallel (the model promised
  // its hooks are no-ops there — see CellFaultModel::relevant_rows).
  const bool hooked =
      faults_ != nullptr && (all_rows_hooked_ || hooked_rows_[run.row]);

  const std::size_t groups = groups_;
  const bool ascending = run.scan == Scan::kAscending;
  // Virtual-cohort mode: a clean whole-row LP sweep entered this call with
  // no materialized columns has a fully predictable decay structure —
  // every selected column stays exempt, the follower is always the row's
  // pre-op cohort on its first recharge and pre-charged afterwards, and
  // each group's post-op decay start is an arithmetic function of its
  // position.  The loop then touches no cohort state at all; the row's
  // cohorts are written out once at the end (or consumed by the restore).
  const std::uint64_t row_entry_cycle = cycle_;
  const bool virt = lp && entered && !have_mat && cohorts_.size() == 1 &&
                    cohorts_[0].start == cycle_ && cohorts_[0].pre_op &&
                    run.group_count == groups &&
                    (run.descending ? run.first_group + 1 == groups
                                    : run.first_group == 0) &&
                    (run.descending != ascending);

  // Path choice (see the file comment): the whole-row path when the run
  // qualifies and its reads all match, else the per-address loop below.
  // A one-address run (every cycle() call) has no repeated period for the
  // whole-row path to skip, so the loop serves it more cheaply.
  if constexpr (kMetering != Metering::kTotals) {
    ++run_paths_.traced;
  } else if (faults_ != nullptr) {
    ++run_paths_.faults;
  } else if (have_mat || (lp && !virt) || run.group_count == 1) {
    ++run_paths_.partial;
  } else if (whole_row_run(run, &rr)) {
    ++run_paths_.whole_row;
    end_run(run, virt);
    return;
  } else {
    ++run_paths_.mismatch;
  }

  // Meter accumulators and the hot statistics live in locals for the whole
  // run: each cycle performs exactly the additions the reference engine
  // performs, in the same order, so the written-back totals match it to
  // the bit.  store()/load() spill and reload them around the rare
  // per-column (materialized / restore) work that meters directly.
  // Fault hooks never touch the meter (they only see cells via force()),
  // so hook calls need no spill.  A raw-event sink (waveform writer) keeps
  // the statistics local but receives every event: acc() forwards it to
  // the meter, which stamps it with the cycle and ticks once per cycle.
  constexpr bool kTraced = kMetering == Metering::kFolded;
  constexpr bool kEvents = kMetering == Metering::kEvents;
  [[maybe_unused]] constexpr auto I = [](EnergySource s) constexpr {
    return static_cast<std::size_t>(s);
  };
  double* const totals = kEvents ? nullptr : meter_.raw_totals().data();
  // Traced runs additionally fold the sink's current-window and
  // current-element slot blocks: local copies receive the identical
  // per-slot addition sequences on_add would have performed, and are
  // written back at window boundaries and spill points — bit-identical
  // traces at batch speed (MeterSink::bulk_fold_supported contract).
  // The three mirrored accumulators of one source are interleaved as a
  // {window, element, total, pad} quad so one event's additions land in
  // one cache line and the window/element pair runs as a single lanewise
  // two-wide add; untraced runs keep the dense one-total-per-source
  // block.  Interleaving only regroups independent per-slot chains, so
  // the bits are unchanged.
  constexpr std::size_t kStride = kTraced ? 4 : 1;
  alignas(16) std::array<double, power::kEnergySourceCount * kStride> t{};
  power::MeterSink* const sink = kTraced ? meter_.sink() : nullptr;
  std::uint64_t win_cycles = 1;
  if constexpr (kTraced) win_cycles = sink->bulk_window_cycles();
  // The sink stamps events with the meter's cycle counter, which restarts
  // at reset_measurements() while cycle_ runs on; the two advance together
  // within a run, so the meter's cycle is cycle_ - meter_base throughout.
  const std::uint64_t meter_base = cycle_ - meter_.cycles();
  double* winp = nullptr;
  double* elemp = nullptr;
  std::uint64_t cur_window = 0;
  double equiv_post = 0.0;
  double equiv_pre = 0.0;
  std::uint64_t d_full_res = 0, d_reads = 0, d_writes = 0, d_mismatch = 0,
                d_cycles = 0;
  const auto load = [&] {
    equiv_post = stats_.decay_stress_equiv_post_op;
    equiv_pre = stats_.decay_stress_equiv_pre_op;
    if constexpr (kTraced) {
      // (Re-)acquire the sink's blocks: direct meter adds during a spill
      // fold windows and may reallocate the sink's slot storage.
      cur_window = (cycle_ - meter_base) / win_cycles;
      winp = sink->bulk_window_slots(cur_window);
      elemp = sink->bulk_element_slots();
      for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
        t[i * 4] = winp[i];
        t[i * 4 + 1] = elemp[i];
        t[i * 4 + 2] = totals[i];
      }
    } else if constexpr (!kEvents) {
      std::copy_n(totals, power::kEnergySourceCount, t.begin());
    }
  };
  const auto store = [&] {
    stats_.decay_stress_equiv_post_op = equiv_post;
    stats_.decay_stress_equiv_pre_op = equiv_pre;
    stats_.full_res_column_cycles += d_full_res;
    stats_.reads += d_reads;
    stats_.writes += d_writes;
    stats_.read_mismatches += d_mismatch;
    stats_.cycles += d_cycles;
    if constexpr (!kEvents) meter_.tick_cycles(d_cycles);
    d_full_res = d_reads = d_writes = d_mismatch = d_cycles = 0;
    if constexpr (kTraced) {
      for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
        winp[i] = t[i * 4];
        elemp[i] = t[i * 4 + 1];
        totals[i] = t[i * 4 + 2];
      }
    } else if constexpr (!kEvents) {
      std::copy_n(t.begin(), power::kEnergySourceCount, totals);
    }
  };
  // One metered event: the totals always; the trace's window / element
  // chains only for supply-drawn sources (PowerTrace::on_add skips
  // stored-charge stress the same way).  Mirroring an exact 0.0 is a
  // bitwise no-op on the non-negative accumulators, matching the sink's
  // zero-event skip.
  using V2 = double __attribute__((vector_size(16), may_alias));
  const auto acc = [&](EnergySource s, double e) {
    if constexpr (kTraced) {
      double* const p = t.data() + I(s) * 4;
      if (power::info(s).supply_drawn) {
        // Lanewise two-wide add: each lane is the identical scalar IEEE
        // addition, just issued as one aligned instruction.
        *reinterpret_cast<V2*>(p) += V2{e, e};
      }
      p[2] += e;
    } else if constexpr (kEvents) {
      meter_.add(s, e);
    } else {
      t[I(s)] += e;
    }
  };
  load();

  // Per-address operation counts and the run-edge bookkeeping are
  // loop-invariant: accumulate them per address / per run, not per cycle.
  std::uint64_t reads_per_addr = 0;
  for (std::size_t o = 0; o < run.op_count; ++o)
    if (run.ops[o].is_read) ++reads_per_addr;
  const std::uint64_t writes_per_addr = run.op_count - reads_per_addr;
  const bool first_group_advance =
      !last_col_group_ || *last_col_group_ != run.first_group;
  std::size_t group = run.first_group;
  for (std::size_t k = 0; k < run.group_count; ++k) {
    const std::size_t first_col = group * w;
    bool has_follower = false;
    std::size_t follower_first = 0;
    if (lp) {
      if (ascending && group + 1 < groups) {
        has_follower = true;
        follower_first = (group + 1) * w;
      } else if (!ascending && group > 0) {
        has_follower = true;
        follower_first = (group - 1) * w;
      }
    }
    const bool group_advance = k != 0 || first_group_advance;
    // Every address runs the same operations, so the run's last read (the
    // one RunResult::read_value reports) happens at its last address.
    const bool last_address = k + 1 == run.group_count;
    d_reads += reads_per_addr;
    d_writes += writes_per_addr;

    for (std::size_t o = 0; o < run.op_count; ++o) {
      const RunOp op = run.ops[o];
      const bool restore = run.restore_last && k + 1 == run.group_count &&
                           o + 1 == run.op_count;

      if constexpr (kTraced) {
        if ((cycle_ - meter_base) / win_cycles != cur_window) {
          // Entering a new window with a cycle still to run: finish the
          // old block, acquire the new one (acquisition finalizes every
          // window below it).  Doing this before the cycle's first event
          // — rather than right after ++cycle_ — means a window past the
          // run's final event never materializes, matching on_add
          // delivery, which only creates a window when an add lands in it.
          for (std::size_t i = 0; i < power::kEnergySourceCount; ++i)
            winp[i] = t[i * 4];
          cur_window = (cycle_ - meter_base) / win_cycles;
          winp = sink->bulk_window_slots(cur_window);
          for (std::size_t i = 0; i < power::kEnergySourceCount; ++i)
            t[i * 4] = winp[i];
        }
      }

      // --- peripheral (charge_peripheral) -----------------------------
      acc(EnergySource::kWordline, e_.wordline);
      acc(EnergySource::kDecoder, e_.decoder);
      acc(EnergySource::kAddressBus, e_.address_bus);
      acc(EnergySource::kClockTree, e_.clock_tree);
      acc(EnergySource::kMemoryControl, e_.control_base);

      // --- selected column state ---------------------------------------
      // Bring every selected column to pre-charged VDD, folding residual
      // decay exactly like the reference engine (including its
      // back-to-back multi-op exemption).
      // Virtual mode: the selected group is provably exempt or
      // pre-charged on every cycle of the sweep — no state, no energy.
      // Functional runs without materialized columns are all-pre-charged
      // by construction.
      if (!virt && (lp || have_mat)) {
        for (std::size_t b = 0; b < w; ++b) {
          const std::size_t col = first_col + b;
          const std::uint32_t tag = cohort_of_[col];
          if (tag == kColPrecharged) continue;
          if (tag != kColMaterialized && cycle_ - cohorts_[tag].start <= 1) {
            cohort_of_[col] = kColPrecharged;  // back-to-back exemption
            continue;
          }
          if (tag == kColMaterialized) {
            ColumnState& s = columns_[col];
            if (s.connected && cycle_ - s.since <= 1 &&
                s.v_bl >= vdd - 1e-3 && s.v_blb >= vdd - 1e-3) {
              s.v_bl = vdd;
              s.v_blb = vdd;
              s.connected = false;
              s.pre_op_phase = false;
              s.since = cycle_;
              if (!always_materialized_[col])
                cohort_of_[col] = kColPrecharged;
              continue;
            }
          }
          store();
          if (cohort_of_[col] != kColMaterialized) materialize_column(col);
          recharge(col, EnergySource::kPrechargeNextColumn);
          if (!always_materialized_[col]) cohort_of_[col] = kColPrecharged;
          load();
        }
      }

      // --- operation phase --------------------------------------------
      bool mismatch = false;
      std::size_t first_bad_col = 0;
      if (hooked) {
        for (std::size_t b = 0; b < w; ++b) {
          const std::size_t col = first_col + b;
          const CellCoord cell{run.row, col};
          const bool stored_v = cells_.get_unchecked(cell.row, cell.col);
          const bool physical =
              run.background.physical(op.value, cell.row, cell.col);
          if (op.is_read) {
            bool stored_after = stored_v;
            const bool sensed =
                faults_->read_result(cell, stored_v, &stored_after);
            if (stored_after != stored_v)
              cells_.set_unchecked(cell.row, cell.col, stored_after);
            if (sensed != physical) {
              if (!mismatch) first_bad_col = col;
              mismatch = true;
              faults_->on_read_mismatch(cell);
            }
            if (last_address) rr.read_value = sensed;
            acc(EnergySource::kSenseAmp, e_.sense_amp);
            acc(EnergySource::kDataIo, e_.data_io);
            acc(EnergySource::kPrechargeRestoreRead, e_.read_restore);
            acc(EnergySource::kCellRes, e_.cell_res);
          } else {
            const bool effective =
                faults_->write_result(cell, stored_v, physical);
            cells_.set_unchecked(cell.row, cell.col, effective);
            faults_->after_write(*this, cell, stored_v, effective);
            acc(EnergySource::kWriteDriver, e_.write_driver);
            acc(EnergySource::kDataIo, e_.data_io);
            acc(EnergySource::kPrechargeRestoreWrite, e_.write_restore);
          }
        }
      } else {
        if (w == 1) {
          const bool physical =
              run.background.physical(op.value, run.row, first_col);
          if (op.is_read) {
            if (cells_.get_unchecked(run.row, first_col) != physical) {
              mismatch = true;
              first_bad_col = first_col;
              // Attribution channel even on word-parallel rows: a model's
              // relevant_rows promise covers its hooks, not where a cell
              // it corrupted elsewhere gets read back.
              if (faults_ != nullptr)
                faults_->on_read_mismatch({run.row, first_col});
            }
          } else {
            cells_.set_unchecked(run.row, first_col, physical);
          }
        } else {
          // Word-parallel data path: one 64-periodic pattern word describes
          // the whole group's expected physical data (every background's
          // column period divides 64); mismatching reads — the rare case —
          // decompose per 64-bit chunk.
          const std::uint64_t pattern =
              (op.value ? ~std::uint64_t{0} : std::uint64_t{0}) ^
              run.background.bits(run.row, first_col,
                                  std::min<std::size_t>(64, w));
          if (op.is_read) {
            if (!cells_.row_matches_pattern(run.row, first_col, w,
                                            pattern)) {
              for (std::size_t c0 = first_col; c0 < first_col + w;
                   c0 += 64) {
                const std::size_t nb =
                    std::min<std::size_t>(64, first_col + w - c0);
                std::uint64_t diff = cells_.row_bits(run.row, c0, nb) ^
                                     (pattern & low_bit_mask(nb));
                if (diff != 0) {
                  if (!mismatch)
                    first_bad_col =
                        c0 +
                        static_cast<std::size_t>(std::countr_zero(diff));
                  mismatch = true;
                  if (faults_ != nullptr) {
                    for (; diff != 0; diff &= diff - 1)
                      faults_->on_read_mismatch(
                          {run.row, c0 + static_cast<std::size_t>(
                                             std::countr_zero(diff))});
                  }
                }
              }
            }
          } else {
            cells_.fill_row_pattern(run.row, first_col, w, pattern);
          }
        }
        if (op.is_read) {
          // A read leaves these cells as it sensed them.
          if (last_address)
            rr.read_value = cells_.get_unchecked(run.row, first_col + w - 1);
          for (std::size_t b = 0; b < w; ++b) {
            acc(EnergySource::kSenseAmp, e_.sense_amp);
            acc(EnergySource::kDataIo, e_.data_io);
            acc(EnergySource::kPrechargeRestoreRead, e_.read_restore);
            acc(EnergySource::kCellRes, e_.cell_res);
          }
        } else {
          for (std::size_t b = 0; b < w; ++b) {
            acc(EnergySource::kWriteDriver, e_.write_driver);
            acc(EnergySource::kDataIo, e_.data_io);
            acc(EnergySource::kPrechargeRestoreWrite, e_.write_restore);
          }
        }
      }
      if (mismatch) {
        ++d_mismatch;
        ++rr.mismatches;
        if (rr.detection_count < RunResult::kDetectionCap)
          rr.detections[rr.detection_count++] = {o, group, first_bad_col};
      }

      // --- unselected columns -----------------------------------------
      if (!lp) {
        acc(EnergySource::kPrechargeResFight, e_.others_res_fight);
        acc(EnergySource::kCellRes, e_.others_cell_res);
        d_full_res += g.cols - w;
        if (faults_ != nullptr) {
          for (std::size_t col : sensitive_by_row_[run.row]) {
            if (col < first_col || col >= first_col + w)
              faults_->on_res(*this, {run.row, col}, 1.0);
          }
        }
      } else if (restore) {
        if (virt) {
          // Everything the restore recharges is a post-op cohort whose
          // decay start is arithmetic in its scan position; walk groups
          // in column order, exactly like the tag-driven path would.
          // Folded through the local accumulators (the unrolled
          // cohort_recharge_bulk + full_res_bulk repeated-addition
          // sequence) rather than spilling: a traced run would otherwise
          // pay one sink dispatch per bulk add for every group of the
          // row, which dominates the whole traced sweep.
          for (std::size_t gi = 0; gi < groups; ++gi) {
            if (gi == group) continue;
            const std::size_t scan_index =
                run.descending ? run.first_group - gi : gi;
            const Cohort kc{
                row_entry_cycle + run.op_count * (scan_index + 1),
                /*pre_op=*/false};
            const CohortEval ev = eval_cohort(kc);
            for (std::size_t b = 0; b < w; ++b) {
              if (ev.stress_j > 0.0)
                acc(EnergySource::kBitlineDecayStress, ev.stress_j);
              equiv_post += ev.equiv;
              if (ev.dv > 0.0)
                acc(EnergySource::kRowTransitionRestore, ev.recharge_e);
              acc(EnergySource::kPrechargeResFight, e_.res_fight);
              acc(EnergySource::kCellRes, e_.cell_res);
              ++d_full_res;
            }
          }
          acc(EnergySource::kLpTestDriver, e_.lptest_driver);
          ++stats_.restore_cycles;
        } else {
          store();
          fast_restore_cycle(run.row, first_col);
          load();
        }
      } else {
        if (has_follower) {
          if (virt) {
            // First op on an address recharges the follower out of the
            // row's pre-op cohort; later ops find it pre-charged.
            if (o == 0) {
              const Cohort kc{row_entry_cycle, /*pre_op=*/true};
              const CohortEval ev = eval_cohort(kc);
              for (std::size_t b = 0; b < w; ++b) {
                if (ev.stress_j > 0.0)
                  acc(EnergySource::kBitlineDecayStress, ev.stress_j);
                equiv_pre += ev.equiv;
                if (ev.dv > 0.0)
                  acc(EnergySource::kPrechargeNextColumn, ev.recharge_e);
                acc(EnergySource::kPrechargeResFight, e_.res_fight);
                acc(EnergySource::kCellRes, e_.cell_res);
                ++d_full_res;
              }
            } else {
              for (std::size_t b = 0; b < w; ++b) {
                acc(EnergySource::kPrechargeResFight, e_.res_fight);
                acc(EnergySource::kCellRes, e_.cell_res);
                ++d_full_res;
              }
            }
          } else {
            for (std::size_t b = 0; b < w; ++b) {
              const std::size_t col = follower_first + b;
              const std::uint32_t tag = cohort_of_[col];
              if (tag == kColPrecharged) {
                acc(EnergySource::kPrechargeResFight, e_.res_fight);
                acc(EnergySource::kCellRes, e_.cell_res);
                ++d_full_res;
              } else if (tag == kColMaterialized) {
                store();
                recharge(col, EnergySource::kPrechargeNextColumn);
                apply_full_res(run.row, col);
                if (!always_materialized_[col])
                  cohort_of_[col] = kColPrecharged;
                load();
              } else {
                const Cohort& kc = cohorts_[tag];
                const CohortEval ev = eval_cohort(kc);
                if (ev.stress_j > 0.0)
                  acc(EnergySource::kBitlineDecayStress, ev.stress_j);
                if (kc.pre_op)
                  equiv_pre += ev.equiv;
                else
                  equiv_post += ev.equiv;
                if (ev.dv > 0.0)
                  acc(EnergySource::kPrechargeNextColumn, ev.recharge_e);
                acc(EnergySource::kPrechargeResFight, e_.res_fight);
                acc(EnergySource::kCellRes, e_.cell_res);
                ++d_full_res;
                cohort_of_[col] = kColPrecharged;
              }
            }
          }
        }
        if (o == 0 && group_advance)
          acc(EnergySource::kControlLogic, e_.control_element_group);

        // Selected group: post-operation decay from the next cycle on.
        // (Virtual mode defers the whole row's cohort write-out.)
        if (!virt) {
          const std::uint32_t post_cohort =
              static_cast<std::uint32_t>(cohorts_.size());
          cohorts_.push_back(Cohort{cycle_ + 1, /*pre_op=*/false});
          for (std::size_t b = 0; b < w; ++b) {
            const std::size_t col = first_col + b;
            if (always_materialized_[col])
              begin_decay(col, /*pre_op=*/false);
            else
              cohort_of_[col] = post_cohort;
          }
          if (cohorts_.size() > 2 * g.cols + 64) compact_cohorts();
        }
      }
      if (!lp && have_mat) {
        for (std::size_t b = 0; b < w; ++b) {
          const std::size_t col = first_col + b;
          if (cohort_of_[col] == kColMaterialized) {
            columns_[col].v_bl = vdd;
            columns_[col].v_blb = vdd;
            columns_[col].connected = false;
            columns_[col].since = cycle_;
          } else {
            cohort_of_[col] = kColPrecharged;
          }
        }
      }

      ++cycle_;
      ++d_cycles;
      if constexpr (kEvents) meter_.tick_cycle();
    }
    group = run.descending ? group - 1 : group + 1;
  }
  store();
  end_run(run, virt);
}

// Out of line on purpose: inlined into fast_run_impl (its only caller), it
// shares that function's register pressure, and fault-free functional
// sessions ran about 10% slower.
[[gnu::noinline]] bool SramArray::whole_row_run(const RunCommand& run,
                                                RunResult* rr) {
  const Geometry& g = config_.geometry;
  const std::size_t w = g.word_width;
  const std::size_t addrs = run.group_count;
  const bool lp = config_.mode == Mode::kLowPowerTest;
  constexpr auto I = [](EnergySource s) constexpr {
    return static_cast<std::size_t>(s);
  };

  // --- data path, the whole row word-parallel ------------------------------
  // Each address's operations touch only its own group's cells, so checking
  // every read against the whole row and applying the element's last write
  // once leaves the cells exactly as the per-address loop would — provided
  // no read mismatches.  Reads before the element's first write see the row
  // as it is; reads after a write see that write's data, so they compare
  // logical values.  A mismatch returns before any cell or meter changes.
  const std::size_t first_col =
      (run.descending ? run.first_group + 1 - addrs : run.first_group) * w;
  const std::size_t span = addrs * w;
  const std::uint64_t bg = run.background.bits(
      run.row, first_col, std::min<std::size_t>(64, span));
  const auto pattern = [bg](bool value) {
    return (value ? ~std::uint64_t{0} : std::uint64_t{0}) ^ bg;
  };
  std::optional<bool> written;
  std::uint64_t reads_per_addr = 0;
  bool last_read = false;
  for (std::size_t o = 0; o < run.op_count; ++o) {
    const RunOp op = run.ops[o];
    if (!op.is_read) {
      written = op.value;
      continue;
    }
    ++reads_per_addr;
    last_read = op.value;
    if (written ? *written != op.value
                : !cells_.row_matches_pattern(run.row, first_col, span,
                                              pattern(op.value)))
      return false;
  }
  if (written)
    cells_.fill_row_pattern(run.row, first_col, span, pattern(*written));
  if (reads_per_addr != 0) {
    // The run's last read (at its last address, the lowest group of a
    // descending run) sensed the expected data.
    const std::size_t last_bit =
        (run.descending ? first_col + w : first_col + span) - 1;
    rr->read_value = run.background.physical(last_read, run.row, last_bit);
  }

  // --- meter ------------------------------------------------------------------
  // Every address adds the same constants to each accumulator, except the
  // first (the control element switches only on a group advance) and the
  // last (no follower; the restore).  One address's additions to a source
  // form a period that repeat_add applies to all the middle addresses at
  // once; the accumulators are independent chains, so source by source is
  // the per-address loop's order.
  auto& totals = meter_.raw_totals();
  const bool first_group_advance =
      !last_col_group_ || *last_col_group_ != run.first_group;
  const auto add_addresses = [&](std::size_t k, std::uint64_t times) {
    for (auto& seq : period_) seq.clear();
    const auto put = [&](EnergySource s, double e, std::size_t count) {
      auto& seq = period_[I(s)];
      // Most puts are one addition; push_back keeps them off the generic
      // fill-insert path.
      if (count == 1)
        seq.push_back(e);
      else
        seq.insert(seq.end(), count, e);
    };
    const bool last = k + 1 == addrs;
    for (std::size_t o = 0; o < run.op_count; ++o) {
      put(EnergySource::kWordline, e_.wordline, 1);
      put(EnergySource::kDecoder, e_.decoder, 1);
      put(EnergySource::kAddressBus, e_.address_bus, 1);
      put(EnergySource::kClockTree, e_.clock_tree, 1);
      put(EnergySource::kMemoryControl, e_.control_base, 1);
      if (run.ops[o].is_read) {
        put(EnergySource::kSenseAmp, e_.sense_amp, w);
        put(EnergySource::kDataIo, e_.data_io, w);
        put(EnergySource::kPrechargeRestoreRead, e_.read_restore, w);
        put(EnergySource::kCellRes, e_.cell_res, w);
      } else {
        put(EnergySource::kWriteDriver, e_.write_driver, w);
        put(EnergySource::kDataIo, e_.data_io, w);
        put(EnergySource::kPrechargeRestoreWrite, e_.write_restore, w);
      }
      if (!lp) {
        put(EnergySource::kPrechargeResFight, e_.others_res_fight, 1);
        put(EnergySource::kCellRes, e_.others_cell_res, 1);
      } else if (last && run.restore_last && o + 1 == run.op_count) {
        put(EnergySource::kPrechargeResFight, e_.res_fight, (addrs - 1) * w);
        put(EnergySource::kCellRes, e_.cell_res, (addrs - 1) * w);
        put(EnergySource::kLpTestDriver, e_.lptest_driver, 1);
      } else {
        if (!last) {
          put(EnergySource::kPrechargeResFight, e_.res_fight, w);
          put(EnergySource::kCellRes, e_.cell_res, w);
        }
        if (o == 0 && (k != 0 || first_group_advance))
          put(EnergySource::kControlLogic, e_.control_element_group, 1);
      }
    }
    for (std::size_t i = 0; i < power::kEnergySourceCount; ++i)
      if (!period_[i].empty())
        totals[i] = repeat_add(totals[i], period_[i].data(),
                               period_[i].size(), times);
  };
  add_addresses(0, 1);
  if (addrs > 2) add_addresses(1, addrs - 2);
  if (addrs > 1) add_addresses(addrs - 1, 1);

  const std::uint64_t cycles = addrs * run.op_count;
  if (lp) {
    // The decay terms differ per address: one serial pass each, folded into
    // local copies of the chains they feed (kept in registers, not reloaded
    // through the meter on every address).
    double stress = totals[I(EnergySource::kBitlineDecayStress)];
    double equiv = stats_.decay_stress_equiv_pre_op;
    double recharge = totals[I(EnergySource::kPrechargeNextColumn)];
    const auto fold = [&](const CohortEval& ev) {
      if (ev.stress_j > 0.0) stress = repeat_add(stress, ev.stress_j, w);
      equiv = repeat_add(equiv, ev.equiv, w);
      if (ev.dv > 0.0) recharge = repeat_add(recharge, ev.recharge_e, w);
    };
    // Address k recharges its follower out of the row's pre-op cohort
    // k * op_count cycles after the row entry (this run's first cycle) ...
    for (std::size_t k = 0; k + 1 < addrs; ++k)
      fold(eval_elapsed(k * run.op_count));
    stats_.decay_stress_equiv_pre_op = equiv;
    totals[I(EnergySource::kPrechargeNextColumn)] = recharge;
    // ... and the restore, on the run's last cycle, recharges every other
    // group, in column order, out of the post-op cohort that began decaying
    // the cycle after the group's last operation.
    if (run.restore_last) {
      const std::uint64_t restore_cycle = cycle_ + cycles - 1;
      const std::size_t last_group = run.descending ? 0 : addrs - 1;
      equiv = stats_.decay_stress_equiv_post_op;
      recharge = totals[I(EnergySource::kRowTransitionRestore)];
      for (std::size_t gi = 0; gi < addrs; ++gi) {
        if (gi == last_group) continue;
        const std::size_t scan_index =
            run.descending ? run.first_group - gi : gi;
        const std::uint64_t start = cycle_ + run.op_count * (scan_index + 1);
        fold(eval_elapsed(start >= restore_cycle ? 0 : restore_cycle - start));
      }
      stats_.decay_stress_equiv_post_op = equiv;
      totals[I(EnergySource::kRowTransitionRestore)] = recharge;
      ++stats_.restore_cycles;
    }
    totals[I(EnergySource::kBitlineDecayStress)] = stress;
    stats_.full_res_column_cycles +=
        (addrs - 1) * w * (run.op_count + (run.restore_last ? 1 : 0));
  } else {
    stats_.full_res_column_cycles += cycles * (g.cols - w);
  }
  stats_.reads += reads_per_addr * addrs;
  stats_.writes += (run.op_count - reads_per_addr) * addrs;
  stats_.cycles += cycles;
  meter_.tick_cycles(cycles);
  cycle_ += cycles;
  return true;
}

void SramArray::end_run(const RunCommand& run, bool virt) {
  const std::size_t w = config_.geometry.word_width;
  const std::size_t groups = groups_;
  const bool lp = config_.mode == Mode::kLowPowerTest;
  const bool ascending = run.scan == Scan::kAscending;
  if (virt && run.restore_last) {
    // The restore left every column pre-charged.
    std::fill(cohort_of_.begin(), cohort_of_.end(), kColPrecharged);
    cohorts_.clear();
  } else if (virt) {
    // Materialize the row's deferred cohort structure: one post-op cohort
    // per group, decay start arithmetic in the scan position — the exact
    // state tracking the cohorts cycle by cycle would have accumulated.
    const std::uint64_t row_entry_cycle =
        cycle_ - run.group_count * run.op_count;
    cohorts_.clear();
    for (std::size_t gi = 0; gi < groups; ++gi) {
      const std::size_t scan_index =
          run.descending ? run.first_group - gi : gi;
      const std::uint32_t id = static_cast<std::uint32_t>(cohorts_.size());
      cohorts_.push_back(Cohort{
          row_entry_cycle + run.op_count * (scan_index + 1),
          /*pre_op=*/false});
      for (std::size_t b = 0; b < w; ++b) cohort_of_[gi * w + b] = id;
    }
  }
  // Run-edge bookkeeping: nothing inside a run reads these, so the
  // per-cycle stores collapse to the final values.
  const std::size_t last_group =
      run.descending ? run.first_group - (run.group_count - 1)
                     : run.first_group + (run.group_count - 1);
  restored_last_cycle_ = lp && run.restore_last;
  last_col_group_ = last_group;

  // Diagnostics snapshot: the outline of the run's final cycle.
  snap_.valid = true;
  snap_.all_on = !lp || run.restore_last;
  snap_.first_col = last_group * w;
  snap_.width = w;
  snap_.has_follower = false;
  if (lp && !run.restore_last) {
    if (ascending && last_group + 1 < groups) {
      snap_.has_follower = true;
      snap_.follower_first = (last_group + 1) * w;
    } else if (!ascending && last_group > 0) {
      snap_.has_follower = true;
      snap_.follower_first = (last_group - 1) * w;
    }
  }
}

double SramArray::bitline_low_side_voltage(std::size_t col) const {
  SRAMLP_REQUIRE(col < config_.geometry.cols, "column out of range");
  double v_bl = 0.0;
  double v_blb = 0.0;
  if (!fast_ || cohort_of_[col] == kColMaterialized) {
    evaluate(columns_[col], col, &v_bl, &v_blb);
  } else if (cohort_of_[col] == kColPrecharged) {
    v_bl = config_.tech.vdd;
    v_blb = config_.tech.vdd;
  } else {
    const Cohort& k = cohorts_[cohort_of_[col]];
    const ColumnState ghost{config_.tech.vdd, config_.tech.vdd, k.start, true,
                            k.pre_op};
    evaluate(ghost, col, &v_bl, &v_blb);
  }
  return std::min(v_bl, v_blb);
}

bool SramArray::precharge_was_active(std::size_t col) const {
  SRAMLP_REQUIRE(col < config_.geometry.cols, "column out of range");
  if (!fast_) return precharge_active_[col];
  if (!snap_.valid) return config_.mode == Mode::kFunctional;
  if (snap_.all_on) return true;
  if (col >= snap_.first_col && col < snap_.first_col + snap_.width)
    return true;
  return snap_.has_follower && col >= snap_.follower_first &&
         col < snap_.follower_first + snap_.width;
}

}  // namespace sramlp::sram
