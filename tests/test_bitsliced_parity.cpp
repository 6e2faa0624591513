// Bit-exact parity between the two SramArray column engines: the default
// bitsliced/decay-cohort fast path must reproduce the per-column reference
// engine to the last bit — supply energy, every per-source meter total,
// ArrayStats, detections, faulty swaps and cell contents — across
// functional, low-power, restore-disabled and single-fault runs, on square
// and awkward (non-square, non-power-of-two, word-oriented) geometries, and
// under non-WLAWL address orders, whose cycles each run through cycle().
// Also covers the whole-row batch executor (StreamRun / execute_run)
// against the per-step path, and the lazy column state surviving
// reset_measurements().
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "engine/cycle_accurate_backend.h"
#include "faults/models.h"
#include "march/address_order.h"
#include "march/algorithms.h"
#include "march/parser.h"
#include "power/energy_source.h"
#include "power/trace.h"
#include "sram/array.h"

namespace {

using namespace sramlp;
using core::SessionConfig;
using core::SessionResult;
using core::TestSession;
using sram::ColumnModel;
using sram::CycleCommand;
using sram::Mode;
using sram::SramArray;
using sram::SramConfig;

void expect_meters_identical(const power::EnergyMeter& a,
                             const power::EnergyMeter& b,
                             const std::string& where) {
  EXPECT_EQ(a.cycles(), b.cycles()) << where;
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto source = static_cast<power::EnergySource>(i);
    EXPECT_EQ(a.total(source), b.total(source))
        << where << " source=" << power::to_string(source);
  }
  EXPECT_EQ(a.supply_total(), b.supply_total()) << where;
}

void expect_stats_identical(const sram::ArrayStats& a,
                            const sram::ArrayStats& b,
                            const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.read_mismatches, b.read_mismatches) << where;
  EXPECT_EQ(a.faulty_swaps, b.faulty_swaps) << where;
  EXPECT_EQ(a.row_transitions, b.row_transitions) << where;
  EXPECT_EQ(a.restore_cycles, b.restore_cycles) << where;
  EXPECT_EQ(a.full_res_column_cycles, b.full_res_column_cycles) << where;
  EXPECT_EQ(a.decay_stress_equiv_post_op, b.decay_stress_equiv_post_op)
      << where;
  EXPECT_EQ(a.decay_stress_equiv_pre_op, b.decay_stress_equiv_pre_op)
      << where;
}

void expect_results_identical(const SessionResult& ref,
                              const SessionResult& fast,
                              const std::string& where) {
  EXPECT_EQ(ref.cycles, fast.cycles) << where;
  EXPECT_EQ(ref.supply_energy_j, fast.supply_energy_j) << where;
  EXPECT_EQ(ref.energy_per_cycle_j, fast.energy_per_cycle_j) << where;
  EXPECT_EQ(ref.mismatches, fast.mismatches) << where;
  expect_meters_identical(ref.meter, fast.meter, where);
  expect_stats_identical(ref.stats, fast.stats, where);
  ASSERT_EQ(ref.first_detections.size(), fast.first_detections.size())
      << where;
  for (std::size_t i = 0; i < ref.first_detections.size(); ++i) {
    EXPECT_EQ(ref.first_detections[i].element,
              fast.first_detections[i].element)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].op, fast.first_detections[i].op)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].row, fast.first_detections[i].row)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].col_group,
              fast.first_detections[i].col_group)
        << where << " det " << i;
    EXPECT_EQ(ref.first_detections[i].col, fast.first_detections[i].col)
        << where << " det " << i;
  }
}

/// Run @p test under both column engines and require bit-exact agreement,
/// including final cell contents.
void expect_session_parity_specs(SessionConfig config,
                                 const march::MarchTest& test,
                                 const std::vector<faults::FaultSpec>& specs,
                                 const std::string& where) {
  SessionResult results[2];
  std::vector<bool> cells[2];
  for (int m = 0; m < 2; ++m) {
    config.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                 : ColumnModel::kBitslicedCohort;
    TestSession session(config);
    faults::FaultSet set(specs);
    if (!specs.empty()) session.attach_fault_model(&set);
    results[m] = session.run(test);
    for (std::size_t r = 0; r < config.geometry.rows; ++r)
      for (std::size_t c = 0; c < config.geometry.cols; ++c)
        cells[m].push_back(session.array().peek(r, c));
  }
  expect_results_identical(results[0], results[1], where);
  EXPECT_EQ(cells[0], cells[1]) << where << " (cell contents)";
}

void expect_session_parity(const SessionConfig& config,
                           const march::MarchTest& test,
                           const faults::FaultSpec* fault,
                           const std::string& where) {
  std::vector<faults::FaultSpec> specs;
  if (fault != nullptr) specs.push_back(*fault);
  expect_session_parity_specs(config, test, specs, where);
}

SessionConfig grid_config(Mode mode, std::size_t rows, std::size_t cols,
                          std::size_t word_width = 1) {
  SessionConfig cfg;
  cfg.geometry = {rows, cols, word_width};
  cfg.mode = mode;
  return cfg;
}

/// Address orders other than word-line-after-word-line.  The stream cannot
/// batch them into rows, so every cycle reaches SramArray::cycle(), and a
/// low-power request falls back to functional mode (paper §4).
std::vector<std::pair<std::string, march::AddressOrder>> non_wlawl_orders(
    const sram::Geometry& g) {
  const std::size_t groups = g.col_groups();
  return {{"fast_row", march::AddressOrder::fast_row(g.rows, groups)},
          {"pseudo_random",
           march::AddressOrder::pseudo_random(g.rows, groups, 11)},
          {"gray_code", march::AddressOrder::gray_code(g.rows, groups)},
          {"address_complement",
           march::AddressOrder::address_complement(g.rows, groups)}};
}

/// Geometries the non-WLAWL order inputs run on: bit- and word-oriented,
/// non-power-of-two.
struct OrderGeo {
  std::size_t rows, cols, w;
};
constexpr OrderGeo kOrderGeos[] = {{8, 24, 1}, {6, 20, 4}, {5, 14, 2}};

// --- fault-free parity across modes, geometries, backgrounds ----------------

TEST(BitslicedParity, FaultFreeAcrossModesAndAwkwardGeometries) {
  // Non-square, non-power-of-two and word-oriented organisations exercise
  // the packing and cohort math off the easy 512x512 path.
  struct Geo {
    std::size_t rows, cols, w;
  };
  const Geo geos[] = {{8, 8, 1}, {48, 96, 1}, {33, 17, 1}, {16, 96, 4}};
  for (const auto& test :
       {march::algorithms::mats_plus(), march::algorithms::march_c_minus()}) {
    for (const Geo& geo : geos) {
      for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
        SessionConfig cfg = grid_config(mode, geo.rows, geo.cols, geo.w);
        const std::string where =
            test.name() + " " + std::to_string(geo.rows) + "x" +
            std::to_string(geo.cols) + "/w" + std::to_string(geo.w) +
            (mode == Mode::kFunctional ? " F" : " LP");
        expect_session_parity(cfg, test, nullptr, where);
      }
    }
  }
  // Non-WLAWL orders: one cycle() per address.
  for (const auto& test :
       {march::algorithms::march_c_minus(), march::algorithms::march_ss()}) {
    for (const OrderGeo& geo : kOrderGeos) {
      SessionConfig cfg =
          grid_config(Mode::kLowPowerTest, geo.rows, geo.cols, geo.w);
      for (const auto& [name, order] : non_wlawl_orders(cfg.geometry)) {
        cfg.order = order;
        expect_session_parity(
            cfg, test, nullptr,
            test.name() + " " + std::to_string(geo.rows) + "x" +
                std::to_string(geo.cols) + "/w" + std::to_string(geo.w) +
                " " + name);
      }
    }
  }
}

TEST(BitslicedParity, PaperWidthRowsWithDeepDecay) {
  // 512-column rows push pre-op decay thousands of cycles deep (the decay
  // factor underflows to exactly 0.0 past ~e^-700) and exercise the memo
  // cap; a reduced row count keeps the reference engine affordable.
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 8, 512);
    expect_session_parity(cfg, march::algorithms::march_c_minus(), nullptr,
                          mode == Mode::kFunctional ? "8x512 F" : "8x512 LP");
  }
}

TEST(BitslicedParity, BackgroundsAndInvertedData) {
  const auto test = march::algorithms::march_c_minus();
  for (const auto kind : sram::DataBackground::kinds()) {
    SessionConfig cfg = grid_config(Mode::kLowPowerTest, 12, 24);
    cfg.background = sram::DataBackground(kind);
    expect_session_parity(cfg, test, nullptr,
                          "background " + cfg.background.name());
  }
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 12, 24);
  cfg.invert_background = true;
  expect_session_parity(cfg, test, nullptr, "inverted background");
}

TEST(BitslicedParity, DelayElementsAndIdleWindows) {
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 6, 16);
  expect_session_parity(cfg, march::algorithms::march_g_with_delays(),
                        nullptr, "march G with delays");
}

// --- restore-disabled (faulty-swap) parity ----------------------------------

TEST(BitslicedParity, RestoreDisabledReproducesFaultySwapsExactly) {
  for (const auto& geo : {std::pair<std::size_t, std::size_t>{8, 32},
                          std::pair<std::size_t, std::size_t>{33, 17}}) {
    SessionConfig cfg = grid_config(Mode::kLowPowerTest, geo.first,
                                    geo.second);
    cfg.row_transition_restore = false;
    expect_session_parity(cfg, march::algorithms::mats_plus(), nullptr,
                          "restore-disabled " + std::to_string(geo.first) +
                              "x" + std::to_string(geo.second));
  }
}

// --- single-fault parity ------------------------------------------------------

TEST(BitslicedParity, SingleFaultRunsAcrossKinds) {
  const auto test = march::algorithms::march_sr();
  const faults::FaultSpec specs[] = {
      {.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
      {.kind = faults::FaultKind::kTransitionUp, .victim = {7, 0}},
      {.kind = faults::FaultKind::kReadDestructive, .victim = {1, 14}},
      {.kind = faults::FaultKind::kCouplingInversion,
       .victim = {2, 9},
       .aggressor = {5, 4}},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {4, 11},
       .res_threshold = 12.0},
  };
  for (const auto& spec : specs) {
    for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
      SessionConfig cfg = grid_config(mode, 12, 20);
      expect_session_parity(cfg, test, &spec,
                            spec.describe() +
                                (mode == Mode::kFunctional ? " F" : " LP"));
    }
  }
  // Every fault of the standard library under the non-WLAWL orders, whose
  // cycles each run as a one-address run (read values and detections come
  // back through CycleResult).
  for (const auto& order_test :
       {march::algorithms::march_c_minus(), march::algorithms::march_ss()}) {
    for (const OrderGeo& geo : kOrderGeos) {
      SessionConfig cfg =
          grid_config(Mode::kLowPowerTest, geo.rows, geo.cols, geo.w);
      const auto library = faults::standard_fault_library(cfg.geometry);
      for (const auto& [name, order] : non_wlawl_orders(cfg.geometry)) {
        cfg.order = order;
        for (const auto& spec : library)
          expect_session_parity(cfg, order_test, &spec,
                                order_test.name() + " " + name + " " +
                                    std::to_string(geo.rows) + "x" +
                                    std::to_string(geo.cols) + " " +
                                    spec.describe());
      }
    }
  }
}

// Dynamic write-then-read faults force relevant_rows() to nullopt (the
// global write-history tracking matters everywhere), so every row must
// keep per-cell hooks — the all-rows-hooked path of the batch executor.
TEST(BitslicedParity, DynamicFaultDisablesRowSparseHooks) {
  const faults::FaultSpec spec{
      .kind = faults::FaultKind::kDynamicReadDestructive, .victim = {5, 7}};
  faults::FaultSet set({spec});
  ASSERT_FALSE(set.relevant_rows().has_value());
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 12, 20);
    // March SR contains the w,r pair that sensitises dRDF.
    expect_session_parity(cfg, march::algorithms::march_sr(), &spec,
                          mode == Mode::kFunctional ? "dRDF F" : "dRDF LP");
  }
}

// A mixed set: row-sparse hooks must cover the union of victim and
// aggressor rows, and the cohort math must survive several models at once.
TEST(BitslicedParity, MixedFaultSetUnionOfRelevantRows) {
  const std::vector<faults::FaultSpec> specs = {
      {.kind = faults::FaultKind::kStuckAt0, .victim = {1, 2}},
      {.kind = faults::FaultKind::kCouplingIdempotent,
       .victim = {9, 15},
       .aggressor = {3, 4},
       .aggressor_up = true,
       .forced_value = true},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {6, 10},
       .res_threshold = 10.0},
  };
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 12, 20);
    expect_session_parity_specs(cfg, march::algorithms::march_c_minus(),
                                specs,
                                mode == Mode::kFunctional ? "mixed F"
                                                          : "mixed LP");
  }
}

TEST(BitslicedParity, DataRetentionFaultThroughDelays) {
  const faults::FaultSpec spec{.kind = faults::FaultKind::kDataRetention,
                               .victim = {2, 3},
                               .forced_value = true,
                               .retention_idle_cycles = 900};
  SessionConfig cfg = grid_config(Mode::kLowPowerTest, 4, 8);
  expect_session_parity(cfg, march::algorithms::march_g_with_delays(), &spec,
                        "data retention");
}

// --- batch executor vs per-step path -----------------------------------------

TEST(BitslicedParity, BatchedRunsMatchPerStepExecution) {
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionConfig cfg = grid_config(mode, 24, 48);
    const auto test = march::algorithms::march_c_minus();

    TestSession per_step_session(cfg);
    engine::CycleAccurateBackend per_step(per_step_session.array(),
                                          /*batch_runs=*/false);
    const auto a = per_step_session.run(test, per_step);

    TestSession batched_session(cfg);
    engine::CycleAccurateBackend batched(batched_session.array(),
                                         /*batch_runs=*/true);
    const auto b = batched_session.run(test, batched);

    expect_results_identical(a, b, mode == Mode::kFunctional
                                       ? "batched F"
                                       : "batched LP");
  }
}

// --- direct-drive parity (arbitrary command sequences) ------------------------

TEST(BitslicedParity, DirectDriveWithSwapsIdleAndModeSwitch) {
  const std::size_t rows = 4, cols = 24;
  SramConfig base;
  base.geometry = {rows, cols, 1};
  base.mode = Mode::kLowPowerTest;
  base.row_transition_restore = false;
  SramConfig ref_cfg = base;
  ref_cfg.column_model = ColumnModel::kPerColumnReference;
  SramConfig fast_cfg = base;
  fast_cfg.column_model = ColumnModel::kBitslicedCohort;
  SramArray ref(ref_cfg), fast(fast_cfg);

  const auto drive = [&](SramArray& a) {
    // Row 1 holds the complement of what row 0 drives -> swaps on entry.
    for (std::size_t c = 0; c < cols; ++c) a.poke(1, c, false);
    CycleCommand cmd;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.row = 0;
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = true;
      a.cycle(cmd);
    }
    // Hop to row 1 without restore: the swap hazard fires.
    cmd.row = 1;
    cmd.col_group = 0;
    cmd.is_read = true;
    cmd.value = false;
    a.cycle(cmd);
    // Partial column walk, an idle window, then a row re-entry.
    for (std::size_t c = 1; c < 9; ++c) {
      cmd.col_group = c;
      cmd.is_read = (c % 2) == 0;
      cmd.value = (c % 3) == 0;
      a.cycle(cmd);
    }
    a.idle(40);
    cmd.row = 2;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = (c % 2) != 0;
      cmd.restore_row_transition = c == cols - 1;
      a.cycle(cmd);
    }
    cmd.restore_row_transition = false;
    // Descending scan across a fresh row.
    cmd.row = 3;
    cmd.scan = sram::Scan::kDescending;
    for (std::size_t c = cols; c-- > 0;) {
      cmd.col_group = c;
      cmd.is_read = false;
      cmd.value = true;
      a.cycle(cmd);
    }
    // Mode switch keeps data and resets bit-lines identically.
    a.set_mode(Mode::kFunctional);
    cmd.scan = sram::Scan::kAscending;
    for (std::size_t c = 0; c < cols; ++c) {
      cmd.row = 1;
      cmd.col_group = c;
      cmd.is_read = true;
      cmd.value = true;
      a.cycle(cmd);
    }
  };
  drive(ref);
  drive(fast);

  expect_meters_identical(ref.meter(), fast.meter(), "direct drive");
  expect_stats_identical(ref.stats(), fast.stats(), "direct drive");
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      EXPECT_EQ(ref.peek(r, c), fast.peek(r, c)) << r << "," << c;
  for (std::size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(ref.bitline_low_side_voltage(c),
              fast.bitline_low_side_voltage(c))
        << "column " << c;
    EXPECT_EQ(ref.precharge_was_active(c), fast.precharge_was_active(c))
        << "column " << c;
  }
}

// --- probe/sink tracing: totals invariant, traces engine-identical -----------

void expect_traces_identical(const power::TraceSummary& a,
                             const power::TraceSummary& b,
                             const std::string& where) {
  EXPECT_EQ(a.window_cycles, b.window_cycles) << where;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << where;
  EXPECT_EQ(a.windows, b.windows) << where;
  EXPECT_EQ(a.peak_window, b.peak_window) << where;
  EXPECT_EQ(a.peak_window_energy_j, b.peak_window_energy_j) << where;
  EXPECT_EQ(a.peak_power_w, b.peak_power_w) << where;
  EXPECT_EQ(a.supply_energy_j, b.supply_energy_j) << where;
  EXPECT_EQ(a.average_power_w, b.average_power_w) << where;
  ASSERT_EQ(a.elements.size(), b.elements.size()) << where;
  for (std::size_t e = 0; e < a.elements.size(); ++e) {
    EXPECT_EQ(a.elements[e].element, b.elements[e].element) << where;
    EXPECT_EQ(a.elements[e].start_cycle, b.elements[e].start_cycle) << where;
    EXPECT_EQ(a.elements[e].cycles, b.elements[e].cycles) << where;
    EXPECT_EQ(a.elements[e].supply_energy_j, b.elements[e].supply_energy_j)
        << where << " element " << e;
    EXPECT_EQ(a.elements[e].precharge_energy_j,
              b.elements[e].precharge_energy_j)
        << where << " element " << e;
  }
  EXPECT_EQ(a.window_supply_j, b.window_supply_j) << where;
}

// Attaching a trace sink must not move a single bit of the scalar totals
// (the batch executor additionally folds the trace's window and element
// blocks through the same addition sequences), and the two column engines,
// which emit the same per-source event sequences at the same cycles, must
// produce bit-identical traces.
TEST(BitslicedParity, TracingKeepsTotalsBitIdenticalAndTracesEngineEqual) {
  struct Case {
    const char* name;
    march::MarchTest test;
    Mode mode;
    bool restore;
  };
  const Case cases[] = {
      {"C- F", march::algorithms::march_c_minus(), Mode::kFunctional, true},
      {"C- LP", march::algorithms::march_c_minus(), Mode::kLowPowerTest,
       true},
      {"C- LP no-restore", march::algorithms::march_c_minus(),
       Mode::kLowPowerTest, false},
      {"G delays LP", march::algorithms::march_g_with_delays(),
       Mode::kLowPowerTest, true},
  };
  for (const Case& c : cases) {
    SessionResult traced[2], rerun[2];
    for (int m = 0; m < 2; ++m) {
      SessionConfig cfg = grid_config(c.mode, 12, 24);
      cfg.row_transition_restore = c.restore;
      cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                : ColumnModel::kBitslicedCohort;
      const SessionResult untraced = TestSession(cfg).run(c.test);
      cfg.trace = power::TraceConfig{.window_cycles = 16,
                                     .keep_windows = true};
      TestSession session(cfg);
      traced[m] = session.run(c.test);
      // A second run on the same session: the meter, and with it the
      // trace's time axis, restarts while the array's clock runs on.
      rerun[m] = session.run(c.test);
      const std::string where = std::string(c.name) +
                                (m == 0 ? " ref" : " fast") +
                                " traced-vs-untraced";
      expect_results_identical(untraced, traced[m], where);
      ASSERT_TRUE(traced[m].trace.has_value()) << where;
    }
    expect_results_identical(traced[0], traced[1],
                             std::string(c.name) + " cross-engine");
    expect_traces_identical(*traced[0].trace, *traced[1].trace,
                            std::string(c.name) + " trace");
    expect_results_identical(rerun[0], rerun[1],
                             std::string(c.name) + " rerun cross-engine");
    ASSERT_TRUE(rerun[0].trace && rerun[1].trace) << c.name;
    expect_traces_identical(*rerun[0].trace, *rerun[1].trace,
                            std::string(c.name) + " rerun trace");
  }
}

// Same invariants with a fault model attached: the hooked per-cell data
// path and the RES-sensitive materialized columns must meter identically
// through the probe.
TEST(BitslicedParity, TracingWithFaultsKeepsTotalsBitIdentical) {
  const std::vector<faults::FaultSpec> specs = {
      {.kind = faults::FaultKind::kStuckAt1, .victim = {3, 5}},
      {.kind = faults::FaultKind::kResSensitive,
       .victim = {6, 10},
       .res_threshold = 10.0},
  };
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    SessionResult traced[2];
    for (int m = 0; m < 2; ++m) {
      SessionConfig cfg = grid_config(mode, 12, 20);
      cfg.column_model = m == 0 ? ColumnModel::kPerColumnReference
                                : ColumnModel::kBitslicedCohort;
      SessionResult untraced;
      {
        TestSession session(cfg);
        faults::FaultSet set(specs);
        session.attach_fault_model(&set);
        untraced = session.run(march::algorithms::march_c_minus());
      }
      cfg.trace = power::TraceConfig{.window_cycles = 16,
                                     .keep_windows = true};
      {
        TestSession session(cfg);
        faults::FaultSet set(specs);
        session.attach_fault_model(&set);
        traced[m] = session.run(march::algorithms::march_c_minus());
      }
      const std::string where = std::string(mode == Mode::kFunctional
                                                ? "faulty F"
                                                : "faulty LP") +
                                (m == 0 ? " ref" : " fast");
      expect_results_identical(untraced, traced[m], where);
    }
    expect_traces_identical(*traced[0].trace, *traced[1].trace,
                            mode == Mode::kFunctional ? "faulty F trace"
                                                      : "faulty LP trace");
  }
}

// The bulk-window traced fast path: a batched traced run folds whole runs
// into the sink's window/element slot blocks; the per-step path delivers
// every event through MeterSink::on_add.  Same per-slot additions in the
// same order — totals AND trace summaries must match to the bit, across
// awkward geometries, word widths (including multi-word groups), the
// restore-disabled schedule and fault models.
TEST(BitslicedParity, TracedBatchedRunsMatchPerStepExecution) {
  struct Case {
    std::size_t rows, cols, w;
    Mode mode;
    bool restore;
    bool faulty;
  };
  const Case cases[] = {
      {12, 24, 1, Mode::kFunctional, true, false},
      {12, 24, 1, Mode::kLowPowerTest, true, true},
      {33, 17, 1, Mode::kLowPowerTest, true, false},
      {33, 17, 1, Mode::kFunctional, true, true},
      {33, 17, 1, Mode::kLowPowerTest, false, false},
      {48, 96, 4, Mode::kLowPowerTest, true, false},
      {48, 96, 4, Mode::kFunctional, true, false},
      {4, 256, 128, Mode::kLowPowerTest, true, false},
      {4, 256, 128, Mode::kLowPowerTest, false, false},
  };
  const auto test = march::algorithms::march_c_minus();
  for (const Case& c : cases) {
    SessionConfig cfg = grid_config(c.mode, c.rows, c.cols, c.w);
    cfg.row_transition_restore = c.restore;
    cfg.trace = power::TraceConfig{.window_cycles = 48, .keep_windows = true};
    const std::string where =
        std::to_string(c.rows) + "x" + std::to_string(c.cols) + " w" +
        std::to_string(c.w) +
        (c.mode == Mode::kFunctional ? " F" : " LP") +
        (c.restore ? "" : " no-restore") + (c.faulty ? " faulty" : "");
    SessionResult res[2];
    for (int p = 0; p < 2; ++p) {
      TestSession session(cfg);
      faults::FaultSet set({{.kind = faults::FaultKind::kStuckAt1,
                             .victim = {3, 5}}});
      if (c.faulty) session.attach_fault_model(&set);
      engine::CycleAccurateBackend backend(session.array(),
                                           /*batch_runs=*/p == 1);
      res[p] = session.run(test, backend);
    }
    expect_results_identical(res[0], res[1], where);
    ASSERT_TRUE(res[0].trace.has_value() && res[1].trace.has_value())
        << where;
    expect_traces_identical(*res[0].trace, *res[1].trace, where);
  }
}

// --- whole-row path vs the reference and the per-step path -------------------

struct ThreeWayOutcome {
  sram::RunPathCounts paths;  ///< of the bitsliced batched run
  std::uint64_t mismatches = 0;
};

/// Run @p test three ways — the per-column reference engine, the bitsliced
/// engine's batched runs (the whole-row path wherever a run qualifies) and
/// its per-step path (CycleAccurateBackend{batch_runs=false}) — and require
/// all three bit-identical, cell contents included.  @p prepare runs on
/// each fresh array before the test.
ThreeWayOutcome expect_three_way_parity(
    SessionConfig config, const march::MarchTest& test,
    const std::string& where,
    const std::function<void(SramArray&)>& prepare = nullptr) {
  SessionResult results[3];
  std::vector<bool> cells[3];
  ThreeWayOutcome outcome;
  for (int p = 0; p < 3; ++p) {
    config.column_model = p == 0 ? ColumnModel::kPerColumnReference
                                 : ColumnModel::kBitslicedCohort;
    TestSession session(config);
    if (prepare) prepare(session.array());
    engine::CycleAccurateBackend backend(session.array(),
                                         /*batch_runs=*/p != 2);
    results[p] = session.run(test, backend);
    if (p == 1) outcome.paths = session.array().run_path_counts();
    for (std::size_t r = 0; r < config.geometry.rows; ++r)
      for (std::size_t c = 0; c < config.geometry.cols; ++c)
        cells[p].push_back(session.array().peek(r, c));
  }
  expect_results_identical(results[0], results[1], where + " batched");
  expect_results_identical(results[0], results[2], where + " per-step");
  EXPECT_EQ(cells[0], cells[1]) << where << " batched (cell contents)";
  EXPECT_EQ(cells[0], cells[2]) << where << " per-step (cell contents)";
  outcome.mismatches = results[0].mismatches;
  return outcome;
}

TEST(BitslicedParity, WholeRowPathMatchesReferenceAndPerStep) {
  struct Geo {
    std::size_t rows, cols, w;
  };
  // 1xN and Nx2 (the narrowest legal array: a row needs two word groups),
  // odd sizes, and every word width the path packs differently — down to
  // rows of two and three 64-bit words.
  const Geo geos[] = {{1, 24, 1}, {9, 2, 1},   {7, 13, 1},  {5, 14, 2},
                      {6, 20, 4}, {3, 40, 8},  {2, 128, 64}, {3, 192, 64}};
  sram::RunPathCounts total;
  for (const auto& test : march::algorithms::all()) {
    for (const Geo& geo : geos) {
      for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
        for (const auto kind : sram::DataBackground::kinds()) {
          for (const bool invert : {false, true}) {
            for (const bool restore : {true, false}) {
              // The restore schedule only exists in low-power mode.
              if (mode == Mode::kFunctional && !restore) continue;
              SessionConfig cfg = grid_config(mode, geo.rows, geo.cols, geo.w);
              cfg.background = sram::DataBackground(kind);
              cfg.invert_background = invert;
              cfg.row_transition_restore = restore;
              const std::string where =
                  test.name() + " " + std::to_string(geo.rows) + "x" +
                  std::to_string(geo.cols) + "/w" + std::to_string(geo.w) +
                  (mode == Mode::kFunctional ? " F " : " LP ") +
                  cfg.background.name() + (invert ? " inverted" : "") +
                  (restore ? "" : " no-restore");
              const sram::RunPathCounts paths =
                  expect_three_way_parity(cfg, test, where).paths;
              total.whole_row += paths.whole_row;
              total.partial += paths.partial;
              total.mismatch += paths.mismatch;
              total.traced += paths.traced;
              total.faults += paths.faults;
            }
          }
        }
      }
    }
  }
  // The sweep must reach both the whole-row path and its partial-row
  // fallback: single-row arrays re-enter no row, and idle windows and
  // restore-off hand-overs leave materialized columns (which also keep the
  // restore-off swaps away from the path).  The mismatch fallback has its
  // own test below.
  EXPECT_GT(total.whole_row, total.loop_runs());
  EXPECT_GT(total.partial, 0u);
  EXPECT_EQ(total.mismatch + total.traced + total.faults, 0u);
}

TEST(BitslicedParity, WholeRowPathFallsBackBeforeChangingAnything) {
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    const std::string tag = mode == Mode::kFunctional ? " F" : " LP";
    const SessionConfig cfg = grid_config(mode, 6, 12);
    // A self-contradicting element: every read of U(w1,r0) follows its own
    // write of the opposite value, so every run of it mismatches.
    const ThreeWayOutcome contradicting = expect_three_way_parity(
        cfg, march::parse_march("contradicting", "{ B(w0); U(w1,r0) }"),
        "contradicting element" + tag);
    EXPECT_EQ(contradicting.mismatches, 6u * 12u);
    EXPECT_EQ(contradicting.paths.mismatch, 6u);
    // A cell changed behind the simulator's back: the first element's read
    // of its row mismatches there, and only there.
    const ThreeWayOutcome poked = expect_three_way_parity(
        cfg, march::parse_march("poked", "{ U(r0,w1); D(r1,w0); B(r0) }"),
        "poked cell" + tag, [](SramArray& a) { a.poke(2, 5, true); });
    EXPECT_EQ(poked.mismatches, 1u);
    EXPECT_EQ(poked.paths.mismatch, 1u);
  }
}

// The path must carry the paper's headline workload: Table 1 on the
// 512x512 array, both modes, both prr_sweep backgrounds.
TEST(BitslicedParity, Table1RunsTakeTheWholeRowPath) {
  for (const Mode mode : {Mode::kFunctional, Mode::kLowPowerTest}) {
    for (const auto kind : {sram::BackgroundKind::kSolid0,
                            sram::BackgroundKind::kCheckerboard}) {
      for (const auto& test : march::algorithms::table1()) {
        SessionConfig cfg = grid_config(mode, 512, 512);
        cfg.background = sram::DataBackground(kind);
        TestSession session(cfg);
        const SessionResult result = session.run(test);
        const sram::RunPathCounts& paths = session.array().run_path_counts();
        const std::string where =
            test.name() + (mode == Mode::kFunctional ? " F " : " LP ") +
            cfg.background.name();
        EXPECT_EQ(result.mismatches, 0u) << where;
        EXPECT_GE(paths.whole_row * 100,
                  (paths.whole_row + paths.loop_runs()) * 99)
            << where << ": " << paths.whole_row << " whole-row runs, "
            << paths.loop_runs() << " loop runs";
        EXPECT_EQ(paths.mismatch + paths.traced + paths.faults, 0u) << where;
      }
    }
  }
}

// --- reset_measurements is measurement-only -----------------------------------

TEST(BitslicedParity, ResetMeasurementsPreservesLazyColumnState) {
  SramConfig cfg;
  cfg.geometry = {2, 16, 1};
  cfg.mode = Mode::kLowPowerTest;
  SramArray a(cfg);
  CycleCommand cmd;
  cmd.is_read = false;
  cmd.value = true;
  for (std::size_t c = 0; c < 8; ++c) {
    cmd.col_group = c;
    a.cycle(cmd);
  }
  // Columns 0..6 are decaying cohorts now; snapshot their voltages.
  std::vector<double> before;
  for (std::size_t c = 0; c < 16; ++c)
    before.push_back(a.bitline_low_side_voltage(c));
  EXPECT_LT(before[0], cfg.tech.vdd);

  a.reset_measurements();
  EXPECT_EQ(a.meter().supply_total(), 0.0);
  EXPECT_EQ(a.stats().cycles, 0u);
  for (std::size_t c = 0; c < 16; ++c)
    EXPECT_EQ(a.bitline_low_side_voltage(c), before[c]) << "column " << c;

  // The swap hazard still sees the pre-reset decay: entering row 1 with
  // opposing data must swap exactly as it would have without the reset.
  for (std::size_t c = 0; c < 16; ++c) a.poke(1, c, false);
  cmd.row = 1;
  cmd.col_group = 0;
  cmd.is_read = true;
  cmd.value = false;
  const auto r = a.cycle(cmd);
  EXPECT_GT(r.faulty_swaps, 0u);
}

}  // namespace
