// Unit tests for the power module: energy-source taxonomy, meter,
// technology parameters, and the paper's §5 analytic model.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/paper_reference.h"
#include "power/analytic.h"
#include "power/energy_source.h"
#include "power/meter.h"
#include "power/repeat_add.h"
#include "power/technology.h"
#include "util/error.h"
#include "util/units.h"

namespace {

using namespace sramlp;
using power::EnergySource;

// --- energy source taxonomy ----------------------------------------------

TEST(EnergySource, EveryEntryHasInfo) {
  for (std::size_t i = 0; i < power::kEnergySourceCount; ++i) {
    const auto s = static_cast<EnergySource>(i);
    EXPECT_NE(power::to_string(s), nullptr);
    EXPECT_GT(std::string(power::to_string(s)).size(), 0u);
  }
}

TEST(EnergySource, DecayStressIsNotSupplyDrawn) {
  EXPECT_FALSE(power::info(EnergySource::kBitlineDecayStress).supply_drawn);
  EXPECT_TRUE(power::info(EnergySource::kPrechargeResFight).supply_drawn);
}

TEST(EnergySource, PrechargeRelatedSetMatchesPaperTargets) {
  // The activity the paper reduces: RES fight, restores, follower recharge.
  for (EnergySource s :
       {EnergySource::kPrechargeResFight, EnergySource::kPrechargeRestoreRead,
        EnergySource::kPrechargeRestoreWrite,
        EnergySource::kPrechargeNextColumn,
        EnergySource::kRowTransitionRestore})
    EXPECT_TRUE(power::info(s).precharge_related) << power::to_string(s);
  for (EnergySource s :
       {EnergySource::kWordline, EnergySource::kDecoder,
        EnergySource::kSenseAmp, EnergySource::kLpTestDriver})
    EXPECT_FALSE(power::info(s).precharge_related) << power::to_string(s);
}

// --- meter ----------------------------------------------------------------

TEST(EnergyMeter, AccumulatesPerSource) {
  power::EnergyMeter m;
  m.add(EnergySource::kSenseAmp, 1e-12);
  m.add(EnergySource::kSenseAmp, 2e-12);
  m.add(EnergySource::kDecoder, 5e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kSenseAmp), 3e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kDecoder), 5e-12);
  EXPECT_DOUBLE_EQ(m.supply_total(), 8e-12);
}

TEST(EnergyMeter, SupplyExcludesStoredChargeStress) {
  power::EnergyMeter m;
  m.add(EnergySource::kBitlineDecayStress, 7e-12);
  m.add(EnergySource::kWordline, 1e-12);
  EXPECT_DOUBLE_EQ(m.supply_total(), 1e-12);
  EXPECT_DOUBLE_EQ(m.total(EnergySource::kBitlineDecayStress), 7e-12);
}

TEST(EnergyMeter, PrechargeTotalSelectsRelatedSources) {
  power::EnergyMeter m;
  m.add(EnergySource::kPrechargeResFight, 3e-12);
  m.add(EnergySource::kClockTree, 10e-12);
  EXPECT_DOUBLE_EQ(m.precharge_total(), 3e-12);
}

TEST(EnergyMeter, PerCycleAveraging) {
  power::EnergyMeter m;
  m.add(EnergySource::kClockTree, 6e-12);
  EXPECT_EQ(m.supply_per_cycle(), 0.0);  // no cycles yet
  m.tick_cycle();
  m.tick_cycle();
  EXPECT_DOUBLE_EQ(m.supply_per_cycle(), 3e-12);
  EXPECT_EQ(m.cycles(), 2u);
}

TEST(EnergyMeter, BreakdownSortedAndShared) {
  power::EnergyMeter m;
  m.add(EnergySource::kClockTree, 1e-12);
  m.add(EnergySource::kPrechargeResFight, 3e-12);
  const auto b = m.breakdown();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].source, EnergySource::kPrechargeResFight);
  EXPECT_DOUBLE_EQ(b[0].share, 0.75);
  EXPECT_DOUBLE_EQ(b[1].share, 0.25);
}

TEST(EnergyMeter, RejectsNegativeEnergy) {
  power::EnergyMeter m;
  EXPECT_THROW(m.add(EnergySource::kDecoder, -1.0), Error);
  EXPECT_THROW(m.add(EnergySource::kCount, 1.0), Error);
}

// The cohort-bulk metering of the bitsliced array path depends on this
// identity holding EXACTLY (same floating-point bits), not approximately:
// add(source, e, n) must equal n scalar add(source, e) calls.
TEST(EnergyMeter, BulkAddBitIdenticalToScalarAdds) {
  // 0.1 is a repeating fraction in binary: ten repeated additions land on
  // 0.9999999999999999, while 10 * 0.1 rounds to exactly 1.0 — so this
  // test distinguishes a faithful bulk add from a multiply-based one.
  for (const std::uint64_t n : {0ull, 1ull, 3ull, 10ull, 64ull, 65537ull}) {
    power::EnergyMeter scalar;
    for (std::uint64_t i = 0; i < n; ++i)
      scalar.add(EnergySource::kSenseAmp, 0.1);
    power::EnergyMeter bulk;
    bulk.add(EnergySource::kSenseAmp, 0.1, n);
    EXPECT_EQ(scalar.total(EnergySource::kSenseAmp),
              bulk.total(EnergySource::kSenseAmp))
        << "n=" << n;
  }
  power::EnergyMeter bulk10;
  bulk10.add(EnergySource::kSenseAmp, 0.1, 10);
  EXPECT_NE(bulk10.total(EnergySource::kSenseAmp), 10.0 * 0.1);
}

// --- repeat_add: the exact fast-forward of repeated additions --------------

double naive_repeat_add(double acc, const std::vector<double>& values,
                        std::uint64_t n) {
  for (std::uint64_t p = 0; p < n; ++p)
    for (const double v : values) acc += v;
  return acc;
}

void expect_repeat_add_exact(double start, const std::vector<double>& values,
                             std::uint64_t n) {
  const double fast =
      power::repeat_add(start, values.data(), values.size(), n);
  const double naive = naive_repeat_add(start, values, n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast),
            std::bit_cast<std::uint64_t>(naive))
      << "start=" << start << " m=" << values.size() << " n=" << n
      << " fast=" << fast << " naive=" << naive;
}

constexpr double kUlpOfOne = 0x1p-52;  // ulp of the binade [1, 2)

TEST(RepeatAdd, MatchesNaiveLoopOnSeededRandomPeriods) {
  std::mt19937_64 rng(20060306);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> decade(-17, -11);  // meter-sized joules
  const std::uint64_t counts[] = {0, 1, 2, 15, 16, 17, 100, 511, 4096, 20000};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> values(1 + rng() % 64);
    for (double& v : values) {
      // Mostly meter-like energies, some exact zeros, some values that
      // span several decades within one period.
      const unsigned kind = rng() % 8;
      v = kind == 0 ? 0.0 : mantissa(rng) * std::pow(10.0, decade(rng));
    }
    const double start = (rng() % 3 == 0)
                             ? 0.0
                             : mantissa(rng) * std::pow(10.0, decade(rng) + 2);
    expect_repeat_add_exact(start, values, counts[trial % 10]);
  }
}

TEST(RepeatAdd, TiesAtHalfAndThreeHalvesUlpTakeTheLoop) {
  // Half an ulp of the running sum rounds to the even neighbour, so the
  // increment depends on the sum's last bit: even sums stay put, odd ones
  // step up once.
  for (const double start : {1.0, 1.0 + kUlpOfOne, 1.5, 1.5 + kUlpOfOne}) {
    expect_repeat_add_exact(start, {0.5 * kUlpOfOne}, 100000);
    expect_repeat_add_exact(start, {1.5 * kUlpOfOne}, 100000);
    // A tie next to values that are not.
    expect_repeat_add_exact(start, {0.3 * kUlpOfOne, 1.5 * kUlpOfOne}, 50000);
  }
  // A tie in [1, 2) is three quarters of an ulp past 2: the run takes the
  // loop up to the binade boundary and may jump after it.
  expect_repeat_add_exact(2.0 - 1000 * kUlpOfOne, {1.5 * kUlpOfOne}, 100000);
  expect_repeat_add_exact(2.0 - 1000 * kUlpOfOne, {0.5 * kUlpOfOne}, 100000);
  // Exactly half an ulp of the binade's top, where rounding up lands on
  // the next power of two.
  expect_repeat_add_exact(2.0 - kUlpOfOne, {0.5 * kUlpOfOne}, 20);
  expect_repeat_add_exact(2.0 - 2 * kUlpOfOne, {1.5 * kUlpOfOne}, 20);
}

TEST(RepeatAdd, ZeroAndSubnormalStarts) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  expect_repeat_add_exact(0.0, {1e-15}, 1000000);
  expect_repeat_add_exact(-0.0, {0.0}, 1000);
  expect_repeat_add_exact(0.0, {0.0, 0.0}, 1000);
  expect_repeat_add_exact(0.0, {tiny}, 1000000);     // stays subnormal
  expect_repeat_add_exact(tiny, {tiny, 3 * tiny}, 500000);
  expect_repeat_add_exact(0.0, {min_normal / 8}, 100000);  // into normals
  expect_repeat_add_exact(min_normal / 2, {min_normal / 3}, 100000);
  expect_repeat_add_exact(1e-300, {1e-300, 1e-310}, 100000);
}

TEST(RepeatAdd, LongRunsCrossingManyBinades) {
  expect_repeat_add_exact(1e-20, {1.0}, 1000000);  // ~20 binades
  expect_repeat_add_exact(0.0, {0.1}, 1000000);
  expect_repeat_add_exact(1e-15, {0.1, 1e-17, 3.7}, 1000000);
  expect_repeat_add_exact(1.0, {1e-16}, 1000000);  // below half an ulp
  expect_repeat_add_exact(1.0, {3e-16, 1e-16}, 1000000);
  // Sums reaching 2^53 and beyond, where whole numbers stop being exact.
  expect_repeat_add_exact(0x1p52, {1.0, 0.5, 2.5}, 1000000);
  expect_repeat_add_exact(0x1p53 - 5.0, {1.0}, 1000);
}

TEST(RepeatAdd, PeriodsOfOneToSixtyFourAndCountsToAMillion) {
  std::mt19937_64 rng(512);
  std::uniform_real_distribution<double> joules(1e-15, 1e-12);
  for (const std::size_t m : {1, 2, 3, 5, 8, 13, 32, 64}) {
    std::vector<double> values(m);
    for (double& v : values) v = joules(rng);
    for (const std::uint64_t n : {17ull, 1000ull, 65537ull, 1000000ull})
      expect_repeat_add_exact(0.0, values, n);
    expect_repeat_add_exact(1e-9, values, 1000000);
  }
}

TEST(RepeatAdd, NegativeAndNonFiniteOperandsTakeTheLoop) {
  expect_repeat_add_exact(-1.0, {1e-3}, 5000);  // crosses zero upwards
  expect_repeat_add_exact(1.0, {-1e-3, 2e-3}, 5000);
  expect_repeat_add_exact(1.0, {std::numeric_limits<double>::infinity()},
                          100);
  expect_repeat_add_exact(std::numeric_limits<double>::infinity(), {1.0},
                          100);
}

TEST(EnergyMeter, BulkAddChecksArgumentsLikeScalarAdd) {
  power::EnergyMeter m;
  EXPECT_THROW(m.add(EnergySource::kDecoder, -1.0, 4), Error);
  EXPECT_THROW(m.add(EnergySource::kCount, 1.0, 4), Error);
  m.add(EnergySource::kDecoder, 1.0, 0);  // zero count adds nothing
  EXPECT_EQ(m.total(EnergySource::kDecoder), 0.0);
}

TEST(EnergyMeter, TickCyclesMatchesRepeatedTicks) {
  power::EnergyMeter a, b;
  for (int i = 0; i < 7; ++i) a.tick_cycle();
  b.tick_cycles(7);
  EXPECT_EQ(a.cycles(), b.cycles());
}

TEST(EnergyMeter, ResetClearsEverything) {
  power::EnergyMeter m;
  m.add(EnergySource::kDecoder, 1e-12);
  m.tick_cycle();
  m.reset();
  EXPECT_EQ(m.supply_total(), 0.0);
  EXPECT_EQ(m.cycles(), 0u);
}

// --- technology ------------------------------------------------------------

TEST(Technology, DerivedEnergiesMatchClosedForms) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_DOUBLE_EQ(t.e_res_fight_per_cycle(),
                   t.vdd * t.res_fight_current * 0.5 * t.clock_period);
  EXPECT_DOUBLE_EQ(t.e_read_restore(), t.c_bitline * t.vdd * t.read_swing);
  EXPECT_DOUBLE_EQ(t.e_write_restore(), t.c_bitline * t.vdd * t.vdd);
  EXPECT_DOUBLE_EQ(t.e_wordline(512),
                   512.0 * t.c_wordline_per_column * t.vdd * t.vdd);
  EXPECT_DOUBLE_EQ(t.e_lptest_driver(512), t.e_wordline(512));
  EXPECT_DOUBLE_EQ(t.e_bitline_restore_from(t.vdd), 0.0);
  EXPECT_GT(t.e_bitline_restore_from(0.0), 0.0);
}

// Paper Fig. 6: the floating bit-line reaches logic 0 in ~9 cycles; with
// tau = 3 cycles and a 5 % threshold the closed form gives 3 ln 20 = 8.99.
TEST(Technology, DischargeTimeIsNearlyNineCycles) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_NEAR(t.cycles_to_discharge(), core::paper_claims::kDischargeCycles,
              0.5);
}

TEST(Technology, DecayIsExponential) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const double v3 = t.decayed_voltage(1.6, 3.0);
  EXPECT_NEAR(v3, 1.6 * std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(t.decayed_voltage(1.6, 0.0), 1.6);
  EXPECT_THROW(t.decayed_voltage(1.6, -1.0), Error);
}

// Paper §5 source 4: cell dissipation during RES is ~3 orders of magnitude
// below the pre-charge circuit's.
TEST(Technology, CellResThreeOrdersBelowPrecharge) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const double ratio = t.e_cell_res_dynamic() / t.e_res_fight_per_cycle();
  EXPECT_LT(ratio, 5e-3);
  EXPECT_GT(ratio, 1e-5);
}

// Paper §5 source 5: the control element load is ~3 orders below a bit-line.
TEST(Technology, ControlElementThreeOrdersBelowBitline) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_LT(t.c_control_element, 2e-3 * t.c_bitline);
}

TEST(Technology, ValidateRejectsBadParameters) {
  auto t = power::TechnologyParams::tech_0p13um();
  t.vdd = 0.0;
  EXPECT_THROW(t.validate(), Error);
  t = power::TechnologyParams::tech_0p13um();
  t.read_swing = 2.0;  // beyond the rail
  EXPECT_THROW(t.validate(), Error);
  t = power::TechnologyParams::tech_0p13um();
  t.discharged_threshold = 1.5;
  EXPECT_THROW(t.validate(), Error);
}

// --- analytic model ---------------------------------------------------------

power::AlgorithmCounts march_c_minus_counts() {
  return {"March C-", 6, 10, 5, 5};
}

TEST(AnalyticModel, CountsValidation) {
  power::AlgorithmCounts bad{"x", 1, 3, 1, 1};  // 1+1 != 3
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(march_c_minus_counts().validate());
}

TEST(AnalyticModel, PfIsReadWriteWeightedAverage) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  const auto c = march_c_minus_counts();
  EXPECT_NEAR(m.pf(c), 0.5 * (m.pr() + m.pw()), 1e-18);
  EXPECT_GT(m.pw(), m.pr());  // paper: writes cost more than reads
}

// The paper's two worked examples for F(row transition): one-op elements
// see a transition every 512 cycles, four-op elements every 2048.
TEST(AnalyticModel, RowTransitionPeriodsMatchPaperExamples) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  EXPECT_DOUBLE_EQ(m.row_transition_period_cycles(1),
                   core::paper_claims::kRowTransitionPeriod1op);
  EXPECT_DOUBLE_EQ(m.row_transition_period_cycles(4),
                   core::paper_claims::kRowTransitionPeriod4op);
}

TEST(AnalyticModel, PaperFormulaMatchesVerbatim) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  const auto c = march_c_minus_counts();
  const double expected =
      m.pf(c) - (510.0 * m.p_a() - (6.0 / 10.0) * m.p_b());
  EXPECT_NEAR(m.plpt_paper(c), expected, 1e-18);
}

TEST(AnalyticModel, RefinedAndPaperFormulasAgreeClosely) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  for (const auto& row : core::kTable1) {
    const power::AlgorithmCounts c{row.algorithm, row.elements,
                                   row.operations, row.reads, row.writes};
    // The second-order terms the paper neglects shift PRR by a few percent
    // at most.
    EXPECT_NEAR(m.prr(c), m.prr_paper(c), 0.06) << row.algorithm;
  }
}

// Regression against the paper's Table 1: every algorithm lands in the
// published 47-51 % band within ±2.5 points of its published value.
TEST(AnalyticModel, PrrMatchesTable1Band) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const power::AnalyticModel m(t, 512, 512);
  for (const auto& row : core::kTable1) {
    const power::AlgorithmCounts c{row.algorithm, row.elements,
                                   row.operations, row.reads, row.writes};
    EXPECT_NEAR(m.prr(c), row.prr, 0.025) << row.algorithm;
    EXPECT_GT(m.prr(c), 0.45) << row.algorithm;
    EXPECT_LT(m.prr(c), 0.55) << row.algorithm;
  }
}

// Paper §5: "the power dissipation reduction depends on the memory array
// organisation" — wider arrays save more.
TEST(AnalyticModel, SavingGrowsWithColumnCount) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const auto c = march_c_minus_counts();
  double last = 0.0;
  for (std::size_t cols : {64u, 128u, 256u, 512u, 1024u}) {
    const power::AnalyticModel m(t, 512, cols);
    const double prr = m.prr(c);
    EXPECT_GT(prr, last) << cols;
    last = prr;
  }
}

// Word-oriented generalisation (paper §6): wider words keep more pre-charge
// circuits busy, so the saving shrinks with word width.
TEST(AnalyticModel, PrrShrinksWithWordWidth) {
  const auto t = power::TechnologyParams::tech_0p13um();
  const auto c = march_c_minus_counts();
  double last = 1.0;
  for (std::size_t w : {1u, 2u, 4u, 8u, 16u}) {
    const power::AnalyticModel m(t, 512, 512, w);
    const double prr = m.prr(c);
    EXPECT_LT(prr, last) << w;
    last = prr;
  }
}

TEST(AnalyticModel, RejectsBadGeometry) {
  const auto t = power::TechnologyParams::tech_0p13um();
  EXPECT_THROW(power::AnalyticModel(t, 0, 512), Error);
  EXPECT_THROW(power::AnalyticModel(t, 512, 512, 3), Error);   // 512 % 3 != 0
  EXPECT_THROW(power::AnalyticModel(t, 512, 4, 4), Error);     // < 2 groups
}

}  // namespace
