// WaveformWriter: the per-cycle energy export sink.
//  * Attaching one must not move a bit of the run's totals (the batch
//    executor forwards every event through the meter instead of holding
//    the totals in registers; the additions are the same).
//  * Records reconstruct the run: per-run supply sums match the meter
//    total (up to summation order), runs split automatically when the
//    meter's cycle counter restarts, idle blocks stay single records.
//  * The file does not depend on the column engine: the per-column
//    reference and the bitsliced engine write the same bytes.
//  * CSV and JSONL formats, and the tee with a PowerTrace — the trace
//    summary must stay bit-identical with the waveform attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "march/address_order.h"
#include "march/algorithms.h"
#include "power/waveform.h"

namespace {

using namespace sramlp;

struct CsvRecord {
  std::uint64_t run = 0;
  std::uint64_t cycle = 0;
  std::uint64_t span = 0;
  double supply_j = 0.0;
};

std::vector<CsvRecord> read_csv(const std::string& path,
                                std::string* header) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::getline(in, *header);
  std::vector<CsvRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    CsvRecord r;
    char comma;
    ls >> r.run >> comma >> r.cycle >> comma >> r.span >> comma >> r.supply_j;
    EXPECT_FALSE(ls.fail()) << line;
    records.push_back(r);
  }
  return records;
}

core::SessionConfig small_lp_config() {
  core::SessionConfig cfg;
  cfg.geometry = {8, 16, 1};
  cfg.mode = sram::Mode::kLowPowerTest;
  return cfg;
}

TEST(Waveform, TotalsUnchangedAndRecordsSumToTheMeter) {
  const auto test = march::algorithms::march_c_minus();
  const auto base = core::TestSession(small_lp_config()).run(test);

  const std::string path = testing::TempDir() + "sramlp_waveform.csv";
  core::SessionResult first, second;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    // Two identical runs on fresh sessions: each resets its meter, so the
    // writer must split them into run ordinals 0 and 1 on its own.
    first = core::TestSession(cfg).run(test);
    second = core::TestSession(cfg).run(test);
    writer.finish();
    EXPECT_GT(writer.records_written(), 0u);
  }
  // Bit-identical totals: the waveform is an observer.
  EXPECT_EQ(first.supply_energy_j, base.supply_energy_j);
  EXPECT_EQ(second.supply_energy_j, base.supply_energy_j);
  EXPECT_EQ(first.cycles, base.cycles);

  std::string header;
  const auto records = read_csv(path, &header);
  EXPECT_EQ(header.rfind("run,cycle,span,supply_j", 0), 0u) << header;
  ASSERT_FALSE(records.empty());
  double sums[2] = {0.0, 0.0};
  std::uint64_t max_run = 0;
  std::uint64_t prev_cycle[2] = {0, 0};
  for (const CsvRecord& r : records) {
    ASSERT_LE(r.run, 1u);
    max_run = std::max(max_run, r.run);
    sums[r.run] += r.supply_j;
    EXPECT_GE(r.span, 1u);
    if (r.cycle != 0) {  // cycles are monotone within a run
      EXPECT_GT(r.cycle, prev_cycle[r.run]);
    }
    prev_cycle[r.run] = r.cycle;
  }
  EXPECT_EQ(max_run, 1u);  // both runs landed, split automatically
  // Same additions in a different order: equal up to rounding.
  EXPECT_NEAR(sums[0], base.supply_energy_j,
              1e-9 * base.supply_energy_j);
  EXPECT_NEAR(sums[1], base.supply_energy_j,
              1e-9 * base.supply_energy_j);

  // The column engine is one more input: a compare_modes pair (functional
  // run, then low-power run) must write the same file under either engine,
  // for batched rows and for orders that run one cycle() at a time.
  const std::size_t rows = 8, groups = 24;
  const std::optional<march::AddressOrder> orders[] = {
      std::nullopt, march::AddressOrder::fast_row(rows, groups),
      march::AddressOrder::pseudo_random(rows, groups, 5)};
  for (const auto& pair_test :
       {march::algorithms::march_c_minus(), march::algorithms::march_ss(),
        march::algorithms::march_g_with_delays()}) {
    for (const auto& order : orders) {
      std::string files[2];
      for (int m = 0; m < 2; ++m) {
        const std::string pair_path =
            testing::TempDir() + "sramlp_waveform_engine.csv";
        {
          power::WaveformWriter writer(pair_path, power::WaveformFormat::kCsv);
          core::SessionConfig cfg;
          cfg.geometry = {rows, groups, 1};
          cfg.order = order;
          cfg.column_model = m == 0 ? sram::ColumnModel::kPerColumnReference
                                    : sram::ColumnModel::kBitslicedCohort;
          cfg.waveform_sink = &writer;
          core::TestSession::compare_modes(cfg, pair_test);
        }
        std::ifstream in(pair_path);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[m] = bytes.str();
      }
      const std::string where =
          pair_test.name() + " " +
          (order ? march::to_string(order->kind()) : "WLAWL default");
      EXPECT_GT(files[0].size(), header.size()) << where;
      // Byte equality, reported as an offset (the files run to megabytes).
      const auto diff = std::mismatch(files[0].begin(), files[0].end(),
                                      files[1].begin(), files[1].end());
      EXPECT_TRUE(diff.first == files[0].end() && diff.second == files[1].end())
          << where << ": the files differ from byte "
          << (diff.first - files[0].begin());
    }
  }
}

TEST(Waveform, IdleBlocksStaySingleSpanRecords) {
  const auto test = march::algorithms::march_g_with_delays();
  const std::string path = testing::TempDir() + "sramlp_waveform_idle.csv";
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    core::TestSession(cfg).run(test);
  }
  std::string header;
  const auto records = read_csv(path, &header);
  // March G's Del elements idle for many cycles; they must appear as a
  // few span>1 records, not one record per idle cycle.
  std::uint64_t idle_records = 0, idle_cycles = 0, total_cycles = 0;
  for (const CsvRecord& r : records) {
    total_cycles += r.span;
    if (r.span > 1) {
      ++idle_records;
      idle_cycles += r.span;
    }
  }
  EXPECT_GT(idle_records, 0u);
  EXPECT_GT(idle_cycles, idle_records * 10);
  EXPECT_LT(records.size(), total_cycles);
}

TEST(Waveform, JsonlRecordsAreObjectsPerLine) {
  const auto test = march::algorithms::mats_plus();
  const std::string path = testing::TempDir() + "sramlp_waveform.jsonl";
  std::uint64_t written = 0;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kJsonl);
    core::SessionConfig cfg = small_lp_config();
    cfg.waveform_sink = &writer;
    core::TestSession(cfg).run(test);
    writer.finish();
    written = writer.records_written();
  }
  std::ifstream in(path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"supply_j\":"), std::string::npos);
  }
  EXPECT_EQ(lines, written);
  EXPECT_GT(lines, 0u);
}

TEST(Waveform, TeeWithTraceKeepsTheTraceBitIdentical) {
  const auto test = march::algorithms::march_c_minus();
  core::SessionConfig cfg = small_lp_config();
  cfg.trace = power::TraceConfig{.window_cycles = 32, .keep_windows = true};
  const auto traced_only = core::TestSession(cfg).run(test);
  ASSERT_TRUE(traced_only.trace.has_value());

  const std::string path = testing::TempDir() + "sramlp_waveform_tee.csv";
  std::uint64_t written = 0;
  core::SessionResult both;
  {
    power::WaveformWriter writer(path, power::WaveformFormat::kCsv);
    cfg.waveform_sink = &writer;
    both = core::TestSession(cfg).run(test);
    writer.finish();
    written = writer.records_written();
  }
  EXPECT_GT(written, 0u);
  ASSERT_TRUE(both.trace.has_value());
  EXPECT_EQ(both.supply_energy_j, traced_only.supply_energy_j);
  EXPECT_EQ(both.trace->peak_window_energy_j,
            traced_only.trace->peak_window_energy_j);
  EXPECT_EQ(both.trace->peak_window, traced_only.trace->peak_window);
  EXPECT_EQ(both.trace->window_supply_j, traced_only.trace->window_supply_j);
  ASSERT_EQ(both.trace->elements.size(), traced_only.trace->elements.size());
  for (std::size_t e = 0; e < both.trace->elements.size(); ++e)
    EXPECT_EQ(both.trace->elements[e].supply_energy_j,
              traced_only.trace->elements[e].supply_energy_j)
        << "element " << e;
}

}  // namespace
