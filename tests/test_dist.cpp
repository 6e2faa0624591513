// The distributed-execution subsystem's per-kind seam (dist/job.h): job
// spec round trips, result lines equal to direct execution and their
// flat-slot merge, the point-cache payload round trip, and the acceptance
// anchor — a job computed by service workers (any shard size, traced or
// not) is byte-identical to the single-process run.  `run_job`'s named
// failure when every worker dies is pinned here too; the CLI drive of
// `run` lives in test_dist_cli.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/coordinator.h"
#include "dist/job.h"
#include "dist/service.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "util/error.h"

namespace {

namespace fs = std::filesystem;
using namespace sramlp;
using dist::JobSpec;

/// Fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("sramlp_dist_test_" + tag + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

JobSpec small_sweep_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{8, 16, 1}, {4, 32, 1}, {6, 24, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;  // 12 points
}

JobSpec small_campaign_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = {8, 8, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, 11);
  return job;
}

void expect_points_identical(const core::SweepPointResult& a,
                             const core::SweepPointResult& b,
                             const std::string& where) {
  EXPECT_EQ(a.index, b.index) << where;
  EXPECT_EQ(a.geometry, b.geometry) << where;
  EXPECT_EQ(a.background, b.background) << where;
  EXPECT_EQ(a.algorithm, b.algorithm) << where;
  EXPECT_EQ(a.backend, b.backend) << where;
  EXPECT_EQ(a.prr.prr, b.prr.prr) << where;
  const auto expect_sessions_identical = [&](const core::SessionResult& x,
                                             const core::SessionResult& y) {
    EXPECT_EQ(x.algorithm, y.algorithm) << where;
    EXPECT_EQ(x.mode, y.mode) << where;
    EXPECT_EQ(x.fell_back_to_functional, y.fell_back_to_functional) << where;
    EXPECT_EQ(x.cycles, y.cycles) << where;
    EXPECT_EQ(x.supply_energy_j, y.supply_energy_j) << where;
    EXPECT_EQ(x.energy_per_cycle_j, y.energy_per_cycle_j) << where;
    EXPECT_EQ(x.mismatches, y.mismatches) << where;
    EXPECT_EQ(x.meter.cycles(), y.meter.cycles()) << where;
    for (std::size_t s = 0; s < power::kEnergySourceCount; ++s) {
      const auto source = static_cast<power::EnergySource>(s);
      EXPECT_EQ(x.meter.total(source), y.meter.total(source))
          << where << " source " << power::to_string(source);
    }
    EXPECT_EQ(x.stats.reads, y.stats.reads) << where;
    EXPECT_EQ(x.stats.writes, y.stats.writes) << where;
    EXPECT_EQ(x.stats.restore_cycles, y.stats.restore_cycles) << where;
    ASSERT_EQ(x.first_detections.size(), y.first_detections.size()) << where;
    for (std::size_t d = 0; d < x.first_detections.size(); ++d) {
      EXPECT_EQ(x.first_detections[d].row, y.first_detections[d].row);
      EXPECT_EQ(x.first_detections[d].col, y.first_detections[d].col);
    }
  };
  expect_sessions_identical(a.prr.functional, b.prr.functional);
  expect_sessions_identical(a.prr.low_power, b.prr.low_power);
}

void expect_entries_identical(const core::CampaignEntry& a,
                              const core::CampaignEntry& b,
                              const std::string& where) {
  EXPECT_EQ(a.spec.kind, b.spec.kind) << where;
  EXPECT_TRUE(a.spec.victim == b.spec.victim) << where;
  EXPECT_EQ(a.detected_functional, b.detected_functional) << where;
  EXPECT_EQ(a.detected_low_power, b.detected_low_power) << where;
  EXPECT_EQ(a.mismatches_functional, b.mismatches_functional) << where;
  EXPECT_EQ(a.mismatches_low_power, b.mismatches_low_power) << where;
}

// --- job spec round trips --------------------------------------------------

TEST(JobSpec, SweepJobRoundTripPreservesFingerprint) {
  const JobSpec job = small_sweep_job();
  const JobSpec back =
      dist::job_from_json(io::JsonValue::parse(dist::to_json(job).dump(2)));
  EXPECT_EQ(back.kind, JobSpec::Kind::kSweep);
  EXPECT_EQ(back.size(), job.size());
  EXPECT_EQ(back.fingerprint(), job.fingerprint());
}

TEST(JobSpec, CampaignJobRoundTripPreservesFingerprint) {
  const JobSpec job = small_campaign_job();
  const JobSpec back =
      dist::job_from_json(io::JsonValue::parse(dist::to_json(job).dump()));
  EXPECT_EQ(back.kind, JobSpec::Kind::kCampaign);
  EXPECT_EQ(back.size(), job.size());
  EXPECT_EQ(back.fingerprint(), job.fingerprint());
  // Different jobs get different fingerprints.
  JobSpec other = job;
  other.faults.pop_back();
  EXPECT_NE(other.fingerprint(), job.fingerprint());
}

// --- per-kind execution and merge ------------------------------------------

/// Execute @p indices of @p job and collect the result lines.
std::vector<io::JsonValue> execute(const JobSpec& job,
                                   const std::vector<std::size_t>& indices,
                                   unsigned threads = 1) {
  std::vector<io::JsonValue> lines;
  EXPECT_TRUE(dist::execute_indices(job, indices, threads,
                                    /*batched_campaigns=*/true,
                                    [&](io::JsonValue line) {
                                      lines.push_back(std::move(line));
                                      return true;
                                    }));
  return lines;
}

TEST(ExecuteIndices, SweepResultLinesEqualDirectExecution) {
  const JobSpec job = small_sweep_job();
  const auto reference = core::SweepRunner().run(job.grid);
  const std::vector<std::size_t> indices = {7, 0, 11, 4};
  const std::vector<io::JsonValue> lines = execute(job, indices);
  ASSERT_EQ(lines.size(), indices.size());
  dist::MergedResult merged = dist::empty_result(job);
  for (std::size_t j = 0; j < lines.size(); ++j) {
    EXPECT_EQ(lines[j].at("type").as_string(), "sweep_point");
    EXPECT_EQ(dist::store_result(lines[j], merged), indices[j]);
    expect_points_identical(merged.sweep[indices[j]], reference[indices[j]],
                            "index " + std::to_string(indices[j]));
  }
}

TEST(ExecuteIndices, CampaignResultLinesEqualDirectExecution) {
  const JobSpec job = small_campaign_job();
  const auto reference =
      core::CampaignRunner().run(job.config, *job.test, job.faults);
  std::vector<std::size_t> indices;
  for (std::size_t i = 1; i < job.size(); i += 3) indices.push_back(i);
  const std::vector<io::JsonValue> lines = execute(job, indices, 2);
  ASSERT_EQ(lines.size(), indices.size());
  dist::MergedResult merged = dist::empty_result(job);
  EXPECT_EQ(merged.campaign.algorithm, reference.algorithm);
  for (std::size_t j = 0; j < lines.size(); ++j) {
    EXPECT_EQ(lines[j].at("index").as_size(), indices[j]);
    EXPECT_EQ(dist::store_result(lines[j], merged), indices[j]);
    expect_entries_identical(merged.campaign.entries[indices[j]],
                             reference.entries[indices[j]],
                             "entry " + std::to_string(indices[j]));
  }
}

TEST(ExecuteIndices, EmitCanStopTheStream) {
  const JobSpec job = small_sweep_job();
  std::size_t seen = 0;
  EXPECT_FALSE(dist::execute_indices(
      job, {0, 1, 2}, 1, true, [&](io::JsonValue) { return ++seen < 2; }));
  EXPECT_EQ(seen, 2u);
}

TEST(StoreResult, RefusesForeignKindsAndOutOfRangeIndices) {
  const JobSpec sweep = small_sweep_job();
  const JobSpec campaign = small_campaign_job();
  const io::JsonValue sweep_line = execute(sweep, {9}).front();
  io::JsonValue campaign_line = execute(campaign, {0}).front();
  dist::MergedResult campaign_slots = dist::empty_result(campaign);
  EXPECT_THROW(dist::store_result(sweep_line, campaign_slots), Error);
  campaign_line.set("index", io::JsonValue::integer(campaign.size()));
  EXPECT_THROW(dist::store_result(campaign_line, campaign_slots), Error);
  // A sweep point outside a smaller grid is refused too.
  JobSpec smaller = sweep;
  smaller.grid.geometries.resize(1);  // 4 points
  dist::MergedResult smaller_slots = dist::empty_result(smaller);
  EXPECT_THROW(dist::store_result(sweep_line, smaller_slots), Error);
}

// A cached point rebinds into any grid that contains it: the payload is
// grid-neutral, and the rebound line equals the line direct execution
// emits for that grid's slot.
TEST(PointPayload, RebindsIntoAnotherGridAsItsDirectResultLine) {
  const JobSpec big = small_sweep_job();
  JobSpec single_point;
  single_point.kind = JobSpec::Kind::kSweep;
  single_point.grid.geometries = {big.grid.geometries[2]};
  single_point.grid.backgrounds = {big.grid.backgrounds[1]};
  single_point.grid.algorithms = {big.grid.algorithms[1]};
  const std::size_t index = 11;  // (geometry 2, background 1, algorithm 1)
  ASSERT_EQ(dist::point_fingerprint(big, index),
            dist::point_fingerprint(single_point, 0));

  dist::MergedResult merged = dist::empty_result(big);
  dist::store_result(execute(big, {index}).front(), merged);
  const std::string payload = dist::point_payload(merged, index);
  dist::MergedResult rebound = dist::empty_result(single_point);
  const io::JsonValue line =
      dist::rebind_payload(single_point, 0, payload, rebound);
  EXPECT_EQ(line.dump(), execute(single_point, {0}).front().dump());
  expect_points_identical(rebound.sweep[0],
                          core::SweepRunner().run(single_point.grid)[0],
                          "rebound point");
  EXPECT_THROW(dist::rebind_payload(single_point, 0, "{", rebound), Error);
}

// --- the acceptance anchor: service workers == single-process --------------

/// The single-process reference document.
std::string single_document(const JobSpec& job) {
  return dist::merged_document(dist::run_single(job));
}

/// Submit @p job to a fresh service with @p workers worker threads.
std::string service_document(const JobSpec& job, std::size_t points_per_shard,
                             int workers = 3) {
  dist::Service::Options options;
  options.points_per_shard = points_per_shard;
  dist::Service service(options);
  service.start();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w)
    threads.emplace_back([address = service.address()] {
      dist::ServiceWorker().run(address);
    });
  // Every worker connects before the job arrives: a worker thread first
  // scheduled after the others finished the job and the service stopped
  // would retry the closed endpoint until its connect timeout and throw.
  while (service.stats().workers_connected < static_cast<unsigned>(workers))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::string document =
      dist::submit_job(service.address(), job, 10000).document;
  service.request_stop();
  service.wait();
  for (std::thread& t : threads) t.join();
  return document;
}

TEST(ServicePath, SweepByteIdenticalToSingleProcessAtAnyShardSize) {
  const JobSpec job = small_sweep_job();
  const std::string reference = single_document(job);
  // Shard sizes around and past the point count.
  for (const std::size_t points_per_shard : {1u, 5u, 16u})
    EXPECT_EQ(service_document(job, points_per_shard), reference)
        << points_per_shard << " points per shard";
}

TEST(ServicePath, CampaignByteIdenticalToSingleProcess) {
  const JobSpec job = small_campaign_job();
  EXPECT_EQ(service_document(job, 4, 4), single_document(job));
}

// Traced jobs cross the process boundary too: the TraceSummary must
// survive the result lines bit-exactly (the CI byte-diff covers the full
// CLI path on top of this).
TEST(ServicePath, TracedSweepByteIdenticalToSingleProcess) {
  JobSpec job = small_sweep_job();
  job.grid.base.trace =
      power::TraceConfig{.window_cycles = 16, .keep_windows = true};
  const std::string reference = single_document(job);
  EXPECT_NE(reference.find("\"peak_window_energy_j\""), std::string::npos);
  EXPECT_EQ(service_document(job, 5), reference);
}

// --- run_job -----------------------------------------------------------------

TEST(RunJob, FailsWithANamedErrorWhenEveryWorkerExits) {
  TempDir dir("all_workers_exit");
  try {
    dist::run_job(small_sweep_job(), dir.str(),
                  {{"/bin/false"}, {"/bin/false"}});
    FAIL() << "run_job returned with no worker alive";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "every worker exited before the job completed"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
