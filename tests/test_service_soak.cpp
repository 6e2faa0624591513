// Sweep-service soak: the ISSUE's two load-bearing claims, end to end.
//
//  * Resilience under churn — a service with several concurrent
//    submitters (duplicate and distinct jobs interleaved) and a worker
//    that dies mid-shard still hands EVERY submitter a document
//    byte-identical to the single-process run, with the dead worker's
//    leases requeued onto the survivors.
//
//  * Scheduling — with one deliberately slow worker out of four, the
//    slow worker computes less than the fixed quarter of the grid a
//    static four-way plan would give it, and the job finishes inside that
//    plan's critical path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/job.h"
#include "dist/service.h"
#include "march/algorithms.h"

// gcc spells sanitizer presence __SANITIZE_*__; clang answers through
// __has_feature.  Either way the timing assertion below is off.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SRAMLP_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SRAMLP_UNDER_SANITIZER 1
#endif
#endif

namespace {

using namespace sramlp;
using dist::JobSpec;

JobSpec sweep_job_a() {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{8, 16, 1}, {4, 32, 1}, {6, 24, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  return job;  // 12 points
}

JobSpec sweep_job_b() {
  JobSpec job = sweep_job_a();
  job.grid.backgrounds = {sram::DataBackground::solid1()};
  return job;  // 6 points, disjoint from job A's backgrounds
}

JobSpec campaign_job() {
  JobSpec job;
  job.kind = JobSpec::Kind::kCampaign;
  job.config.geometry = {8, 8, 1};
  job.test = march::algorithms::march_c_minus();
  job.faults = faults::standard_fault_library(job.config.geometry, 11);
  return job;
}

std::string single_document(const JobSpec& job) {
  return dist::merged_document(dist::run_single(job));
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ServiceSoak, ConcurrentSubmittersSurviveAWorkerDeath) {
  dist::Service::Options options;
  options.points_per_shard = 2;
  dist::Service service(options);
  service.start();
  const std::string address = service.address();

  // One suicidal worker: no artificial delay, so it races ahead, grabs
  // shards first, streams three points and drops its connection mid-shard
  // (no shard_done).  Two slow-but-healthy workers inherit its requeued
  // leases.
  std::vector<std::thread> workers;
  {
    dist::ServiceWorker::Options dying;
    dying.die_after_points = 3;
    workers.emplace_back(
        [address, dying] { dist::ServiceWorker(dying).run(address); });
    dist::ServiceWorker::Options healthy;
    healthy.slow_point_us = 2000;
    for (int w = 0; w < 2; ++w)
      workers.emplace_back(
          [address, healthy] { dist::ServiceWorker(healthy).run(address); });
  }

  const std::vector<JobSpec> jobs = {sweep_job_a(), sweep_job_b(),
                                     campaign_job()};
  std::vector<std::string> references;
  for (const JobSpec& job : jobs) references.push_back(single_document(job));

  // Six submitters: every job twice, concurrently — the duplicates land as
  // in-flight dedups or job-cache hits depending on timing, both of which
  // must still produce the reference bytes.
  std::vector<std::string> documents(6);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < documents.size(); ++s)
    submitters.emplace_back([&, s] {
      documents[s] = dist::submit_job(address, jobs[s % jobs.size()],
                                      /*connect_timeout_ms=*/10000)
                         .document;
    });
  for (std::thread& t : submitters) t.join();

  for (std::size_t s = 0; s < documents.size(); ++s)
    EXPECT_EQ(documents[s], references[s % references.size()])
        << "submitter " << s;

  const dist::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 6u);
  EXPECT_EQ(stats.jobs_completed + stats.job_cache_hits +
                stats.jobs_deduplicated,
            6u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_GE(stats.workers_lost, 1u);     // the suicide was noticed...
  EXPECT_GE(stats.shard_requeues, 1u);   // ...and its leases requeued
  // Every duplicate was answered without recomputing: exactly one
  // execution of each distinct point (dead-worker replays excluded by
  // first-wins filling, so executed counts can exceed, but filled points
  // cannot).
  std::printf("soak: %llu points executed, %llu requeues, "
              "cache hit-rate %.2f\n",
              static_cast<unsigned long long>(stats.points_executed),
              static_cast<unsigned long long>(stats.shard_requeues),
              stats.cache.hit_rate());

  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();
}

// The scheduling claim: 4 workers, one of them slow, a 40-point job.  A
// static plan would give the slow worker a fixed quarter of the grid (10
// points at 50 ms each) and the job would wait for it; the steal queue
// lets the slow worker hold only one 2-point shard at a time.  The slow
// point is long on purpose: while the slow worker sits on its first shard
// (100 ms), the fast ones finish the rest of the grid unless the OS starves
// all three for that long, so neither claim hangs on thread scheduling.
// (Which fast worker steals how much does, so it is printed, not checked.)
TEST(ServiceSoak, StealQueueBeatsStaticPlanWithOneSlowWorker) {
  JobSpec job;
  job.kind = JobSpec::Kind::kSweep;
  job.grid.geometries = {{4, 16, 1}, {8, 16, 1}, {4, 32, 1}, {8, 32, 1},
                         {6, 24, 2}, {4, 24, 2}, {8, 24, 1}, {4, 20, 1},
                         {6, 16, 1}, {6, 32, 2}};
  job.grid.backgrounds = {sram::DataBackground::solid0(),
                          sram::DataBackground::checkerboard()};
  job.grid.algorithms = {march::algorithms::mats_plus(),
                         march::algorithms::march_c_minus()};
  ASSERT_EQ(job.size(), 40u);
  const std::string reference = single_document(job);
  constexpr std::uint64_t kSlowPointUs = 50000;  // a 50 ms/point slow host
  constexpr std::size_t kWorkers = 4;
  // The static plan's designed critical path: the slow worker's quarter.
  const double static_critical_seconds =
      static_cast<double>(job.size() / kWorkers) *
      static_cast<double>(kSlowPointUs) * 1e-6;

  dist::Service::Options service_options;
  service_options.points_per_shard = 2;
  dist::Service service(service_options);
  service.start();
  const std::string address = service.address();
  std::vector<std::thread> workers;
  std::vector<std::size_t> stolen(kWorkers, 0);
  for (std::size_t w = 0; w < kWorkers; ++w)
    workers.emplace_back([&, w] {
      dist::ServiceWorker::Options options;
      if (w == 0) options.slow_point_us = kSlowPointUs;
      stolen[w] = dist::ServiceWorker(options).run(address);
    });
  // Every worker is parked on a lease before the job arrives; a worker
  // thread not yet scheduled would otherwise steal nothing at all.
  while (service.stats().workers_connected < kWorkers)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto steal_start = std::chrono::steady_clock::now();
  const dist::SubmitResult steal_result =
      dist::submit_job(address, job, 10000);
  const double steal_seconds = seconds_since(steal_start);
  EXPECT_EQ(steal_result.document, reference);
  EXPECT_FALSE(steal_result.cache_hit);
  service.request_stop();
  service.wait();
  for (std::thread& t : workers) t.join();

  std::printf("scheduling: steal queue %.1f ms vs a static plan's designed "
              "%.1f ms critical path on %zu points, slow worker at %llu "
              "us/point\n",
              steal_seconds * 1e3, static_critical_seconds * 1e3, job.size(),
              static_cast<unsigned long long>(kSlowPointUs));
  std::printf("scheduling: points stolen per worker (worker 0 slow): "
              "%zu %zu %zu %zu\n",
              stolen[0], stolen[1], stolen[2], stolen[3]);
  EXPECT_EQ(stolen[0] + stolen[1] + stolen[2] + stolen[3], job.size());
  EXPECT_LT(stolen[0], job.size() / kWorkers)
      << "the slow worker should compute less than a static plan's quarter";
  // Wall-clock claims are meaningless under sanitizer instrumentation,
  // which taxes the sync-heavy steal protocol far more than the compute.
  // The sanitized build still runs the scheduler above (that is the race
  // coverage); only the timing claim is gated out.
#ifndef SRAMLP_UNDER_SANITIZER
  EXPECT_LT(steal_seconds, static_critical_seconds)
      << "dynamic stealing should finish inside the static plan's critical "
         "path";
#endif
}

}  // namespace
