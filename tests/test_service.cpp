// The sweep service (dist/service.h) and its parts: steal-queue ownership
// and fault-tolerance invariants, the two-tier result cache (LRU + spill,
// including torn-tail recovery), the framed socket transport, canonical
// per-point fingerprints, and the acceptance anchor — a service-computed
// job is byte-identical to `sramlp_dist single` on the same job, a
// resubmitted job is answered from the cache without executing a shard,
// byte-identical again, and a restart over the spill of a killed run
// computes only the points that run never delivered.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/job.h"
#include "dist/result_cache.h"
#include "dist/service.h"
#include "dist/steal_queue.h"
#include "io/framing.h"
#include "march/algorithms.h"
#include "obs/log.h"
#include "obs/trace.h"
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
              ("sramlp_service_test_" + tag + "_" +
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

/// The byte-level ground truth: the single-process merged document.
std::string single_document(const JobSpec& job) {
  return dist::merged_document(dist::run_single(job));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

// --- StealQueue --------------------------------------------------------------

TEST(StealQueue, ChopsIntoSmallShardsAndPreservesEveryIndex) {
  const dist::StealQueue queue(iota_indices(10), 3);
  const auto stats = queue.stats();
  EXPECT_EQ(stats.shard_count, 4u);  // 3+3+3+1
  EXPECT_EQ(stats.pending, 4u);
  EXPECT_FALSE(queue.done());
}

TEST(StealQueue, MaxShardsGrowsShardSize) {
  const dist::StealQueue queue(iota_indices(100), 1, 8);
  const auto stats = queue.stats();
  EXPECT_LE(stats.shard_count, 8u);
  // ceil(100/8) = 13 per shard -> 8 shards of <= 13.
  EXPECT_EQ(stats.shard_count, 8u);
}

TEST(StealQueue, LeaseCompleteLifecycle) {
  dist::StealQueue queue(iota_indices(4), 2);
  std::size_t seen = 0;
  while (auto shard = queue.lease(/*worker_id=*/1)) {
    seen += shard->indices.size();
    queue.complete(shard->id);
  }
  EXPECT_EQ(seen, 4u);
  EXPECT_TRUE(queue.done());
  EXPECT_EQ(queue.stats().requeues, 0u);
}

TEST(StealQueue, AbandonRequeuesOnlyThatWorkersLeases) {
  dist::StealQueue queue(iota_indices(6), 2);  // 3 shards
  const auto a = queue.lease(1);
  const auto b = queue.lease(2);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(queue.abandon(1), 1u);  // worker 1 died holding one shard
  EXPECT_EQ(queue.stats().pending, 2u);  // its shard + the never-leased one
  // Worker 2 finishes everything, including the requeued shard.
  queue.complete(b->id);
  while (auto shard = queue.lease(2)) queue.complete(shard->id);
  EXPECT_TRUE(queue.done());
  EXPECT_EQ(queue.stats().requeues, 1u);
}

TEST(StealQueue, LateCompletionOfRequeuedShardDropsStalePendingCopy) {
  dist::StealQueue queue(iota_indices(2), 2);  // one shard
  const auto shard = queue.lease(1);
  ASSERT_TRUE(shard);
  EXPECT_EQ(queue.abandon(1), 1u);   // presumed dead...
  queue.complete(shard->id);         // ...but its completion arrives late
  EXPECT_TRUE(queue.done());
  EXPECT_FALSE(queue.lease(2).has_value());  // stale copy is gone
}

TEST(StealQueue, FailRetriesBoundedTimes) {
  dist::StealQueue queue(iota_indices(2), 2);  // one shard
  const unsigned retries = 1;                  // 2 attempts total
  auto first = queue.lease(1);
  ASSERT_TRUE(first);
  EXPECT_TRUE(queue.fail(first->id, retries));   // attempt 1 failed: requeued
  auto second = queue.lease(1);
  ASSERT_TRUE(second);
  EXPECT_FALSE(queue.fail(second->id, retries));  // attempt 2 failed: give up
}

// --- ResultCache -------------------------------------------------------------

TEST(ResultCache, MemoryLruEvictsLeastRecentlyUsed) {
  dist::ResultCache cache({/*capacity=*/2, /*spill_path=*/""});
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_EQ(cache.get(1), std::optional<std::string>("one"));  // 1 now MRU
  cache.put(3, "three");                                       // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.get(2).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCache, SpillSurvivesRestartAndEviction) {
  TempDir dir("spill");
  const std::string spill = dir.str() + "/cache.jsonl";
  {
    dist::ResultCache cache({/*capacity=*/1, spill});
    cache.put(10, "ten");
    cache.put(20, "twenty");  // evicts 10 from memory; both on disk
    EXPECT_EQ(cache.get(10), std::optional<std::string>("ten"));  // spill hit
    EXPECT_GE(cache.stats().spill_hits, 1u);
  }
  // A fresh cache over the same spill file warm-starts from it.
  dist::ResultCache reborn({/*capacity=*/4, spill});
  EXPECT_EQ(reborn.stats().loaded, 2u);
  EXPECT_EQ(reborn.get(20), std::optional<std::string>("twenty"));
  EXPECT_EQ(reborn.get(10), std::optional<std::string>("ten"));
}

TEST(ResultCache, TornTailRecordIsSkippedAndOverwritten) {
  TempDir dir("torn");
  const std::string spill = dir.str() + "/cache.jsonl";
  {
    dist::ResultCache cache({4, spill});
    cache.put(1, "alpha");
    cache.put(2, "beta");
  }
  {
    // Simulate a daemon killed mid-append: chop the final record short.
    std::ifstream in(spill);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(spill, std::ios::trunc);
    out << contents.substr(0, contents.size() - 7);
  }
  dist::ResultCache cache({4, spill});
  EXPECT_EQ(cache.stats().loaded, 1u);  // the intact record only
  EXPECT_EQ(cache.get(1), std::optional<std::string>("alpha"));
  EXPECT_FALSE(cache.get(2).has_value());
  cache.put(3, "gamma");  // appends cleanly past the torn tail
  dist::ResultCache after({4, spill});
  EXPECT_EQ(after.get(3), std::optional<std::string>("gamma"));
  EXPECT_EQ(after.get(1), std::optional<std::string>("alpha"));
}

// --- framing -----------------------------------------------------------------

TEST(Framing, RoundTripsDocumentsOverTcp) {
  io::Socket listener = io::listen_socket("tcp:0");
  const std::string address = io::local_address(listener);
  std::thread server([&] {
    io::LineChannel channel(io::accept_connection(listener));
    while (auto message = channel.receive()) channel.send(*message);
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  io::JsonValue doc = io::JsonValue::object();
  doc.set("exact", io::JsonValue::integer(9007199254740993ull));  // 2^53+1
  doc.set("pi", io::JsonValue::number(3.141592653589793));
  ASSERT_TRUE(client.send(doc));
  const auto echo = client.receive();
  ASSERT_TRUE(echo.has_value());
  EXPECT_EQ(echo->dump(), doc.dump());  // byte-exact through the wire

  // A multi-MiB frame (a merged document travels as one line) followed by
  // back-to-back small frames: each comes back whole and in order.
  io::JsonValue big = io::JsonValue::object();
  big.set("blob", io::JsonValue::string(std::string(6u << 20, 'x')));
  ASSERT_TRUE(client.send(big));
  constexpr int kSmall = 200;
  for (int i = 0; i < kSmall; ++i) {
    io::JsonValue small = io::JsonValue::object();
    small.set("i", io::JsonValue::integer(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(client.send(small));
  }
  const auto big_echo = client.receive();
  ASSERT_TRUE(big_echo.has_value());
  EXPECT_EQ(big_echo->at("blob").as_string().size(), 6u << 20);
  for (int i = 0; i < kSmall; ++i) {
    const auto small_echo = client.receive();
    ASSERT_TRUE(small_echo.has_value()) << "frame " << i;
    EXPECT_EQ(small_echo->at("i").as_uint(), static_cast<std::uint64_t>(i));
  }
  client.shutdown();
  listener.shutdown();
  server.join();
}

TEST(Framing, UnixSocketAndStaleBindRecovery) {
  TempDir dir("unixsock");
  const std::string address = "unix:" + dir.str() + "/svc.sock";
  {
    io::Socket listener = io::listen_socket(address);
    EXPECT_EQ(io::local_address(listener), address);
  }
  // The path is now a stale socket file; rebinding must succeed.
  io::Socket listener = io::listen_socket(address);
  std::thread server([&] {
    io::LineChannel channel(io::accept_connection(listener));
    channel.receive();
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  EXPECT_TRUE(client.send(io::JsonValue::object()));
  client.shutdown();
  listener.shutdown();
  server.join();
}

TEST(Framing, GarbledFrameReadsAsEndOfStream) {
  io::Socket listener = io::listen_socket("tcp:0");
  const std::string address = io::local_address(listener);
  std::thread server([&] {
    io::Socket conn = io::accept_connection(listener);
    const char raw[] = "{\"truncated\": tru\n";  // never valid JSON
    (void)::send(conn.fd(), raw, sizeof raw - 1, 0);
  });
  io::LineChannel client(io::connect_socket(address, 2000));
  EXPECT_FALSE(client.receive().has_value());  // torn frame reads as EOF
  server.join();
  listener.shutdown();
}

// --- fingerprints ------------------------------------------------------------

TEST(Fingerprints, SamePhysicalPointHashesEquallyAcrossGrids) {
  const JobSpec big = small_sweep_job();
  JobSpec small;
  small.kind = JobSpec::Kind::kSweep;
  // Grid point (geometry 0, background 0, algorithm 0) of `big`, alone.
  small.grid.geometries = {big.grid.geometries[0]};
  small.grid.backgrounds = {big.grid.backgrounds[0]};
  small.grid.algorithms = {big.grid.algorithms[0]};
  EXPECT_EQ(dist::point_fingerprint(big, 0), dist::point_fingerprint(small, 0));
  // A different algorithm at the same config must NOT collide.
  EXPECT_NE(dist::point_fingerprint(big, 0), dist::point_fingerprint(big, 1));
  // Job fingerprints of different grids differ even when points overlap.
  EXPECT_NE(big.fingerprint(), small.fingerprint());
}

TEST(Fingerprints, Fnv1a64MatchesKnownVector) {
  // FNV-1a test vectors: empty -> offset basis, "a" -> published digest.
  EXPECT_EQ(dist::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(dist::fnv1a64("a"), 12638187200555641996ull);
}

// --- Service end-to-end ------------------------------------------------------

/// Service + worker-thread harness: workers run the real steal protocol
/// over real sockets, in-process.
class ServiceHarness {
 public:
  explicit ServiceHarness(dist::Service::Options options,
                          std::size_t workers = 2,
                          dist::ServiceWorker::Options worker_options = {}) {
    options.listen = "tcp:0";
    service_ = std::make_unique<dist::Service>(options);
    service_->start();
    address_ = service_->address();
    for (std::size_t w = 0; w < workers; ++w)
      threads_.emplace_back([this, worker_options] {
        dist::ServiceWorker(worker_options).run(service_->address());
      });
  }

  ~ServiceHarness() {
    service_->request_stop();
    service_->wait();
    for (std::thread& t : threads_) t.join();
  }

  const std::string& address() const { return address_; }
  dist::Service& service() { return *service_; }

  void add_worker(dist::ServiceWorker::Options options) {
    threads_.emplace_back([this, options] {
      dist::ServiceWorker(options).run(service_->address());
    });
  }

 private:
  std::unique_ptr<dist::Service> service_;
  std::string address_;
  std::vector<std::thread> threads_;
};

TEST(Service, SweepJobByteIdenticalToSingleAndCachedOnResubmit) {
  const JobSpec job = small_sweep_job();
  const std::string reference = single_document(job);
  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/3);

  const dist::SubmitResult first =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.total_points, job.size());
  EXPECT_EQ(first.streamed_lines, job.size());
  EXPECT_EQ(first.document, reference);  // byte-identical to single

  const dist::SubmitResult second =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(second.cache_hit);           // no shard executed
  EXPECT_EQ(second.streamed_lines, 0u);    // replayed, not recomputed
  EXPECT_EQ(second.document, reference);   // byte-identical again

  const dist::ServiceStats stats = harness.service().stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.job_cache_hits, 1u);
  EXPECT_EQ(stats.points_executed, job.size());  // once, not twice
}

TEST(Service, CampaignJobByteIdenticalToSingle) {
  const JobSpec job = small_campaign_job();
  const std::string reference = single_document(job);
  dist::Service::Options options;
  options.points_per_shard = 3;
  ServiceHarness harness(options, /*workers=*/2);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_EQ(result.document, reference);
  const dist::SubmitResult again =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.document, reference);
}

TEST(Service, PointCacheAnswersOverlapOfANewJob) {
  const JobSpec big = small_sweep_job();  // 12 points
  JobSpec subset;
  subset.kind = JobSpec::Kind::kSweep;
  subset.grid.geometries = {big.grid.geometries[0], big.grid.geometries[1]};
  subset.grid.backgrounds = {big.grid.backgrounds[0]};
  subset.grid.algorithms = big.grid.algorithms;  // 4 points, all inside big
  const std::string reference = single_document(subset);

  dist::Service::Options options;
  options.points_per_shard = 2;
  ServiceHarness harness(options, /*workers=*/2);
  dist::submit_job(harness.address(), big, 5000);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), subset, 5000);
  EXPECT_FALSE(result.cache_hit);  // different job fingerprint...
  EXPECT_EQ(result.cached_points, subset.size());  // ...but every point known
  EXPECT_EQ(result.document, reference);  // rebound coordinates, exact bytes
  EXPECT_EQ(harness.service().stats().points_executed, big.size());
}

TEST(Service, InFlightDuplicateSubmitsAttachInsteadOfRecomputing) {
  const JobSpec job = small_sweep_job();
  const std::string reference = single_document(job);
  dist::Service::Options options;
  options.points_per_shard = 1;  // many small shards: a wide in-flight window
  dist::ServiceWorker::Options slow;
  slow.slow_point_us = 3000;
  ServiceHarness harness(options, /*workers=*/1, slow);

  std::vector<dist::SubmitResult> results(2);
  std::thread a([&] { results[0] = dist::submit_job(harness.address(), job); });
  std::thread b([&] { results[1] = dist::submit_job(harness.address(), job); });
  a.join();
  b.join();
  EXPECT_EQ(results[0].document, reference);
  EXPECT_EQ(results[1].document, reference);
  const dist::ServiceStats stats = harness.service().stats();
  // Both orders are legal (the second submit may land after completion and
  // hit the job cache instead), but the points ran at most once.
  EXPECT_EQ(stats.points_executed, job.size());
  EXPECT_EQ(stats.jobs_deduplicated + stats.job_cache_hits, 1u);
}

TEST(Service, SpillFileAnswersAcrossDaemonRestartsWithNoWorkers) {
  TempDir dir("restart");
  const std::string spill = dir.str() + "/results.jsonl";
  const JobSpec job = small_sweep_job();
  std::string reference;
  {
    dist::Service::Options options;
    options.cache.spill_path = spill;
    ServiceHarness harness(options, /*workers=*/2);
    reference = dist::submit_job(harness.address(), job, 5000).document;
  }
  // A brand-new daemon with ZERO workers must answer from the spill.
  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/0);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.document, reference);
  EXPECT_EQ(result.document, single_document(job));
}

// Resume: points are spilled as they are delivered, so a daemon that dies
// mid-job leaves its finished points behind.  The only worker streams 5
// of 12 points and vanishes; the daemon is then stopped with the job
// unfinished.  A new daemon over the same spill computes the other 7.
TEST(Service, RestartOverSpillComputesOnlyUndeliveredPoints) {
  TempDir dir("resume");
  const std::string spill = dir.str() + "/results.jsonl";
  const JobSpec job = small_sweep_job();
  constexpr std::size_t kDelivered = 5;
  {
    dist::Service::Options options;
    options.points_per_shard = 2;
    options.cache.spill_path = spill;
    dist::ServiceWorker::Options dying;
    dying.die_after_points = kDelivered;
    ServiceHarness harness(options, /*workers=*/1, dying);
    std::thread submitter([&] {
      EXPECT_THROW(dist::submit_job(harness.address(), job, 5000), Error);
    });
    while (harness.service().stats().workers_lost == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(harness.service().stats().points_executed, kDelivered);
    harness.service().request_stop();
    submitter.join();
  }
  dist::Service::Options options;
  options.cache.spill_path = spill;
  ServiceHarness harness(options, /*workers=*/2);
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), job, 5000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(result.cached_points, kDelivered);
  EXPECT_EQ(harness.service().stats().points_executed,
            job.size() - kDelivered);
  EXPECT_EQ(result.document, single_document(job));
}

TEST(Service, StatsQueryAndShutdownOverTheWire) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  dist::submit_job(harness.address(), small_sweep_job(), 5000);
  const dist::ServiceStats stats = dist::query_stats(harness.address());
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_GE(stats.workers_connected, 1u);
  dist::request_shutdown(harness.address());
  harness.service().wait();  // returns because the shutdown arrived
}

TEST(Service, TelemetryOnOffDocumentsAreByteIdentical) {
  // The telemetry contract: logging at the chattiest level plus span
  // tracing must never perturb a single result byte.  Both runs compute
  // the job from scratch (independent daemons, no shared spill file), so
  // this is not answered by cache replay.
  TempDir dir("telemetry");
  const JobSpec job = small_sweep_job();
  const std::string reference = single_document(job);

  obs::Logger::global().configure(obs::LogLevel::kDebug,
                                  obs::Logger::Format::kJsonl,
                                  dir.str() + "/service.log");
  obs::Tracer::global().enable(1 << 12);
  std::string with_telemetry;
  {
    dist::Service::Options options;
    options.points_per_shard = 2;
    ServiceHarness harness(options, /*workers=*/2);
    with_telemetry = dist::submit_job(harness.address(), job, 5000).document;
  }
  const std::uint64_t spans = obs::Tracer::global().recorded();
  obs::Tracer::global().disable();
  obs::Logger::global().configure(obs::LogLevel::kOff,
                                  obs::Logger::Format::kHuman, "");

  std::string without_telemetry;
  {
    dist::Service::Options options;
    options.points_per_shard = 2;
    ServiceHarness harness(options, /*workers=*/2);
    without_telemetry =
        dist::submit_job(harness.address(), job, 5000).document;
  }
  obs::Logger::global().configure(obs::LogLevel::kInfo,
                                  obs::Logger::Format::kHuman, "");

  // The instrumented run actually instrumented something...
  EXPECT_GT(spans, 0u);
  EXPECT_FALSE(read_file(dir.str() + "/service.log").empty());
  // ...and neither telemetry state changed a single byte.
  EXPECT_EQ(with_telemetry, reference);
  EXPECT_EQ(without_telemetry, reference);
}

TEST(Service, MetricsRequestServesPrometheusOverTheWire) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  dist::submit_job(harness.address(), small_sweep_job(), 5000);
  const dist::MetricsSnapshot snapshot =
      dist::query_metrics(harness.address());
  // The Prometheus text carries the service counters with live values.
  EXPECT_NE(snapshot.prometheus.find("# TYPE sramlp_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(snapshot.prometheus.find("sramlp_points_executed_total"),
            std::string::npos);
  // The JSON lane exposes the same registry.
  EXPECT_TRUE(snapshot.json.has("sramlp_jobs_submitted_total"));
  EXPECT_GE(snapshot.json.at("sramlp_jobs_submitted_total")
                .at("instances")
                .at(std::size_t{0})
                .at("value")
                .as_uint(),
            1u);
}

TEST(Service, RejectsMalformedJobWithoutDying) {
  dist::Service::Options options;
  ServiceHarness harness(options, /*workers=*/1);
  io::LineChannel channel(io::connect_socket(harness.address(), 5000));
  io::JsonValue bad = io::JsonValue::object();
  bad.set("type", io::JsonValue::string("submit"));
  bad.set("job", io::JsonValue::object());  // no kind/grid: invalid
  ASSERT_TRUE(channel.send(bad));
  const auto reply = channel.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->at("type").as_string(), "job_failed");
  // The service survives and still answers real jobs.
  const dist::SubmitResult result =
      dist::submit_job(harness.address(), small_sweep_job(), 5000);
  EXPECT_EQ(result.document, single_document(small_sweep_job()));
}

}  // namespace
