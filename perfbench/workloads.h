// The four workloads and the layer probes of the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "dist/job.h"
#include "dist/service.h"
#include "harness.h"
#include "io/json.h"
#include "search/search.h"

namespace perfbench {

/// Everything one benchmark process shares across its phases.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;   ///< compute threads (SweepRunner, campaigns, search)
  unsigned workers = 1;   ///< in-process ServiceWorker threads
  Clock::time_point process_start;
  SpanRecorder spans;
  Report report;

  /// Count @p count operations, @p failed of them failed.
  void ops(std::uint64_t count, std::uint64_t failed) {
    report.attempted += count;
    report.failed += failed;
    if (failed > 0) report.correct = false;
  }
  /// Record a failed correctness gate with its reason.
  void gate_failed(const std::string& what);
};

void run_prr_sweep(Context& ctx);
void run_fault_campaign(Context& ctx);
void run_service_stream(Context& ctx);
void run_schedule_search(Context& ctx);

// --- shared by the workloads --------------------------------------------------

/// The closed loop: call @p pass until @p seconds have elapsed (at least
/// once).  A pass returns the items it completed and appends the latency of
/// each job it ran to @p job_ms.
struct LoopResult {
  double wall_s = 0.0;
  std::uint64_t items = 0;
  std::vector<double> job_ms;
  std::vector<PassSample> passes;
};
using Pass = std::function<std::uint64_t(std::vector<double>& job_ms)>;

/// The measured phase.  Untraced runs loop for ctx.seconds.  Traced runs
/// loop half the time untraced, then half traced, and report the ratio of
/// their per-item times as obs.trace_overhead.  Returns the untraced loop
/// (the one end-to-end numbers come from).
LoopResult measure(Context& ctx, const Pass& pass);

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupRepeats = 9;

/// Time @p repeats set-ups (the first from process start; @p teardown,
/// untimed, undoes the previous one before each later set-up).  setup_s is
/// their median.
std::vector<double> repeat_setup(Context& ctx, int repeats,
                                 const std::function<void()>& setup,
                                 const std::function<void()>& teardown = {});

/// setup_s, items_per_s, job latency and peak_rss_mb from one loop.
void report_end_to_end(Context& ctx, const std::vector<double>& setup_s,
                       const LoopResult& loop, double rss_mib);

/// The merged document `sramlp_dist single` writes for @p job, computed in
/// this process on one thread.
std::string single_document(const sramlp::dist::JobSpec& job);

// --- layer probes (traced runs only) -------------------------------------------

/// engine.*, core.session.setup_ms, power.trace_overhead and
/// core.sweep.parallel_eff on every point of @p grid (cycle-accurate, both
/// modes); returns the points for the io probe.
std::vector<sramlp::core::SweepPointResult> probe_engine(
    Context& ctx, const sramlp::core::SweepGrid& grid);

/// io.json.point_us over @p points.
void probe_io(Context& ctx,
              const std::vector<sramlp::core::SweepPointResult>& points);

/// faults.* and core.campaign.parallel_eff.
void probe_faults(Context& ctx, const sramlp::core::SessionConfig& config,
                  const sramlp::march::MarchTest& test,
                  const std::vector<sramlp::faults::FaultSpec>& faults);

/// search.* on restart 0 of each spec (scores on the first spec).
void probe_search(Context& ctx,
                  const std::vector<sramlp::search::SearchSpec>& specs);

/// dist.fingerprint.us_per_job over @p jobs.
void probe_fingerprint(Context& ctx,
                       const std::vector<sramlp::dist::JobSpec>& jobs);

/// The dist.* metrics and io.doc.bytes of a cold submit plus a resubmit of
/// @p job through an in-process service (workloads that do not run one).
void probe_service(Context& ctx, const sramlp::dist::JobSpec& job);

/// The observations a service histogram gained between two metrics
/// scrapes.  The service's buckets grow 4x per step, so the interpolated
/// p50 cannot resolve anything finer than its bucket; sum/count is exact.
struct HistogramDelta {
  double count = 0.0;
  double sum_s = 0.0;
  double p50_s = 0.0;  ///< linear interpolation inside the p50 bucket
  double mean_s() const { return count > 0.0 ? sum_s / count : 0.0; }
};
HistogramDelta histogram_delta(const sramlp::io::JsonValue& before,
                               const sramlp::io::JsonValue& after,
                               const std::string& name);

/// One job submitted through dist::submit_job.
struct SubmitRecord {
  std::size_t job = 0;        ///< stream id
  std::size_t original = 0;   ///< stream id of the job it repeats
  bool cache_hit = false;     ///< answered whole from the job cache
  std::size_t total_points = 0;
  std::size_t cached_points = 0;
  double latency_ms = 0.0;    ///< submit to merged document
  double first_line_ms = -1;  ///< submit to first streamed line (-1: none)
  std::size_t doc_bytes = 0;
  std::uint64_t doc_hash = 0;
  bool threw = false;
};

/// Submit @p job and time it.  With @p lines set, keep the data of every
/// streamed sweep point (the io probe replays them).
SubmitRecord timed_submit(Context& ctx, const std::string& address,
                          const sramlp::dist::JobSpec& job, std::size_t id,
                          std::vector<sramlp::io::JsonValue>* lines = nullptr);

/// The dist.* per-layer metrics and io.doc.bytes of @p records, submitted
/// between the two metrics scrapes and stats snapshots.
/// @p service_overhead is the cold latency over the in-process time.
void report_service_layers(Context& ctx,
                           const std::vector<SubmitRecord>& records,
                           const sramlp::io::JsonValue& metrics_before,
                           const sramlp::io::JsonValue& metrics_after,
                           const sramlp::dist::ServiceStats& before,
                           const sramlp::dist::ServiceStats& after,
                           double service_overhead);

/// An in-process dist::Service with default options and @p workers
/// ServiceWorker threads, all connected when the constructor returns.
class ServiceRig {
 public:
  explicit ServiceRig(unsigned workers);
  ~ServiceRig();
  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;

  const std::string& address() const { return address_; }
  sramlp::dist::Service& service() { return *service_; }

 private:
  void stop();

  std::unique_ptr<sramlp::dist::Service> service_;
  std::string address_;
  std::vector<std::thread> workers_;
};

}  // namespace perfbench
