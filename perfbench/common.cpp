// Helpers shared by the four workloads: the measured loop, set-up timing,
// the end-to-end numbers, the in-process reference document and the
// in-process service.
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "dist/coordinator.h"
#include "workloads.h"

namespace perfbench {

using namespace sramlp;

void Context::gate_failed(const std::string& what) {
  report.correct = false;
  report.line("GATE FAILED: " + what);
}

namespace {

/// Windows of the per-item figures: a sixteenth of the measured time each.
constexpr double kWindowShare = 1.0 / 16.0;

LoopResult loop_for(double seconds, const Pass& pass) {
  LoopResult loop;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    const CpuTimes cpu_start = process_cpu_times();
    const std::uint64_t items = pass(loop.job_ms);
    loop.items += items;
    const CpuTimes cpu_end = process_cpu_times();
    loop.passes.push_back(PassSample{
        static_cast<double>(items), seconds_since(pass_start),
        cpu_end.user_s - cpu_start.user_s, cpu_end.sys_s - cpu_start.sys_s});
  } while (seconds_since(start) < seconds);
  loop.wall_s = seconds_since(start);
  return loop;
}

}  // namespace

LoopResult measure(Context& ctx, const Pass& pass) {
  if (!ctx.trace) {
    ctx.spans.set_enabled(false);
    return loop_for(ctx.seconds, pass);
  }
  ctx.spans.set_enabled(false);
  LoopResult plain = loop_for(ctx.seconds / 2, pass);
  ctx.spans.set_enabled(true);
  const LoopResult traced = loop_for(ctx.seconds / 2, pass);
  const double plain_per_item = plain.wall_s / static_cast<double>(plain.items);
  const double traced_per_item =
      traced.wall_s / static_cast<double>(traced.items);
  ctx.report.metric("obs.trace_overhead", traced_per_item / plain_per_item,
                    "ratio");
  return plain;
}

std::vector<double> repeat_setup(Context& ctx, int repeats,
                                 const std::function<void()>& setup,
                                 const std::function<void()>& teardown) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    if (r > 0 && teardown) teardown();
    const Clock::time_point start =
        r == 0 ? ctx.process_start : Clock::now();
    setup();
    samples.push_back(seconds_since(start));
  }
  return samples;
}

void report_end_to_end(Context& ctx, const std::vector<double>& setup_s,
                       const LoopResult& loop, double rss_mib) {
  Report& r = ctx.report;
  r.metric("setup_s", median(setup_s), "s");
  const std::vector<Window> windows =
      group_windows(loop.passes, kWindowShare * loop.wall_s);
  r.metric("user_cpu_ms_per_item", window_median(windows, user_ms_per_item),
           "ms");
  r.note("sys_cpu_ms_per_item", window_median(windows, sys_ms_per_item), "ms");
  r.metric("items_per_s", window_median(windows, rate_of), "items/s");
  r.metric("job_p50_ms", percentile(loop.job_ms, 50.0), "ms");
  r.note("job_p95_ms", percentile(loop.job_ms, 95.0), "ms");
  r.metric("peak_rss_mb", rss_mib, "MiB");
  const TailChoice tail = choose_tail(loop.job_ms.size());
  char text[256];
  if (tail.percentile > 0.0) {
    std::snprintf(text, sizeof text,
                  "job latency: %zu samples; tail p%g = %.3f ms with %zu "
                  "samples beyond it",
                  tail.samples, tail.percentile,
                  percentile(loop.job_ms, tail.percentile), tail.beyond);
  } else {
    std::snprintf(text, sizeof text,
                  "job latency: %zu samples; too few to resolve a tail "
                  "percentile with 10 samples beyond it (p95 is a near-max)",
                  tail.samples);
  }
  r.line(text);
  std::string samples = "set-up samples (s):";
  for (const double v : setup_s) samples += " " + std::to_string(v);
  r.line(samples);
  std::string rates = "windows, items/s / user / sys CPU ms per item:";
  for (const Window& w : windows) {
    std::snprintf(text, sizeof text, " %.4g/%.4g/%.4g", rate_of(w),
                  user_ms_per_item(w), sys_ms_per_item(w));
    rates += text;
  }
  r.line(rates);
  std::snprintf(text, sizeof text,
                "loop: %llu items in %.3f s (%.6g items/s overall; "
                "per-item figures are medians of %zu windows of >= %g s); "
                "set-up median of %zu",
                static_cast<unsigned long long>(loop.items), loop.wall_s,
                static_cast<double>(loop.items) / loop.wall_s, windows.size(),
                kWindowShare * loop.wall_s, setup_s.size());
  r.line(text);
}

std::string single_document(const dist::JobSpec& job) {
  dist::MergedResult merged;
  merged.kind = job.kind;
  if (job.kind == dist::JobSpec::Kind::kSweep) {
    merged.sweep = core::SweepRunner({1, core::BackendChoice::kAuto})
                       .run(job.grid);
  } else if (job.kind == dist::JobSpec::Kind::kSearch) {
    merged.search = search::run_search(*job.search, 1).restarts;
  } else {
    core::CampaignRunner::Options options;
    options.threads = 1;
    options.batched = true;
    core::CampaignReport report =
        core::CampaignRunner(options).run(job.config, *job.test, job.faults);
    merged.campaign.algorithm = report.algorithm;
    merged.campaign.entries = std::move(report.entries);
  }
  return dist::merged_document(merged);
}

ServiceRig::ServiceRig(unsigned workers) {
  dist::Service::Options options;  // the defaults: tcp:0, 128-entry cache
  service_ = std::make_unique<dist::Service>(options);
  service_->start();
  address_ = service_->address();
  const std::uint64_t before = service_->stats().workers_connected;
  try {
    for (unsigned w = 0; w < workers; ++w)
      workers_.emplace_back([address = address_] {
        // A worker that loses its service ends; the submitter then sees
        // the job fail, which the workload counts.
        try {
          dist::ServiceWorker().run(address);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "service worker: %s\n", e.what());
        }
      });
    const Clock::time_point start = Clock::now();
    while (service_->stats().workers_connected < before + workers) {
      if (seconds_since(start) > 10.0)
        throw std::runtime_error("service workers did not connect");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (...) {
    stop();
    throw;
  }
}

void ServiceRig::stop() {
  service_->request_stop();
  service_->wait();
  for (std::thread& t : workers_) t.join();
}

ServiceRig::~ServiceRig() { stop(); }

HistogramDelta histogram_delta(const io::JsonValue& before,
                               const io::JsonValue& after,
                               const std::string& name) {
  HistogramDelta d;
  if (!after.has(name) || after.at(name).at("instances").size() == 0)
    return d;
  const io::JsonValue& now = after.at(name).at("instances").at(0);
  const io::JsonValue& bounds = now.at("bounds");
  std::vector<double> delta;
  for (std::size_t i = 0; i < now.at("counts").size(); ++i)
    delta.push_back(static_cast<double>(now.at("counts").at(i).as_uint()));
  d.count = static_cast<double>(now.at("count").as_uint());
  d.sum_s = now.at("sum").as_double();
  if (before.has(name) && before.at(name).at("instances").size() > 0) {
    const io::JsonValue& then = before.at(name).at("instances").at(0);
    for (std::size_t i = 0; i < delta.size(); ++i)
      delta[i] -= static_cast<double>(then.at("counts").at(i).as_uint());
    d.count -= static_cast<double>(then.at("count").as_uint());
    d.sum_s -= then.at("sum").as_double();
  }
  const double target = 0.5 * d.count;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < delta.size() && d.count > 0.0; ++i) {
    if (delta[i] <= 0.0 || cumulative + delta[i] < target) {
      cumulative += delta[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds.at(i - 1).as_double();
    // The overflow bucket has no upper bound; extend it one 4x step.
    const double hi = i < bounds.size() ? bounds.at(i).as_double()
                                        : 4.0 * bounds.at(i - 1).as_double();
    d.p50_s = lo + (hi - lo) * (target - cumulative) / delta[i];
    break;
  }
  return d;
}

}  // namespace perfbench
