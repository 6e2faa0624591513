// Layer probes of the traced run.  Each probe calls one layer's public
// functions on the workload's own inputs, outside the measured loop, and
// records a span around every call, so every per-layer metric is measured
// on every workload: on the workloads whose loop never reaches a layer the
// probe is the only thing that does.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/session.h"
#include "engine/cycle_accurate_backend.h"
#include "faults/batch.h"
#include "inputs.h"
#include "io/serialize.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace sramlp;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One untraced cycle-accurate run of @p test on a fresh session.
double timed_cycle_run(const core::SessionConfig& config,
                       const march::MarchTest& test) {
  core::TestSession session(config);
  engine::CommandStream stream = session.make_stream(test);
  engine::CycleAccurateBackend backend(session.array());
  const Clock::time_point start = Clock::now();
  backend.run(stream);
  return ms_between(start, Clock::now());
}

}  // namespace

std::vector<core::SweepPointResult> probe_engine(Context& ctx,
                                                 const core::SweepGrid& grid) {
  SpanRecorder& spans = ctx.spans;
  double setup_ms = 0, stream_ms = 0, cycle_ms = 0, analytic_ms = 0;
  double busy_ms = 0;
  std::uint64_t runs = 0, cycles = 0, mode_runs = 0;
  double dev_max = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t g = 0, b = 0, a = 0;
    grid.split(i, &g, &b, &a);
    const march::MarchTest& test = grid.algorithms[a];
    double energy_per_cycle[2] = {0.0, 0.0};
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      core::SessionConfig config = grid.config_at(i);
      config.mode = mode;
      Clock::time_point t0 = Clock::now();
      core::TestSession session(config);
      Clock::time_point t1 = Clock::now();
      spans.add("TestSession", "core", t0, t1, i);
      setup_ms += ms_between(t0, t1);
      busy_ms += ms_between(t0, t1);

      t0 = Clock::now();
      {
        engine::CommandStream stream = session.make_stream(test);
        engine::StreamRun run;
        while (!stream.done()) {
          if (stream.peek_run(&run)) {
            stream.skip_run(run);
            ++runs;
          } else {
            stream.pop();
          }
        }
      }
      t1 = Clock::now();
      spans.add("make_stream+walk", "engine", t0, t1, i);
      stream_ms += ms_between(t0, t1);

      engine::CommandStream stream = session.make_stream(test);
      engine::CycleAccurateBackend backend(session.array());
      t0 = Clock::now();
      const engine::ExecutionResult exec = backend.run(stream);
      t1 = Clock::now();
      spans.add("CycleAccurateBackend::run", "engine", t0, t1, i);
      cycle_ms += ms_between(t0, t1);
      busy_ms += ms_between(t0, t1);
      cycles += exec.cycles;
      ++mode_runs;
      energy_per_cycle[mode == sram::Mode::kFunctional ? 0 : 1] =
          exec.energy_per_cycle_j;
    }
    const Clock::time_point t0 = Clock::now();
    const core::PrrComparison analytic =
        core::TestSession::compare_modes_analytic(grid.config_at(i), test);
    const Clock::time_point t1 = Clock::now();
    spans.add("compare_modes_analytic", "engine", t0, t1, i);
    analytic_ms += ms_between(t0, t1);
    const double cycle_prr = 1.0 - energy_per_cycle[1] / energy_per_cycle[0];
    dev_max = std::max(dev_max, std::abs(analytic.prr - cycle_prr));
  }
  const auto n = static_cast<double>(mode_runs);
  Report& r = ctx.report;
  r.metric("engine.stream.ms", stream_ms / n, "ms");
  r.metric("engine.stream.runs", static_cast<double>(runs), "count");
  r.metric("engine.cycle.ms", cycle_ms / n, "ms");
  r.metric("engine.cycle.ns_per_sim_cycle",
           1e6 * cycle_ms / static_cast<double>(cycles), "ns");
  r.metric("engine.analytic.ms",
           analytic_ms / static_cast<double>(grid.size()), "ms");
  r.metric("engine.analytic.prr_dev_max", dev_max, "fraction");
  r.metric("core.session.setup_ms", setup_ms / n, "ms");

  // power.trace_overhead: the search's verification TraceConfig on the
  // first point, functional mode, best of two against untraced.
  {
    core::SessionConfig plain = grid.config_at(0);
    core::SessionConfig traced = plain;
    traced.trace = power::TraceConfig{};
    traced.trace->window_cycles = 4 * plain.geometry.words();
    std::size_t g = 0, b = 0, a = 0;
    grid.split(0, &g, &b, &a);
    const march::MarchTest& test = grid.algorithms[a];
    double best_plain = 1e300, best_traced = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      const Clock::time_point t0 = Clock::now();
      best_plain = std::min(best_plain, timed_cycle_run(plain, test));
      const Clock::time_point t1 = Clock::now();
      best_traced = std::min(best_traced, timed_cycle_run(traced, test));
      spans.add("CycleAccurateBackend::run", "engine", t0, t1, 0);
      spans.add("CycleAccurateBackend::run(traced)", "power", t1,
                Clock::now(), 0);
    }
    r.metric("power.trace_overhead", best_traced / best_plain, "ratio");
  }

  // core.sweep.parallel_eff: per-item busy time (session set-up + cycle
  // run, both modes, measured serially above) over threads x the wall time
  // of one SweepRunner::run of the same grid.
  const Clock::time_point t0 = Clock::now();
  std::vector<core::SweepPointResult> points =
      core::SweepRunner({ctx.threads, core::BackendChoice::kCycleAccurate})
          .run(grid);
  const Clock::time_point t1 = Clock::now();
  spans.add("SweepRunner::run", "core", t0, t1);
  r.metric("core.sweep.parallel_eff",
           busy_ms / (static_cast<double>(ctx.threads) * ms_between(t0, t1)),
           "ratio");
  return points;
}

void probe_io(Context& ctx, const std::vector<core::SweepPointResult>& points) {
  if (points.empty()) {
    ctx.gate_failed("io probe has no points to replay");
    return;
  }
  // Exact round trip first (a correctness gate), then the timed replay.
  for (const core::SweepPointResult& p : points) {
    const std::string text = io::to_json(p).dump();
    if (io::to_json(io::sweep_point_from_json(io::JsonValue::parse(text)))
            .dump() != text) {
      ctx.gate_failed("sweep point JSON does not round-trip exactly");
      break;
    }
  }
  const std::size_t reps = std::max<std::size_t>(1, 4000 / points.size());
  std::size_t bytes = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (const core::SweepPointResult& p : points) {
      const std::string text = io::to_json(p).dump();
      const core::SweepPointResult back =
          io::sweep_point_from_json(io::JsonValue::parse(text));
      bytes += text.size() + back.index;
    }
  }
  const Clock::time_point t1 = Clock::now();
  ctx.spans.add("to_json+parse+from_json", "io", t0, t1);
  ctx.report.metric(
      "io.json.point_us",
      1e3 * ms_between(t0, t1) / static_cast<double>(reps * points.size()),
      "us");
  if (bytes == 0) ctx.gate_failed("io probe serialized nothing");
}

void probe_faults(Context& ctx, const core::SessionConfig& config,
                  const march::MarchTest& test,
                  const std::vector<faults::FaultSpec>& faults) {
  SpanRecorder& spans = ctx.spans;
  Report& r = ctx.report;
  constexpr int kPlans = 20;
  faults::BatchPlan plan;
  Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < kPlans; ++rep) plan = faults::plan_batches(faults);
  Clock::time_point t1 = Clock::now();
  spans.add("plan_batches", "faults", t0, t1);
  r.metric("faults.plan.ms", ms_between(t0, t1) / kPlans, "ms");
  r.metric("faults.plan.batches", static_cast<double>(plan.batches.size()),
           "count");
  r.metric("faults.plan.fallback", static_cast<double>(plan.fallback.size()),
           "count");

  core::CampaignRunner::Options serial;
  serial.threads = 1;
  serial.batched = true;
  core::CampaignRunner::Options parallel = serial;
  parallel.threads = ctx.threads;
  t0 = Clock::now();
  const core::CampaignReport one =
      core::CampaignRunner(serial).run(config, test, faults);
  t1 = Clock::now();
  const core::CampaignReport many =
      core::CampaignRunner(parallel).run(config, test, faults);
  Clock::time_point t2 = Clock::now();
  spans.add("CampaignRunner::run(1 thread)", "core", t0, t1);
  spans.add("CampaignRunner::run", "core", t1, t2);
  spans.count_useful("faults", faults.size(), many.session_pairs);
  r.metric("core.campaign.parallel_eff",
           ms_between(t0, t1) /
               (static_cast<double>(ctx.threads) * ms_between(t1, t2)),
           "ratio");
  r.metric("faults.per_session_pair",
           static_cast<double>(faults.size()) /
               static_cast<double>(std::max<std::size_t>(1, many.session_pairs)),
           "ratio");
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const core::CampaignEntry& x = one.entries[i];
    const core::CampaignEntry& y = many.entries[i];
    if (x.mismatches_functional != y.mismatches_functional ||
        x.mismatches_low_power != y.mismatches_low_power) {
      ctx.gate_failed("campaign differs between 1 and N threads");
      break;
    }
  }

  // faults.hook_overhead: one batch session vs the same session fault-free.
  std::vector<faults::FaultSpec> members;
  if (!plan.batches.empty())
    for (const std::size_t m : plan.batches.front())
      members.push_back(faults[m]);
  else
    members.push_back(faults.front());
  core::SessionConfig functional = config;
  functional.mode = sram::Mode::kFunctional;
  const core::SweepRunner runner({1, core::BackendChoice::kCycleAccurate});
  double hooked = 1e300, plain = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    faults::BatchFaultSet set(members);
    t0 = Clock::now();
    runner.run_mode(functional, test, &set);
    t1 = Clock::now();
    runner.run_mode(functional, test, nullptr);
    t2 = Clock::now();
    spans.add("run_mode(BatchFaultSet)", "faults", t0, t1);
    spans.add("run_mode", "engine", t1, t2);
    hooked = std::min(hooked, ms_between(t0, t1));
    plain = std::min(plain, ms_between(t1, t2));
  }
  r.metric("faults.hook_overhead", hooked / plain, "ratio");
}

void probe_search(Context& ctx, const std::vector<search::SearchSpec>& specs) {
  SpanRecorder& spans = ctx.spans;
  double restart_ms = 0, verify_ms = 0, self_ms = 0;
  std::size_t front = 0, verified = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const search::SearchSpec& spec = specs[s];
    // The verification share is a traced cycle-accurate run of each
    // returned schedule, as the search's own winner check makes it.  It is
    // nearly all of a restart, so self time is a small difference of two
    // large times, at the host's noise floor (it can read below zero).
    // Restart and verify times are the best of three interleaved tries,
    // which host interference (it only ever adds time) cannot inflate; self
    // time is the median of the three paired differences.
    core::SessionConfig config = spec.config;
    config.trace = power::TraceConfig{};
    config.trace->window_cycles = spec.window_cycles;
    double best_restart = 1e300, best_verify = 1e300;
    std::vector<double> self;
    search::RestartResult restart;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point r0 = Clock::now();
      restart = search::run_restart(spec, 0);
      const Clock::time_point r1 = Clock::now();
      for (const search::ScheduleResult& result : restart.front) {
        core::TestSession session(config);
        session.run(result.schedule);
      }
      const Clock::time_point v1 = Clock::now();
      spans.add("run_restart", "search", r0, r1, s);
      spans.add("TestSession::run(traced)", "power", r1, v1, s);
      best_restart = std::min(best_restart, ms_between(r0, r1));
      best_verify = std::min(best_verify, ms_between(r1, v1));
      self.push_back(ms_between(r0, r1) - ms_between(r1, v1));
    }
    restart_ms += best_restart;
    verify_ms += best_verify;
    self_ms += median(self);
    front += restart.front.size();
    for (const search::ScheduleResult& result : restart.front)
      if (result.verified) ++verified;
  }
  spans.count_useful("search", verified, front);
  const auto n = static_cast<double>(specs.size());
  Report& r = ctx.report;
  r.metric("search.restart.ms", restart_ms / n, "ms");
  r.metric("search.verify.ms", verify_ms / n, "ms");
  r.metric("search.self.ms", self_ms / n, "ms");
  r.metric("search.front.size", static_cast<double>(front), "count");

  // Candidate scoring on seeded random-move batches of the first spec.
  const search::SearchSpec& spec = specs.front();
  search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                      spec.window_cycles);
  const search::MoveLimits limits{spec.idle_quantum, spec.max_idle_quanta};
  util::Rng rng(derive_seed(ctx.seed, "score"));
  std::vector<search::Candidate> batch(
      256, search::identity_candidate(evaluator.elements()));
  for (search::Candidate& candidate : batch)
    for (int move = 0; move < 4; ++move)
      search::apply_random_move(candidate, evaluator.conds(), limits, rng);
  std::vector<search::Score> scores;
  constexpr int kBatches = 800;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < kBatches; ++rep) evaluator.score(batch, scores);
  const Clock::time_point t1 = Clock::now();
  spans.add("ScheduleEvaluator::score", "search", t0, t1);
  r.metric("search.score.cand_per_s",
           kBatches * static_cast<double>(batch.size()) /
               std::chrono::duration<double>(t1 - t0).count(),
           "1/s");
}

void probe_fingerprint(Context& ctx, const std::vector<dist::JobSpec>& jobs) {
  std::uint64_t mix = 0;
  const Clock::time_point t0 = Clock::now();
  for (const dist::JobSpec& job : jobs) {
    mix ^= job.fingerprint();
    for (std::size_t i = 0; i < job.size(); ++i)
      mix ^= dist::point_fingerprint(job, i);
  }
  const Clock::time_point t1 = Clock::now();
  ctx.spans.add("fingerprint+point_fingerprint", "dist", t0, t1);
  ctx.report.metric("dist.fingerprint.us_per_job",
                    1e3 * ms_between(t0, t1) / static_cast<double>(jobs.size()),
                    "us");
  if (mix == 0) ctx.gate_failed("fingerprints cancelled out");
}

SubmitRecord timed_submit(Context& ctx, const std::string& address,
                          const dist::JobSpec& job, std::size_t id,
                          std::vector<io::JsonValue>* lines) {
  SubmitRecord rec;
  rec.job = id;
  rec.original = id;
  Clock::time_point first_line{};
  bool seen = false;
  const auto on_line = [&](const io::JsonValue& line) {
    if (!seen) {
      first_line = Clock::now();
      seen = true;
    }
    if (lines && line.at("type").as_string() == "sweep_point")
      lines->push_back(line.at("data"));
  };
  const std::int64_t span = ctx.spans.begin("submit_job", "dist", id);
  const Clock::time_point start = Clock::now();
  try {
    const dist::SubmitResult result =
        ctx.spans.enabled() || lines
            ? dist::submit_job(address, job, 5000, on_line)
            : dist::submit_job(address, job);
    const Clock::time_point end = Clock::now();
    rec.latency_ms = ms_between(start, end);
    rec.cache_hit = result.cache_hit;
    rec.total_points = result.total_points;
    rec.cached_points = result.cached_points;
    rec.doc_bytes = result.document.size();
    rec.doc_hash = fnv1a(result.document);
    if (seen) {
      rec.first_line_ms = ms_between(start, first_line);
      ctx.spans.add("first_line", "dist", start, first_line, id, true);
    }
  } catch (const std::exception& e) {
    rec.threw = true;
    rec.latency_ms = ms_between(start, Clock::now());
    ctx.report.line(std::string("submit failed: ") + e.what());
  }
  ctx.spans.end(span, rec.threw);
  return rec;
}

void report_service_layers(Context& ctx,
                           const std::vector<SubmitRecord>& records,
                           const io::JsonValue& metrics_before,
                           const io::JsonValue& metrics_after,
                           const dist::ServiceStats& before,
                           const dist::ServiceStats& after,
                           double service_overhead) {
  std::vector<double> first_line;
  std::size_t resubmits = 0, job_hits = 0, points = 0, point_hits = 0;
  double doc_bytes = 0.0;
  for (const SubmitRecord& rec : records) {
    if (rec.first_line_ms >= 0.0) first_line.push_back(rec.first_line_ms);
    if (rec.original != rec.job) {
      ++resubmits;
      if (rec.cache_hit) ++job_hits;
    }
    if (!rec.cache_hit) {
      points += rec.total_points;
      point_hits += rec.cached_points;
    }
    doc_bytes += static_cast<double>(rec.doc_bytes);
  }
  const HistogramDelta lease = histogram_delta(
      metrics_before, metrics_after, "sramlp_lease_latency_seconds");
  const HistogramDelta shard = histogram_delta(
      metrics_before, metrics_after, "sramlp_shard_execution_seconds");
  ctx.spans.count_useful("dist", job_hits + point_hits, resubmits + points);
  Report& r = ctx.report;
  r.metric("dist.submit.first_line_ms", median(first_line), "ms");
  r.metric("dist.lease.wait_ms", 1e3 * lease.mean_s(), "ms");
  r.metric("dist.shard.exec_ms", 1e3 * shard.mean_s(), "ms");
  r.metric("dist.shards",
           static_cast<double>(after.shards_executed - before.shards_executed),
           "count");
  r.metric("dist.requeues",
           static_cast<double>(after.shard_requeues - before.shard_requeues),
           "count");
  r.metric("dist.cache.job_hit_ratio",
           resubmits ? static_cast<double>(job_hits) / resubmits : 0.0,
           "ratio");
  r.metric("dist.cache.point_hit_ratio",
           points ? static_cast<double>(point_hits) / points : 0.0, "ratio");
  r.metric("dist.service_overhead", service_overhead, "ratio");
  r.metric("io.doc.bytes", doc_bytes / static_cast<double>(records.size()),
           "bytes");
  char text[256];
  std::snprintf(text, sizeof text,
                "service: %zu jobs, %zu resubmissions (%zu whole-job hits), "
                "%zu of %zu points from the point cache; lease p50 ~%.3f ms, "
                "shard p50 ~%.3f ms (4x buckets)",
                records.size(), resubmits, job_hits, point_hits, points,
                1e3 * lease.p50_s, 1e3 * shard.p50_s);
  r.line(text);
}

void probe_service(Context& ctx, const dist::JobSpec& job) {
  ServiceRig rig(ctx.workers);
  const io::JsonValue m0 = dist::query_metrics(rig.address()).json;
  const dist::ServiceStats s0 = rig.service().stats();
  std::vector<SubmitRecord> records;
  records.push_back(timed_submit(ctx, rig.address(), job, 0));
  records.push_back(timed_submit(ctx, rig.address(), job, 1));
  records.back().original = 0;
  const io::JsonValue m1 = dist::query_metrics(rig.address()).json;
  const dist::ServiceStats s1 = rig.service().stats();

  const Clock::time_point t0 = Clock::now();
  const std::string reference = single_document(job);
  const double in_process_ms = ms_between(t0, Clock::now());
  for (const SubmitRecord& rec : records) {
    const bool ok = !rec.threw && rec.doc_bytes == reference.size() &&
                    rec.doc_hash == fnv1a(reference);
    if (!ok) ctx.gate_failed("service probe document differs from single");
  }
  report_service_layers(ctx, records, m0, m1, s0, s1,
                        records.front().latency_ms / in_process_ms);
}

}  // namespace perfbench
