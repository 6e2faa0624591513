// The four workloads.  Each drives the library only through public calls,
// times those calls from here, checks the outputs outside the measured
// loop, and in a traced run adds the layer probes (probes.cpp).
//
// Why these four: they are the four ways a user spends host time on the
// paper's result.  prr_sweep is Table 1 itself (engine/sram/power bound);
// fault_campaign is the coverage check on the same engine with fault hooks
// and batching; service_stream is many small jobs where dist/io overheads
// dominate; schedule_search is the only path through search/ and through
// traced runs with idle windows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "core/paper_reference.h"
#include "core/session.h"
#include "inputs.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "search/serialize.h"
#include "workloads.h"

namespace perfbench {

using namespace sramlp;

namespace {

double ms_since(Clock::time_point start) {
  return 1e3 * seconds_since(start);
}

bool within(const core::SessionResult& sim, const core::SessionResult& ana,
            double tolerance) {
  return sim.cycles == ana.cycles &&
         std::abs(ana.supply_energy_j - sim.supply_energy_j) <=
             tolerance * sim.supply_energy_j;
}

void note_failed_frac(Context& ctx) {
  ctx.report.note("failed_frac",
                  ctx.report.attempted
                      ? static_cast<double>(ctx.report.failed) /
                            static_cast<double>(ctx.report.attempted)
                      : 0.0,
                  "fraction");
}

core::SweepGrid single_algorithm_grid(const std::vector<sram::Geometry>& geos,
                                      const std::vector<march::MarchTest>& tests) {
  core::SweepGrid grid;
  grid.geometries = geos;
  grid.algorithms = tests;
  return grid;
}

dist::JobSpec sweep_job(const core::SweepGrid& grid) {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSweep;
  job.grid = grid;
  return job;
}

dist::JobSpec campaign_job(const core::SessionConfig& config,
                           const march::MarchTest& test,
                           const std::vector<faults::FaultSpec>& faults) {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kCampaign;
  job.config = config;
  job.test = test;
  job.faults = faults;
  return job;
}

dist::JobSpec search_job(const search::SearchSpec& spec) {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSearch;
  job.search = spec;
  return job;
}

}  // namespace

// --- prr_sweep -----------------------------------------------------------------

void run_prr_sweep(Context& ctx) {
  core::SweepGrid grid;
  std::optional<core::SweepRunner> runner;
  const std::vector<double> setup_s = repeat_setup(ctx, kSetupRepeats, [&] {
    grid = prr_grid(ctx.seed);
    runner.emplace(core::SweepRunner::Options{
        ctx.threads, core::BackendChoice::kCycleAccurate});
    // Warm-up: one run over a fixed four-point grid, whatever order the
    // seed gave the real one, so every worker thread starts warm (and a
    // one-thread warm-up would time a single core, the noisiest figure on
    // a shared host).
    core::SweepGrid warm = grid;
    warm.backgrounds = {sram::DataBackground::solid0()};
    warm.algorithms = march::algorithms::table1();
    warm.algorithms.pop_back();
    runner->run(warm);
  });

  std::vector<std::vector<core::SweepPointResult>> passes;
  const LoopResult loop = measure(ctx, [&](std::vector<double>& job_ms) {
    ScopedSpan span(ctx.spans, "SweepRunner::run", "core", passes.size());
    const Clock::time_point start = Clock::now();
    try {
      passes.push_back(runner->run(grid));
    } catch (const std::exception& e) {
      passes.emplace_back();
      span.fail();
      ctx.report.line(std::string("sweep failed: ") + e.what());
    }
    job_ms.push_back(ms_since(start));
    return static_cast<std::uint64_t>(grid.size());
  });
  report_end_to_end(ctx, setup_s, loop, peak_rss_mib());

  // Gates: every point's analytic result within 1 % (functional) / 5 %
  // (low-power) of its cycle-accurate one, every pass identical to the
  // first.
  const std::vector<core::SweepPointResult>& first = passes.front();
  std::vector<bool> point_ok(grid.size(), first.size() == grid.size());
  std::vector<std::string> reference(grid.size());
  double err_max = 0.0;
  std::uint64_t cycles_per_pass = 0;
  for (std::size_t i = 0; i < first.size() && i < grid.size(); ++i) {
    const core::SweepPointResult& p = first[i];
    const core::PrrComparison ana = core::TestSession::compare_modes_analytic(
        grid.config_at(i), grid.algorithms[p.algorithm]);
    point_ok[i] = within(p.prr.functional, ana.functional, 1e-2) &&
                  within(p.prr.low_power, ana.low_power, 5e-2);
    if (!point_ok[i])
      ctx.gate_failed("analytic outside tolerance at point " +
                      std::to_string(i));
    reference[i] = io::to_json(p).dump();
    cycles_per_pass += p.prr.functional.cycles + p.prr.low_power.cycles;
    if (grid.backgrounds[p.background].kind() ==
        sram::DataBackground::solid0().kind()) {
      for (const core::Table1Row& row : core::kTable1)
        if (p.prr.functional.algorithm == row.algorithm)
          err_max = std::max(err_max, std::abs(p.prr.prr - row.prr));
    }
  }
  std::uint64_t failed = 0;
  for (const auto& pass : passes) {
    if (pass.size() != grid.size()) {
      failed += grid.size();
      continue;
    }
    for (std::size_t i = 0; i < grid.size(); ++i)
      if (!point_ok[i] || io::to_json(pass[i]).dump() != reference[i])
        ++failed;
  }
  ctx.ops(passes.size() * grid.size(), failed);

  const double passes_per_s =
      static_cast<double>(loop.items) / static_cast<double>(grid.size()) /
      loop.wall_s;
  ctx.report.note("sim_cycles_per_s",
                  passes_per_s * static_cast<double>(cycles_per_pass),
                  "cycles/s");
  ctx.report.note("sim_cycles_per_pass", static_cast<double>(cycles_per_pass),
                  "cycles");
  ctx.report.note("prr_abs_err_max", err_max, "fraction");
  note_failed_frac(ctx);

  if (!ctx.trace) return;
  probe_engine(ctx, grid);
  probe_io(ctx, first);
  probe_faults(ctx, grid.config_at(0), grid.algorithms[0],
               faults::standard_fault_library(
                   grid.geometries[0], derive_seed(ctx.seed, "prr_faults"), 8));
  probe_search(ctx, {search_specs(ctx.seed).front()});
  probe_fingerprint(ctx, {sweep_job(grid)});
  probe_service(ctx, sweep_job(grid));
}

// --- fault_campaign --------------------------------------------------------------

void run_fault_campaign(Context& ctx) {
  CampaignInputs in;
  std::optional<core::CampaignRunner> runner;
  const std::vector<double> setup_s = repeat_setup(ctx, kSetupRepeats, [&] {
    in = campaign_inputs(ctx.seed);
    core::CampaignRunner::Options options;
    options.threads = ctx.threads;
    options.batched = true;
    runner.emplace(options);
    runner->run(in.config, in.tests[0], in.libraries[0]);  // warm-up
  });
  const std::size_t libraries = in.libraries.size();
  const std::size_t tests = in.tests.size();

  // reports[l * tests + t] holds every campaign of library l and test t,
  // in run order.  One job is one pass over every library and the five
  // tests (the coverage half of Table 1): single campaigns differ ~5x in
  // cost, and a median over that mix would sit on a cluster edge.
  std::vector<std::vector<core::CampaignReport>> reports(libraries * tests);
  std::uint64_t verdicts_per_pass = 0;
  for (const std::vector<faults::FaultSpec>& library : in.libraries)
    verdicts_per_pass += tests * library.size();
  std::size_t calls = 0;
  const LoopResult loop = measure(ctx, [&](std::vector<double>& job_ms) {
    const Clock::time_point start = Clock::now();
    for (std::size_t l = 0; l < libraries; ++l) {
      for (std::size_t t = 0; t < tests; ++t) {
        ScopedSpan span(ctx.spans, "CampaignRunner::run", "core", calls++);
        std::vector<core::CampaignReport>& runs = reports[l * tests + t];
        try {
          runs.push_back(runner->run(in.config, in.tests[t], in.libraries[l]));
        } catch (const std::exception& e) {
          runs.emplace_back();
          span.fail();
          ctx.report.line(std::string("campaign failed: ") + e.what());
        }
      }
    }
    job_ms.push_back(ms_since(start));
    return verdicts_per_pass;
  });
  report_end_to_end(ctx, setup_s, loop, peak_rss_mib());

  // Gates: batched verdicts and mismatch counts equal the per-fault path
  // on a seeded sample of each library, and every campaign of a (library,
  // test) equals its first.
  core::CampaignRunner::Options per_fault;
  per_fault.threads = ctx.threads;
  per_fault.batched = false;
  SeedRng rng(derive_seed(ctx.seed, "campaign_sample"));
  std::vector<std::vector<std::size_t>> samples;
  for (const std::vector<faults::FaultSpec>& library : in.libraries) {
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < library.size(); ++i) sample.push_back(i);
    rng.shuffle(sample);
    sample.resize(std::min<std::size_t>(6, sample.size()));
    std::sort(sample.begin(), sample.end());
    samples.push_back(sample);
  }

  const auto same = [](const core::CampaignEntry& a,
                       const core::CampaignEntry& b) {
    return a.detected_functional == b.detected_functional &&
           a.detected_low_power == b.detected_low_power &&
           a.mismatches_functional == b.mismatches_functional &&
           a.mismatches_low_power == b.mismatches_low_power;
  };
  std::vector<std::uint64_t> cycles_per_pair(tests, 0);
  for (std::size_t t = 0; t < tests; ++t)
    for (const sram::Mode mode :
         {sram::Mode::kFunctional, sram::Mode::kLowPowerTest}) {
      core::SessionConfig config = in.config;
      config.mode = mode;
      cycles_per_pair[t] +=
          core::TestSession(config).make_stream(in.tests[t]).total_cycles();
    }
  std::uint64_t attempted = 0, failed = 0, cycles_per_pass = 0;
  std::size_t session_pairs = 0, detected_f = 0, detected_lp = 0;
  for (std::size_t l = 0; l < libraries; ++l) {
    const std::vector<faults::FaultSpec>& library = in.libraries[l];
    for (std::size_t t = 0; t < tests; ++t) {
      const std::vector<core::CampaignReport>& runs = reports[l * tests + t];
      const core::CampaignReport& ref = runs.front();
      bool test_ok = ref.entries.size() == library.size();
      if (test_ok) {
        const std::vector<core::CampaignEntry> single =
            core::CampaignRunner(per_fault)
                .run_subset(in.config, in.tests[t], library, samples[l]);
        for (std::size_t j = 0; j < samples[l].size(); ++j)
          if (!same(single[j], ref.entries[samples[l][j]])) test_ok = false;
        if (!test_ok)
          ctx.gate_failed(
              "batched verdicts differ from the per-fault path for " +
              in.tests[t].name() + " on library " + std::to_string(l));
      }
      for (const core::CampaignReport& r : runs) {
        attempted += library.size();
        if (!test_ok || r.entries.size() != library.size()) {
          failed += library.size();
          continue;
        }
        for (std::size_t i = 0; i < library.size(); ++i)
          if (!same(r.entries[i], ref.entries[i])) ++failed;
      }
      cycles_per_pass += cycles_per_pair[t] * ref.session_pairs;
      session_pairs += ref.session_pairs;
      detected_f += ref.detected_functional();
      detected_lp += ref.detected_low_power();
    }
  }
  ctx.ops(attempted, failed);

  const double passes_per_s = static_cast<double>(loop.items) /
                              static_cast<double>(verdicts_per_pass) /
                              loop.wall_s;
  const double campaigns = static_cast<double>(libraries * tests);
  const double verdicts = static_cast<double>(verdicts_per_pass);
  ctx.report.note("sim_cycles_per_s",
                  passes_per_s * static_cast<double>(cycles_per_pass),
                  "cycles/s");
  ctx.report.note("fault_libraries", static_cast<double>(libraries), "count");
  ctx.report.note("faults", static_cast<double>(in.libraries[0].size()),
                  "count");
  ctx.report.note("session_pairs_per_campaign",
                  static_cast<double>(session_pairs) / campaigns, "count");
  ctx.report.note("coverage_functional",
                  static_cast<double>(detected_f) / verdicts, "fraction");
  ctx.report.note("coverage_low_power",
                  static_cast<double>(detected_lp) / verdicts, "fraction");
  note_failed_frac(ctx);

  if (!ctx.trace) return;
  const core::SweepGrid grid =
      single_algorithm_grid({in.config.geometry}, in.tests);
  probe_io(ctx, probe_engine(ctx, grid));
  probe_faults(ctx, in.config, in.tests[0], in.libraries[0]);
  probe_search(ctx, {search_specs(ctx.seed)[1]});  // 256x256, seed 0
  std::vector<dist::JobSpec> jobs;
  for (const march::MarchTest& t : in.tests)
    jobs.push_back(campaign_job(in.config, t, in.libraries[0]));
  probe_fingerprint(ctx, jobs);
  probe_service(ctx, jobs.front());
}

// --- service_stream ----------------------------------------------------------------

void run_service_stream(Context& ctx) {
  std::unique_ptr<ServiceRig> rig;
  std::optional<JobStream> stream;
  // Input generation is part of set-up: the jobs a run is expected to
  // need (600 a second is above any rate seen) are generated up front, so
  // the memory a run holds does not follow the host's speed.  More follow
  // lazily on a faster host.
  const auto pregenerated =
      static_cast<std::size_t>(std::max(1000.0, 600.0 * ctx.seconds));
  std::vector<JobStream::Job> jobs;
  const std::vector<double> setup_s = repeat_setup(
      ctx, kSetupRepeats,
      [&] {
        stream.emplace(ctx.seed);
        jobs.clear();
        while (jobs.size() < pregenerated) jobs.push_back(stream->next());
        rig = std::make_unique<ServiceRig>(ctx.workers);
        dist::submit_job(rig->address(), warmup_job());
      },
      [&] { rig.reset(); });

  std::vector<SubmitRecord> records;
  std::size_t traced_from = 0;
  io::JsonValue metrics_before;
  dist::ServiceStats stats_before;
  std::vector<io::JsonValue> lines;
  const LoopResult loop = measure(ctx, [&](std::vector<double>& job_ms) {
    if (ctx.spans.enabled() && traced_from == 0) {
      traced_from = records.size();
      metrics_before = dist::query_metrics(rig->address()).json;
      stats_before = rig->service().stats();
    }
    if (records.size() == jobs.size()) jobs.push_back(stream->next());
    const JobStream::Job& job = jobs[records.size()];
    SubmitRecord rec = timed_submit(
        ctx, rig->address(), job.spec, job.id,
        ctx.spans.enabled() && lines.size() < 4000 ? &lines : nullptr);
    rec.original = job.original;
    job_ms.push_back(rec.latency_ms);
    records.push_back(rec);
    return std::uint64_t{1};
  });
  report_end_to_end(ctx, setup_s, loop, peak_rss_mib());
  io::JsonValue metrics_after;
  dist::ServiceStats stats_after;
  if (ctx.trace) {
    metrics_after = dist::query_metrics(rig->address()).json;
    stats_after = rig->service().stats();
  }
  rig.reset();

  // Gate: every document byte-identical to the in-process `single`
  // document of the same job (resubmissions share their original's).
  struct Reference {
    std::size_t bytes;
    std::uint64_t hash;
    double ms;
  };
  std::map<std::size_t, Reference> refs;
  std::uint64_t failed = 0;
  std::size_t kinds[3] = {0, 0, 0}, resubmits = 0, job_hits = 0;
  std::vector<double> cold_service_ms, cold_local_ms;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobStream::Job& job = jobs[i];
    const SubmitRecord& rec = records[i];
    if (!job.resubmission()) {
      const Clock::time_point start = Clock::now();
      const std::string doc = single_document(job.spec);
      refs[job.id] = Reference{doc.size(), fnv1a(doc), ms_since(start)};
      kinds[static_cast<int>(job.spec.kind)]++;
    } else {
      ++resubmits;
      if (rec.cache_hit) ++job_hits;
    }
    const Reference& ref = refs.at(job.original);
    if (rec.threw || rec.doc_bytes != ref.bytes || rec.doc_hash != ref.hash) {
      ++failed;
      if (!rec.threw)
        ctx.gate_failed("service document differs from single for job " +
                        std::to_string(job.id));
    }
    if (i >= traced_from && ctx.trace && !job.resubmission() &&
        job.spec.kind == dist::JobSpec::Kind::kSweep && !rec.cache_hit &&
        rec.cached_points == 0) {
      cold_service_ms.push_back(rec.latency_ms);
      cold_local_ms.push_back(ref.ms);
    }
  }
  ctx.ops(records.size(), failed);
  char text[256];
  std::snprintf(text, sizeof text,
                "jobs: %zu (%zu sweep, %zu campaign, %zu search new; %zu "
                "resubmissions, %zu whole-job cache hits)",
                records.size(), kinds[0], kinds[1], kinds[2], resubmits,
                job_hits);
  ctx.report.line(text);
  ctx.report.note("job_samples", static_cast<double>(loop.job_ms.size()),
                  "count");
  note_failed_frac(ctx);

  if (!ctx.trace) return;
  const std::vector<SubmitRecord> traced(records.begin() + traced_from,
                                         records.end());
  report_service_layers(
      ctx, traced, metrics_before, metrics_after, stats_before, stats_after,
      median(cold_service_ms) / std::max(1e-9, median(cold_local_ms)));

  // Probes on the stream's own inputs: its first sweep grid, campaign and
  // search job, and its first 200 jobs for the fingerprints.
  std::optional<dist::JobSpec> sweep, campaign, searched;
  std::vector<dist::JobSpec> first_jobs;
  for (const JobStream::Job& job : jobs) {
    if (first_jobs.size() < 200) first_jobs.push_back(job.spec);
    if (job.spec.kind == dist::JobSpec::Kind::kSweep && !sweep) sweep = job.spec;
    if (job.spec.kind == dist::JobSpec::Kind::kCampaign && !campaign)
      campaign = job.spec;
    if (job.spec.kind == dist::JobSpec::Kind::kSearch && !searched)
      searched = job.spec;
  }
  probe_engine(ctx, sweep->grid);
  std::vector<core::SweepPointResult> replayed;
  for (const io::JsonValue& data : lines)
    replayed.push_back(io::sweep_point_from_json(data));
  probe_io(ctx, replayed);
  probe_faults(ctx, campaign->config, *campaign->test, campaign->faults);
  probe_search(ctx, {*searched->search});
  probe_fingerprint(ctx, first_jobs);
}

// --- schedule_search ---------------------------------------------------------------

void run_schedule_search(Context& ctx) {
  std::vector<search::SearchSpec> specs;
  const std::vector<double> setup_s = repeat_setup(ctx, kSetupRepeats, [&] {
    specs = search_specs(ctx.seed);
    search::run_search(specs.back(), ctx.threads);  // warm-up: 256x256
  });

  // One job is one pass over every spec: the two geometries' searches
  // differ ~4x in cost, and a median taken over a two-cluster mix would sit
  // on a cluster edge and jump between runs.
  std::vector<std::vector<search::SearchOutcome>> outcomes(specs.size());
  std::size_t calls = 0;
  const LoopResult loop = measure(ctx, [&](std::vector<double>& job_ms) {
    std::uint64_t restarts = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < specs.size(); ++s) {
      ScopedSpan span(ctx.spans, "run_search", "search", calls++);
      try {
        outcomes[s].push_back(search::run_search(specs[s], ctx.threads));
      } catch (const std::exception& e) {
        outcomes[s].emplace_back();
        span.fail();
        ctx.report.line(std::string("search failed: ") + e.what());
      }
      restarts += specs[s].restarts;
    }
    job_ms.push_back(ms_since(start));
    return restarts;
  });
  report_end_to_end(ctx, setup_s, loop, peak_rss_mib());

  // Gates: every front entry verified, every search identical to the first
  // of its spec.
  std::uint64_t attempted = 0, failed = 0;
  double log_ratio = 0.0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const search::SearchSpec& spec = specs[s];
    const search::SearchOutcome& first = outcomes[s].front();
    std::vector<std::string> reference;
    for (const search::RestartResult& r : first.restarts)
      reference.push_back(io::to_json(r).dump());
    for (const search::SearchOutcome& outcome : outcomes[s]) {
      attempted += spec.restarts;
      if (outcome.restarts.size() != spec.restarts ||
          reference.size() != spec.restarts) {
        failed += spec.restarts;
        continue;
      }
      for (std::size_t r = 0; r < spec.restarts; ++r) {
        const search::RestartResult& restart = outcome.restarts[r];
        bool ok = io::to_json(restart).dump() == reference[r];
        for (const search::ScheduleResult& entry : restart.front)
          ok = ok && entry.verified;
        if (!ok) ++failed;
      }
    }
    const search::PaddedBaseline naive = search::naive_idle_padding(spec);
    const search::ScheduleResult* best = nullptr;
    double lowest_peak = 0.0;
    for (const search::ScheduleResult& point : first.front) {
      if (lowest_peak == 0.0 || point.peak_power_w < lowest_peak)
        lowest_peak = point.peak_power_w;
      if (point.verified && point.peak_power_w <= spec.peak_budget_w &&
          (!best || point.cycles < best->cycles))
        best = &point;
    }
    if (!naive.meets_budget)
      ctx.gate_failed("naive padding misses the budget at " +
                      std::to_string(spec.config.geometry.rows));
    const double ratio =
        (best ? static_cast<double>(best->cycles) : naive.score.cycles) /
        naive.score.cycles;
    log_ratio += std::log(ratio);
    char text[256];
    std::snprintf(text, sizeof text,
                  "%zux%zu: budget %.6f W; search %s (lowest peak %.6f W); "
                  "naive padding %.6f W at %.0f cycles; ratio %.6f",
                  spec.config.geometry.rows, spec.config.geometry.cols,
                  spec.peak_budget_w,
                  best ? ("meets it at " + std::to_string(best->cycles) +
                          " cycles").c_str()
                       : "finds no schedule under it",
                  lowest_peak, naive.score.peak_power_w, naive.score.cycles,
                  ratio);
    ctx.report.line(text);
  }
  ctx.ops(attempted, failed);
  ctx.report.note("search_cycles_vs_naive",
                  std::exp(log_ratio / static_cast<double>(specs.size())),
                  "ratio");
  note_failed_frac(ctx);

  if (!ctx.trace) return;
  // The probes take the first seed's pair: the others repeat its layers.
  specs.resize(2);
  std::vector<sram::Geometry> geometries;
  for (const search::SearchSpec& spec : specs)
    geometries.push_back(spec.config.geometry);
  const core::SweepGrid grid =
      single_algorithm_grid(geometries, {*specs.front().base});
  probe_io(ctx, probe_engine(ctx, grid));
  const core::SessionConfig& small = specs.back().config;
  probe_faults(ctx, small, *specs.back().base,
               faults::standard_fault_library(
                   small.geometry, derive_seed(ctx.seed, "search_faults"), 8));
  probe_search(ctx, specs);
  std::vector<dist::JobSpec> jobs;
  for (const search::SearchSpec& spec : specs) jobs.push_back(search_job(spec));
  probe_fingerprint(ctx, jobs);
  probe_service(ctx, jobs.back());
}

}  // namespace perfbench
