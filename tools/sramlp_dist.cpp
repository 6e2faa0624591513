// sramlp_dist — the distributed sweep/campaign/search CLI.
//
// One binary for every role, and one execution path underneath: the
// sweep service (dist/service.h), whose workers steal small shards and
// whose result cache answers repeated points.
//
//   example-job [--campaign|--search] [--trace]
//                                       emit a small demo job spec (stdout)
//   run    --job J --workers N --dir D --out M [--threads T]
//                                       one job on an ephemeral service:
//                                       spawns N `sramlp_dist work`
//                                       subprocesses of this very binary,
//                                       keeps its result cache in D (a
//                                       rerun resumes from it) and writes
//                                       the merged document
//   single --job J --out M              single-process reference run emitting
//                                       the identical merged document (CI
//                                       diffs `run` against this, byte for
//                                       byte)
//
// Service mode (the long-running path):
//
//   serve    --listen A --workers N       coordinator daemon: accepts jobs
//                                         over a Unix/TCP socket, workers
//                                         steal small shards dynamically,
//                                         results are cached by fingerprint
//   work     --connect A                  one steal-protocol worker (extra
//                                         capacity, local or remote)
//   submit   --connect A --job J --out M  submit a job, stream the results,
//                                         write the merged document (byte-
//                                         identical to `single`)
//   stats    --connect A                  service counters as JSON, or
//            [--format prom]              Prometheus text exposition, or
//            [--watch [--interval MS]]    a live dashboard with rates
//   shutdown --connect A                  stop the daemon
//
// Multi-host recipe: `serve --listen tcp:0.0.0.0:PORT` here, `work
// --connect tcp:HOST:PORT` on every other host, `submit` from anywhere.
// The merged document is bit-identical to `single` whatever the
// worker/host split.
//
// Observability (every subcommand): --log-level trace|debug|info|warn|
// error|off, --log-format human|jsonl, --log-file PATH (default stderr;
// SRAMLP_LOG sets the level too).  `serve`/`work` accept --trace-out F
// to dump a Chrome trace-event JSON of job/shard/lease/execute spans.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cli.h"
#include "dist/coordinator.h"
#include "dist/job.h"
#include "dist/service.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "search/search.h"
#include "util/error.h"

namespace {

using namespace sramlp;
using cli::apply_logging_flags;
using cli::Args;
using cli::read_file;
using cli::write_file;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <subcommand> [options]\n"
      "\n"
      "  example-job [--campaign|--search] [--trace]      demo job spec -> stdout\n"
      "  run    --job J --workers N --dir D --out M [--threads N]\n"
      "  single --job J --out M\n"
      "  serve  [--listen unix:/path|tcp:port] [--workers N] [--threads N]\n"
      "         [--points-per-shard P] [--cache-capacity C] [--spill F]\n"
      "         [--slow-us U] [--trace-out F]\n"
      "  work   --connect A [--threads N] [--per-fault] [--slow-us U]\n"
      "         [--trace-out F]\n"
      "  submit --connect A --job J [--out M] [--expect-cache-hit]\n"
      "         [--submitter NAME]\n"
      "  stats  --connect A [--format json|prom]\n"
      "         [--watch [--interval MS] [--count N]]\n"
      "  shutdown --connect A\n"
      "\n"
      "  every subcommand: [--log-level trace|debug|info|warn|error|off]\n"
      "                    [--log-format human|jsonl] [--log-file PATH]\n"
      "                    [--log-max-bytes N]  (rotate PATH -> PATH.1 at N)\n",
      argv0);
  std::exit(2);
}

dist::JobSpec load_job(const std::string& path) {
  return dist::job_from_json(io::JsonValue::parse(read_file(path)));
}

/// Absolute path of this binary, for spawning `work` subprocesses.
std::string self_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int cmd_example_job(Args& args) {
  const bool campaign = args.flag("--campaign");
  const bool search_job = args.flag("--search");
  // --trace: time-resolved power accounting on every run of the sweep
  // job; the distributed document stays byte-identical to `single` (CI
  // diffs it).  Campaign reports reduce to per-fault verdicts, which carry no
  // trace — combining the flags would buy the traced-run cost for no
  // output, so it is an error rather than a silent no-op.
  const bool trace = args.flag("--trace");
  args.reject_leftovers();
  if (campaign && search_job)
    throw Error("--campaign and --search are mutually exclusive");
  if ((campaign || search_job) && trace)
    throw Error("--trace applies to sweep jobs only: campaign entries "
                "reduce to per-fault verdicts and would pay the traced-run "
                "cost without reporting a trace; search winners are traced "
                "internally by their cycle-accurate verification");
  dist::JobSpec job;
  if (search_job) {
    // A small peak-constrained schedule search: one restart per work
    // item, sized so the daemon e2e finishes in seconds while still
    // exercising reorder + idle-insertion moves and winner verification.
    job.kind = dist::JobSpec::Kind::kSearch;
    search::SearchSpec spec;
    spec.config.geometry = {16, 32, 1};
    spec.base = march::algorithms::march_c_minus();
    spec.window_cycles = 4 * spec.config.geometry.words();
    spec.seed = 7;
    spec.restarts = 4;
    spec.steps = 24;
    spec.beam_width = 4;
    spec.neighbors = 8;
    spec.idle_quantum = 512;
    spec.max_idle_quanta = 8;
    spec.max_front = 4;
    job.search = std::move(spec);
  } else if (campaign) {
    job.kind = dist::JobSpec::Kind::kCampaign;
    job.config.geometry = {16, 32, 1};
    job.test = march::algorithms::march_c_minus();
    job.faults = faults::standard_fault_library(job.config.geometry, 7, 2);
  } else {
    job.kind = dist::JobSpec::Kind::kSweep;
    job.grid.geometries = {{16, 32, 1}, {8, 64, 1}, {32, 16, 1}, {24, 48, 2}};
    job.grid.backgrounds = {sram::DataBackground::solid0(),
                            sram::DataBackground::checkerboard()};
    job.grid.algorithms = {march::algorithms::mats_plus(),
                           march::algorithms::march_c_minus()};
    if (trace)
      job.grid.base.trace =
          power::TraceConfig{.window_cycles = 32, .keep_windows = true};
  }
  std::fputs((dist::to_json(job).dump(2) + "\n").c_str(), stdout);
  return 0;
}

/// `sramlp_dist work` on this very binary, once per local worker; the
/// spawner appends `--connect ADDRESS`.
std::vector<std::vector<std::string>> work_commands(
    const char* argv0, std::size_t workers, unsigned threads) {
  return std::vector<std::vector<std::string>>(
      workers,
      {self_path(argv0), "work", "--threads", std::to_string(threads)});
}

int cmd_run(Args& args, const char* argv0) {
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::size_t workers = args.number("--workers", 2);
  const std::string dir = args.require("--dir");
  const unsigned threads = args.small_number("--threads", 1);
  const std::string out_path = args.require("--out");
  args.reject_leftovers();
  const dist::SubmitResult result =
      dist::run_job(job, dir, work_commands(argv0, workers, threads));
  write_file(out_path, result.document);
  std::printf("%zu work items: %zu computed, %zu from cache (%s) -> %s\n",
              result.total_points, result.total_points - result.cached_points,
              result.cached_points,
              result.cache_hit ? "whole-job HIT" : "whole-job miss",
              out_path.c_str());
  return 0;
}

int cmd_single(Args& args) {
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::string out_path = args.require("--out");
  args.reject_leftovers();
  write_file(out_path, dist::merged_document(dist::run_single(job)));
  std::printf("single-process reference -> %s\n", out_path.c_str());
  return 0;
}

int cmd_serve(Args& args, const char* argv0) {
  dist::Service::Options options;
  if (auto listen = args.value("--listen")) options.listen = *listen;
  options.points_per_shard =
      args.number("--points-per-shard", options.points_per_shard);
  options.cache.capacity =
      args.number("--cache-capacity", options.cache.capacity);
  if (auto spill = args.value("--spill")) options.cache.spill_path = *spill;
  const std::size_t workers = args.number("--workers", 2);
  const unsigned threads = args.small_number("--threads", 1);
  const std::size_t slow_us = args.number("--slow-us", 0);
  const std::optional<std::string> trace_out = args.value("--trace-out");
  args.reject_leftovers();
  if (trace_out) obs::Tracer::global().enable();

  dist::Service service(options);
  service.start();
  const std::string address = service.address();
  std::printf("sweep service listening on %s (%zu local workers)\n",
              address.c_str(), workers);
  std::fflush(stdout);

  // Local capacity: N `work` subprocesses of this very binary on the
  // resolved address.  Remote hosts add more with `sramlp_dist work`.
  std::vector<std::vector<std::string>> commands =
      work_commands(argv0, workers, threads);
  for (std::size_t w = 0; w < workers; ++w) {
    if (slow_us > 0) {
      commands[w].push_back("--slow-us");
      commands[w].push_back(std::to_string(slow_us));
    }
    if (trace_out) {
      // Workers are separate processes with their own tracer rings; each
      // dumps to a per-worker sibling of the service's trace file.
      commands[w].push_back("--trace-out");
      commands[w].push_back(*trace_out + ".worker-" + std::to_string(w));
    }
  }
  dist::LocalWorkers children(commands, address);

  service.wait();  // until a `shutdown` request arrives
  children.wait();
  if (trace_out) {
    obs::Tracer::global().write_chrome_json(*trace_out);
    std::printf("trace written to %s (load in Perfetto or chrome://tracing)\n",
                trace_out->c_str());
  }
  const dist::ServiceStats stats = service.stats();
  std::printf("service stopped: %llu jobs (%llu cache hits, %llu points "
              "from cache), %llu points executed, %llu shards "
              "(%llu requeued), cache hit rate %.3f\n",
              static_cast<unsigned long long>(stats.jobs_submitted),
              static_cast<unsigned long long>(stats.job_cache_hits),
              static_cast<unsigned long long>(stats.point_cache_hits),
              static_cast<unsigned long long>(stats.points_executed),
              static_cast<unsigned long long>(stats.shards_executed),
              static_cast<unsigned long long>(stats.shard_requeues),
              stats.cache.hit_rate());
  return 0;
}

int cmd_work(Args& args) {
  const std::string address = args.require("--connect");
  dist::ServiceWorker::Options options;
  options.threads = args.small_number("--threads", options.threads);
  if (args.flag("--per-fault")) options.batched_campaigns = false;
  options.slow_point_us = args.number("--slow-us", 0);
  const std::optional<std::string> trace_out = args.value("--trace-out");
  args.reject_leftovers();
  if (trace_out) obs::Tracer::global().enable();
  const std::size_t points = dist::ServiceWorker(options).run(address);
  if (trace_out) obs::Tracer::global().write_chrome_json(*trace_out);
  std::printf("worker done: %zu points computed\n", points);
  return 0;
}

int cmd_submit(Args& args) {
  const std::string address = args.require("--connect");
  const dist::JobSpec job = load_job(args.require("--job"));
  const std::optional<std::string> out_path = args.value("--out");
  // CI hook: fail loudly when a resubmission that must be answered from
  // the cache was computed instead.
  const bool expect_cache_hit = args.flag("--expect-cache-hit");
  // Label for the service's per-submitter fairness counters
  // (sramlp_submitter_*_total{submitter="..."}); empty reads as
  // "anonymous" on the service side.
  const std::string submitter = args.value("--submitter").value_or("");
  args.reject_leftovers();
  const dist::SubmitResult result =
      dist::submit_job(address, job, 5000, {}, submitter);
  if (out_path) write_file(*out_path, result.document);
  std::printf("job done: %zu points (%zu from cache, %zu streamed), "
              "whole-job cache %s, service hit rate %.3f%s%s\n",
              result.total_points, result.cached_points,
              result.streamed_lines, result.cache_hit ? "HIT" : "miss",
              result.cache_hit_rate, out_path ? " -> " : "",
              out_path ? out_path->c_str() : "");
  if (expect_cache_hit && !result.cache_hit)
    throw Error("expected a whole-job cache hit; the job was computed");
  return 0;
}

void print_stats_json(const dist::ServiceStats& stats) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("jobs_submitted", io::JsonValue::integer(stats.jobs_submitted));
  doc.set("jobs_completed", io::JsonValue::integer(stats.jobs_completed));
  doc.set("jobs_failed", io::JsonValue::integer(stats.jobs_failed));
  doc.set("jobs_deduplicated",
          io::JsonValue::integer(stats.jobs_deduplicated));
  doc.set("job_cache_hits", io::JsonValue::integer(stats.job_cache_hits));
  doc.set("point_cache_hits", io::JsonValue::integer(stats.point_cache_hits));
  doc.set("points_executed", io::JsonValue::integer(stats.points_executed));
  doc.set("shards_executed", io::JsonValue::integer(stats.shards_executed));
  doc.set("shard_requeues", io::JsonValue::integer(stats.shard_requeues));
  doc.set("workers_connected",
          io::JsonValue::integer(stats.workers_connected));
  doc.set("workers_lost", io::JsonValue::integer(stats.workers_lost));
  doc.set("cache_entries", io::JsonValue::integer(stats.cache.entries));
  doc.set("cache_hit_rate", io::JsonValue::number(stats.cache.hit_rate()));
  std::fputs((doc.dump(2) + "\n").c_str(), stdout);
}

/// The --watch dashboard: totals plus client-side deltas and per-second
/// rates between consecutive samples (the service only ships totals, so
/// the derivative is computed here).  All display-only; rates use the
/// monotonic clock through the obs seam.
void watch_stats(const std::string& address, std::size_t interval_ms,
                 std::size_t count) {
  struct Row {
    const char* label;
    std::uint64_t (*pick)(const dist::ServiceStats&);
  };
  static const Row rows[] = {
      {"jobs_submitted", [](const dist::ServiceStats& s) {
         return s.jobs_submitted; }},
      {"jobs_completed", [](const dist::ServiceStats& s) {
         return s.jobs_completed; }},
      {"jobs_failed", [](const dist::ServiceStats& s) {
         return s.jobs_failed; }},
      {"job_cache_hits", [](const dist::ServiceStats& s) {
         return s.job_cache_hits; }},
      {"point_cache_hits", [](const dist::ServiceStats& s) {
         return s.point_cache_hits; }},
      {"points_executed", [](const dist::ServiceStats& s) {
         return s.points_executed; }},
      {"shards_executed", [](const dist::ServiceStats& s) {
         return s.shards_executed; }},
      {"shard_requeues", [](const dist::ServiceStats& s) {
         return s.shard_requeues; }},
      {"workers_connected", [](const dist::ServiceStats& s) {
         return s.workers_connected; }},
      {"workers_lost", [](const dist::ServiceStats& s) {
         return s.workers_lost; }},
  };
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::optional<dist::ServiceStats> prev;
  std::uint64_t prev_us = 0;
  for (std::size_t sample = 0; count == 0 || sample < count; ++sample) {
    const dist::ServiceStats stats = dist::query_stats(address);
    const std::uint64_t now_us = obs::monotonic_micros();
    if (tty)
      std::fputs("\033[H\033[2J", stdout);  // home + clear: redraw in place
    else if (sample > 0)
      std::fputs("---\n", stdout);
    const double dt = prev ? static_cast<double>(now_us - prev_us) * 1e-6
                           : 0.0;
    std::printf("%s  sample %zu  interval %zums\n", address.c_str(),
                sample + 1, interval_ms);
    std::printf("  %-20s %12s %10s %12s\n", "counter", "total", "delta",
                "rate");
    for (const Row& row : rows) {
      const std::uint64_t value = row.pick(stats);
      if (prev && dt > 0.0) {
        const std::uint64_t before = row.pick(*prev);
        const std::uint64_t delta = value >= before ? value - before : 0;
        std::printf("  %-20s %12llu %10llu %10.1f/s\n", row.label,
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(delta),
                    static_cast<double>(delta) / dt);
      } else {
        std::printf("  %-20s %12llu %10s %12s\n", row.label,
                    static_cast<unsigned long long>(value), "-", "-");
      }
    }
    std::printf("  %-20s %12zu\n", "cache_entries", stats.cache.entries);
    std::printf("  %-20s %12.3f\n", "cache_hit_rate", stats.cache.hit_rate());
    std::fflush(stdout);
    prev = stats;
    prev_us = now_us;
    if (count != 0 && sample + 1 >= count) break;
    ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
}

int cmd_stats(Args& args) {
  const std::string address = args.require("--connect");
  std::string format = "json";
  if (const auto f = args.value("--format")) format = *f;
  const bool watch = args.flag("--watch");
  const std::size_t interval_ms = args.number("--interval", 1000);
  const std::size_t count = args.number("--count", 0);  // 0 = forever
  args.reject_leftovers();
  if (format == "prom") {
    if (watch)
      throw Error("--watch is a dashboard over the json view; scrape "
                  "--format prom with your collector instead");
    std::fputs(dist::query_metrics(address).prometheus.c_str(), stdout);
    return 0;
  }
  if (format != "json")
    throw Error("--format must be json or prom, got '" + format + "'");
  if (watch) {
    watch_stats(address, interval_ms == 0 ? 1000 : interval_ms, count);
    return 0;
  }
  print_stats_json(dist::query_stats(address));
  return 0;
}

int cmd_shutdown(Args& args) {
  const std::string address = args.require("--connect");
  args.reject_leftovers();
  dist::request_shutdown(address);
  std::printf("service shut down\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string subcommand = argv[1];
  Args args(argc, argv, 2);
  try {
    apply_logging_flags(args);
    if (subcommand == "example-job") return cmd_example_job(args);
    if (subcommand == "run") return cmd_run(args, argv[0]);
    if (subcommand == "single") return cmd_single(args);
    if (subcommand == "serve") return cmd_serve(args, argv[0]);
    if (subcommand == "work") return cmd_work(args);
    if (subcommand == "submit") return cmd_submit(args);
    if (subcommand == "stats") return cmd_stats(args);
    if (subcommand == "shutdown") return cmd_shutdown(args);
    usage(argv[0]);
  } catch (const std::exception& e) {
    // Through the logger, so failures land in the same (possibly JSONL)
    // stream as everything else; the default sink is still stderr.  The
    // "sramlp_dist <cmd> failed" message is a greppable contract
    // (test_dist_cli asserts it).
    obs::log_error("cli", "sramlp_dist " + subcommand + " failed",
                   {obs::kv("error", e.what())});
    return 1;
  }
}
