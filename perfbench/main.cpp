// sramlp_perfbench — one workload of the repository benchmark per process.
//
//   sramlp_perfbench --workload W --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// Prints a host tag, the human-readable numbers, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (a separate
// run, so tracing never touches the end-to-end numbers).  --spans writes
// the traced run's spans as JSON lines.  Exit code 1 on any error, with no
// result line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sram/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Read before main() runs: the set-up clock starts at process start.
const Clock::time_point kProcessStart = Clock::now();

const std::vector<std::string> kEndToEnd = {
    "setup_s", "user_cpu_ms_per_item", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "engine.stream.ms",          "engine.stream.runs",
    "engine.cycle.ms",           "engine.cycle.ns_per_sim_cycle",
    "engine.analytic.ms",        "engine.analytic.prr_dev_max",
    "core.session.setup_ms",     "core.sweep.parallel_eff",
    "core.campaign.parallel_eff", "faults.plan.ms",
    "faults.plan.batches",       "faults.plan.fallback",
    "faults.per_session_pair",   "faults.hook_overhead",
    "power.trace_overhead",      "search.restart.ms",
    "search.verify.ms",          "search.self.ms",
    "search.score.cand_per_s",   "search.front.size",
    "io.json.point_us",          "io.doc.bytes",
    "dist.fingerprint.us_per_job", "dist.submit.first_line_ms",
    "dist.lease.wait_ms",        "dist.shard.exec_ms",
    "dist.shards",               "dist.requeues",
    "dist.cache.job_hit_ratio",  "dist.cache.point_hit_ratio",
    "dist.service_overhead",     "obs.trace_overhead"};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sramlp_perfbench --workload prr_sweep|fault_campaign|"
               "service_stream|schedule_search --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n");
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string host_tag(const Context& ctx, unsigned nproc) {
  namespace simd = sramlp::sram::simd;
  std::string tag = "host: cpu=\"" + cpu_model() + "\"";
  tag += " nproc=" + std::to_string(nproc);
  tag += std::string(" simd_active=") + simd::level_name(simd::active_level());
  tag += std::string(" simd_detected=") +
         simd::level_name(simd::detected_level());
  tag += std::string(" compiler=\"") + __VERSION__ + "\"";
  tag += std::string(" build=") + PERFBENCH_BUILD_TYPE;
  tag += " threads=" + std::to_string(ctx.threads);
  if (ctx.workload == "service_stream")
    tag += " service_workers=" + std::to_string(ctx.workers);
  return tag;
}

void print_layer_table(const Context& ctx) {
  std::printf("per-layer (traced run; busy = self time, spans from the "
              "benchmark's own calls):\n");
  std::printf("  %-8s %8s %12s %12s %7s %s\n", "layer", "spans", "busy_ms",
              "wait_ms", "failed", "useful/attempts");
  for (const LayerRow& row : fold_layers(ctx.spans)) {
    std::string useful = "-";
    if (row.attempts > 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%llu/%llu = %.4f",
                    static_cast<unsigned long long>(row.useful),
                    static_cast<unsigned long long>(row.attempts),
                    static_cast<double>(row.useful) /
                        static_cast<double>(row.attempts));
      useful = buf;
    }
    std::printf("  %-8s %8zu %12.3f %12.3f %7zu %s\n", row.layer.c_str(),
                row.count, row.busy_ms, row.wait_ms, row.failed,
                useful.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.process_start = kProcessStart;
  std::string spans_path;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) usage();
      const std::string value = argv[++i];
      if (flag == "--workload") {
        ctx.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = ctx.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage();
        ctx.trace = value == "1";
        have_trace = true;
      } else if (flag == "--spans") {
        spans_path = value;
      } else {
        usage();
      }
    }
  } catch (const std::exception&) {
    usage();
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) usage();

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.threads = std::min(nproc, 4u);
  ctx.workers = std::max(1u, std::min(nproc - 1, 3u));
  try {
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0);
    std::printf("%s\n", host_tag(ctx, nproc).c_str());
    if (ctx.workload == "prr_sweep") {
      run_prr_sweep(ctx);
    } else if (ctx.workload == "fault_campaign") {
      run_fault_campaign(ctx);
    } else if (ctx.workload == "service_stream") {
      run_service_stream(ctx);
    } else if (ctx.workload == "schedule_search") {
      run_schedule_search(ctx);
    } else {
      usage();
    }
    if (ctx.trace) {
      print_layer_table(ctx);
      if (!spans_path.empty()) ctx.spans.write_jsonl(spans_path);
    }
    ctx.report.print(ctx.trace ? kPerLayer : kEndToEnd);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "sramlp_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
