#include "inputs.h"

#include <algorithm>
#include <stdexcept>

#include "harness.h"
#include "io/serialize.h"
#include "march/algorithms.h"
#include "search/evaluator.h"
#include "search/schedule.h"
#include "search/serialize.h"

namespace perfbench {

using namespace sramlp;

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t SeedRng::below(std::size_t bound) {
  return static_cast<std::size_t>(next() % bound);
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream) {
  // 32 bits: library seeds travel through JSON and CLI flags unharmed.
  return SeedRng(seed ^ fnv1a(stream)).next() & 0xFFFFFFFFull;
}

core::SweepGrid prr_grid(std::uint64_t seed) {
  SeedRng rng(derive_seed(seed, "prr_sweep"));
  core::SweepGrid grid;
  grid.geometries = {sram::Geometry::paper_512x512()};
  grid.backgrounds = {sram::DataBackground::solid0(),
                      sram::DataBackground::checkerboard()};
  grid.algorithms = march::algorithms::table1();
  rng.shuffle(grid.backgrounds);
  rng.shuffle(grid.algorithms);
  return grid;
}

CampaignInputs campaign_inputs(std::uint64_t seed) {
  CampaignInputs in;
  in.config.geometry = {256, 256, 1};
  in.tests = march::algorithms::table1();
  for (std::size_t k = 0; k < kCampaignLibraries; ++k)
    in.libraries.push_back(faults::standard_fault_library(
        in.config.geometry,
        derive_seed(seed, k == 0 ? std::string("fault_campaign")
                                 : "fault_campaign." + std::to_string(k)),
        8));
  return in;
}

namespace {

search::SearchSpec budgeted_spec(const sram::Geometry& geometry,
                                 std::uint64_t idle_quantum,
                                 std::uint64_t seed) {
  search::SearchSpec spec;
  spec.config.geometry = geometry;
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 4 * geometry.words();
  spec.idle_quantum = idle_quantum;
  spec.seed = seed;
  search::ScheduleEvaluator evaluator(spec.config, *spec.base,
                                      spec.window_cycles);
  const search::Score base =
      evaluator.score_one(search::identity_candidate(evaluator.elements()));
  spec.peak_budget_w = 0.97 * base.peak_power_w;
  return spec;
}

}  // namespace

std::vector<search::SearchSpec> search_specs(std::uint64_t seed) {
  const sram::Geometry big = sram::Geometry::paper_512x512();
  std::vector<search::SearchSpec> specs;
  for (std::size_t k = 0; k < kSearchSeeds; ++k) {
    const std::uint64_t s = derive_seed(
        seed, k == 0 ? std::string("schedule_search")
                     : "schedule_search." + std::to_string(k));
    specs.push_back(budgeted_spec(big, big.words() / 4, s));
    specs.push_back(budgeted_spec({256, 256, 1}, 1024, s));
  }
  return specs;
}

namespace {

sram::Geometry pool_geometry(std::size_t i) {
  static const std::size_t kRows[] = {8, 16, 24, 32};
  static const std::size_t kCols[] = {16, 32, 48, 64};
  const std::size_t width = (i % 4 == 3 && (i / 4) % 2 == 1) ? 4 : 1;
  return {kRows[i / 4], kCols[i % 4], width};
}

/// @p count distinct indices below @p bound, in ascending order.
std::vector<std::size_t> pick(SeedRng& rng, std::size_t count,
                              std::size_t bound) {
  std::vector<std::size_t> all(bound);
  for (std::size_t i = 0; i < bound; ++i) all[i] = i;
  rng.shuffle(all);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

JobStream::JobStream(std::uint64_t seed)
    : rng_(derive_seed(seed, "service_stream")) {}

dist::JobSpec JobStream::new_sweep() {
  static const std::vector<march::MarchTest> kTests =
      march::algorithms::table1();
  static const sram::DataBackground kBackgrounds[] = {
      sram::DataBackground::solid0(), sram::DataBackground::checkerboard()};
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSweep;
  for (const std::size_t g : pick(rng_, 1 + rng_.below(2), 16))
    job.grid.geometries.push_back(pool_geometry(g));
  job.grid.backgrounds.clear();
  for (const std::size_t b : pick(rng_, 1 + rng_.below(2), 2))
    job.grid.backgrounds.push_back(kBackgrounds[b]);
  for (const std::size_t a : pick(rng_, 2 + rng_.below(2), kTests.size()))
    job.grid.algorithms.push_back(kTests[a]);
  return job;
}

dist::JobSpec JobStream::new_campaign() {
  static const std::vector<march::MarchTest> kTests =
      march::algorithms::table1();
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kCampaign;
  job.config.geometry = rng_.below(2) == 0 ? sram::Geometry{8, 8, 1}
                                           : sram::Geometry{16, 16, 1};
  job.test = kTests[rng_.below(kTests.size())];
  job.faults = faults::standard_fault_library(job.config.geometry,
                                              rng_.next() & 0xFFFFFFFFull, 1);
  return job;
}

dist::JobSpec JobStream::new_search() {
  search::SearchSpec spec;
  spec.config.geometry = {16, 32, 1};
  spec.base = march::algorithms::march_c_minus();
  spec.window_cycles = 4 * spec.config.geometry.words();
  spec.seed = rng_.next() & 0xFFFFFFFFull;
  spec.restarts = 2;
  spec.steps = 12;
  spec.beam_width = 4;
  spec.neighbors = 8;
  spec.idle_quantum = 128;
  spec.max_idle_quanta = 8;
  spec.max_front = 4;
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSearch;
  job.search = spec;
  return job;
}

JobStream::Job JobStream::next() {
  if (block_.empty()) {
    std::vector<char> rest(12, 'n');
    rest.insert(rest.end(), 5, 'r');
    rest.push_back('c');
    rest.push_back('s');
    rng_.shuffle(rest);
    block_.push_back('n');
    block_.insert(block_.end(), rest.begin(), rest.end());
    std::reverse(block_.begin(), block_.end());  // consumed from the back
  }
  const char kind = block_.back();
  block_.pop_back();

  Job job;
  job.id = emitted_++;
  job.original = job.id;
  if (kind == 'r') {
    const Job& earlier = recent_[rng_.below(recent_.size())];
    job.original = earlier.original;
    job.spec = earlier.spec;
  } else if (kind == 'c') {
    job.spec = new_campaign();
  } else if (kind == 's') {
    job.spec = new_search();
  } else {
    job.spec = new_sweep();
  }
  recent_.push_back(job);
  if (recent_.size() > kWindow) recent_.pop_front();
  return job;
}

dist::JobSpec warmup_job() {
  dist::JobSpec job;
  job.kind = dist::JobSpec::Kind::kSweep;
  job.grid.geometries = {{4, 8, 1}};
  job.grid.algorithms = {march::algorithms::march_c_minus()};
  return job;
}

std::uint64_t inputs_digest(const std::string& workload, std::uint64_t seed,
                            std::size_t jobs) {
  std::string text;
  if (workload == "prr_sweep") {
    text = io::to_json(prr_grid(seed)).dump();
  } else if (workload == "fault_campaign") {
    const CampaignInputs in = campaign_inputs(seed);
    text = io::to_json(in.config).dump();
    for (const march::MarchTest& t : in.tests) text += io::to_json(t).dump();
    for (const std::vector<faults::FaultSpec>& library : in.libraries)
      for (const faults::FaultSpec& f : library) text += io::to_json(f).dump();
  } else if (workload == "schedule_search") {
    for (const search::SearchSpec& s : search_specs(seed))
      text += io::to_json(s).dump();
  } else if (workload == "service_stream") {
    JobStream stream(seed);
    for (std::size_t i = 0; i < jobs; ++i) {
      const JobStream::Job job = stream.next();
      text += std::to_string(job.original) + dist::to_json(job.spec).dump();
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return fnv1a(text);
}

}  // namespace perfbench
