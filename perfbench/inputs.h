// Seeded input generators for the four workloads.  Every generator is a
// pure function of --seed: the same seed gives byte-identical inputs (the
// selftest checks this through inputs_digest).  The generators use their
// own splitmix64 stream, never the library's RNG, so a library change
// cannot silently change what the benchmark feeds it.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/sweep.h"
#include "dist/job.h"
#include "faults/models.h"
#include "march/test.h"
#include "search/search.h"

namespace perfbench {

namespace core = sramlp::core;
namespace dist = sramlp::dist;
namespace faults = sramlp::faults;
namespace march = sramlp::march;
namespace search = sramlp::search;

/// splitmix64: tiny, fixed forever, good enough to pick inputs.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::size_t below(std::size_t bound);
  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for one generator of one workload.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream);

/// prr_sweep: Table 1 at 512x512, both backgrounds.  The seed only
/// permutes the algorithm and background order of the grid; the points
/// (and so every simulated number) are the same for every seed.
core::SweepGrid prr_grid(std::uint64_t seed);

/// fault_campaign: 256x256, the five Table-1 tests, and
/// kCampaignLibraries libraries faults::standard_fault_library(geometry,
/// seed_k, 8) (112 faults each).  A library's batch plan, and so its cost
/// per verdict, depends on its seed (about one in six needs a third session
/// pair); several per run keep one draw from setting the run's figure.
constexpr std::size_t kCampaignLibraries = 4;
struct CampaignInputs {
  core::SessionConfig config;
  std::vector<march::MarchTest> tests;
  std::vector<std::vector<faults::FaultSpec>> libraries;
};
CampaignInputs campaign_inputs(std::uint64_t seed);

/// schedule_search: March C- at 512x512 and at 256x256, budget 0.97x the
/// base schedule's peak, 8 restarts, window 4 x words (march_search's
/// defaults).  The 512x512 spec pads in quanta of words/4 (the schedule
/// bench's move limits); 256x256 keeps march_search's 1024-cycle quantum.
/// The pair comes with kSearchSeeds search seeds, in the order {512, 256}
/// of seed 0, then of seed 1, ...: a search's cost per restart depends on
/// its seed, and several per run keep one draw from setting the run's
/// figure.
constexpr std::size_t kSearchSeeds = 4;
std::vector<search::SearchSpec> search_specs(std::uint64_t seed);

/// service_stream: an endless closed-loop job stream.  Jobs come in
/// blocks of 20: 13 new analytic sweep grids drawn from an overlapping
/// pool (16 geometries x 2 backgrounds x 5 algorithms = 160 distinct
/// points, more than the service's 128-entry default cache), 5
/// resubmissions of one of the last 256 jobs, 1 small campaign job and 1
/// small search job, in seeded order (a block always opens with a new
/// sweep).  The fixed block mix keeps the load the same for every seed
/// and every run length.
class JobStream {
 public:
  struct Job {
    std::size_t id = 0;
    /// Stream id of the job this one repeats (== id for a fresh job).
    std::size_t original = 0;
    dist::JobSpec spec;
    bool resubmission() const { return original != id; }
  };

  explicit JobStream(std::uint64_t seed);
  Job next();

  static constexpr std::size_t kBlock = 20;
  static constexpr std::size_t kWindow = 256;

 private:
  dist::JobSpec new_sweep();
  dist::JobSpec new_campaign();
  dist::JobSpec new_search();

  SeedRng rng_;
  std::vector<char> block_;  ///< job kinds of the current block, in order
  std::deque<Job> recent_;   ///< the last kWindow jobs emitted
  std::size_t emitted_ = 0;
};

/// A job outside every generated pool, used to warm the service up.
dist::JobSpec warmup_job();

/// Digest of the first @p jobs inputs of @p workload for @p seed.
std::uint64_t inputs_digest(const std::string& workload, std::uint64_t seed,
                            std::size_t jobs = 200);

}  // namespace perfbench
