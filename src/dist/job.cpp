#include "dist/job.h"

#include <utility>

#include "engine/parallel.h"
#include "search/serialize.h"
#include "util/error.h"

namespace sramlp::dist {

namespace {

const char* kind_slug(JobSpec::Kind kind) {
  switch (kind) {
    case JobSpec::Kind::kSweep: return "sweep";
    case JobSpec::Kind::kCampaign: return "campaign";
    case JobSpec::Kind::kSearch: return "search";
  }
  throw Error("invalid JobSpec::Kind");
}

JobSpec::Kind kind_from_slug(const std::string& slug) {
  for (const auto kind : {JobSpec::Kind::kSweep, JobSpec::Kind::kCampaign,
                          JobSpec::Kind::kSearch})
    if (slug == kind_slug(kind)) return kind;
  throw Error("unknown job kind '" + slug + "'");
}

/// The result-line type of @p kind's work items.
const char* line_type(JobSpec::Kind kind) {
  switch (kind) {
    case JobSpec::Kind::kSweep: return "sweep_point";
    case JobSpec::Kind::kCampaign: return "campaign_entry";
    case JobSpec::Kind::kSearch: return "search_restart";
  }
  throw Error("invalid JobSpec::Kind");
}

io::JsonValue result_line(JobSpec::Kind kind, std::size_t index,
                          io::JsonValue data) {
  io::JsonValue line = io::JsonValue::object();
  line.set("type", io::JsonValue::string(line_type(kind)));
  // A sweep point carries its flat index inside its data.
  if (kind != JobSpec::Kind::kSweep)
    line.set("index", io::JsonValue::integer(index));
  line.set("data", std::move(data));
  return line;
}

std::size_t checked_slot(std::size_t index, std::size_t size) {
  SRAMLP_REQUIRE(index < size, "result index " + std::to_string(index) +
                                   " out of range for a job of " +
                                   std::to_string(size) + " items");
  return index;
}

}  // namespace

std::size_t JobSpec::size() const {
  switch (kind) {
    case Kind::kSweep: return grid.size();
    case Kind::kCampaign: return faults.size();
    case Kind::kSearch: return search ? search->size() : 0;
  }
  throw Error("invalid JobSpec::Kind");
}

void JobSpec::validate() const {
  if (kind == Kind::kSweep) {
    SRAMLP_REQUIRE(!grid.geometries.empty() && !grid.backgrounds.empty() &&
                       !grid.algorithms.empty(),
                   "sweep job has an empty grid axis");
  } else if (kind == Kind::kCampaign) {
    SRAMLP_REQUIRE(test.has_value(), "campaign job needs a March test");
    SRAMLP_REQUIRE(!faults.empty(), "campaign job has no faults");
  } else {
    SRAMLP_REQUIRE(search.has_value(), "search job needs a SearchSpec");
    search->validate();
  }
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t JobSpec::fingerprint() const {
  // FNV-1a over the canonical (compact, insertion-ordered) JSON form.
  return fnv1a64(to_json(*this).dump());
}

io::JsonValue to_json(const JobSpec& job) {
  io::JsonValue v = io::JsonValue::object();
  v.set("kind", io::JsonValue::string(kind_slug(job.kind)));
  if (job.kind == JobSpec::Kind::kSweep) {
    v.set("grid", io::to_json(job.grid));
  } else if (job.kind == JobSpec::Kind::kCampaign) {
    v.set("config", io::to_json(job.config));
    SRAMLP_REQUIRE(job.test.has_value(), "campaign job needs a March test");
    v.set("test", io::to_json(*job.test));
    io::JsonValue faults = io::JsonValue::array();
    for (const faults::FaultSpec& f : job.faults)
      faults.push_back(io::to_json(f));
    v.set("faults", std::move(faults));
  } else {
    SRAMLP_REQUIRE(job.search.has_value(), "search job needs a SearchSpec");
    v.set("search", io::to_json(*job.search));
  }
  return v;
}

JobSpec job_from_json(const io::JsonValue& json) {
  JobSpec job;
  job.kind = kind_from_slug(json.at("kind").as_string());
  if (job.kind == JobSpec::Kind::kSweep) {
    job.grid = io::sweep_grid_from_json(json.at("grid"));
  } else if (job.kind == JobSpec::Kind::kCampaign) {
    job.config = io::session_config_from_json(json.at("config"));
    job.test = io::march_from_json(json.at("test"));
    const io::JsonValue& faults = json.at("faults");
    for (std::size_t i = 0; i < faults.size(); ++i)
      job.faults.push_back(io::fault_spec_from_json(faults.at(i)));
  } else {
    job.search = io::search_spec_from_json(json.at("search"));
  }
  job.validate();
  return job;
}

std::uint64_t point_fingerprint(const JobSpec& job, std::size_t index) {
  io::JsonValue key = io::JsonValue::object();
  switch (job.kind) {
    case JobSpec::Kind::kSweep: {
      std::size_t geometry = 0, background = 0, algorithm = 0;
      job.grid.split(index, &geometry, &background, &algorithm);
      key.set("kind", io::JsonValue::string("sweep_point"));
      key.set("config", io::to_json(job.grid.config_at(index)));
      key.set("test", io::to_json(job.grid.algorithms[algorithm]));
      break;
    }
    case JobSpec::Kind::kCampaign:
      key.set("kind", io::JsonValue::string("campaign_entry"));
      key.set("config", io::to_json(job.config));
      key.set("test", io::to_json(*job.test));
      key.set("fault", io::to_json(job.faults[index]));
      break;
    case JobSpec::Kind::kSearch:
      // A restart result is a pure function of (whole spec, restart
      // index), so the key must cover the entire SearchSpec — two jobs
      // share a cached restart only when every search knob matches.
      key.set("kind", io::JsonValue::string("search_restart"));
      key.set("search", io::to_json(*job.search));
      key.set("restart", io::JsonValue::integer(index));
      break;
  }
  return fnv1a64(key.dump());
}

MergedResult empty_result(const JobSpec& job) {
  MergedResult merged;
  merged.kind = job.kind;
  switch (job.kind) {
    case JobSpec::Kind::kSweep: merged.sweep.resize(job.size()); break;
    case JobSpec::Kind::kCampaign:
      merged.campaign.algorithm = job.test->name();
      merged.campaign.entries.resize(job.size());
      break;
    case JobSpec::Kind::kSearch: merged.search.resize(job.size()); break;
  }
  return merged;
}

bool execute_indices(const JobSpec& job,
                     const std::vector<std::size_t>& indices,
                     unsigned threads, bool batched_campaigns,
                     const std::function<bool(io::JsonValue)>& emit) {
  switch (job.kind) {
    case JobSpec::Kind::kSweep: {
      // SweepRunner::run_indices IS run()'s arithmetic applied to the
      // subset, so these points are bit-identical to the single-process
      // grid slots they fill.
      const core::SweepRunner runner(
          core::SweepRunner::Options{threads, core::BackendChoice::kAuto});
      for (const core::SweepPointResult& point :
           runner.run_indices(job.grid, indices))
        if (!emit(result_line(job.kind, point.index, io::to_json(point))))
          return false;
      return true;
    }
    case JobSpec::Kind::kCampaign: {
      // CampaignRunner::run_subset computes exactly the entries a
      // whole-library run() fills into these slots.
      core::CampaignRunner::Options options;
      options.threads = threads;
      options.batched = batched_campaigns;
      const std::vector<core::CampaignEntry> entries =
          core::CampaignRunner(options).run_subset(job.config, *job.test,
                                                   job.faults, indices);
      SRAMLP_REQUIRE(entries.size() == indices.size(),
                     "campaign subset produced a short report");
      for (std::size_t j = 0; j < indices.size(); ++j)
        if (!emit(result_line(job.kind, indices[j], io::to_json(entries[j]))))
          return false;
      return true;
    }
    case JobSpec::Kind::kSearch: {
      // run_restart(spec, r) is pure, so each restart is bit-identical to
      // the slot run_search fills.  A serial worker streams each restart
      // as soon as it is done.
      if (threads == 1) {
        for (const std::size_t index : indices)
          if (!emit(result_line(
                  job.kind, index,
                  io::to_json(search::run_restart(*job.search, index)))))
            return false;
        return true;
      }
      std::vector<search::RestartResult> results(indices.size());
      engine::parallel_for(indices.size(), threads, [&](std::size_t j) {
        results[j] = search::run_restart(*job.search, indices[j]);
      });
      for (std::size_t j = 0; j < indices.size(); ++j)
        if (!emit(result_line(job.kind, indices[j], io::to_json(results[j]))))
          return false;
      return true;
    }
  }
  throw Error("invalid JobSpec::Kind");
}

std::size_t store_result(const io::JsonValue& line, MergedResult& merged) {
  SRAMLP_REQUIRE(line.at("type").as_string() == line_type(merged.kind),
                 "result line of type '" + line.at("type").as_string() +
                     "' for a " + kind_slug(merged.kind) + " job");
  const io::JsonValue& data = line.at("data");
  switch (merged.kind) {
    case JobSpec::Kind::kSweep: {
      core::SweepPointResult point = io::sweep_point_from_json(data);
      const std::size_t index = checked_slot(point.index, merged.sweep.size());
      merged.sweep[index] = std::move(point);
      return index;
    }
    case JobSpec::Kind::kCampaign: {
      const std::size_t index = checked_slot(
          line.at("index").as_size(), merged.campaign.entries.size());
      merged.campaign.entries[index] = io::campaign_entry_from_json(data);
      return index;
    }
    case JobSpec::Kind::kSearch: {
      const std::size_t index =
          checked_slot(line.at("index").as_size(), merged.search.size());
      merged.search[index] = io::restart_result_from_json(data);
      return index;
    }
  }
  throw Error("invalid JobSpec::Kind");
}

std::string point_payload(const MergedResult& merged, std::size_t index) {
  switch (merged.kind) {
    case JobSpec::Kind::kSweep: {
      core::SweepPointResult neutral = merged.sweep.at(index);
      neutral.index = 0;
      neutral.geometry = 0;
      neutral.background = 0;
      neutral.algorithm = 0;
      return io::to_json(neutral).dump();
    }
    case JobSpec::Kind::kCampaign:
      return io::to_json(merged.campaign.entries.at(index)).dump();
    case JobSpec::Kind::kSearch:
      return io::to_json(merged.search.at(index)).dump();
  }
  throw Error("invalid JobSpec::Kind");
}

io::JsonValue rebind_payload(const JobSpec& job, std::size_t index,
                             const std::string& payload,
                             MergedResult& merged) {
  io::JsonValue data = io::JsonValue::parse(payload);
  switch (job.kind) {
    case JobSpec::Kind::kSweep: {
      // Cached sweep points are grid-neutral; give them this grid's
      // coordinates.
      core::SweepPointResult point = io::sweep_point_from_json(data);
      point.index = checked_slot(index, merged.sweep.size());
      job.grid.split(index, &point.geometry, &point.background,
                     &point.algorithm);
      io::JsonValue line = result_line(job.kind, index, io::to_json(point));
      merged.sweep[index] = std::move(point);
      return line;
    }
    case JobSpec::Kind::kCampaign:
    case JobSpec::Kind::kSearch: {
      io::JsonValue line = result_line(job.kind, index, std::move(data));
      store_result(line, merged);
      return line;
    }
  }
  throw Error("invalid JobSpec::Kind");
}

MergedResult run_single(const JobSpec& job, unsigned threads) {
  job.validate();
  MergedResult merged;
  merged.kind = job.kind;
  switch (job.kind) {
    case JobSpec::Kind::kSweep:
      merged.sweep = core::SweepRunner(core::SweepRunner::Options{
                                           threads, core::BackendChoice::kAuto})
                         .run(job.grid);
      break;
    case JobSpec::Kind::kCampaign: {
      core::CampaignRunner::Options options;
      options.threads = threads;
      options.batched = true;
      core::CampaignReport report =
          core::CampaignRunner(options).run(job.config, *job.test, job.faults);
      merged.campaign.algorithm = std::move(report.algorithm);
      merged.campaign.entries = std::move(report.entries);
      break;
    }
    case JobSpec::Kind::kSearch:
      merged.search = search::run_search(*job.search, threads).restarts;
      break;
  }
  return merged;
}

std::string merged_document(const MergedResult& merged) {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("kind", io::JsonValue::string(kind_slug(merged.kind)));
  switch (merged.kind) {
    case JobSpec::Kind::kSweep: {
      io::JsonValue points = io::JsonValue::array();
      for (const core::SweepPointResult& p : merged.sweep)
        points.push_back(io::to_json(p));
      doc.set("points", std::move(points));
      break;
    }
    case JobSpec::Kind::kCampaign: {
      doc.set("algorithm", io::JsonValue::string(merged.campaign.algorithm));
      io::JsonValue entries = io::JsonValue::array();
      for (const core::CampaignEntry& e : merged.campaign.entries)
        entries.push_back(io::to_json(e));
      doc.set("entries", std::move(entries));
      break;
    }
    case JobSpec::Kind::kSearch: {
      // The global Pareto front depends only on the per-restart results
      // (search::merge_front), so this document is byte-identical whether
      // the restarts came from one process or the service's workers.
      io::JsonValue restarts = io::JsonValue::array();
      for (const search::RestartResult& r : merged.search)
        restarts.push_back(io::to_json(r));
      doc.set("restarts", std::move(restarts));
      io::JsonValue front = io::JsonValue::array();
      for (const search::ScheduleResult& point :
           search::merge_front(merged.search))
        front.push_back(io::to_json(point));
      doc.set("front", std::move(front));
      break;
    }
  }
  return doc.dump(2) + "\n";
}

}  // namespace sramlp::dist
