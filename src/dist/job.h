// The unit of distributed work — one whole sweep grid, fault campaign or
// schedule search — and every decision that depends on its kind.
//
// A JobSpec is everything a worker process needs to recompute any flat
// index of the job from scratch: the grid (or campaign config + test +
// fault library, or search spec) travels by value in JSON, never by
// reference to in-process state.  Its fingerprint keys the service's
// whole-job cache, so a resubmission never replays a different job.
//
// The per-kind code of the distributed path lives here and only here, as
// free functions with one switch each: executing work items into result
// lines (the service worker), storing a line into its flat slot (the
// service), the grid-neutral point-cache payload and its rebind, the
// single-process reference run, and the merged document every path
// writes.  A new job kind edits this file and nothing else in src/dist/.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault_campaign.h"
#include "core/sweep.h"
#include "io/serialize.h"
#include "search/search.h"

namespace sramlp::dist {

/// FNV-1a over @p text — the digest shared by JobSpec::fingerprint and
/// the per-point cache keys (point_fingerprint).
std::uint64_t fnv1a64(std::string_view text);

/// One distributed job: a sweep grid, a fault campaign, or a schedule
/// search (one work item per seeded restart).
struct JobSpec {
  enum class Kind { kSweep, kCampaign, kSearch };

  Kind kind = Kind::kSweep;

  // --- kind == kSweep ----------------------------------------------------
  core::SweepGrid grid;

  // --- kind == kCampaign -------------------------------------------------
  core::SessionConfig config;               ///< campaign session template
  std::optional<march::MarchTest> test;     ///< campaign algorithm
  std::vector<faults::FaultSpec> faults;    ///< campaign fault library

  // --- kind == kSearch ---------------------------------------------------
  std::optional<search::SearchSpec> search; ///< schedule-search spec

  /// Flat work items: grid points, faults, or search restarts.
  std::size_t size() const;

  void validate() const;

  /// Stable digest (FNV-1a over the canonical JSON form); the service's
  /// whole-job cache key.
  std::uint64_t fingerprint() const;
};

io::JsonValue to_json(const JobSpec& job);
JobSpec job_from_json(const io::JsonValue& json);

/// Canonical cache key of one work item: grid point @p index of a sweep
/// job, fault @p index of a campaign job, or restart @p index of a search
/// job.  Two jobs that contain the same point (same session config +
/// algorithm (+ fault)) produce the same key whatever the rest of their
/// grids look like.
std::uint64_t point_fingerprint(const JobSpec& job, std::size_t index);

/// A whole job's results in flat-index order.
struct MergedResult {
  JobSpec::Kind kind = JobSpec::Kind::kSweep;
  /// Sweep jobs: results[i] is grid point i — the same vector
  /// SweepRunner::run produces, to the bit.
  std::vector<core::SweepPointResult> sweep;
  /// Campaign jobs: entries[i] describes faults[i], bit-identical to
  /// CampaignRunner::run.  Cross-process session accounting is not
  /// aggregated: session_pairs / batch_sessions are zero.
  core::CampaignReport campaign;
  /// Search jobs: search[i] is restart i — the same vector
  /// search::run_search produces, to the bit.
  std::vector<search::RestartResult> search;
};

/// One default-constructed result slot per work item of @p job.
MergedResult empty_result(const JobSpec& job);

/// Compute work items @p indices of @p job through the exact entry points
/// a single-process run uses, and hand one result line per item to
/// @p emit, in @p indices order:
///
///   {"type":"sweep_point", "data":{...}}              (index inside data)
///   {"type":"campaign_entry", "index":i, "data":{...}}
///   {"type":"search_restart", "index":i, "data":{...}}
///
/// @p threads fans the items out within this call; @p batched_campaigns
/// batches victim-disjoint faults (a wall-time choice only — verdicts are
/// execution-shape independent).  Stops and returns false as soon as
/// @p emit does; throws sramlp::Error when the computation fails.
bool execute_indices(const JobSpec& job,
                     const std::vector<std::size_t>& indices,
                     unsigned threads, bool batched_campaigns,
                     const std::function<bool(io::JsonValue)>& emit);

/// Parse result line @p line (as execute_indices emits it) into its slot
/// of @p merged and return the flat index.  Throws sramlp::Error on a
/// malformed line, a line of another kind, or an index out of range.
std::size_t store_result(const io::JsonValue& line, MergedResult& merged);

/// The point-cache payload of slot @p index: grid-neutral (a sweep point's
/// grid coordinates are zeroed), so the same physical point hits from any
/// future grid shape.
std::string point_payload(const MergedResult& merged, std::size_t index);

/// Rebind cached @p payload as work item @p index of @p job: store it in
/// its slot of @p merged and return its result line.  Throws
/// sramlp::Error on an unreadable payload.
io::JsonValue rebind_payload(const JobSpec& job, std::size_t index,
                             const std::string& payload,
                             MergedResult& merged);

/// The single-process reference run of @p job (@p threads: 0 = one per
/// hardware thread; the results do not depend on it).
MergedResult run_single(const JobSpec& job, unsigned threads = 0);

/// The canonical merged document — what `sramlp_dist run` and `single`
/// write and the sweep service streams back on job completion: every
/// distributed path's byte-level diff target.
std::string merged_document(const MergedResult& merged);

}  // namespace sramlp::dist
