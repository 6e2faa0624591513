// One-shot runs of a job: an ephemeral in-process Service, subprocess
// workers on the steal protocol, and a result-cache spill file in a work
// directory — the engine behind `sramlp_dist run`.
//
// Resume is the point cache: the service appends every point to the
// spill file when its result is delivered, so a rerun over the same
// directory recomputes only the indices a killed run never delivered,
// and a rerun after a completed run is answered whole from the spill.
// The same LocalWorkers helper spawns `sramlp_dist serve`'s local
// workers.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "dist/job.h"
#include "dist/service.h"

namespace sramlp::dist {

/// Worker subprocesses: one fork/exec per command, each with
/// `--connect ADDRESS` appended (the `sramlp_dist work` contract).
class LocalWorkers {
 public:
  LocalWorkers(const std::vector<std::vector<std::string>>& commands,
               const std::string& address);
  /// Kills and reaps whatever still runs; wait() is the clean exit.
  ~LocalWorkers();

  LocalWorkers(const LocalWorkers&) = delete;
  LocalWorkers& operator=(const LocalWorkers&) = delete;

  /// Reap the workers that have exited, without blocking; returns how
  /// many still run.
  std::size_t poll();

  /// Block until every worker has exited.
  void wait();

 private:
  void kill_all();

  std::vector<pid_t> running_;
};

/// Run @p job once: start a Service on a loopback port with its spill
/// file in @p dir, spawn @p worker_commands against it, submit, and stop
/// everything once the merged document is back.  Points an earlier run
/// over @p dir delivered come from the spill instead of a worker.  Throws
/// sramlp::Error naming the cause when every worker exits before the job
/// completes.
SubmitResult run_job(const JobSpec& job, const std::string& dir,
                     const std::vector<std::vector<std::string>>&
                         worker_commands);

}  // namespace sramlp::dist
