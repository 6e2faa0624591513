// The sweep service: a coordinator daemon with dynamic shard stealing and
// a fingerprint-keyed result cache — the one distributed execution path.
// A long-running `sramlp_dist serve` keeps answering jobs; a one-shot
// `sramlp_dist run` is the same service, ephemeral, with its spill file
// in a work directory (dist/coordinator.h).  The ROADMAP's
// millions-of-users shape, where analytic points cost ~0.2 ms and the
// dominant costs are process spawn, shard imbalance and recomputing grid
// points already solved, rests on three moves:
//
//   * keep-alive socket protocol — jobs arrive as JSON over a Unix/TCP
//     socket (io::LineChannel frames the existing exact wire format) and
//     the result stream goes back to the submitter LIVE, line by line,
//     as workers finish points;
//   * dynamic shard stealing — each job is chopped into many small
//     StealQueue shards that idle workers pull, so a deliberately slow
//     worker just steals fewer shards (see tests/test_service_soak.cpp).
//     A worker that dies mid-shard has its leases requeued; partially
//     streamed points are idempotent because results are deterministic
//     and carry their flat indices;
//   * result cache — completed jobs are cached as their exact merged
//     document bytes keyed by JobSpec::fingerprint() (memory LRU +
//     on-disk JSONL spill, ResultCache), so a resubmitted job is a
//     lookup, not a run, and byte-identical to the fresh run.  Individual
//     grid points / campaign entries / search restarts are cached under
//     their own canonical fingerprints as soon as they are delivered, so
//     a NEW job overlapping an old one — or a rerun of a job whose daemon
//     was killed — only computes the indices never seen before.
//
// Topology: one Service process; any number of ServiceWorker processes or
// threads connect and steal (the `sramlp_dist serve` CLI spawns N worker
// subprocesses of its own binary; extra workers on other hosts can
// `sramlp_dist work --connect tcp:host:port` to join).  Submitters
// connect, send one job, and read the stream.  Identical jobs submitted
// while one is in flight attach to it (deduplicated, replayed from the
// start) rather than recomputing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/job.h"
#include "dist/result_cache.h"
#include "dist/steal_queue.h"
#include "io/framing.h"

namespace sramlp::dist {

struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_deduplicated = 0;  ///< attached to an in-flight twin
  std::uint64_t job_cache_hits = 0;     ///< whole job answered from cache
  std::uint64_t point_cache_hits = 0;   ///< individual points answered
  std::uint64_t points_executed = 0;    ///< results received from workers
  std::uint64_t shards_executed = 0;
  std::uint64_t shard_requeues = 0;     ///< abandoned/failed shards requeued
  std::uint64_t workers_connected = 0;
  std::uint64_t workers_lost = 0;       ///< connections dropped with leases
  ResultCache::Stats cache;
};

class Service {
 public:
  struct Options {
    /// Listen address: "unix:/path" or "tcp:port" / "tcp:host:port"
    /// ("tcp:0" picks an ephemeral port — read it back from address()).
    std::string listen = "tcp:0";
    /// Steal-queue granularity: flat indices per shard.  Small shards are
    /// the point — they are what lets idle workers steal around a slow
    /// one.
    std::size_t points_per_shard = 4;
    /// Cap on shards per job (shard size grows instead).  0 = uncapped.
    std::size_t max_shards_per_job = 512;
    /// Re-runs granted to a failed shard before the job is failed.
    unsigned shard_retries = 1;
    /// Result cache tiers (capacity + optional spill file).  The cache
    /// holds whole jobs and, as they are delivered, individual work items,
    /// so new jobs that overlap old ones (and reruns of killed jobs) skip
    /// the overlap.
    ResultCache::Options cache;
  };

  explicit Service(const Options& options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bind, listen and start accepting.  Throws on a bad address.
  void start();

  /// The resolved listen address (ephemeral TCP ports resolved).
  std::string address() const;

  /// Block until the service is asked to stop (shutdown message or
  /// request_stop()), then tear everything down.  Call from the thread
  /// that owns the service (the daemon's main thread).
  void wait();

  /// Ask the service to stop: wakes wait(), unblocks every connection.
  /// Safe from any thread, including connection handlers.
  void request_stop();

  ServiceStats stats() const;

 private:
  struct ActiveJob;
  struct Connection;

  void accept_loop();
  void handle_connection(std::shared_ptr<Connection> conn);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const io::JsonValue& message);
  void handle_worker(const std::shared_ptr<Connection>& conn);
  bool deliver_result(const io::JsonValue& message);
  /// Refresh the pending-shard gauge from the live queues (mutex_ held).
  void update_queue_depth_locked();
  void finalize_job_locked(std::unique_lock<std::mutex>& lock,
                           const std::shared_ptr<ActiveJob>& job);
  void fail_job_locked(const std::shared_ptr<ActiveJob>& job,
                       const std::string& error);

  Options options_;
  ResultCache cache_;

  io::Socket listener_;
  std::string address_;
  std::thread accept_thread_;

  /// Lock order (TSan-verified by tests/test_steal_queue_stress.cpp):
  /// Service::mutex_ may be held while calling into cache_ (ResultCache::
  /// mutex_) or a job's StealQueue (StealQueue::mutex_); neither of those
  /// classes ever calls back into the Service, so the hierarchy is
  /// acyclic — never take mutex_ from code reachable under theirs.
  /// io::LineChannel::send_mutex_ (per-socket write framing) is a leaf
  /// below all three.
  mutable std::mutex mutex_;
  std::condition_variable state_cv_;  ///< work arrived / job done / stopping
  bool started_ = false;
  bool stopping_ = false;
  std::uint64_t next_worker_id_ = 1;
  std::uint64_t next_conn_id_ = 1;  ///< correlation id for log lines
  std::vector<std::shared_ptr<Connection>> connections_;
  std::map<std::uint64_t, std::shared_ptr<ActiveJob>> active_jobs_;
  std::vector<std::uint64_t> job_order_;  ///< submission order (FIFO leases)
  ServiceStats stats_;
};

/// Worker half of the steal protocol: connect, steal shards, compute them
/// through dist::execute_indices (the exact single-process entry points),
/// stream results.  Run it on a thread (tests, benches) or in a process
/// (`sramlp_dist work`).
class ServiceWorker {
 public:
  struct Options {
    /// Threads for one shard's own points; service scale comes from
    /// worker count, so the default is serial.
    unsigned threads = 1;
    bool batched_campaigns = true;
    /// Artificial per-point delay — models a slow host (benches, the
    /// slow-worker soak test).
    std::uint64_t slow_point_us = 0;
    /// Kill switch for the soak and resume tests: after streaming this
    /// many points the worker drops its connection mid-shard (no
    /// shard_done), as if killed.
    std::size_t die_after_points = static_cast<std::size_t>(-1);
  };

  ServiceWorker() = default;
  explicit ServiceWorker(const Options& options) : options_(options) {}

  /// Serve until the service says stop, the connection drops, or the kill
  /// switch fires.  Returns the number of points computed.
  std::size_t run(const std::string& address, int connect_timeout_ms = 5000);

 private:
  Options options_;
};

/// One submitted job's outcome, client side.
struct SubmitResult {
  bool cache_hit = false;        ///< whole job answered from the cache
  std::size_t total_points = 0;
  std::size_t cached_points = 0; ///< answered by the per-point cache
  std::size_t streamed_lines = 0;
  double cache_hit_rate = 0.0;   ///< service-wide, as of this job
  /// The merged document — byte-identical to `sramlp_dist single` on the
  /// same job, whether computed, point-cached or replayed whole.
  std::string document;
};

/// Submit @p job and stream until completion.  @p on_line (optional) sees
/// every live result line.  @p submitter (optional) labels the service's
/// per-submitter fairness counters; empty reads as "anonymous".  Throws
/// sramlp::Error on connection failure or a job_failed reply.
SubmitResult submit_job(
    const std::string& address, const JobSpec& job,
    int connect_timeout_ms = 5000,
    const std::function<void(const io::JsonValue&)>& on_line = {},
    const std::string& submitter = {});

/// Fetch a running service's statistics.
ServiceStats query_stats(const std::string& address,
                         int connect_timeout_ms = 5000);

/// One scrape of a running service's obs::Registry, both renderings.
struct MetricsSnapshot {
  std::string prometheus;  ///< Prometheus text exposition
  io::JsonValue json;      ///< the same content as one JSON document
};

/// Fetch a running service's metrics (the `metrics` protocol request).
MetricsSnapshot query_metrics(const std::string& address,
                              int connect_timeout_ms = 5000);

/// Ask a running service to shut down (waits for the acknowledgement).
void request_shutdown(const std::string& address,
                      int connect_timeout_ms = 5000);

}  // namespace sramlp::dist
