#include "dist/coordinator.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <optional>
#include <thread>

#include "util/error.h"

namespace sramlp::dist {

namespace {

/// How often run_job looks at its workers while it waits on them.
constexpr std::chrono::milliseconds kPollInterval{5};

}  // namespace

LocalWorkers::LocalWorkers(
    const std::vector<std::vector<std::string>>& commands,
    const std::string& address) {
  for (const std::vector<std::string>& command : commands) {
    SRAMLP_REQUIRE(!command.empty(), "empty worker command");
    // The argv is built before fork: the child of a threaded process may
    // only exec.
    std::vector<std::string> args = command;
    args.push_back("--connect");
    args.push_back(address);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all();
      throw Error("fork failed while spawning workers");
    }
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    running_.push_back(pid);
  }
}

LocalWorkers::~LocalWorkers() { kill_all(); }

void LocalWorkers::kill_all() {
  for (const pid_t pid : running_) ::kill(pid, SIGKILL);
  wait();
}

std::size_t LocalWorkers::poll() {
  std::erase_if(running_, [](pid_t pid) {
    int status = 0;
    pid_t reaped = 0;
    do {
      reaped = ::waitpid(pid, &status, WNOHANG);
    } while (reaped < 0 && errno == EINTR);
    return reaped != 0;  // exited, or no longer a child of ours
  });
  return running_.size();
}

void LocalWorkers::wait() {
  for (const pid_t pid : running_) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  running_.clear();
}

SubmitResult run_job(const JobSpec& job, const std::string& dir,
                     const std::vector<std::vector<std::string>>&
                         worker_commands) {
  job.validate();
  SRAMLP_REQUIRE(!worker_commands.empty(), "a run needs at least one worker");
  std::filesystem::create_directories(dir);
  Service::Options options;
  options.cache.spill_path =
      (std::filesystem::path(dir) / "results.jsonl").string();
  Service service(options);
  service.start();
  LocalWorkers workers(worker_commands, service.address());
  const std::string all_exited =
      "every worker exited before the job completed";

  // Submit once each worker has connected or died: stopping the service
  // under a worker still dialling it would leave that worker retrying a
  // dead address.
  for (;;) {
    const std::size_t running = workers.poll();
    if (running == 0) throw Error(all_exited);
    const std::size_t exited = worker_commands.size() - running;
    if (service.stats().workers_connected + exited >= worker_commands.size())
      break;
    std::this_thread::sleep_for(kPollInterval);
  }

  std::optional<SubmitResult> result;
  std::string error;
  std::atomic<bool> answered{false};
  std::thread submitter([&] {
    try {
      result = submit_job(service.address(), job);
    } catch (const std::exception& e) {
      error = e.what();
    }
    answered = true;
  });
  // A job nobody is left to compute would block the submit forever;
  // stopping the service ends it with a lost connection instead.
  bool workers_gone = false;
  while (!answered) {
    if (workers.poll() == 0) {
      workers_gone = true;
      service.request_stop();
      break;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  submitter.join();
  service.request_stop();
  service.wait();
  workers.wait();
  if (result) return std::move(*result);
  throw Error(workers_gone ? all_exited : error);
}

}  // namespace sramlp::dist
