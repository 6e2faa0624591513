// tools/sramlp_dist driven through the real binary: `run` byte-identical
// to `single` for every demo job kind and resuming from its work
// directory, and the error paths — every operator mistake must exit with
// a clear one-line diagnostic (exit code 1), never a crash, a stack trace
// or a silent success.  The binary path arrives from CMake as
// SRAMLP_DIST_BIN; when the tools are not built the suite skips.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

#ifndef SRAMLP_DIST_BIN
#define SRAMLP_DIST_BIN ""
#endif

/// Fresh per-fixture scratch directory under the system temp dir.
class DistCli : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(SRAMLP_DIST_BIN).empty())
      GTEST_SKIP() << "sramlp_dist binary not built";
    dir_ = fs::temp_directory_path() /
           ("sramlp_dist_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  struct CliResult {
    int exit_code = -1;      ///< -1 when the process did not exit normally
    std::string output;      ///< stdout + stderr
  };

  /// Run `sramlp_dist <args>`, capturing combined output.
  CliResult run_cli(const std::string& args) const {
    const fs::path capture = dir_ / "cli_capture.txt";
    const std::string command = std::string(SRAMLP_DIST_BIN) + " " + args +
                                " >" + capture.string() + " 2>&1";
    const int status = std::system(command.c_str());
    CliResult result;
    if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
    std::ifstream in(capture);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    result.output = buffer.str();
    return result;
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string read_file(const std::string& name) const {
    std::ifstream in(dir_ / name);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  void write_file(const std::string& name, const std::string& content) const {
    std::ofstream out(dir_ / name);
    out << content;
  }

  /// Emit the demo sweep job spec to @p name inside the scratch dir.
  void emit_example_job(const std::string& name,
                        const std::string& flags = "") const {
    const CliResult job = run_cli("example-job " + flags);
    ASSERT_EQ(job.exit_code, 0) << job.output;
    write_file(name, job.output);
  }

  fs::path dir_;
};

TEST_F(DistCli, MalformedJobJsonFailsWithParseDiagnostic) {
  write_file("bad.json", "{ \"kind\": \"sweep\", ");
  const CliResult r =
      run_cli("run --job " + path("bad.json") + " --workers 2 --dir " +
              path("work") + " --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("sramlp_dist run failed"), std::string::npos)
      << r.output;
  // The diagnostic names the JSON problem, not just "failed".
  EXPECT_NE(r.output.find("JSON"), std::string::npos) << r.output;
}

TEST_F(DistCli, UnreadableJobFileFailsCleanly) {
  const CliResult r = run_cli("single --job " + path("nonexistent.json") +
                              " --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

// `run` against `single`, byte for byte, for every demo job kind; then a
// rerun over the same work directory must answer every point from the
// spill file it left behind, byte-identical again.
TEST_F(DistCli, RunMatchesSingleAndResumesWholeFromItsDir) {
  for (const std::string flags : {"", "--campaign", "--search", "--trace"}) {
    const std::string tag = flags.empty() ? "sweep" : flags.substr(2);
    emit_example_job(tag + ".json", flags);
    const std::string job = path(tag + ".json");
    const std::string work = path(tag + "_work");
    const CliResult single =
        run_cli("single --job " + job + " --out " + path(tag + "_single.json"));
    ASSERT_EQ(single.exit_code, 0) << single.output;
    const std::string reference = read_file(tag + "_single.json");

    const CliResult cold = run_cli("run --job " + job + " --workers 3 --dir " +
                                   work + " --out " + path(tag + "_run.json") +
                                   " --log-level warn");
    ASSERT_EQ(cold.exit_code, 0) << tag << ": " << cold.output;
    EXPECT_EQ(read_file(tag + "_run.json"), reference) << tag;
    EXPECT_NE(cold.output.find(" 0 from cache"), std::string::npos)
        << tag << ": " << cold.output;

    const CliResult warm =
        run_cli("run --job " + job + " --workers 2 --dir " + work +
                " --out " + path(tag + "_rerun.json") + " --log-level warn");
    ASSERT_EQ(warm.exit_code, 0) << tag << ": " << warm.output;
    EXPECT_EQ(read_file(tag + "_rerun.json"), reference) << tag;
    EXPECT_NE(warm.output.find(": 0 computed"), std::string::npos)
        << tag << ": " << warm.output;
    EXPECT_NE(warm.output.find("whole-job HIT"), std::string::npos)
        << tag << ": " << warm.output;
  }
}

// A work directory holding another job's results never leaks them into
// this job's document: cache keys are fingerprints of what was computed.
TEST_F(DistCli, RunOverAnotherJobsDirStillMatchesSingle) {
  emit_example_job("sweep.json");
  const CliResult sweep =
      run_cli("run --job " + path("sweep.json") + " --workers 2 --dir " +
              path("work") + " --out " + path("sweep_run.json"));
  ASSERT_EQ(sweep.exit_code, 0) << sweep.output;
  emit_example_job("campaign.json", "--campaign");
  const CliResult campaign =
      run_cli("run --job " + path("campaign.json") + " --workers 2 --dir " +
              path("work") + " --out " + path("campaign_run.json"));
  ASSERT_EQ(campaign.exit_code, 0) << campaign.output;
  const CliResult single = run_cli("single --job " + path("campaign.json") +
                                   " --out " + path("campaign_single.json"));
  ASSERT_EQ(single.exit_code, 0) << single.output;
  EXPECT_EQ(read_file("campaign_run.json"), read_file("campaign_single.json"));
}

TEST_F(DistCli, MissingRequiredOptionIsNamed) {
  const CliResult r = run_cli("run --workers 2 --dir " + path("work") +
                              " --out " + path("out.json"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("missing required option --job"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, RunRejectsZeroWorkersAndRetiredShardOptions) {
  emit_example_job("job.json");
  const std::string base = "run --job " + path("job.json") + " --dir " +
                           path("work") + " --out " + path("out.json");
  const CliResult zero = run_cli(base + " --workers 0");
  EXPECT_EQ(zero.exit_code, 1) << zero.output;
  EXPECT_NE(zero.output.find("run needs at least one worker"),
            std::string::npos)
      << zero.output;
  const CliResult shards = run_cli(base + " --workers 2 --shards 4");
  EXPECT_EQ(shards.exit_code, 1) << shards.output;
  EXPECT_NE(shards.output.find("unrecognized argument '--shards'"),
            std::string::npos)
      << shards.output;
  EXPECT_FALSE(fs::exists(dir_ / "out.json"));
}

TEST_F(DistCli, RetiredShardFileSubcommandsAreUnknown) {
  for (const char* subcommand : {"plan", "worker", "merge"}) {
    const CliResult r = run_cli(subcommand);
    EXPECT_EQ(r.exit_code, 2) << subcommand << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
}

// Count flags: a value past 64 bits is named (not a bare "stoull"), and
// a thread count past 32 bits is refused instead of wrapping to 1.
TEST_F(DistCli, OversizedCountFlagsAreNamedErrors) {
  const CliResult workers =
      run_cli("serve --listen tcp:0 --workers 99999999999999999999999");
  EXPECT_EQ(workers.exit_code, 1) << workers.output;
  EXPECT_NE(workers.output.find("option --workers needs a non-negative "
                                "integer"),
            std::string::npos)
      << workers.output;
  EXPECT_EQ(workers.output.find("error=stoull"), std::string::npos)
      << workers.output;

  emit_example_job("job.json");
  const CliResult threads =
      run_cli("run --job " + path("job.json") + " --workers 1 --dir " +
              path("work") + " --out " + path("out.json") +
              " --threads 4294967297");
  EXPECT_EQ(threads.exit_code, 1) << threads.output;
  EXPECT_NE(threads.output.find("option --threads needs a non-negative "
                                "integer"),
            std::string::npos)
      << threads.output;
  EXPECT_FALSE(fs::exists(dir_ / "out.json"));
}

TEST_F(DistCli, UnknownArgumentIsRejected) {
  emit_example_job("job.json");
  const CliResult r = run_cli("single --job " + path("job.json") + " --out " +
                              path("out.json") + " --frobnicate");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unrecognized argument '--frobnicate'"),
            std::string::npos)
      << r.output;
}

TEST_F(DistCli, ExampleJobTraceFlagEmitsTraceConfig) {
  const CliResult r = run_cli("example-job --trace");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"trace\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"window_cycles\""), std::string::npos)
      << r.output;
}

TEST_F(DistCli, ExampleJobRejectsCampaignTraceCombination) {
  // Campaign entries carry no trace: silently paying the traced-run cost
  // would be a trap, so the flag combination is an explicit error.
  const CliResult r = run_cli("example-job --campaign --trace");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("--trace applies to sweep jobs only"),
            std::string::npos)
      << r.output;
}

}  // namespace
