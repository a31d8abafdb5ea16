// Pipe-lifecycle regression for the CLI's NDJSON writers: `mempart batch`
// and `mempart serve` streaming to a downstream that closes early (the
// `mempart batch | head` shape) must exit with the dedicated broken-pipe
// code 3 — not crash on SIGPIPE, not report success — and still flush
// their telemetry snapshot on the way out.
//
// The real binary is spawned through /bin/sh; its path arrives as the
// MEMPART_CLI_BIN compile definition (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/snapshot.h"

namespace mempart {
namespace {

std::string shell(const std::string& cmd) {
  std::string output;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) !=
         nullptr) {
    output += buffer.data();
  }
  (void)pclose(pipe);
  return output;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Writes `lines` requests. The count must be large enough that the
/// response stream overflows the kernel pipe buffer (64 KiB on Linux):
/// only then is the writer guaranteed to block until the reader exits and
/// hit EPIPE — a smaller run can fit entirely in the buffer and finish
/// cleanly without the reader consuming a byte.
void write_requests(const std::string& path, int lines) {
  std::ofstream out(path);
  for (int i = 0; i < lines; ++i) {
    out << "{\"offsets\": [[0, 0], [0, " << (i % 40 + 1) << "], ["
        << (i % 7 + 1) << ", 0]]}\n";
  }
}

/// Runs `BIN <subcommand> < requests | head -n 2`, capturing the CLI's own
/// exit code (the pipeline's status would be head's) and stderr.
struct EarlyCloseResult {
  int exit_code = -1;
  std::string stderr_text;
};

EarlyCloseResult run_with_early_closing_reader(const std::string& subcommand,
                                               const std::string& extra_flags,
                                               const std::string& tag) {
  const std::string requests = temp_path("pipe_" + tag + ".ndjsonl");
  const std::string code_file = temp_path("pipe_" + tag + ".code");
  const std::string err_file = temp_path("pipe_" + tag + ".stderr");
  write_requests(requests, 3000);
  std::remove(code_file.c_str());
  const std::string cmd = "{ " MEMPART_CLI_BIN " " + subcommand + " " +
                          extra_flags + " < " + requests + " 2> " + err_file +
                          "; echo $? > " + code_file +
                          "; } | head -n 2 > /dev/null";
  (void)shell(cmd);
  EarlyCloseResult result;
  const std::string code = read_file(code_file);
  if (!code.empty()) result.exit_code = std::stoi(code);
  result.stderr_text = read_file(err_file);
  std::remove(requests.c_str());
  std::remove(code_file.c_str());
  std::remove(err_file.c_str());
  return result;
}

TEST(CliPipeLifecycle, BatchExitsThreeWhenTheReaderClosesEarly) {
  const std::string om_path = temp_path("pipe_batch.om");
  std::remove(om_path.c_str());
  const EarlyCloseResult r = run_with_early_closing_reader(
      "batch", "--openmetrics " + om_path, "batch");
  EXPECT_EQ(r.exit_code, 3) << r.stderr_text;
  EXPECT_NE(r.stderr_text.find("pipe closed early"), std::string::npos)
      << r.stderr_text;
  // The telemetry snapshot was still flushed — and is well-formed.
  const std::string om = read_file(om_path);
  ASSERT_FALSE(om.empty());
  EXPECT_NO_THROW((void)obs::parse_openmetrics(om));
  std::remove(om_path.c_str());
}

TEST(CliPipeLifecycle, ServePipeModeExitsThreeWhenTheReaderClosesEarly) {
  const std::string om_path = temp_path("pipe_serve.om");
  std::remove(om_path.c_str());
  const EarlyCloseResult r = run_with_early_closing_reader(
      "serve", "--threads 1 --openmetrics " + om_path, "serve");
  EXPECT_EQ(r.exit_code, 3) << r.stderr_text;
  const std::string om = read_file(om_path);
  ASSERT_FALSE(om.empty());
  EXPECT_NO_THROW((void)obs::parse_openmetrics(om));
  // The final snapshot carries the serve.* accounting gauges.
  EXPECT_NE(om.find("mempart_serve_admitted"), std::string::npos);
  std::remove(om_path.c_str());
}

TEST(CliPipeLifecycle, BatchExitsZeroWhenTheReaderStays) {
  const std::string requests = temp_path("pipe_ok.ndjsonl");
  write_requests(requests, 5);
  const std::string out =
      shell(std::string(MEMPART_CLI_BIN) + " batch < " + requests +
            " 2> /dev/null; echo \"CODE=$?\"");
  EXPECT_NE(out.find("CODE=0"), std::string::npos) << out;
  std::remove(requests.c_str());
}

// A serve that fails after its telemetry session started (here: a socket
// path that cannot be bound) unwinds through the session's final snapshot,
// which reads the daemon's own cache and its server, so both must still be
// alive then. A snapshot of the freed cache can block on a dead shard
// mutex (seen under ASan), hence the timeout.
TEST(CliPipeLifecycle, ServeFailingToBindStillWritesItsFinalSnapshot) {
  const std::string om_path = temp_path("serve_bind_error.om");
  std::remove(om_path.c_str());
  const std::string out =
      shell(std::string("timeout 60 " MEMPART_CLI_BIN) +
            " serve --cache-capacity 8 --socket " +
            temp_path("no_such_dir/serve.sock") + " --openmetrics " +
            om_path + " < /dev/null 2>&1; echo \"CODE=$?\"");
  EXPECT_NE(out.find("error: serve: bind"), std::string::npos) << out;
  EXPECT_NE(out.find("CODE=1"), std::string::npos) << out;
  const std::string om = read_file(om_path);
  EXPECT_NO_THROW((void)obs::parse_openmetrics(om));
  EXPECT_NE(om.find("mempart_cache_capacity 8"), std::string::npos) << om;
  EXPECT_NE(om.find("mempart_serve_admitted"), std::string::npos) << om;
  std::remove(om_path.c_str());
}

TEST(CliPipeLifecycle, ServeRejectsAZeroMaxBatch) {
  const std::string om_path = temp_path("serve_max_batch.om");
  const std::string out = shell(
      std::string("timeout 60 " MEMPART_CLI_BIN) +
      " serve --cache-capacity 8 --max-batch 0 --openmetrics " + om_path +
      " < /dev/null 2>&1; echo \"CODE=$?\"");
  EXPECT_NE(out.find("max_batch must be >= 1"), std::string::npos) << out;
  EXPECT_NE(out.find("CODE=1"), std::string::npos) << out;
  std::remove(om_path.c_str());
}

TEST(CliPipeLifecycle, RejectsABadEnvironmentAtStartup) {
  const std::string out =
      shell(std::string("MEMPART_THREADS=garbage " MEMPART_CLI_BIN
                        " solve 2>&1; echo \"CODE=$?\""));
  EXPECT_NE(out.find("CODE=1"), std::string::npos) << out;
  EXPECT_NE(out.find("MEMPART_THREADS"), std::string::npos) << out;
}

}  // namespace
}  // namespace mempart
