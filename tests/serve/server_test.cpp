#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_cache.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "pattern/pattern_library.h"
#include "serve/request.h"

namespace mempart::serve {
namespace {

int count_lines(const std::string& text) {
  int lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Pipe mode
// ---------------------------------------------------------------------------

TEST(ServeServer, PipeModeAnswersEveryLineAndEchoesTags) {
  std::istringstream in(
      "{\"id\": \"a\", \"tenant\": \"t1\", \"offsets\": [[0, 0], [0, 1]]}\n"
      "{\"id\": \"b\", \"offsets\": [[0, 0], [1, 0], [1, 1]]}\n"
      "this is not json\n"
      "{\"id\": \"c\", \"offsets\": [[0], [0]]}\n");  // duplicate offset
  std::ostringstream out;
  ServeOptions options;
  options.threads = 2;
  SolveCache cache(64);
  options.cache = &cache;
  Server server(options);
  const ServeSummary summary = server.run_pipe(in, out);

  const std::string responses = out.str();
  EXPECT_EQ(count_lines(responses), 4);  // one response per input line
  EXPECT_NE(responses.find("\"id\": \"a\""), std::string::npos);
  EXPECT_NE(responses.find("\"tenant\": \"t1\""), std::string::npos);
  EXPECT_NE(responses.find("\"id\": \"b\""), std::string::npos);
  EXPECT_NE(responses.find("\"id\": \"c\""), std::string::npos);
  EXPECT_EQ(summary.admitted, 2);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.failed, 2);  // parse error + duplicate-offset reject
  EXPECT_EQ(summary.shed, 0);
  EXPECT_FALSE(summary.downstream_closed);
  EXPECT_FALSE(summary.drained);  // EOF end, not a shutdown drain
}

TEST(ServeServer, PipeModeSharesTheCacheAcrossRequests) {
  // 20 canonically equal requests: one miss, the rest hits.
  std::string input;
  for (int i = 0; i < 20; ++i) {
    input += "{\"id\": \"r" + std::to_string(i) +
             "\", \"offsets\": [[0, 0], [0, 1], [1, 0]]}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.threads = 2;
  SolveCache cache(64);
  options.cache = &cache;
  Server server(options);
  const ServeSummary summary = server.run_pipe(in, out);
  EXPECT_EQ(summary.solved, 20);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  // Batching may dedup some lookups entirely; what matters is that at
  // most one real solve happened.
  EXPECT_LE(stats.misses, 1);
}

TEST(ServeServer, PipeModeShedsWhenTheQueueIsSaturated) {
  // One worker, depth-1 queue, single-item batches: flooding 200 requests
  // through a stringstream must shed most of them, and every input line
  // still gets exactly one response.
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "{\"id\": \"f" + std::to_string(i) +
             "\", \"offsets\": [[0, 0], [0, " + std::to_string(i % 7 + 1) +
             "]]}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.threads = 1;
  options.queue_depth = 1;
  options.max_batch = 1;
  SolveCache cache(64);
  options.cache = &cache;
  Server server(options);
  const ServeSummary summary = server.run_pipe(in, out);
  EXPECT_EQ(count_lines(out.str()), 200);
  EXPECT_EQ(summary.admitted + summary.shed, 200);
  EXPECT_GT(summary.shed, 0);
  EXPECT_EQ(summary.solved, summary.admitted);
  EXPECT_NE(out.str().find("\"shed\": true"), std::string::npos);
}

// OpenMetrics allows one # TYPE line per family. The server's own atomics
// publish serve.{shed,connections,write_failures} as gauges, so nothing may
// also count those names as counters. A pipe-mode server whose output
// stream is already bad fails its first response write deterministically.
TEST(ServeServer, PublishedFamiliesHaveOneTypeEach) {
  obs::set_metrics_enabled(true);
  obs::Registry::instance().clear();
  std::istringstream in("this is not json\n");
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  ServeOptions options;
  options.threads = 1;
  SolveCache cache(16);
  options.cache = &cache;
  Server server(options);
  const ServeSummary summary = server.run_pipe(in, out);
  EXPECT_EQ(summary.write_failures, 1);
  EXPECT_TRUE(summary.downstream_closed);
  server.publish_stats();
  const std::string text = obs::openmetrics_text();
  std::map<std::string, int> type_lines;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++type_lines[line.substr(7, line.find(' ', 7) - 7)];
  }
  for (const auto& [family, n] : type_lines) {
    EXPECT_EQ(n, 1) << family << " has " << n << " # TYPE lines";
  }
  EXPECT_EQ(type_lines.count("mempart_serve_write_failures"), 1u);
  EXPECT_EQ(type_lines.count("mempart_serve_shed"), 1u);
  EXPECT_NO_THROW((void)obs::parse_openmetrics(text));
  obs::Registry::instance().clear();
  obs::set_metrics_enabled(false);
}

// ---------------------------------------------------------------------------
// Socket mode + graceful drain
// ---------------------------------------------------------------------------

class SocketClient {
 public:
  explicit SocketClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~SocketClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// Reads until `n` newline-terminated lines arrived (or EOF).
  std::vector<std::string> read_lines(int n) {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (static_cast<int>(lines.size()) < n) {
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<size_t>(got));
      size_t start = 0;
      for (size_t pos = buffer.find('\n', start); pos != std::string::npos;
           pos = buffer.find('\n', start)) {
        lines.push_back(buffer.substr(start, pos - start));
        start = pos + 1;
      }
      buffer.erase(0, start);
    }
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string test_socket_path(const char* tag) {
  return ::testing::TempDir() + "serve_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

void wait_for_socket(const std::string& path) {
  while (::access(path.c_str(), F_OK) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeServer, SocketModeServesConnectionsIndependently) {
  const std::string path = test_socket_path("basic");
  ServeOptions options;
  options.socket_path = path;
  options.threads = 2;
  SolveCache cache(64);
  options.cache = &cache;
  Server server(options);
  std::thread server_thread([&server] { (void)server.run_socket(); });
  wait_for_socket(path);
  {
    SocketClient a(path);
    SocketClient b(path);
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(b.connected());
    a.send_line(R"({"id": "a1", "offsets": [[0, 0], [0, 1]]})");
    b.send_line(R"({"id": "b1", "offsets": [[0, 0], [1, 0]]})");
    const std::vector<std::string> from_a = a.read_lines(1);
    const std::vector<std::string> from_b = b.read_lines(1);
    // Each connection sees its own responses only.
    ASSERT_EQ(from_a.size(), 1u);
    ASSERT_EQ(from_b.size(), 1u);
    EXPECT_NE(from_a[0].find("\"id\": \"a1\""), std::string::npos);
    EXPECT_NE(from_b[0].find("\"id\": \"b1\""), std::string::npos);
  }
  server.request_shutdown();
  server_thread.join();
  const ServeSummary summary = server.summary();
  EXPECT_TRUE(summary.drained);
  EXPECT_EQ(summary.connections, 2);
  EXPECT_EQ(summary.solved, 2);
}

// The socket path appears only once the server listens, so a client that
// connects the moment the path exists is never refused. A path that bind()
// created before listen() refuses only inside a window of microseconds,
// hence the many rounds and the wait that spins without sleeping (with the
// bind-then-listen order, about half of all runs of this test fail).
TEST(ServeServer, SocketPathAppearsOnlyOnceListening) {
  const std::string path = test_socket_path("ready");
  SolveCache cache(16);
  for (int round = 0; round < 1000; ++round) {
    ServeOptions options;
    options.socket_path = path;
    options.threads = 1;
    options.cache = &cache;
    Server server(options);
    std::thread server_thread([&server] { (void)server.run_socket(); });
    while (::access(path.c_str(), F_OK) != 0) {
    }
    const bool connected = SocketClient(path).connected();
    server.request_shutdown();
    server_thread.join();
    ASSERT_TRUE(connected) << "connect refused in round " << round;
  }
}

/// A numeric field of /proc/self/status ("VmSize:" in kB, "Threads:"),
/// -1 if absent.
long proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stol(line.substr(field.size()));
    }
  }
  return -1;
}

// A daemon serving many short connections one at a time must not keep a
// reader thread's stack per closed connection: the accept loop joins the
// readers whose connection has closed, so their stacks are reused.
TEST(ServeServer, SocketModeReapsReadersOfClosedConnections) {
#if defined(__GLIBC__)
  // Each glibc malloc arena reserves 64 MB of address space, and readers
  // that overlap on a loaded machine make new ones (up to eight per core):
  // growth that is no leak but shows in VmSize. With one arena, thread
  // stacks are the only large VmSize term left to measure. (A sanitizer's
  // allocator replaces glibc's arenas and ignores the call.)
  (void)mallopt(M_ARENA_MAX, 1);
#endif
  const std::string path = test_socket_path("reap");
  ServeOptions options;
  options.socket_path = path;
  options.threads = 1;
  SolveCache cache(16);
  options.cache = &cache;
  Server server(options);
  std::thread server_thread([&server] { (void)server.run_socket(); });
  wait_for_socket(path);
  const auto one_request = [&path](int seq) {
    SocketClient client(path);
    ASSERT_TRUE(client.connected());
    client.send_line(R"({"id": "r)" + std::to_string(seq) +
                     R"(", "offsets": [[0, 0], [0, 1], [1, 0]]})");
    ASSERT_EQ(client.read_lines(1).size(), 1u);
  };
  constexpr int kWarmup = 8;
  constexpr int kConnections = 300;
  for (int seq = 0; seq < kWarmup; ++seq) one_request(seq);
  const long threads_before = proc_status("Threads:");
  const long before_kb = proc_status("VmSize:");
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(before_kb, 0);
  for (int seq = 0; seq < kConnections; ++seq) one_request(seq);
  // The accept loop joins only readers that have already exited, and the
  // readers of the last connections may not have run yet. Wait (bounded)
  // until they have all exited, then open one more connection so the
  // accept loop joins them before VmSize is sampled.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (proc_status("Threads:") > threads_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  one_request(kConnections);
  const long grown_kb = proc_status("VmSize:") - before_kb;
  server.request_shutdown();
  server_thread.join();
  EXPECT_EQ(server.summary().connections, kWarmup + kConnections + 1);
  // An unjoined exited reader keeps its whole stack (8 MB by default)
  // mapped; allow an eighth of that per connection.
  EXPECT_LT(grown_kb, kConnections * 1024L)
      << "VmSize grew " << grown_kb << " kB over " << kConnections
      << " connections";
}

/// One request line: four in five are translations of the LoG stencil (one
/// cache class), every fifth a distinct pattern that misses the cache.
std::string saturation_line(const std::string& id, int seq) {
  std::vector<NdIndex> offsets;
  if (seq % 5 == 4) {
    offsets = {{0, 0}, {0, 1}, {1, 0}, {1, 1},
               {3 + seq % 61, 3 + (seq * 7) % 53}};
  } else {
    offsets = patterns::log5x5().offsets();
    for (NdIndex& offset : offsets) {
      for (Coord& c : offset) c += seq % 4;
    }
  }
  std::string line = "{\"id\": \"" + id + "\", \"offsets\": [";
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    line += (i == 0 ? "[" : ", [") + std::to_string(offsets[i][0]) + ", " +
            std::to_string(offsets[i][1]) + "]";
  }
  return line + "], \"shape\": [128, 128]}";
}

/// The id of request `seq` on connection `connection`.
std::string flood_id(int connection, int seq) {
  std::string id = "c";
  id += std::to_string(connection);
  id += '-';
  id += std::to_string(seq);
  return id;
}

/// The id a response line carries, or "" when it has none.
std::string response_id(const std::string& line) {
  const std::string key = "\"id\": \"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

// Several connections flood a one-worker server whose queue holds one job:
// admission control must shed some requests, and every request — admitted
// or shed — still gets exactly one response carrying its id.
TEST(ServeServer, SocketModeShedsUnderSaturationAndAnswersEveryRequest) {
  constexpr int kConnections = 4;
  constexpr int kPerConnection = 100;
  const std::string path = test_socket_path("flood");
  ServeOptions options;
  options.socket_path = path;
  options.threads = 1;
  options.queue_depth = 1;
  options.max_batch = 1;
  SolveCache cache(64);
  options.cache = &cache;
  Server server(options);
  std::thread server_thread([&server] { (void)server.run_socket(); });
  wait_for_socket(path);

  std::vector<std::vector<std::string>> responses(kConnections);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&path, &responses, c] {
      SocketClient client(path);
      ASSERT_TRUE(client.connected());
      for (int seq = 0; seq < kPerConnection; ++seq) {
        client.send_line(saturation_line(flood_id(c, seq), seq));
      }
      responses[static_cast<std::size_t>(c)] =
          client.read_lines(kPerConnection);
    });
  }
  for (std::thread& client : clients) client.join();
  server.request_shutdown();
  server_thread.join();

  std::int64_t shed_lines = 0;
  for (int c = 0; c < kConnections; ++c) {
    const std::vector<std::string>& lines =
        responses[static_cast<std::size_t>(c)];
    EXPECT_EQ(static_cast<int>(lines.size()), kPerConnection);
    std::multiset<std::string> ids;
    for (const std::string& line : lines) {
      ids.insert(response_id(line));
      if (line.find("\"shed\": true") != std::string::npos) ++shed_lines;
    }
    for (int seq = 0; seq < kPerConnection; ++seq) {
      EXPECT_EQ(ids.count(flood_id(c, seq)), 1u)
          << "connection " << c << " request " << seq;
    }
  }
  const ServeSummary summary = server.summary();
  EXPECT_EQ(summary.admitted + summary.shed, kConnections * kPerConnection);
  EXPECT_GT(summary.shed, 0);
  EXPECT_EQ(summary.shed, shed_lines);
  EXPECT_EQ(summary.solved, summary.admitted);
  EXPECT_EQ(summary.failed, 0);
}

// The drain contract the CLI's SIGTERM handler relies on (the handler just
// calls request_shutdown()): every admitted request is answered before
// run_socket returns, connection readers unblock without EOF from the
// client, and nothing is dropped without a response.
TEST(ServeServer, ShutdownDrainsAdmittedRequestsAndAnswersAll) {
  const std::string path = test_socket_path("drain");
  ServeOptions options;
  options.socket_path = path;
  options.threads = 1;
  SolveCache cache(256);
  options.cache = &cache;
  Server server(options);
  std::thread server_thread([&server] { (void)server.run_socket(); });
  wait_for_socket(path);

  SocketClient client(path);
  ASSERT_TRUE(client.connected());
  constexpr int kInFlight = 50;
  for (int i = 0; i < kInFlight; ++i) {
    client.send_line("{\"id\": \"d" + std::to_string(i) +
                     "\", \"offsets\": [[0, 0], [0, " +
                     std::to_string(i % 9 + 1) + "], [1, 0]]}");
  }
  // Shut down while requests are still queued/solving. The client never
  // closes its end first — the drain must unblock the reader itself.
  server.request_shutdown();
  const std::vector<std::string> responses = client.read_lines(kInFlight);
  server_thread.join();

  const ServeSummary summary = server.summary();
  EXPECT_TRUE(summary.drained);
  // The drain contract: every ADMITTED request was solved and answered —
  // none dropped. (Lines still sitting unread in the socket buffer when the
  // drain unblocked the reader were never admitted; that's the admission
  // boundary, not a drop.)
  EXPECT_EQ(summary.solved, summary.admitted);
  EXPECT_EQ(summary.failed, 0);  // all 50 requests were valid
  EXPECT_EQ(summary.write_failures, 0);  // the client never went away
  // The client saw exactly one response per handled line: an answer for
  // every admitted request plus a shed line for any request that raced the
  // queue close.
  EXPECT_EQ(static_cast<std::int64_t>(responses.size()),
            summary.solved + summary.shed);
  EXPECT_LE(static_cast<std::int64_t>(responses.size()), kInFlight);
}

TEST(ServeServer, ShutdownBeforeAnyTrafficDrainsCleanly) {
  const std::string path = test_socket_path("idle");
  ServeOptions options;
  options.socket_path = path;
  options.threads = 1;
  SolveCache cache(16);
  options.cache = &cache;
  Server server(options);
  std::thread server_thread([&server] { (void)server.run_socket(); });
  wait_for_socket(path);
  server.request_shutdown();
  server.request_shutdown();  // idempotent
  server_thread.join();
  EXPECT_TRUE(server.summary().drained);
  EXPECT_EQ(server.summary().admitted, 0);
  // The socket file is gone after a clean drain.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeServer, ValidatesItsOptions) {
  ServeOptions bad;
  bad.max_batch = 0;
  EXPECT_ANY_THROW(Server server(bad));
  ServeOptions negative;
  negative.threads = -1;
  EXPECT_ANY_THROW(Server server2(negative));
}

}  // namespace
}  // namespace mempart::serve
