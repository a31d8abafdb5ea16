#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/annotations.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace mempart::serve {
namespace {

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

/// Where a job's response goes. One implementation per transport; both are
/// safe to call from any worker concurrently.
class Server::ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  ResponseSink() = default;
  ResponseSink(const ResponseSink&) = delete;
  ResponseSink& operator=(const ResponseSink&) = delete;

  /// Writes one NDJSON response line. False means the downstream is gone
  /// (broken pipe / dead connection); the response is lost.
  [[nodiscard]] virtual bool write_line(const std::string& line) = 0;
};

/// Pipe mode: all responses interleave onto one ostream, one line per
/// write under the mutex so concurrent workers never shear a line. Each
/// line is flushed immediately — a serve client is latency-bound, not
/// throughput-bound, and buffering responses past a request's completion
/// would just add tail latency.
class Server::StreamSink final : public ResponseSink {
 public:
  StreamSink(Server& server, std::ostream& out)
      : server_(server), out_(out) {}

  bool write_line(const std::string& line) override {
    MutexLock lock(mutex_);
    out_ << line << '\n';
    out_.flush();
    if (out_.good()) return true;
    // badbit after a flush is how an ostream reports EPIPE (the CLI ignores
    // SIGPIPE so the write fails instead of killing the process).
    server_.downstream_closed_.store(true, std::memory_order_release);
    return false;
  }

 private:
  Server& server_;
  Mutex mutex_;
  std::ostream& out_ MEMPART_GUARDED_BY(mutex_);
};

/// One accepted socket connection. The fd is closed when the last holder
/// (reader thread or in-flight job sink) drops its reference, so a
/// connection stays writable exactly as long as it has responses pending.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  Mutex write_mutex;
  /// Set on the first failed send; later responses to this connection are
  /// dropped instead of poking a dead peer.
  bool dead MEMPART_GUARDED_BY(write_mutex) = false;
};

/// Socket mode: responses go back on the requesting connection only.
class Server::SocketSink final : public ResponseSink {
 public:
  explicit SocketSink(std::shared_ptr<Connection> connection)
      : connection_(std::move(connection)) {}

  bool write_line(const std::string& line) override {
    Connection& conn = *connection_;
    MutexLock lock(conn.write_mutex);
    if (conn.dead) return false;
    std::string framed = line;
    framed.push_back('\n');
    const char* data = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
      // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE here, not
      // as a process-wide SIGPIPE.
      const ssize_t n = ::send(conn.fd, data, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        conn.dead = true;
        return false;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  std::shared_ptr<Connection> connection_;
};

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache != nullptr ? options_.cache
                                       : &SolveCache::global()),
      queue_(options_.queue_depth) {
  MEMPART_REQUIRE(options_.threads >= 0, "serve: threads must be >= 0");
  MEMPART_REQUIRE(options_.max_batch >= 1, "serve: max_batch must be >= 1");
  // Self-pipe for request_shutdown(): the only async-signal-safe way to
  // wake a poll() loop. Non-blocking so a flood of signals cannot wedge
  // the handler on a full pipe.
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    wake_fds_[0] = wake_fds_[1] = -1;
  }
}

Server::~Server() {
  for (const int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::request_shutdown() noexcept {
  shutdown_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::start_workers() {
  const Count n =
      options_.threads > 0 ? options_.threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(n));
  for (Count i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::join_workers() {
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Server::send_response(const std::shared_ptr<ResponseSink>& sink,
                           const std::string& line) {
  if (!sink->write_line(line)) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.write_failures");
  }
}

void Server::handle_line(const std::string& line,
                         const std::shared_ptr<ResponseSink>& sink) {
  obs::count("serve.requests");
  Job job;
  job.sink = sink;
  std::string error;
  if (!parse_request(line, job.request, &error)) {
    obs::count("serve.parse_errors");
    failed_.fetch_add(1, std::memory_order_relaxed);
    send_response(sink, error_response(job.request, error));
    return;
  }
  // Keep the tags for the shed response: try_push consumes the job.
  ServeRequest rejected;
  rejected.id = job.request.id;
  rejected.tenant = job.request.tenant;
  job.admitted_at = std::chrono::steady_clock::now();
  if (queue_.try_push(std::move(job))) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.shed");
  const std::string reason =
      queue_.closed()
          ? "server draining; retry against the next instance"
          : "server overloaded: admission queue full (depth " +
                std::to_string(queue_.max_depth()) + "); back off and retry";
  send_response(sink, shed_response(rejected, reason));
}

void Server::worker_loop() {
  // Each worker owns a Partitioner (instances are not thread-safe) but all
  // share cache_, so a pattern solved for one connection is a cache hit for
  // every later request in its equivalence class.
  Partitioner partitioner(cache_);
  BatchOptions batch_options;
  // Workers ARE the parallelism; a nested pool per batch would oversubscribe.
  // A single-thread pool runs solve_many inline on this thread.
  batch_options.threads = 1;
  batch_options.min_grain = 1;
  std::vector<Job> jobs;
  std::vector<PartitionRequest> requests;
  for (;;) {
    jobs.clear();
    std::optional<Job> first = queue_.pop();
    if (!first.has_value()) return;  // closed and fully drained
    jobs.push_back(std::move(*first));
    if (options_.max_batch > 1) {
      queue_.try_pop_many(jobs, options_.max_batch - 1);
    }
    const auto start = std::chrono::steady_clock::now();
    requests.clear();
    for (const Job& job : jobs) {
      obs::record_latency("serve.queue_wait.ns",
                          elapsed_ns(job.admitted_at, start));
      requests.push_back(job.request.request);
    }
    std::vector<BatchResult> results;
    {
      obs::LatencyTimer timer("serve.solve_batch.ns");
      results = partitioner.solve_many_collect(requests, batch_options);
    }
    const auto done = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      const BatchResult& result = results[i];
      if (result.ok()) {
        solved_.fetch_add(1, std::memory_order_relaxed);
        send_response(job.sink, ok_response(job.request, *result.solution));
      } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        send_response(job.sink, error_response(job.request, result.error));
      }
      const std::int64_t request_ns = elapsed_ns(job.admitted_at, done);
      obs::record_latency("serve.request.ns", request_ns);
      // Split by cache outcome: a hit is a rehydration (microseconds), a
      // miss waits on a cold solve, so the combined histogram is bimodal
      // and its percentiles track neither population. The miss series is
      // the one capacity planning cares about.
      obs::record_latency(result.cache_hit ? "serve.request.hit.ns"
                                           : "serve.request.miss.ns",
                          request_ns);
    }
  }
}

ServeSummary Server::run_pipe(std::istream& in, std::ostream& out) {
  start_workers();
  const auto sink = std::make_shared<StreamSink>(*this, out);
  std::string line;
  while (!shutdown_requested() &&
         !downstream_closed_.load(std::memory_order_acquire)) {
    // SIGTERM/SIGINT arrive mid-getline: the CLI installs its handlers
    // without SA_RESTART, so the blocked read fails with EINTR, getline
    // returns false, and the loop falls through to the drain below.
    if (!std::getline(in, line)) break;
    if (blank_line(line)) continue;
    handle_line(line, sink);
  }
  // Drain: no new admissions, every queued job still gets solved and
  // answered before the workers exit.
  queue_.close();
  join_workers();
  if (shutdown_requested()) drained_.store(true, std::memory_order_release);
  out.flush();
  return summary();
}

ServeSummary Server::run_socket() {
  const std::string& path = options_.socket_path;
  MEMPART_REQUIRE(!path.empty(), "serve: run_socket needs a socket path");
  sockaddr_un addr{};
  MEMPART_REQUIRE(path.size() < sizeof(addr.sun_path),
                  "serve: socket path too long for AF_UNIX (max " +
                      std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  MEMPART_REQUIRE(listen_fd >= 0,
                  std::string("serve: socket(): ") + std::strerror(errno));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // a stale socket from a crashed run blocks bind
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw InvalidArgument("serve: bind '" + path +
                          "': " + std::strerror(err));
  }
  if (::listen(listen_fd, 64) != 0) {
    const int err = errno;
    ::close(listen_fd);
    ::unlink(path.c_str());
    throw InvalidArgument("serve: listen '" + path +
                          "': " + std::strerror(err));
  }

  start_workers();
  // One reader thread per connection. Each flags its own exit, and the
  // accept loop joins flagged readers: an exited thread that is never
  // joined keeps its stack mapped, so without the reaping a long-lived
  // daemon would hold one stack per connection it ever accepted.
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Reader> readers;
  // weak_ptrs so a closed connection's fd is released as soon as its reader
  // and last in-flight response drop it, not at server shutdown.
  std::vector<std::weak_ptr<Connection>> live;
  pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
  while (!shutdown_requested()) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    const int rc = ::poll(fds, wake_fds_[0] >= 0 ? 2 : 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal checked by the loop condition
      break;
    }
    if (fds[1].revents != 0 || shutdown_requested()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.connections");
    auto connection = std::make_shared<Connection>(fd);
    std::erase_if(live, [](const std::weak_ptr<Connection>& w) {
      return w.expired();
    });
    live.push_back(connection);
    for (auto it = readers.begin(); it != readers.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    readers.push_back(
        {std::thread([this, connection = std::move(connection), done] {
           serve_connection(connection);
           done->store(true, std::memory_order_release);
         }),
         done});
  }
  ::close(listen_fd);
  ::unlink(path.c_str());

  // Drain: half-close every live connection so its reader sees EOF and
  // stops admitting; the write side stays open until every queued response
  // lands. Then the usual close-and-join empties the queue.
  for (const std::weak_ptr<Connection>& weak : live) {
    if (const std::shared_ptr<Connection> conn = weak.lock()) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  for (Reader& reader : readers) reader.thread.join();
  queue_.close();
  join_workers();
  drained_.store(true, std::memory_order_release);
  return summary();
}

void Server::serve_connection(const std::shared_ptr<Connection>& connection) {
  const auto sink = std::make_shared<SocketSink>(connection);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer EOF, or our own SHUT_RD during drain
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t pos = buffer.find('\n', start);
         pos != std::string::npos; pos = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, pos - start);
      start = pos + 1;
      if (!blank_line(line)) handle_line(line, sink);
    }
    buffer.erase(0, start);
  }
  // A trailing request without a final newline still deserves an answer.
  if (!blank_line(buffer)) handle_line(buffer, sink);
}

void Server::publish_stats() const {
  obs::gauge("serve.queue.depth", static_cast<double>(queue_.depth()));
  obs::gauge("serve.queue.max_depth",
             static_cast<double>(queue_.max_depth()));
  obs::gauge("serve.admitted",
             static_cast<double>(admitted_.load(std::memory_order_relaxed)));
  obs::gauge("serve.solved",
             static_cast<double>(solved_.load(std::memory_order_relaxed)));
  obs::gauge("serve.failed",
             static_cast<double>(failed_.load(std::memory_order_relaxed)));
  obs::gauge("serve.shed",
             static_cast<double>(shed_.load(std::memory_order_relaxed)));
  obs::gauge(
      "serve.connections",
      static_cast<double>(connections_.load(std::memory_order_relaxed)));
  obs::gauge(
      "serve.write_failures",
      static_cast<double>(write_failures_.load(std::memory_order_relaxed)));
  cache_->publish_stats();
}

ServeSummary Server::summary() const {
  ServeSummary out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.solved = solved_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.connections = connections_.load(std::memory_order_relaxed);
  out.write_failures = write_failures_.load(std::memory_order_relaxed);
  out.downstream_closed = downstream_closed_.load(std::memory_order_acquire);
  out.drained = drained_.load(std::memory_order_acquire);
  return out;
}

}  // namespace mempart::serve
