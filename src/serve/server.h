// The `mempart serve` daemon: a persistent partitioning service over the
// NDJSON request grammar (serve/request.h).
//
// Two transports share one engine:
//
//   - pipe mode: run_pipe(in, out) reads request lines from one stream and
//     writes response lines to another — `mempart serve` with no --socket
//     wires these to stdin/stdout so the daemon drops into shell pipelines
//     exactly like `mempart batch`.
//   - socket mode: run_socket() listens on an AF_UNIX stream socket; each
//     connection speaks the same line protocol and gets responses to its
//     own requests only.
//
// Engine shape: reader threads parse lines and try_push jobs into the
// bounded admission queue (serve/admission.h); on a full queue the reader
// immediately writes a `shed` response — backpressure is explicit, never
// silent buffering. A fixed pool of solver workers pops jobs, batches
// whatever queued up behind them (up to max_batch), and dispatches through
// Partitioner::solve_many_collect so canonically equal requests dedup and
// the shared SolveCache serves repeats across requests, connections and
// tenants — the cross-request state that makes a daemon worth running.
//
// Shutdown (request_shutdown(), wired to SIGTERM/SIGINT by the CLI) is a
// drain, not an abort: admission stops, connection readers unblock, every
// already-admitted job is solved and answered, workers exit only when the
// queue is closed AND empty, and the CLI's telemetry session then writes
// the final snapshot. No admitted request is ever dropped without a
// response.
#pragma once

#include <atomic>
#include <chrono>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "core/partitioner.h"
#include "core/solve_cache.h"
#include "serve/admission.h"
#include "serve/request.h"

namespace mempart::serve {

/// Daemon configuration (CLI flags map 1:1; docs/SERVING.md).
struct ServeOptions {
  /// AF_UNIX socket path; empty selects pipe mode over run_pipe's streams.
  std::string socket_path;
  /// Solver worker threads. 0 = common::default_thread_count().
  Count threads = 0;
  /// Admission-queue bound; requests beyond it are shed. Minimum 1.
  Count queue_depth = 1024;
  /// Max requests one worker drains into a single solve_many batch.
  Count max_batch = 32;
  /// Solve cache shared by all workers. nullptr = SolveCache::global().
  SolveCache* cache = nullptr;
};

/// End-of-run accounting, also exported live as serve.* metrics.
struct ServeSummary {
  std::int64_t admitted = 0;   ///< jobs that entered the queue
  std::int64_t solved = 0;     ///< ok responses written
  std::int64_t failed = 0;     ///< error responses (parse or solver reject)
  std::int64_t shed = 0;       ///< backpressure rejections
  std::int64_t connections = 0;   ///< socket mode: connections accepted
  std::int64_t write_failures = 0;  ///< responses lost to a dead downstream
  bool downstream_closed = false;   ///< pipe mode ended on EPIPE/badbit
  bool drained = false;             ///< ended via request_shutdown()
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs pipe mode until `in` hits EOF, `out` dies (EPIPE), or
  /// request_shutdown() — then drains and returns. Blocking.
  ServeSummary run_pipe(std::istream& in, std::ostream& out);

  /// Runs socket mode until request_shutdown() — then stops accepting,
  /// unblocks connection readers, drains, and returns. Blocking. The
  /// socket path appears only once the socket listens. Throws Error when
  /// the socket cannot be created/bound.
  ServeSummary run_socket();

  /// Initiates the graceful drain. Async-signal-safe (an atomic store plus
  /// a self-pipe write), so the CLI calls it straight from the SIGTERM/
  /// SIGINT handler. Idempotent.
  void request_shutdown() noexcept;

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Publishes serve.* gauges (queue depth, admitted/solved/failed/shed,
  /// connections) plus the bound cache's cache.* gauges into the obs
  /// registry. Wired as the Snapshotter's before-snapshot hook so every
  /// exported tick carries live numbers.
  void publish_stats() const;

  [[nodiscard]] ServeSummary summary() const;

  [[nodiscard]] const ServeOptions& options() const { return options_; }

 private:
  class ResponseSink;
  class StreamSink;
  class SocketSink;
  struct Connection;

  /// One admitted unit of work: the parsed request plus where its response
  /// goes and when it was admitted (queue-wait latency).
  struct Job {
    ServeRequest request;
    std::shared_ptr<ResponseSink> sink;
    std::chrono::steady_clock::time_point admitted_at;
  };

  void start_workers();
  void join_workers();
  void worker_loop();

  /// Parses one request line and either admits it or answers immediately
  /// (parse error / shed). Called from the pipe reader and every socket
  /// connection reader; thread-safe.
  void handle_line(const std::string& line,
                   const std::shared_ptr<ResponseSink>& sink);

  /// Writes one response line through `sink`, counting a write failure when
  /// the downstream is gone (the job is still accounted solved/failed — the
  /// server did its part).
  void send_response(const std::shared_ptr<ResponseSink>& sink,
                     const std::string& line);

  /// Reads request lines from one accepted connection until EOF/drain.
  void serve_connection(const std::shared_ptr<Connection>& connection);

  ServeOptions options_;
  SolveCache* cache_;
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> downstream_closed_{false};
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: request_shutdown -> poll loop

  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> solved_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> connections_{0};
  std::atomic<std::int64_t> write_failures_{0};
  std::atomic<bool> drained_{false};
};

}  // namespace mempart::serve
