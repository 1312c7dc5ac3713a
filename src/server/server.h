// Network front end: a non-blocking epoll server multiplexing thousands
// of client connections onto the engine's StatementPipeline sessions
// (DESIGN.md §14).
//
// Threading model:
//   * one acceptor thread epoll-waits on the listening socket and hands
//     each accepted connection to an event loop (round-robin);
//   * N event threads, each with its own level-triggered epoll set,
//     exclusively own their connections' sockets: they read bytes, slice
//     frames, and push complete QUERY requests onto the shared bounded
//     MPMC queue;
//   * M executor threads pop requests and run them through a
//     StatementPipeline on the connection's Session (created at HELLO),
//     then serialize the result frames and mail them back to the owning
//     event loop (eventfd wake-up) for writing.
//
// Backpressure contract:
//   * at most one in-flight request per connection — while a query
//     executes the connection's EPOLLIN interest is dropped, so a
//     pipelining client is flow-controlled by TCP itself;
//   * the request queue is bounded (ServerOptions::queue_depth); when it
//     is full the server answers ERROR(kResourceExhausted) immediately
//     instead of queueing — the connection stays usable;
//   * buffered writes to a slow client are capped
//     (max_write_buffer_bytes); exceeding the cap drops the connection;
//   * oversized or malformed frames get ERROR + close;
//   * connections idle past idle_timeout are reaped.
//
// Observability: server.connections_open/accepted/dropped,
// server.requests, server.queue_depth and the server.request_micros
// histogram live in the engine's metrics registry (imp_metrics, history,
// alert rules); per-connection rows are exposed as the imp_connections
// IMA table via RegisterConnectionsTable.

#ifndef IMON_SERVER_SERVER_H_
#define IMON_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"
#include "server/protocol.h"

namespace imon::server {

/// Fault hooks consulted on the accept / socket-read / socket-write
/// paths (testing::FaultInjector implements them). A non-OK return makes
/// the server treat the operation as a hard I/O failure: an accepted
/// socket is closed immediately, a read/write fault closes the
/// connection — always through the normal teardown path, so fault tests
/// double as connection-slot leak detectors.
struct ServerFaultHooks {
  std::function<Status()> before_accept;
  std::function<Status()> before_read;
  std::function<Status()> before_write;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  uint16_t port = 0;
  /// Event (epoll) threads owning connection sockets.
  size_t event_threads = 2;
  /// Executor threads running StatementPipelines.
  size_t executor_threads = 4;
  /// Bounded MPMC request queue depth; a full queue answers
  /// ERROR(kResourceExhausted) instead of blocking the event loop.
  size_t queue_depth = 256;
  /// Largest accepted frame payload; larger gets ERROR + close.
  size_t max_frame_bytes = 1 << 20;
  /// Cap on bytes buffered toward a slow client before it is dropped.
  /// Must hold at least one max-size frame.
  size_t max_write_buffer_bytes = 8u << 20;
  /// Connections with no traffic for this long are reaped; zero disables.
  std::chrono::milliseconds idle_timeout{60000};
  /// Shutdown grace: how long to wait for in-flight requests to finish
  /// and their responses to flush before closing sockets hard.
  std::chrono::milliseconds drain_timeout{5000};
  /// Listen backlog passed to ::listen.
  int listen_backlog = 512;
  ServerFaultHooks fault_hooks;
};

/// Reject out-of-range options with a descriptive status; Server::Start
/// runs this first. Mirrors engine::ValidateDatabaseOptions.
Status ValidateServerOptions(const ServerOptions& options);

/// Connection lifecycle states (imp_connections.state).
enum class ConnState : int {
  kHandshake = 0,  ///< accepted, awaiting HELLO
  kIdle = 1,       ///< ready for the next QUERY
  kExecuting = 2,  ///< a request is queued or running
  kDraining = 3,   ///< response/error queued, closing after flush
};

const char* ConnStateName(ConnState s);

/// Per-connection stats row, updated by the owning event thread and the
/// executor, snapshotted by the imp_connections provider.
struct ConnectionStats {
  int64_t conn_id = 0;
  std::string peer;  ///< "ip:port"
  std::atomic<int> state{static_cast<int>(ConnState::kHandshake)};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> last_activity_micros{0};
};

class Server {
 public:
  Server(engine::Database* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validate options, bind + listen, spawn acceptor/event/executor
  /// threads. Fails without leaking threads or sockets.
  Status Start();

  /// Graceful drain: stop accepting, let in-flight requests finish and
  /// their responses flush (up to drain_timeout), then close every
  /// socket and join all threads. Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after Start with port 0).
  uint16_t port() const { return port_; }

  /// Open-connection count (mirrors server.connections_open).
  int64_t connections_open() const;

  /// Stable snapshot of every live connection's stats row, conn-id
  /// ordered (backs imp_connections).
  struct ConnectionRow {
    int64_t conn_id;
    std::string peer;
    ConnState state;
    int64_t requests;
    int64_t bytes_in;
    int64_t bytes_out;
    int64_t last_activity_micros;
  };
  std::vector<ConnectionRow> SnapshotConnections() const;

 private:
  struct Connection;
  class EventLoop;
  friend class EventLoop;

  /// One queued query: everything an executor needs without touching the
  /// Connection object (the session pointer stays valid until the event
  /// loop has seen the executor's response for this conn generation).
  struct Request {
    int64_t conn_id = 0;
    size_t loop_index = 0;
    engine::Session* session = nullptr;
    std::string sql;
  };

  void AcceptorMain();
  void ExecutorMain(size_t index);

  void RegisterStats(std::shared_ptr<ConnectionStats> stats);
  void UnregisterStats(int64_t conn_id);

  /// Bounded MPMC push; false when full or shutting down.
  bool TryEnqueue(Request req);
  /// Blocking pop; false on shutdown with an empty queue.
  bool Dequeue(Request* req);

  engine::Database* db_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  /// Draining: acceptor stopped, no new requests admitted.
  std::atomic<bool> draining_{false};

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::thread acceptor_;
  std::vector<std::thread> executors_;

  // Bounded MPMC request queue.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  /// Requests admitted but not yet finished executing (for drain).
  std::atomic<int64_t> in_flight_{0};

  std::atomic<int64_t> next_conn_id_{1};

  // Live-connection stats registry (imp_connections).
  mutable std::mutex conns_mutex_;
  std::map<int64_t, std::shared_ptr<ConnectionStats>> conn_stats_;

  // imp_metrics handles (registry owned by the database).
  metrics::Gauge* m_connections_open_ = nullptr;
  metrics::Counter* m_accepted_ = nullptr;
  metrics::Counter* m_dropped_ = nullptr;
  metrics::Counter* m_requests_ = nullptr;
  metrics::Counter* m_frame_errors_ = nullptr;
  metrics::Counter* m_queue_rejects_ = nullptr;
  metrics::Gauge* m_queue_depth_ = nullptr;
  metrics::Counter* m_bytes_in_ = nullptr;
  metrics::Counter* m_bytes_out_ = nullptr;
  metrics::Histogram* m_request_micros_ = nullptr;
};

/// Expose the server's live connections as the `imp_connections` IMA
/// table in `db`, one row per connection. The server must outlive `db`'s
/// use of it.
Status RegisterConnectionsTable(engine::Database* db, Server* server);

}  // namespace imon::server

#endif  // IMON_SERVER_SERVER_H_
