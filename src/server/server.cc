#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <utility>

#include "common/clock.h"

namespace imon::server {

namespace {

/// Sized for one read() syscall per wake; level-triggered epoll re-arms
/// if more bytes remain.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kEpollWaitMillis = 50;

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// Roll back any open transaction before a session dies with the
/// connection, so its table locks are released. Safe to call from the
/// event thread: the executor is never using the session at this point.
void ReleaseSession(engine::Database* db,
                    std::unique_ptr<engine::Session> session) {
  if (session != nullptr && session->in_transaction()) {
    (void)db->Execute("ROLLBACK", session.get());
  }
}

}  // namespace

const char* ConnStateName(ConnState s) {
  switch (s) {
    case ConnState::kHandshake:
      return "handshake";
    case ConnState::kIdle:
      return "idle";
    case ConnState::kExecuting:
      return "executing";
    case ConnState::kDraining:
      return "draining";
  }
  return "unknown";
}

Status ValidateServerOptions(const ServerOptions& options) {
  if (options.host.empty()) {
    return Status::InvalidArgument("ServerOptions::host must be non-empty");
  }
  if (options.event_threads == 0 || options.event_threads > 256) {
    return Status::InvalidArgument(
        "ServerOptions::event_threads must be in [1, 256]");
  }
  if (options.executor_threads == 0 || options.executor_threads > 1024) {
    return Status::InvalidArgument(
        "ServerOptions::executor_threads must be in [1, 1024]");
  }
  if (options.queue_depth == 0 || options.queue_depth > (1u << 20)) {
    return Status::InvalidArgument(
        "ServerOptions::queue_depth must be in [1, 2^20]");
  }
  if (options.max_frame_bytes < 64 || options.max_frame_bytes > (1u << 28)) {
    return Status::InvalidArgument(
        "ServerOptions::max_frame_bytes must be in [64, 2^28]");
  }
  if (options.max_write_buffer_bytes < options.max_frame_bytes) {
    return Status::InvalidArgument(
        "ServerOptions::max_write_buffer_bytes must hold at least one "
        "max_frame_bytes frame");
  }
  if (options.idle_timeout.count() < 0) {
    return Status::InvalidArgument(
        "ServerOptions::idle_timeout must be >= 0 (0 disables reaping)");
  }
  if (options.drain_timeout.count() < 0) {
    return Status::InvalidArgument(
        "ServerOptions::drain_timeout must be >= 0");
  }
  if (options.listen_backlog < 1) {
    return Status::InvalidArgument(
        "ServerOptions::listen_backlog must be >= 1");
  }
  return Status::OK();
}

// -- Connection --------------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  int64_t conn_id = 0;
  ConnState state = ConnState::kHandshake;
  /// Close the socket once out_buf drains.
  bool close_after_flush = false;
  /// Socket already closed while a request was in flight; the object
  /// lingers (owning the session) until the executor's response arrives.
  bool zombie = false;
  std::string in_buf;
  size_t in_pos = 0;  ///< consumed prefix of in_buf
  std::string out_buf;
  size_t out_pos = 0;
  uint32_t epoll_events = 0;  ///< currently registered interest mask
  std::unique_ptr<engine::Session> session;
  std::shared_ptr<ConnectionStats> stats;
};

// -- EventLoop ---------------------------------------------------------------

class Server::EventLoop {
 public:
  EventLoop(Server* server, size_t index) : server_(server), index_(index) {}

  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Errno("epoll_ctl(wake)");
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor thread: hand over a freshly accepted socket.
  void AddConnection(int fd, std::string peer) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      pending_accepts_.push_back({fd, std::move(peer)});
    }
    Wake();
  }

  /// Executor thread: deliver a serialized response for `conn_id`.
  void Deliver(int64_t conn_id, std::string bytes) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      responses_.push_back({conn_id, std::move(bytes)});
    }
    Wake();
  }

  /// Begin shutdown: flush pending writes (bounded by the drain
  /// deadline), close every connection, exit the thread.
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

 private:
  struct PendingAccept {
    int fd;
    std::string peer;
  };
  struct PendingResponse {
    int64_t conn_id;
    std::string bytes;
  };

  void Wake() {
    uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;  // EAGAIN just means a wake-up is already pending
  }

  void Run() {
    std::vector<epoll_event> events(256);
    int64_t stop_deadline_nanos = 0;
    while (true) {
      bool stopping = stop_.load(std::memory_order_acquire);
      if (stopping && stop_deadline_nanos == 0) {
        stop_deadline_nanos =
            MonotonicNanos() +
            server_->options_.drain_timeout.count() * 1000000;
      }
      if (stopping && (FlushDone() || MonotonicNanos() > stop_deadline_nanos)) {
        CloseEverything();
        return;
      }
      int n = ::epoll_wait(epoll_fd_, events.data(),
                           static_cast<int>(events.size()), kEpollWaitMillis);
      if (n < 0 && errno != EINTR) return;  // epoll set is gone; bail
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == wake_fd_) {
          uint64_t junk;
          while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
          }
          continue;
        }
        auto it = conns_.find(events[i].data.fd);
        if (it == conns_.end()) continue;
        Connection* conn = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(conn, /*count_drop=*/true);
          continue;
        }
        if (events[i].events & EPOLLOUT) HandleWritable(conn);
        // HandleWritable may have closed it on a write-buffer breach.
        if (conns_.find(events[i].data.fd) == conns_.end()) continue;
        if (events[i].events & EPOLLIN) HandleReadable(conn);
      }
      DrainMailbox(stopping);
      ReapIdle();
    }
  }

  bool FlushDone() const {
    // In-flight requests are waited out by Server::Shutdown *before*
    // loops are stopped; here only unflushed writes matter.
    for (const auto& [fd, conn] : conns_) {
      if (!conn->zombie && conn->out_pos < conn->out_buf.size()) return false;
    }
    return true;
  }

  void CloseEverything() {
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    for (auto& pa : pending_accepts_) ::close(pa.fd);
    pending_accepts_.clear();
    responses_.clear();
    while (!conns_.empty()) {
      CloseConn(conns_.begin()->second.get(), /*count_drop=*/false);
    }
    for (auto& [id, zombie] : zombies_) {
      ReleaseSession(server_->db_, std::move(zombie->session));
    }
    zombies_.clear();
  }

  void DrainMailbox(bool stopping) {
    std::vector<PendingAccept> accepts;
    std::vector<PendingResponse> responses;
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      accepts.swap(pending_accepts_);
      responses.swap(responses_);
    }
    for (PendingAccept& pa : accepts) {
      if (stopping) {
        ::close(pa.fd);
        continue;
      }
      AdoptSocket(pa.fd, std::move(pa.peer));
    }
    for (PendingResponse& r : responses) {
      OnResponse(r.conn_id, std::move(r.bytes));
    }
  }

  void AdoptSocket(int fd, std::string peer) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->conn_id =
        server_->next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->stats = std::make_shared<ConnectionStats>();
    conn->stats->conn_id = conn->conn_id;
    conn->stats->peer = std::move(peer);
    conn->stats->last_activity_micros.store(NowMicros(),
                                            std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server_->m_dropped_->Add(1);
      return;
    }
    conn->epoll_events = EPOLLIN;
    server_->RegisterStats(conn->stats);
    server_->m_accepted_->Add(1);
    server_->m_connections_open_->Add(1);
    Connection* raw = conn.get();
    conns_[fd] = std::move(conn);
    by_id_[raw->conn_id] = raw;
  }

  int64_t NowMicros() const { return server_->db_->clock()->NowMicros(); }

  void SetState(Connection* conn, ConnState state) {
    conn->state = state;
    conn->stats->state.store(static_cast<int>(state),
                             std::memory_order_relaxed);
  }

  /// Recompute the epoll interest mask from connection state.
  void UpdateEvents(Connection* conn) {
    uint32_t want = 0;
    if (conn->state != ConnState::kExecuting && !conn->close_after_flush) {
      want |= EPOLLIN;
    }
    if (conn->out_pos < conn->out_buf.size()) want |= EPOLLOUT;
    if (want == conn->epoll_events) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->epoll_events = want;
    }
  }

  void SendFrames(Connection* conn, std::string_view bytes) {
    conn->out_buf.append(bytes.data(), bytes.size());
    TryWrite(conn);
  }

  void SendError(Connection* conn, const Status& status, bool then_close) {
    std::string out;
    AppendErrorFrame(&out, status);
    if (then_close) {
      conn->close_after_flush = true;
      SetState(conn, ConnState::kDraining);
    }
    SendFrames(conn, out);
  }

  void HandleReadable(Connection* conn) {
    char chunk[kReadChunk];
    while (true) {
      const auto& hook = server_->options_.fault_hooks.before_read;
      if (hook && !hook().ok()) {
        CloseConn(conn, /*count_drop=*/true);
        return;
      }
      ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn->in_buf.append(chunk, static_cast<size_t>(n));
        conn->stats->bytes_in.fetch_add(n, std::memory_order_relaxed);
        server_->m_bytes_in_->Add(n);
        conn->stats->last_activity_micros.store(NowMicros(),
                                                std::memory_order_relaxed);
        if (static_cast<size_t>(n) < sizeof(chunk)) break;
        continue;
      }
      if (n == 0) {  // peer closed (possibly mid-frame)
        CloseConn(conn, /*count_drop=*/true);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn, /*count_drop=*/true);
      return;
    }
    ParseAndDispatch(conn);
  }

  void ParseAndDispatch(Connection* conn) {
    while (conn->state == ConnState::kHandshake ||
           conn->state == ConnState::kIdle) {
      Frame frame;
      std::string_view buffered(conn->in_buf);
      Status s = ParseFrame(buffered, &conn->in_pos,
                            server_->options_.max_frame_bytes, &frame);
      if (s.IsBusy()) break;  // partial frame: wait for more bytes
      if (!s.ok()) {          // framing lost (oversized/garbage length)
        server_->m_frame_errors_->Add(1);
        SendError(conn, s, /*then_close=*/true);
        return;
      }
      if (!DispatchFrame(conn, frame)) return;  // conn closed/draining
    }
    CompactInBuf(conn);
  }

  void CompactInBuf(Connection* conn) {
    if (conn->in_pos == conn->in_buf.size()) {
      conn->in_buf.clear();
      conn->in_pos = 0;
    } else if (conn->in_pos > kReadChunk) {
      conn->in_buf.erase(0, conn->in_pos);
      conn->in_pos = 0;
    }
  }

  /// Returns false when the connection left the readable states
  /// (closed, executing, or draining).
  bool DispatchFrame(Connection* conn, const Frame& frame) {
    if (!IsClientFrameType(static_cast<uint8_t>(frame.type))) {
      server_->m_frame_errors_->Add(1);
      SendError(conn,
                Status::InvalidArgument(
                    "unexpected frame type " +
                    std::to_string(static_cast<int>(frame.type))),
                /*then_close=*/true);
      return false;
    }
    switch (frame.type) {
      case FrameType::kHello: {
        size_t pos = 0;
        uint32_t version = 0;
        if (conn->state != ConnState::kHandshake ||
            !ReadU32(frame.payload, &pos, &version).ok()) {
          server_->m_frame_errors_->Add(1);
          SendError(conn, Status::InvalidArgument("malformed HELLO"),
                    /*then_close=*/true);
          return false;
        }
        if (version != kProtocolVersion) {
          SendError(conn,
                    Status::NotSupported(
                        "protocol version " + std::to_string(version) +
                        " unsupported (server speaks " +
                        std::to_string(kProtocolVersion) + ")"),
                    /*then_close=*/true);
          return false;
        }
        conn->session = server_->db_->CreateSession();
        std::string payload, out;
        AppendU32(&payload, kProtocolVersion);
        AppendI64(&payload, conn->conn_id);
        AppendFrame(&out, FrameType::kHello, payload);
        SetState(conn, ConnState::kIdle);
        int fd = conn->fd;  // SendFrames may close + free conn
        SendFrames(conn, out);
        return conns_.count(fd) != 0;
      }
      case FrameType::kQuery: {
        if (conn->state != ConnState::kIdle) {
          server_->m_frame_errors_->Add(1);
          SendError(conn,
                    Status::InvalidArgument("QUERY before HELLO handshake"),
                    /*then_close=*/true);
          return false;
        }
        int fd = conn->fd;  // SendError may close + free conn
        if (server_->draining_.load(std::memory_order_acquire)) {
          SendError(conn, Status::Aborted("server shutting down"),
                    /*then_close=*/false);
          return conns_.count(fd) != 0;
        }
        Request req;
        req.conn_id = conn->conn_id;
        req.loop_index = index_;
        req.session = conn->session.get();
        req.sql.assign(frame.payload.data(), frame.payload.size());
        if (!server_->TryEnqueue(std::move(req))) {
          server_->m_queue_rejects_->Add(1);
          SendError(conn,
                    Status::ResourceExhausted(
                        "server request queue is full; retry"),
                    /*then_close=*/false);
          return conns_.count(fd) != 0;
        }
        SetState(conn, ConnState::kExecuting);
        UpdateEvents(conn);  // drop EPOLLIN until the response lands
        return false;
      }
      case FrameType::kPing: {
        std::string out;
        AppendFrame(&out, FrameType::kPing, frame.payload);
        int fd = conn->fd;  // SendFrames may close + free conn
        SendFrames(conn, out);
        return conns_.count(fd) != 0;
      }
      case FrameType::kClose: {
        conn->close_after_flush = true;
        SetState(conn, ConnState::kDraining);
        if (conn->out_pos >= conn->out_buf.size()) {
          CloseConn(conn, /*count_drop=*/false);
        } else {
          UpdateEvents(conn);
        }
        return false;
      }
      default:
        return false;  // unreachable: IsClientFrameType filtered above
    }
  }

  void OnResponse(int64_t conn_id, std::string bytes) {
    auto zit = zombies_.find(conn_id);
    if (zit != zombies_.end()) {
      // Socket died while the query ran; the session can be released now.
      ReleaseSession(server_->db_, std::move(zit->second->session));
      zombies_.erase(zit);
      return;
    }
    auto it = by_id_.find(conn_id);
    if (it == by_id_.end()) return;
    Connection* conn = it->second;
    conn->stats->requests.fetch_add(1, std::memory_order_relaxed);
    conn->stats->last_activity_micros.store(NowMicros(),
                                            std::memory_order_relaxed);
    if (conn->state == ConnState::kExecuting) {
      SetState(conn, ConnState::kIdle);
    }
    int fd = conn->fd;  // SendFrames may close + free conn
    SendFrames(conn, bytes);
    if (conns_.count(fd) == 0) return;  // write cap breach closed it
    UpdateEvents(conn);
    // Frames may have piled up while EPOLLIN was off.
    ParseAndDispatch(conn);
  }

  void HandleWritable(Connection* conn) { TryWrite(conn); }

  void TryWrite(Connection* conn) {
    while (conn->out_pos < conn->out_buf.size()) {
      const auto& hook = server_->options_.fault_hooks.before_write;
      if (hook && !hook().ok()) {
        CloseConn(conn, /*count_drop=*/true);
        return;
      }
      // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE
      // (normal teardown), not a process-wide SIGPIPE.
      ssize_t n = ::send(conn->fd, conn->out_buf.data() + conn->out_pos,
                         conn->out_buf.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        conn->stats->bytes_out.fetch_add(n, std::memory_order_relaxed);
        server_->m_bytes_out_->Add(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseConn(conn, /*count_drop=*/true);
      return;
    }
    if (conn->out_pos == conn->out_buf.size()) {
      conn->out_buf.clear();
      conn->out_pos = 0;
      if (conn->close_after_flush) {
        CloseConn(conn, /*count_drop=*/false);
        return;
      }
    } else if (conn->out_buf.size() - conn->out_pos >
               server_->options_.max_write_buffer_bytes) {
      // Slow client: the buffered-write cap is the backstop that keeps
      // one dead-slow reader from holding server memory hostage.
      CloseConn(conn, /*count_drop=*/true);
      return;
    }
    UpdateEvents(conn);
  }

  void ReapIdle() {
    int64_t timeout_ms = server_->options_.idle_timeout.count();
    if (timeout_ms <= 0) return;
    int64_t now = NowMicros();
    if (now < next_idle_check_micros_) return;
    next_idle_check_micros_ = now + std::max<int64_t>(timeout_ms * 250, 10000);
    std::vector<Connection*> dead;
    for (auto& [fd, conn] : conns_) {
      if (conn->state == ConnState::kExecuting) continue;  // busy, not idle
      int64_t last =
          conn->stats->last_activity_micros.load(std::memory_order_relaxed);
      if (now - last > timeout_ms * 1000) dead.push_back(conn.get());
    }
    for (Connection* conn : dead) CloseConn(conn, /*count_drop=*/true);
  }

  void CloseConn(Connection* conn, bool count_drop) {
    if (count_drop) server_->m_dropped_->Add(1);
    server_->m_connections_open_->Add(-1);
    server_->UnregisterStats(conn->conn_id);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    int64_t conn_id = conn->conn_id;
    auto node = conns_.extract(conn->fd);
    by_id_.erase(conn_id);
    if (conn->state == ConnState::kExecuting) {
      // A request naming this session is queued or running; park the
      // connection object so the session outlives the executor.
      conn->zombie = true;
      zombies_[conn_id] = std::move(node.mapped());
    } else {
      ReleaseSession(server_->db_, std::move(conn->session));
    }
  }

  Server* server_;
  size_t index_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  std::mutex mailbox_mutex_;
  std::vector<PendingAccept> pending_accepts_;
  std::vector<PendingResponse> responses_;

  // Loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;  // by fd
  std::unordered_map<int64_t, Connection*> by_id_;
  std::unordered_map<int64_t, std::unique_ptr<Connection>> zombies_;
  int64_t next_idle_check_micros_ = 0;
};

// -- Server ------------------------------------------------------------------

Server::Server(engine::Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  metrics::MetricsRegistry* reg = db_->metrics();
  m_connections_open_ = reg->GetGauge("server.connections_open");
  m_accepted_ = reg->GetCounter("server.connections_accepted");
  m_dropped_ = reg->GetCounter("server.connections_dropped");
  m_requests_ = reg->GetCounter("server.requests");
  m_frame_errors_ = reg->GetCounter("server.frame_errors");
  m_queue_rejects_ = reg->GetCounter("server.queue_rejects");
  m_queue_depth_ = reg->GetGauge("server.queue_depth");
  m_bytes_in_ = reg->GetCounter("server.bytes_in");
  m_bytes_out_ = reg->GetCounter("server.bytes_out");
  m_request_micros_ = reg->GetHistogram("server.request_micros");
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  IMON_RETURN_IF_ERROR(ValidateServerOptions(options_));
  if (running_.load()) return Status::AlreadyExists("server already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparsable host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  for (size_t i = 0; i < options_.event_threads; ++i) {
    auto loop = std::make_unique<EventLoop>(this, i);
    Status s = loop->Init();
    if (!s.ok()) {
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    loops_.push_back(std::move(loop));
  }

  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) loop->StartThread();
  for (size_t i = 0; i < options_.executor_threads; ++i) {
    executors_.emplace_back([this, i] { ExecutorMain(i); });
  }
  acceptor_ = std::thread([this] { AcceptorMain(); });
  return Status::OK();
}

void Server::AcceptorMain() {
  size_t next_loop = 0;
  while (running_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, 100);
    if (pr <= 0) continue;
    while (true) {
      sockaddr_in addr{};
      socklen_t len = sizeof(addr);
      int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or the listen socket is going away
      const auto& hook = options_.fault_hooks.before_accept;
      if (hook && !hook().ok()) {
        ::close(fd);
        m_dropped_->Add(1);
        continue;
      }
      int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
      loops_[next_loop]->AddConnection(fd, PeerName(addr));
      next_loop = (next_loop + 1) % loops_.size();
    }
  }
}

bool Server::TryEnqueue(Request req) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (draining_.load(std::memory_order_acquire)) return false;
    if (queue_.size() >= options_.queue_depth) return false;
    queue_.push_back(std::move(req));
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

bool Server::Dequeue(Request* req) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_cv_.wait(lock, [this] {
    return !queue_.empty() || !running_.load(std::memory_order_acquire);
  });
  if (queue_.empty()) return false;
  *req = std::move(queue_.front());
  queue_.pop_front();
  m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  return true;
}

void Server::ExecutorMain(size_t /*index*/) {
  Request req;
  while (Dequeue(&req)) {
    int64_t start = MonotonicNanos();
    auto result = db_->Execute(req.sql, req.session);
    std::string out;
    if (result.ok()) {
      engine::QueryResult& qr = *result;
      WireResult wire;
      wire.columns = std::move(qr.columns);
      wire.rows = std::move(qr.rows);
      wire.affected_rows = qr.affected_rows;
      wire.message = std::move(qr.message);
      wire.estimated_cost = qr.stats.estimated_cost;
      wire.actual_cost = qr.stats.actual_cost;
      wire.wallclock_nanos = qr.stats.wallclock_nanos;
      AppendResultFrames(&out, wire);
    } else {
      AppendErrorFrame(&out, result.status());
    }
    m_requests_->Add(1);
    m_request_micros_->Record((MonotonicNanos() - start) / 1000);
    loops_[req.loop_index]->Deliver(req.conn_id, std::move(out));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Server::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;

  // 1. Stop admitting: no new connections, no new requests.
  draining_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Let in-flight requests finish (responses still flow to loops).
  int64_t deadline =
      MonotonicNanos() + options_.drain_timeout.count() * 1000000;
  while (in_flight_.load(std::memory_order_acquire) > 0 &&
         MonotonicNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Stop executors (any still-queued requests are abandoned; their
  //    connections' sessions are rolled back in CloseEverything).
  running_.store(false, std::memory_order_release);
  queue_cv_.notify_all();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
    m_queue_depth_->Set(0);
  }

  // 4. Event loops flush buffered writes (bounded), close, exit.
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  loops_.clear();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conn_stats_.clear();
  }
  m_connections_open_->Set(0);
}

void Server::RegisterStats(std::shared_ptr<ConnectionStats> stats) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conn_stats_[stats->conn_id] = std::move(stats);
}

void Server::UnregisterStats(int64_t conn_id) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conn_stats_.erase(conn_id);
}

int64_t Server::connections_open() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return static_cast<int64_t>(conn_stats_.size());
}

std::vector<Server::ConnectionRow> Server::SnapshotConnections() const {
  std::vector<ConnectionRow> out;
  std::lock_guard<std::mutex> lock(conns_mutex_);
  out.reserve(conn_stats_.size());
  for (const auto& [id, stats] : conn_stats_) {
    ConnectionRow row;
    row.conn_id = id;
    row.peer = stats->peer;
    row.state =
        static_cast<ConnState>(stats->state.load(std::memory_order_relaxed));
    row.requests = stats->requests.load(std::memory_order_relaxed);
    row.bytes_in = stats->bytes_in.load(std::memory_order_relaxed);
    row.bytes_out = stats->bytes_out.load(std::memory_order_relaxed);
    row.last_activity_micros =
        stats->last_activity_micros.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

// -- imp_connections ---------------------------------------------------------

namespace {

class ConnectionsProvider : public catalog::VirtualTableProvider {
 public:
  explicit ConnectionsProvider(const Server* server) : server_(server) {}

  std::vector<catalog::ColumnInfo> Schema() const override {
    using catalog::Column;
    return {Column("conn_id", TypeId::kInt),
            Column("peer", TypeId::kText),
            Column("state", TypeId::kText),
            Column("requests", TypeId::kInt),
            Column("bytes_in", TypeId::kInt),
            Column("bytes_out", TypeId::kInt),
            Column("last_activity_micros", TypeId::kInt)};
  }

  std::vector<Row> Rows(int64_t) const override {
    std::vector<Row> rows;
    for (const auto& c : server_->SnapshotConnections()) {
      rows.push_back({Value::Int(c.conn_id), Value::Text(c.peer),
                      Value::Text(ConnStateName(c.state)),
                      Value::Int(c.requests), Value::Int(c.bytes_in),
                      Value::Int(c.bytes_out),
                      Value::Int(c.last_activity_micros)});
    }
    return rows;
  }

 private:
  const Server* server_;
};

}  // namespace

Status RegisterConnectionsTable(engine::Database* db, Server* server) {
  if (db == nullptr || server == nullptr) {
    return Status::InvalidArgument("null database or server");
  }
  return db->RegisterVirtualTable(
      "imp_connections", std::make_shared<ConnectionsProvider>(server));
}

}  // namespace imon::server
