// Tests for the network server front end (DESIGN.md §14): option
// validation, the wire protocol's differential guarantee (remote results
// fingerprint-identical to embedded execution), malformed-frame
// robustness (no crash, no connection-slot leak), backpressure,
// fault-hook teardown, idle reaping, the imp_connections IMA table, and
// graceful drain with daemon-persisted workload state surviving a
// server restart.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/daemon.h"
#include "ima/ima.h"
#include "server/client.h"
#include "testing/fault_injector.h"
#include "testing/oracle.h"

namespace imon::server {
namespace {

using engine::Database;
using engine::DatabaseOptions;
using engine::QueryResult;

// ---------------------------------------------------------------------------
// Helpers

/// Spin until `pred` holds or `timeout` elapses; true when it held.
template <typename Pred>
bool EventuallyTrue(Pred pred, std::chrono::milliseconds timeout =
                                   std::chrono::milliseconds(5000)) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// A deliberately dumb TCP endpoint for sending byte garbage that the
/// well-behaved Client cannot produce.
class RawConn {
 public:
  ~RawConn() { Close(); }

  bool Dial(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Read whatever arrives until EOF or `timeout_ms` of silence.
  std::string ReadUntilClose(int timeout_ms = 2000) {
    std::string out;
    char buf[4096];
    while (true) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) break;
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

std::string HelloBytes(uint32_t version = kProtocolVersion) {
  std::string payload, out;
  AppendU32(&payload, version);
  AppendFrame(&out, FrameType::kHello, payload);
  return out;
}

std::string QueryBytes(std::string_view sql) {
  std::string out;
  AppendFrame(&out, FrameType::kQuery, sql);
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : db_(MakeOptions()) {
    EXPECT_TRUE(ima::RegisterImaTables(&db_).ok());
  }

  ~ServerTest() override {
    if (server_) server_->Shutdown();
  }

  static DatabaseOptions MakeOptions() {
    DatabaseOptions o;
    o.plan_cache_capacity = 64;
    return o;
  }

  /// Start a server on an ephemeral port with test-friendly defaults;
  /// callers mutate `opts` first for special setups.
  void StartServer(ServerOptions opts = {}) {
    opts.port = 0;
    server_ = std::make_unique<Server>(&db_, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  QueryResult MustExec(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? r.TakeValue() : QueryResult{};
  }

  Client MustConnect() {
    Client c;
    EXPECT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
    return c;
  }

  Database db_;
  std::unique_ptr<Server> server_;
};

// ---------------------------------------------------------------------------
// Satellite 1: option validation

TEST(ServerOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(ValidateServerOptions(ServerOptions{}).ok());
}

TEST(ServerOptionsTest, RejectsEachOutOfRangeField) {
  auto expect_rejected = [](ServerOptions o, const char* what) {
    Status s = ValidateServerOptions(o);
    EXPECT_FALSE(s.ok()) << what << " should have been rejected";
    EXPECT_TRUE(s.IsInvalidArgument()) << what << ": " << s;
  };

  ServerOptions o;
  o.host.clear();
  expect_rejected(o, "empty host");

  o = {};
  o.event_threads = 0;
  expect_rejected(o, "zero event threads");
  o.event_threads = 257;
  expect_rejected(o, "absurd event threads");

  o = {};
  o.executor_threads = 0;
  expect_rejected(o, "zero executor threads");
  o.executor_threads = 1025;
  expect_rejected(o, "absurd executor threads");

  o = {};
  o.queue_depth = 0;
  expect_rejected(o, "zero queue depth");
  o.queue_depth = (1u << 20) + 1;
  expect_rejected(o, "absurd queue depth");

  o = {};
  o.max_frame_bytes = 63;
  expect_rejected(o, "frame cap below floor");
  o.max_frame_bytes = (1u << 28) + 1;
  expect_rejected(o, "frame cap above ceiling");

  o = {};
  o.max_write_buffer_bytes = o.max_frame_bytes - 1;
  expect_rejected(o, "write buffer smaller than one frame");

  o = {};
  o.idle_timeout = std::chrono::milliseconds(-1);
  expect_rejected(o, "negative idle timeout");

  o = {};
  o.drain_timeout = std::chrono::milliseconds(-1);
  expect_rejected(o, "negative drain timeout");

  o = {};
  o.listen_backlog = 0;
  expect_rejected(o, "zero listen backlog");
}

TEST_F(ServerTest, StartRejectsInvalidOptions) {
  ServerOptions o;
  o.queue_depth = 0;
  Server bad(&db_, o);
  Status s = bad.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(bad.running());
  bad.Shutdown();  // idempotent no-op after failed start
}

// ---------------------------------------------------------------------------
// Wire basics

TEST_F(ServerTest, PingEchoesAndQueriesRoundTrip) {
  StartServer();
  Client c = MustConnect();
  EXPECT_GT(c.conn_id(), 0);
  EXPECT_TRUE(c.Ping().ok());

  auto r = c.Execute("CREATE TABLE t (v INT)");
  ASSERT_TRUE(r.ok()) << r.status();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        c.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  r = c.Execute("SELECT v FROM t ORDER BY v");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->columns.size(), 1u);
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_EQ(r->rows[4][0].AsInt(), 4);

  // An engine error comes back as a Status and leaves the connection
  // usable.
  auto bad = c.Execute("SELECT nope FROM missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(c.connected());
  EXPECT_TRUE(c.Ping().ok());
  c.Disconnect();
  EXPECT_TRUE(EventuallyTrue([&] { return server_->connections_open() == 0; }));
}

// An integer overflow is the statement's error, not a crash of the
// server: the same connection and a new one are answered afterwards.
TEST_F(ServerTest, IntegerOverflowLeavesServerAnswering) {
  StartServer();
  Client c = MustConnect();
  ASSERT_TRUE(c.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(c.Execute("INSERT INTO t VALUES (-9223372036854775807)").ok());
  for (const char* sql :
       {"SELECT (a - 1) / -1 FROM t", "SELECT (a - 1) % -1 FROM t",
        "UPDATE t SET a = (a - 1) / -1"}) {
    auto r = c.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_TRUE(c.Ping().ok()) << sql;
  }
  Client other = MustConnect();
  auto r = other.Execute("SELECT a FROM t");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), -9223372036854775807);
}

TEST_F(ServerTest, VersionMismatchIsRejectedWithErrorFrame) {
  StartServer();
  RawConn raw;
  ASSERT_TRUE(raw.Dial(server_->port()));
  ASSERT_TRUE(raw.Send(HelloBytes(/*version=*/99)));
  std::string reply = raw.ReadUntilClose();
  // One complete ERROR frame, then EOF (connection closed by server).
  ASSERT_GE(reply.size(), kFrameHeaderBytes);
  size_t off = 0;
  Frame frame;
  ASSERT_TRUE(ParseFrame(reply, &off, 1 << 20, &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  Status s = DecodeErrorFrame(frame.payload);
  EXPECT_EQ(s.code(), StatusCode::kNotSupported) << s;
  EXPECT_TRUE(EventuallyTrue([&] { return server_->connections_open() == 0; }));
}

// ---------------------------------------------------------------------------
// Differential guarantee: remote == embedded, byte for byte

TEST_F(ServerTest, RemoteResultsFingerprintIdenticalToEmbedded) {
  StartServer();
  MustExec("CREATE TABLE item (id INT PRIMARY KEY, grp INT, price DOUBLE, "
           "tag TEXT)");
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string tag = rng() % 5 == 0
                          ? "NULL"
                          : "'tag" + std::to_string(rng() % 8) + "'";
    MustExec("INSERT INTO item VALUES (" + std::to_string(i) + ", " +
             std::to_string(rng() % 10) + ", " +
             std::to_string(rng() % 1000) + ".5, " + tag + ")");
  }

  const std::vector<std::string> queries = {
      "SELECT * FROM item WHERE id = 17",
      "SELECT grp, price FROM item WHERE grp = 3 ORDER BY price, id",
      "SELECT count(*) FROM item",
      "SELECT tag FROM item WHERE id < 25 ORDER BY id",
      "SELECT id FROM item WHERE price > 500.0 ORDER BY id",
  };

  Client c = MustConnect();
  for (const auto& sql : queries) {
    auto remote = c.Execute(sql);
    auto local = db_.Execute(sql);
    ASSERT_TRUE(remote.ok()) << sql << " -> " << remote.status();
    ASSERT_TRUE(local.ok()) << sql << " -> " << local.status();
    QueryResult remote_qr;
    remote_qr.columns = remote->columns;
    remote_qr.rows = remote->rows;
    EXPECT_EQ(testing::Fingerprint(remote_qr), testing::Fingerprint(*local))
        << "remote and embedded results diverge for: " << sql;
  }
  c.Disconnect();
}

// ---------------------------------------------------------------------------
// Satellite 2: malformed frames never crash and never leak a slot

TEST_F(ServerTest, MalformedFramesNeverCrashOrLeakSlots) {
  ServerOptions opts;
  opts.max_frame_bytes = 4096;  // small cap so oversized frames are cheap
  StartServer(opts);
  MustExec("CREATE TABLE t (v INT)");

  std::mt19937_64 rng(0xF00D);
  auto rand_bytes = [&](size_t n) {
    std::string s(n, '\0');
    for (auto& ch : s) ch = static_cast<char>(rng() & 0xFF);
    return s;
  };

  for (int iter = 0; iter < 48; ++iter) {
    RawConn raw;
    ASSERT_TRUE(raw.Dial(server_->port())) << "iter " << iter;
    switch (iter % 6) {
      case 0: {  // truncated frame: header promises more than we send
        std::string hello = HelloBytes();
        raw.Send(hello.substr(0, kFrameHeaderBytes + 1));
        break;  // mid-frame disconnect on Close()
      }
      case 1: {  // oversized length prefix
        std::string out;
        uint32_t len = 64u << 20;
        out.append(reinterpret_cast<const char*>(&len), 4);
        out.push_back(static_cast<char>(FrameType::kQuery));
        raw.Send(out);
        raw.ReadUntilClose(500);
        break;
      }
      case 2: {  // garbage frame type
        std::string out;
        AppendFrame(&out, static_cast<FrameType>(0xEE), "junk");
        raw.Send(HelloBytes() + out);
        raw.ReadUntilClose(500);
        break;
      }
      case 3: {  // pure random bytes
        raw.Send(rand_bytes(1 + rng() % 512));
        raw.ReadUntilClose(200);
        break;
      }
      case 4: {  // QUERY without a handshake
        raw.Send(QueryBytes("SELECT v FROM t"));
        raw.ReadUntilClose(500);
        break;
      }
      case 5: {  // disconnect mid-query, response still in flight
        raw.Send(HelloBytes() + QueryBytes("SELECT v FROM t"));
        break;  // close without reading anything
      }
    }
    raw.Close();
  }

  EXPECT_TRUE(
      EventuallyTrue([&] { return server_->connections_open() == 0; }))
      << "leaked " << server_->connections_open() << " connection slots";

  // The server is still healthy for a well-behaved client.
  Client c = MustConnect();
  auto r = c.Execute("SELECT count(*) FROM t");
  EXPECT_TRUE(r.ok()) << r.status();
  c.Disconnect();
}

// ---------------------------------------------------------------------------
// Backpressure: a full request queue answers kResourceExhausted and the
// connection stays usable.

TEST_F(ServerTest, FullQueueRejectsWithResourceExhausted) {
  ServerOptions opts;
  opts.executor_threads = 1;
  opts.queue_depth = 1;
  StartServer(opts);
  MustExec("CREATE TABLE t (v INT)");

  // The test thread's implicit session takes the X lock on t, so remote
  // INSERTs pile up deterministically: the first blocks inside the lone
  // executor, the second fills the queue, the third must be rejected.
  MustExec("BEGIN");
  MustExec("INSERT INTO t VALUES (0)");

  auto waits_before = db_.lock_manager()->stats().total_waits;
  Client blocked = MustConnect();
  Client queued = MustConnect();
  Client rejected = MustConnect();

  std::atomic<bool> blocked_ok{false}, queued_ok{false};
  std::thread t1([&] {
    blocked_ok = blocked.Execute("INSERT INTO t VALUES (1)").ok();
  });
  ASSERT_TRUE(EventuallyTrue([&] {
    return db_.lock_manager()->stats().total_waits > waits_before;
  })) << "first remote INSERT never blocked on the table lock";

  std::thread t2([&] {
    queued_ok = queued.Execute("INSERT INTO t VALUES (2)").ok();
  });
  ASSERT_TRUE(EventuallyTrue([&] {
    for (const auto& row : server_->SnapshotConnections()) {
      if (row.conn_id == queued.conn_id() &&
          row.state == ConnState::kExecuting) {
        return true;
      }
    }
    return false;
  })) << "second remote INSERT never reached the queue";

  auto over = rejected.Execute("INSERT INTO t VALUES (3)");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted)
      << over.status();
  EXPECT_TRUE(rejected.connected()) << "a queue reject must not drop the "
                                       "connection";

  MustExec("COMMIT");
  t1.join();
  t2.join();
  EXPECT_TRUE(blocked_ok);
  EXPECT_TRUE(queued_ok);

  // The rejected connection retries successfully once pressure is gone.
  auto retry = rejected.Execute("INSERT INTO t VALUES (3)");
  EXPECT_TRUE(retry.ok()) << retry.status();
  auto count = rejected.Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 4);
}

// ---------------------------------------------------------------------------
// Fault hooks tear connections down through the normal path

TEST_F(ServerTest, FaultHooksDropConnectionsWithoutLeakingSlots) {
  imon::testing::FaultConfig cfg;
  cfg.fail_accept_at = 1;
  cfg.fail_net_read_at = 2;  // first read survives (HELLO), second dies
  imon::testing::FaultInjector injector(cfg);
  injector.Arm();

  ServerOptions opts;
  opts.fault_hooks.before_accept = [&] { return injector.BeforeAccept(); };
  opts.fault_hooks.before_read = [&] { return injector.BeforeNetRead(); };
  StartServer(opts);
  MustExec("CREATE TABLE t (v INT)");

  // Connection 1 is killed at the accept door: the TCP connect itself
  // succeeds, but the handshake never completes.
  {
    Client c;
    Status s = c.Connect("127.0.0.1", server_->port());
    EXPECT_FALSE(s.ok()) << "accept-faulted connection completed a handshake";
  }
  EXPECT_EQ(injector.counters().accept_faults, 1);

  // Connection 2 survives accept and HELLO, then its next socket read is
  // faulted; the server must close it via normal teardown.
  Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  auto r = c.Execute("SELECT 1");
  EXPECT_FALSE(r.ok()) << "read-faulted connection should have died";
  EXPECT_TRUE(
      EventuallyTrue([&] { return server_->connections_open() == 0; }))
      << "fault teardown leaked a connection slot";

  injector.Disarm();
  Client healthy = MustConnect();
  EXPECT_TRUE(healthy.Ping().ok());
  // The hooks call into `injector`, which dies with this scope: stop the
  // server's threads first.
  server_->Shutdown();
}

// ---------------------------------------------------------------------------
// Idle connections are reaped

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout = std::chrono::milliseconds(100);
  StartServer(opts);

  Client c = MustConnect();
  EXPECT_EQ(server_->connections_open(), 1);
  // No traffic: the reaper must close it well within the test deadline.
  EXPECT_TRUE(
      EventuallyTrue([&] { return server_->connections_open() == 0; }));
  // The client notices on its next use.
  EXPECT_FALSE(c.Ping().ok());
}

// ---------------------------------------------------------------------------
// Satellite 6: imp_connections

TEST_F(ServerTest, ImpConnectionsReportsLiveSessions) {
  StartServer();
  ASSERT_TRUE(RegisterConnectionsTable(&db_, server_.get()).ok());
  MustExec("CREATE TABLE t (v INT)");

  Client a = MustConnect();
  Client b = MustConnect();
  ASSERT_TRUE(a.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(a.Execute("SELECT v FROM t").ok());
  ASSERT_TRUE(b.Execute("SELECT v FROM t").ok());

  QueryResult r = MustExec(
      "SELECT conn_id, peer, state, requests, bytes_in, bytes_out "
      "FROM imp_connections ORDER BY conn_id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), a.conn_id());
  EXPECT_EQ(r.rows[1][0].AsInt(), b.conn_id());
  EXPECT_NE(r.rows[0][1].AsText().find("127.0.0.1:"), std::string::npos);
  EXPECT_EQ(r.rows[0][2].AsText(), "idle");
  EXPECT_EQ(r.rows[0][3].AsInt(), 2);  // a ran two statements
  EXPECT_EQ(r.rows[1][3].AsInt(), 1);
  EXPECT_GT(r.rows[0][4].AsInt(), 0);
  EXPECT_GT(r.rows[0][5].AsInt(), 0);

  a.Disconnect();
  ASSERT_TRUE(EventuallyTrue([&] {
    auto q = db_.Execute("SELECT count(*) FROM imp_connections");
    return q.ok() && q->rows[0][0].AsInt() == 1;
  })) << "closed connection still listed in imp_connections";
}

TEST_F(ServerTest, ImpConnectionsColumnsArePinned) {
  StartServer();
  ASSERT_TRUE(RegisterConnectionsTable(&db_, server_.get()).ok());
  auto provider = db_.catalog()->GetVirtualTable("imp_connections");
  ASSERT_NE(provider, nullptr);
  using enum TypeId;
  const std::vector<std::pair<std::string, TypeId>> expected = {
      {"conn_id", kInt}, {"peer", kText}, {"state", kText},
      {"requests", kInt}, {"bytes_in", kInt}, {"bytes_out", kInt},
      {"last_activity_micros", kInt}};
  std::vector<std::pair<std::string, TypeId>> actual;
  for (const catalog::ColumnInfo& c : provider->Schema()) {
    actual.emplace_back(c.name, c.type);
  }
  EXPECT_EQ(actual, expected);
}

// ---------------------------------------------------------------------------
// Server metrics land in imp_metrics

TEST_F(ServerTest, ServerMetricsVisibleInImpMetrics) {
  StartServer();
  MustExec("CREATE TABLE t (v INT)");
  Client c = MustConnect();
  ASSERT_TRUE(c.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(c.Execute("SELECT v FROM t").ok());

  QueryResult r = MustExec(
      "SELECT name, value FROM imp_metrics WHERE name = "
      "'server.connections_accepted'");
#ifndef IMON_METRICS_DISABLED
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][1].AsInt(), 1);
  r = MustExec(
      "SELECT value FROM imp_metrics WHERE name = 'server.requests'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][0].AsInt(), 2);
#endif
}

// ---------------------------------------------------------------------------
// Satellite 3: graceful shutdown — in-flight queries complete, the
// daemon flush lands, and a restarted server resumes over consistent
// wl_* state.

TEST(ServerShutdownTest, DrainCompletesInFlightAndWorkloadStateSurvives) {
  DatabaseOptions mopts;
  mopts.name = "monitored";
  Database monitored(mopts);
  ASSERT_TRUE(ima::RegisterImaTables(&monitored).ok());
  DatabaseOptions wopts;
  wopts.name = "workload";
  wopts.monitor.enabled = false;
  Database workload_db(wopts);

  daemon::DaemonConfig dcfg;
  dcfg.polls_per_flush = 1;
  daemon::StorageDaemon storage_daemon(&monitored, &workload_db, dcfg);
  ASSERT_TRUE(storage_daemon.Initialize().ok());

  auto must = [&](Database* db, const std::string& sql) {
    auto r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  must(&monitored, "CREATE TABLE t (v INT)");

  auto template_executions = [&]() -> int64_t {
    auto r = workload_db.Execute(
        "SELECT template_text, executions FROM wl_templates");
    EXPECT_TRUE(r.ok()) << r.status();
    for (const Row& row : r->rows) {
      if (row[0].AsText().find("where v =") != std::string::npos) {
        return row[1].AsInt();
      }
    }
    return -1;
  };

  uint16_t old_port = 0;
  {
    Server server(&monitored, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    old_port = server.port();

    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          c.Execute("SELECT v FROM t WHERE v = " + std::to_string(i)).ok());
    }

    // Pin the table lock so the fifth query is verifiably in flight when
    // Shutdown begins, then release it and require the drain to let the
    // query finish rather than killing it.
    must(&monitored, "BEGIN");
    must(&monitored, "INSERT INTO t VALUES (0)");
    auto waits_before = monitored.lock_manager()->stats().total_waits;
    std::atomic<bool> inflight_ok{false};
    std::thread qthread([&] {
      inflight_ok = c.Execute("SELECT v FROM t WHERE v = 5").ok();
    });
    ASSERT_TRUE(EventuallyTrue([&] {
      return monitored.lock_manager()->stats().total_waits > waits_before;
    }));

    std::thread shutdown_thread([&] { server.Shutdown(); });
    // Give the drain a moment to observe the in-flight request, then
    // unblock it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    must(&monitored, "COMMIT");
    qthread.join();
    shutdown_thread.join();
    EXPECT_TRUE(inflight_ok)
        << "in-flight query was killed instead of drained";
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.connections_open(), 0);
  }

  // The imond shutdown sequence: final daemon flush after the drain.
  ASSERT_TRUE(storage_daemon.PollOnce().ok());
  ASSERT_TRUE(storage_daemon.FlushNow().ok());
  EXPECT_EQ(template_executions(), 5);

  // Restart: a new server over the same engine + workload DB. The
  // resumed daemon must extend the template counts, not double-count the
  // five executions already persisted (incarnation-keyed resume).
  {
    Server server(&monitored, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    EXPECT_NE(server.port(), 0);
    (void)old_port;  // ephemeral ports may or may not collide; irrelevant

    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    for (int i = 6; i <= 8; ++i) {
      ASSERT_TRUE(
          c.Execute("SELECT v FROM t WHERE v = " + std::to_string(i)).ok());
    }
    ASSERT_TRUE(storage_daemon.PollOnce().ok());
    ASSERT_TRUE(storage_daemon.FlushNow().ok());
    EXPECT_EQ(template_executions(), 8)
        << "wl_templates inconsistent after server restart";
    c.Disconnect();
    server.Shutdown();
  }
}

// New queries during the drain are refused politely.
TEST_F(ServerTest, DrainRefusesNewQueriesThenCompletes) {
  StartServer();
  MustExec("CREATE TABLE t (v INT)");
  Client c = MustConnect();
  ASSERT_TRUE(c.Execute("INSERT INTO t VALUES (1)").ok());
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  // The socket is gone; the client learns on next use.
  EXPECT_FALSE(c.Execute("SELECT v FROM t").ok());
}

}  // namespace
}  // namespace imon::server
