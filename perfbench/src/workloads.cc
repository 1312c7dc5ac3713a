#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/hash.h"
#include "ima/ima.h"
#include "layers.h"
#include "server/client.h"

namespace perfbench {

using imon::MonotonicNanos;
using imon::Status;
using imon::engine::Database;
using imon::workload::NrefConfig;

imon::daemon::DaemonConfig MakeDaemonConfig() {
  imon::daemon::DaemonConfig c;
  c.poll_interval = std::chrono::milliseconds(1000);
  c.polls_per_flush = 4;
  c.retention = std::chrono::seconds(7 * 24 * 3600);
  c.flushes_per_purge = 4;
  c.flush_pressure_rows = 8192;
  c.min_sample_rate_ppm = 10000;
  return c;
}

void Block::Merge(const Block& other, bool normalize) {
  double s = normalize ? other.scale : 1.0;
  ops += other.ops;
  busy_nanos += static_cast<int64_t>(static_cast<double>(other.busy_nanos) * s);
  reads.Append(other.reads, s);
  writes.Append(other.writes, s);
  for (const auto& [name, lat] : other.shapes) shapes[name].Append(lat, s);
}

std::vector<const Block*> Phase::Quiet() const {
  std::vector<int64_t> steal;
  for (const Block& b : blocks) steal.push_back(b.steal_ticks);
  std::vector<const Block*> quiet;
  if (steal.empty()) return quiet;
  std::nth_element(steal.begin(), steal.begin() + steal.size() / 2, steal.end());
  int64_t median = steal[steal.size() / 2];
  for (const Block& b : blocks) {
    if (b.steal_ticks <= median) quiet.push_back(&b);
  }
  return quiet;
}

std::vector<Block> Windows(const std::vector<const Block*>& blocks,
                           size_t count, bool normalize) {
  std::vector<Block> windows(std::min(count, blocks.size()));
  for (size_t i = 0; i < blocks.size(); ++i) {
    windows[i * windows.size() / blocks.size()].Merge(*blocks[i], normalize);
  }
  return windows;
}

namespace {

int64_t Deadline(double seconds) {
  return MonotonicNanos() + static_cast<int64_t>(seconds * 1e9);
}

/// Build a database and load NREF; a monitored one also gets the IMA
/// tables the storage daemon reads.
Status LoadDatabase(const DbKnobs& knobs, const NrefConfig& nref,
                    std::unique_ptr<Database>* out) {
  auto db = std::make_unique<Database>(MakeDbOptions(knobs));
  if (knobs.monitor) {
    Status s = imon::ima::RegisterImaTables(db.get());
    if (!s.ok()) return s;
  }
  Status s = imon::workload::SetupNref(db.get(), nref);
  if (!s.ok()) return s;
  *out = std::move(db);
  return Status::OK();
}

std::string DataJson(const NrefConfig& nref, Database* db) {
  std::ostringstream s;
  s << "{\"proteins\": " << nref.proteins
    << ", \"data_pages\": " << db->TotalDataPages()
    << ", \"data_mib\": " << static_cast<double>(db->DataSizeBytes()) / 1048576.0
    << "}";
  return s.str();
}

// -- point_select -------------------------------------------------------------

/// The paper's "1m test": uniform primary-key point selects, one client,
/// against a monitored database and a monitor-disabled twin loaded from
/// the same seed, run in alternating blocks.
class PointSelect : public Workload {
 public:
  explicit PointSelect(const Args& args)
      : args_(args), nref_(MakeNref(args)), rng_(args.seed * 0x9e37 + 1) {}

  Status Setup() override {
    Status s = LoadDatabase(Knobs("monitored", true), nref_, &mon_);
    if (s.ok()) s = LoadDatabase(Knobs("unmonitored", false), nref_, &plain_);
    if (!s.ok()) return s;
    std::mt19937_64 warm(args_.seed);
    for (int i = 0; i < 2000; ++i) {
      std::string sql = imon::workload::PointQuery(Key(&warm));
      if (!mon_->Execute(sql).ok() || !plain_->Execute(sql).ok()) {
        return Status::Internal("point_select warm-up failed");
      }
    }
    return Status::OK();
  }

  void Teardown() override {
    mon_.reset();
    plain_.reset();
  }

  void Run(double seconds, Phase* phase, Report* report) override {
    const size_t block = BlockStatements();
    std::vector<int64_t> keys(block);
    int64_t deadline = Deadline(seconds);
    double kernel_ns = KernelNanos();
    int64_t steal = StealTicks();
    for (size_t pair = 0; MonotonicNanos() < deadline || pair == 0; ++pair) {
      for (int64_t& k : keys) k = Key(&rng_);
      Block b;
      uint64_t digest[2] = {0, 0};
      int64_t nanos[2] = {0, 0};
      for (int turn = 0; turn < 2; ++turn) {
        int side = (turn + static_cast<int>(pair % 2)) % 2;  // 0 = monitored
        Database* db = side == 0 ? mon_.get() : plain_.get();
        int64_t block_start = MonotonicNanos();
        for (int64_t k : keys) {
          int64_t t0 = MonotonicNanos();
          auto r = db->Execute(imon::workload::PointQuery(k));
          int64_t lat = MonotonicNanos() - t0;
          ++phase->attempted;
          if (!r.ok()) {
            ++phase->failed;
            report->Fail("point_select: " + r.status().ToString());
            continue;
          }
          if (r->rows.size() != 1 || r->rows[0].size() != 1 ||
              r->rows[0][0].AsInt() != k) {
            report->Fail("point_select: key " + std::to_string(k) +
                         " did not return exactly its row");
          }
          for (const imon::Row& row : r->rows) {
            for (const imon::Value& v : row) {
              digest[side] = imon::HashCombine(digest[side],
                                               static_cast<uint64_t>(v.AsInt()));
            }
          }
          if (side == 0) {
            b.reads.Add(lat);
            b.shapes["point_select"].Add(lat);
          }
        }
        nanos[side] = MonotonicNanos() - block_start;
      }
      if (pair == 0 && args_.corrupt == "fingerprint") digest[0] ^= 1;
      report->Check(digest[0] == digest[1],
                    "point_select: monitored and unmonitored twins returned "
                    "different results in block " + std::to_string(pair));
      phase->overhead_ratios.push_back(static_cast<double>(nanos[0]) /
                                       static_cast<double>(nanos[1]));
      b.ops = static_cast<int64_t>(block);
      b.busy_nanos = nanos[0];
      phase->db_statements += static_cast<int64_t>(block);
      double kernel_after = KernelNanos();
      b.scale = SpeedScale(kernel_ns, kernel_after);
      kernel_ns = kernel_after;
      b.steal_ticks = StealTicks() - steal;
      steal += b.steal_ticks;
      phase->blocks.push_back(std::move(b));
    }
  }

  void FinalChecks(Report* /*report*/) override {}

  std::string OptionsJson() const override {
    return "{\"monitored\": " + DbOptionsJson(MakeDbOptions(Knobs("monitored", true))) +
           ", \"unmonitored\": " +
           DbOptionsJson(MakeDbOptions(Knobs("unmonitored", false))) +
           ", \"data\": " + DataJson(nref_, mon_.get()) +
           ", \"clients\": 1, \"block_statements\": " +
           std::to_string(BlockStatements()) + "}";
  }

  Database* db() override { return mon_.get(); }
  /// 50 block pairs per window: 50,000 reads, so each window's p99 has
  /// 500 samples beyond it.
  size_t Windows(size_t blocks) const override {
    return std::max<size_t>(1, blocks / 50);
  }

  std::vector<SampleStatement> Sample() override {
    std::vector<SampleStatement> out;
    for (size_t i = 0; i < (args_.smoke ? 100u : 5000u); ++i) {
      out.push_back({imon::workload::PointQuery(Key(&rng_)), true});
    }
    return out;
  }

 private:
  static DbKnobs Knobs(const char* name, bool monitor) {
    DbKnobs k;
    k.name = name;
    k.monitor = monitor;
    k.plan_cache_capacity = 0;
    k.exec_workers = 1;
    k.buffer_pool_pages = 8192;
    k.buffer_pool_shards = 8;
    return k;
  }

  /// Statements per side of a block pair.
  size_t BlockStatements() const { return args_.smoke ? 200 : 1000; }

  int64_t Key(std::mt19937_64* rng) const {
    return static_cast<int64_t>((*rng)() % static_cast<uint64_t>(nref_.proteins));
  }

  Args args_;
  NrefConfig nref_;
  std::mt19937_64 rng_;
  std::unique_ptr<Database> mon_;
  std::unique_ptr<Database> plain_;
};

// -- analytic_join ------------------------------------------------------------

/// The paper's "50 test": the 50 complex NREF join queries in rounds, on
/// two executor lanes with a buffer pool a quarter of the data. Each
/// round is one block, so every block holds the same queries. Its times
/// are not host-speed normalized: the queries run partly on an executor
/// worker thread, and a kernel timed on this thread, even every five
/// queries, tracked them worse than no normalization.
class AnalyticJoin : public Workload {
 public:
  explicit AnalyticJoin(const Args& args) : args_(args), nref_(MakeNref(args)) {
    queries_ = imon::workload::ComplexQuerySet(nref_, 50);
  }

  Status Setup() override {
    Status s = LoadDatabase(Knobs(), nref_, &db_);
    if (!s.ok()) return s;
    for (const std::string& q : queries_) {
      if (!db_->Execute(q).ok()) {
        return Status::Internal("analytic_join warm-up failed: " + q);
      }
    }
    return Status::OK();
  }

  void Teardown() override { db_.reset(); }

  Status PrepareChecks() override {
    // Serial reference: the same queries through the public executor on
    // one lane, planned for one lane.
    reference_.clear();
    for (const std::string& q : queries_) {
      LayerRun run = ReplaySelect(db_.get(), q, 1, nullptr, nullptr, nullptr);
      if (!run.ok) return Status::Internal("serial reference: " + run.error);
      reference_[q] = run.digest;
    }
    if (args_.corrupt == "fingerprint") reference_[queries_[0]] ^= 1;
    return Status::OK();
  }

  void Run(double seconds, Phase* phase, Report* report) override {
    int64_t deadline = Deadline(seconds);
    int64_t steal = StealTicks();
    for (int round = 0; MonotonicNanos() < deadline || round == 0; ++round) {
      Block b;
      for (size_t i = 0; i < queries_.size(); ++i) {
        const std::string& q = queries_[i];
        int64_t mon_before = db_->monitor()->counters().total_monitor_nanos;
        int64_t t0 = MonotonicNanos();
        auto r = db_->Execute(q);
        int64_t lat = MonotonicNanos() - t0;
        phase->monitor_nanos +=
            db_->monitor()->counters().total_monitor_nanos - mon_before;
        ++phase->attempted;
        if (!r.ok()) {
          ++phase->failed;
          report->Fail("analytic_join: query " + std::to_string(i) + ": " +
                       r.status().ToString());
          continue;
        }
        report->Check(ResultDigest(*r) == reference_[q],
                      "analytic_join: query " + std::to_string(i) +
                          " differs from the serial reference in round " +
                          std::to_string(round));
        b.reads.Add(lat);
        b.shapes["q" + std::to_string(i)].Add(lat);
        b.ops += 1;
        b.busy_nanos += lat;
        phase->statement_nanos += lat;
        phase->db_statements += 1;
      }
      b.steal_ticks = StealTicks() - steal;
      steal += b.steal_ticks;
      phase->blocks.push_back(std::move(b));
    }
  }

  void FinalChecks(Report* /*report*/) override {}

  std::string OptionsJson() const override {
    return "{\"db\": " + DbOptionsJson(MakeDbOptions(Knobs())) +
           ", \"data\": " + DataJson(nref_, db_.get()) +
           ", \"clients\": 1, \"queries\": " +
           std::to_string(queries_.size()) + "}";
  }

  Database* db() override { return db_.get(); }

  std::vector<SampleStatement> Sample() override {
    std::vector<SampleStatement> out;
    for (int round = 0; round < 2; ++round) {
      for (const std::string& q : queries_) out.push_back({q, true});
    }
    return out;
  }

  size_t replay_lanes() const override { return 2; }
  /// One window: a run's quiet rounds hold about 500 queries, five beyond
  /// the p99; smaller windows would leave it resting on one or two.
  size_t Windows(size_t /*blocks*/) const override { return 1; }

  bool ReferenceDigest(const std::string& sql, uint64_t* digest) const override {
    auto it = reference_.find(sql);
    if (it == reference_.end()) return false;
    *digest = it->second;
    return true;
  }

 private:
  static DbKnobs Knobs() {
    DbKnobs k;
    k.name = "analytic";
    k.monitor = true;
    k.plan_cache_capacity = 0;
    k.exec_workers = 2;
    k.buffer_pool_pages = 400;
    k.buffer_pool_shards = 8;
    return k;
  }

  Args args_;
  NrefConfig nref_;
  std::vector<std::string> queries_;
  std::map<std::string, uint64_t> reference_;
  std::unique_ptr<Database> db_;
};

// -- embedded_mixed, wire_mixed ---------------------------------------------

/// Reads and writes from two closed-loop clients: 80 % Zipf point selects,
/// 15 % PK updates, 5 % inserts, with the plan cache on and the storage
/// daemon persisting into a workload database. embedded_mixed runs each
/// client as a thread calling Database::Execute; wire_mixed sends the same
/// traffic through the server over loopback, one connection per client.
/// The daemon is polled every second of the measured phase (flushing
/// every 4th poll) from the thread that cuts the phase into slices.
class Mixed : public Workload {
 public:
  static constexpr int kClients = 2;
  static constexpr double kZipfTheta = 0.99;

  Mixed(const Args& args, bool wire)
      : args_(args),
        wire_(wire),
        name_(wire ? "wire_mixed" : "embedded_mixed"),
        nref_(MakeNref(args)),
        zipf_(nref_.proteins, kZipfTheta) {}

  ~Mixed() override { Teardown(); }

  Status Setup() override {
    Status s = LoadDatabase(Knobs("mixed", true), nref_, &db_);
    if (!s.ok()) return s;
    wl_db_ = std::make_unique<Database>(MakeDbOptions(Knobs("workload", false)));
    daemon_ = std::make_unique<imon::daemon::StorageDaemon>(
        db_.get(), wl_db_.get(), MakeDaemonConfig());
    s = daemon_->Initialize();
    if (!s.ok()) return s;
    if (wire_) {
      server_ = std::make_unique<imon::server::Server>(db_.get(),
                                                       MakeServerOptions());
      s = server_->Start();
      if (!s.ok()) return s;
      for (auto& client : clients_) {
        s = client.Connect("127.0.0.1", server_->port());
        if (!s.ok()) return s;
      }
    }
    for (int c = 0; c < kClients; ++c) {
      gens_[c] = Generator{};
      gens_[c].client = c;
      gens_[c].rng.seed(args_.seed * 1000003 + static_cast<uint64_t>(c));
    }

    // The generator predicts the final table from the loaded one.
    auto initial = ExecInternal(db_.get(), "SELECT nref_id, mol_weight FROM protein");
    if (!initial.ok()) return initial.status();
    initial_.assign(static_cast<size_t>(nref_.proteins), 0.0);
    initial_sum_ = 0;
    for (const imon::Row& row : initial->rows) {
      initial_[static_cast<size_t>(row[0].AsInt())] = row[1].AsDouble();
      initial_sum_ += row[1].AsDouble();
    }
    initial_count_ = static_cast<int64_t>(initial->rows.size());
    templates_before_ = 0;
    for (const auto& t : db_->monitor()->SnapshotTemplates()) {
      templates_before_ += t.executions;
    }
    issued_ = 0;

    Phase warm;
    Report warm_report;
    RunOps(args_.smoke ? 50 : 500, 0, &warm, &warm_report);
    if (!warm_report.correct() || warm.failed > 0) {
      return Status::Internal(name_ + " warm-up failed");
    }
    return Status::OK();
  }

  void Teardown() override {
    for (auto& c : clients_) c.Disconnect();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    daemon_.reset();
    wl_db_.reset();
    db_.reset();
  }

  void Run(double seconds, Phase* phase, Report* report) override {
    RunOps(0, seconds, phase, report);
  }

  void FinalChecks(Report* report) override {
    CheckSampleResults(report);

    // Final table against the generator's prediction.
    double want_sum = initial_sum_;
    int64_t want_count = initial_count_;
    for (const Generator& g : gens_) {
      for (const auto& [key, value] : g.updated) {
        want_sum += value - initial_[static_cast<size_t>(key)];
      }
      want_sum += g.inserted_sum;
      want_count += g.inserted;
    }
    if (args_.corrupt == "checksum") want_sum += 1.0;
    auto totals =
        ExecInternal(db_.get(), "SELECT SUM(mol_weight), COUNT(*) FROM protein");
    if (!totals.ok() || totals->rows.size() != 1) {
      report->Fail(name_ + ": SUM/COUNT query failed");
    } else {
      double got_sum = totals->rows[0][0].AsDouble();
      int64_t got_count = totals->rows[0][1].AsInt();
      std::ostringstream msg;
      msg.precision(17);
      msg << name_ << ": SUM(mol_weight) = " << got_sum << ", COUNT(*) = "
          << got_count << "; generator predicts " << want_sum << " and "
          << want_count;
      // The engine sums in another order, so the sums differ by rounding
      // (far below 0.05 at this scale); update values are whole numbers.
      report->Check(std::fabs(got_sum - want_sum) < 0.05 &&
                        got_count == want_count,
                    msg.str());
    }

    // Every monitored statement reaches wl_templates. Templates are read
    // on the flush-due poll, so poll until one flushes, then flush.
    Status polled = Status::OK();
    int64_t flushes = daemon_->stats().flushes;
    for (int p = 0; polled.ok() && daemon_->stats().flushes == flushes &&
                    p < MakeDaemonConfig().polls_per_flush;
         ++p) {
      polled = daemon_->PollOnce();
    }
    Status flushed = daemon_->FlushNow();
    auto sum = ExecInternal(wl_db_.get(), "SELECT SUM(executions) FROM wl_templates");
    if (!polled.ok() || !flushed.ok() || !sum.ok() || sum->rows.size() != 1) {
      report->Fail(name_ + ": final daemon poll/flush or wl_templates query failed");
    } else {
      int64_t got = std::llround(sum->rows[0][0].AsDouble());
      int64_t want = templates_before_ + issued_;
      report->Check(got == want,
                    name_ + ": SUM(executions) in wl_templates = " +
                        std::to_string(got) + ", monitored statements issued = " +
                        std::to_string(want));
    }
  }

  std::string OptionsJson() const override {
    std::string out = "{\"db\": " + DbOptionsJson(MakeDbOptions(Knobs("mixed", true))) +
                      ", \"workload_db\": " +
                      DbOptionsJson(MakeDbOptions(Knobs("workload", false)));
    if (wire_) out += ", \"server\": " + ServerOptionsJson(MakeServerOptions());
    return out +
           ", \"daemon\": {\"poll_interval_ms\": 1000, \"polls_per_flush\": 4}"
           ", \"data\": " + DataJson(nref_, db_.get()) +
           ", \"clients\": 2, \"mix\": \"80% select zipf(0.99), 15% update, "
           "5% insert\"}";
  }

  Database* db() override { return db_.get(); }
  bool has_writes() const override { return true; }
  /// One window: the daemon flushes every 4 s, and windows shorter than
  /// the run would differ in whether they hold a flush's latency spike.
  size_t Windows(size_t /*blocks*/) const override { return 1; }
  imon::server::Server* server() override { return server_.get(); }
  imon::daemon::StorageDaemon* daemon() override { return daemon_.get(); }
  Database* workload_db() override { return wl_db_.get(); }
  void NoteIssued(int64_t statements) override { issued_ += statements; }

  /// The replay continues client 0's generator, so the prediction covers
  /// the writes the replay applies through Database::Execute.
  std::vector<SampleStatement> Sample() override {
    std::vector<SampleStatement> out;
    for (size_t i = 0; i < (args_.smoke ? 100u : 5000u); ++i) {
      Op op = Next(&gens_[0]);
      out.push_back({op.sql, op.kind == Op::kRead});
      Apply(&gens_[0], op);
    }
    return out;
  }

 private:
  struct Op {
    enum Kind { kRead, kUpdate, kInsert } kind;
    std::string sql;
    int64_t key = 0;
    double value = 0;
  };

  /// Per-client generator. Update keys have the client's parity and
  /// insert keys are above the loaded range, interleaved by client, so
  /// the final state does not depend on timing.
  struct Generator {
    int client = 0;
    std::mt19937_64 rng;
    int64_t next_insert = 0;
    std::map<int64_t, double> updated;
    double inserted_sum = 0;
    int64_t inserted = 0;
  };

  static DbKnobs Knobs(const char* name, bool monitor) {
    DbKnobs k;
    k.name = name;
    k.monitor = monitor;
    k.plan_cache_capacity = monitor ? 1024 : 0;
    k.exec_workers = 1;
    k.buffer_pool_pages = 8192;
    k.buffer_pool_shards = 8;
    return k;
  }

  Op Next(Generator* g) const {
    Op op;
    uint64_t pick = g->rng() % 100;
    if (pick < 80) {
      op.kind = Op::kRead;
      op.key = zipf_.Next(&g->rng);
      op.sql = imon::workload::PointQuery(op.key);
    } else if (pick < 95) {
      op.kind = Op::kUpdate;
      int64_t k = (zipf_.Next(&g->rng) & ~int64_t{1}) | g->client;
      if (k >= nref_.proteins) k -= 2;
      op.key = k;
      op.value = static_cast<double>(1000 + g->rng() % 300000);
      op.sql = "UPDATE protein SET mol_weight = " +
               std::to_string(static_cast<int64_t>(op.value)) +
               " WHERE nref_id = " + std::to_string(op.key);
    } else {
      op.kind = Op::kInsert;
      op.key = nref_.proteins + g->client + kClients * g->next_insert;
      op.value = static_cast<double>(1000 + g->rng() % 300000);
      op.sql = "INSERT INTO protein VALUES (" + std::to_string(op.key) +
               ", 'MKVLAT', 120, " +
               std::to_string(static_cast<int64_t>(op.value)) + ", " +
               std::to_string(g->rng() % static_cast<uint64_t>(nref_.taxa)) + ")";
    }
    return op;
  }

  static void Apply(Generator* g, const Op& op) {
    if (op.kind == Op::kUpdate) {
      g->updated[op.key] = op.value;
    } else if (op.kind == Op::kInsert) {
      g->next_insert += 1;
      g->inserted_sum += op.value;
      g->inserted += 1;
    }
  }

  /// A sample of `SELECT *` point selects, each run embedded and through
  /// a second path: over the wire (wire_mixed), or a fresh layer-by-layer
  /// replay through the public executor that no plan cache serves
  /// (embedded_mixed). The two results must fingerprint identically.
  void CheckSampleResults(Report* report) {
    std::mt19937_64 rng(args_.seed ^ 0xf1d0);
    for (int i = 0; i < 64; ++i) {
      int64_t key = zipf_.Next(&rng);
      std::string sql =
          "SELECT * FROM protein WHERE nref_id = " + std::to_string(key);
      auto local = db_->Execute(sql);
      issued_ += local.ok() ? 1 : 0;
      bool ok = local.ok();
      uint64_t got = 0;
      if (wire_) {
        auto remote = clients_[i % kClients].Execute(sql);
        issued_ += remote.ok() ? 1 : 0;
        ok = ok && remote.ok();
        if (remote.ok()) got = ResultDigest(remote->columns, remote->rows);
      } else {
        LayerRun replay = ReplaySelect(db_.get(), sql, 1, nullptr, nullptr, nullptr);
        ok = ok && replay.ok;
        got = replay.digest;
      }
      if (!ok) {
        report->Fail(name_ + ": sample query failed: " + sql);
        continue;
      }
      uint64_t want = ResultDigest(*local);
      if (i == 0 && args_.corrupt == "fingerprint") want ^= 1;
      report->Check(got == want,
                    name_ + (wire_ ? ": remote result differs from embedded for "
                                   : ": result differs from a fresh layer "
                                     "replay for ") +
                        sql);
    }
  }

  /// Run `count` operations per client, or until `seconds` pass when
  /// count is 0. A timed run is cut into slices of about kSliceNanos; at
  /// each slice boundary both clients sample the host-speed kernel on
  /// their own threads, where the host's speed applies to their
  /// statements, and park.
  void RunOps(int64_t count, double seconds, Phase* phase, Report* report) {
    static constexpr int64_t kSliceNanos = 100'000'000;
    // The daemon polls on the slice clock, every poll_interval, so every
    // run of the same length sees the same number of polls and flushes.
    static constexpr size_t kSlicesPerPoll = 10;
    static_assert(kSliceNanos * kSlicesPerPoll == 1'000'000'000);
    struct Lane {
      int64_t attempted = 0;
      int64_t failed = 0;
      int64_t issued = 0;
      int64_t statement_nanos = 0;
      std::vector<Block> slices;
      /// Kernel samples at the start of slice i (the last one: the end).
      std::vector<double> kernels;
      Report report;
    };
    std::atomic<bool> stop{false};
    std::atomic<bool> paused{false};
    std::atomic<int> parked{0};
    std::atomic<size_t> slice{0};
    Lane lanes[kClients];
    auto hist_sum = [this] {
      for (const auto& h : db_->metrics()->SnapshotHistograms()) {
        if (h.name == "server.request_micros") return h.sum;
      }
      return int64_t{0};
    };
    int64_t request_micros_before = hist_sum();
    int64_t monitor_before = db_->monitor()->counters().total_monitor_nanos;
    auto* depth = db_->metrics()->GetGauge("server.queue_depth");

    // Checks and records one completed statement.
    auto record = [&](Lane* lane, Generator* g, const Op& op, const auto& r,
                      int64_t nanos) {
      ++lane->issued;
      lane->statement_nanos += nanos;
      size_t s = slice.load();
      if (lane->slices.size() <= s) lane->slices.resize(s + 1);
      Block* b = &lane->slices[s];
      ++b->ops;
      if (op.kind == Op::kRead) {
        lane->report.Check(r.rows.size() == 1 && r.rows[0].size() == 1 &&
                               r.rows[0][0].AsInt() == op.key,
                           name_ + ": point select for key " +
                               std::to_string(op.key) +
                               " did not return exactly its row");
        b->reads.Add(nanos);
        b->shapes["select"].Add(nanos);
      } else {
        lane->report.Check(r.affected_rows == 1,
                           name_ + ": `" + op.sql + "` affected " +
                               std::to_string(r.affected_rows) + " rows");
        b->writes.Add(nanos);
        b->shapes[op.kind == Op::kUpdate ? "update" : "insert"].Add(nanos);
        Apply(g, op);
      }
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Generator* g = &gens_[c];
        Lane* lane = &lanes[c];
        if (count == 0) lane->kernels.push_back(KernelNanos());
        for (int64_t i = 0; count == 0 ? !stop.load() : i < count; ++i) {
          if (paused.load()) {
            lane->kernels.push_back(KernelNanos());
            parked.fetch_add(1);
            while (paused.load()) std::this_thread::yield();
            parked.fetch_sub(1);
            continue;
          }
          Op op = Next(g);
          ++lane->attempted;
          int64_t t0 = MonotonicNanos();
          if (wire_) {
            auto r = clients_[c].Execute(op.sql);
            int64_t nanos = MonotonicNanos() - t0;
            if (r.ok()) {
              record(lane, g, op, *r, nanos);
              continue;
            }
            // A queue rejection counts as failed; a lost connection ends
            // this client.
            ++lane->failed;
            if (!clients_[c].connected()) {
              lane->report.Fail("wire_mixed: connection lost: " +
                                r.status().ToString());
              parked.fetch_add(1);  // never blocks the slicer
              return;
            }
          } else {
            auto r = db_->Execute(op.sql);
            int64_t nanos = MonotonicNanos() - t0;
            if (r.ok()) {
              record(lane, g, op, *r, nanos);
              continue;
            }
            ++lane->failed;
            lane->report.Fail("embedded_mixed: `" + op.sql +
                              "` failed: " + r.status().ToString());
          }
        }
      });
    }
    std::vector<Block> slices;
    if (count == 0) {
      int64_t deadline = Deadline(seconds);
      int64_t steal = StealTicks();
      do {
        int64_t resume = MonotonicNanos();
        paused.store(false);
        if (slices.size() % kSlicesPerPoll == 0) {
          Status polled = daemon_->PollOnce();
          if (!polled.ok()) report->Fail(name_ + ": daemon poll: " + polled.ToString());
        }
        int64_t end = std::min(resume + kSliceNanos, deadline);
        while (MonotonicNanos() < end) {
          phase->queue_depth_max =
              std::max(phase->queue_depth_max, depth->Value());
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        paused.store(true);
        while (parked.load() < kClients) std::this_thread::yield();
        Block b;
        b.busy_nanos = MonotonicNanos() - resume;
        b.steal_ticks = StealTicks() - steal;
        steal += b.steal_ticks;
        slices.push_back(std::move(b));
        slice.fetch_add(1);
      } while (MonotonicNanos() < deadline);
      stop.store(true);
      paused.store(false);
    }
    for (auto& t : threads) t.join();

    int64_t statement_nanos = 0;
    for (Lane& lane : lanes) {
      phase->attempted += lane.attempted;
      phase->failed += lane.failed;
      phase->db_statements += lane.issued;
      issued_ += lane.issued;
      statement_nanos += lane.statement_nanos;
      for (size_t i = 0; i < slices.size() && i < lane.slices.size(); ++i) {
        slices[i].ops += lane.slices[i].ops;
        slices[i].reads.Append(lane.slices[i].reads);
        slices[i].writes.Append(lane.slices[i].writes);
        for (const auto& [name, lat] : lane.slices[i].shapes) {
          slices[i].shapes[name].Append(lat);
        }
      }
      report->Absorb(lane.report);
    }
    // A slice's scale comes from both clients' kernel samples at its start
    // and end (a client whose connection was lost has none).
    for (size_t i = 0; i < slices.size(); ++i) {
      std::vector<double> before, after;
      for (const Lane& lane : lanes) {
        if (i + 1 < lane.kernels.size()) {
          before.push_back(lane.kernels[i]);
          after.push_back(lane.kernels[i + 1]);
        }
      }
      if (!before.empty()) {
        slices[i].scale = SpeedScale(Median(before), Median(after));
      }
    }
    for (Block& b : slices) phase->blocks.push_back(std::move(b));
    // Statement time the monitor's sensor time is a share of: the server's
    // request time over the wire, the clients' own latencies embedded.
    phase->statement_nanos +=
        wire_ ? (hist_sum() - request_micros_before) * 1000 : statement_nanos;
    phase->monitor_nanos +=
        db_->monitor()->counters().total_monitor_nanos - monitor_before;
  }

  Args args_;
  bool wire_;
  std::string name_;
  NrefConfig nref_;
  Zipf zipf_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Database> wl_db_;
  std::unique_ptr<imon::daemon::StorageDaemon> daemon_;
  std::unique_ptr<imon::server::Server> server_;
  imon::server::Client clients_[kClients];
  Generator gens_[kClients];
  std::vector<double> initial_;
  double initial_sum_ = 0;
  int64_t initial_count_ = 0;
  int64_t templates_before_ = 0;
  int64_t issued_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "point_select") return std::make_unique<PointSelect>(args);
  if (args.workload == "analytic_join") return std::make_unique<AnalyticJoin>(args);
  if (args.workload == "embedded_mixed") return std::make_unique<Mixed>(args, false);
  if (args.workload == "wire_mixed") return std::make_unique<Mixed>(args, true);
  return nullptr;
}

}  // namespace perfbench
