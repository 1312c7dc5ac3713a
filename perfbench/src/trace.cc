// Traced run: per-layer numbers for one workload, measured apart from
// the end-to-end run.
//
//  1. An untraced closed-loop phase of the workload supplies the counts:
//     buffer-pool, lock-manager and plan-cache deltas.
//  2. A sample of the workload's own statements is replayed. Each runs
//     once through Database::Execute (the parent span) and once through
//     each layer's public functions (child spans); each SELECT runs the
//     layer calls once more untraced, for the tracing overhead. Spans are
//     kept in memory and written out as JSON lines at the end.
//  3. The storage daemon is polled from this thread during the replay
//     and flushed after it; server and analyzer are timed through their
//     public calls.

#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "analyzer/analyzer.h"
#include "common/clock.h"
#include "exec/worker_pool.h"
#include "layers.h"
#include "server/client.h"

namespace perfbench {

using imon::MonotonicNanos;
using imon::engine::Database;

namespace {

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int64_t parent = -1;  ///< index into the span list; -1 = root
  int64_t stmt = 0;
};

/// Per-name duration sums over the replay.
struct SpanTotals {
  std::map<std::string, std::pair<int64_t, int64_t>> by_name;  // sum, count
  void Add(const std::string& name, int64_t nanos) {
    auto& [sum, count] = by_name[name];
    sum += nanos;
    ++count;
  }
  double MeanMicros(const std::string& name) const {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.second == 0) return 0;
    return static_cast<double>(it->second.first) /
           static_cast<double>(it->second.second) / 1000.0;
  }
};

/// (count, sum) of one registry histogram.
std::pair<int64_t, int64_t> HistogramTotals(Database* db, const std::string& name) {
  for (const auto& h : db->metrics()->SnapshotHistograms()) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {0, 0};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::vector<int64_t> child_nanos(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_nanos[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"stmt\": " << s.stmt << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
        << ", \"parent\": " << s.parent
        << ", \"self_ns\": " << (s.end - s.start - child_nanos[i]) << "}\n";
  }
}

}  // namespace

void RunTraced(Workload* w, const Args& args, Report* report) {
  imon::Status s = w->Setup();
  if (s.ok()) s = w->PrepareChecks();
  if (!s.ok()) {
    report->Fail("setup: " + s.ToString());
    return;
  }
  Database* db = w->db();

  // -- 1. untraced phase: counts ---------------------------------------------
  auto bp0 = db->buffer_pool()->stats();
  auto lk0 = db->lock_manager()->stats();
  auto pc0 = db->plan_cache_stats();
  auto requests0 = HistogramTotals(db, "server.request_micros");
  Phase phase;
  w->Run(std::max(1.0, args.seconds / 2), &phase, report);
  auto bp1 = db->buffer_pool()->stats();
  auto lk1 = db->lock_manager()->stats();
  auto pc1 = db->plan_cache_stats();
  double db_statements = static_cast<double>(phase.db_statements);
  report->attempted += phase.attempted;
  report->failed += phase.failed;

  // -- 2. replay, with the daemon polled from this thread ------------------------
  std::vector<Span> spans;
  std::unique_ptr<Database> own_wl_db;
  std::unique_ptr<imon::daemon::StorageDaemon> own_daemon;
  imon::daemon::StorageDaemon* daemon = w->daemon();
  Database* wl_db = w->workload_db();
  if (daemon == nullptr) {
    DbKnobs knobs;
    knobs.name = "workload";
    knobs.monitor = false;
    own_wl_db = std::make_unique<Database>(MakeDbOptions(knobs));
    own_daemon = std::make_unique<imon::daemon::StorageDaemon>(
        db, own_wl_db.get(), MakeDaemonConfig());
    if (!own_daemon->Initialize().ok()) report->Fail("replay: daemon init failed");
    daemon = own_daemon.get();
    wl_db = own_wl_db.get();
  }
  // Drain what the untraced phase left: poll until a flush happens, so
  // the timed polls below are plain polls and the timed flush writes
  // exactly the replay's rows.
  for (int p = 0, flushes = static_cast<int>(daemon->stats().flushes);
       p <= MakeDaemonConfig().polls_per_flush &&
       daemon->stats().flushes == flushes;
       ++p) {
    if (!daemon->PollOnce().ok()) report->Fail("replay: daemon poll failed");
  }
  std::vector<double> poll_ms;
  auto timed_poll = [&] {
    int64_t t0 = MonotonicNanos();
    if (!daemon->PollOnce().ok()) report->Fail("replay: daemon poll failed");
    int64_t t1 = MonotonicNanos();
    poll_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    spans.push_back({"daemon.poll", t0, t1, -1, -1});
  };

  std::vector<SampleStatement> sample = w->Sample();
  imon::exec::WorkerPool pool(w->replay_lanes());
  imon::metrics::MetricsRegistry replay_metrics;
  imon::monitor::Monitor replay_monitor(
      MakeDbOptions(DbKnobs{}).monitor, imon::RealClock::Instance());

  // Tracing overhead: every replayed SELECT also runs once untraced (the
  // same layer calls on a second monitor and registry, with no spans), in
  // alternating order, and the two times are compared.
  imon::metrics::MetricsRegistry untraced_metrics;
  imon::monitor::Monitor untraced_monitor(
      MakeDbOptions(DbKnobs{}).monitor, imon::RealClock::Instance());
  int64_t traced_nanos = 0;
  int64_t untraced_nanos = 0;

  SpanTotals totals;
  int64_t replayed_selects = 0;
  int64_t rows_examined = 0;
  int64_t unattributed_nanos = 0;
  const size_t quarter = std::max<size_t>(1, sample.size() / 4);
  for (size_t i = 0; i < sample.size(); ++i) {
    const SampleStatement& st = sample[i];
    if (i > 0 && i % quarter == 0 && poll_ms.size() < 3) timed_poll();
    int64_t hits_before = db->plan_cache_stats().hits;
    int64_t e0 = MonotonicNanos();
    auto r = db->Execute(st.sql);
    int64_t e1 = MonotonicNanos();
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      report->Fail("replay: " + st.sql + ": " + r.status().ToString());
      continue;
    }
    w->NoteIssued(1);
    bool cache_hit = db->plan_cache_stats().hits > hits_before;
    if (!st.is_select) {
      report->Check(r->affected_rows == 1,
                    "replay: `" + st.sql + "` affected " +
                        std::to_string(r->affected_rows) + " rows");
    }

    // The traced replay: layer spans under a Database::Execute parent.
    // Which replayed layers the engine path itself ran: a plan-cache hit
    // skips parse, bind, plan and compile; DML execution has no public
    // per-layer entry point and stays in the residual.
    LayerRun run;
    int64_t attributed = 0;
    auto traced = [&] {
      int64_t t0 = MonotonicNanos();
      run = st.is_select ? ReplaySelect(db, st.sql, w->replay_lanes(), &pool,
                                        &replay_metrics, &replay_monitor, true)
                         : ReplayWrite(st.sql, &replay_monitor);
      if (!run.ok) return;
      std::set<std::string> engine_path = {"exec.execute", "monitor.commit"};
      if (!cache_hit) {
        engine_path.insert({"sql.parse", "optimizer.bind", "optimizer.plan",
                            "exec.compile"});
      }
      int64_t engine_id = static_cast<int64_t>(spans.size());
      spans.push_back({"engine.execute", e0, e1, -1, static_cast<int64_t>(i)});
      int64_t normalize_id = -1;
      int64_t monitor_id = -1;
      for (const LayerSpan& ls : run.spans) {
        std::string name = ls.name;
        int64_t id = static_cast<int64_t>(spans.size());
        int64_t parent = -1;
        if (engine_path.count(name) > 0) {
          parent = engine_id;
          attributed += ls.end - ls.start;
        }
        if (name == "sql.normalize") normalize_id = id;
        if (name == "monitor.commit") monitor_id = id;
        spans.push_back({name, ls.start, ls.end, parent, static_cast<int64_t>(i)});
        totals.Add(name, ls.end - ls.start);
      }
      // Commit normalizes the text itself: that span is a part of commit's.
      if (normalize_id >= 0) spans[static_cast<size_t>(normalize_id)].parent = monitor_id;
      if (st.is_select) traced_nanos += MonotonicNanos() - t0;
    };
    auto untraced = [&] {
      int64_t t0 = MonotonicNanos();
      LayerRun plain = ReplaySelect(db, st.sql, w->replay_lanes(), &pool,
                                    &untraced_metrics, &untraced_monitor, false);
      untraced_nanos += MonotonicNanos() - t0;
      if (!plain.ok) report->Fail("untraced replay: " + st.sql + ": " + plain.error);
    };
    if (st.is_select && i % 2 == 1) untraced();
    traced();
    if (st.is_select && i % 2 == 0) untraced();
    if (!run.ok) {
      report->Fail("replay layers: " + st.sql + ": " + run.error);
      continue;
    }
    if (st.is_select) {
      report->Check(run.digest == ResultDigest(*r),
                    "replay: layer-by-layer result differs from "
                    "Database::Execute for " + st.sql);
      uint64_t reference = 0;
      if (w->ReferenceDigest(st.sql, &reference)) {
        report->Check(run.digest == reference,
                      "replay: result differs from the serial reference for " +
                          st.sql);
      }
      totals.Add("engine.execute", e1 - e0);
      unattributed_nanos += (e1 - e0) - attributed;
      rows_examined += run.rows_examined;
      ++replayed_selects;
    }
  }

  int64_t rows_before = daemon->stats().rows_written;
  int64_t f0 = MonotonicNanos();
  if (!daemon->FlushNow().ok()) report->Fail("replay: daemon flush failed");
  int64_t flush_nanos = MonotonicNanos() - f0;
  spans.push_back({"daemon.flush", f0, f0 + flush_nanos, -1, -1});
  int64_t rows_flushed = daemon->stats().rows_written - rows_before;

  // -- 3. server -----------------------------------------------------------------
  std::unique_ptr<imon::server::Server> own_server;
  imon::server::Server* server = w->server();
  if (server == nullptr) {
    own_server = std::make_unique<imon::server::Server>(db, MakeServerOptions());
    if (!own_server->Start().ok()) report->Fail("replay: server failed to start");
    server = own_server.get();
  }
  std::vector<double> remote_us;
  std::vector<double> embedded_us;
  int64_t queue_depth_max = phase.queue_depth_max;
  {
    imon::server::Client client;
    if (!client.Connect("127.0.0.1", server->port()).ok()) {
      report->Fail("replay: client failed to connect");
    }
    auto* depth = db->metrics()->GetGauge("server.queue_depth");
    size_t n = 0;
    for (const SampleStatement& st : sample) {
      if (!st.is_select || !client.connected()) continue;
      if (++n > (args.smoke ? 20u : 400u)) break;
      // Alternate which side runs first, so neither always finds the
      // other's pages in the buffer pool.
      imon::Result<imon::server::WireResult> remote = imon::Status::Internal("not run");
      imon::Result<imon::engine::QueryResult> local = imon::Status::Internal("not run");
      int64_t remote_nanos = 0;
      int64_t local_nanos = 0;
      for (int side = 0; side < 2; ++side) {
        int64_t t0 = MonotonicNanos();
        if ((side + n) % 2 == 0) {
          remote = client.Execute(st.sql);
          remote_nanos = MonotonicNanos() - t0;
        } else {
          local = db->Execute(st.sql);
          local_nanos = MonotonicNanos() - t0;
        }
      }
      queue_depth_max = std::max(queue_depth_max, depth->Value());
      report->attempted += 2;
      if (!remote.ok() || !local.ok()) {
        report->failed += 2;
        report->Fail("replay: server comparison failed for " + st.sql);
        continue;
      }
      w->NoteIssued(2);
      report->Check(ResultDigest(remote->columns, remote->rows) ==
                        ResultDigest(*local),
                    "replay: remote result differs from embedded for " + st.sql);
      remote_us.push_back(static_cast<double>(remote_nanos) / 1000.0);
      embedded_us.push_back(static_cast<double>(local_nanos) / 1000.0);
    }
    client.Disconnect();
  }
  auto requests1 = HistogramTotals(db, "server.request_micros");
  if (own_server != nullptr) own_server->Shutdown();

  // The workload's own checks run before the analyzer, whose statistics
  // recommendations are applied to the monitored engine.
  w->FinalChecks(report);

  // -- 5. analyzer ---------------------------------------------------------------
  imon::analyzer::Analyzer analyzer(db, wl_db);
  int64_t a0 = MonotonicNanos();
  auto analysis = analyzer.Analyze();
  double analyze_ms = static_cast<double>(MonotonicNanos() - a0) / 1e6;
  int64_t recommendations = 0;
  if (!analysis.ok()) {
    report->Fail("replay: analyzer failed: " + analysis.status().ToString());
  } else {
    recommendations = static_cast<int64_t>(analysis->recommendations.size());
  }

  WriteSpans(args.trace_out, spans);

  // -- metrics -------------------------------------------------------------------
  double selects = static_cast<double>(replayed_selects);
  report->Metric("sql.parse_us", totals.MeanMicros("sql.parse"), "us");
  report->Metric("sql.normalize_us", totals.MeanMicros("sql.normalize"), "us");
  report->Metric("optimizer.bind_us", totals.MeanMicros("optimizer.bind"), "us");
  report->Metric("optimizer.plan_us", totals.MeanMicros("optimizer.plan"), "us");
  report->Metric("exec.compile_us", totals.MeanMicros("exec.compile"), "us");
  report->Metric("exec.execute_us", totals.MeanMicros("exec.execute"), "us");
  report->Metric("exec.rows_examined_per_stmt",
                 Ratio(static_cast<double>(rows_examined), selects), "rows/stmt");
  report->Metric(
      "exec.morsels_per_stmt",
      Ratio(static_cast<double>(
                replay_metrics.GetCounter("exec.morsels_total")->Value()),
            selects),
      "morsels/stmt");
  report->Metric("storage.bp_hit_ratio",
                 1.0 - Ratio(static_cast<double>(bp1.physical_reads - bp0.physical_reads),
                             static_cast<double>(bp1.logical_reads - bp0.logical_reads)),
                 "ratio");
  report->Metric("storage.physical_reads_per_stmt",
                 Ratio(static_cast<double>(bp1.physical_reads - bp0.physical_reads),
                       db_statements),
                 "pages/stmt");
  report->Metric("txn.lock_waits_per_kstmt",
                 1000.0 * Ratio(static_cast<double>(lk1.total_waits - lk0.total_waits),
                                db_statements),
                 "waits/kstmt");
  report->Metric("monitor.commit_us", totals.MeanMicros("monitor.commit"), "us");
  report->Metric("monitor.sample_rate_ppm",
                 static_cast<double>(db->monitor()->workload_sample_rate_ppm()),
                 "ppm");
  report->Metric("engine.execute_us", totals.MeanMicros("engine.execute"), "us");
  report->Metric("engine.unattributed_us",
                 Ratio(static_cast<double>(unattributed_nanos), selects) / 1000.0,
                 "us");
  report->Metric("engine.plan_cache_hit_ratio",
                 Ratio(static_cast<double>(pc1.hits - pc0.hits),
                       static_cast<double>(pc1.hits - pc0.hits + pc1.misses -
                                           pc0.misses)),
                 "ratio");
  report->Metric("server.roundtrip_overhead_us",
                 Median(remote_us) - Median(embedded_us), "us");
  report->Metric("server.request_mean_us",
                 Ratio(static_cast<double>(requests1.second - requests0.second),
                       static_cast<double>(requests1.first - requests0.first)),
                 "us");
  report->Metric("server.queue_depth_max", static_cast<double>(queue_depth_max),
                 "count");
  report->Metric("daemon.poll_ms", Median(poll_ms), "ms");
  report->Metric("daemon.flush_ms", static_cast<double>(flush_nanos) / 1e6, "ms");
  report->Metric("daemon.rows_written_per_s",
                 Ratio(static_cast<double>(rows_flushed), Seconds(flush_nanos)),
                 "rows/s");
  report->Metric("analyzer.analyze_ms", analyze_ms, "ms");
  report->Metric("analyzer.recommendations", static_cast<double>(recommendations),
                 "count");
  report->Metric("trace.overhead_pct",
                 100.0 * (Ratio(static_cast<double>(traced_nanos),
                                static_cast<double>(untraced_nanos)) -
                          1.0),
                 "%");
  w->Teardown();
}

}  // namespace perfbench
