#include "daemon/daemon.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string_view>

#include "ima/ima.h"

namespace imon::daemon {

using engine::Database;
using engine::QueryResult;

namespace {

/// When a mirror's IMA table is read.
enum class Feed {
  kEveryPoll,   ///< on every poll
  kEveryFlush,  ///< once per flush window, on the poll that flushes
  kSampler,     ///< never over SQL: SampleMetricsHistory stages the rows
};

/// What a mirror keeps in the workload DB.
enum class Keep {
  /// Every flushed row, stamped; PurgeExpired drops rows past retention.
  kHistory,
  /// One current row per template, upserted by FlushTemplates and exempt
  /// from retention; its five src_* resume columns follow the IMA ones.
  kCurrent,
};

/// One wl_* mirror: wl_<x> is captured_at followed by imp_<x>'s columns.
/// A table with a seq column is polled past a cursor (`WHERE seq > N`),
/// one without is read whole.
struct Mirror {
  constexpr Mirror(std::string_view ima_table, Feed feed, Keep keep, bool raw)
      : ima(&ima::FindImaTable(ima_table)), feed(feed), keep(keep), raw(raw) {}
  const ima::ImaTable* ima;
  Feed feed;
  Keep keep;
  /// Raw per-execution rows: their volume per flush window drives the
  /// adaptive sampler.
  bool raw;
};

constexpr Mirror kMirrors[] = {
    // IMA table            read               keeps           raw
    {"imp_statements",      Feed::kEveryFlush, Keep::kHistory, false},
    {"imp_workload",        Feed::kEveryPoll,  Keep::kHistory, true},
    {"imp_references",      Feed::kEveryPoll,  Keep::kHistory, true},
    {"imp_tables",          Feed::kEveryFlush, Keep::kHistory, false},
    {"imp_attributes",      Feed::kEveryFlush, Keep::kHistory, false},
    {"imp_indexes",         Feed::kEveryFlush, Keep::kHistory, false},
    {"imp_statistics",      Feed::kEveryPoll,  Keep::kHistory, false},
    {"imp_metrics_history", Feed::kSampler,    Keep::kHistory, false},
    {"imp_templates",       Feed::kEveryFlush, Keep::kCurrent, false},
};
constexpr size_t kNumMirrors = std::size(kMirrors);

constexpr size_t MirrorOf(std::string_view ima_table) {
  size_t i = 0;
  while (kMirrors[i].ima->name != ima_table) ++i;
  return i;
}

constexpr ima::ImaColumn kCapturedAt[] = {{"captured_at", TypeId::kInt}};

// Daemon resume state, not workload data: the monitor incarnation the row
// was last flushed from and that incarnation's raw cumulative counters. A
// restarted daemon facing the SAME monitor restores its delta baseline
// from them instead of re-adding counts the previous daemon persisted.
constexpr ima::ImaColumn kResumeColumns[] = {
    {"src_id", TypeId::kInt},
    {"src_executions", TypeId::kInt},
    {"src_sampled", TypeId::kInt},
    {"src_actual", TypeId::kDouble},
    {"src_estimated", TypeId::kDouble}};

std::string WlName(const Mirror& m) {
  return "wl_" + std::string(m.ima->name + std::strlen("imp_"));
}

}  // namespace

std::vector<HistoryAlertRule> DefaultHistoryAlertRules() {
  std::vector<HistoryAlertRule> rules;
  {
    // Buffer-pool hit rate fell below 90% and stayed there for two
    // consecutive polls — the working set no longer fits, or a scan is
    // flooding the pool.
    HistoryAlertRule r;
    r.name = "bp_hit_rate_drop";
    r.series = "engine.cache_hit_ratio_ppm";
    r.resolution_seconds = 10;
    r.kind = HistoryAlertRule::Kind::kThreshold;
    r.cmp = HistoryAlertRule::Cmp::kBelow;
    r.limit = 900000;
    r.window_seconds = 60;
    r.sustain_polls = 2;
    r.message = "buffer pool hit ratio below 90% for consecutive polls";
    rules.push_back(std::move(r));
  }
  {
    // The adaptive sampler has been pinned below full capture for three
    // polls — flush pressure is sustained, raw history is being thinned.
    HistoryAlertRule r;
    r.name = "flush_pressure_sustained";
    r.series = "daemon.sample_rate";
    r.resolution_seconds = 10;
    r.kind = HistoryAlertRule::Kind::kThreshold;
    r.cmp = HistoryAlertRule::Cmp::kBelow;
    r.limit = 1000000;  // monitor::kSampleAllPpm
    r.window_seconds = 60;
    r.sustain_polls = 3;
    r.message = "daemon flush pressure sustained; raw sampling degraded";
    rules.push_back(std::move(r));
  }
  {
    // Two or more tuner rollbacks inside ten minutes: verification keeps
    // regressing — the analyzer and reality disagree.
    HistoryAlertRule r;
    r.name = "verification_regression_streak";
    r.series = "tuner.rolled_back";
    r.resolution_seconds = 600;
    r.kind = HistoryAlertRule::Kind::kDelta;
    r.cmp = HistoryAlertRule::Cmp::kAbove;
    r.limit = 1;
    r.window_seconds = 600;
    r.sustain_polls = 1;
    r.message = "tuner rolled back repeatedly within the window";
    rules.push_back(std::move(r));
  }
  {
    // The network server's request queue has stayed half-full (against
    // the default queue_depth of 256) across consecutive polls: the
    // executor pool is saturated and clients are beginning to see
    // ERROR(kResourceExhausted) backpressure rejects.
    HistoryAlertRule r;
    r.name = "server_queue_saturated";
    r.series = "server.queue_depth";
    r.resolution_seconds = 10;
    r.kind = HistoryAlertRule::Kind::kThreshold;
    r.cmp = HistoryAlertRule::Cmp::kAbove;
    r.limit = 128;
    r.window_seconds = 60;
    r.sustain_polls = 3;
    r.message = "server request queue saturated; executor pool overloaded";
    rules.push_back(std::move(r));
  }
  return rules;
}

Status CreateWorkloadSchema(Database* workload_db) {
  for (const Mirror& m : kMirrors) {
    std::span<const ima::ImaColumn> resume;
    if (m.keep == Keep::kCurrent) resume = kResumeColumns;
    IMON_RETURN_IF_ERROR(
        workload_db
            ->Execute(ima::CreateTableSql(
                WlName(m), {kCapturedAt, m.ima->columns, resume}))
            .status());
  }
  return Status::OK();
}

StorageDaemon::StorageDaemon(Database* monitored, Database* workload_db,
                             DaemonConfig config, const Clock* clock)
    : monitored_(monitored),
      workload_db_(workload_db),
      config_(config),
      clock_(clock != nullptr ? clock : RealClock::Instance()),
      buffers_(kNumMirrors),
      cursors_(kNumMirrors, 0) {}

StorageDaemon::~StorageDaemon() { Stop(); }

Status StorageDaemon::Initialize() {
  IMON_RETURN_IF_ERROR(CreateWorkloadSchema(workload_db_));
  poll_session_ = monitored_->CreateInternalSession();
  write_session_ = workload_db_->CreateInternalSession();
  // The daemon observes the monitored engine, so its own telemetry lands
  // in that engine's registry — one imp_metrics view covers both.
  metrics::MetricsRegistry* registry = monitored_->metrics();
  m_polls_ = registry->GetCounter("daemon.polls");
  m_poll_errors_ = registry->GetCounter("daemon.poll_errors");
  m_flushes_ = registry->GetCounter("daemon.flushes");
  m_rows_appended_ = registry->GetCounter("daemon.rows_appended");
  m_bytes_written_ = registry->GetCounter("daemon.bytes_written");
  m_purge_runs_ = registry->GetCounter("daemon.purge_runs");
  m_rows_purged_ = registry->GetCounter("daemon.rows_purged");
  m_alerts_raised_ = registry->GetCounter("daemon.alerts_raised");
  m_flush_batch_rows_ = registry->GetHistogram("daemon.flush_batch_rows");
  m_templates_flushed_ = registry->GetCounter("daemon.templates_flushed");
  m_sample_rate_ = registry->GetGauge("daemon.sample_rate");
  m_sample_rate_->Set(monitored_->monitor()->workload_sample_rate_ppm());
  return Status::OK();
}

void StorageDaemon::Start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread(&StorageDaemon::ThreadMain, this);
}

void StorageDaemon::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StorageDaemon::ThreadMain() {
  while (running_.load()) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_for(lock, config_.poll_interval,
                        [&] { return !running_.load(); });
    }
    if (!running_.load()) break;
    // PollOnce accounts its own failures (poll_errors); an errored cycle
    // must not stop the loop — the daemon recovers on the next wake-up.
    PollOnce().ok();
  }
  // Final flush so buffered data is not lost on shutdown.
  FlushNow().ok();
}

Result<std::vector<Row>> StorageDaemon::ReadIma(size_t mirror) {
  const ima::ImaTable& table = *kMirrors[mirror].ima;
  int64_t& cursor = cursors_[mirror];
  std::string sql = std::string("SELECT * FROM ") + table.name;
  if (table.seq_column >= 0) sql += " WHERE seq > " + std::to_string(cursor);
  IMON_ASSIGN_OR_RETURN(QueryResult r,
                        monitored_->Execute(sql, poll_session_.get()));
  if (table.seq_column >= 0) {
    for (const Row& row : r.rows) {
      cursor = std::max(cursor, row[table.seq_column].AsInt());
    }
  }
  return std::move(r.rows);
}

void StorageDaemon::set_poll_fault_hook(std::function<Status()> hook) {
  std::lock_guard<std::mutex> poll_lock(poll_mutex_);
  poll_fault_hook_ = std::move(hook);
}

Status StorageDaemon::PollOnce() {
  // Whole cycles are serialized: the seq cursors and the shared internal
  // poll session admit one poller at a time. The row buffers are NOT
  // locked while the polling SQL runs against the monitored engine.
  std::lock_guard<std::mutex> poll_lock(poll_mutex_);
  Status s = PollCycle();
  if (!s.ok()) {
    if (m_poll_errors_ != nullptr) m_poll_errors_->Add();
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.poll_errors;
  }
  return s;
}

Status StorageDaemon::PollCycle() {
  if (poll_fault_hook_) {
    IMON_RETURN_IF_ERROR(poll_fault_hook_());
  }

  // A fresh statistics sample accompanies every poll.
  monitored_->SampleSystemStats();

  // Flight recorder: every registered metric lands in the history rings
  // on the poll cadence, then the trend alert rules run over the rollups.
  int64_t now = clock_->NowMicros();
  SampleMetricsHistory(now);
  EvaluateHistoryAlerts(now);

  // A failed read leaves polls_since_flush_ alone, so a flush that was
  // due stays due on the next poll.
  bool flush_due = polls_since_flush_ + 1 >= config_.polls_per_flush;
  std::vector<std::vector<Row>> read(kNumMirrors);
  for (size_t i = 0; i < kNumMirrors; ++i) {
    Feed feed = kMirrors[i].feed;
    if (feed == Feed::kEveryPoll || (feed == Feed::kEveryFlush && flush_due)) {
      IMON_ASSIGN_OR_RETURN(read[i], ReadIma(i));
    }
  }
  ++polls_since_flush_;

  // Rows are buffered unstamped; FlushNow stamps the whole window with
  // one captured_at when it writes, so a flush is one timestamp read and
  // one multi-row append per table instead of per-row work here.
  {
    std::lock_guard<std::mutex> lock(buffer_mutex_);
    for (size_t i = 0; i < kNumMirrors; ++i) BufferRows(std::move(read[i]), i);
  }
  if (m_polls_ != nullptr) m_polls_->Add();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.polls;
  }
  if (flush_due) {
    polls_since_flush_ = 0;
    IMON_RETURN_IF_ERROR(FlushNow());
  }
  return Status::OK();
}

void StorageDaemon::SampleMetricsHistory(int64_t now_micros) {
  metrics::MetricsHistory* history = monitored_->metrics_history();
  history->Sample(*monitored_->metrics(), now_micros);
  // Derived series: the buffer-pool hit ratio as ppm (the raw snapshot
  // exposes only the two read counters; alert rules want the ratio).
  monitor::SystemSnapshot snap = monitored_->GatherSystemSnapshot();
  int64_t hit_ppm =
      snap.cache_logical_reads > 0
          ? 1000000 - snap.cache_physical_reads * 1000000 /
                          snap.cache_logical_reads
          : 1000000;
  history->Record("engine.cache_hit_ratio_ppm", hit_ppm, now_micros);

  // Stage completed raw ticks for the next flush; the cursor guarantees
  // each tick is persisted exactly once.
  std::vector<metrics::HistorySample> done =
      history->SnapshotRawCompletedSince(last_history_tick_, now_micros);
  if (done.empty()) return;
  std::vector<Row> rows;
  rows.reserve(done.size());
  for (const metrics::HistorySample& s : done) {
    last_history_tick_ = std::max(last_history_tick_, s.tick_micros);
    rows.push_back(ima::MetricsHistoryRow(s));
  }
  std::lock_guard<std::mutex> lock(buffer_mutex_);
  BufferRows(std::move(rows), MirrorOf("imp_metrics_history"));
}

void StorageDaemon::BufferRows(std::vector<Row> rows, size_t mirror) {
  std::vector<Row>& buffer = buffers_[mirror];
  if (buffer.empty()) {
    buffer = std::move(rows);
    return;
  }
  buffer.reserve(buffer.size() + rows.size());
  for (Row& row : rows) buffer.push_back(std::move(row));
}

void StorageDaemon::EvaluateHistoryAlerts(int64_t now_micros) {
  const metrics::MetricsHistory* history = monitored_->metrics_history();
  std::vector<engine::AlertEvent> fired;
  engine::AlertHandler handler;
  {
    std::lock_guard<std::mutex> lock(alert_mutex_);
    handler = alert_handler_;
    for (size_t i = 0; i < alert_rules_.size(); ++i) {
      const HistoryAlertRule& rule = alert_rules_[i];
      HistoryAlertState& st = alert_states_[i];
      st.last_eval_micros = now_micros;
      metrics::HistoryAggregate agg = history->Aggregate(
          rule.series, rule.resolution_seconds,
          now_micros -
              static_cast<int64_t>(rule.window_seconds) * 1'000'000,
          now_micros);
      if (agg.empty()) {
        // No data is not a breach: an unsampled series keeps whatever
        // state it had but never accrues toward firing.
        st.breach_polls = 0;
        st.firing = false;
        continue;
      }
      st.value = rule.kind == HistoryAlertRule::Kind::kDelta
                     ? agg.max - agg.min
                     : agg.last;
      bool breach = rule.cmp == HistoryAlertRule::Cmp::kAbove
                        ? st.value > rule.limit
                        : st.value < rule.limit;
      if (!breach) {
        st.breach_polls = 0;
        st.firing = false;
        continue;
      }
      ++st.breach_polls;
      if (!st.firing && st.breach_polls >= rule.sustain_polls) {
        st.firing = true;
        ++st.fire_count;
        if (st.first_fired_micros == 0) st.first_fired_micros = now_micros;
        st.last_fired_micros = now_micros;
        engine::AlertEvent e;
        e.trigger_name = rule.name;
        e.table = "imp_metrics_history";
        e.message = rule.message;
        fired.push_back(std::move(e));
      }
    }
  }
  if (fired.empty()) return;
  if (m_alerts_raised_ != nullptr) {
    m_alerts_raised_->Add(static_cast<int64_t>(fired.size()));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.alerts_raised += static_cast<int64_t>(fired.size());
  }
  if (handler) {
    for (const engine::AlertEvent& e : fired) handler(e);
  }
}

void StorageDaemon::AddHistoryAlertRule(HistoryAlertRule rule) {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  HistoryAlertState st;
  st.rule = rule.name;
  st.series = rule.series;
  st.threshold = rule.limit;
  st.message = rule.message;
  alert_states_.push_back(std::move(st));
  alert_rules_.push_back(std::move(rule));
}

std::vector<HistoryAlertState> StorageDaemon::SnapshotAlerts() const {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  return alert_states_;
}

Status StorageDaemon::AppendRows(const std::string& wl_table,
                                 const Value& stamp,
                                 std::vector<Row>* rows) {
  if (rows->empty()) return Status::OK();
  // One multi-row INSERT for the whole buffer: the flush window hits the
  // workload DB as a single statement (one parse, one table lock, one
  // implicit transaction) instead of per-chunk round trips.
  std::string stamp_literal = SqlLiteral(stamp);
  std::string stamp_serialized;
  stamp.SerializeTo(&stamp_serialized);
  int64_t bytes = 0;
  std::string sql = "INSERT INTO " + wl_table + " VALUES ";
  for (size_t i = 0; i < rows->size(); ++i) {
    if (i > 0) sql += ", ";
    const Row& row = (*rows)[i];
    AppendSqlTuple(row, &sql, stamp_literal);
    std::string serialized;
    SerializeRow(row, &serialized);
    bytes += static_cast<int64_t>(serialized.size() + stamp_serialized.size());
  }
  auto r = workload_db_->Execute(sql, write_session_.get());
  IMON_RETURN_IF_ERROR(r.status());
  if (m_rows_appended_ != nullptr) {
    m_rows_appended_->Add(static_cast<int64_t>(rows->size()));
  }
  if (m_bytes_written_ != nullptr) m_bytes_written_->Add(bytes);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.rows_written += static_cast<int64_t>(rows->size());
    stats_.bytes_written_estimate += bytes;
  }
  rows->clear();
  return Status::OK();
}

Status StorageDaemon::FlushNow() {
  {
    std::lock_guard<std::mutex> lock(buffer_mutex_);
    // Stamp the whole window once: every row persisted by this flush
    // shares one captured_at, read here rather than at buffering time.
    Value stamp = Value::Int(clock_->NowMicros());
    // Raw-row volume of this window drives the adaptive sampler; count it
    // before the appends clear the buffers.
    int64_t total_rows = 0;
    int64_t raw_window_rows = 0;
    for (size_t i = 0; i < kNumMirrors; ++i) {
      int64_t rows = static_cast<int64_t>(buffers_[i].size());
      total_rows += rows;
      if (kMirrors[i].raw) raw_window_rows += rows;
    }
    for (size_t i = 0; i < kNumMirrors; ++i) {
      IMON_RETURN_IF_ERROR(kMirrors[i].keep == Keep::kHistory
                               ? AppendRows(WlName(kMirrors[i]), stamp,
                                            &buffers_[i])
                               : FlushTemplates(stamp, &buffers_[i]));
    }
    AdaptSampleRate(raw_window_rows);
    if (m_flushes_ != nullptr) m_flushes_->Add();
    if (m_flush_batch_rows_ != nullptr) {
      m_flush_batch_rows_->RecordAt(total_rows, clock_->NowMicros());
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.flushes;
    }
    if (++flushes_since_purge_ >= config_.flushes_per_purge) {
      flushes_since_purge_ = 0;
      IMON_RETURN_IF_ERROR(PurgeExpired());
    }
  }
  // The listener (the tuning orchestrator's Tick) runs its own SQL on
  // the workload DB, so it must never execute under buffer_mutex_.
  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    listener = flush_listener_;
  }
  if (listener) listener();
  return Status::OK();
}

Status StorageDaemon::FlushTemplates(const Value& stamp,
                                     std::vector<Row>* rows) {
  if (rows->empty()) return Status::OK();
  // Buffered imp_templates rows carry the monitor's CUMULATIVE counts;
  // when a window caught the same fingerprint more than once, only the
  // latest (max seq) row matters.
  std::unordered_map<uint64_t, const Row*> latest;
  std::vector<uint64_t> order;
  for (const Row& row : *rows) {
    uint64_t fp = static_cast<uint64_t>(row[1].AsInt());
    auto [it, inserted] = latest.emplace(fp, &row);
    if (inserted) {
      order.push_back(fp);
    } else if (row[0].AsInt() > (*it->second)[0].AsInt()) {
      it->second = &row;
    }
  }

  std::vector<Row> out;
  out.reserve(order.size());
  std::string del = "DELETE FROM wl_templates WHERE fingerprint IN (";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) del += ", ";
    del += std::to_string(static_cast<int64_t>(order[i]));
  }
  del += ")";

  for (uint64_t fp : order) {
    const Row& row = *latest[fp];
    auto [sit, first_sight] = template_state_.try_emplace(fp);
    TemplateFlushState& st = sit->second;
    if (first_sight) {
      // A previous daemon run may have persisted this template; fold its
      // row in as the base so counts accumulate across restarts.
      auto r = workload_db_->Execute(
          "SELECT executions, sampled_count, total_actual, total_estimated, "
          "first_seen, src_id, src_executions, src_sampled, src_actual, "
          "src_estimated FROM wl_templates WHERE fingerprint = " +
              std::to_string(static_cast<int64_t>(fp)),
          write_session_.get());
      IMON_RETURN_IF_ERROR(r.status());
      if (!r->rows.empty()) {
        const Row& p = r->rows[0];
        st.persisted_executions = p[0].AsInt();
        st.persisted_sampled = p[1].AsInt();
        st.persisted_actual = p[2].AsDouble();
        st.persisted_estimated = p[3].AsDouble();
        st.persisted_first_seen = p[4].AsInt();
        if (static_cast<uint64_t>(p[5].AsInt()) ==
            monitored_->monitor()->incarnation()) {
          // Daemon-only restart: the monitor kept counting, and the
          // persisted totals already include its state up to src_*.
          // Resume the deltas there — folding the full cumulative count
          // again would double-book everything the previous daemon run
          // flushed.
          st.last_executions = p[6].AsInt();
          st.last_sampled = p[7].AsInt();
          st.last_actual = p[8].AsDouble();
          st.last_estimated = p[9].AsDouble();
        }
      }
    }
    // Delta since the last flush. A current value below the last one
    // means the monitor reset (restart or template eviction); the whole
    // current count is then new relative to what was persisted.
    auto delta_i = [](int64_t cur, int64_t* last) {
      int64_t d = cur >= *last ? cur - *last : cur;
      *last = cur;
      return d;
    };
    auto delta_d = [](double cur, double* last) {
      double d = cur >= *last ? cur - *last : cur;
      *last = cur;
      return d;
    };
    st.persisted_executions += delta_i(row[5].AsInt(), &st.last_executions);
    st.persisted_sampled += delta_i(row[6].AsInt(), &st.last_sampled);
    st.persisted_actual += delta_d(row[7].AsDouble(), &st.last_actual);
    st.persisted_estimated += delta_d(row[8].AsDouble(), &st.last_estimated);
    int64_t first_seen = row[9].AsInt();
    if (st.persisted_first_seen == 0 || first_seen < st.persisted_first_seen) {
      st.persisted_first_seen = first_seen;
    }
    Row o = row;  // text/sample/refs/quantiles: latest monitor view wins
    o[5] = Value::Int(st.persisted_executions);
    o[6] = Value::Int(st.persisted_sampled);
    o[7] = Value::Double(st.persisted_actual);
    o[8] = Value::Double(st.persisted_estimated);
    o[9] = Value::Int(st.persisted_first_seen);
    // Resume state: which monitor these raw cumulative counts came from.
    // Taken from `row` (the monitor's view), not `o` (already rebased).
    o.push_back(
        Value::Int(static_cast<int64_t>(monitored_->monitor()->incarnation())));
    o.push_back(row[5]);
    o.push_back(row[6]);
    o.push_back(row[7]);
    o.push_back(row[8]);
    out.push_back(std::move(o));
  }

  // Upsert: drop the fingerprints' current rows, append the new state as
  // one multi-row INSERT — wl_templates always holds exactly one row per
  // template.
  auto d = workload_db_->Execute(del, write_session_.get());
  IMON_RETURN_IF_ERROR(d.status());
  int64_t upserts = static_cast<int64_t>(out.size());
  IMON_RETURN_IF_ERROR(AppendRows("wl_templates", stamp, &out));
  if (m_templates_flushed_ != nullptr) m_templates_flushed_->Add(upserts);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.templates_flushed += upserts;
  }
  rows->clear();
  return Status::OK();
}

void StorageDaemon::AdaptSampleRate(int64_t raw_rows_in_window) {
  if (config_.flush_pressure_rows <= 0) return;
  monitor::Monitor* m = monitored_->monitor();
  uint64_t cur = m->workload_sample_rate_ppm();
  uint64_t next = cur;
  if (raw_rows_in_window > config_.flush_pressure_rows) {
    // Multiplicative decrease toward the volume the flush path can hold:
    // the observed window was already sampled at `cur`, so scaling by
    // threshold/observed targets the threshold directly.
    next = cur * static_cast<uint64_t>(config_.flush_pressure_rows) /
           static_cast<uint64_t>(raw_rows_in_window);
  } else if (cur < monitor::kSampleAllPpm) {
    // Pressure gone: recover toward full capture, doubling per flush.
    next = cur * 2;
  }
  next = std::max<uint64_t>(next, config_.min_sample_rate_ppm);
  next = std::min<uint64_t>(next, monitor::kSampleAllPpm);
  if (next != cur) m->SetWorkloadSampleRate(static_cast<uint32_t>(next));
  if (m_sample_rate_ != nullptr) {
    m_sample_rate_->Set(static_cast<int64_t>(next));
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.sample_rate_ppm = static_cast<int64_t>(next);
}

void StorageDaemon::set_flush_listener(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  flush_listener_ = std::move(listener);
}

Status StorageDaemon::PurgeExpired() {
  int64_t cutoff =
      clock_->NowMicros() -
      std::chrono::duration_cast<std::chrono::microseconds>(config_.retention)
          .count();
  int64_t purged = 0;
  for (const Mirror& m : kMirrors) {
    if (m.keep != Keep::kHistory) continue;
    auto r = workload_db_->Execute(
        "DELETE FROM " + WlName(m) + " WHERE captured_at <= " +
            std::to_string(cutoff),
        write_session_.get());
    IMON_RETURN_IF_ERROR(r.status());
    purged += r->affected_rows;
  }
  if (m_purge_runs_ != nullptr) m_purge_runs_->Add();
  if (m_rows_purged_ != nullptr) m_rows_purged_->Add(purged);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.rows_purged += purged;
  return Status::OK();
}

Status StorageDaemon::AddAlertRule(const std::string& name,
                                   const std::string& wl_table,
                                   const std::string& when_predicate,
                                   const std::string& message) {
  auto r = workload_db_->Execute(
      "CREATE TRIGGER " + name + " AFTER INSERT ON " + wl_table + " WHEN " +
          when_predicate + " RAISE " + SqlLiteral(Value::Text(message)),
      write_session_.get());
  return r.status();
}

void StorageDaemon::SetAlertHandler(engine::AlertHandler handler) {
  {
    // History-rule transitions invoke the handler directly on the poll
    // path (EvaluateHistoryAlerts does its own accounting).
    std::lock_guard<std::mutex> lock(alert_mutex_);
    alert_handler_ = handler;
  }
  workload_db_->SetAlertHandler(
      [this, handler = std::move(handler)](const engine::AlertEvent& e) {
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.alerts_raised;
        }
        if (m_alerts_raised_ != nullptr) m_alerts_raised_->Add();
        if (handler) handler(e);
      });
}

DaemonStats StorageDaemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

namespace {

using enum TypeId;

constexpr ima::ImaColumn kAlertColumns[] = {
    {"rule", kText}, {"series", kText}, {"state", kText}, {"value", kInt},
    {"threshold", kInt}, {"breach_polls", kInt}, {"fire_count", kInt},
    {"first_fired_micros", kInt}, {"last_fired_micros", kInt},
    {"last_eval_micros", kInt}, {"message", kText}};
constexpr ima::ImaTable kAlerts = {"imp_alerts", kAlertColumns};

Row AlertRow(const HistoryAlertState& s) {
  return {Value::Text(s.rule), Value::Text(s.series),
          Value::Text(s.firing ? "firing" : "clear"), Value::Int(s.value),
          Value::Int(s.threshold), Value::Int(s.breach_polls),
          Value::Int(s.fire_count), Value::Int(s.first_fired_micros),
          Value::Int(s.last_fired_micros), Value::Int(s.last_eval_micros),
          Value::Text(s.message)};
}

}  // namespace

Status RegisterAlertsTable(engine::Database* db, StorageDaemon* daemon) {
  if (db == nullptr || daemon == nullptr) {
    return Status::InvalidArgument("null database or daemon");
  }
  return ima::RegisterTable(db, kAlerts, [daemon](int64_t) {
    return ima::Materialize(daemon->SnapshotAlerts(), AlertRow);
  });
}

}  // namespace imon::daemon
