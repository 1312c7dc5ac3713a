// The storage daemon (paper §IV-B).
//
// "Data storage is performed by a lightweight daemon running in the
//  background. The tool periodically wakes up and queries the IMA
//  database to get the newest data ... and then appends the collected
//  data to the workload database [with] a timestamp to allow trend
//  analysis ... disk accesses are performed only every few minutes ...
//  all entries are kept for seven days by default."
//
// The daemon reads the monitored engine's IMA virtual tables over plain
// SQL (internal session, so the polling itself is not recorded), buffers
// the rows unstamped, and every `polls_per_flush` polls flushes them to
// the workload DB, an ordinary database instance with the wl_* schema.
// That schema is derived from the IMA definitions (ima.h): one mirror
// table in daemon.cc names each mirrored IMA table, when it is read and
// what the workload DB keeps of it, and wl_<x> is captured_at followed by
// imp_<x>'s columns (wl_templates adds five src_* resume columns).
// A flush stamps the whole window with one captured_at and appends each
// table's buffer in a single multi-row INSERT (rows per flush is
// recorded in the daemon.flush_batch_rows histogram). Retention purging
// and trigger-based DBA alerting run on flush.

#ifndef IMON_DAEMON_DAEMON_H_
#define IMON_DAEMON_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/database.h"

namespace imon::daemon {

struct DaemonConfig {
  /// Wake-up period. Paper default: 30 s for up to 1000 statements.
  std::chrono::milliseconds poll_interval{30000};
  /// Disk is touched only every Nth poll ("every few minutes").
  int polls_per_flush = 4;
  /// Workload-DB retention. Paper default: seven days. Applies to raw
  /// per-execution rows only: wl_templates holds one current aggregate
  /// row per statement shape and is never purged.
  std::chrono::seconds retention{7 * 24 * 3600};
  /// Purge expired rows every Nth flush.
  int flushes_per_purge = 4;
  /// Flush-pressure threshold: when one flush window buffers more than
  /// this many raw rows (workload + references), the daemon lowers the
  /// monitor's raw-record sample rate proportionally; when the backlog
  /// drains it doubles the rate back toward full capture. Template
  /// aggregates are exact regardless. 0 disables adaptation.
  int64_t flush_pressure_rows = 8192;
  /// Floor for the adaptive sample rate (parts-per-million).
  uint32_t min_sample_rate_ppm = 10000;
};

/// One declarative alert rule evaluated by the daemon every poll over
/// the metrics-history rollups (the SQL-trigger path in AddAlertRule
/// watches appended wl_* rows; this engine watches trends).
///
/// Grammar: `value(kind) cmp limit`, where value is computed over the
/// aggregate of `series` at `resolution_seconds` in the trailing
/// `window_seconds`:
///   kThreshold  -> the most recent value in the window (agg.last)
///   kDelta      -> agg.max - agg.min (change across the window; for
///                  cumulative counters this is "events in window")
/// The rule FIRES after `sustain_polls` consecutive breaching
/// evaluations and CLEARS on the first non-breaching one. An empty
/// window (series not yet sampled) is never a breach.
struct HistoryAlertRule {
  enum class Kind { kThreshold, kDelta };
  enum class Cmp { kAbove, kBelow };

  std::string name;
  std::string series;
  int resolution_seconds = 10;
  Kind kind = Kind::kThreshold;
  Cmp cmp = Cmp::kAbove;
  int64_t limit = 0;
  int window_seconds = 60;
  int sustain_polls = 1;
  std::string message;
};

/// Current evaluation state of one rule (one imp_alerts row).
struct HistoryAlertState {
  std::string rule;
  std::string series;
  bool firing = false;
  int64_t value = 0;  ///< last evaluated value (0 until first eval)
  int64_t threshold = 0;
  int64_t breach_polls = 0;  ///< consecutive breaching evaluations
  int64_t fire_count = 0;    ///< clear->firing transitions
  int64_t first_fired_micros = 0;
  int64_t last_fired_micros = 0;
  int64_t last_eval_micros = 0;
  std::string message;
};

/// The built-in rule set: buffer-pool hit-rate drop, sustained flush
/// pressure (adaptive sampler pinned below full capture), a tuner
/// verification-regression streak, and sustained network-server request
/// queue saturation.
std::vector<HistoryAlertRule> DefaultHistoryAlertRules();

struct DaemonStats {
  int64_t polls = 0;
  int64_t flushes = 0;
  int64_t rows_written = 0;
  int64_t bytes_written_estimate = 0;  ///< serialized row bytes appended
  int64_t rows_purged = 0;
  int64_t alerts_raised = 0;
  int64_t poll_errors = 0;
  int64_t templates_flushed = 0;  ///< wl_templates upserts performed
  /// Current raw-record sample rate pushed to the monitor (ppm).
  int64_t sample_rate_ppm = 1000000;
};

/// Creates the wl_* schema (captured_at + the mirrored IMA tables'
/// columns) in `workload_db`. Needs no monitored database. Idempotent.
Status CreateWorkloadSchema(engine::Database* workload_db);

class StorageDaemon {
 public:
  StorageDaemon(engine::Database* monitored, engine::Database* workload_db,
                DaemonConfig config, const Clock* clock = nullptr);
  ~StorageDaemon();

  /// Create the workload-DB schema and internal sessions.
  Status Initialize();

  /// Start the background thread. Stop() (or destruction) joins it.
  void Start();
  void Stop();
  bool running() const { return running_.load(); }

  /// One poll cycle: force a statistics sample, read new IMA rows into
  /// the buffer; flush + purge when due. Called by the thread, and
  /// directly by tests/benchmarks (with a SimulatedClock). Any failure —
  /// injected, IMA read, or workload-DB append — counts into
  /// `stats().poll_errors`; the next cycle starts from clean state, so
  /// one bad poll never wedges the daemon.
  Status PollOnce();

  /// Test-only fault hook, consulted at the top of every poll cycle
  /// (before any IMA read or buffering). A non-OK return aborts the
  /// cycle — counted in `poll_errors` — without touching the buffers or
  /// the workload DB. The fault-injection harness installs
  /// FaultInjector::BeforePoll here.
  void set_poll_fault_hook(std::function<Status()> hook);

  /// Append all buffered rows to the workload DB now.
  Status FlushNow();

  /// Delete workload-DB rows older than the retention window.
  Status PurgeExpired();

  /// Install an alert: a trigger on a wl_* table raising `message` when
  /// `when_predicate` (SQL boolean over that table's columns) holds for
  /// a newly appended row. The DBA "can easily set up his own alerts by
  /// creating more triggers".
  Status AddAlertRule(const std::string& name, const std::string& wl_table,
                      const std::string& when_predicate,
                      const std::string& message);

  /// Install a declarative trend alert evaluated every poll over the
  /// metrics-history rollups (see HistoryAlertRule). Surfaced as one
  /// imp_alerts row; firing transitions count into stats().alerts_raised
  /// and invoke the alert handler.
  void AddHistoryAlertRule(HistoryAlertRule rule);

  /// Current state of every installed history alert rule, in
  /// installation order. Backs the imp_alerts IMA table.
  std::vector<HistoryAlertState> SnapshotAlerts() const;

  /// Alert callback (fires on the daemon's flush path for SQL-trigger
  /// alerts, and on the poll path for history-rule transitions).
  void SetAlertHandler(engine::AlertHandler handler);

  /// Called after every successful flush, outside any daemon lock. The
  /// closed-loop tuner hooks its Tick() here so tuning runs on the same
  /// cadence as workload-DB refreshes without the daemon depending on it.
  void set_flush_listener(std::function<void()> listener);

  DaemonStats stats() const;

 private:
  void ThreadMain();

  /// The body of one poll cycle; caller holds poll_mutex_ and accounts
  /// the returned status into poll_errors.
  Status PollCycle();

  /// SELECT the rows of one mirror's IMA table past its seq cursor,
  /// advancing the cursor, or every row when the table has no seq column.
  Result<std::vector<Row>> ReadIma(size_t mirror);

  /// Append `rows` to one mirror's flush buffer. Caller holds
  /// buffer_mutex_.
  void BufferRows(std::vector<Row> rows, size_t mirror);

  /// Append buffered rows of one logical table to its wl_ twin as one
  /// multi-row INSERT, prepending `stamp` (captured_at) to every row.
  Status AppendRows(const std::string& wl_table, const Value& stamp,
                    std::vector<Row>* rows);

  /// Upsert buffered imp_templates rows into wl_templates: one current
  /// row per fingerprint, counts accumulated across daemon restarts and
  /// monitor resets (the persisted base is folded in on first sight of a
  /// fingerprint). Caller holds buffer_mutex_.
  Status FlushTemplates(const Value& stamp, std::vector<Row>* rows);

  /// Compare the flush window's raw-row volume against the pressure
  /// threshold and push an adjusted sample rate to the monitor.
  void AdaptSampleRate(int64_t raw_rows_in_window);

  /// Sample every registered metric (plus derived series) into the
  /// monitored engine's history rings and stage completed raw ticks for
  /// persistence. Caller holds poll_mutex_.
  void SampleMetricsHistory(int64_t now_micros);

  /// Evaluate every history alert rule against the rollups; fire/clear
  /// transitions update stats and invoke the alert handler (outside
  /// alert_mutex_).
  void EvaluateHistoryAlerts(int64_t now_micros);

  engine::Database* monitored_;
  engine::Database* workload_db_;
  DaemonConfig config_;
  const Clock* clock_;

  std::unique_ptr<engine::Session> poll_session_;
  std::unique_ptr<engine::Session> write_session_;

  /// Guarded by poll_mutex_ (checked only inside a poll cycle).
  std::function<Status()> poll_fault_hook_;

  /// Serializes whole poll cycles (the seq cursors and the shared
  /// internal poll session). IMA reads run under this mutex only;
  /// `buffer_mutex_` is taken just to stamp + append the rows read, so
  /// a concurrent FlushNow() never blocks behind the polling SQL.
  std::mutex poll_mutex_;

  // Buffered rows per mirror awaiting the next flush, indexed like the
  // mirror table in daemon.cc.
  std::mutex buffer_mutex_;
  std::vector<std::vector<Row>> buffers_;

  /// Per-fingerprint cumulative flush state: `persisted_*` mirrors the
  /// current wl_templates row, `last_*` the monitor values at the last
  /// flush (deltas bridge monitor resets and daemon restarts). Guarded
  /// by buffer_mutex_.
  struct TemplateFlushState {
    int64_t persisted_executions = 0;
    int64_t persisted_sampled = 0;
    double persisted_actual = 0;
    double persisted_estimated = 0;
    int64_t persisted_first_seen = 0;
    int64_t last_executions = 0;
    int64_t last_sampled = 0;
    double last_actual = 0;
    double last_estimated = 0;
  };
  std::unordered_map<uint64_t, TemplateFlushState> template_state_;

  // Poll-cycle state, guarded by poll_mutex_.
  /// Newest seq read per mirror (used by mirrors of seq-stamped tables).
  std::vector<int64_t> cursors_;
  /// Newest raw history tick already staged for persistence; each
  /// completed tick is written to wl_metrics_history exactly once.
  int64_t last_history_tick_ = 0;
  int polls_since_flush_ = 0;
  // Guarded by buffer_mutex_ (flushes may come from polls or FlushNow).
  int flushes_since_purge_ = 0;

  std::atomic<bool> running_{false};
  std::thread thread_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  mutable std::mutex stats_mutex_;
  DaemonStats stats_;

  /// imp_metrics mirrors (`daemon.*`) in the monitored engine's registry;
  /// null until Initialize().
  metrics::Counter* m_polls_ = nullptr;
  metrics::Counter* m_poll_errors_ = nullptr;
  metrics::Counter* m_flushes_ = nullptr;
  metrics::Counter* m_rows_appended_ = nullptr;
  metrics::Counter* m_purge_runs_ = nullptr;
  metrics::Counter* m_rows_purged_ = nullptr;
  metrics::Counter* m_bytes_written_ = nullptr;
  metrics::Counter* m_alerts_raised_ = nullptr;
  /// Rows persisted per flush window (visible via imp_stage_latency).
  metrics::Histogram* m_flush_batch_rows_ = nullptr;
  metrics::Counter* m_templates_flushed_ = nullptr;
  /// Current raw-record keep fraction (ppm) pushed to the monitor.
  metrics::Gauge* m_sample_rate_ = nullptr;

  std::mutex listener_mutex_;
  std::function<void()> flush_listener_;

  /// History alert rules + their evaluation state, installation-ordered.
  /// alert_mutex_ guards both and the handler copy; the handler itself
  /// is always invoked outside the lock.
  mutable std::mutex alert_mutex_;
  std::vector<HistoryAlertRule> alert_rules_;
  std::vector<HistoryAlertState> alert_states_;
  engine::AlertHandler alert_handler_;
};

/// Expose the daemon's history-alert states as the `imp_alerts` virtual
/// table in `db` (rule, series, state, value, threshold, breach_polls,
/// fire_count, first_fired_micros, last_fired_micros, last_eval_micros,
/// message). The daemon must outlive `db`'s use of the table.
Status RegisterAlertsTable(engine::Database* db, StorageDaemon* daemon);

}  // namespace imon::daemon

#endif  // IMON_DAEMON_DAEMON_H_
