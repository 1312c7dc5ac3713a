// The integrated monitoring component — the paper's core contribution.
//
// Sensors are plain inline function calls placed at the engine's own
// call sites along the statement path (paper Fig. 2):
//
//   Query interface   -> OnQueryStart            (wallclock start)
//   Parser            -> OnParseComplete         (query text + hash, and
//                                                 the template fingerprint
//                                                 from the parser's tokens)
//   Binder/catalog    -> OnBindComplete          (tables, attributes,
//                                                 histograms, avail. indexes)
//   Optimizer         -> OnOptimizeComplete      (estimated costs,
//                                                 used indexes)
//   Execution         -> OnExecuteComplete       (actual costs)
//   Result interface  -> Commit                  (wallclock stop; publish)
//
// A disabled monitor reduces every sensor to one predictable branch.
// Each sensor self-times; the per-statement and global monitoring-time
// shares reproduce the paper's Fig. 5.
//
// Sensor calls mutate a caller-owned QueryTrace (no shared state, no
// locks); only Commit takes a lock once per statement to publish. A kept
// statement is one workload-ring record carrying its stage spans and a
// handle to its template's interned reference set; imp_references and
// imp_traces expand those records into rows at scan time.
//
// Concurrency (DESIGN.md "Concurrency model"): the publish side is
// SHARDED. The monitor owns N shards (power of two; default: hardware
// concurrency), each with its own mutex, workload ring, statement
// registry, reference sets and latency histograms. Commit hashes the
// committing session id to a shard and takes only that shard's lock, so
// concurrent sessions publish in parallel. A single global atomic `next_seq_`
// allocates sequence numbers, preserving the total order that the
// daemon's incremental `Snapshot*Since(seq)` polling relies on; the
// snapshot API performs a k-way merge by seq across shards while
// holding every shard lock, which linearizes the merged view (no seq
// below the observed maximum can appear later).

#ifndef IMON_MONITOR_MONITOR_H_
#define IMON_MONITOR_MONITOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "monitor/ring_buffer.h"
#include "monitor/statement_registry.h"

namespace imon::monitor {

using ObjectId = int64_t;

struct MonitorConfig {
  bool enabled = true;
  /// "By default, the monitoring can capture up to 1000 different
  /// statements until the buffer wraps around."
  size_t statement_window = 1000;
  /// Kept statements per shard. imp_references and imp_traces show the
  /// rows of exactly these records, so this window bounds them too.
  size_t workload_window = 4000;
  /// Unread: references are retained with their workload records. Kept
  /// only because perfbench assigns it (ROADMAP item 6 deletes it).
  size_t references_window = 16000;
  size_t statistics_window = 4096;
  /// Sample system statistics every N committed statements (0 = only on
  /// explicit RecordSystemStats calls from the daemon).
  int64_t stats_sample_every = 64;
  /// Commit shards. 0 = auto (hardware concurrency); any other value is
  /// rounded up to a power of two and capped at 64. Each shard owns its
  /// own windows, so the bound on retained records is per shard — a
  /// single session (the common and test configuration) always lands on
  /// one shard and sees exactly the configured windows.
  size_t shards = 0;
  /// Testing/bench only: sleep this long inside the shard-lock critical
  /// section of every Commit, modelling a commit path that blocks
  /// (allocator stall, page fault, disk-backed windows). Lets
  /// bench/micro_concurrent demonstrate shard-lock serialization even on
  /// a single-core host. 0 = off (production).
  int64_t commit_stall_nanos = 0;
  /// Unread: stage spans are retained with their workload records. Kept
  /// only because perfbench assigns and prints it (ROADMAP item 6).
  size_t trace_window = 4096;
  /// Per-shard bound on the compressed-template registry (distinct
  /// statement shapes, not executions — compression keeps this small by
  /// construction). FIFO eviction past the bound, like statements.
  size_t template_window = 4096;
  /// Seed for the deterministic workload sampling decision: with the
  /// same seed, fingerprints and per-template arrival ordinals, the
  /// sampler keeps exactly the same subset of raw records (asserted by
  /// the sampling determinism test).
  uint64_t sample_seed = 0x1e55eedULL;
};

/// Sampling rates are parts-per-million; 1000000 keeps every raw record.
inline constexpr uint32_t kSampleAllPpm = 1'000'000;

// -- per-statement stage tracing ---------------------------------------------

/// Statement-path stages (paper Fig. 2). Each sensor closes the span of
/// the stage that just finished; kCommit covers the monitor's own
/// publish step, so the trace also shows the self-cost it measures.
enum class Stage {
  kParse = 0,
  kBind = 1,
  kOptimize = 2,
  kExecute = 3,
  kCommit = 4,
};
inline constexpr int kNumStages = 5;
const char* StageName(Stage stage);

struct StageSpan {
  int64_t start_nanos = 0;  ///< monotonic; 0 = stage never ran
  int64_t duration_nanos = 0;
};

/// One stage of one statement execution: a row that SnapshotTraces
/// expands from a kept workload record. Exposed as imp_traces and
/// convertible to Chrome trace events (monitor/trace_export.h). Trace
/// seqs come from their own global counter, claimed at Commit — the
/// workload/references seq domain stays dense (one block per commit),
/// which tests assert on.
struct TraceRecord {
  int64_t seq = 0;
  uint64_t hash = 0;
  int64_t session_id = 0;
  Stage stage = Stage::kParse;
  int64_t start_micros = 0;  ///< wallclock stage start
  int64_t duration_nanos = 0;
};

/// Per-shard publish/saturation counters (one imp_monitor row each).
struct ShardStats {
  int64_t shard = 0;
  int64_t statements_committed = 0;
  int64_t workload_dropped = 0;    ///< workload ring overwrites
  /// Reference and stage-trace rows lost with the overwritten records.
  int64_t references_dropped = 0;
  int64_t traces_dropped = 0;
  int64_t workload_sampled_out = 0;  ///< raw records skipped by the sampler
  int64_t monitor_nanos = 0;       ///< sensor self-cost via this shard
};

// -- records mirroring the paper's Fig. 3 schema -----------------------------

enum class RefType { kTable = 0, kAttribute = 1, kIndex = 2, kUsedIndex = 3 };

struct ReferenceRecord {
  int64_t seq = 0;
  uint64_t hash = 0;  ///< statement hash
  RefType type = RefType::kTable;
  ObjectId object_id = -1;
  ObjectId table_id = -1;
  int ordinal = -1;  ///< attribute ordinal (kAttribute only)
};

struct WorkloadRecord {
  int64_t seq = 0;
  uint64_t hash = 0;
  int64_t start_micros = 0;        ///< wallclock start
  int64_t wallclock_nanos = 0;     ///< start to stop
  int64_t optimizer_cpu_nanos = 0;
  int64_t optimizer_disk_io = 0;
  int64_t execute_cpu_nanos = 0;
  int64_t execute_disk_io = 0;
  double estimated_cpu = 0;        ///< optimizer cost units
  double estimated_io = 0;
  double actual_cost = 0;          ///< measured, same units as estimates
  int64_t rows_examined = 0;
  int64_t rows_output = 0;
  int64_t monitor_nanos = 0;       ///< self-cost of the sensors (Fig. 5)
  std::vector<ObjectId> used_indexes;
};

/// Per-template rolling aggregate — the compressed form of the workload.
/// One row per distinct statement *shape* (literals normalized away by
/// sql::NormalizeStatement); every commit updates its template, while raw
/// per-execution rows are subject to ring windows and adaptive sampling.
/// Costs are tracked two ways: exact rolling sums (total_actual /
/// total_estimated — these drive analyzer rules, so compression cannot
/// change recommendations) and log2-bucketed quantiles in fixed-point
/// milli-cost units (telemetry with a documented <= 2x error bound).
struct TemplateRecord {
  /// Change stamp from its own seq domain (one row per fingerprint, like
  /// the statement registry); lets the daemon poll only changed rows.
  int64_t seq = 0;
  uint64_t fingerprint = 0;
  std::string template_text;
  /// Deterministic representative raw execution: the statement with the
  /// minimal (first_seen_micros, hash) among all matching this template.
  /// Its text re-parses (no `?` placeholders), so what-if analysis over
  /// templates has a concrete statement to plan.
  uint64_t sample_hash = 0;
  std::string sample_text;
  int64_t executions = 0;     ///< every commit, sampled or not
  int64_t sampled_count = 0;  ///< commits whose raw records were kept
  double total_actual = 0;
  double total_estimated = 0;  ///< estimated_cpu + estimated_io, summed
  int64_t first_seen_micros = 0;
  int64_t last_seen_micros = 0;
  /// Object bindings, recorded at template creation (statements sharing a
  /// shape bind the same objects); per-object frequency delta for the
  /// analyzer = executions x one ref each.
  std::vector<ObjectId> ref_tables;
  std::vector<std::pair<ObjectId, int>> ref_attributes;
  /// Cost quantile buckets, fixed-point milli-cost units (cost * 1000).
  metrics::Log2Buckets actual_cost_milli;
  metrics::Log2Buckets estimated_cost_milli;
};

struct StatisticsRecord {
  int64_t seq = 0;
  int64_t time_micros = 0;
  int64_t current_sessions = 0;
  int64_t max_sessions_seen = 0;
  int64_t locks_held = 0;
  int64_t lock_waits_total = 0;
  int64_t deadlocks_total = 0;
  int64_t cache_logical_reads = 0;
  int64_t cache_physical_reads = 0;
  double cache_hit_ratio = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
  int64_t statements_executed = 0;
};

/// Raw system numbers supplied by the engine when sampling.
struct SystemSnapshot {
  int64_t current_sessions = 0;
  int64_t locks_held = 0;
  int64_t lock_waits_total = 0;
  int64_t deadlocks_total = 0;
  int64_t cache_logical_reads = 0;
  int64_t cache_physical_reads = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
};

/// Caller-owned per-statement trace filled by the sensors. The engine's
/// sessions reuse one trace per nesting level, so its text and vectors
/// keep their capacity and a warm statement allocates nothing here; a
/// reused trace is Reset() before OnQueryStart.
struct QueryTrace {
  bool active = false;
  int64_t session_id = 0;  ///< selects the commit shard
  int64_t wall_start_micros = 0;
  int64_t mono_start_nanos = 0;
  uint64_t hash = 0;
  std::string text;
  /// Template fingerprint (sql::TemplateFingerprint) when the front end
  /// supplied one; otherwise Commit normalizes `text` to find it.
  uint64_t fingerprint = 0;
  bool has_fingerprint = false;
  int64_t monitor_nanos = 0;

  std::vector<ObjectId> ref_tables;
  std::vector<std::pair<ObjectId, int>> ref_attributes;
  std::vector<ObjectId> ref_indexes;

  double estimated_cpu = 0;
  double estimated_io = 0;
  std::vector<ObjectId> used_indexes;
  int64_t optimizer_cpu_nanos = 0;
  int64_t optimizer_disk_io = 0;

  int64_t execute_cpu_nanos = 0;
  int64_t execute_disk_io = 0;
  double actual_cost = 0;
  int64_t rows_examined = 0;
  int64_t rows_output = 0;

  /// Stage spans closed by the sensors (compiled out with the metrics
  /// layer). last_mark_nanos is the running stage boundary.
  std::array<StageSpan, kNumStages> stages{};
  int64_t last_mark_nanos = 0;

  /// Inactive and empty, with every buffer's capacity kept: the buffers
  /// are set aside, every field takes its default, and the buffers come
  /// back cleared.
  void Reset() {
    std::string kept_text = std::move(text);
    std::vector<ObjectId> kept_tables = std::move(ref_tables);
    std::vector<std::pair<ObjectId, int>> kept_attributes =
        std::move(ref_attributes);
    std::vector<ObjectId> kept_indexes = std::move(ref_indexes);
    std::vector<ObjectId> kept_used = std::move(used_indexes);
    *this = QueryTrace{};
    text = std::move(kept_text);
    ref_tables = std::move(kept_tables);
    ref_attributes = std::move(kept_attributes);
    ref_indexes = std::move(kept_indexes);
    used_indexes = std::move(kept_used);
    text.clear();
    ref_tables.clear();
    ref_attributes.clear();
    ref_indexes.clear();
    used_indexes.clear();
  }
};

/// Aggregate view for tests/IMA.
struct MonitorCounters {
  int64_t statements_committed = 0;
  int64_t statements_dropped = 0;  ///< workload ring overwrites
  int64_t total_monitor_nanos = 0;
};

/// Attribute identity (table, ordinal). A dedicated struct key — not a
/// packed `(table<<16)|ordinal` integer — so negative table ids and
/// ordinals >= 65536 cannot silently collide.
struct AttrKey {
  ObjectId table_id = -1;
  int ordinal = -1;
  bool operator==(const AttrKey&) const = default;
};

struct AttrKeyHash {
  size_t operator()(const AttrKey& k) const {
    return static_cast<size_t>(HashCombine(static_cast<uint64_t>(k.table_id),
                                           static_cast<uint64_t>(k.ordinal)));
  }
};

class Monitor {
 public:
  explicit Monitor(MonitorConfig config, const Clock* clock);

  bool enabled() const { return config_.enabled; }
  void set_enabled(bool on) { config_.enabled = on; }
  const MonitorConfig& config() const { return config_; }
  size_t shard_count() const { return shards_.size(); }
  /// Process-unique id of this monitor instance. Cumulative counters
  /// (template executions, cost sums) are only comparable within one
  /// incarnation; the daemon persists it with wl_templates so a
  /// restarted daemon can tell "same monitor, resume deltas" from "new
  /// monitor, counts start over".
  uint64_t incarnation() const { return incarnation_; }

  // -- sensors (hot path; inline enabled check) -----------------------------

  void OnQueryStart(QueryTrace* trace, int64_t session_id = 0) {
    if (!config_.enabled) return;
    int64_t begin = MonotonicNanos();
    trace->active = true;
    trace->session_id = session_id;
    trace->wall_start_micros = clock_->NowMicros();
    trace->mono_start_nanos = begin;
#ifndef IMON_METRICS_DISABLED
    trace->last_mark_nanos = begin;
#endif
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  /// Text only: the sensor hashes the text, and Commit normalizes it to
  /// find the statement's template.
  void OnParseComplete(QueryTrace* trace, std::string_view text) {
    if (!config_.enabled || !trace->active) return;
    int64_t begin = MonotonicNanos();
    MarkStage(trace, Stage::kParse, begin);
    trace->text.assign(text.data(), text.size());
    trace->hash = HashStatement(text);
    trace->has_fingerprint = false;
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  /// As the engine calls it: `hash` is HashStatement(text) and
  /// `fingerprint` the template fingerprint, both computed once by the
  /// front end, so Commit does no lexing.
  void OnParseComplete(QueryTrace* trace, std::string_view text,
                       uint64_t hash, uint64_t fingerprint) {
    if (!config_.enabled || !trace->active) return;
    int64_t begin = MonotonicNanos();
    MarkStage(trace, Stage::kParse, begin);
    trace->text.assign(text.data(), text.size());
    trace->hash = hash;
    trace->fingerprint = fingerprint;
    trace->has_fingerprint = true;
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  /// Copies the references into the trace's own vectors, which keep
  /// their capacity on a reused trace. Any range works: the engine passes
  /// the binder's reference sets directly, so no temporary is built.
  template <typename Tables = std::vector<ObjectId>,
            typename Attributes = std::vector<std::pair<ObjectId, int>>,
            typename Indexes = std::vector<ObjectId>>
  void OnBindComplete(QueryTrace* trace, const Tables& tables,
                      const Attributes& attributes, const Indexes& indexes) {
    if (!config_.enabled || !trace->active) return;
    int64_t begin = MonotonicNanos();
    MarkStage(trace, Stage::kBind, begin);
    trace->ref_tables.assign(std::begin(tables), std::end(tables));
    trace->ref_attributes.assign(std::begin(attributes), std::end(attributes));
    trace->ref_indexes.assign(std::begin(indexes), std::end(indexes));
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  void OnOptimizeComplete(QueryTrace* trace, double est_cpu, double est_io,
                          const std::vector<ObjectId>& used_indexes,
                          int64_t optimizer_nanos, int64_t optimizer_io) {
    if (!config_.enabled || !trace->active) return;
    int64_t begin = MonotonicNanos();
    MarkStage(trace, Stage::kOptimize, begin);
    trace->estimated_cpu = est_cpu;
    trace->estimated_io = est_io;
    trace->used_indexes.assign(used_indexes.begin(), used_indexes.end());
    trace->optimizer_cpu_nanos = optimizer_nanos;
    trace->optimizer_disk_io = optimizer_io;
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  void OnExecuteComplete(QueryTrace* trace, int64_t execute_nanos,
                         int64_t execute_io, double actual_cost,
                         int64_t rows_examined, int64_t rows_output) {
    if (!config_.enabled || !trace->active) return;
    int64_t begin = MonotonicNanos();
    MarkStage(trace, Stage::kExecute, begin);
    trace->execute_cpu_nanos = execute_nanos;
    trace->execute_disk_io = execute_io;
    trace->actual_cost = actual_cost;
    trace->rows_examined = rows_examined;
    trace->rows_output = rows_output;
    trace->monitor_nanos += MonotonicNanos() - begin;
  }

  /// Wallclock stop; publishes the trace into the ring buffers. The only
  /// sensor that takes a lock — and only the lock of the shard the
  /// trace's session hashes to.
  void Commit(QueryTrace* trace);

  // -- system statistics -----------------------------------------------------

  /// Stamp + append a statistics sample (called by the engine's sampler
  /// and by the daemon on every poll). Statistics are daemon-paced, not
  /// per-commit, so they live in one dedicated ring with its own lock
  /// rather than in the commit shards.
  void RecordSystemStats(const SystemSnapshot& snapshot);

  /// True when the per-N-statements sampler should fire (engine calls
  /// this after Commit and, if true, gathers a SystemSnapshot).
  bool ShouldSampleStats();

  // -- snapshots for IMA / daemon / tests -------------------------------------

  std::vector<StatementRecord> SnapshotStatements() const;
  std::vector<WorkloadRecord> SnapshotWorkload() const;
  std::vector<ReferenceRecord> SnapshotReferences() const;
  std::vector<StatisticsRecord> SnapshotStatistics() const;
  /// Compressed per-template aggregates, merged across shards by
  /// fingerprint (summed counts, merged quantile buckets, min/max seen
  /// span, representative = min (first_seen, hash)); deterministically
  /// ordered by (first_seen_micros, fingerprint).
  std::vector<TemplateRecord> SnapshotTemplates() const;
  /// Templates whose row changed since min_seq (change-stamp domain,
  /// like SnapshotStatementsSince).
  std::vector<TemplateRecord> SnapshotTemplatesSince(int64_t min_seq) const;

  // -- adaptive workload sampling ---------------------------------------------

  /// Fraction of commits whose raw records (statement registry, workload
  /// record with its references and stage spans) are kept, in
  /// parts-per-million. Template aggregates and object frequencies
  /// always see every commit. The daemon lowers this under flush
  /// pressure and restores it when the backlog drains; the keep decision
  /// is a deterministic hash of (sample_seed, fingerprint, per-template
  /// arrival ordinal).
  void SetWorkloadSampleRate(uint32_t ppm) {
    sample_rate_ppm_.store(ppm > kSampleAllPpm ? kSampleAllPpm : ppm,
                           std::memory_order_relaxed);
  }
  uint32_t workload_sample_rate_ppm() const {
    return sample_rate_ppm_.load(std::memory_order_relaxed);
  }

  /// Incremental snapshots: rows with seq > min_seq, visiting only the
  /// new tail of each shard's ring (the daemon's poll path); a cursor may
  /// fall inside one record's block of reference or trace rows. All shard
  /// locks are held across the collection, so the merged view never
  /// retroactively grows below its maximum returned seq.
  std::vector<WorkloadRecord> SnapshotWorkloadSince(int64_t min_seq) const;
  std::vector<ReferenceRecord> SnapshotReferencesSince(int64_t min_seq) const;
  std::vector<StatisticsRecord> SnapshotStatisticsSince(int64_t min_seq) const;
  /// Statements whose record changed (insert or frequency bump) since
  /// min_seq — the registry keeps one row per hash, so this returns
  /// current rows, not history.
  std::vector<StatementRecord> SnapshotStatementsSince(int64_t min_seq) const;

  /// Stage traces (imp_traces): one row per marked stage of each kept
  /// record, merged across shards in trace-seq order.
  std::vector<TraceRecord> SnapshotTraces() const;
  std::vector<TraceRecord> SnapshotTracesSince(int64_t min_seq) const;

  /// Per-shard commit/drop counters (one imp_monitor row per shard).
  std::vector<ShardStats> ShardStatsSnapshot() const;

  /// Show the per-stage latency histograms (`stage.<name>.nanos`) and
  /// `statement.wallclock_nanos` in `registry`'s SnapshotHistograms
  /// (imp_stage_latency, the metrics history). Commit keeps them per
  /// shard; the registry merges them on read. Null detaches.
  void AttachMetrics(metrics::MetricsRegistry* registry);

  /// Access frequencies, counted per execution: the executions of each
  /// live reference set plus what retired sets folded into per-shard
  /// residual maps, merged on read; cleared with the rings.
  std::map<ObjectId, int64_t> TableFrequencies() const;
  std::map<std::pair<ObjectId, int>, int64_t> AttributeFrequencies() const;
  std::map<ObjectId, int64_t> IndexFrequencies() const;

  MonitorCounters counters() const;
  /// Commits since construction, sampled out or kept.
  int64_t statements_executed() const;
  int64_t max_sessions_seen() const {
    return max_sessions_seen_.load(std::memory_order_relaxed);
  }
  void NoteSessionCount(int64_t sessions);

  void Clear();

 private:
  /// Close the span of `stage` at `now` and advance the stage boundary.
  /// Compiled out with the metrics layer (the spans only feed imp_traces
  /// and the stage histograms).
  static void MarkStage(QueryTrace* trace, Stage stage, int64_t now) {
#ifndef IMON_METRICS_DISABLED
    StageSpan& span = trace->stages[static_cast<size_t>(stage)];
    span.start_nanos = trace->last_mark_nanos;
    span.duration_nanos = now - trace->last_mark_nanos;
    trace->last_mark_nanos = now;
#else
    (void)trace;
    (void)stage;
    (void)now;
#endif
  }

  /// The tables, attributes and available indexes a template binds,
  /// interned per shard: a template keeps its current set, and a commit
  /// binding the same ids shares it, so a catalog change simply starts a
  /// new set. Immutable once built but for its counts (shard lock).
  struct RefSet {
    std::vector<ObjectId> tables;
    std::vector<std::pair<ObjectId, int>> attributes;
    std::vector<ObjectId> indexes;
    /// Commits that bound this set, sampled out or kept: each table and
    /// attribute's frequency share.
    int64_t executions = 0;
    /// (index, commits that used it) over those commits.
    std::vector<std::pair<ObjectId, int64_t>> used;
    /// Kept records pointing here, plus one while a template's current
    /// set; at zero the set retires into the residual maps.
    int64_t holders = 0;

    size_t rows() const {
      return tables.size() + attributes.size() + indexes.size();
    }
  };

  /// A kept statement: its imp_workload row plus what expands into its
  /// imp_references rows (seq + 1.. : the set's rows, then used indexes)
  /// and its imp_traces rows (trace_seq.. : one per marked stage).
  struct KeptRecord {
    WorkloadRecord row;
    RefSet* refs = nullptr;
    int64_t session_id = 0;
    int64_t trace_seq = 0;
    int64_t mono_start_nanos = 0;
    std::array<StageSpan, kNumStages> stages{};

    int64_t reference_rows() const {
      return static_cast<int64_t>(refs->rows() + row.used_indexes.size());
    }
    int64_t trace_rows() const {
      int64_t marked = 0;
      for (const StageSpan& span : stages) marked += span.start_nanos != 0;
      return marked;
    }
    /// Append the rows with seq > min_seq.
    void AppendReferences(int64_t min_seq,
                          std::vector<ReferenceRecord>* out) const;
    void AppendTraces(int64_t min_seq, std::vector<TraceRecord>* out) const;
  };

  struct TemplateEntry {
    TemplateRecord record;
    RefSet* refs = nullptr;  ///< current set
  };

  /// Latency histograms: one per stage, then the statement wallclock.
  static constexpr int kWallclockHistogram = kNumStages;
  using LatencyHistograms =
      std::array<metrics::LockedHistogram, kNumStages + 1>;

  /// Everything one commit touches, behind one mutex.
  struct Shard {
    Shard(size_t statement_window, size_t workload_window)
        : statements(statement_window), workload(workload_window) {}

    mutable std::mutex mutex;
    StatementRegistry statements;
    /// Compressed-template registry (fingerprint -> rolling aggregate),
    /// bounded to template_window with FIFO eviction.
    std::unordered_map<uint64_t, TemplateEntry> templates;
    std::deque<uint64_t> template_arrivals;
    RingBuffer<KeptRecord> workload;
    /// Every set this shard built; those with no holders are free and
    /// listed in free_sets for reuse.
    std::vector<std::unique_ptr<RefSet>> ref_sets;
    std::vector<RefSet*> free_sets;
    /// Frequencies folded in from retired sets.
    std::unordered_map<ObjectId, int64_t> table_freq;
    std::unordered_map<AttrKey, int64_t, AttrKeyHash> attr_freq;
    std::unordered_map<ObjectId, int64_t> index_freq;
    LatencyHistograms latency;

    /// imp_monitor counters. Written only under the mutex; atomic so
    /// statements_executed() can sum them without it.
    std::atomic<int64_t> committed{0};
    std::atomic<int64_t> sampled_out{0};
    std::atomic<int64_t> monitor_nanos{0};
    int64_t references_dropped = 0;
    int64_t traces_dropped = 0;
  };

  Shard& ShardFor(int64_t session_id) const {
    uint64_t mixed = HashCombine(0, static_cast<uint64_t>(session_id));
    return *shards_[mixed & (shards_.size() - 1)];
  }

  /// Acquire every shard lock, in index order (commits take exactly one
  /// shard lock, so the fixed order cannot deadlock). Holding all locks
  /// makes a multi-shard snapshot a linearization point for Commit.
  std::vector<std::unique_lock<std::mutex>> LockAllShards() const;

  /// Insert `trace`'s statement into the shard's registry or bump its
  /// row. Caller holds the shard lock.
  void RegisterStatement(Shard& shard, const QueryTrace& trace);

  /// The template's current reference set, replaced by a new one when
  /// the trace bound different ids. Caller holds the shard lock.
  static RefSet* CurrentRefSet(Shard& shard, TemplateEntry& entry,
                               const QueryTrace& trace);
  /// Drop one holder of `refs`; the last one folds its counts into the
  /// shard's residual maps and frees the set for reuse.
  static void ReleaseRefSet(Shard& shard, RefSet* refs);

  /// Under every shard lock, `collect(ring, &run)` builds one seq-ordered
  /// run per shard's workload ring; the runs are k-way merged by seq.
  template <typename Rec, typename Collect>
  std::vector<Rec> CollectShards(Collect collect) const;

  /// The merged latency histograms as named stats (the registry source).
  void AppendLatencyStats(std::vector<metrics::HistogramStats>* out) const;

  MonitorConfig config_;
  const Clock* clock_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global sequence allocator: total order across shards.
  std::atomic<int64_t> next_seq_{1};
  /// Separate seq domain for stage traces so the workload/references
  /// domain stays dense (exactly 1 + refs seqs per commit).
  std::atomic<int64_t> next_trace_seq_{1};
  /// Separate seq domain for statement-registry change stamps, for the
  /// same reason.
  std::atomic<int64_t> next_statement_seq_{1};
  /// Change-stamp domain for the template registry.
  std::atomic<int64_t> next_template_seq_{1};
  /// Raw-record keep fraction, parts-per-million (kSampleAllPpm = off).
  std::atomic<uint32_t> sample_rate_ppm_{kSampleAllPpm};
  /// See incarnation(); assigned from a process-wide counter.
  uint64_t incarnation_ = 0;

  /// The registry source showing the latency histograms; replacing or
  /// destroying it detaches the monitor from that registry.
  std::shared_ptr<const metrics::MetricsRegistry::HistogramSource>
      latency_source_;

  mutable std::mutex stats_mutex_;
  RingBuffer<StatisticsRecord> statistics_;
  int64_t next_stats_seq_ = 1;

  std::atomic<int64_t> max_sessions_seen_{0};
  std::atomic<int64_t> since_last_sample_{0};
};

}  // namespace imon::monitor

#endif  // IMON_MONITOR_MONITOR_H_
