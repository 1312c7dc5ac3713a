#include "monitor/monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <tuple>

#include "sql/normalizer.h"

namespace imon::monitor {

namespace {

constexpr size_t kMaxShards = 64;

size_t ResolveShardCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    unsigned hc = std::thread::hardware_concurrency();
    n = hc == 0 ? 1 : hc;
  }
  n = std::min(n, kMaxShards);
  size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

/// K-way merge of per-shard runs, each already ascending by seq (records
/// are pushed under the shard lock in allocation order).
template <typename Rec>
std::vector<Rec> MergeBySeq(std::vector<std::vector<Rec>> parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<Rec> out;
  out.reserve(total);
  std::vector<size_t> pos(parts.size(), 0);
  while (out.size() < total) {
    size_t best = parts.size();
    for (size_t i = 0; i < parts.size(); ++i) {
      if (pos[i] >= parts[i].size()) continue;
      if (best == parts.size() ||
          parts[i][pos[i]].seq < parts[best][pos[best]].seq) {
        best = i;
      }
    }
    out.push_back(std::move(parts[best][pos[best]]));
    ++pos[best];
  }
  return out;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kBind:
      return "bind";
    case Stage::kOptimize:
      return "optimize";
    case Stage::kExecute:
      return "execute";
    case Stage::kCommit:
      return "commit";
  }
  return "unknown";
}

Monitor::Monitor(MonitorConfig config, const Clock* clock)
    : config_(config),
      clock_(clock),
      statistics_(config.statistics_window) {
  static std::atomic<uint64_t> next_incarnation{1};
  incarnation_ = next_incarnation.fetch_add(1, std::memory_order_relaxed);
  size_t shards = ResolveShardCount(config_.shards);
  config_.shards = shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        config_.statement_window, config_.workload_window,
        config_.references_window, config_.trace_window));
  }
}

void Monitor::AttachMetrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    stage_hist_ = {};
    wallclock_hist_ = nullptr;
    return;
  }
  for (int i = 0; i < kNumStages; ++i) {
    stage_hist_[i] = registry->GetHistogram(
        std::string("stage.") + StageName(static_cast<Stage>(i)) + ".nanos");
  }
  wallclock_hist_ = registry->GetHistogram("statement.wallclock_nanos");
}

std::vector<std::unique_lock<std::mutex>> Monitor::LockAllShards() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  return locks;
}

void Monitor::Commit(QueryTrace* trace) {
  if (!config_.enabled || !trace->active) return;
  int64_t begin = MonotonicNanos();
  int64_t wallclock_nanos = begin - trace->mono_start_nanos;

  // The template fingerprint doubles as the sampling-decision key. A
  // trace that carries none is normalized here, outside the shard lock.
  sql::NormalizedStatement norm;
  if (!trace->has_fingerprint) norm = sql::NormalizeStatement(trace->text);
  const uint64_t fingerprint =
      trace->has_fingerprint ? trace->fingerprint : norm.fingerprint;
  double estimated_total = trace->estimated_cpu + trace->estimated_io;
  uint32_t rate = sample_rate_ppm_.load(std::memory_order_relaxed);

  Shard& shard = ShardFor(trace->session_id);
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    // -- compressed-template aggregate: sees EVERY commit, before the
    // sampling decision, so template counts stay exact under sampling.
    auto tit = shard.templates.find(fingerprint);
    bool t_created = false;
    if (tit == shard.templates.end()) {
      if (trace->has_fingerprint) {
        // A new template needs its text; build it outside the shard lock
        // (once per template), then look again: another session of this
        // shard may have created it meanwhile.
        lock.unlock();
        norm.template_text = sql::NormalizeStatement(trace->text).template_text;
        lock.lock();
      }
      std::tie(tit, t_created) = shard.templates.try_emplace(fingerprint);
    }
    TemplateRecord& tmpl = tit->second;
    if (t_created) {
      while (shard.templates.size() > config_.template_window &&
             !shard.template_arrivals.empty()) {
        uint64_t victim = shard.template_arrivals.front();
        shard.template_arrivals.pop_front();
        if (victim != fingerprint) shard.templates.erase(victim);
      }
      shard.template_arrivals.push_back(fingerprint);
      tmpl.fingerprint = fingerprint;
      tmpl.template_text = std::move(norm.template_text);
      tmpl.sample_hash = trace->hash;
      tmpl.sample_text = trace->text;
      tmpl.first_seen_micros = trace->wall_start_micros;
      tmpl.last_seen_micros = trace->wall_start_micros;
      tmpl.ref_tables = trace->ref_tables;
      tmpl.ref_attributes = trace->ref_attributes;
    } else if (trace->wall_start_micros < tmpl.first_seen_micros ||
               (trace->wall_start_micros == tmpl.first_seen_micros &&
                trace->hash < tmpl.sample_hash)) {
      // Deterministic representative: min (first_seen, raw hash). The
      // analyzer's raw-row grouping applies the identical rule, so both
      // paths plan what-if candidates from the same statement text.
      tmpl.sample_hash = trace->hash;
      tmpl.sample_text = trace->text;
      tmpl.first_seen_micros = trace->wall_start_micros;
    }
    int64_t ordinal = tmpl.executions;  // 0-based arrival index
    tmpl.executions += 1;
    if (trace->wall_start_micros > tmpl.last_seen_micros) {
      tmpl.last_seen_micros = trace->wall_start_micros;
    }
    tmpl.total_actual += trace->actual_cost;
    tmpl.total_estimated += estimated_total;
    tmpl.actual_cost_milli.Record(
        static_cast<int64_t>(std::llround(trace->actual_cost * 1000.0)));
    tmpl.estimated_cost_milli.Record(
        static_cast<int64_t>(std::llround(estimated_total * 1000.0)));
    tmpl.seq = next_template_seq_.fetch_add(1, std::memory_order_relaxed);

    // -- adaptive sampling: keep or skip this commit's raw records.
    // Deterministic in (seed, fingerprint, arrival ordinal) so a seeded
    // run reproduces the exact sample set.
    bool kept =
        rate >= kSampleAllPpm ||
        Mix64(config_.sample_seed ^ fingerprint ^
              static_cast<uint64_t>(ordinal)) %
                kSampleAllPpm <
            rate;
    if (!kept) {
      shard.workload_sampled_out += 1;
      // Object frequency maps track executions, not retained raw rows.
      for (ObjectId t : trace->ref_tables) ++shard.table_freq[t];
      for (const auto& [table_id, o] : trace->ref_attributes) {
        ++shard.attr_freq[AttrKey{table_id, o}];
      }
      for (ObjectId idx : trace->used_indexes) ++shard.index_freq[idx];
      trace->monitor_nanos += MonotonicNanos() - begin;
      shard.monitor_nanos += trace->monitor_nanos;
      statements_executed_.fetch_add(1, std::memory_order_relaxed);
      since_last_sample_.fetch_add(1, std::memory_order_relaxed);
      total_monitor_nanos_.fetch_add(trace->monitor_nanos,
                                     std::memory_order_relaxed);
      return;
    }
    tmpl.sampled_count += 1;

    // One fetch_add claims the statement's whole seq block (workload
    // record first, then one seq per reference) so the global order is
    // identical to the pre-sharding single-counter order. Sampled-out
    // commits return before this point, keeping the domain dense.
    int64_t refs = static_cast<int64_t>(
        trace->ref_tables.size() + trace->ref_attributes.size() +
        trace->ref_indexes.size() + trace->used_indexes.size());
    int64_t seq =
        next_seq_.fetch_add(1 + refs, std::memory_order_relaxed);
    const int64_t workload_seq = seq++;

    RegisterStatement(shard, *trace);

    // References: logged once per statement execution.
    for (ObjectId t : trace->ref_tables) {
      ReferenceRecord ref;
      ref.seq = seq++;
      ref.hash = trace->hash;
      ref.type = RefType::kTable;
      ref.object_id = t;
      ref.table_id = t;
      shard.references.Push(ref);
      ++shard.table_freq[t];
    }
    for (const auto& [table_id, ordinal] : trace->ref_attributes) {
      ReferenceRecord ref;
      ref.seq = seq++;
      ref.hash = trace->hash;
      ref.type = RefType::kAttribute;
      ref.object_id = table_id;  // attribute identified by (table, ordinal)
      ref.table_id = table_id;
      ref.ordinal = ordinal;
      shard.references.Push(ref);
      ++shard.attr_freq[AttrKey{table_id, ordinal}];
    }
    for (ObjectId idx : trace->ref_indexes) {
      ReferenceRecord ref;
      ref.seq = seq++;
      ref.hash = trace->hash;
      ref.type = RefType::kIndex;
      ref.object_id = idx;
      shard.references.Push(ref);
    }
    for (ObjectId idx : trace->used_indexes) {
      ReferenceRecord ref;
      ref.seq = seq++;
      ref.hash = trace->hash;
      ref.type = RefType::kUsedIndex;
      ref.object_id = idx;
      shard.references.Push(ref);
      ++shard.index_freq[idx];
    }

    if (config_.commit_stall_nanos > 0) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(config_.commit_stall_nanos));
    }

    // Publish the workload record last so its monitor share covers the
    // whole commit. It is written into its ring slot in place: once the
    // ring is full, used_indexes reuses the evicted record's buffer.
    trace->monitor_nanos += MonotonicNanos() - begin;
    WorkloadRecord& record = shard.workload.PushSlot();
    record.seq = workload_seq;
    record.hash = trace->hash;
    record.start_micros = trace->wall_start_micros;
    record.wallclock_nanos = wallclock_nanos;
    record.optimizer_cpu_nanos = trace->optimizer_cpu_nanos;
    record.optimizer_disk_io = trace->optimizer_disk_io;
    record.execute_cpu_nanos = trace->execute_cpu_nanos;
    record.execute_disk_io = trace->execute_disk_io;
    record.estimated_cpu = trace->estimated_cpu;
    record.estimated_io = trace->estimated_io;
    record.actual_cost = trace->actual_cost;
    record.rows_examined = trace->rows_examined;
    record.rows_output = trace->rows_output;
    record.monitor_nanos = trace->monitor_nanos;
    record.used_indexes.assign(trace->used_indexes.begin(),
                               trace->used_indexes.end());
    shard.committed += 1;
    shard.monitor_nanos += trace->monitor_nanos;

#ifndef IMON_METRICS_DISABLED
    if (config_.trace_window > 0) {
      // Close the commit span over the publish work above, then emit one
      // TraceRecord per marked stage. Trace seqs come from their own
      // counter (claimed under the shard lock, so per-shard runs stay
      // ascending for the k-way merge) — the workload seq domain must
      // remain dense.
      StageSpan& commit_span =
          trace->stages[static_cast<size_t>(Stage::kCommit)];
      commit_span.start_nanos = begin;
      commit_span.duration_nanos = MonotonicNanos() - begin;
      int64_t marked = 0;
      for (const StageSpan& span : trace->stages) {
        if (span.start_nanos != 0) ++marked;
      }
      int64_t tseq =
          next_trace_seq_.fetch_add(marked, std::memory_order_relaxed);
      for (int i = 0; i < kNumStages; ++i) {
        const StageSpan& span = trace->stages[i];
        if (span.start_nanos == 0) continue;
        TraceRecord tr;
        tr.seq = tseq++;
        tr.hash = trace->hash;
        tr.session_id = trace->session_id;
        tr.stage = static_cast<Stage>(i);
        tr.start_micros = trace->wall_start_micros +
                          (span.start_nanos - trace->mono_start_nanos) / 1000;
        tr.duration_nanos = span.duration_nanos;
        shard.traces.Push(tr);
      }
    }
#endif
  }

#ifndef IMON_METRICS_DISABLED
  // Histogram handles are wait-free; no lock needed here. The statement's
  // wall-clock end stamps last_updated_micros, so imp_stage_latency
  // readers (and staleness alert rules) see when a stage last moved.
  int64_t wall_end_micros = trace->wall_start_micros + wallclock_nanos / 1000;
  for (int i = 0; i < kNumStages; ++i) {
    const StageSpan& span = trace->stages[i];
    if (stage_hist_[i] != nullptr && span.start_nanos != 0) {
      stage_hist_[i]->RecordAt(span.duration_nanos, wall_end_micros);
    }
  }
  if (wallclock_hist_ != nullptr) {
    wallclock_hist_->RecordAt(wallclock_nanos, wall_end_micros);
  }
#endif

  statements_executed_.fetch_add(1, std::memory_order_relaxed);
  since_last_sample_.fetch_add(1, std::memory_order_relaxed);
  total_monitor_nanos_.fetch_add(trace->monitor_nanos,
                                 std::memory_order_relaxed);
}

void Monitor::RegisterStatement(Shard& shard, const QueryTrace& trace) {
  auto it = shard.statements.find(trace.hash);
  if (it != shard.statements.end()) {
    it->second.frequency += 1;
    it->second.last_seen_micros = trace.wall_start_micros;
    it->second.seq = next_statement_seq_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Bounded by the configured moving window: at capacity the oldest
  // statement is evicted, and the newcomer takes over its map node and
  // text buffer.
  const bool evict = shard.statement_arrivals.full();
  uint64_t& arrival = shard.statement_arrivals.PushSlot();
  decltype(shard.statements)::node_type node;
  if (evict) node = shard.statements.extract(arrival);
  arrival = trace.hash;
  if (node.empty()) {
    it = shard.statements.try_emplace(trace.hash).first;
  } else {
    node.key() = trace.hash;
    it = shard.statements.insert(std::move(node)).position;
  }
  StatementRecord& stmt = it->second;
  stmt.hash = trace.hash;
  stmt.text.assign(trace.text);
  stmt.frequency = 1;
  stmt.first_seen_micros = trace.wall_start_micros;
  stmt.last_seen_micros = trace.wall_start_micros;
  stmt.seq = next_statement_seq_.fetch_add(1, std::memory_order_relaxed);
}

bool Monitor::ShouldSampleStats() {
  if (!config_.enabled || config_.stats_sample_every <= 0) return false;
  if (since_last_sample_.load(std::memory_order_relaxed) <
      config_.stats_sample_every) {
    return false;
  }
  since_last_sample_.store(0, std::memory_order_relaxed);
  return true;
}

void Monitor::RecordSystemStats(const SystemSnapshot& snapshot) {
  if (!config_.enabled) return;
  StatisticsRecord record;
  record.time_micros = clock_->NowMicros();
  record.current_sessions = snapshot.current_sessions;
  record.max_sessions_seen = max_sessions_seen_.load(std::memory_order_relaxed);
  record.locks_held = snapshot.locks_held;
  record.lock_waits_total = snapshot.lock_waits_total;
  record.deadlocks_total = snapshot.deadlocks_total;
  record.cache_logical_reads = snapshot.cache_logical_reads;
  record.cache_physical_reads = snapshot.cache_physical_reads;
  record.cache_hit_ratio =
      snapshot.cache_logical_reads > 0
          ? 1.0 - static_cast<double>(snapshot.cache_physical_reads) /
                      static_cast<double>(snapshot.cache_logical_reads)
          : 1.0;
  record.disk_reads = snapshot.disk_reads;
  record.disk_writes = snapshot.disk_writes;
  record.statements_executed =
      statements_executed_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  record.seq = next_stats_seq_++;
  statistics_.Push(std::move(record));
}

void Monitor::NoteSessionCount(int64_t sessions) {
  int64_t seen = max_sessions_seen_.load(std::memory_order_relaxed);
  while (sessions > seen &&
         !max_sessions_seen_.compare_exchange_weak(
             seen, sessions, std::memory_order_relaxed)) {
  }
}

std::vector<StatementRecord> Monitor::SnapshotStatements() const {
  // Merge the per-shard registries by hash: a statement issued from
  // sessions on different shards appears once, with summed frequency and
  // the widest first/last-seen span.
  std::unordered_map<uint64_t, StatementRecord> merged;
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      for (const auto& [hash, record] : shard->statements) {
        auto [it, inserted] = merged.emplace(hash, record);
        if (!inserted) {
          it->second.frequency += record.frequency;
          it->second.first_seen_micros = std::min(it->second.first_seen_micros,
                                                  record.first_seen_micros);
          it->second.last_seen_micros = std::max(it->second.last_seen_micros,
                                                 record.last_seen_micros);
          it->second.seq = std::max(it->second.seq, record.seq);
        }
      }
    }
  }
  std::vector<StatementRecord> out;
  out.reserve(merged.size());
  for (auto& [hash, record] : merged) out.push_back(std::move(record));
  std::sort(out.begin(), out.end(),
            [](const StatementRecord& a, const StatementRecord& b) {
              return a.first_seen_micros < b.first_seen_micros;
            });
  return out;
}

std::vector<StatementRecord> Monitor::SnapshotStatementsSince(
    int64_t min_seq) const {
  // The registry keeps one row per hash, so "since" filters on the
  // row's change stamp after the same cross-shard merge as the full
  // snapshot (a shard-local row may predate min_seq while another
  // shard's copy does not — merge first, then filter).
  std::vector<StatementRecord> all = SnapshotStatements();
  std::vector<StatementRecord> out;
  out.reserve(all.size());
  for (auto& record : all) {
    if (record.seq > min_seq) out.push_back(std::move(record));
  }
  return out;
}

std::vector<TemplateRecord> Monitor::SnapshotTemplates() const {
  std::unordered_map<uint64_t, TemplateRecord> merged;
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      for (const auto& [fp, rec] : shard->templates) {
        auto [it, inserted] = merged.emplace(fp, rec);
        if (inserted) continue;
        TemplateRecord& m = it->second;
        // Representative precedes the first/last-seen fold: each side's
        // sample is its own earliest (first_seen, hash) execution, so
        // comparing those pairs picks the global minimum.
        if (rec.first_seen_micros < m.first_seen_micros ||
            (rec.first_seen_micros == m.first_seen_micros &&
             rec.sample_hash < m.sample_hash)) {
          m.sample_hash = rec.sample_hash;
          m.sample_text = rec.sample_text;
          m.ref_tables = rec.ref_tables;
          m.ref_attributes = rec.ref_attributes;
        }
        m.executions += rec.executions;
        m.sampled_count += rec.sampled_count;
        m.total_actual += rec.total_actual;
        m.total_estimated += rec.total_estimated;
        m.first_seen_micros =
            std::min(m.first_seen_micros, rec.first_seen_micros);
        m.last_seen_micros = std::max(m.last_seen_micros, rec.last_seen_micros);
        m.seq = std::max(m.seq, rec.seq);
        m.actual_cost_milli.Merge(rec.actual_cost_milli);
        m.estimated_cost_milli.Merge(rec.estimated_cost_milli);
      }
    }
  }
  std::vector<TemplateRecord> out;
  out.reserve(merged.size());
  for (auto& [fp, rec] : merged) out.push_back(std::move(rec));
  // Deterministic order — greedy rules downstream iterate in this order,
  // so raw-mode analysis sorts its groups the same way.
  std::sort(out.begin(), out.end(),
            [](const TemplateRecord& a, const TemplateRecord& b) {
              if (a.first_seen_micros != b.first_seen_micros) {
                return a.first_seen_micros < b.first_seen_micros;
              }
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

std::vector<TemplateRecord> Monitor::SnapshotTemplatesSince(
    int64_t min_seq) const {
  std::vector<TemplateRecord> all = SnapshotTemplates();
  std::vector<TemplateRecord> out;
  out.reserve(all.size());
  for (auto& rec : all) {
    if (rec.seq > min_seq) out.push_back(std::move(rec));
  }
  return out;
}

std::vector<WorkloadRecord> Monitor::SnapshotWorkload() const {
  std::vector<std::vector<WorkloadRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) parts.push_back(shard->workload.Snapshot());
  }
  return MergeBySeq(std::move(parts));
}

std::vector<ReferenceRecord> Monitor::SnapshotReferences() const {
  std::vector<std::vector<ReferenceRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      parts.push_back(shard->references.Snapshot());
    }
  }
  return MergeBySeq(std::move(parts));
}

std::vector<StatisticsRecord> Monitor::SnapshotStatistics() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return statistics_.Snapshot();
}

std::vector<WorkloadRecord> Monitor::SnapshotWorkloadSince(
    int64_t min_seq) const {
  std::vector<std::vector<WorkloadRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      parts.push_back(shard->workload.SnapshotTail(
          [min_seq](const WorkloadRecord& r) { return r.seq > min_seq; }));
    }
  }
  return MergeBySeq(std::move(parts));
}

std::vector<ReferenceRecord> Monitor::SnapshotReferencesSince(
    int64_t min_seq) const {
  std::vector<std::vector<ReferenceRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      parts.push_back(shard->references.SnapshotTail(
          [min_seq](const ReferenceRecord& r) { return r.seq > min_seq; }));
    }
  }
  return MergeBySeq(std::move(parts));
}

std::vector<StatisticsRecord> Monitor::SnapshotStatisticsSince(
    int64_t min_seq) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return statistics_.SnapshotTail(
      [min_seq](const StatisticsRecord& r) { return r.seq > min_seq; });
}

std::vector<TraceRecord> Monitor::SnapshotTraces() const {
  std::vector<std::vector<TraceRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) parts.push_back(shard->traces.Snapshot());
  }
  return MergeBySeq(std::move(parts));
}

std::vector<TraceRecord> Monitor::SnapshotTracesSince(int64_t min_seq) const {
  std::vector<std::vector<TraceRecord>> parts;
  parts.reserve(shards_.size());
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      parts.push_back(shard->traces.SnapshotTail(
          [min_seq](const TraceRecord& r) { return r.seq > min_seq; }));
    }
  }
  return MergeBySeq(std::move(parts));
}

std::vector<ShardStats> Monitor::ShardStatsSnapshot() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  auto locks = LockAllShards();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats stats;
    stats.shard = static_cast<int64_t>(i);
    stats.statements_committed = shard.committed;
    stats.workload_dropped = shard.workload.overwritten();
    stats.references_dropped = shard.references.overwritten();
    stats.traces_dropped = shard.traces.overwritten();
    stats.workload_sampled_out = shard.workload_sampled_out;
    stats.monitor_nanos = shard.monitor_nanos;
    out.push_back(stats);
  }
  return out;
}

std::map<ObjectId, int64_t> Monitor::TableFrequencies() const {
  std::map<ObjectId, int64_t> out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    for (const auto& [id, freq] : shard->table_freq) out[id] += freq;
  }
  return out;
}

std::map<std::pair<ObjectId, int>, int64_t> Monitor::AttributeFrequencies()
    const {
  std::map<std::pair<ObjectId, int>, int64_t> out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    for (const auto& [key, freq] : shard->attr_freq) {
      out[{key.table_id, key.ordinal}] += freq;
    }
  }
  return out;
}

std::map<ObjectId, int64_t> Monitor::IndexFrequencies() const {
  std::map<ObjectId, int64_t> out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    for (const auto& [id, freq] : shard->index_freq) out[id] += freq;
  }
  return out;
}

MonitorCounters Monitor::counters() const {
  MonitorCounters out;
  out.statements_committed =
      statements_executed_.load(std::memory_order_relaxed);
  out.total_monitor_nanos =
      total_monitor_nanos_.load(std::memory_order_relaxed);
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    out.statements_dropped += shard->workload.overwritten();
  }
  return out;
}

void Monitor::Clear() {
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      shard->statements.clear();
      shard->statement_arrivals.Clear();
      shard->templates.clear();
      shard->template_arrivals.clear();
      shard->workload.Clear();
      shard->references.Clear();
      shard->traces.Clear();
      shard->table_freq.clear();
      shard->attr_freq.clear();
      shard->index_freq.clear();
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  statistics_.Clear();
}

}  // namespace imon::monitor
