#include "monitor/monitor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
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

/// Add to a counter only its shard's lock holder writes: a plain load
/// and store, no read-modify-write.
void AddLocked(std::atomic<int64_t>& counter, int64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
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
    shards_.push_back(std::make_unique<Shard>(config_.statement_window,
                                              config_.workload_window));
  }
}

void Monitor::AttachMetrics(metrics::MetricsRegistry* registry) {
  latency_source_.reset();
  if (registry == nullptr) return;
  latency_source_ =
      std::make_shared<const metrics::MetricsRegistry::HistogramSource>(
          [this](std::vector<metrics::HistogramStats>* out) {
            AppendLatencyStats(out);
          });
  registry->AddHistogramSource(latency_source_);
}

void Monitor::AppendLatencyStats(
    std::vector<metrics::HistogramStats>* out) const {
  LatencyHistograms merged;
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      for (size_t i = 0; i < merged.size(); ++i) {
        merged[i].Merge(shard->latency[i]);
      }
    }
  }
  for (int i = 0; i < kNumStages; ++i) {
    out->push_back(merged[i].Stats(std::string("stage.") +
                                   StageName(static_cast<Stage>(i)) +
                                   ".nanos"));
  }
  out->push_back(
      merged[kWallclockHistogram].Stats("statement.wallclock_nanos"));
}

std::vector<std::unique_lock<std::mutex>> Monitor::LockAllShards() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  return locks;
}

Monitor::RefSet* Monitor::CurrentRefSet(Shard& shard, TemplateEntry& entry,
                                        const QueryTrace& trace) {
  RefSet* current = entry.refs;
  if (current != nullptr && current->tables == trace.ref_tables &&
      current->attributes == trace.ref_attributes &&
      current->indexes == trace.ref_indexes) {
    return current;
  }
  RefSet* fresh;
  if (shard.free_sets.empty()) {
    shard.ref_sets.push_back(std::make_unique<RefSet>());
    fresh = shard.ref_sets.back().get();
  } else {
    fresh = shard.free_sets.back();
    shard.free_sets.pop_back();
  }
  fresh->tables.assign(trace.ref_tables.begin(), trace.ref_tables.end());
  fresh->attributes.assign(trace.ref_attributes.begin(),
                           trace.ref_attributes.end());
  fresh->indexes.assign(trace.ref_indexes.begin(), trace.ref_indexes.end());
  fresh->holders = 1;  // the template's
  entry.refs = fresh;
  if (current != nullptr) ReleaseRefSet(shard, current);
  return fresh;
}

void Monitor::ReleaseRefSet(Shard& shard, RefSet* refs) {
  if (--refs->holders > 0) return;
  for (ObjectId t : refs->tables) shard.table_freq[t] += refs->executions;
  for (const auto& [table_id, ordinal] : refs->attributes) {
    shard.attr_freq[AttrKey{table_id, ordinal}] += refs->executions;
  }
  for (const auto& [idx, uses] : refs->used) shard.index_freq[idx] += uses;
  refs->executions = 0;
  refs->used.clear();
  shard.free_sets.push_back(refs);
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
  TemplateEntry& entry = tit->second;
  TemplateRecord& tmpl = entry.record;
  if (t_created) {
    while (shard.templates.size() > config_.template_window &&
           !shard.template_arrivals.empty()) {
      uint64_t victim = shard.template_arrivals.front();
      shard.template_arrivals.pop_front();
      if (victim == fingerprint) continue;
      auto vit = shard.templates.find(victim);
      if (vit == shard.templates.end()) continue;
      if (vit->second.refs != nullptr) ReleaseRefSet(shard, vit->second.refs);
      shard.templates.erase(vit);
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

  // -- object frequencies count executions, not retained raw rows: the
  // reference set counts every commit that bound it.
  RefSet* refs = CurrentRefSet(shard, entry, *trace);
  refs->executions += 1;
  for (ObjectId idx : trace->used_indexes) {
    auto use = std::find_if(refs->used.begin(), refs->used.end(),
                            [idx](const auto& u) { return u.first == idx; });
    if (use == refs->used.end()) {
      refs->used.emplace_back(idx, 1);
    } else {
      use->second += 1;
    }
  }

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
    trace->monitor_nanos += MonotonicNanos() - begin;
    AddLocked(shard.sampled_out, 1);
    AddLocked(shard.monitor_nanos, trace->monitor_nanos);
    lock.unlock();
    since_last_sample_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  tmpl.sampled_count += 1;

  // One fetch_add claims the statement's whole seq block (workload
  // record first, then one seq per reference) so the global order is
  // identical to the pre-sharding single-counter order. Sampled-out
  // commits return before this point, keeping the domain dense.
  const int64_t workload_seq = next_seq_.fetch_add(
      1 + static_cast<int64_t>(refs->rows() + trace->used_indexes.size()),
      std::memory_order_relaxed);

  RegisterStatement(shard, *trace);

  if (config_.commit_stall_nanos > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config_.commit_stall_nanos));
  }

  // One clock read closes the commit's self-time and its span; the
  // record below is written after it.
  const int64_t end = MonotonicNanos();
  trace->monitor_nanos += end - begin;
  int64_t trace_seq = 0;
#ifndef IMON_METRICS_DISABLED
  // Trace seqs come from their own counter (claimed under the shard
  // lock, so per-shard runs stay ascending for the k-way merge) — the
  // workload seq domain must remain dense.
  trace->stages[static_cast<size_t>(Stage::kCommit)] = {begin, end - begin};
  int64_t marked = 0;
  for (const StageSpan& span : trace->stages) marked += span.start_nanos != 0;
  trace_seq = next_trace_seq_.fetch_add(marked, std::memory_order_relaxed);
#endif

  // The record is written into its ring slot in place: once the ring is
  // full, used_indexes reuses the evicted record's buffer, and the
  // evicted record's reference and trace rows are counted as dropped.
  ++refs->holders;
  const bool evict = shard.workload.full();
  KeptRecord& kept_record = shard.workload.PushSlot();
  if (evict) {
    shard.references_dropped += kept_record.reference_rows();
    shard.traces_dropped += kept_record.trace_rows();
    ReleaseRefSet(shard, kept_record.refs);
  }
  WorkloadRecord& record = kept_record.row;
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
  kept_record.refs = refs;
  kept_record.session_id = trace->session_id;
  kept_record.trace_seq = trace_seq;
  kept_record.mono_start_nanos = trace->mono_start_nanos;
  kept_record.stages = trace->stages;
  AddLocked(shard.committed, 1);
  AddLocked(shard.monitor_nanos, trace->monitor_nanos);

#ifndef IMON_METRICS_DISABLED
  // The statement's wall-clock end stamps last_updated_micros, so
  // imp_stage_latency readers (and staleness alert rules) see when a
  // stage last moved.
  int64_t wall_end_micros = trace->wall_start_micros + wallclock_nanos / 1000;
  for (int i = 0; i < kNumStages; ++i) {
    const StageSpan& span = trace->stages[i];
    if (span.start_nanos != 0) {
      shard.latency[i].RecordAt(span.duration_nanos, wall_end_micros);
    }
  }
  shard.latency[kWallclockHistogram].RecordAt(wallclock_nanos,
                                              wall_end_micros);
#endif
  lock.unlock();
  since_last_sample_.fetch_add(1, std::memory_order_relaxed);
}

void Monitor::RegisterStatement(Shard& shard, const QueryTrace& trace) {
  const int64_t seq =
      next_statement_seq_.fetch_add(1, std::memory_order_relaxed);
  if (StatementRecord* row = shard.statements.Find(trace.hash)) {
    row->frequency += 1;
    row->last_seen_micros = trace.wall_start_micros;
    row->seq = seq;
    return;
  }
  // Bounded by the configured moving window: at capacity the oldest
  // arrival is evicted, and the newcomer takes over its slot and text
  // buffer.
  StatementRecord& row = shard.statements.Insert(trace.hash);
  row.text.assign(trace.text);
  row.frequency = 1;
  row.first_seen_micros = trace.wall_start_micros;
  row.last_seen_micros = trace.wall_start_micros;
  row.seq = seq;
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
  record.statements_executed = statements_executed();
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
      for (const StatementRecord& record : shard->statements.rows()) {
        auto [it, inserted] = merged.emplace(record.hash, record);
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
  // (first_seen, hash), like SnapshotTemplates: ties are common on a
  // simulated clock, and must not come out in hash-map order.
  std::sort(out.begin(), out.end(),
            [](const StatementRecord& a, const StatementRecord& b) {
              if (a.first_seen_micros != b.first_seen_micros) {
                return a.first_seen_micros < b.first_seen_micros;
              }
              return a.hash < b.hash;
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
      for (const auto& [fp, entry] : shard->templates) {
        const TemplateRecord& rec = entry.record;
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

std::vector<StatisticsRecord> Monitor::SnapshotStatistics() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return statistics_.Snapshot();
}

std::vector<StatisticsRecord> Monitor::SnapshotStatisticsSince(
    int64_t min_seq) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return statistics_.SnapshotTail(
      [min_seq](const StatisticsRecord& r) { return r.seq > min_seq; });
}

void Monitor::KeptRecord::AppendReferences(
    int64_t min_seq, std::vector<ReferenceRecord>* out) const {
  int64_t seq = row.seq;
  auto emit = [&](RefType type, ObjectId object, ObjectId table, int ordinal) {
    if (++seq <= min_seq) return;
    ReferenceRecord& ref = out->emplace_back();
    ref.seq = seq;
    ref.hash = row.hash;
    ref.type = type;
    ref.object_id = object;
    ref.table_id = table;
    ref.ordinal = ordinal;
  };
  for (ObjectId t : refs->tables) emit(RefType::kTable, t, t, -1);
  for (const auto& [table_id, ordinal] : refs->attributes) {
    // An attribute is identified by (table, ordinal).
    emit(RefType::kAttribute, table_id, table_id, ordinal);
  }
  for (ObjectId idx : refs->indexes) emit(RefType::kIndex, idx, -1, -1);
  for (ObjectId idx : row.used_indexes) emit(RefType::kUsedIndex, idx, -1, -1);
}

void Monitor::KeptRecord::AppendTraces(int64_t min_seq,
                                       std::vector<TraceRecord>* out) const {
  int64_t seq = trace_seq - 1;
  for (int i = 0; i < kNumStages; ++i) {
    const StageSpan& span = stages[i];
    if (span.start_nanos == 0) continue;
    if (++seq <= min_seq) continue;
    TraceRecord& tr = out->emplace_back();
    tr.seq = seq;
    tr.hash = row.hash;
    tr.session_id = session_id;
    tr.stage = static_cast<Stage>(i);
    tr.start_micros =
        row.start_micros + (span.start_nanos - mono_start_nanos) / 1000;
    tr.duration_nanos = span.duration_nanos;
  }
}

template <typename Rec, typename Collect>
std::vector<Rec> Monitor::CollectShards(Collect collect) const {
  std::vector<std::vector<Rec>> parts(shards_.size());
  {
    auto locks = LockAllShards();
    for (size_t i = 0; i < shards_.size(); ++i) {
      collect(shards_[i]->workload, &parts[i]);
    }
  }
  return MergeBySeq(std::move(parts));
}

namespace {

/// Ring position of the oldest record with a row past min_seq: rows are
/// ascending in ring order, so the walk stops at the first record whose
/// last row is at or below the cursor.
template <typename Ring, typename LastSeq>
size_t FirstAfter(const Ring& ring, int64_t min_seq, LastSeq last_seq) {
  size_t i = ring.size();
  while (i > 0 && last_seq(ring[i - 1]) > min_seq) --i;
  return i;
}

}  // namespace

std::vector<WorkloadRecord> Monitor::SnapshotWorkload() const {
  return SnapshotWorkloadSince(std::numeric_limits<int64_t>::min());
}

std::vector<WorkloadRecord> Monitor::SnapshotWorkloadSince(
    int64_t min_seq) const {
  return CollectShards<WorkloadRecord>(
      [min_seq](const RingBuffer<KeptRecord>& ring,
                std::vector<WorkloadRecord>* out) {
        size_t i = FirstAfter(ring, min_seq,
                              [](const KeptRecord& r) { return r.row.seq; });
        out->reserve(ring.size() - i);
        for (; i < ring.size(); ++i) out->push_back(ring[i].row);
      });
}

std::vector<ReferenceRecord> Monitor::SnapshotReferences() const {
  return SnapshotReferencesSince(std::numeric_limits<int64_t>::min());
}

std::vector<ReferenceRecord> Monitor::SnapshotReferencesSince(
    int64_t min_seq) const {
  return CollectShards<ReferenceRecord>(
      [min_seq](const RingBuffer<KeptRecord>& ring,
                std::vector<ReferenceRecord>* out) {
        size_t i = FirstAfter(ring, min_seq, [](const KeptRecord& r) {
          return r.row.seq + r.reference_rows();
        });
        for (; i < ring.size(); ++i) ring[i].AppendReferences(min_seq, out);
      });
}

std::vector<TraceRecord> Monitor::SnapshotTraces() const {
  return SnapshotTracesSince(std::numeric_limits<int64_t>::min());
}

std::vector<TraceRecord> Monitor::SnapshotTracesSince(int64_t min_seq) const {
  return CollectShards<TraceRecord>(
      [min_seq](const RingBuffer<KeptRecord>& ring,
                std::vector<TraceRecord>* out) {
        // A record without spans (metrics compiled out) ends the walk.
        size_t i = FirstAfter(ring, min_seq, [](const KeptRecord& r) {
          int64_t rows = r.trace_rows();
          return rows == 0 ? std::numeric_limits<int64_t>::min()
                           : r.trace_seq + rows - 1;
        });
        for (; i < ring.size(); ++i) ring[i].AppendTraces(min_seq, out);
      });
}

std::vector<ShardStats> Monitor::ShardStatsSnapshot() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  auto locks = LockAllShards();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats stats;
    stats.shard = static_cast<int64_t>(i);
    stats.statements_committed = shard.committed.load(std::memory_order_relaxed);
    stats.workload_dropped = shard.workload.overwritten();
    stats.references_dropped = shard.references_dropped;
    stats.traces_dropped = shard.traces_dropped;
    stats.workload_sampled_out =
        shard.sampled_out.load(std::memory_order_relaxed);
    stats.monitor_nanos = shard.monitor_nanos.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

// Each frequency is what retired sets folded into the shard's residual
// map plus the executions of its live sets.

std::map<ObjectId, int64_t> Monitor::TableFrequencies() const {
  std::map<ObjectId, int64_t> out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    for (const auto& [id, freq] : shard->table_freq) out[id] += freq;
    for (const auto& set : shard->ref_sets) {
      if (set->holders == 0) continue;
      for (ObjectId t : set->tables) out[t] += set->executions;
    }
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
    for (const auto& set : shard->ref_sets) {
      if (set->holders == 0) continue;
      for (const auto& attr : set->attributes) out[attr] += set->executions;
    }
  }
  return out;
}

std::map<ObjectId, int64_t> Monitor::IndexFrequencies() const {
  std::map<ObjectId, int64_t> out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    for (const auto& [id, freq] : shard->index_freq) out[id] += freq;
    for (const auto& set : shard->ref_sets) {
      if (set->holders == 0) continue;
      for (const auto& [idx, uses] : set->used) out[idx] += uses;
    }
  }
  return out;
}

int64_t Monitor::statements_executed() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->committed.load(std::memory_order_relaxed) +
             shard->sampled_out.load(std::memory_order_relaxed);
  }
  return total;
}

MonitorCounters Monitor::counters() const {
  MonitorCounters out;
  auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    out.statements_committed +=
        shard->committed.load(std::memory_order_relaxed) +
        shard->sampled_out.load(std::memory_order_relaxed);
    out.total_monitor_nanos +=
        shard->monitor_nanos.load(std::memory_order_relaxed);
    out.statements_dropped += shard->workload.overwritten();
  }
  return out;
}

void Monitor::Clear() {
  {
    auto locks = LockAllShards();
    for (const auto& shard : shards_) {
      shard->statements.Clear();
      shard->templates.clear();
      shard->template_arrivals.clear();
      shard->workload.Clear();
      shard->free_sets.clear();
      for (const auto& set : shard->ref_sets) {
        set->executions = 0;
        set->used.clear();
        set->holders = 0;
        shard->free_sets.push_back(set.get());
      }
      shard->table_freq.clear();
      shard->attr_freq.clear();
      shard->index_freq.clear();
    }
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  statistics_.Clear();
}

}  // namespace imon::monitor
