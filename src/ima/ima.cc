#include "ima/ima.h"

#include <functional>
#include <utility>

namespace imon::ima {

using catalog::ColumnInfo;
using engine::Database;
using monitor::Monitor;
using monitor::RefType;

std::vector<ColumnInfo> ImaTable::Schema() const {
  std::vector<ColumnInfo> out;
  out.reserve(columns.size());
  for (const ImaColumn& c : columns) {
    out.push_back(catalog::Column(c.name, c.type));
  }
  return out;
}

Row MetricsHistoryRow(const metrics::HistorySample& s) {
  return {Value::Text(s.name), Value::Int(s.resolution),
          Value::Int(s.tick_micros), Value::Int(s.min), Value::Int(s.max),
          Value::Int(s.sum), Value::Int(s.count), Value::Int(s.last)};
}

namespace {

Value IntV(int64_t v) { return Value::Int(v); }
Value HashV(uint64_t h) { return Value::Int(static_cast<int64_t>(h)); }

/// Produces an IMA table's rows with seq > min_seq (tables without a seq
/// column ignore min_seq).
using RowsFn = std::function<std::vector<Row>(int64_t min_seq)>;

/// Every IMA table's provider: Schema() and SeqColumn() come from the
/// table's definition, the rows from `rows`.
class ImaProvider final : public catalog::VirtualTableProvider {
 public:
  ImaProvider(const ImaTable& table, RowsFn rows)
      : table_(table), rows_(std::move(rows)) {}
  std::vector<ColumnInfo> Schema() const override { return table_.Schema(); }
  int SeqColumn() const override { return table_.seq_column; }
  std::vector<Row> Rows(int64_t min_seq) const override {
    return rows_(min_seq);
  }

 private:
  const ImaTable& table_;
  RowsFn rows_;
};

/// One row per record, built by `row`.
template <typename Record, typename RowOf>
std::vector<Row> Materialize(const std::vector<Record>& records, RowOf row) {
  std::vector<Row> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(row(r));
  return out;
}

Row StatementRow(const monitor::StatementRecord& s) {
  return {HashV(s.hash), Value::Text(s.text), IntV(s.frequency),
          IntV(s.first_seen_micros), IntV(s.last_seen_micros), IntV(s.seq)};
}

Row WorkloadRow(const monitor::WorkloadRecord& w) {
  return {IntV(w.seq), HashV(w.hash), IntV(w.start_micros),
          IntV(w.wallclock_nanos), IntV(w.optimizer_cpu_nanos),
          IntV(w.optimizer_disk_io), IntV(w.execute_cpu_nanos),
          IntV(w.execute_disk_io), Value::Double(w.estimated_cpu),
          Value::Double(w.estimated_io),
          Value::Double(w.estimated_cpu + w.estimated_io),
          Value::Double(w.actual_cost), IntV(w.rows_examined),
          IntV(w.rows_output), IntV(w.monitor_nanos)};
}

/// The object-reference lists are serialized as comma-joined TEXT: per
/// template they are tiny and fixed, and keeping the row self-contained
/// spares a second junction table. Quantiles are in optimizer cost units
/// (the monitor buckets milli-cost fixed point).
Row TemplateRow(const monitor::TemplateRecord& t) {
  std::string tables;
  for (monitor::ObjectId id : t.ref_tables) {
    if (!tables.empty()) tables.push_back(',');
    tables += std::to_string(id);
  }
  std::string attrs;
  for (const auto& [table_id, ordinal] : t.ref_attributes) {
    if (!attrs.empty()) attrs.push_back(',');
    attrs += std::to_string(table_id) + ":" + std::to_string(ordinal);
  }
  auto q = [](const metrics::Log2Buckets& h, double p) {
    return Value::Double(static_cast<double>(h.ValueAtPercentile(p)) / 1000.0);
  };
  return {IntV(t.seq), HashV(t.fingerprint), Value::Text(t.template_text),
          HashV(t.sample_hash), Value::Text(t.sample_text),
          IntV(t.executions), IntV(t.sampled_count),
          Value::Double(t.total_actual), Value::Double(t.total_estimated),
          IntV(t.first_seen_micros), IntV(t.last_seen_micros),
          Value::Text(tables), Value::Text(attrs),
          q(t.actual_cost_milli, 50), q(t.actual_cost_milli, 95),
          q(t.actual_cost_milli, 99), q(t.estimated_cost_milli, 50),
          q(t.estimated_cost_milli, 95), q(t.estimated_cost_milli, 99)};
}

Row ReferenceRow(const monitor::ReferenceRecord& r) {
  const char* type = "table";
  switch (r.type) {
    case RefType::kTable:
      type = "table";
      break;
    case RefType::kAttribute:
      type = "attribute";
      break;
    case RefType::kIndex:
      type = "index";
      break;
    case RefType::kUsedIndex:
      type = "used_index";
      break;
  }
  return {IntV(r.seq), HashV(r.hash), Value::Text(type),
          IntV(r.object_id), IntV(r.table_id), IntV(r.ordinal)};
}

Row StatisticsRow(const monitor::StatisticsRecord& s) {
  return {IntV(s.seq), IntV(s.time_micros), IntV(s.current_sessions),
          IntV(s.max_sessions_seen), IntV(s.locks_held),
          IntV(s.lock_waits_total), IntV(s.deadlocks_total),
          IntV(s.cache_logical_reads), IntV(s.cache_physical_reads),
          Value::Double(s.cache_hit_ratio), IntV(s.disk_reads),
          IntV(s.disk_writes), IntV(s.statements_executed)};
}

/// One row per commit shard; aggregates are SUM() away.
Row ShardRow(const monitor::ShardStats& s) {
  return {IntV(s.shard), IntV(s.statements_committed),
          IntV(s.workload_dropped), IntV(s.references_dropped),
          IntV(s.traces_dropped), IntV(s.monitor_nanos),
          IntV(s.workload_sampled_out)};
}

Row TraceRow(const monitor::TraceRecord& t) {
  return {IntV(t.seq), HashV(t.hash), IntV(t.session_id),
          Value::Text(monitor::StageName(t.stage)), IntV(t.start_micros),
          IntV(t.duration_nanos)};
}

std::vector<Row> TableRows(const Monitor* m, const catalog::Catalog* c) {
  auto freq = m->TableFrequencies();
  std::vector<Row> out;
  for (const auto& t : c->ListTables()) {
    auto it = freq.find(t.id);
    out.push_back({IntV(t.id), Value::Text(t.name),
                   IntV(it == freq.end() ? 0 : it->second),
                   Value::Text(catalog::StorageStructureName(t.structure)),
                   IntV(t.main_pages), IntV(t.overflow_pages),
                   IntV(t.row_count)});
  }
  return out;
}

std::vector<Row> AttributeRows(const Monitor* m, const catalog::Catalog* c) {
  auto freq = m->AttributeFrequencies();
  std::vector<Row> out;
  for (const auto& t : c->ListTables()) {
    for (const auto& col : t.columns) {
      auto it = freq.find({t.id, col.ordinal});
      auto stats = c->GetColumnStats(t.id, col.ordinal);
      out.push_back({IntV(t.id), IntV(col.ordinal), Value::Text(col.name),
                     IntV(it == freq.end() ? 0 : it->second),
                     IntV(stats.has_histogram ? 1 : 0)});
    }
  }
  return out;
}

std::vector<Row> IndexRows(const Monitor* m, const catalog::Catalog* c) {
  auto freq = m->IndexFrequencies();
  std::vector<Row> out;
  for (const auto& idx : c->ListIndexes()) {
    if (idx.is_virtual) continue;
    auto it = freq.find(idx.id);
    out.push_back({IntV(idx.id), Value::Text(idx.name), IntV(idx.table_id),
                   IntV(it == freq.end() ? 0 : it->second), IntV(idx.pages),
                   IntV(idx.unique ? 1 : 0)});
  }
  return out;
}

}  // namespace

Status RegisterImaTables(Database* db) {
  const Monitor* m = db->monitor();
  const catalog::Catalog* c = db->catalog();
  const metrics::MetricsRegistry* registry = db->metrics();
  const metrics::MetricsHistory* history = db->metrics_history();
  const std::pair<const char*, RowsFn> providers[] = {
      {"imp_statements",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotStatements(min_seq), StatementRow);
       }},
      {"imp_workload",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotWorkload(min_seq), WorkloadRow);
       }},
      {"imp_references",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotReferences(min_seq), ReferenceRow);
       }},
      {"imp_templates",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotTemplates(min_seq), TemplateRow);
       }},
      {"imp_tables", [m, c](int64_t) { return TableRows(m, c); }},
      {"imp_attributes", [m, c](int64_t) { return AttributeRows(m, c); }},
      {"imp_indexes", [m, c](int64_t) { return IndexRows(m, c); }},
      {"imp_statistics",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotStatistics(min_seq), StatisticsRow);
       }},
      {"imp_monitor",
       [m](int64_t) { return Materialize(m->ShardStatsSnapshot(), ShardRow); }},
      {"imp_metrics",
       [registry](int64_t) {
         return Materialize(registry->SnapshotValues(), [](const auto& v) {
           return Row{Value::Text(v.name), Value::Text(v.kind), IntV(v.value)};
         });
       }},
      {"imp_stage_latency",
       [registry](int64_t) {
         return Materialize(registry->SnapshotHistograms(), [](const auto& h) {
           return Row{Value::Text(h.name), IntV(h.count), IntV(h.sum),
                      IntV(h.max), IntV(h.p50), IntV(h.p95), IntV(h.p99),
                      IntV(h.last_update_micros)};
         });
       }},
      {"imp_traces",
       [m](int64_t min_seq) {
         return Materialize(m->SnapshotTraces(min_seq), TraceRow);
       }},
      {"imp_metrics_history",
       [history](int64_t) {
         return Materialize(history->Snapshot(), MetricsHistoryRow);
       }},
  };
  for (const auto& [name, rows] : providers) {
    IMON_RETURN_IF_ERROR(db->RegisterVirtualTable(
        name, std::make_shared<ImaProvider>(FindImaTable(name), rows)));
  }
  return Status::OK();
}

}  // namespace imon::ima
