// Differential workload-compression suite: every seeded fuzz workload
// is replayed through the full pipeline, and the compressed
// per-template aggregates the analyzer reads (wl_templates, or live
// imp_templates) must hold exactly what grouping the raw per-execution
// rows by normalized template gives: executions, cost sums, the
// representative statement and the referenced tables. The analyzer's
// rules are functions of those inputs, so compression that changed one
// would change a tuning decision; that is a bug, not a space
// optimization.
//
// Custom main(): `compression_test --seed=N --iters=K` replays the
// sweep from any seed; tier-1 runs an explicit 100-workload sweep and
// leaves BENCH_compress_equiv.json behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "bench/bench_util.h"
#include "daemon/daemon.h"
#include "ima/ima.h"
#include "monitor/monitor.h"
#include "sql/normalizer.h"
#include "testing/fault_injector.h"
#include "testing/workload_gen.h"

namespace imon::testing {
namespace {

using analyzer::Analyzer;
using engine::Database;
using engine::DatabaseOptions;

uint64_t g_seed = 1;
int g_iters = 5;

/// One full paper pipeline: monitored engine + IMA + storage daemon +
/// workload DB, on a simulated clock so replays are time-deterministic.
struct Pipeline {
  explicit Pipeline(daemon::DaemonConfig daemon_config = DefaultDaemonConfig())
      : clock(1000000),
        monitored(MonitoredOptions(&clock)),
        workload_db(WorkloadOptions(&clock)) {
    EXPECT_TRUE(ima::RegisterImaTables(&monitored).ok());
    storage_daemon = std::make_unique<daemon::StorageDaemon>(
        &monitored, &workload_db, daemon_config, &clock);
    EXPECT_TRUE(storage_daemon->Initialize().ok());
  }

  static daemon::DaemonConfig DefaultDaemonConfig() {
    daemon::DaemonConfig config;
    config.polls_per_flush = 1;
    return config;
  }
  static DatabaseOptions MonitoredOptions(const Clock* clock) {
    DatabaseOptions o;
    o.name = "monitored";
    o.clock = clock;
    return o;
  }
  static DatabaseOptions WorkloadOptions(const Clock* clock) {
    DatabaseOptions o;
    o.name = "workload";
    o.monitor.enabled = false;
    o.clock = clock;
    return o;
  }

  void Replay(const Workload& w) {
    for (const std::string& sql : w.schema) Must(sql);
    for (const std::string& sql : w.data) Must(sql);
    for (const std::string& sql : w.index_ddl) Must(sql);
    for (const std::string& sql : w.queries) Must(sql);
  }
  void Must(const std::string& sql) {
    auto r = monitored.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  SimulatedClock clock;
  Database monitored;
  Database workload_db;
  std::unique_ptr<daemon::StorageDaemon> storage_daemon;
};

/// One template's analyzer inputs: the fields the rules read.
struct TemplateInputs {
  uint64_t hash = 0;  ///< representative: min (first_seen, hash)
  std::string text;
  int64_t first_seen_micros = 0;
  int64_t frequency = 0;
  int64_t executions = 0;
  double total_actual = 0;
  double total_estimated = 0;
  std::vector<int64_t> ref_tables;  ///< sorted, deduplicated

  bool operator==(const TemplateInputs&) const = default;
};
using InputsByFingerprint = std::map<uint64_t, TemplateInputs>;

/// All rows of `table` plus its name -> position map, read on an internal
/// session so the reads themselves are not monitored.
std::pair<std::vector<Row>, std::map<std::string, int>> Fetch(
    Database* db, const std::string& table) {
  auto session = db->CreateInternalSession();
  auto r = db->Execute("SELECT * FROM " + table, session.get());
  EXPECT_TRUE(r.ok()) << table << " -> " << r.status();
  if (!r.ok()) return {};
  std::map<std::string, int> cols;
  for (size_t i = 0; i < r->columns.size(); ++i) {
    cols[r->columns[i]] = static_cast<int>(i);
  }
  return std::make_pair(std::move(r->rows), std::move(cols));
}

/// The oracle: the per-execution rows (`prefix` = "wl_" or "imp_")
/// grouped by normalized template.
InputsByFingerprint GroupRawRows(Database* db, const std::string& prefix) {
  auto [stmt_rows, stmt_cols] = Fetch(db, prefix + "statements");
  // Per raw hash first (snapshots append over time: keep the largest
  // frequency and the earliest first_seen per hash)...
  struct RawStatement {
    std::string text;
    int64_t frequency = 1;
    int64_t first_seen = 0;
    bool have_first_seen = false;
  };
  std::map<uint64_t, RawStatement> raw;
  int hash_col = stmt_cols.at("hash");
  int text_col = stmt_cols.at("query_text");
  int freq_col = stmt_cols.at("frequency");
  int first_col = stmt_cols.at("first_seen");
  for (const Row& row : stmt_rows) {
    uint64_t hash = static_cast<uint64_t>(row[hash_col].AsInt());
    RawStatement& s = raw[hash];
    s.text = row[text_col].AsText();
    s.frequency = std::max(s.frequency, row[freq_col].AsInt());
    int64_t first_seen = row[first_col].AsInt();
    s.first_seen =
        s.have_first_seen ? std::min(s.first_seen, first_seen) : first_seen;
    s.have_first_seen = true;
  }

  // ...then group hashes into templates. Representative = the member
  // with the smallest (first_seen, hash) — the monitor picks its sampled
  // representative by the identical rule.
  InputsByFingerprint by_fingerprint;
  std::map<uint64_t, uint64_t> fingerprint_of;  // raw hash -> template
  std::map<uint64_t, std::set<int64_t>> group_tables;
  for (const auto& [hash, s] : raw) {
    uint64_t fingerprint = sql::NormalizeStatement(s.text).fingerprint;
    fingerprint_of[hash] = fingerprint;
    auto [it, inserted] = by_fingerprint.try_emplace(fingerprint);
    TemplateInputs& info = it->second;
    if (inserted || s.first_seen < info.first_seen_micros ||
        (s.first_seen == info.first_seen_micros && hash < info.hash)) {
      info.hash = hash;
      info.text = s.text;
      info.first_seen_micros = s.first_seen;
    }
    info.frequency = inserted ? s.frequency : info.frequency + s.frequency;
  }

  auto [wl_rows, wl_cols] = Fetch(db, prefix + "workload");
  int wl_hash = wl_cols.at("hash");
  int wl_actual = wl_cols.at("actual_cost");
  int wl_est = wl_cols.at("est_cost");
  for (const Row& row : wl_rows) {
    auto fp = fingerprint_of.find(static_cast<uint64_t>(row[wl_hash].AsInt()));
    if (fp == fingerprint_of.end()) continue;
    TemplateInputs& info = by_fingerprint.at(fp->second);
    info.total_actual += row[wl_actual].AsDouble();
    info.total_estimated += row[wl_est].AsDouble();
    info.executions += 1;
  }

  // Referenced tables per template, for R1.
  auto [ref_rows, ref_cols] = Fetch(db, prefix + "references");
  int ref_hash = ref_cols.at("hash");
  int ref_type = ref_cols.at("object_type");
  int ref_table = ref_cols.at("table_id");
  for (const Row& row : ref_rows) {
    if (row[ref_type].AsText() != "table") continue;
    auto fp = fingerprint_of.find(static_cast<uint64_t>(row[ref_hash].AsInt()));
    if (fp == fingerprint_of.end()) continue;
    group_tables[fp->second].insert(row[ref_table].AsInt());
  }
  for (auto& [fingerprint, info] : by_fingerprint) {
    const std::set<int64_t>& tables = group_tables[fingerprint];
    info.ref_tables.assign(tables.begin(), tables.end());
  }
  return by_fingerprint;
}

/// What the analyzer reads: the `prefix` + "templates" rows.
InputsByFingerprint ReadTemplates(Database* db, const std::string& prefix) {
  auto [rows, cols] = Fetch(db, prefix + "templates");
  InputsByFingerprint out;
  for (const Row& row : rows) {
    TemplateInputs info;
    info.hash = static_cast<uint64_t>(row[cols.at("sample_hash")].AsInt());
    info.text = row[cols.at("sample_text")].AsText();
    info.first_seen_micros = row[cols.at("first_seen")].AsInt();
    info.executions = row[cols.at("executions")].AsInt();
    info.frequency = info.executions;
    info.total_actual = row[cols.at("total_actual")].AsDouble();
    info.total_estimated = row[cols.at("total_estimated")].AsDouble();
    std::set<int64_t> tables;
    std::istringstream csv(row[cols.at("ref_tables")].AsText());
    for (std::string id; std::getline(csv, id, ',');) {
      if (!id.empty()) tables.insert(std::stoll(id));
    }
    info.ref_tables.assign(tables.begin(), tables.end());
    EXPECT_TRUE(
        out.emplace(static_cast<uint64_t>(row[cols.at("fingerprint")].AsInt()),
                    std::move(info))
            .second)
        << "two " << prefix << "templates rows for one fingerprint";
  }
  return out;
}

std::string Describe(const TemplateInputs& t) {
  std::ostringstream os;
  os << "hash=" << t.hash << " first_seen=" << t.first_seen_micros
     << " freq=" << t.frequency << " execs=" << t.executions
     << " actual=" << t.total_actual << " est=" << t.total_estimated
     << " tables=[";
  for (int64_t id : t.ref_tables) os << id << ",";
  os << "] text=" << t.text;
  return os.str();
}

/// Empty when the oracle and the templates hold the same inputs for the
/// same fingerprints; otherwise one line per side of each difference.
std::string Divergence(const InputsByFingerprint& oracle,
                       const InputsByFingerprint& templates) {
  std::ostringstream os;
  std::set<uint64_t> fingerprints;
  for (const auto& entry : oracle) fingerprints.insert(entry.first);
  for (const auto& entry : templates) fingerprints.insert(entry.first);
  for (uint64_t fp : fingerprints) {
    auto raw = oracle.find(fp);
    auto tmpl = templates.find(fp);
    if (raw != oracle.end() && tmpl != templates.end() &&
        raw->second == tmpl->second) {
      continue;
    }
    os << "fingerprint " << fp << "\n  raw:      "
       << (raw == oracle.end() ? "(none)" : Describe(raw->second))
       << "\n  template: "
       << (tmpl == templates.end() ? "(none)" : Describe(tmpl->second))
       << "\n";
  }
  return os.str();
}

// The tentpole sweep: `--iters` seeded workloads, each replayed into one
// pipeline whose workload DB then holds both representations. Any
// difference in a template's inputs fails with the seed and the
// differing templates; the analyzer must read every template.
TEST(CompressionDifferentialTest, RawAndTemplateAnalysesAgree) {
  int64_t raw_groups = 0;
  int64_t templates = 0;
  int64_t divergences = 0;
  for (int i = 0; i < g_iters; ++i) {
    GenConfig config;
    config.seed = g_seed + static_cast<uint64_t>(i);
    Workload workload = GenerateWorkload(config);

    Pipeline pipeline;
    pipeline.Replay(workload);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pipeline.storage_daemon->PollOnce().ok());

    InputsByFingerprint oracle = GroupRawRows(&pipeline.workload_db, "wl_");
    InputsByFingerprint compressed =
        ReadTemplates(&pipeline.workload_db, "wl_");
    std::string diff = Divergence(oracle, compressed);
    if (!diff.empty()) ++divergences;
    EXPECT_EQ(diff, "") << "seed " << config.seed;

    auto report =
        Analyzer(&pipeline.monitored, &pipeline.workload_db).Analyze();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->statements_analyzed,
              static_cast<int64_t>(compressed.size()))
        << "seed " << config.seed;
    raw_groups += static_cast<int64_t>(oracle.size());
    templates += static_cast<int64_t>(compressed.size());
  }
  bench::JsonWriter json("compress_equiv");
  json.Metric("iterations", static_cast<double>(g_iters), "workloads");
  json.Metric("templates_compared", static_cast<double>(templates),
              "templates");
  json.Metric("raw_groups_compared", static_cast<double>(raw_groups),
              "templates");
  json.Metric("divergences", static_cast<double>(divergences), "divergences");
  json.Write();
}

// Same equivalence over the live IMA tables (no workload DB attached):
// imp_statements/imp_workload/imp_references grouped against
// imp_templates.
TEST(CompressionDifferentialTest, LiveImaModeAgrees) {
  for (int i = 0; i < std::min(g_iters, 3); ++i) {
    GenConfig config;
    config.seed = g_seed + 1000 + static_cast<uint64_t>(i);
    Workload workload = GenerateWorkload(config);
    Pipeline pipeline;
    pipeline.Replay(workload);
    if (::testing::Test::HasFatalFailure()) return;

    InputsByFingerprint compressed =
        ReadTemplates(&pipeline.monitored, "imp_");
    EXPECT_EQ(Divergence(GroupRawRows(&pipeline.monitored, "imp_"),
                         compressed),
              "")
        << "seed " << config.seed;
    auto report = Analyzer(&pipeline.monitored, nullptr).Analyze();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->statements_analyzed,
              static_cast<int64_t>(compressed.size()))
        << "seed " << config.seed;
  }
}

/// Everything one flush-pressure scenario observes, for replay equality.
struct SamplingObservation {
  std::vector<std::pair<uint64_t, int64_t>> kept;  // (hash, start_micros)
  std::vector<std::string> templates;  // fingerprint|executions|sampled
  int64_t sample_rate_ppm = 0;
  int64_t sampled_out = 0;

  bool operator==(const SamplingObservation& other) const {
    return kept == other.kept && templates == other.templates &&
           sample_rate_ppm == other.sample_rate_ppm &&
           sampled_out == other.sampled_out;
  }
};

SamplingObservation RunFlushPressureScenario(uint64_t seed) {
  daemon::DaemonConfig daemon_config;
  daemon_config.polls_per_flush = 1;
  daemon_config.flush_pressure_rows = 64;
  daemon_config.min_sample_rate_ppm = 50000;
  Pipeline pipeline(daemon_config);

  // Polls fail while the injector is armed, so the monitor backlog grows
  // past the pressure threshold before the daemon can drain it.
  FaultConfig fault_config;
  fault_config.seed = seed;
  fault_config.poll_fault_prob = 1.0;
  FaultInjector injector(fault_config);
  pipeline.storage_daemon->set_poll_fault_hook(
      [&injector] { return injector.BeforePoll(); });
  injector.Arm();

  pipeline.Must("CREATE TABLE pressure (v INT, w INT)");
  for (int i = 0; i < 200; ++i) {
    pipeline.Must("INSERT INTO pressure VALUES (" + std::to_string(i) + ", " +
                  std::to_string(i % 7) + ")");
  }
  EXPECT_FALSE(pipeline.storage_daemon->PollOnce().ok());
  EXPECT_EQ(injector.counters().poll_faults, 1);
  injector.Disarm();
  // The recovering poll drains the whole backlog in one window: pressure
  // detected, sample rate lowered.
  EXPECT_TRUE(pipeline.storage_daemon->PollOnce().ok());
  EXPECT_LT(pipeline.storage_daemon->stats().sample_rate_ppm, 1000000);

  // Phase 2 executes under sampling: raw rows thin out, templates stay
  // exact.
  for (int i = 0; i < 300; ++i) {
    pipeline.Must("SELECT w FROM pressure WHERE v = " + std::to_string(i));
  }
  EXPECT_TRUE(pipeline.storage_daemon->PollOnce().ok());

  SamplingObservation observation;
  const monitor::Monitor* mon = pipeline.monitored.monitor();
  for (const auto& record : mon->SnapshotWorkload()) {
    observation.kept.emplace_back(record.hash, record.start_micros);
  }
  int64_t executions = 0;
  int64_t sampled = 0;
  for (const auto& tmpl : mon->SnapshotTemplates()) {
    EXPECT_GE(tmpl.executions, tmpl.sampled_count);
    executions += tmpl.executions;
    sampled += tmpl.sampled_count;
    observation.templates.push_back(std::to_string(tmpl.fingerprint) + "|" +
                                    std::to_string(tmpl.executions) + "|" +
                                    std::to_string(tmpl.sampled_count));
  }
  for (const auto& shard : mon->ShardStatsSnapshot()) {
    observation.sampled_out += shard.workload_sampled_out;
  }
  // Exact reconciliation: every sampled-out commit is still counted by
  // its template, and nothing else is.
  EXPECT_EQ(executions - sampled, observation.sampled_out);
  EXPECT_GT(observation.sampled_out, 0);
  observation.sample_rate_ppm =
      pipeline.storage_daemon->stats().sample_rate_ppm;

  // The same accounting must reconcile over SQL (imp_templates against
  // imp_monitor), the way a DBA would check it. Restore full capture
  // first: a kept commit bumps executions and sampled_count together
  // (gap-invariant), so the reconciliation queries no longer perturb the
  // numbers they read.
  pipeline.monitored.monitor()->SetWorkloadSampleRate(monitor::kSampleAllPpm);
  auto template_rows = pipeline.monitored.Execute(
      "SELECT executions, sampled_count FROM imp_templates");
  EXPECT_TRUE(template_rows.ok());
  int64_t sql_gap = 0;
  if (template_rows.ok()) {
    for (const Row& row : template_rows->rows) {
      sql_gap += row[0].AsInt() - row[1].AsInt();
    }
  }
  auto shard_rows = pipeline.monitored.Execute(
      "SELECT workload_sampled_out FROM imp_monitor");
  EXPECT_TRUE(shard_rows.ok());
  int64_t sql_sampled_out = 0;
  if (shard_rows.ok()) {
    for (const Row& row : shard_rows->rows) sql_sampled_out += row[0].AsInt();
  }
  EXPECT_EQ(sql_gap, sql_sampled_out);
  return observation;
}

// Satellite: the fault-driven pressure scenario is deterministic per
// seed — same kept raw rows, same template counters, same adapted rate —
// and its drop accounting reconciles exactly.
TEST(SamplingDeterminismTest, FlushPressureScenarioReproducesPerSeed) {
  SamplingObservation first = RunFlushPressureScenario(g_seed);
  if (::testing::Test::HasFatalFailure()) return;
  SamplingObservation second = RunFlushPressureScenario(g_seed);
  EXPECT_EQ(first, second);
  EXPECT_LT(first.kept.size(),
            static_cast<size_t>(first.sampled_out) + first.kept.size());
}

// Under sampling pressure the analysis keeps seeing the whole workload:
// the templates it reads report every distinct shape with exact
// execution counts, while the raw rows visibly thin out.
TEST(SamplingDeterminismTest, TemplatesStayExactUnderSampling) {
  daemon::DaemonConfig daemon_config;
  daemon_config.polls_per_flush = 1;
  Pipeline pipeline(daemon_config);
  pipeline.Must("CREATE TABLE s (v INT)");
  pipeline.monitored.monitor()->SetWorkloadSampleRate(100000);  // 10%
  for (int i = 0; i < 200; ++i) {
    pipeline.Must("INSERT INTO s VALUES (" + std::to_string(i) + ")");
  }
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(pipeline.storage_daemon->PollOnce().ok());

  auto report = Analyzer(&pipeline.monitored, &pipeline.workload_db).Analyze();
  ASSERT_TRUE(report.ok()) << report.status();
  // One INSERT template, 200 exact executions — regardless of sampling.
  bool found = false;
  auto rows = pipeline.workload_db.Execute(
      "SELECT template_text, executions, sampled_count FROM wl_templates");
  ASSERT_TRUE(rows.ok()) << rows.status();
  for (const Row& row : rows->rows) {
    if (row[0].AsText().rfind("insert into s", 0) == 0) {
      found = true;
      EXPECT_EQ(row[1].AsInt(), 200);
      EXPECT_LT(row[2].AsInt(), 200);  // raw rows were sampled out
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace imon::testing

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      imon::testing::g_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      imon::testing::g_iters = std::atoi(arg.c_str() + 8);
    }
  }
  return RUN_ALL_TESTS();
}
