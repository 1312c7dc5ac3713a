// IMA equivalence program: a seeded 900-statement workload on a
// SimulatedClock — 3 sessions over 2 commit shards, small monitor
// windows, a CREATE INDEX halfway, and an alert handler that runs
// statements nested in the INSERT that fired it — followed by a text
// dump of every imp_* table and the Chrome trace export.
//
// Measured durations (and the stamps derived from them) differ from run
// to run, so the dump masks them as `*`; everything else is a function
// of the seed. Two runs must dump identical bytes, so the dump of one
// source tree can be diffed against another's:
//
//   ima_equivalence_test --dump=FILE [--seed=N]
//
// writes the dump and exits without running the tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/database.h"
#include "ima/ima.h"
#include "monitor/monitor.h"
#include "monitor/trace_export.h"

namespace imon {
namespace {

uint64_t g_seed = 20;

struct Windows {
  size_t statement = 64;
  size_t workload = 96;
  size_t references = 300;  // read only by monitors that keep a ring
  size_t traces = 300;      // of reference or trace rows of their own
  size_t templates = 12;
};

/// Runs the seeded workload; the database is left for the caller to read.
struct Run {
  SimulatedClock clock{1'000'000};
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::Session> internal;
};

std::unique_ptr<Run> RunWorkload(uint64_t seed, const Windows& windows) {
  auto run = std::make_unique<Run>();
  engine::DatabaseOptions options;
  options.clock = &run->clock;
  options.exec_workers = 1;
  options.plan_cache_capacity = 64;
  options.monitor.shards = 2;
  options.monitor.statement_window = windows.statement;
  options.monitor.workload_window = windows.workload;
  options.monitor.references_window = windows.references;
  options.monitor.trace_window = windows.traces;
  options.monitor.template_window = windows.templates;
  options.monitor.statistics_window = 16;
  options.monitor.stats_sample_every = 32;
  run->db = std::make_unique<engine::Database>(options);
  engine::Database* db = run->db.get();
  EXPECT_TRUE(ima::RegisterImaTables(db).ok());
  run->internal = db->CreateInternalSession();

  std::vector<std::unique_ptr<engine::Session>> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(db->CreateSession());
  engine::Session* current = sessions[0].get();
  auto exec = [&](const std::string& sql) {
    auto r = db->Execute(sql, current);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  };

  exec("CREATE TABLE acct (id INT PRIMARY KEY, grp INT, v INT)");
  exec("CREATE TABLE item (id INT PRIMARY KEY, acct INT, price DOUBLE)");
  exec("CREATE TABLE audit (v INT)");
  exec("CREATE TABLE gauge (sessions INT)");
  exec("CREATE TRIGGER busy AFTER INSERT ON gauge WHEN sessions >= 100 "
       "RAISE 'busy'");
  std::string rows;
  for (int i = 0; i < 64; ++i) {
    rows += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " +
            std::to_string(i % 8) + ", " + std::to_string(i * 3) + ")";
  }
  exec("INSERT INTO acct VALUES " + rows);

  std::mt19937_64 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  // The handler runs on the inserting session, inside its INSERT.
  db->SetAlertHandler([&](const engine::AlertEvent& event) {
    exec("SELECT count(*) FROM audit WHERE v < " +
         std::to_string(event.row[0].AsInt()));
    exec("INSERT INTO audit VALUES (" + std::to_string(pick(500)) + ")");
  });

  int next_item = 0;
  for (int i = 0; i < 900; ++i) {
    run->clock.AdvanceMicros(pick(4));  // ties on first_seen are common
    current = sessions[static_cast<size_t>(pick(3))].get();
    if (i == 450) {
      exec("CREATE INDEX acct_grp ON acct (grp)");
      continue;
    }
    switch (pick(8)) {
      case 0:
      case 1:
        exec("SELECT grp, v FROM acct WHERE id = " + std::to_string(pick(64)));
        break;
      case 2:
        exec("SELECT count(*), sum(v) FROM acct WHERE grp = " +
             std::to_string(pick(8)));
        break;
      case 3:
        exec("SELECT a.grp, count(*) FROM acct a JOIN item b ON a.id = b.acct "
             "GROUP BY a.grp");
        break;
      case 4:
        exec("INSERT INTO item VALUES (" + std::to_string(next_item++) + ", " +
             std::to_string(pick(64)) + ", " + std::to_string(pick(40)) +
             ".25)");
        break;
      case 5:
        exec("UPDATE acct SET v = v + 1 WHERE id = " +
             std::to_string(pick(64)));
        break;
      case 6:
        exec("INSERT INTO gauge VALUES (" + std::to_string(pick(140)) + ")");
        break;
      default:
        exec("DELETE FROM item WHERE id = " +
             std::to_string(pick(next_item + 1)));
        break;
    }
    if (i % 100 == 99) {
      db->metrics_history()->Sample(*db->metrics(), run->clock.NowMicros());
    }
  }
  db->SetAlertHandler(nullptr);
  return run;
}

/// Columns whose values are measured durations or derive from them.
bool Masked(const std::string& table, const std::string& column,
            const std::vector<Value>& row) {
  if (column.size() > 6 && column.compare(column.size() - 6, 6, "_nanos") == 0) {
    return true;
  }
  if (table == "imp_traces" && column == "start_micros") return true;
  if (table == "imp_stage_latency" && column == "last_updated_micros") {
    return true;
  }
  // Registry series named after a time unit hold measured time.
  if ((table == "imp_metrics" && column == "value") ||
      (table == "imp_metrics_history" && column != "name" &&
       column != "resolution" && column != "tick_micros" && column != "count")) {
    const std::string name = row[0].ToString();
    return name.find("nanos") != std::string::npos ||
           name.find("micros") != std::string::npos ||
           name.find("_ms") != std::string::npos ||
           name.find("_us") != std::string::npos;
  }
  return false;
}

std::string Dump(Run* run) {
  std::ostringstream out;
  for (const char* table : ima::kImaTableNames) {
    auto r = run->db->Execute(std::string("SELECT * FROM ") + table,
                              run->internal.get());
    EXPECT_TRUE(r.ok()) << table << ": " << r.status();
    if (!r.ok()) continue;
    out << "== " << table << " (" << r->rows.size() << " rows)\n";
    for (size_t c = 0; c < r->columns.size(); ++c) {
      out << (c > 0 ? "|" : "") << r->columns[c];
    }
    out << "\n";
    for (const auto& row : r->rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        out << (c > 0 ? "|" : "")
            << (Masked(table, r->columns[c], row) ? "*" : row[c].ToString());
      }
      out << "\n";
    }
  }
  const std::string path = ::testing::TempDir() + "/imon_ima_equivalence.json";
  EXPECT_TRUE(monitor::ExportChromeTrace(*run->db->monitor(), path).ok());
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  std::remove(path.c_str());
  static const std::regex kTiming("\"(ts|dur)\":[-0-9.e+]+");
  out << "== chrome trace\n"
      << std::regex_replace(json.str(), kTiming, "\"$1\":*") << "\n";
  return out.str();
}

TEST(ImaEquivalenceTest, TwoRunsDumpIdenticalBytes) {
  std::string first = Dump(RunWorkload(g_seed, Windows{}).get());
  std::string second = Dump(RunWorkload(g_seed, Windows{}).get());
  EXPECT_GT(first.size(), 10000u);
  EXPECT_EQ(first, second);
}

/// Each retained reference row sits in its record's seq block: the
/// record's seq + k, k = 1.. in the order tables, attributes, available
/// indexes, used indexes.
void ExpectReferencesFollowTheirRecords(const monitor::Monitor& m) {
  std::map<int64_t, uint64_t> records;  // seq -> hash
  for (const auto& w : m.SnapshotWorkload()) records[w.seq] = w.hash;
  int64_t expected_next = 0;
  int64_t block = 0;
  for (const auto& ref : m.SnapshotReferences()) {
    auto it = records.upper_bound(ref.seq);
    ASSERT_NE(it, records.begin()) << ref.seq;
    --it;
    if (it->first != block) {
      block = it->first;
      expected_next = block + 1;
    }
    EXPECT_EQ(ref.hash, it->second) << ref.seq;
    EXPECT_EQ(ref.seq, expected_next) << "record " << block;
    ++expected_next;
  }
}

TEST(ImaEquivalenceTest, SeqDomainIsDenseAndReferencesFollowTheirRecord) {
  // Windows wide enough to keep everything: the retained workload and
  // reference seqs cover [1, max] exactly once.
  Windows wide;
  wide.statement = wide.workload = wide.templates = 100000;
  wide.references = wide.traces = 1000000;
  auto run = RunWorkload(g_seed, wide);
  const monitor::Monitor& m = *run->db->monitor();
  std::vector<int64_t> seqs;
  for (const auto& w : m.SnapshotWorkload()) seqs.push_back(w.seq);
  for (const auto& r : m.SnapshotReferences()) seqs.push_back(r.seq);
  std::sort(seqs.begin(), seqs.end());
  ASSERT_FALSE(seqs.empty());
  for (size_t i = 0; i < seqs.size(); ++i) {
    ASSERT_EQ(seqs[i], static_cast<int64_t>(i + 1));
  }
  ExpectReferencesFollowTheirRecords(m);

  // With the small windows, every retained reference row still belongs
  // to a retained record, at its record's seq + k.
  auto small = RunWorkload(g_seed, Windows{});
  ExpectReferencesFollowTheirRecords(*small->db->monitor());
}

}  // namespace
}  // namespace imon

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      imon::g_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--dump=", 0) == 0) {
      dump_path = arg.substr(7);
    }
  }
  if (!dump_path.empty()) {
    std::ofstream out(dump_path);
    out << imon::Dump(
        imon::RunWorkload(imon::g_seed, imon::Windows{}).get());
    return out.good() ? 0 : 1;
  }
  return RUN_ALL_TESTS();
}
