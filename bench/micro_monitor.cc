// Sensor-level microbenchmarks (paper §V-A text).
//
// "The measurement revealed that each call to a monitoring function
//  takes about one or two microseconds. Depending on the complexity of
//  the query ... this added between 30 and 70 microseconds per
//  statement, while the 1m statements alone took less than 30
//  microseconds to execute."
//
// Also ablates DESIGN.md §5.1: the cost of a *disabled* sensor (one
// predictable branch) vs. an enabled one.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/ring_buffer.h"
#include "engine/database.h"
#include "ima/ima.h"
#include "monitor/monitor.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "workload/nref.h"

namespace imon {
namespace {

monitor::MonitorConfig Config(bool enabled) {
  monitor::MonitorConfig c;
  c.enabled = enabled;
  c.stats_sample_every = 0;
  return c;
}

void BM_SensorDisabled(benchmark::State& state) {
  monitor::Monitor m(Config(false), RealClock::Instance());
  monitor::QueryTrace trace;
  for (auto _ : state) {
    m.OnQueryStart(&trace);
    m.OnParseComplete(&trace, "SELECT 1");
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_SensorDisabled);

void BM_SensorOnQueryStart(benchmark::State& state) {
  monitor::Monitor m(Config(true), RealClock::Instance());
  for (auto _ : state) {
    monitor::QueryTrace trace;
    m.OnQueryStart(&trace);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_SensorOnQueryStart);

void BM_SensorOnParseComplete(benchmark::State& state) {
  monitor::Monitor m(Config(true), RealClock::Instance());
  const std::string text =
      "SELECT p.nref_id, p.sequence FROM protein p WHERE p.nref_id = 42";
  const uint64_t hash = HashStatement(text);
  const uint64_t fingerprint =
      sql::TemplateFingerprint(*sql::Tokenize(text));
  for (auto _ : state) {
    monitor::QueryTrace trace;
    trace.active = true;
    m.OnParseComplete(&trace, text, hash, fingerprint);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_SensorOnParseComplete);

void BM_SensorOnBindComplete(benchmark::State& state) {
  monitor::Monitor m(Config(true), RealClock::Instance());
  std::vector<int64_t> tables = {1, 2};
  std::vector<std::pair<int64_t, int>> attrs = {{1, 0}, {1, 2}, {2, 1}};
  std::vector<int64_t> indexes = {7, 9};
  for (auto _ : state) {
    monitor::QueryTrace trace;
    trace.active = true;
    m.OnBindComplete(&trace, tables, attrs, indexes);
    benchmark::DoNotOptimize(trace);
  }
}
BENCHMARK(BM_SensorOnBindComplete);

/// Sensors + Commit as the engine drives them: the session's trace is
/// reset and reused, the pipeline hashes the text once and takes the
/// template fingerprint from the parser's tokens (lexing is the parser's,
/// so it stays outside the loop), the optimizer reports one used index,
/// and Commit does no lexing.
void BM_SensorCommit(benchmark::State& state) {
  monitor::Monitor m(Config(true), RealClock::Instance());
  // 20,000 distinct texts of one template, like the 1m test's uniform
  // keys: nearly every commit is a new registry entry evicting the oldest.
  std::vector<std::string> texts;
  std::vector<std::vector<sql::Token>> tokens;
  for (int i = 0; i < 20000; ++i) {
    texts.push_back("SELECT v FROM t WHERE v = " + std::to_string(100000 + i));
    tokens.push_back(*sql::Tokenize(texts.back()));
  }
  // The binder's reference sets outlive the sensor call, as in the engine.
  const std::vector<int64_t> tables = {1};
  const std::vector<std::pair<int64_t, int>> attributes = {{1, 0}};
  const std::vector<int64_t> indexes = {7};
  const std::vector<int64_t> used_indexes = {7};
  monitor::QueryTrace trace;
  size_t i = 0;
  for (auto _ : state) {
    const std::string& text = texts[i];
    trace.Reset();
    m.OnQueryStart(&trace);
    m.OnParseComplete(&trace, text, HashStatement(text),
                      sql::TemplateFingerprint(tokens[i]));
    m.OnBindComplete(&trace, tables, attributes, indexes);
    m.OnOptimizeComplete(&trace, 1.0, 2.0, used_indexes, 500, 0);
    m.OnExecuteComplete(&trace, 1000, 0, 1.0, 1, 1);
    m.Commit(&trace);
    i = (i + 1) % texts.size();
  }
}
BENCHMARK(BM_SensorCommit);

/// Text-only trace (tests, standalone replays): the text-only parse
/// sensor hashes and normalizes the text itself.
void BM_SensorCommitTextOnly(benchmark::State& state) {
  monitor::Monitor m(Config(true), RealClock::Instance());
  const std::string text = "SELECT v FROM t WHERE v = 1";
  int64_t i = 0;
  for (auto _ : state) {
    monitor::QueryTrace trace;
    m.OnQueryStart(&trace);
    m.OnParseComplete(&trace, text + std::to_string(i++ % 2000));
    m.OnBindComplete(&trace, {1}, {{1, 0}}, {});
    m.OnExecuteComplete(&trace, 1000, 0, 1.0, 1, 1);
    m.Commit(&trace);
  }
}
BENCHMARK(BM_SensorCommitTextOnly);

void BM_RingBufferPush(benchmark::State& state) {
  RingBuffer<monitor::WorkloadRecord> ring(4000);
  monitor::WorkloadRecord record;
  record.hash = 42;
  for (auto _ : state) {
    ring.Push(record);
  }
  benchmark::DoNotOptimize(ring);
}
BENCHMARK(BM_RingBufferPush);

void BM_StatementHash(benchmark::State& state) {
  const std::string text =
      "SELECT p.nref_id, sequence, ordinal FROM protein p JOIN organism o "
      "ON p.nref_id = o.nref_id WHERE p.nref_id = 12345678";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashStatement(text));
  }
}
BENCHMARK(BM_StatementHash);

/// End-to-end per-statement overhead: the same point query through a
/// monitored vs. unmonitored engine (the "1m" effect in one number).
class EngineFixture {
 public:
  explicit EngineFixture(bool monitored) {
    engine::DatabaseOptions options;
    options.monitor.enabled = monitored;
    options.monitor.stats_sample_every = 0;
    db = std::make_unique<engine::Database>(options);
    workload::NrefConfig nref;
    nref.proteins = 2000;
    nref.taxa = 50;
    if (!workload::SetupNref(db.get(), nref).ok()) std::abort();
    // Warm caches.
    db->Execute(workload::PointQuery(1)).ok();
  }
  std::unique_ptr<engine::Database> db;
};

void BM_PointQueryUnmonitored(benchmark::State& state) {
  static EngineFixture fixture(false);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = fixture.db->Execute(workload::PointQuery(i++ % 2000));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PointQueryUnmonitored);

void BM_PointQueryMonitored(benchmark::State& state) {
  static EngineFixture fixture(true);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = fixture.db->Execute(workload::PointQuery(i++ % 2000));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PointQueryMonitored);

/// Console output as usual, plus every per-benchmark real time captured
/// into the BENCH_micro_monitor.json trajectory.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::JsonWriter* out) : out_(out) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_->Metric(run.benchmark_name(), run.GetAdjustedRealTime(), "ns");
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonWriter* out_;
};

}  // namespace
}  // namespace imon

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  imon::bench::JsonWriter json("micro_monitor");
  imon::CaptureReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.Write();
  return 0;
}
