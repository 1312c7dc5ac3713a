// Shared pieces of the perfbench program: command-line arguments, the
// result report, latency statistics, result fingerprints, the Zipf key
// sampler, explicit engine/server option sets and the host-speed kernel.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "server/server.h"
#include "workload/nref.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny data and phases for the benchmark's own self-test.
  bool smoke = false;
  /// Self-test of the checks: "fingerprint" corrupts one expected result
  /// fingerprint, "checksum" one expected write checksum. Either must
  /// make the run fail.
  std::string corrupt;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
  std::string git_commit = "unknown";
};

/// Everything a run prints: metrics by name with units, the attempted /
/// failed operation counts, correctness failures and descriptive lines.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed correctness check (the run then exits nonzero).
  void Fail(const std::string& what);
  /// Shorthand: Fail(what) unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  /// Take over another report's failures (per-thread reports).
  void Absorb(const Report& other) {
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
  }
  /// A descriptive line printed before the result (not a metric).
  void Note(const std::string& key, const std::string& json_object);

  bool correct() const { return failures_.empty(); }
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Print notes, failures and the final one-line JSON result.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Latency samples in nanoseconds.
class Latencies {
 public:
  void Add(int64_t nanos) { samples_.push_back(nanos); }
  /// Append `other`'s samples multiplied by `scale`.
  void Append(const Latencies& other, double scale = 1.0);
  /// Nearest-rank percentile in microseconds; 0 when empty.
  double PercentileMicros(double p) const;

 private:
  std::vector<int64_t> samples_;
};

double Median(std::vector<double> values);
/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& values);

/// 64-bit digest of the repo's canonical, order-insensitive result
/// fingerprint (testing::Fingerprint).
uint64_t ResultDigest(const imon::engine::QueryResult& result);
uint64_t ResultDigest(const std::vector<std::string>& columns,
                      const std::vector<imon::Row>& rows);

/// Zipf(theta) ranks over [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(int64_t n, double theta);
  int64_t Next(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The engine knobs a workload chooses; every other DatabaseOptions
/// field is pinned by MakeDbOptions so a changed default cannot change a
/// workload.
struct DbKnobs {
  std::string name = "db";
  bool monitor = true;
  size_t plan_cache_capacity = 0;
  size_t exec_workers = 1;
  size_t buffer_pool_pages = 8192;
  size_t buffer_pool_shards = 8;
};

imon::engine::DatabaseOptions MakeDbOptions(const DbKnobs& knobs);
imon::server::ServerOptions MakeServerOptions();
imon::workload::NrefConfig MakeNref(const Args& args);

std::string DbOptionsJson(const imon::engine::DatabaseOptions& o);
std::string ServerOptionsJson(const imon::server::ServerOptions& o);

/// Run `sql` on an internal (unmonitored) session of `db`.
imon::Result<imon::engine::QueryResult> ExecInternal(imon::engine::Database* db,
                                                     const std::string& sql);

/// Host-speed reference. The host's speed drifts by tens of percent
/// within a minute, so end-to-end times are scaled by how fast a fixed
/// kernel ran next to the slice of work they were measured in:
///   normalized time = measured time * kReferenceNanos / kernel nanos
/// The kernel is the benchmark's own code and does what a statement path
/// does, without calling the library: it formats a statement text, looks
/// it up in a hash map, fills a small row and walks an ordered map. It
/// allocates nothing, and an untimed pass over its data comes first, so
/// neither the library's heap nor its cache footprint changes the timed
/// part. A plain integer loop tracked the host's drift far worse. The
/// reference is a constant (about the kernel's time on the machine the
/// benchmark was tuned on), so normalized times stay close to measured
/// ones.
///
/// Time of one kernel sample: five chunks of 1,500 iterations, median
/// chunk times five, so one interrupt does not skew it.
double KernelNanos();
/// Scale for work measured between two kernel samples.
double SpeedScale(double kernel_before, double kernel_after);

/// Host-drift diagnostic: cumulative steal ticks from /proc/stat.
int64_t StealTicks();

double PeakRssMb();
double Seconds(int64_t nanos);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
