// The benchmark workloads. Each builds its databases (and server
// and daemon) from the run's seed, runs a closed loop for a given time,
// and checks its own results.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "daemon/daemon.h"
#include "engine/database.h"
#include "server/server.h"

namespace perfbench {

/// One slice of a measured phase: a block pair (point_select), a round
/// of the query set (analytic_join) or a fixed wall-clock slice
/// (embedded_mixed, wire_mixed).
struct Block {
  /// Statements the throughput counts, and the time they took.
  int64_t ops = 0;
  int64_t busy_nanos = 0;
  /// Host-speed scale for this block's times (see SpeedScale).
  double scale = 1.0;
  /// Steal ticks (/proc/stat, all CPUs) during the block.
  int64_t steal_ticks = 0;
  Latencies reads;
  Latencies writes;
  /// Latencies per distinct statement shape (query or template) for the
  /// geometric mean of per-shape medians.
  std::map<std::string, Latencies> shapes;

  /// Add `other`'s statements, with its times scaled by other.scale when
  /// `normalize` is set.
  void Merge(const Block& other, bool normalize);
};

/// What a measured phase accumulates.
struct Phase {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Statements executed on the monitored database (the per-statement
  /// denominator of the traced run's counts).
  int64_t db_statements = 0;
  std::vector<Block> blocks;
  /// Twin workloads: monitored / unmonitored time per block pair.
  std::vector<double> overhead_ratios;
  /// Self-cost estimate otherwise: statement time and the monitor's own
  /// sensor time within it.
  int64_t statement_nanos = 0;
  int64_t monitor_nanos = 0;
  /// Largest server request-queue depth seen (wire workloads).
  int64_t queue_depth_max = 0;

  /// The blocks the end-to-end metrics use: those with no more steal
  /// time than the median block, in order. Every block of a workload
  /// holds the same statements or the same wall time, so the filter does
  /// not favour cheaper statements. Time the hypervisor takes from the VM
  /// stalls a statement pipeline by whole scheduler ticks; in a run
  /// without steal every block is kept.
  std::vector<const Block*> Quiet() const;
};

/// `blocks` merged, in order, into `count` windows of consecutive blocks,
/// with their times host-speed normalized when `normalize` is set. Each
/// end-to-end latency and throughput metric is the median of its
/// per-window values, so a slowdown of the host that hits some windows
/// does not move it.
std::vector<Block> Windows(const std::vector<const Block*>& blocks,
                           size_t count, bool normalize);

/// One statement of the traced replay sample.
struct SampleStatement {
  std::string sql;
  bool is_select = true;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build and load everything, then warm up. Timed as setup_s.
  virtual imon::Status Setup() = 0;
  /// Destroy everything Setup built (repeated set-ups start clean).
  virtual void Teardown() = 0;
  /// Untimed preparation of the correctness references.
  virtual imon::Status PrepareChecks() { return imon::Status::OK(); }
  /// Closed loop for `seconds`.
  virtual void Run(double seconds, Phase* phase, Report* report) = 0;
  /// End-of-run correctness checks.
  virtual void FinalChecks(Report* report) = 0;
  /// Engine/server options and data sizes for the environment stamp.
  virtual std::string OptionsJson() const = 0;
  /// Whether the workload writes, so that `--corrupt checksum` applies.
  virtual bool has_writes() const { return false; }
  /// How many windows a measured phase of `blocks` blocks is cut into:
  /// as many as leave at least ten samples beyond each window's p99.
  virtual size_t Windows(size_t blocks) const = 0;

  // -- traced replay hooks ---------------------------------------------------
  /// The monitored database the workload drives.
  virtual imon::engine::Database* db() = 0;
  /// The replay sample: the next statements of the workload's own
  /// generator (5,000; two rounds of the 50 queries on analytic_join).
  virtual std::vector<SampleStatement> Sample() = 0;
  /// Executor lanes the replayed executor gets.
  virtual size_t replay_lanes() const { return 1; }
  /// Reference digest a replayed SELECT must match, if the workload has
  /// one (analytic_join's serial run).
  virtual bool ReferenceDigest(const std::string& /*sql*/,
                               uint64_t* /*digest*/) const {
    return false;
  }
  /// The running server, daemon and workload DB, when the workload has
  /// them; the replay builds its own otherwise.
  virtual imon::server::Server* server() { return nullptr; }
  virtual imon::daemon::StorageDaemon* daemon() { return nullptr; }
  virtual imon::engine::Database* workload_db() { return nullptr; }
  /// Monitored statements the replay ran outside the workload's loop
  /// (the workload's template-count check must include them).
  virtual void NoteIssued(int64_t /*statements*/) {}
};

std::unique_ptr<Workload> MakeWorkload(const Args& args);

/// Daemon configuration shared by every workload (fig4's Daemon setup).
imon::daemon::DaemonConfig MakeDaemonConfig();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
