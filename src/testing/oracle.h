// Differential oracle: replay one workload under every physical-design
// axis and fingerprint-compare the answers.
//
// The invariant under test is the paper's premise: physical tuning —
// storage-structure conversion (MODIFY ... TO BTREE/HASH/ISAM), secondary
// indexes, fresh statistics (ANALYZE), the plan cache — may change *cost*
// but never *results*. The oracle replays a Workload into a fresh
// Database per design point, injecting the axis DDL halfway through the
// data statements (so post-DDL DML exercises index maintenance and the
// rebuilt structures), and compares an order-insensitive fingerprint of
// every query's result set against the all-axes-off baseline.
//
// On divergence it reports the seed, the design point, the query, both
// fingerprints — and a shrunken data-statement list that still
// reproduces the divergence, so a fuzzer failure arrives as a minimal,
// replayable repro.

#ifndef IMON_TESTING_ORACLE_H_
#define IMON_TESTING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "testing/workload_gen.h"

namespace imon::testing {

/// Canonical, order-insensitive fingerprint of a result set (sorted
/// rendered rows). Shared by the oracle and the hand-written
/// differential tests so both paths use one comparator.
std::string Fingerprint(const engine::QueryResult& result);

/// One point on the physical-design grid.
struct PhysicalDesign {
  /// MODIFY target for every table; "HEAP" = leave tables as created.
  std::string structure = "HEAP";
  bool indexes = false;     ///< apply the workload's CREATE INDEX DDL
  bool statistics = false;  ///< ANALYZE every table
  bool plan_cache = false;  ///< plan cache on; queries run cold then hot
  /// Executor worker lanes (exec_workers); > 1 also shrinks the morsel
  /// size so parallel scans really split on the small fuzz tables.
  size_t workers = 1;
  std::string Label() const;
};

struct Divergence {
  uint64_t seed = 0;
  std::string design;       ///< PhysicalDesign::Label()
  int query_index = -1;
  std::string query;
  std::string expected_fingerprint;  ///< baseline
  std::string actual_fingerprint;
  /// Minimal data-statement list that still reproduces (ddmin shrink);
  /// equals the full list when shrinking is disabled or exhausted.
  std::vector<std::string> shrunken_data;
  /// Replayable report: seed, design, statements, query, fingerprints.
  std::string Repro() const;
};

struct OracleReport {
  int designs_run = 0;
  int queries_compared = 0;
  int64_t statements_executed = 0;
  std::vector<Divergence> divergences;
};

class DifferentialOracle {
 public:
  struct Options {
    /// Shrink divergences down to a minimal data prefix (costs extra
    /// replays; only spent when a divergence exists).
    bool shrink = true;
    /// Replay budget for one shrink (2 replays per removal attempt).
    int max_shrink_replays = 600;
    /// TEST-ONLY: deliberately corrupt the fingerprints of every design
    /// with `indexes` set (drops one row from each non-empty result).
    /// Exists so the harness can prove, in tests, that a broken axis is
    /// caught and shrunk to a reproducible seed.
    bool sabotage_index_axis = false;
  };

  DifferentialOracle() = default;
  explicit DifferentialOracle(Options options) : options_(options) {}

  /// The default grid: baseline, each storage structure, indexes on,
  /// statistics on, plan cache on, and everything combined.
  static std::vector<PhysicalDesign> DefaultDesigns();

  /// Replay `workload` across `designs` (DefaultDesigns() if empty) and
  /// compare fingerprints against the baseline (all axes off). Returns
  /// an error only when the workload itself is broken (a statement or
  /// query fails under the baseline design).
  Result<OracleReport> Run(const Workload& workload,
                           std::vector<PhysicalDesign> designs = {});

 private:
  /// Replay the workload under one design; returns one fingerprint per
  /// query. `data` overrides workload.data (shrink candidates).
  Result<std::vector<std::string>> Replay(
      const Workload& workload, const PhysicalDesign& design,
      const std::vector<std::string>& data, int64_t* statements_executed);

  /// ddmin-style shrink of the data list for one divergence: halving
  /// chunks first, then single statements, within max_shrink_replays.
  std::vector<std::string> Shrink(const Workload& workload,
                                  const PhysicalDesign& design,
                                  int query_index,
                                  int64_t* statements_executed);

  /// True when `design` still answers query `query_index` differently
  /// from baseline with the reduced `data` list.
  bool StillDiverges(const Workload& workload, const PhysicalDesign& design,
                     const std::vector<std::string>& data, int query_index,
                     int64_t* statements_executed);

  Options options_;
};

}  // namespace imon::testing

#endif  // IMON_TESTING_ORACLE_H_
