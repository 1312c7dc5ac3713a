#include "testing/oracle.h"

#include <algorithm>
#include <sstream>

namespace imon::testing {

std::string Fingerprint(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (auto& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

std::string PhysicalDesign::Label() const {
  std::string label = structure;
  if (indexes) label += "+indexes";
  if (statistics) label += "+stats";
  if (plan_cache) label += "+cache";
  if (workers > 1) label += "+w" + std::to_string(workers);
  return label;
}

std::string Divergence::Repro() const {
  std::ostringstream os;
  os << "=== differential divergence ===\n"
     << "seed:   " << seed << "\n"
     << "design: " << design << "\n"
     << "query[" << query_index << "]: " << query << "\n"
     << "replay (" << shrunken_data.size() << " data statements):\n";
  for (const std::string& s : shrunken_data) os << "  " << s << ";\n";
  os << "expected fingerprint:\n" << expected_fingerprint
     << "actual fingerprint:\n" << actual_fingerprint;
  return os.str();
}

std::vector<PhysicalDesign> DifferentialOracle::DefaultDesigns() {
  std::vector<PhysicalDesign> designs;
  designs.push_back({});  // baseline: HEAP, everything off
  for (const char* s : {"BTREE", "HASH", "ISAM"}) {
    PhysicalDesign d;
    d.structure = s;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;
    d.indexes = true;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;
    d.statistics = true;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;
    d.plan_cache = true;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // the "fully tuned" corner of the grid
    d.structure = "BTREE";
    d.indexes = true;
    d.statistics = true;
    d.plan_cache = true;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;  // parallel heap scans
    d.workers = 4;
    designs.push_back(d);
  }
  // Parallel variants of every non-heap morsel source: BTREE leaf
  // chains (+secondary index leaves), HASH buckets, ISAM routed chains.
  {
    PhysicalDesign d;
    d.structure = "BTREE";
    d.indexes = true;
    d.workers = 4;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;
    d.structure = "HASH";
    d.workers = 4;
    designs.push_back(d);
  }
  {
    PhysicalDesign d;
    d.structure = "ISAM";
    d.workers = 4;
    designs.push_back(d);
  }
  return designs;
}

Result<std::vector<std::string>> DifferentialOracle::Replay(
    const Workload& workload, const PhysicalDesign& design,
    const std::vector<std::string>& data, int64_t* statements_executed) {
  engine::DatabaseOptions options;
  options.plan_cache_capacity = design.plan_cache ? 64 : 0;
  options.exec_workers = std::max<size_t>(1, design.workers);
  // Fuzz tables are tiny; a small morsel makes >1 lane actually engage.
  if (options.exec_workers > 1) options.exec_morsel_pages = 2;
  engine::Database db(options);

  auto exec = [&](const std::string& sql) -> Status {
    ++*statements_executed;
    auto r = db.Execute(sql);
    if (!r.ok()) {
      return Status(r.status().code(),
                    r.status().message() + " [stmt: " + sql + "]");
    }
    return Status::OK();
  };

  for (const std::string& sql : workload.schema) {
    IMON_RETURN_IF_ERROR(exec(sql));
  }

  // Axis DDL lands mid-load: DML after it exercises index maintenance,
  // post-MODIFY inserts into rebuilt structures, and stale statistics.
  size_t midpoint = data.size() / 2;
  for (size_t i = 0; i <= data.size(); ++i) {
    if (i == midpoint) {
      if (design.structure != "HEAP") {
        for (const std::string& t : workload.tables) {
          IMON_RETURN_IF_ERROR(exec("MODIFY " + t + " TO " + design.structure));
        }
      }
      if (design.indexes) {
        for (const std::string& sql : workload.index_ddl) {
          IMON_RETURN_IF_ERROR(exec(sql));
        }
      }
      if (design.statistics) {
        for (const std::string& t : workload.tables) {
          IMON_RETURN_IF_ERROR(exec("ANALYZE " + t));
        }
      }
    }
    if (i < data.size()) IMON_RETURN_IF_ERROR(exec(data[i]));
  }

  // With the plan cache on, run every query twice — the second (hot) pass
  // must agree with the cold one; a cold/hot mismatch is rendered into
  // the fingerprint so it surfaces as a divergence against baseline.
  int passes = design.plan_cache ? 2 : 1;
  std::vector<std::string> fingerprints(workload.queries.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      ++*statements_executed;
      auto r = db.Execute(workload.queries[i]);
      std::string fp;
      if (r.ok()) {
        if (options_.sabotage_index_axis && design.indexes &&
            !r->rows.empty()) {
          r->rows.pop_back();  // deliberately broken axis (tests only)
        }
        fp = Fingerprint(*r);
      } else {
        fp = "ERROR: " + r.status().ToString() + "\n";
      }
      if (pass == 0) {
        fingerprints[i] = std::move(fp);
      } else if (fp != fingerprints[i]) {
        fingerprints[i] += "<plan-cache hot pass diverged>\n" + fp;
      }
    }
  }
  return fingerprints;
}

bool DifferentialOracle::StillDiverges(const Workload& workload,
                                       const PhysicalDesign& design,
                                       const std::vector<std::string>& data,
                                       int query_index,
                                       int64_t* statements_executed) {
  PhysicalDesign baseline;
  auto base = Replay(workload, baseline, data, statements_executed);
  auto variant = Replay(workload, design, data, statements_executed);
  if (!base.ok() || !variant.ok()) {
    // A replay that breaks outright under the reduced list is not the
    // divergence we are chasing; treat as "not reproduced".
    return false;
  }
  return (*base)[query_index] != (*variant)[query_index];
}

std::vector<std::string> DifferentialOracle::Shrink(
    const Workload& workload, const PhysicalDesign& design, int query_index,
    int64_t* statements_executed) {
  std::vector<std::string> current = workload.data;
  int replays_left = options_.max_shrink_replays;
  // ddmin-style: try removing chunks of half the list, then quarters, and
  // so on down to single statements, which repeat until a pass removes
  // nothing. Back to front: late mutations usually depend on earlier
  // loads, so removing from the tail first keeps more candidates viable.
  size_t chunk = std::max<size_t>(current.size() / 2, 1);
  while (replays_left > 0) {
    bool changed = false;
    for (size_t end = current.size(); end > 0 && replays_left > 0;) {
      size_t begin = end > chunk ? end - chunk : 0;
      std::vector<std::string> candidate(current.begin(),
                                         current.begin() + begin);
      candidate.insert(candidate.end(), current.begin() + end, current.end());
      replays_left -= 2;
      if (StillDiverges(workload, design, candidate, query_index,
                        statements_executed)) {
        current = std::move(candidate);
        changed = true;
      }
      end = begin;
    }
    if (chunk > 1) {
      chunk /= 2;
    } else if (!changed) {
      break;
    }
  }
  return current;
}

Result<OracleReport> DifferentialOracle::Run(
    const Workload& workload, std::vector<PhysicalDesign> designs) {
  if (designs.empty()) designs = DefaultDesigns();
  OracleReport report;

  PhysicalDesign baseline;
  auto base = Replay(workload, baseline, workload.data,
                     &report.statements_executed);
  if (!base.ok()) {
    // The workload itself is broken — a generator bug, not a divergence.
    return Status(base.status().code(),
                  "baseline replay failed (seed " +
                      std::to_string(workload.seed) +
                      "): " + base.status().message());
  }
  ++report.designs_run;

  for (const PhysicalDesign& design : designs) {
    if (design.structure == "HEAP" && !design.indexes && !design.statistics &&
        !design.plan_cache) {
      continue;  // the baseline itself
    }
    auto fps = Replay(workload, design, workload.data,
                      &report.statements_executed);
    ++report.designs_run;
    if (!fps.ok()) {
      // Whole-replay failure under a non-baseline design: report it as a
      // divergence on the first query (the workload is known-good — the
      // baseline accepted every statement).
      Divergence d;
      d.seed = workload.seed;
      d.design = design.Label();
      d.query_index = 0;
      d.query = workload.queries.empty() ? "" : workload.queries[0];
      d.expected_fingerprint = (*base)[0];
      d.actual_fingerprint = "REPLAY ERROR: " + fps.status().ToString() + "\n";
      d.shrunken_data = workload.data;
      report.divergences.push_back(std::move(d));
      continue;
    }
    for (size_t i = 0; i < workload.queries.size(); ++i) {
      ++report.queries_compared;
      if ((*fps)[i] == (*base)[i]) continue;
      Divergence d;
      d.seed = workload.seed;
      d.design = design.Label();
      d.query_index = static_cast<int>(i);
      d.query = workload.queries[i];
      d.expected_fingerprint = (*base)[i];
      d.actual_fingerprint = (*fps)[i];
      d.shrunken_data =
          options_.shrink
              ? Shrink(workload, design, static_cast<int>(i),
                       &report.statements_executed)
              : workload.data;
      report.divergences.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace imon::testing
