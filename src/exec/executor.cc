#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "common/hash.h"
#include "common/metrics.h"
#include "exec/expr_program.h"
#include "exec/worker_pool.h"

namespace imon::exec {

using optimizer::AccessPathKind;
using optimizer::BoundSelect;
using optimizer::PlanNode;
using optimizer::PlanNodeKind;
using sql::Expr;

ExecMetrics ExecMetrics::Resolve(metrics::MetricsRegistry* registry) {
  ExecMetrics m;
  if (registry == nullptr) return m;
  // In StorageLayer::ScanPlan::Kind order.
  const char* const structures[] = {"heap", "btree", "hash", "isam", "index"};
  for (size_t i = 0; i < std::size(structures); ++i) {
    m.parallel_scans[i] = registry->GetCounter(
        std::string("exec.parallel_scans.") + structures[i]);
  }
  m.morsels_total = registry->GetCounter("exec.morsels_total");
  m.morsel_lanes = registry->GetGauge("exec.morsel_lanes");
  return m;
}

namespace {

constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

/// Compiled programs of the plan node at pre-order index `idx`.
const NodePrograms& Programs(const ExecContext* ctx, size_t idx) {
  return ctx->compiled->nodes[idx];
}

/// Lanes the context's tasks run on: the pool's, or one inline lane.
size_t LaneCount(const ExecContext* ctx) {
  return ctx->workers != nullptr ? ctx->workers->lane_count() : 1;
}

/// Run `fn(task, lane)` for every task in [0, count) on the context's
/// pool, or inline as lane 0 when it has none.
void RunTasks(ExecContext* ctx, size_t count,
              const std::function<void(size_t, size_t)>& fn) {
  if (ctx->workers != nullptr) {
    ctx->workers->RunTasks(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i, 0);
  }
}

/// Hash of a key tuple, avalanched: join buckets take its low bits.
uint64_t HashKeys(const Value* keys, size_t n) {
  uint64_t h = kFnvOffsetBasis;
  for (size_t k = 0; k < n; ++k) h = HashCombine(h, keys[k].Hash());
  return Mix64(h);
}

/// dst[offset + j] = src[j]; assignment reuses dst's text capacity.
void CopyInto(const Row& src, size_t offset, Row* dst) {
  for (size_t j = 0; j < src.size(); ++j) (*dst)[offset + j] = src[j];
}

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

/// Streaming aggregate state for one (func, arg) pair.
struct AggState {
  int64_t count = 0;
  bool is_int = true;
  /// The integer sum left the int64 range. Only SUM reports it: COUNT,
  /// AVG, MIN and MAX over the same values stay well defined.
  bool int_overflow = false;
  int64_t sum_i = 0;
  double sum_d = 0;
  Value min;
  Value max;
  bool seen = false;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.type() == TypeId::kInt) {
      if (!int_overflow) {
        int_overflow = __builtin_add_overflow(sum_i, v.AsInt(), &sum_i);
      }
      sum_d += static_cast<double>(v.AsInt());
    } else if (v.type() == TypeId::kDouble) {
      is_int = false;
      sum_d += v.AsDouble();
    }
    if (!seen || v.Compare(min) < 0) min = v;
    if (!seen || v.Compare(max) > 0) max = v;
    seen = true;
  }

  /// Fold another partial state (a later morsel of the same group) in.
  /// Caller merges in morsel order; sums associate as
  /// (morsel_0 + morsel_1) + ... which is deterministic for any worker
  /// count because morsel boundaries are fixed.
  void Merge(const AggState& o) {
    count += o.count;
    if (!o.is_int) is_int = false;
    if (o.int_overflow) int_overflow = true;
    if (!int_overflow) {
      int_overflow = __builtin_add_overflow(sum_i, o.sum_i, &sum_i);
    }
    sum_d += o.sum_d;
    if (o.seen) {
      if (!seen || o.min.Compare(min) < 0) min = o.min;
      if (!seen || o.max.Compare(max) > 0) max = o.max;
      seen = true;
    }
  }

  Result<Value> Finish(const std::string& func) const {
    if (func == "count") return Value::Int(count);
    if (!seen) return Value::Null();
    if (func == "sum") {
      if (is_int && int_overflow) {
        return Status::InvalidArgument("integer out of range");
      }
      return is_int ? Value::Int(sum_i) : Value::Double(sum_d);
    }
    if (func == "avg") return Value::Double(sum_d / count);
    if (func == "min") return min;
    if (func == "max") return max;
    return Value::Null();
  }
};

struct Group {
  Row representative;  ///< first input row of the group
  std::vector<AggState> states;
  std::vector<Value> keys;
};

/// Insertion-ordered group hash table. Because merge processes morsels
/// in index order and each morsel discovers groups in storage order, the
/// merged insertion order equals one in-order pass's first-seen order.
struct GroupTable {
  std::vector<Group> groups;
  std::unordered_map<uint64_t, std::vector<size_t>> index;

  Group* FindOrCreate(const std::vector<Value>& keys, size_t n_aggs,
                      const Row& rep, bool* created) {
    std::vector<size_t>& bucket = index[HashRow(keys)];
    for (size_t gi : bucket) {
      *created = !std::equal(keys.begin(), keys.end(), groups[gi].keys.begin());
      if (!*created) return &groups[gi];
    }
    bucket.push_back(groups.size());
    groups.push_back(Group{rep, std::vector<AggState>(n_aggs), keys});
    *created = true;
    return &groups.back();
  }
};

/// Evaluate the group keys and aggregate arguments of one input row and
/// fold them into `table`. `keys` is reused scratch.
Status AddToGroups(const BoundSelect& bound, const CompiledSelect& cp,
                   const Row& row, EvalScratch* scratch,
                   std::vector<Value>* keys, GroupTable* table) {
  keys->resize(cp.group_keys.size());
  for (size_t gi = 0; gi < keys->size(); ++gi) {
    IMON_RETURN_IF_ERROR(
        cp.group_keys[gi].Run(row, nullptr, scratch, &(*keys)[gi]));
  }
  bool created = false;
  Group* group =
      table->FindOrCreate(*keys, bound.aggregates.size(), row, &created);
  for (size_t a = 0; a < bound.aggregates.size(); ++a) {
    if (bound.aggregates[a].arg == nullptr) {
      ++group->states[a].count;  // COUNT(*)
      group->states[a].seen = true;
    } else {
      Value v;
      IMON_RETURN_IF_ERROR(cp.agg_args[a]->Run(row, nullptr, scratch, &v));
      group->states[a].Add(v);
    }
  }
  return Status::OK();
}

/// Fold `from` into `into`, preserving `from`'s insertion order for
/// newly discovered groups.
void MergeGroupTables(GroupTable* into, GroupTable&& from, size_t n_aggs) {
  if (into->groups.empty()) {
    *into = std::move(from);
    return;
  }
  for (Group& g : from.groups) {
    bool created = false;
    Group* dst = into->FindOrCreate(g.keys, n_aggs, g.representative, &created);
    if (created) {
      dst->states = std::move(g.states);
    } else {
      for (size_t a = 0; a < n_aggs; ++a) dst->states[a].Merge(g.states[a]);
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelines (Leis et al., morsel-driven parallelism).
//
// A pipeline follows a plan's probe side (`left`) from its top join down
// to a scan leaf. The leaf is the source; each join on the way up is a
// probe stage. A join's inner side is a breaker: a hash join's build
// side and a nested-loop inner run first as their own pipelines into a
// gather, and an index-NL inner is probed through ScanPath per row. The
// source's unit list splits into morsels of `morsel_pages` units, run on
// the worker pool (a virtual table's snapshot is one morsel). Each
// morsel's rows pass the source filters over RowBatch selection vectors,
// then every probe, into the morsel's own sink. Morsel boundaries depend
// only on the structure, the access path and `morsel_pages`; sinks merge
// in morsel-index order, so results do not depend on the worker count.
// ---------------------------------------------------------------------------

/// Build rows per parallel key-evaluation chunk.
constexpr size_t kJoinBuildChunkRows = 1024;

/// Hash table over a hash join's gathered build rows. Keys are stored
/// flat (row i's at [i * width, (i + 1) * width)) beside one avalanched
/// hash per row; bucket chains link build-row indices in ascending order,
/// so a probe emits its matches in build order at any worker count.
class JoinTable {
 public:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  /// Evaluate `programs` over `rows` and build the table, both on the
  /// pool; returns the lowest erroring chunk's status.
  Status Build(const std::vector<Row>& rows,
               const std::vector<ExprProgram>& programs, ExecContext* ctx);

  /// First build row in the chain of `hash`'s bucket, or kEnd.
  uint32_t Head(uint64_t hash) const { return heads_[hash & mask_]; }
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Build row `row` has key `key` (whose hash is `hash`).
  bool Matches(uint32_t row, uint64_t hash, const Value* key) const {
    return hashes_[row] == hash &&
           std::equal(key, key + width_,
                      &keys_[static_cast<size_t>(row) * width_]);
  }

 private:
  size_t width_ = 0;
  std::vector<Value> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;
  uint64_t mask_ = 0;
};

Status JoinTable::Build(const std::vector<Row>& rows,
                        const std::vector<ExprProgram>& programs,
                        ExecContext* ctx) {
  const size_t n = rows.size();
  if (n >= kEnd) return Status::NotSupported("hash-join build side too large");
  width_ = programs.size();
  keys_.resize(n * width_);
  hashes_.resize(n);
  next_.assign(n, kEnd);
  std::vector<uint8_t> keyed(n);  // NULL never joins
  const size_t chunks = (n + kJoinBuildChunkRows - 1) / kJoinBuildChunkRows;
  std::vector<Status> errors(chunks);
  std::vector<EvalScratch> scratch(LaneCount(ctx));
  RunTasks(ctx, chunks, [&](size_t c, size_t lane) {
    const size_t end = std::min(n, (c + 1) * kJoinBuildChunkRows);
    for (size_t i = c * kJoinBuildChunkRows; i < end; ++i) {
      Value* key = &keys_[i * width_];
      bool null_key = false;
      for (size_t k = 0; k < width_; ++k) {
        Status st = programs[k].Run(rows[i], nullptr, &scratch[lane], &key[k]);
        if (!st.ok()) {
          errors[c] = st;
          return;
        }
        null_key = null_key || key[k].is_null();
      }
      keyed[i] = !null_key;
      if (!null_key) hashes_[i] = HashKeys(key, width_);
    }
  });
  // Chunks run to completion once started, so the lowest erroring chunk
  // holds the first error in build order.
  for (const Status& st : errors) IMON_RETURN_IF_ERROR(st);

  size_t buckets = 1;
  while (buckets < 2 * n) buckets <<= 1;
  mask_ = buckets - 1;
  heads_.assign(buckets, kEnd);
  // Each lane links the rows of its own bucket range, walking the rows
  // backwards so that every chain ascends.
  const size_t ranges = std::min(LaneCount(ctx), chunks);
  RunTasks(ctx, ranges, [&](size_t r, size_t) {
    const uint64_t lo = buckets * r / ranges;
    const uint64_t hi = buckets * (r + 1) / ranges;
    for (size_t i = n; i-- > 0;) {
      const uint64_t b = hashes_[i] & mask_;
      if (!keyed[i] || b < lo || b >= hi) continue;
      next_[i] = heads_[b];
      heads_[b] = static_cast<uint32_t>(i);
    }
  });
  return Status::OK();
}

/// One join stage of a pipeline, applied to each row entering it.
struct Probe {
  PlanNodeKind kind = PlanNodeKind::kHashJoin;
  const NodePrograms* np = nullptr;
  /// Key programs run on each entering row: the hash join's outer keys
  /// or the index-NL probe keys; none for a nested loop.
  const std::vector<ExprProgram>* keys = nullptr;
  size_t in_width = 0;   ///< width of the rows entering the probe
  size_t out_width = 0;  ///< width of the joined rows it emits
  /// Hash join: the gathered build rows; nested loop: the inner rows.
  std::vector<Row> inner;
  JoinTable table;  ///< hash join only
  /// Index-NL: the inner table, the probe's access-path template and the
  /// inner scan's filters.
  const catalog::TableInfo* inner_table = nullptr;
  const optimizer::AccessPath* access = nullptr;
  const std::vector<ExprProgram>* inner_filters = nullptr;
};

struct Pipeline {
  const PlanNode* source = nullptr;
  size_t source_idx = 0;  ///< pre-order index of the source scan
  const optimizer::BoundTable* table = nullptr;
  StorageLayer::ScanPlan scan;  ///< real table: its units in scan order
  std::vector<Row> snapshot;    ///< virtual table: its one morsel
  size_t morsel_pages = 1;
  size_t morsels = 0;
  std::vector<Probe> probes;  ///< bottom-up along the probe side
};

/// Where a pipeline's rows go. Every morsel has its own sink state.
struct SinkSpec {
  enum class Kind {
    kGather,     ///< keep rows, at most `limit` per morsel (bare LIMIT)
    kTopK,       ///< keep each morsel's ORDER BY top `limit` rows
    kAggregate,  ///< fold rows into partial groups
  };
  Kind kind = Kind::kGather;
  size_t limit = kNoCap;
  const BoundSelect* bound = nullptr;  ///< top-k and aggregate
};

/// One morsel's share of a pipeline's output.
struct MorselResult {
  std::vector<Row> rows;  ///< gather: kept rows, in storage order
  GroupTable groups;      ///< aggregate: partial groups, first-seen order
  int64_t examined = 0;
  Status status;
};

/// Per-lane scratch, reused across every morsel the lane runs. Aligned
/// so that lanes never write to a shared cache line.
struct alignas(64) LaneScratch {
  bool ready = false;
  RowBatch batch;
  EvalScratch eval;
  std::vector<Row> keys;      ///< per probe: the entering row's key values
  std::vector<Row> combined;  ///< per probe: the joined row it emits
  /// Per probe: the index-NL access path; each probe refills only its
  /// equality values.
  std::vector<optimizer::AccessPath> access;
  Value left_key;
  Value right_key;
  std::vector<Value> group_keys;
};

/// Stable ORDER BY permutation of `n` rows, the i-th being `row_at(i)`
/// with aggregate values `aggs_at(i)` (or null): ties keep input order.
template <typename RowAt, typename AggsAt>
Result<std::vector<size_t>> SortOrder(const CompiledSelect& cp,
                                      const sql::SelectStmt& stmt, size_t n,
                                      RowAt row_at, AggsAt aggs_at,
                                      EvalScratch* scratch) {
  const auto& order_by = stmt.order_by;
  const size_t width = order_by.size();
  std::vector<Value> keys(n * width);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < width; ++k) {
      IMON_RETURN_IF_ERROR(cp.order_keys[k].Run(row_at(i), aggs_at(i), scratch,
                                                &keys[i * width + k]));
    }
  }
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < width; ++k) {
      int cmp = keys[a * width + k].Compare(keys[b * width + k]);
      if (cmp != 0) return order_by[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  return idx;
}

/// Keep only rows that can still reach the global top-k, re-emitted in
/// storage order. Sound because the final ORDER BY is a stable sort with
/// storage order as tie-break: a row outside its own morsel's stable
/// top-k has >= k rows globally ahead of it.
Status PruneMorselTopK(const ExecContext* ctx, const SinkSpec& sink,
                       EvalScratch* scratch, std::vector<Row>* rows) {
  if (rows->size() <= sink.limit) return Status::OK();
  IMON_ASSIGN_OR_RETURN(
      std::vector<size_t> idx,
      SortOrder(
          *ctx->compiled, *sink.bound->stmt, rows->size(),
          [&](size_t i) -> const Row& { return (*rows)[i]; },
          [](size_t) -> const AggregateValues* { return nullptr; }, scratch));
  idx.resize(sink.limit);
  std::sort(idx.begin(), idx.end());
  std::vector<Row> kept;
  kept.reserve(idx.size());
  for (size_t i : idx) kept.push_back(std::move((*rows)[i]));
  *rows = std::move(kept);
  return Status::OK();
}

/// One morsel's run on one lane: pushes rows through the pipeline's
/// probes into the morsel's sink. Every join condition evaluated on a
/// candidate pair counts one examined row, as do every row entering a
/// hash probe and every row an index-NL probe reads.
class MorselRun {
 public:
  MorselRun(ExecContext* ctx, const Pipeline& p, const SinkSpec& sink,
            LaneScratch* ls, MorselResult* out)
      : ctx_(ctx), p_(p), sink_(sink), ls_(ls), out_(out) {}

  /// The sink wants no more rows from this morsel.
  bool stopped() const { return stop_; }

  Status Push(const Row& row, size_t stage) {
    if (stage == p_.probes.size()) return Sink(row);
    const Probe& probe = p_.probes[stage];
    Row& key = ls_->keys[stage];
    bool null_key = false;
    for (size_t k = 0; k < key.size(); ++k) {
      IMON_RETURN_IF_ERROR((*probe.keys)[k].Run(row, nullptr, &ls_->eval,
                                                &key[k]));
      null_key = null_key || key[k].is_null();
    }
    Row& combined = ls_->combined[stage];
    switch (probe.kind) {
      case PlanNodeKind::kHashJoin: {
        ++out_->examined;
        if (null_key) return Status::OK();
        const uint64_t h = HashKeys(key.data(), key.size());
        bool prefix = false;
        for (uint32_t i = probe.table.Head(h); i != JoinTable::kEnd && !stop_;
             i = probe.table.Next(i)) {
          if (!probe.table.Matches(i, h, key.data())) continue;
          if (!prefix) CopyInto(row, 0, &combined);
          prefix = true;
          IMON_RETURN_IF_ERROR(Emit(probe, stage, probe.inner[i], false));
        }
        return Status::OK();
      }
      case PlanNodeKind::kNestedLoopJoin:
        CopyInto(row, 0, &combined);
        for (size_t i = 0; i < probe.inner.size() && !stop_; ++i) {
          IMON_RETURN_IF_ERROR(Emit(probe, stage, probe.inner[i], true));
        }
        return Status::OK();
      case PlanNodeKind::kIndexNLJoin: {
        if (null_key) return Status::OK();
        CopyInto(row, 0, &combined);
        optimizer::AccessPath& access = ls_->access[stage];
        access.eq_values = key;
        Status inner_status = Status::OK();
        IMON_RETURN_IF_ERROR(ctx_->storage->ScanPath(
            *probe.inner_table, access, [&](const Locator&, Row& inner) {
              inner_status = ProbedRow(probe, stage, inner);
              return inner_status.ok() && !stop_;
            }));
        return inner_status;
      }
      case PlanNodeKind::kScan:
        break;
    }
    return Status::Internal("scan node in a probe stage");
  }

 private:
  /// A row an index-NL probe read: the inner scan's filters, then the
  /// join.
  Status ProbedRow(const Probe& probe, size_t stage, const Row& inner) {
    ++out_->examined;
    for (const ExprProgram& f : *probe.inner_filters) {
      bool ok = false;
      IMON_RETURN_IF_ERROR(f.RunPredicate(inner, nullptr, &ls_->eval, &ok));
      if (!ok) return Status::OK();
    }
    return Emit(probe, stage, inner, true);
  }

  /// Join `inner` to the entering row already in the stage's combined
  /// row; push the result on if the join's conditions hold. Nested-loop
  /// and index-NL joins check their equi keys here too.
  Status Emit(const Probe& probe, size_t stage, const Row& inner,
              bool check_equi) {
    Row& combined = ls_->combined[stage];
    CopyInto(inner, probe.in_width, &combined);
    ++out_->examined;
    const NodePrograms& np = *probe.np;
    for (size_t k = 0; check_equi && k < np.outer_keys.size(); ++k) {
      IMON_RETURN_IF_ERROR(np.outer_keys[k].Run(combined, nullptr, &ls_->eval,
                                                &ls_->left_key));
      IMON_RETURN_IF_ERROR(np.inner_keys[k].Run(combined, nullptr, &ls_->eval,
                                                &ls_->right_key));
      if (ls_->left_key.is_null() || ls_->right_key.is_null() ||
          ls_->left_key.Compare(ls_->right_key) != 0) {
        return Status::OK();
      }
    }
    for (const ExprProgram& c : np.residual) {
      bool ok = false;
      IMON_RETURN_IF_ERROR(c.RunPredicate(combined, nullptr, &ls_->eval, &ok));
      if (!ok) return Status::OK();
    }
    return Push(combined, stage + 1);
  }

  Status Sink(const Row& row) {
    if (sink_.kind == SinkSpec::Kind::kAggregate) {
      return AddToGroups(*sink_.bound, *ctx_->compiled, row, &ls_->eval,
                         &ls_->group_keys, &out_->groups);
    }
    // A top-k sink keeps every row until the morsel ends.
    const bool capped = sink_.kind == SinkSpec::Kind::kGather;
    if (!capped || out_->rows.size() < sink_.limit) out_->rows.push_back(row);
    stop_ = capped && out_->rows.size() >= sink_.limit;
    return Status::OK();
  }

  ExecContext* ctx_;
  const Pipeline& p_;
  const SinkSpec& sink_;
  LaneScratch* ls_;
  MorselResult* out_;
  bool stop_ = false;
};

/// Run morsel `m` of `p` on lane scratch `ls`: scan it in batches, filter
/// each batch in place, and push the survivors on in storage order.
Status RunMorsel(ExecContext* ctx, Pipeline* p, const SinkSpec& sink,
                 size_t m, LaneScratch* ls, MorselResult* out) {
  if (!ls->ready) {
    ls->keys.resize(p->probes.size());
    ls->combined.resize(p->probes.size());
    ls->access.resize(p->probes.size());
    for (size_t s = 0; s < p->probes.size(); ++s) {
      const Probe& probe = p->probes[s];
      ls->keys[s].resize(probe.keys != nullptr ? probe.keys->size() : 0);
      ls->combined[s].resize(probe.out_width);
      if (probe.access != nullptr) ls->access[s] = *probe.access;
    }
    ls->ready = true;
  }
  MorselRun run(ctx, *p, sink, ls, out);
  const std::vector<ExprProgram>& filters = Programs(ctx, p->source_idx).filters;
  const size_t capacity = std::max<size_t>(1, ctx->batch_size);
  RowBatch& batch = ls->batch;
  batch.Reset();
  auto flush = [&]() -> Status {
    for (const ExprProgram& f : filters) {
      if (batch.sel.empty()) break;
      IMON_RETURN_IF_ERROR(f.FilterBatch(&batch, &ls->eval));
    }
    for (size_t i = 0; i < batch.sel.size() && !run.stopped(); ++i) {
      IMON_RETURN_IF_ERROR(run.Push(batch.rows[batch.sel[i]], 0));
    }
    batch.Reset();
    return Status::OK();
  };

  if (p->table->is_virtual) {
    // Every snapshot row counts as examined. Rows are swapped into the
    // arena: the snapshot is not needed afterwards.
    std::vector<Row>& rows = p->snapshot;
    out->examined += static_cast<int64_t>(rows.size());
    for (size_t i = 0; i < rows.size() && !run.stopped(); ++i) {
      batch.PushSwap(&rows[i]);
      if (batch.full(capacity) || i + 1 == rows.size()) {
        IMON_RETURN_IF_ERROR(flush());
      }
    }
  } else {
    // A sink that stops the morsel stops it at batch granularity.
    const size_t begin = m * p->morsel_pages;
    const size_t end = std::min(p->scan.units.size(), begin + p->morsel_pages);
    Status inner = Status::OK();
    IMON_RETURN_IF_ERROR(ctx->storage->ScanUnits(
        p->table->info, p->scan, begin, end, [&](const Locator&, Row& row) {
          batch.PushSwap(&row);
          if (!batch.full(capacity)) return true;
          out->examined += static_cast<int64_t>(batch.filled);
          inner = flush();
          return inner.ok() && !run.stopped();
        }));
    IMON_RETURN_IF_ERROR(inner);
    if (!run.stopped() && batch.filled > 0) {
      out->examined += static_cast<int64_t>(batch.filled);
      IMON_RETURN_IF_ERROR(flush());
    }
  }
  if (sink.kind != SinkSpec::Kind::kTopK) return Status::OK();
  return PruneMorselTopK(ctx, sink, &ls->eval, &out->rows);
}

/// Opens and runs the pipelines of one statement.
class Executor {
 public:
  Executor(ExecContext* ctx, const ExecMetrics& metrics)
      : ctx_(ctx), metrics_(metrics) {}

  /// Set up the pipeline whose top is `plan`, consuming pre-order node
  /// indices from `*counter`. Runs every breaker below it (hash builds,
  /// nested-loop inners) to completion first.
  Status Open(const PlanNode& plan, size_t* counter, Pipeline* p) {
    const size_t idx = (*counter)++;
    if (plan.kind == PlanNodeKind::kScan) return OpenSource(plan, idx, p);
    IMON_RETURN_IF_ERROR(Open(*plan.left, counter, p));
    Probe probe;
    probe.kind = plan.kind;
    probe.np = &Programs(ctx_, idx);
    probe.in_width = static_cast<size_t>(plan.left->layout.width());
    probe.out_width = static_cast<size_t>(plan.layout.width());
    if (plan.kind == PlanNodeKind::kIndexNLJoin) {
      // The inner scan is probed rather than run, but it still occupies
      // its pre-order slot in the compiled programs.
      probe.inner_filters = &Programs(ctx_, (*counter)++).filters;
      if (plan.inner_access.kind == AccessPathKind::kSecondaryIndex &&
          plan.inner_access.index.is_virtual) {
        return Status::Internal("attempted to probe virtual index '" +
                                plan.inner_access.index.name + "'");
      }
      probe.keys = &probe.np->probe;
      probe.inner_table = &(*ctx_->tables)[plan.right->table_idx].info;
      probe.access = &plan.inner_access;
    } else {
      Pipeline inner;
      IMON_RETURN_IF_ERROR(Open(*plan.right, counter, &inner));
      IMON_ASSIGN_OR_RETURN(probe.inner, Gather(&inner, SinkSpec{}));
      if (plan.kind == PlanNodeKind::kHashJoin) {
        probe.keys = &probe.np->outer_keys;
        IMON_RETURN_IF_ERROR(
            probe.table.Build(probe.inner, probe.np->inner_keys, ctx_));
      }
    }
    p->probes.push_back(std::move(probe));
    return Status::OK();
  }

  /// Run every morsel of `p` into `sink`; (*results)[m] is morsel m's
  /// share. Adds the rows examined to the statement's stats and returns
  /// the lowest-indexed morsel's error.
  Status Run(Pipeline* p, const SinkSpec& sink,
             std::vector<MorselResult>* results) {
    results->resize(p->morsels);
    std::vector<LaneScratch> lanes(LaneCount(ctx_));
    // A morsel above one that failed cannot change the statement's
    // error, so it is skipped; every morsel below a failure runs.
    std::atomic<size_t> first_failed{kNoCap};
    RunTasks(ctx_, p->morsels, [&](size_t m, size_t lane) {
      if (m > first_failed.load(std::memory_order_relaxed)) return;
      // The morsel fills a result on its own stack, so concurrent
      // morsels share no cache line until it is moved into place.
      MorselResult out;
      out.status = RunMorsel(ctx_, p, sink, m, &lanes[lane], &out);
      const bool ok = out.status.ok();
      (*results)[m] = std::move(out);
      size_t seen = first_failed.load(std::memory_order_relaxed);
      while (!ok && m < seen &&
             !first_failed.compare_exchange_weak(seen, m)) {
      }
    });
    for (const MorselResult& r : *results) {
      ctx_->stats.rows_examined += r.examined;
    }
    for (const MorselResult& r : *results) IMON_RETURN_IF_ERROR(r.status);
    return Status::OK();
  }

  /// Run `p` into a gather; rows in morsel order.
  Result<std::vector<Row>> Gather(Pipeline* p, const SinkSpec& sink) {
    std::vector<MorselResult> parts;
    IMON_RETURN_IF_ERROR(Run(p, sink, &parts));
    if (parts.size() == 1) return std::move(parts[0].rows);
    std::vector<Row> out;
    for (MorselResult& r : parts) {
      out.insert(out.end(), std::make_move_iterator(r.rows.begin()),
                 std::make_move_iterator(r.rows.end()));
    }
    return out;
  }

 private:
  Status OpenSource(const PlanNode& plan, size_t idx, Pipeline* p) {
    p->source = &plan;
    p->source_idx = idx;
    p->table = &(*ctx_->tables)[plan.table_idx];
    if (p->table->is_virtual) {
      p->snapshot = Snapshot(plan, *p->table);
      p->morsels = 1;
      return Status::OK();
    }
    if (plan.access.kind == AccessPathKind::kSecondaryIndex &&
        plan.access.index.is_virtual) {
      return Status::Internal(
          "attempted to execute a plan using virtual index '" +
          plan.access.index.name + "'");
    }
    IMON_ASSIGN_OR_RETURN(p->scan,
                          ctx_->storage->BuildScan(p->table->info, plan.access));
    p->morsel_pages = std::max<size_t>(1, ctx_->morsel_pages);
    p->morsels = (p->scan.units.size() + p->morsel_pages - 1) / p->morsel_pages;
    if (metrics_.morsels_total != nullptr) {
      metrics_.parallel_scans[static_cast<size_t>(p->scan.kind)]->Add(1);
      metrics_.morsels_total->Add(static_cast<int64_t>(p->morsels));
      metrics_.morsel_lanes->Set(static_cast<int64_t>(
          std::min(LaneCount(ctx_), std::max<size_t>(1, p->morsels))));
    }
    return Status::OK();
  }

  /// A virtual IMA table's rows. Sequence pushdown: a conjunct of the
  /// form seq > <literal> on the provider's monotone sequence column lets
  /// the provider materialize only the new tail (the daemon's incremental
  /// poll path).
  static std::vector<Row> Snapshot(const PlanNode& plan,
                                   const optimizer::BoundTable& bt) {
    int seq_col = bt.provider->SeqColumn();
    int64_t min_seq = std::numeric_limits<int64_t>::min();
    for (const Expr* f : plan.filters) {
      if (seq_col < 0) break;
      if (f->kind != sql::ExprKind::kBinary) continue;
      if (f->binary_op != sql::BinaryOp::kGt) continue;
      const Expr* l = f->lhs.get();
      const Expr* r = f->rhs.get();
      if (l->kind == sql::ExprKind::kColumnRef &&
          l->bound_table == plan.table_idx && l->bound_column == seq_col &&
          r->kind == sql::ExprKind::kLiteral &&
          r->literal.type() == TypeId::kInt && !r->literal.is_null()) {
        min_seq = std::max(min_seq, r->literal.AsInt());
      }
    }
    return bt.provider->Rows(min_seq);
  }

  ExecContext* ctx_;
  const ExecMetrics metrics_;
};

}  // namespace

Result<ResultSet> ExecuteSelect(const BoundSelect& bound,
                                const PlanNode& plan, ExecContext* ctx) {
  const sql::SelectStmt& stmt = *bound.stmt;
  const CompiledSelect* cp = ctx->compiled;
  if (cp == nullptr) {
    return Status::Internal("ExecuteSelect requires compiled programs");
  }
  // Handles come resolved from the engine; other callers may bring only
  // a registry.
  Executor executor(ctx, ctx->exec_metrics != nullptr
                             ? *ctx->exec_metrics
                             : ExecMetrics::Resolve(ctx->metrics));
  EvalScratch scratch;

  ResultSet result;
  for (const auto& item : bound.items) result.columns.push_back(item.alias);

  // Each surviving "logical row" for the projection phase: a base row (or
  // group representative) + optional aggregate values.
  struct Logical {
    const Row* row;
    AggregateValues aggs;
  };
  std::vector<Logical> logical;
  std::vector<Group> groups;  // storage for aggregate path
  std::vector<Row> rows;      // storage for non-aggregate path

  Pipeline root;
  size_t node_counter = 0;
  IMON_RETURN_IF_ERROR(executor.Open(plan, &node_counter, &root));

  if (bound.has_aggregates) {
    SinkSpec sink;
    sink.kind = SinkSpec::Kind::kAggregate;
    sink.bound = &bound;
    std::vector<MorselResult> parts;
    IMON_RETURN_IF_ERROR(executor.Run(&root, sink, &parts));
    GroupTable merged;
    for (MorselResult& part : parts) {
      MergeGroupTables(&merged, std::move(part.groups),
                       bound.aggregates.size());
    }
    groups = std::move(merged.groups);
    // Global aggregate with no input and no GROUP BY: one empty group.
    if (groups.empty() && stmt.group_by.empty()) {
      groups.emplace_back();
      groups.back().states.resize(bound.aggregates.size());
      groups.back().representative.assign(plan.layout.width(), Value());
    }
    for (Group& g : groups) {
      Logical l;
      l.row = &g.representative;
      l.aggs.resize(bound.aggregates.size());
      for (size_t a = 0; a < bound.aggregates.size(); ++a) {
        IMON_ASSIGN_OR_RETURN(l.aggs[a],
                              g.states[a].Finish(bound.aggregates[a].func));
      }
      logical.push_back(std::move(l));
    }
    // HAVING.
    if (stmt.having) {
      std::vector<Logical> kept;
      for (Logical& l : logical) {
        bool ok = false;
        IMON_RETURN_IF_ERROR(
            cp->having->RunPredicate(*l.row, &l.aggs, &scratch, &ok));
        if (ok) kept.push_back(std::move(l));
      }
      logical = std::move(kept);
    }
  } else {
    // LIMIT pushdown into the morsels of a real-table source. Hash point
    // probes stay out: they examine their whole bucket chain, collisions
    // included, so rows_examined does not depend on LIMIT.
    SinkSpec sink;
    if (stmt.limit.has_value() && !stmt.distinct &&
        !root.table->is_virtual &&
        root.source->access.kind != AccessPathKind::kPrimaryHash) {
      sink.kind = stmt.order_by.empty() ? SinkSpec::Kind::kGather
                                        : SinkSpec::Kind::kTopK;
      sink.limit = static_cast<size_t>(*stmt.limit);
      sink.bound = &bound;
    }
    IMON_ASSIGN_OR_RETURN(rows, executor.Gather(&root, sink));
    logical.reserve(rows.size());
    for (const Row& row : rows) logical.push_back(Logical{&row, {}});
  }

  // ORDER BY over logical rows.
  if (!stmt.order_by.empty()) {
    IMON_ASSIGN_OR_RETURN(
        std::vector<size_t> idx,
        SortOrder(
            *cp, stmt, logical.size(),
            [&](size_t i) -> const Row& { return *logical[i].row; },
            [&](size_t i) { return &logical[i].aggs; }, &scratch));
    std::vector<Logical> sorted;
    sorted.reserve(logical.size());
    for (size_t i : idx) sorted.push_back(std::move(logical[i]));
    logical = std::move(sorted);
  }

  // Projection (+ DISTINCT + LIMIT).
  std::set<std::string> seen_distinct;
  for (const Logical& l : logical) {
    if (stmt.limit.has_value() &&
        static_cast<int64_t>(result.rows.size()) >= *stmt.limit) {
      break;
    }
    Row out_row(cp->items.size());
    for (size_t i = 0; i < out_row.size(); ++i) {
      IMON_RETURN_IF_ERROR(
          cp->items[i].Run(*l.row, &l.aggs, &scratch, &out_row[i]));
    }
    if (stmt.distinct) {
      std::string fingerprint;
      SerializeRow(out_row, &fingerprint);
      if (!seen_distinct.insert(std::move(fingerprint)).second) continue;
    }
    result.rows.push_back(std::move(out_row));
  }
  ctx->stats.rows_output += static_cast<int64_t>(result.rows.size());
  return result;
}

}  // namespace imon::exec
