#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "common/hash.h"
#include "common/metrics.h"
#include "exec/expr_program.h"
#include "exec/expression_eval.h"
#include "exec/worker_pool.h"

namespace imon::exec {

using optimizer::AccessPathKind;
using optimizer::BoundSelect;
using optimizer::OutputLayout;
using optimizer::PlanNode;
using optimizer::PlanNodeKind;
using sql::Expr;

namespace {

/// Apply all `filters` to `row` under `layout`; counts one examined row.
Result<bool> PassesFilters(const std::vector<const Expr*>& filters,
                           const OutputLayout& layout, const Row& row,
                           ExecContext* ctx) {
  ++ctx->stats.rows_examined;
  for (const Expr* f : filters) {
    IMON_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*f, layout, row));
    if (!ok) return false;
  }
  return true;
}

/// Compiled-filter variant (same accounting).
Result<bool> PassesFiltersCompiled(const std::vector<ExprProgram>& programs,
                                   const Row& row, EvalScratch* scratch,
                                   ExecContext* ctx) {
  ++ctx->stats.rows_examined;
  for (const ExprProgram& p : programs) {
    bool ok = false;
    IMON_RETURN_IF_ERROR(p.RunPredicate(row, nullptr, scratch, &ok));
    if (!ok) return false;
  }
  return true;
}

/// Compiled filter programs for the plan node at pre-order index `idx`,
/// or null when running uncompiled.
const std::vector<ExprProgram>* NodePrograms(const ExecContext* ctx,
                                             size_t idx) {
  if (ctx->compiled == nullptr) return nullptr;
  if (idx >= ctx->compiled->node_filters.size()) return nullptr;
  return &ctx->compiled->node_filters[idx];
}

/// Run the node's filter chain over a full batch, appending the
/// survivors to `out`. Every gathered row counts as examined, matching
/// the scalar path's accounting. Survivors are copied out (selective
/// materialization) so the arena keeps its storage for the next gather.
Status FlushBatch(const std::vector<ExprProgram>& filters, RowBatch* batch,
                  EvalScratch* scratch, std::vector<Row>* out,
                  ExecContext* ctx) {
  ctx->stats.rows_examined += static_cast<int64_t>(batch->filled);
  for (const ExprProgram& f : filters) {
    if (batch->sel.empty()) break;
    IMON_RETURN_IF_ERROR(f.FilterBatch(batch, scratch));
  }
  for (uint32_t idx : batch->sel) out->push_back(batch->rows[idx]);
  batch->Reset();
  return Status::OK();
}

Result<std::vector<Row>> ExecuteNode(const PlanNode& plan, ExecContext* ctx,
                                     size_t* node_counter);

// ---------------------------------------------------------------------------
// Morsel-driven scans.
//
// Every real-table scan splits the structure's unit list — heap chain
// pages, B-Tree or index leaves, ISAM chain heads, hash buckets (one for
// a point probe) — into fixed unit ranges ("morsels") executed on the
// context's worker pool, or inline as one lane when it has none.
// Determinism contract: morsel boundaries depend only on the structure,
// the access path and `morsel_pages`, every per-morsel computation
// follows storage order, and gather merges in morsel-index order — so
// results (and grouped aggregates) are bit-identical for any worker
// count.
// ---------------------------------------------------------------------------

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

struct MorselPlan {
  const optimizer::BoundTable* bt = nullptr;
  StorageLayer::ScanPlan scan;  ///< structure units in scan order
  size_t morsel_pages = kDefaultMorselPages;
  size_t count = 0;             ///< number of morsels
};

/// Morsels of a scan node over a real (non-virtual) table.
Result<MorselPlan> BuildMorselPlan(const PlanNode& plan, ExecContext* ctx) {
  if (plan.access.kind == AccessPathKind::kSecondaryIndex &&
      plan.access.index.is_virtual) {
    return Status::Internal(
        "attempted to execute a plan using virtual index '" +
        plan.access.index.name + "'");
  }
  MorselPlan mp;
  mp.bt = &(*ctx->tables)[plan.table_idx];
  IMON_ASSIGN_OR_RETURN(mp.scan,
                        ctx->storage->BuildScan(mp.bt->info, plan.access));
  mp.morsel_pages = std::max<size_t>(1, ctx->morsel_pages);
  mp.count = (mp.scan.units.size() + mp.morsel_pages - 1) / mp.morsel_pages;
  if (ctx->metrics != nullptr) {
    ctx->metrics
        ->GetCounter(std::string("exec.parallel_scans.") + mp.scan.structure)
        ->Add(1);
    ctx->metrics->GetCounter("exec.morsels_total")
        ->Add(static_cast<int64_t>(mp.count));
    size_t lanes = std::min(LaneCount(ctx), std::max<size_t>(1, mp.count));
    ctx->metrics->GetGauge("exec.morsel_lanes")
        ->Set(static_cast<int64_t>(lanes));
  }
  return mp;
}

/// Per-lane reusable scratch: one batch arena and eval stack per lane,
/// reused across every morsel the lane runs.
struct LaneScratch {
  RowBatch batch;
  EvalScratch eval;
};

/// Scan morsel `m`, applying the node's filter chain (compiled batch
/// path or scalar fallback). Survivors reach `sink` in storage order;
/// the sink returns false to end the morsel early (not an error).
/// Returns rows examined. Must not touch ctx->stats: workers run this
/// concurrently.
Result<int64_t> ScanMorselFiltered(const MorselPlan& mp, size_t m,
                                   const PlanNode& plan,
                                   const std::vector<ExprProgram>* programs,
                                   size_t batch_capacity, ExecContext* ctx,
                                   LaneScratch* ls,
                                   const std::function<bool(const Row&)>& sink) {
  size_t begin = m * mp.morsel_pages;
  size_t end = std::min(mp.scan.units.size(), begin + mp.morsel_pages);
  int64_t examined = 0;
  Status inner = Status::OK();
  if (programs != nullptr) {
    RowBatch& batch = ls->batch;
    batch.Reset();
    bool stopped = false;
    auto flush = [&]() -> Status {
      examined += static_cast<int64_t>(batch.filled);
      for (const ExprProgram& f : *programs) {
        if (batch.sel.empty()) break;
        IMON_RETURN_IF_ERROR(f.FilterBatch(&batch, &ls->eval));
      }
      for (uint32_t idx : batch.sel) {
        if (!sink(batch.rows[idx])) {
          stopped = true;
          break;
        }
      }
      batch.Reset();
      return Status::OK();
    };
    IMON_RETURN_IF_ERROR(ctx->storage->ScanUnits(
        mp.bt->info, mp.scan, begin, end, [&](const Locator&, Row& row) {
          batch.PushSwap(&row);
          if (batch.full(batch_capacity)) {
            Status st = flush();
            if (!st.ok()) {
              inner = st;
              return false;
            }
            if (stopped) return false;
          }
          return true;
        }));
    IMON_RETURN_IF_ERROR(inner);
    if (!stopped && batch.filled > 0) IMON_RETURN_IF_ERROR(flush());
  } else {
    IMON_RETURN_IF_ERROR(ctx->storage->ScanUnits(
        mp.bt->info, mp.scan, begin, end, [&](const Locator&, Row& row) {
          ++examined;
          for (const Expr* f : plan.filters) {
            auto ok = EvalPredicate(*f, plan.layout, row);
            if (!ok.ok()) {
              inner = ok.status();
              return false;
            }
            if (!*ok) return true;
          }
          return sink(row);
        }));
    IMON_RETURN_IF_ERROR(inner);
  }
  return examined;
}

/// ORDER BY + LIMIT pruning spec for root scans.
struct TopKSpec {
  const sql::SelectStmt* stmt = nullptr;
  size_t k = 0;
};

/// Keep only rows that can still reach the global top-k, re-emitted in
/// storage order. Sound because the final ORDER BY is a stable sort with
/// storage order as tie-break: a row outside its own morsel's stable
/// top-k has >= k rows globally ahead of it.
Status PruneMorselTopK(const PlanNode& plan, ExecContext* ctx,
                       const TopKSpec& spec, EvalScratch* scratch,
                       std::vector<Row>* rows) {
  if (rows->size() <= spec.k) return Status::OK();
  const CompiledSelect* cp = ctx->compiled;
  const auto& order_by = spec.stmt->order_by;
  std::vector<std::vector<Value>> keys(rows->size());
  for (size_t i = 0; i < rows->size(); ++i) {
    keys[i].reserve(order_by.size());
    for (size_t k = 0; k < order_by.size(); ++k) {
      Value v;
      if (cp != nullptr) {
        IMON_RETURN_IF_ERROR(
            cp->order_keys[k].Run((*rows)[i], nullptr, scratch, &v));
      } else {
        IMON_ASSIGN_OR_RETURN(
            v, Eval(*order_by[k].expr, plan.layout, (*rows)[i]));
      }
      keys[i].push_back(std::move(v));
    }
  }
  std::vector<size_t> idx(rows->size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < order_by.size(); ++k) {
      int cmp = keys[a][k].Compare(keys[b][k]);
      if (cmp != 0) return order_by[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  idx.resize(spec.k);
  std::sort(idx.begin(), idx.end());
  std::vector<Row> kept;
  kept.reserve(idx.size());
  for (size_t i : idx) kept.push_back(std::move((*rows)[i]));
  *rows = std::move(kept);
  return Status::OK();
}

/// Morsel scan producing filtered rows in storage order.
/// `per_morsel_limit` caps survivors per morsel (bare LIMIT pushdown:
/// only a morsel's first k survivors can reach the global first k);
/// `topk` prunes each morsel to its ORDER BY top-k instead.
Result<std::vector<Row>> ParallelScanRows(const PlanNode& plan,
                                          ExecContext* ctx, size_t node_idx,
                                          const MorselPlan& mp,
                                          size_t per_morsel_limit,
                                          const TopKSpec* topk) {
  const std::vector<ExprProgram>* programs = NodePrograms(ctx, node_idx);
  const size_t capacity = std::max<size_t>(1, ctx->batch_size);
  std::vector<LaneScratch> lanes(LaneCount(ctx));
  std::vector<std::vector<Row>> rows(mp.count);
  std::vector<int64_t> examined(mp.count, 0);
  std::vector<Status> errors(mp.count, Status::OK());
  std::atomic<bool> failed{false};
  RunTasks(ctx, mp.count, [&](size_t m, size_t lane) {
    if (failed.load(std::memory_order_relaxed)) return;
    LaneScratch& ls = lanes[lane];
    std::vector<Row>& dst = rows[m];
    auto res = ScanMorselFiltered(
        mp, m, plan, programs, capacity, ctx, &ls, [&](const Row& r) {
          if (dst.size() >= per_morsel_limit) return false;  // LIMIT 0
          dst.push_back(r);
          return dst.size() < per_morsel_limit;
        });
    if (!res.ok()) {
      errors[m] = res.status();
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    examined[m] = *res;
    if (topk != nullptr) {
      Status st = PruneMorselTopK(plan, ctx, *topk, &ls.eval, &dst);
      if (!st.ok()) {
        errors[m] = st;
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });
  size_t total = 0;
  for (size_t m = 0; m < mp.count; ++m) {
    ctx->stats.rows_examined += examined[m];
    total += rows[m].size();
  }
  // Tasks are claimed in index order and a started task always runs to
  // completion, so the lowest erroring morsel is deterministic.
  for (size_t m = 0; m < mp.count; ++m) IMON_RETURN_IF_ERROR(errors[m]);
  std::vector<Row> out;
  out.reserve(total);
  for (std::vector<Row>& part : rows) {
    for (Row& r : part) out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<Row>> ExecuteScan(const PlanNode& plan, ExecContext* ctx,
                                     size_t node_idx) {
  const optimizer::BoundTable& bt = (*ctx->tables)[plan.table_idx];
  if (!bt.is_virtual) {
    IMON_ASSIGN_OR_RETURN(MorselPlan mp, BuildMorselPlan(plan, ctx));
    return ParallelScanRows(plan, ctx, node_idx, mp,
                            std::numeric_limits<size_t>::max(), nullptr);
  }

  // Virtual IMA table: filter the provider's snapshot. Sequence
  // pushdown: a conjunct of the form seq > <literal> on the provider's
  // monotone sequence column lets the provider materialize only the new
  // tail (the daemon's incremental poll path).
  int seq_col = bt.provider->SeqColumn();
  int64_t min_seq = -1;
  if (seq_col >= 0) {
    for (const Expr* f : plan.filters) {
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
  }
  std::vector<Row> rows = min_seq >= 0 ? bt.provider->SnapshotSince(min_seq)
                                       : bt.provider->Snapshot();
  std::vector<Row> out;
  const std::vector<ExprProgram>* programs = NodePrograms(ctx, node_idx);
  if (programs != nullptr) {
    // Vectorized consume: gather into the batch arena by swapping with
    // the snapshot's rows, which are not needed afterwards.
    const size_t capacity = std::max<size_t>(1, ctx->batch_size);
    RowBatch batch;
    EvalScratch scratch;
    for (Row& row : rows) {
      batch.PushSwap(&row);
      if (batch.full(capacity)) {
        IMON_RETURN_IF_ERROR(
            FlushBatch(*programs, &batch, &scratch, &out, ctx));
      }
    }
    if (batch.filled > 0) {
      IMON_RETURN_IF_ERROR(
          FlushBatch(*programs, &batch, &scratch, &out, ctx));
    }
  } else {
    // Scalar fallback: interpret the filter ASTs row by row.
    for (const Row& row : rows) {
      IMON_ASSIGN_OR_RETURN(bool pass,
                            PassesFilters(plan.filters, plan.layout, row, ctx));
      if (pass) out.push_back(row);
    }
  }
  return out;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

/// Evaluate residual + (for NL joins) equi conditions on a combined row.
Result<bool> JoinConditionsHold(const PlanNode& plan, const Row& combined,
                                bool check_equi, ExecContext* ctx) {
  ++ctx->stats.rows_examined;
  if (check_equi) {
    for (const auto& [outer_e, inner_e] : plan.equi_keys) {
      IMON_ASSIGN_OR_RETURN(Value l, Eval(*outer_e, plan.layout, combined));
      IMON_ASSIGN_OR_RETURN(Value r, Eval(*inner_e, plan.layout, combined));
      if (l.is_null() || r.is_null() || l.Compare(r) != 0) return false;
    }
  }
  for (const Expr* c : plan.residual) {
    IMON_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c, plan.layout, combined));
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Hash join with a partitioned parallel build.
//
// Phase A evaluates build-side key expressions over fixed row chunks in
// parallel, routing each keyed row to one of kJoinPartitions partitions
// by a re-mixed key hash. Phase B builds the per-partition hash tables
// in parallel, concatenating the chunks' contributions in chunk order so
// every hash bucket lists inner-row indices ascending. Both constants
// are worker-count independent, so partition contents — and therefore
// probe emission order — are identical for any worker count, including
// a null pool, whose single lane runs the same phases inline.
// ---------------------------------------------------------------------------

/// Build-side partition count (fixed: partition assignment must never
/// depend on the worker count).
constexpr size_t kJoinPartitions = 32;
/// Build rows per parallel key-evaluation chunk (fixed likewise).
constexpr size_t kJoinBuildChunkRows = 1024;

Result<std::vector<Row>> ExecuteHashJoin(const PlanNode& plan,
                                         ExecContext* ctx,
                                         size_t* node_counter) {
  IMON_ASSIGN_OR_RETURN(std::vector<Row> outer_rows,
                        ExecuteNode(*plan.left, ctx, node_counter));
  IMON_ASSIGN_OR_RETURN(std::vector<Row> inner_rows,
                        ExecuteNode(*plan.right, ctx, node_counter));

  // Phase A: per-chunk key evaluation + partition routing. Chunks write
  // disjoint slices of inner_keys and their own keyed[] slots; Eval over
  // the const expression tree is thread-safe.
  const size_t n = inner_rows.size();
  const size_t chunks = (n + kJoinBuildChunkRows - 1) / kJoinBuildChunkRows;
  std::vector<Row> inner_keys(n);
  // keyed[c * kJoinPartitions + p]: (hash, idx) pairs chunk c routes to
  // partition p, in ascending idx.
  std::vector<std::vector<std::pair<uint64_t, size_t>>> keyed(
      chunks * kJoinPartitions);
  std::vector<Status> chunk_errors(chunks, Status::OK());
  RunTasks(ctx, chunks, [&](size_t c, size_t) {
    size_t begin = c * kJoinBuildChunkRows;
    size_t end = std::min(n, begin + kJoinBuildChunkRows);
    for (size_t i = begin; i < end; ++i) {
      Row key;
      bool null_key = false;
      for (const auto& [outer_e, inner_e] : plan.equi_keys) {
        auto v = Eval(*inner_e, plan.right->layout, inner_rows[i]);
        if (!v.ok()) {
          chunk_errors[c] = v.status();
          return;
        }
        if (v->is_null()) null_key = true;
        key.push_back(std::move(*v));
      }
      if (null_key) continue;  // NULL never joins
      uint64_t h = HashRow(key);
      keyed[c * kJoinPartitions + Mix64(h) % kJoinPartitions]
          .emplace_back(h, i);
      inner_keys[i] = std::move(key);
    }
  });
  // Chunks run to completion once started and are claimed in index
  // order, so the lowest erroring chunk holds the globally-first error.
  for (size_t c = 0; c < chunks; ++c) IMON_RETURN_IF_ERROR(chunk_errors[c]);

  // Phase B: per-partition hash tables; each bucket's index list ascends
  // because chunks are folded in chunk order.
  std::vector<std::unordered_map<uint64_t, std::vector<size_t>>> parts(
      kJoinPartitions);
  RunTasks(ctx, kJoinPartitions, [&](size_t p, size_t) {
    size_t total = 0;
    for (size_t c = 0; c < chunks; ++c) {
      total += keyed[c * kJoinPartitions + p].size();
    }
    parts[p].reserve(total * 2);
    for (size_t c = 0; c < chunks; ++c) {
      for (const auto& [h, i] : keyed[c * kJoinPartitions + p]) {
        parts[p][h].push_back(i);
      }
    }
  });

  // Probe (serial: outer-side parallelism comes from the morsel scan
  // when the probe side is the root pipeline).
  std::vector<Row> out;
  for (const Row& outer : outer_rows) {
    Row key;
    bool null_key = false;
    for (const auto& [outer_e, inner_e] : plan.equi_keys) {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*outer_e, plan.left->layout, outer));
      if (v.is_null()) null_key = true;
      key.push_back(std::move(v));
    }
    ++ctx->stats.rows_examined;
    if (null_key) continue;
    uint64_t h = HashRow(key);
    const auto& part = parts[Mix64(h) % kJoinPartitions];
    auto it = part.find(h);
    if (it == part.end()) continue;
    for (size_t i : it->second) {
      const Row& ikey = inner_keys[i];
      bool match = true;
      for (size_t k = 0; k < key.size(); ++k) {
        if (key[k].Compare(ikey[k]) != 0) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Row combined = ConcatRows(outer, inner_rows[i]);
      IMON_ASSIGN_OR_RETURN(bool keep,
                            JoinConditionsHold(plan, combined, false, ctx));
      if (keep) out.push_back(std::move(combined));
    }
  }
  return out;
}

Result<std::vector<Row>> ExecuteNLJoin(const PlanNode& plan, ExecContext* ctx,
                                       size_t* node_counter) {
  IMON_ASSIGN_OR_RETURN(std::vector<Row> outer_rows,
                        ExecuteNode(*plan.left, ctx, node_counter));
  IMON_ASSIGN_OR_RETURN(std::vector<Row> inner_rows,
                        ExecuteNode(*plan.right, ctx, node_counter));
  std::vector<Row> out;
  for (const Row& outer : outer_rows) {
    for (const Row& inner : inner_rows) {
      Row combined = ConcatRows(outer, inner);
      IMON_ASSIGN_OR_RETURN(bool keep,
                            JoinConditionsHold(plan, combined, true, ctx));
      if (keep) out.push_back(std::move(combined));
    }
  }
  return out;
}

Result<std::vector<Row>> ExecuteIndexNLJoin(const PlanNode& plan,
                                            ExecContext* ctx,
                                            size_t* node_counter) {
  IMON_ASSIGN_OR_RETURN(std::vector<Row> outer_rows,
                        ExecuteNode(*plan.left, ctx, node_counter));
  const PlanNode& inner_scan = *plan.right;
  // The inner scan is probed directly rather than executed as a node,
  // but it still occupies its pre-order slot in the compiled programs.
  size_t inner_idx = (*node_counter)++;
  const std::vector<ExprProgram>* inner_programs =
      NodePrograms(ctx, inner_idx);
  EvalScratch scratch;
  const optimizer::BoundTable& bt = (*ctx->tables)[inner_scan.table_idx];
  // One access path for the whole join; each probe refills only its
  // equality values.
  optimizer::AccessPath probe = plan.inner_access;

  std::vector<Row> out;
  for (const Row& outer : outer_rows) {
    // Probe key values from the outer row.
    probe.eq_values.clear();
    bool null_probe = false;
    for (const Expr* e : plan.probe_exprs) {
      IMON_ASSIGN_OR_RETURN(Value v, Eval(*e, plan.left->layout, outer));
      if (v.is_null()) null_probe = true;
      probe.eq_values.push_back(std::move(v));
    }
    if (null_probe) continue;
    if (probe.kind == AccessPathKind::kSecondaryIndex &&
        probe.index.is_virtual) {
      return Status::Internal("attempted to probe virtual index '" +
                              probe.index.name + "'");
    }

    Status inner_status = Status::OK();
    auto handle_inner = [&](const Row& inner_row) -> bool {
      auto pass = inner_programs != nullptr
                      ? PassesFiltersCompiled(*inner_programs, inner_row,
                                              &scratch, ctx)
                      : PassesFilters(inner_scan.filters, inner_scan.layout,
                                      inner_row, ctx);
      if (!pass.ok()) {
        inner_status = pass.status();
        return false;
      }
      if (!*pass) return true;
      Row combined = ConcatRows(outer, inner_row);
      auto keep = JoinConditionsHold(plan, combined, true, ctx);
      if (!keep.ok()) {
        inner_status = keep.status();
        return false;
      }
      if (*keep) out.push_back(std::move(combined));
      return true;
    };

    IMON_RETURN_IF_ERROR(ctx->storage->ScanPath(
        bt.info, probe,
        [&](const Locator&, const Row& row) { return handle_inner(row); }));
    IMON_RETURN_IF_ERROR(inner_status);
  }
  return out;
}

/// Dispatch one plan node, consuming its pre-order index (shared with
/// CompiledSelect::Compile's enumeration).
Result<std::vector<Row>> ExecuteNode(const PlanNode& plan, ExecContext* ctx,
                                     size_t* node_counter) {
  size_t idx = (*node_counter)++;
  switch (plan.kind) {
    case PlanNodeKind::kScan:
      return ExecuteScan(plan, ctx, idx);
    case PlanNodeKind::kHashJoin:
      return ExecuteHashJoin(plan, ctx, node_counter);
    case PlanNodeKind::kNestedLoopJoin:
      return ExecuteNLJoin(plan, ctx, node_counter);
    case PlanNodeKind::kIndexNLJoin:
      return ExecuteIndexNLJoin(plan, ctx, node_counter);
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<std::vector<Row>> ExecuteTree(const PlanNode& plan, ExecContext* ctx) {
  size_t node_counter = 0;
  return ExecuteNode(plan, ctx, &node_counter);
}

namespace {

/// Streaming aggregate state for one (func, arg) pair.
struct AggState {
  int64_t count = 0;
  bool is_int = true;
  int64_t sum_i = 0;
  double sum_d = 0;
  Value min;
  Value max;
  bool seen = false;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.type() == TypeId::kInt) {
      sum_i += v.AsInt();
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
    sum_i += o.sum_i;
    sum_d += o.sum_d;
    if (o.seen) {
      if (!seen || o.min.Compare(min) < 0) min = o.min;
      if (!seen || o.max.Compare(max) > 0) max = o.max;
      seen = true;
    }
  }

  Value Finish(const std::string& func) const {
    if (func == "count") return Value::Int(count);
    if (!seen) return Value::Null();
    if (func == "sum") {
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
    uint64_t h = HashRow(keys);
    auto it = index.find(h);
    if (it != index.end()) {
      for (size_t gi : it->second) {
        bool same = true;
        for (size_t k = 0; k < keys.size(); ++k) {
          if (keys[k].Compare(groups[gi].keys[k]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          *created = false;
          return &groups[gi];
        }
      }
    }
    groups.emplace_back();
    Group& g = groups.back();
    g.representative = rep;
    g.keys = keys;
    g.states.resize(n_aggs);
    index[h].push_back(groups.size() - 1);
    *created = true;
    return &g;
  }
};

/// Evaluates group keys and aggregate arguments for one input row and
/// folds them into a GroupTable. Shared by the aggregation loop over
/// materialized join output and the per-morsel partial aggregation tasks.
struct GroupAccumulator {
  const BoundSelect* bound = nullptr;
  const PlanNode* plan = nullptr;
  const CompiledSelect* cp = nullptr;
  EvalScratch* scratch = nullptr;
  GroupTable table;
  std::vector<Value> keys;  // reused per row

  Status AddRow(const Row& row) {
    const sql::SelectStmt& stmt = *bound->stmt;
    keys.clear();
    keys.reserve(stmt.group_by.size());
    for (size_t gi = 0; gi < stmt.group_by.size(); ++gi) {
      Value v;
      if (cp != nullptr) {
        IMON_RETURN_IF_ERROR(
            cp->group_keys[gi].Run(row, nullptr, scratch, &v));
      } else {
        IMON_ASSIGN_OR_RETURN(v, Eval(*stmt.group_by[gi], plan->layout, row));
      }
      keys.push_back(std::move(v));
    }
    bool created = false;
    Group* group =
        table.FindOrCreate(keys, bound->aggregates.size(), row, &created);
    for (size_t a = 0; a < bound->aggregates.size(); ++a) {
      const auto& agg = bound->aggregates[a];
      if (agg.arg == nullptr) {
        ++group->states[a].count;  // COUNT(*)
        group->states[a].seen = true;
      } else {
        Value v;
        if (cp != nullptr) {
          IMON_RETURN_IF_ERROR(cp->agg_args[a]->Run(row, nullptr, scratch, &v));
        } else {
          IMON_ASSIGN_OR_RETURN(v, Eval(*agg.arg, plan->layout, row));
        }
        group->states[a].Add(v);
      }
    }
    return Status::OK();
  }
};

/// Fold `from` into `into`, preserving `from`'s insertion order for
/// newly discovered groups.
void MergeGroupTables(GroupTable* into, GroupTable&& from, size_t n_aggs) {
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

/// Root-scan aggregate pushdown: each morsel accumulates a partial
/// GroupTable; gather merges them in morsel order.
Result<GroupTable> ParallelAggregateScan(const BoundSelect& bound,
                                         const PlanNode& plan,
                                         ExecContext* ctx,
                                         const MorselPlan& mp) {
  const std::vector<ExprProgram>* programs = NodePrograms(ctx, 0);
  const size_t capacity = std::max<size_t>(1, ctx->batch_size);
  std::vector<LaneScratch> lanes(LaneCount(ctx));
  std::vector<GroupTable> tables(mp.count);
  std::vector<int64_t> examined(mp.count, 0);
  std::vector<Status> errors(mp.count, Status::OK());
  std::atomic<bool> failed{false};
  RunTasks(ctx, mp.count, [&](size_t m, size_t lane) {
    if (failed.load(std::memory_order_relaxed)) return;
    LaneScratch& ls = lanes[lane];
    GroupAccumulator acc;
    acc.bound = &bound;
    acc.plan = &plan;
    acc.cp = ctx->compiled;
    acc.scratch = &ls.eval;
    Status sink_status = Status::OK();
    auto res = ScanMorselFiltered(
        mp, m, plan, programs, capacity, ctx, &ls, [&](const Row& r) {
          sink_status = acc.AddRow(r);
          return sink_status.ok();
        });
    if (!res.ok()) {
      errors[m] = res.status();
    } else if (!sink_status.ok()) {
      errors[m] = sink_status;
    } else {
      examined[m] = *res;
      tables[m] = std::move(acc.table);
      return;
    }
    failed.store(true, std::memory_order_relaxed);
  });
  for (size_t m = 0; m < mp.count; ++m) {
    ctx->stats.rows_examined += examined[m];
  }
  for (size_t m = 0; m < mp.count; ++m) IMON_RETURN_IF_ERROR(errors[m]);
  GroupTable merged;
  for (size_t m = 0; m < mp.count; ++m) {
    MergeGroupTables(&merged, std::move(tables[m]), bound.aggregates.size());
  }
  return merged;
}

}  // namespace

Result<ResultSet> ExecuteSelect(const BoundSelect& bound,
                                const PlanNode& plan, ExecContext* ctx) {
  const sql::SelectStmt& stmt = *bound.stmt;
  const CompiledSelect* cp = ctx->compiled;
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

  // Root-scan morsel pushdown. When the whole plan is one real-table
  // scan, aggregates accumulate per morsel and merge at the gather
  // point, and ORDER BY/LIMIT prune per morsel, instead of
  // materializing the full scan output first.
  const bool root_morsels = plan.kind == PlanNodeKind::kScan &&
                            !(*ctx->tables)[plan.table_idx].is_virtual;

  if (bound.has_aggregates) {
    if (root_morsels) {
      IMON_ASSIGN_OR_RETURN(MorselPlan mp, BuildMorselPlan(plan, ctx));
      IMON_ASSIGN_OR_RETURN(GroupTable merged,
                            ParallelAggregateScan(bound, plan, ctx, mp));
      groups = std::move(merged.groups);
    } else {
      IMON_ASSIGN_OR_RETURN(rows, ExecuteTree(plan, ctx));
      GroupAccumulator acc;
      acc.bound = &bound;
      acc.plan = &plan;
      acc.cp = cp;
      acc.scratch = &scratch;
      for (const Row& row : rows) IMON_RETURN_IF_ERROR(acc.AddRow(row));
      groups = std::move(acc.table.groups);
    }
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
        l.aggs[a] = g.states[a].Finish(bound.aggregates[a].func);
      }
      logical.push_back(std::move(l));
    }
    // HAVING.
    if (stmt.having) {
      std::vector<Logical> kept;
      for (Logical& l : logical) {
        bool ok = false;
        if (cp != nullptr) {
          IMON_RETURN_IF_ERROR(
              cp->having->RunPredicate(*l.row, &l.aggs, &scratch, &ok));
        } else {
          IMON_ASSIGN_OR_RETURN(
              ok, EvalPredicate(*stmt.having, plan.layout, *l.row, &l.aggs));
        }
        if (ok) kept.push_back(std::move(l));
      }
      logical = std::move(kept);
    }
  } else {
    // Hash point probes stay out: they examine their whole bucket chain,
    // collisions included, so rows_examined does not depend on LIMIT.
    if (root_morsels && stmt.limit.has_value() && !stmt.distinct &&
        plan.access.kind != AccessPathKind::kPrimaryHash) {
      // LIMIT pushdown into the morsels.
      IMON_ASSIGN_OR_RETURN(MorselPlan mp, BuildMorselPlan(plan, ctx));
      size_t k = static_cast<size_t>(*stmt.limit);
      if (stmt.order_by.empty()) {
        IMON_ASSIGN_OR_RETURN(rows,
                              ParallelScanRows(plan, ctx, 0, mp, k, nullptr));
      } else {
        TopKSpec spec{&stmt, k};
        IMON_ASSIGN_OR_RETURN(
            rows, ParallelScanRows(plan, ctx, 0, mp,
                                   std::numeric_limits<size_t>::max(), &spec));
      }
    } else {
      IMON_ASSIGN_OR_RETURN(rows, ExecuteTree(plan, ctx));
    }
    logical.reserve(rows.size());
    for (const Row& row : rows) logical.push_back(Logical{&row, {}});
  }

  // ORDER BY over logical rows.
  if (!stmt.order_by.empty()) {
    // Precompute sort keys.
    std::vector<std::pair<std::vector<Value>, size_t>> keyed(logical.size());
    for (size_t i = 0; i < logical.size(); ++i) {
      keyed[i].second = i;
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        Value v;
        if (cp != nullptr) {
          IMON_RETURN_IF_ERROR(cp->order_keys[k].Run(
              *logical[i].row, &logical[i].aggs, &scratch, &v));
        } else {
          IMON_ASSIGN_OR_RETURN(
              v, Eval(*stmt.order_by[k].expr, plan.layout, *logical[i].row,
                      &logical[i].aggs));
        }
        keyed[i].first.push_back(std::move(v));
      }
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < a.first.size(); ++k) {
                         int cmp = a.first[k].Compare(b.first[k]);
                         if (cmp != 0) {
                           return stmt.order_by[k].ascending ? cmp < 0
                                                             : cmp > 0;
                         }
                       }
                       return false;
                     });
    std::vector<Logical> sorted;
    sorted.reserve(logical.size());
    for (auto& [keys, idx] : keyed) sorted.push_back(std::move(logical[idx]));
    logical = std::move(sorted);
  }

  // Projection (+ DISTINCT + LIMIT).
  std::set<std::string> seen_distinct;
  for (const Logical& l : logical) {
    if (stmt.limit.has_value() &&
        static_cast<int64_t>(result.rows.size()) >= *stmt.limit) {
      break;
    }
    Row out_row;
    out_row.reserve(bound.items.size());
    for (size_t i = 0; i < bound.items.size(); ++i) {
      Value v;
      if (cp != nullptr) {
        IMON_RETURN_IF_ERROR(cp->items[i].Run(*l.row, &l.aggs, &scratch, &v));
      } else {
        IMON_ASSIGN_OR_RETURN(
            v, Eval(*bound.items[i].expr, plan.layout, *l.row, &l.aggs));
      }
      out_row.push_back(std::move(v));
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
