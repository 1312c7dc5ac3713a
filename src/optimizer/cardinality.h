// Cardinality estimation from catalog statistics.
//
// With histograms (built by ANALYZE) estimates are histogram-driven; with
// no statistics the estimator falls back to fixed System-R-style default
// selectivities. That gap *is* the paper's tuning signal: "actual and
// estimated costs of a statement differ significantly → statistics may be
// missing or outdated".

#ifndef IMON_OPTIMIZER_CARDINALITY_H_
#define IMON_OPTIMIZER_CARDINALITY_H_

#include <vector>

#include "catalog/catalog.h"
#include "optimizer/binder.h"
#include "sql/ast.h"

namespace imon::optimizer {

/// Default selectivities when no histogram exists (System R tradition).
inline constexpr double kDefaultEqSelectivity = 0.1;
inline constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;
inline constexpr double kDefaultLikeSelectivity = 0.25;
inline constexpr double kDefaultOtherSelectivity = 0.5;
/// Assumed row count for virtual tables (no statistics collected).
inline constexpr double kVirtualTableRows = 1000.0;

/// A conjunct shaped `col op literal`, oriented so that the column is on
/// the left: `5 > a` matches as `a < 5`.
struct ColOpLiteral {
  const sql::Expr* col = nullptr;
  sql::BinaryOp op = sql::BinaryOp::kEq;
  const Value* literal = nullptr;
};

/// Matches a comparison (=, <>, <, <=, >, >=) between a column and a
/// literal, in either orientation.
bool MatchColOpLiteral(const sql::Expr& e, ColOpLiteral* out);

class CardinalityEstimator {
 public:
  CardinalityEstimator(const catalog::Catalog* cat,
                       const std::vector<BoundTable>* tables)
      : catalog_(cat), tables_(tables) {}

  /// Base row count of FROM entry `table_idx`.
  double TableRows(int table_idx) const;

  /// Selectivity (0..1] of one conjunct; conjuncts spanning several
  /// tables get join selectivities.
  double ConjunctSelectivity(const sql::Expr& conjunct) const;

  /// Combined selectivity of all single-table conjuncts on `table_idx`.
  double FilterSelectivity(int table_idx,
                           const std::vector<const sql::Expr*>& conjuncts)
      const;

  /// Selectivity of an equi-join predicate left_col = right_col.
  double JoinSelectivity(const sql::Expr& left_col,
                         const sql::Expr& right_col) const;

  /// Distinct-value estimate for a bound column (falls back to a fraction
  /// of the row count without statistics).
  double DistinctValues(int table_idx, int ordinal) const;

 private:
  /// Histogram for a bound column, or nullptr.
  const catalog::Histogram* HistogramFor(int table_idx, int ordinal) const;

  const catalog::Catalog* catalog_;
  const std::vector<BoundTable>* tables_;
  /// Cache of fetched stats so repeated lookups stay cheap.
  mutable std::map<std::pair<int, int>, catalog::ColumnStats> stats_cache_;
};

}  // namespace imon::optimizer

#endif  // IMON_OPTIMIZER_CARDINALITY_H_
