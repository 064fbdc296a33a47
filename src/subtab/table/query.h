#ifndef SUBTAB_TABLE_QUERY_H_
#define SUBTAB_TABLE_QUERY_H_

#include <string>
#include <vector>

#include "subtab/table/table.h"
#include "subtab/util/status.h"

/// \file query.h
/// The exploratory query engine. The paper's EDA sessions issue
/// selection-projection (SP) queries plus sort and group-by (Sec. 1, 6.2.2);
/// sub-tables are computed over SP query results (Algorithm 2 line 6).

namespace subtab {

/// Comparison operators for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe, kIsNull, kNotNull };

const char* CmpOpName(CmpOp op);

/// One conjunct of a selection: `column op literal`. The literal is numeric
/// for numeric columns and a string for categorical ones; kIsNull/kNotNull
/// ignore the literal.
struct Predicate {
  std::string column;
  CmpOp op = CmpOp::kEq;
  double num_literal = 0.0;
  std::string str_literal;
  bool literal_is_numeric = true;

  static Predicate Num(std::string column, CmpOp op, double value);
  static Predicate Str(std::string column, CmpOp op, std::string value);
  static Predicate IsNull(std::string column);
  static Predicate NotNull(std::string column);

  /// "COL <= 3.5" for logging / session display.
  std::string ToString() const;
};

/// A selection-projection query with optional ordering and limit.
struct SpQuery {
  std::vector<Predicate> filters;       ///< Conjunction; empty = all rows.
  std::vector<std::string> projection;  ///< Empty = all columns.
  std::string order_by;                 ///< Empty = input order.
  bool descending = false;
  size_t limit = 0;                     ///< 0 = no limit.

  std::string ToString() const;
};

/// Query result: the materialized table plus the provenance of each result
/// row/column in the source table (needed so the SubTab selector can reuse
/// pre-computed cell vectors, Algorithm 2 line 6).
struct QueryResult {
  Table table;
  std::vector<size_t> row_ids;  ///< Result row -> source row index.
  std::vector<size_t> col_ids;  ///< Result col -> source col index.
};

/// Execution knobs of one scan. Results are bit-identical for every setting.
struct QueryExecOptions {
  /// Consult seal-time chunk statistics (zone maps, chunk.h ChunkStats) to
  /// skip whole chunks a conjunct provably cannot match, and resolve
  /// categorical comparisons against the dictionary once so rows are judged
  /// by integer code. Results are bit-identical either way — the knob exists
  /// for benchmarking and bisection, not semantics.
  bool zone_map_pruning = true;
};

/// What one scan actually did — the per-request attribution the serving
/// pipeline records into trace span attributes ("rows scanned vs
/// restricted", docs/OBSERVABILITY.md) and aggregates into scan.* metrics.
/// Purely observational: nothing here feeds back into the scan.
struct ScanStats {
  /// Rows the filter loop touched: the table's row count minus zone-pruned
  /// rows for a full scan, the parent scope's size for a restricted
  /// (containment) scan.
  size_t rows_visited = 0;
  /// Rows surviving the filters, before order/limit trimming.
  size_t rows_matched = 0;
  /// Sealed chunks of the filtered columns the scan walked (0 when there
  /// are no filters, or on the restricted path's point lookups).
  size_t chunks_scanned = 0;
  /// Sealed chunks skipped whole because the merged zone-map refutation
  /// covers their row range (QueryExecOptions::zone_map_pruning);
  /// chunks_scanned + chunks_pruned equals the walk a pruning-off scan does.
  size_t chunks_pruned = 0;
  /// Conjuncts evaluated per visited row.
  size_t predicates_evaluated = 0;
  /// Conjuncts on dictionary columns resolved to code-level evaluation: the
  /// comparison was answered once per dictionary entry at bind time, and the
  /// row loop compared integer codes instead of materialized strings.
  size_t code_eval_predicates = 0;
  /// True for the containment tier's restricted path (RestrictQueryScope).
  bool restricted = false;
};

/// Scan-only result: the provenance ids of a query, without materializing
/// the result table. This is the resolve-scope stage of the serving
/// pipeline — selection needs only the ids (core/subtab.h ResolveScope), and
/// materializing a many-thousand-row intermediate per request is pure waste.
struct QueryScope {
  std::vector<size_t> row_ids;  ///< Matching source rows, result order.
  std::vector<size_t> col_ids;  ///< Projected source columns, result order.
  ScanStats stats;              ///< What the scan cost (attribution only).
};

/// Executes an SP query's scan (filters + order + limit + projection) and
/// returns provenance ids only. RunQuery == ResolveQueryScope + SubTable.
Result<QueryScope> ResolveQueryScope(const Table& table, const SpQuery& query,
                                     const QueryExecOptions& exec = {});

/// True iff the two predicates are the same conjunct for caching/containment
/// purposes: same column, op, literal type, and literal — numeric literals
/// compared by bit pattern (so NaN == NaN and -0.0 != 0.0), matching the
/// lossless encoding the selection cache keys on.
bool SamePredicate(const Predicate& a, const Predicate& b);

/// Canonical conjunct list for cache keying and containment reasoning:
/// redundant numeric bounds on the same column are merged to the tightest one
/// (e.g. "a >= 1 AND a >= 2" keeps only "a >= 2"; "a > 2 AND a >= 2" keeps
/// "a > 2"), so syntactically different but row-set-identical conjunctions
/// normalize to one form. Only numeric kLt/kLe/kGt/kGe conjuncts merge —
/// equality, inequality, null, and string predicates pass through verbatim,
/// as does any column carrying a NaN bound (NaN bounds match nothing, and
/// ordering them is meaningless). Relative order of the survivors is
/// preserved; the result selects exactly the same rows as the input.
std::vector<Predicate> CanonicalConjuncts(const std::vector<Predicate>& filters);

/// Provable superset test for containment-based reuse: true only when query
/// `a`'s result rows are guaranteed to be a superset of query `b`'s on EVERY
/// table, shown by per-column predicate subsumption — each conjunct of `a` is
/// implied by the conjunction of `b`'s conjuncts (interval containment for
/// numeric bounds, set reasoning for eq/ne, null-state reasoning for
/// is-null / not-null; any value comparison implies not-null since nulls
/// fail all value comparisons). Purely syntactic — no table access — and
/// conservative: a false return means "could not prove", not "not contained".
/// Requires a.limit == 0 (a truncated result proves nothing); projections and
/// ordering are ignored, as they never change which rows qualify.
bool QueryContains(const SpQuery& a, const SpQuery& b);

/// The conjuncts of `child` not literally present (SamePredicate) in
/// `parent` — the only ones that still need evaluation when `child` is
/// re-scanned over `parent`'s already-resolved rows.
std::vector<Predicate> ExtraConjuncts(const SpQuery& parent,
                                      const SpQuery& child);

/// The restricted-scan path of containment reuse: resolves `query`'s scope by
/// evaluating only `extra` conjuncts over `parent_rows` (a proven superset
/// scope, see QueryContains) instead of scanning the whole table, then applies
/// `query`'s order/limit/projection exactly like ResolveQueryScope. The result
/// is bit-identical to ResolveQueryScope(table, query) provided
///   * `parent_rows` is in ascending source order (a scope resolved from a
///     query with no order_by and no limit), and
///   * every conjunct of `query` outside `extra` holds on all of
///     `parent_rows` (ExtraConjuncts of a containing parent guarantees this).
/// Cost is O(|parent_rows| * |extra|) point lookups — the drill-down win:
/// each refinement scans the previous result, not the table.
Result<QueryScope> RestrictQueryScope(const Table& table,
                                      const std::vector<size_t>& parent_rows,
                                      const SpQuery& query,
                                      const std::vector<Predicate>& extra);

/// Executes an SP query. Errors on unknown columns or type-incompatible
/// predicates. Null cells never satisfy value comparisons (SQL semantics).
Result<QueryResult> RunQuery(const Table& table, const SpQuery& query,
                             const QueryExecOptions& exec = {});

/// Group-by aggregates, rounding out the dataframe substrate for EDA.
enum class AggFn { kCount, kSum, kMean, kMin, kMax };

const char* AggFnName(AggFn fn);

struct GroupByQuery {
  std::string key_column;
  std::string agg_column;  ///< Ignored for kCount.
  AggFn fn = AggFn::kCount;
};

/// Returns a table with columns [key, agg] where key iterates the distinct
/// non-null values of the key column (numeric keys kept numeric).
Result<Table> RunGroupBy(const Table& table, const GroupByQuery& query);

}  // namespace subtab

#endif  // SUBTAB_TABLE_QUERY_H_
