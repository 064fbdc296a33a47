#ifndef SUBTAB_CORE_SUBTAB_H_
#define SUBTAB_CORE_SUBTAB_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "subtab/core/config.h"
#include "subtab/core/preprocess.h"
#include "subtab/core/select.h"
#include "subtab/table/query.h"

/// \file subtab.h
/// The SubTab facade — the library's main entry point. Usage:
///
///   SubTabConfig config;                       // paper defaults
///   SUBTAB_ASSIGN_OR_RETURN(SubTab st, SubTab::Fit(table, config));
///   SubTabView view = st.Select();             // 10x10 view of the table
///   SubTabView qview = *st.SelectForQuery(q);  // view of a query result
///
/// Fit runs the one-off pre-processing phase (binning + embedding); Select
/// and SelectForQuery run only the cheap centroid-selection phase, so query
/// displays are interactive (Sec. 5.1).

namespace subtab {

/// A selected sub-table, materialized for display.
struct SubTabView {
  Table table;                  ///< The k x l sub-table.
  std::vector<size_t> row_ids;  ///< Source row ids, ascending.
  std::vector<size_t> col_ids;  ///< Source column ids, ascending.
  double selection_seconds = 0.0;
  bool sampled = false;    ///< Selection ran over a sampled scope.
  size_t sample_rows = 0;  ///< Distinct scope rows sampled (0 = exact).
};

/// Containment hint for ResolveScope: the already-resolved rows of a PROVEN
/// superset query (QueryContains(parent, query) — see table/query.h), plus
/// the conjuncts of `query` not literally present in the parent
/// (ExtraConjuncts). With a hint the scan stage shrinks from O(table rows)
/// to O(parent rows): only the parent's rows are revisited, and only the
/// extra conjuncts are evaluated. `parent_rows` must be in ascending source
/// order (a scope resolved from a query with no order_by and no limit) for
/// the result to be bit-identical to the unhinted scan. The serving engine's
/// containment index supplies hints; results are never affected, only cost.
struct ScopeHint {
  std::shared_ptr<const std::vector<size_t>> parent_rows;
  std::vector<Predicate> extra_conjuncts;
};

/// A fitted SubTab instance bound to one table.
///
/// Thread-safety: a fitted instance is immutable; Select / SelectForQuery /
/// SelectScoped are const, keep all per-call state on the stack, and may be
/// invoked concurrently from any number of threads on one shared instance.
/// The serving engine (service/engine.h) relies on this contract.
class SubTab {
 public:
  /// Validates the config, resolves target columns, and runs pre-processing.
  /// The table is wrapped in shared ownership; with the chunked column store
  /// the wrap shares payload chunks rather than duplicating rows.
  static Result<SubTab> Fit(Table table, SubTabConfig config);

  /// Like Fit, but *sharing* the caller's table outright — no copy at all.
  /// The streaming/serving layers pass each snapshot's shared pointer here,
  /// so the live version's data is resident once, not once in the stream and
  /// once in the model.
  static Result<SubTab> Fit(std::shared_ptr<const Table> table,
                            SubTabConfig config);

  /// Like Fit, but with a persistent model cache (see core/model_io.h): if
  /// `model_path` holds a model matching the table's schema it is loaded
  /// (skipping binning + training); otherwise pre-processing runs and the
  /// artifact is saved there for the next session.
  static Result<SubTab> FitCached(Table table, SubTabConfig config,
                                  const std::string& model_path);

  /// Wraps an already-computed pre-processing artifact. Used by the serving
  /// layer's model registry, which restores artifacts via core/model_io and
  /// rebinds them to the caller's table without re-training, and by the
  /// streaming fold-in path (which shares the snapshot's table).
  static Result<SubTab> FromPreprocessed(std::shared_ptr<const Table> table,
                                         SubTabConfig config,
                                         PreprocessedTable pre);
  static Result<SubTab> FromPreprocessed(Table table, SubTabConfig config,
                                         PreprocessedTable pre);

  const Table& table() const { return *table_; }
  /// The shared table — pass this (not a copy of table()) anywhere the
  /// table must outlive or co-exist with this model.
  const std::shared_ptr<const Table>& shared_table() const { return table_; }
  const SubTabConfig& config() const { return config_; }
  const PreprocessedTable& preprocessed() const { return pre_; }
  /// Resolved indices of the configured target columns.
  const std::vector<size_t>& target_column_ids() const { return target_ids_; }

  /// Sub-table of the full table, with optional dimension overrides.
  SubTabView Select(std::optional<size_t> k = std::nullopt,
                    std::optional<size_t> l = std::nullopt) const;

  /// Sub-table of an SP query's result (re-runs only the selection phase).
  /// `seed` as in SelectScoped. Exactly ResolveScope + SelectScoped; the
  /// serving pipeline runs the two stages back to back in one worker task,
  /// and both paths return bit-identical views.
  Result<SubTabView> SelectForQuery(const SpQuery& query,
                                    std::optional<size_t> k = std::nullopt,
                                    std::optional<size_t> l = std::nullopt,
                                    std::optional<uint64_t> seed = std::nullopt) const;

  /// Stage 1 of SelectForQuery: run the query's scan (zone-map pruned, see
  /// QueryExecOptions) and build the selection scope — no clustering, no
  /// materialization of the intermediate result. Errors on invalid queries
  /// and on empty results (an empty scope would mean "whole table" to
  /// SelectScoped). Stage 2 is SelectScoped on the returned scope.
  /// A non-null `hint` switches the scan to the restricted path
  /// (RestrictQueryScope over the hint's parent rows); the resolved scope is
  /// bit-identical to the unhinted scan under the hint's contract. A
  /// non-null `scan_stats` receives the scan's cost attribution (rows
  /// visited, chunks walked — table/query.h ScanStats) for the serving
  /// pipeline's trace spans; it never affects the result.
  Result<SelectionScope> ResolveScope(const SpQuery& query,
                                      const QueryExecOptions& exec = {},
                                      const ScopeHint* hint = nullptr,
                                      ScanStats* scan_stats = nullptr) const;

  /// Selection over an explicit scope (used by baselines, benches, and the
  /// serving engine). `seed` overrides the config's master seed for this one
  /// selection (nullopt = config seed), letting callers re-randomize a
  /// display without refitting. `sampling` enables the sub-linear sampled
  /// path of core/select.h (default: always exact).
  SubTabView SelectScoped(const SelectionScope& scope, size_t k, size_t l,
                          std::optional<uint64_t> seed = std::nullopt,
                          const SelectionSamplingOptions& sampling = {}) const;

 private:
  SubTab(std::shared_ptr<const Table> table, SubTabConfig config,
         std::vector<size_t> target_ids, PreprocessedTable pre);

  std::shared_ptr<const Table> table_;
  SubTabConfig config_;
  std::vector<size_t> target_ids_;
  PreprocessedTable pre_;
};

}  // namespace subtab

#endif  // SUBTAB_CORE_SUBTAB_H_
