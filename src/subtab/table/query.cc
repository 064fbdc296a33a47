#include "subtab/table/query.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "subtab/util/string_util.h"

namespace subtab {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kIsNull:
      return "is null";
    case CmpOp::kNotNull:
      return "is not null";
  }
  return "?";
}

Predicate Predicate::Num(std::string column, CmpOp op, double value) {
  Predicate p;
  p.column = std::move(column);
  p.op = op;
  p.num_literal = value;
  p.literal_is_numeric = true;
  return p;
}

Predicate Predicate::Str(std::string column, CmpOp op, std::string value) {
  Predicate p;
  p.column = std::move(column);
  p.op = op;
  p.str_literal = std::move(value);
  p.literal_is_numeric = false;
  return p;
}

Predicate Predicate::IsNull(std::string column) {
  Predicate p;
  p.column = std::move(column);
  p.op = CmpOp::kIsNull;
  return p;
}

Predicate Predicate::NotNull(std::string column) {
  Predicate p;
  p.column = std::move(column);
  p.op = CmpOp::kNotNull;
  return p;
}

std::string Predicate::ToString() const {
  if (op == CmpOp::kIsNull || op == CmpOp::kNotNull) {
    return column + " " + CmpOpName(op);
  }
  if (literal_is_numeric) {
    return StrFormat("%s %s %s", column.c_str(), CmpOpName(op),
                     FormatCell(num_literal).c_str());
  }
  return column + " " + CmpOpName(op) + " '" + str_literal + "'";
}

std::string SpQuery::ToString() const {
  std::string out = "SELECT ";
  out += projection.empty() ? "*" : StrJoin(projection, ", ");
  if (!filters.empty()) {
    std::vector<std::string> parts;
    parts.reserve(filters.size());
    for (const auto& f : filters) parts.push_back(f.ToString());
    out += " WHERE " + StrJoin(parts, " AND ");
  }
  if (!order_by.empty()) {
    out += " ORDER BY " + order_by + (descending ? " DESC" : " ASC");
  }
  if (limit > 0) out += StrFormat(" LIMIT %zu", limit);
  return out;
}

namespace {

/// A predicate with its column resolved and type-checked — validation
/// happens once, before the row loop, so the scan cannot fail mid-flight.
/// For value comparisons on dictionary columns, binding also resolves the
/// comparison against the dictionary ONCE (code_verdict), so the row loop
/// compares integer codes instead of materializing strings.
struct BoundPredicate {
  const Predicate* pred = nullptr;
  const Column* col = nullptr;
  /// True for value comparisons on categorical columns: code_verdict holds
  /// the per-dictionary-code answer, indexed by code.
  bool use_codes = false;
  /// True when no dictionary code satisfies the comparison — no row of the
  /// column can match (e.g. equality against a value the table never saw),
  /// so every sealed chunk is refutable without consulting its zone.
  bool always_false = false;
  std::vector<uint8_t> code_verdict;
};

template <typename T>
bool Compare(CmpOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    default:
      return false;
  }
}

Result<BoundPredicate> BindPredicate(const Table& table, const Predicate& pred) {
  SUBTAB_ASSIGN_OR_RETURN(size_t col_idx, table.ColumnIndex(pred.column));
  const Column& col = table.column(col_idx);
  if (pred.op != CmpOp::kIsNull && pred.op != CmpOp::kNotNull &&
      col.is_numeric() != pred.literal_is_numeric) {
    return Status::InvalidArgument(
        StrFormat("predicate on '%s' mixes %s column with %s literal",
                  pred.column.c_str(), ColumnTypeName(col.type()),
                  pred.literal_is_numeric ? "numeric" : "string"));
  }
  BoundPredicate bound;
  bound.pred = &pred;
  bound.col = &col;
  if (pred.op != CmpOp::kIsNull && pred.op != CmpOp::kNotNull &&
      !col.is_numeric()) {
    const std::vector<std::string>& words = col.dictionary();
    bound.use_codes = true;
    bound.code_verdict.resize(words.size());
    bool any = false;
    for (size_t c = 0; c < words.size(); ++c) {
      const bool v = Compare(pred.op, std::string_view(words[c]),
                             std::string_view(pred.str_literal));
      bound.code_verdict[c] = v ? 1 : 0;
      any = any || v;
    }
    bound.always_false = !any;
  }
  return bound;
}

/// Verdict of one bound predicate on one chunk cell — THE single definition
/// of per-cell predicate semantics. Both scan paths (the chunk-sequential
/// full scan and the restricted point scan) go through here, so they cannot
/// drift: the containment tier's bit-identity guarantee depends on it.
/// Nulls fail every value comparison (SQL semantics). Dictionary-column
/// value comparisons read the bind-time code_verdict — bit-identical to
/// comparing the materialized string, because the verdict table IS that
/// comparison evaluated per dictionary entry.
bool CellVerdict(const BoundPredicate& bound, const Chunk& chunk,
                 size_t local) {
  const Predicate& pred = *bound.pred;
  if (pred.op == CmpOp::kIsNull || pred.op == CmpOp::kNotNull) {
    return chunk.is_null(local) == (pred.op == CmpOp::kIsNull);
  }
  if (chunk.is_null(local)) return false;
  if (bound.col->is_numeric()) {
    return Compare(pred.op, chunk.num_value(local), pred.num_literal);
  }
  return bound.code_verdict[static_cast<size_t>(chunk.cat_code(local))] != 0;
}

/// Evaluates one bound predicate over rows [begin, end), ANDing into `keep`
/// when `first` is false. Chunk-sequential scans (Column::VisitRows)
/// amortize the row->chunk lookup; each row's verdict depends only on that
/// row's cell, so any row partition evaluates to identical bytes.
void EvalPredicateRange(const BoundPredicate& bound, size_t begin, size_t end,
                        bool first, char* keep) {
  bound.col->VisitRows(
      begin, end, [&](size_t r, const Chunk& chunk, size_t local) {
        const char m = CellVerdict(bound, chunk, local) ? 1 : 0;
        keep[r] = first ? m : (keep[r] & m);
      });
}

/// True iff the chunk's seal-time zone (ChunkStats) PROVES no row in it can
/// satisfy `bound`. Conservative by construction: false means "cannot
/// prove", never "does not match" — bit-identity of pruned and unpruned
/// scans rests on this direction. Stats exist only for sealed chunks, so
/// the open tail is never consulted here (a batch appended past a refuted
/// zone lands in a NEW sealed chunk with fresh stats, or stays in the
/// unpruned tail).
bool ZoneRefutes(const BoundPredicate& bound, const Chunk& chunk) {
  const ChunkStats& s = chunk.stats();
  if (!s.valid) return false;
  const Predicate& pred = *bound.pred;
  if (pred.op == CmpOp::kIsNull) return s.null_count == 0;
  if (pred.op == CmpOp::kNotNull) return s.null_count == chunk.size();
  if (bound.always_false) return true;  // No dictionary code matches at all.
  if (bound.use_codes) {
    if (!s.has_code_set) return false;
    for (const int32_t code : s.codes) {
      if (bound.code_verdict[static_cast<size_t>(code)] != 0) return false;
    }
    return true;  // Every distinct code present fails; nulls fail too.
  }
  // Numeric zone: non-null values lie in [min, max] and are never NaN (NaN
  // input is stored as null); nulls fail every value comparison.
  if (!s.has_range) return true;  // All-null chunk.
  const double v = pred.num_literal;
  if (std::isnan(v)) {
    // x op NaN is false for every op except !=, which every non-null value
    // satisfies — so a NaN literal refutes unless the op is kNe.
    return pred.op != CmpOp::kNe;
  }
  switch (pred.op) {
    case CmpOp::kEq:
      return v < s.min || v > s.max;
    case CmpOp::kNe:
      return s.min == v && s.max == v;
    case CmpOp::kLt:
      return s.min >= v;
    case CmpOp::kLe:
      return s.min > v;
    case CmpOp::kGt:
      return s.max <= v;
    case CmpOp::kGe:
      return s.max < v;
    default:
      return false;
  }
}

/// Point evaluation of one bound predicate at a single row — the restricted
/// scan's inner loop (parent rows are sparse, so chunk-sequential visiting
/// buys nothing, but the row->chunk lookup must still happen only ONCE per
/// (row, predicate): a one-row VisitRows hands us the chunk slot, and the
/// verdict is CellVerdict — the same definition the full scan evaluates.
bool EvalPredicateAt(const BoundPredicate& bound, size_t row) {
  bool verdict = false;
  bound.col->VisitRows(row, row + 1,
                       [&](size_t, const Chunk& chunk, size_t local) {
                         verdict = CellVerdict(bound, chunk, local);
                       });
  return verdict;
}

/// The shared tail of scope resolution: order_by sort, limit, projection.
/// Both the full scan and the restricted scan feed their filtered row ids
/// through this one function, so the two paths cannot drift.
Result<QueryScope> FinishScope(const Table& table, const SpQuery& query,
                               std::vector<size_t> row_ids) {
  if (!query.order_by.empty()) {
    SUBTAB_ASSIGN_OR_RETURN(size_t sort_idx, table.ColumnIndex(query.order_by));
    const Column& col = table.column(sort_idx);
    auto null_last_less = [&col](size_t a, size_t b) {
      const bool na = col.is_null(a);
      const bool nb = col.is_null(b);
      if (na != nb) return nb;  // Nulls sort last.
      if (na) return false;
      if (col.is_numeric()) return col.num_value(a) < col.num_value(b);
      return col.cat_value(a) < col.cat_value(b);
    };
    std::stable_sort(row_ids.begin(), row_ids.end(), null_last_less);
    if (query.descending) std::reverse(row_ids.begin(), row_ids.end());
  }

  if (query.limit > 0 && row_ids.size() > query.limit) {
    row_ids.resize(query.limit);
  }

  std::vector<size_t> col_ids;
  if (query.projection.empty()) {
    col_ids.resize(table.num_columns());
    std::iota(col_ids.begin(), col_ids.end(), 0);
  } else {
    for (const auto& name : query.projection) {
      SUBTAB_ASSIGN_OR_RETURN(size_t idx, table.ColumnIndex(name));
      col_ids.push_back(idx);
    }
  }

  QueryScope scope;
  scope.row_ids = std::move(row_ids);
  scope.col_ids = std::move(col_ids);
  return scope;
}

/// What the filter scan produced beyond the mask itself: the surviving row
/// ranges (so callers can skip pruned regions) and the attribution that
/// ResolveQueryScope copies into ScanStats.
struct FilterMask {
  std::vector<char> keep;
  /// Complement of the merged refuted set: the row ranges whose cells were
  /// actually evaluated, ascending and disjoint. [0, n) when nothing pruned.
  std::vector<std::pair<size_t, size_t>> survive;
  size_t chunks_scanned = 0;
  size_t chunks_pruned = 0;
  size_t rows_pruned = 0;
  size_t code_eval_predicates = 0;
};

Result<FilterMask> EvalFilterMask(const Table& table,
                                  const std::vector<Predicate>& filters,
                                  const QueryExecOptions& exec) {
  const size_t n = table.num_rows();
  FilterMask out;
  out.keep.assign(n, 1);
  out.survive.emplace_back(0, n);
  if (filters.empty()) return out;

  std::vector<BoundPredicate> bound;
  bound.reserve(filters.size());
  for (const Predicate& pred : filters) {
    SUBTAB_ASSIGN_OR_RETURN(BoundPredicate b, BindPredicate(table, pred));
    out.code_eval_predicates += b.use_codes ? 1 : 0;
    bound.push_back(std::move(b));
  }

  // Zone-map pruning: collect the row intervals of sealed chunks whose
  // stats refute one conjunct, and merge them across predicates (each
  // column has its own chunk layout). Rows inside the merged set provably
  // fail the conjunction, so they are pre-failed without reading a cell.
  std::vector<std::pair<size_t, size_t>> merged;
  if (exec.zone_map_pruning) {
    std::vector<std::pair<size_t, size_t>> refuted;
    for (const BoundPredicate& b : bound) {
      const auto& chunks = b.col->chunks();
      for (size_t c = 0; c < chunks.size(); ++c) {
        if (ZoneRefutes(b, *chunks[c])) {
          const size_t begin = b.col->chunk_offset(c);
          refuted.emplace_back(begin, begin + chunks[c]->size());
        }
      }
    }
    std::sort(refuted.begin(), refuted.end());
    for (const auto& r : refuted) {
      if (!merged.empty() && r.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, r.second);
      } else {
        merged.push_back(r);
      }
    }
  }
  for (const auto& r : merged) {
    std::fill(out.keep.begin() + static_cast<ptrdiff_t>(r.first),
              out.keep.begin() + static_cast<ptrdiff_t>(r.second), 0);
    out.rows_pruned += r.second - r.first;
  }

  // Attribution: a chunk counts as pruned when the merged refuted set
  // covers its whole row range (possibly thanks to another column's
  // conjunct), as scanned otherwise — scanned + pruned always equals the
  // chunk walk a pruning-off scan performs.
  const auto covered = [&merged](size_t begin, size_t end) {
    auto it = std::upper_bound(
        merged.begin(), merged.end(),
        std::make_pair(begin, std::numeric_limits<size_t>::max()));
    if (it == merged.begin()) return false;
    --it;
    return it->first <= begin && end <= it->second;
  };
  for (const BoundPredicate& b : bound) {
    const auto& chunks = b.col->chunks();
    for (size_t c = 0; c < chunks.size(); ++c) {
      const size_t begin = b.col->chunk_offset(c);
      if (covered(begin, begin + chunks[c]->size())) {
        ++out.chunks_pruned;
      } else {
        ++out.chunks_scanned;
      }
    }
  }

  // Surviving ranges: the complement of the refuted set. Evaluation happens
  // over these only; pruned rows are never revisited.
  out.survive.clear();
  size_t cursor = 0;
  for (const auto& r : merged) {
    if (r.first > cursor) out.survive.emplace_back(cursor, r.first);
    cursor = r.second;
  }
  if (cursor < n) out.survive.emplace_back(cursor, n);
  for (const auto& range : out.survive) {
    for (size_t i = 0; i < bound.size(); ++i) {
      EvalPredicateRange(bound[i], range.first, range.second,
                         /*first=*/i == 0, out.keep.data());
    }
  }
  return out;
}

}  // namespace

Result<QueryScope> ResolveQueryScope(const Table& table, const SpQuery& query,
                                     const QueryExecOptions& exec) {
  const size_t n = table.num_rows();
  SUBTAB_ASSIGN_OR_RETURN(FilterMask mask,
                          EvalFilterMask(table, query.filters, exec));

  // Collect matches from the surviving ranges only: zone-pruned regions
  // hold provably-failing rows, so skipping them cannot change the result.
  std::vector<size_t> row_ids;
  for (const auto& range : mask.survive) {
    for (size_t r = range.first; r < range.second; ++r) {
      if (mask.keep[r]) row_ids.push_back(r);
    }
  }

  ScanStats stats;
  stats.rows_visited = n - mask.rows_pruned;
  stats.rows_matched = row_ids.size();
  stats.predicates_evaluated = query.filters.size();
  stats.chunks_scanned = mask.chunks_scanned;
  stats.chunks_pruned = mask.chunks_pruned;
  stats.code_eval_predicates = mask.code_eval_predicates;

  Result<QueryScope> scope = FinishScope(table, query, std::move(row_ids));
  if (scope.ok()) scope->stats = stats;
  return scope;
}

Result<QueryScope> RestrictQueryScope(const Table& table,
                                      const std::vector<size_t>& parent_rows,
                                      const SpQuery& query,
                                      const std::vector<Predicate>& extra) {
  // Bind (and type-check) only the extra conjuncts. Shared conjuncts bound
  // successfully when the parent's scope was resolved against this same
  // table, so the first binding error here is the first binding error the
  // full scan would hit — `extra` preserves the filters' relative order.
  std::vector<BoundPredicate> bound;
  bound.reserve(extra.size());
  for (const Predicate& pred : extra) {
    SUBTAB_ASSIGN_OR_RETURN(BoundPredicate b, BindPredicate(table, pred));
    bound.push_back(b);
  }

  std::vector<size_t> row_ids;
  for (const size_t row : parent_rows) {
    bool keep = true;
    for (const BoundPredicate& b : bound) {
      if (!EvalPredicateAt(b, row)) {
        keep = false;
        break;
      }
    }
    if (keep) row_ids.push_back(row);
  }

  ScanStats stats;
  stats.restricted = true;
  stats.rows_visited = parent_rows.size();
  stats.rows_matched = row_ids.size();
  stats.predicates_evaluated = extra.size();
  for (const BoundPredicate& b : bound) {
    stats.code_eval_predicates += b.use_codes ? 1 : 0;
  }
  // Point lookups, not chunk walks: chunks_scanned stays 0 by definition.

  Result<QueryScope> scope = FinishScope(table, query, std::move(row_ids));
  if (scope.ok()) scope->stats = stats;
  return scope;
}

bool SamePredicate(const Predicate& a, const Predicate& b) {
  if (a.column != b.column || a.op != b.op) return false;
  if (a.op == CmpOp::kIsNull || a.op == CmpOp::kNotNull) return true;
  if (a.literal_is_numeric != b.literal_is_numeric) return false;
  if (!a.literal_is_numeric) return a.str_literal == b.str_literal;
  // Bit-pattern equality, matching the selection cache's lossless encoding:
  // NaN == NaN (both match nothing) while -0.0 != 0.0 stays conservative.
  uint64_t abits = 0;
  uint64_t bbits = 0;
  std::memcpy(&abits, &a.num_literal, sizeof(abits));
  std::memcpy(&bbits, &b.num_literal, sizeof(bbits));
  return abits == bbits;
}

namespace {

/// Is `p` a numeric lower/upper bound eligible for interval merging?
bool IsNumericLowerBound(const Predicate& p) {
  return p.literal_is_numeric && (p.op == CmpOp::kGe || p.op == CmpOp::kGt);
}
bool IsNumericUpperBound(const Predicate& p) {
  return p.literal_is_numeric && (p.op == CmpOp::kLe || p.op == CmpOp::kLt);
}

/// One side of a column's interval: the bound value plus whether the
/// comparison excludes equality. Tighter(a, b) orders lower bounds; upper
/// bounds use it with the comparison flipped by the caller.
struct Bound {
  double value = 0.0;
  bool strict = false;
};

/// True iff lower bound `a` admits strictly fewer values than `b`.
bool TighterLower(const Bound& a, const Bound& b) {
  return a.value > b.value || (a.value == b.value && a.strict && !b.strict);
}
bool TighterUpper(const Bound& a, const Bound& b) {
  return a.value < b.value || (a.value == b.value && a.strict && !b.strict);
}

/// What a conjunction pins down about one column — built from the child
/// query's conjuncts, then queried for implication of each parent conjunct.
/// Eq/ne lists use exists-semantics: if the conjunction carries two distinct
/// equalities the row set is empty and any implication holds vacuously, so
/// "some equality satisfies it" is sound.
struct ColumnFacts {
  bool has_lower = false;
  Bound lower;
  bool has_upper = false;
  Bound upper;
  std::vector<double> num_eq;
  std::vector<double> num_ne;
  std::vector<std::string> str_eq;
  std::vector<std::string> str_ne;
  bool is_null = false;
  /// Set by an explicit NOT NULL or by ANY value comparison: nulls fail
  /// every value comparison (see EvalPredicateRange), so `x op v` implies
  /// `x is not null`.
  bool not_null = false;
};

std::unordered_map<std::string, ColumnFacts> BuildFacts(
    const std::vector<Predicate>& filters) {
  std::unordered_map<std::string, ColumnFacts> facts;
  for (const Predicate& p : filters) {
    ColumnFacts& f = facts[p.column];
    if (p.op == CmpOp::kIsNull) {
      f.is_null = true;
      continue;
    }
    if (p.op == CmpOp::kNotNull) {
      f.not_null = true;
      continue;
    }
    f.not_null = true;  // Value comparisons never match null cells.
    if (!p.literal_is_numeric) {
      if (p.op == CmpOp::kEq) f.str_eq.push_back(p.str_literal);
      if (p.op == CmpOp::kNe) f.str_ne.push_back(p.str_literal);
      // String order comparisons are matched only verbatim (SamePredicate).
      continue;
    }
    const double v = p.num_literal;
    switch (p.op) {
      case CmpOp::kEq:
        f.num_eq.push_back(v);
        break;
      case CmpOp::kNe:
        f.num_ne.push_back(v);
        break;
      case CmpOp::kGe:
      case CmpOp::kGt: {
        // A NaN bound matches nothing; it cannot be ordered against other
        // bounds, so it never becomes the representative lower bound.
        const Bound candidate{v, p.op == CmpOp::kGt};
        if (!std::isnan(v) && (!f.has_lower || TighterLower(candidate, f.lower))) {
          f.has_lower = true;
          f.lower = candidate;
        }
        break;
      }
      case CmpOp::kLe:
      case CmpOp::kLt: {
        const Bound candidate{v, p.op == CmpOp::kLt};
        if (!std::isnan(v) && (!f.has_upper || TighterUpper(candidate, f.upper))) {
          f.has_upper = true;
          f.upper = candidate;
        }
        break;
      }
      default:
        break;
    }
  }
  return facts;
}

/// Does the child's conjunction (summarized as `f`) imply the single parent
/// conjunct `p`? Conservative: false means "could not prove".
bool FactsImply(const ColumnFacts& f, const Predicate& p) {
  if (p.op == CmpOp::kIsNull) return f.is_null;
  if (p.op == CmpOp::kNotNull) return f.not_null;
  if (!p.literal_is_numeric) {
    const std::string& v = p.str_literal;
    if (p.op == CmpOp::kEq) {
      for (const std::string& e : f.str_eq) {
        if (e == v) return true;
      }
      return false;
    }
    if (p.op == CmpOp::kNe) {
      for (const std::string& n : f.str_ne) {
        if (n == v) return true;
      }
      for (const std::string& e : f.str_eq) {
        if (e != v) return true;  // x == e and e != v => x != v.
      }
      return false;
    }
    return false;  // String order comparisons: verbatim matches only.
  }

  const double v = p.num_literal;
  if (std::isnan(v)) return false;  // Matches nothing; only verbatim reuse.
  // Bounds excluding v, shared by kGt/kGe/kNe reasoning below.
  const bool lower_excludes =
      f.has_lower && (f.lower.value > v || (f.lower.value == v && f.lower.strict));
  const bool upper_excludes =
      f.has_upper && (f.upper.value < v || (f.upper.value == v && f.upper.strict));
  auto any_eq = [&f](auto pred) {
    for (const double e : f.num_eq) {
      if (pred(e)) return true;
    }
    return false;
  };
  switch (p.op) {
    case CmpOp::kGe:
      return (f.has_lower && f.lower.value >= v) ||
             any_eq([v](double e) { return e >= v; });
    case CmpOp::kGt:
      return lower_excludes || any_eq([v](double e) { return e > v; });
    case CmpOp::kLe:
      return (f.has_upper && f.upper.value <= v) ||
             any_eq([v](double e) { return e <= v; });
    case CmpOp::kLt:
      return upper_excludes || any_eq([v](double e) { return e < v; });
    case CmpOp::kEq:
      return any_eq([v](double e) { return e == v; });
    case CmpOp::kNe: {
      for (const double n : f.num_ne) {
        if (n == v) return true;
      }
      return any_eq([v](double e) { return e != v; }) || lower_excludes ||
             upper_excludes;
    }
    default:
      return false;
  }
}

}  // namespace

std::vector<Predicate> CanonicalConjuncts(
    const std::vector<Predicate>& filters) {
  // Representative (tightest) bound per column, exactly as BuildFacts picks
  // them; a redundant bound is one that a tighter bound on the same column
  // makes implied, so dropping it keeps the row set identical.
  const std::unordered_map<std::string, ColumnFacts> facts = BuildFacts(filters);
  std::vector<Predicate> out;
  out.reserve(filters.size());
  // Emit the representative bound only once per column/side: duplicates of
  // the tightest bound are as redundant as looser ones.
  std::unordered_map<std::string, bool> lower_emitted;
  std::unordered_map<std::string, bool> upper_emitted;
  for (const Predicate& p : filters) {
    if (IsNumericLowerBound(p) && !std::isnan(p.num_literal)) {
      const ColumnFacts& f = facts.at(p.column);
      const bool is_representative = f.has_lower &&
                                     f.lower.value == p.num_literal &&
                                     f.lower.strict == (p.op == CmpOp::kGt);
      if (!is_representative || lower_emitted[p.column]) continue;
      lower_emitted[p.column] = true;
    } else if (IsNumericUpperBound(p) && !std::isnan(p.num_literal)) {
      const ColumnFacts& f = facts.at(p.column);
      const bool is_representative = f.has_upper &&
                                     f.upper.value == p.num_literal &&
                                     f.upper.strict == (p.op == CmpOp::kLt);
      if (!is_representative || upper_emitted[p.column]) continue;
      upper_emitted[p.column] = true;
    }
    out.push_back(p);
  }
  return out;
}

bool QueryContains(const SpQuery& a, const SpQuery& b) {
  // A truncated result proves nothing: rows b matches may lie past a's cut.
  if (a.limit > 0) return false;
  if (a.filters.empty()) return true;  // a is the whole table.
  const std::unordered_map<std::string, ColumnFacts> facts =
      BuildFacts(b.filters);
  for (const Predicate& p : a.filters) {
    // Verbatim-match fast path covers every operator, including the string
    // order comparisons the facts summary does not model.
    bool verbatim = false;
    for (const Predicate& q : b.filters) {
      if (SamePredicate(p, q)) {
        verbatim = true;
        break;
      }
    }
    if (verbatim) continue;
    auto it = facts.find(p.column);
    if (it == facts.end() || !FactsImply(it->second, p)) return false;
  }
  return true;
}

std::vector<Predicate> ExtraConjuncts(const SpQuery& parent,
                                      const SpQuery& child) {
  std::vector<Predicate> extra;
  for (const Predicate& p : child.filters) {
    bool shared = false;
    for (const Predicate& q : parent.filters) {
      if (SamePredicate(p, q)) {
        shared = true;
        break;
      }
    }
    if (!shared) extra.push_back(p);
  }
  return extra;
}

Result<QueryResult> RunQuery(const Table& table, const SpQuery& query,
                             const QueryExecOptions& exec) {
  SUBTAB_ASSIGN_OR_RETURN(QueryScope scope,
                          ResolveQueryScope(table, query, exec));
  QueryResult result;
  result.table = table.SubTable(scope.row_ids, scope.col_ids);
  result.row_ids = std::move(scope.row_ids);
  result.col_ids = std::move(scope.col_ids);
  return result;
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "count";
    case AggFn::kSum:
      return "sum";
    case AggFn::kMean:
      return "mean";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
  }
  return "?";
}

Result<Table> RunGroupBy(const Table& table, const GroupByQuery& query) {
  SUBTAB_ASSIGN_OR_RETURN(size_t key_idx, table.ColumnIndex(query.key_column));
  const Column& key = table.column(key_idx);
  const bool needs_agg_col = query.fn != AggFn::kCount;
  const Column* agg = nullptr;
  if (needs_agg_col) {
    SUBTAB_ASSIGN_OR_RETURN(size_t agg_idx, table.ColumnIndex(query.agg_column));
    agg = &table.column(agg_idx);
    if (!agg->is_numeric()) {
      return Status::InvalidArgument("aggregate column '" + query.agg_column +
                                     "' must be numeric");
    }
  }

  struct Acc {
    size_t count = 0;      // Rows in the group.
    size_t agg_count = 0;  // Non-null aggregate values in the group.
    double sum = 0.0;
    double mn = 0.0;
    double mx = 0.0;
    bool any = false;
  };
  // std::map keeps groups in deterministic key order.
  std::map<std::string, Acc> groups;
  std::map<std::string, double> numeric_keys;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (key.is_null(r)) continue;
    std::string k = key.ToDisplay(r);
    Acc& acc = groups[k];
    if (key.is_numeric()) numeric_keys[k] = key.num_value(r);
    ++acc.count;
    if (needs_agg_col && !agg->is_null(r)) {
      const double v = agg->num_value(r);
      acc.sum += v;
      if (!acc.any || v < acc.mn) acc.mn = v;
      if (!acc.any || v > acc.mx) acc.mx = v;
      acc.any = true;
      ++acc.agg_count;
    }
  }

  Column key_out = key.is_numeric() ? Column(query.key_column, ColumnType::kNumeric)
                                    : Column(query.key_column, ColumnType::kCategorical);
  const std::string agg_name =
      needs_agg_col ? StrFormat("%s(%s)", AggFnName(query.fn), query.agg_column.c_str())
                    : "count";
  Column agg_out(agg_name, ColumnType::kNumeric);
  for (const auto& [k, acc] : groups) {
    if (key.is_numeric()) {
      key_out.AppendNumeric(numeric_keys[k]);
    } else {
      key_out.AppendCategorical(k);
    }
    switch (query.fn) {
      case AggFn::kCount:
        agg_out.AppendNumeric(static_cast<double>(acc.count));
        break;
      case AggFn::kSum:
        agg_out.AppendNumeric(acc.sum);
        break;
      case AggFn::kMean:
        if (acc.any) {
          agg_out.AppendNumeric(acc.sum / static_cast<double>(acc.agg_count));
        } else {
          agg_out.AppendNull();
        }
        break;
      case AggFn::kMin:
        acc.any ? agg_out.AppendNumeric(acc.mn) : agg_out.AppendNull();
        break;
      case AggFn::kMax:
        acc.any ? agg_out.AppendNumeric(acc.mx) : agg_out.AppendNull();
        break;
    }
  }
  return Table::Make({std::move(key_out), std::move(agg_out)});
}

}  // namespace subtab
