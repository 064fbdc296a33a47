// Unit tests for the SP query engine and group-by aggregates, including the
// differential suite for chunked scans (ResolveQueryScope must be
// bit-identical across chunk layouts).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "subtab/table/query.h"

namespace subtab {
namespace {

Table FlightsMini() {
  Column airline = Column::Categorical(
      "airline", {"AA", "DL", "AA", "UA", "DL", ""});
  Column delay = Column::Numeric(
      "delay", {5.0, -2.0, std::nan(""), 30.0, 12.0, 0.0});
  Column distance = Column::Numeric(
      "distance", {100, 900, 300, 2500, 900, 450});
  Result<Table> t =
      Table::Make({std::move(airline), std::move(delay), std::move(distance)});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(PredicateTest, ToStringFormats) {
  EXPECT_EQ(Predicate::Num("d", CmpOp::kLe, 3.5).ToString(), "d <= 3.5");
  EXPECT_EQ(Predicate::Str("a", CmpOp::kEq, "AA").ToString(), "a == 'AA'");
  EXPECT_EQ(Predicate::IsNull("x").ToString(), "x is null");
}

TEST(QueryTest, NoFiltersReturnsAll) {
  Table t = FlightsMini();
  Result<QueryResult> r = RunQuery(t, SpQuery{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids.size(), 6u);
  EXPECT_EQ(r->col_ids, (std::vector<size_t>{0, 1, 2}));
}

TEST(QueryTest, NumericComparisons) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Num("delay", CmpOp::kGt, 0.0)};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  // Rows 0 (5.0), 3 (30.0), 4 (12.0); NaN row 2 excluded.
  EXPECT_EQ(r->row_ids, (std::vector<size_t>{0, 3, 4}));
}

TEST(QueryTest, EachNumericOperator) {
  Table t = FlightsMini();
  auto count = [&t](CmpOp op, double v) {
    SpQuery q;
    q.filters = {Predicate::Num("distance", op, v)};
    Result<QueryResult> r = RunQuery(t, q);
    EXPECT_TRUE(r.ok());
    return r->row_ids.size();
  };
  EXPECT_EQ(count(CmpOp::kEq, 900), 2u);
  EXPECT_EQ(count(CmpOp::kNe, 900), 4u);
  EXPECT_EQ(count(CmpOp::kLt, 450), 2u);
  EXPECT_EQ(count(CmpOp::kLe, 450), 3u);
  EXPECT_EQ(count(CmpOp::kGt, 900), 1u);
  EXPECT_EQ(count(CmpOp::kGe, 900), 3u);
}

TEST(QueryTest, StringEquality) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Str("airline", CmpOp::kEq, "AA")};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids, (std::vector<size_t>{0, 2}));
}

TEST(QueryTest, NullPredicates) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::IsNull("delay")};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids, (std::vector<size_t>{2}));

  q.filters = {Predicate::NotNull("airline")};
  r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids.size(), 5u);
}

TEST(QueryTest, ConjunctionOfFilters) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Str("airline", CmpOp::kEq, "DL"),
               Predicate::Num("distance", CmpOp::kEq, 900)};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids, (std::vector<size_t>{1, 4}));
}

TEST(QueryTest, ProjectionMapsColumnIds) {
  Table t = FlightsMini();
  SpQuery q;
  q.projection = {"distance", "airline"};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->col_ids, (std::vector<size_t>{2, 0}));
  EXPECT_EQ(r->table.column(0).name(), "distance");
}

TEST(QueryTest, SortAscendingNullsLast) {
  Table t = FlightsMini();
  SpQuery q;
  q.order_by = "delay";
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids, (std::vector<size_t>{1, 5, 0, 4, 3, 2}));
}

TEST(QueryTest, SortDescending) {
  Table t = FlightsMini();
  SpQuery q;
  q.order_by = "delay";
  q.descending = true;
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids.front(), 2u);  // Reversed order puts the null first.
  EXPECT_EQ(r->row_ids[1], 3u);
}

TEST(QueryTest, SortByStringColumn) {
  Table t = FlightsMini();
  SpQuery q;
  q.order_by = "airline";
  q.filters = {Predicate::NotNull("airline")};
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table.column("airline").cat_value(0), "AA");
  EXPECT_EQ(r->table.column("airline").cat_value(4), "UA");
}

TEST(QueryTest, LimitTruncates) {
  Table t = FlightsMini();
  SpQuery q;
  q.limit = 2;
  Result<QueryResult> r = RunQuery(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_ids.size(), 2u);
}

TEST(QueryTest, UnknownColumnErrors) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Num("nope", CmpOp::kEq, 1)};
  EXPECT_FALSE(RunQuery(t, q).ok());
  q = SpQuery{};
  q.projection = {"nope"};
  EXPECT_FALSE(RunQuery(t, q).ok());
  q = SpQuery{};
  q.order_by = "nope";
  EXPECT_FALSE(RunQuery(t, q).ok());
}

TEST(QueryTest, TypeMismatchErrors) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Str("delay", CmpOp::kEq, "x")};
  Result<QueryResult> r = RunQuery(t, q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ToStringReadable) {
  SpQuery q;
  q.filters = {Predicate::Num("delay", CmpOp::kGe, 10)};
  q.projection = {"a", "b"};
  q.order_by = "delay";
  q.limit = 5;
  const std::string s = q.ToString();
  EXPECT_NE(s.find("SELECT a, b"), std::string::npos);
  EXPECT_NE(s.find("WHERE delay >= 10"), std::string::npos);
  EXPECT_NE(s.find("ORDER BY delay ASC"), std::string::npos);
  EXPECT_NE(s.find("LIMIT 5"), std::string::npos);
}

// ---------------------------------------------------------------- GroupBy --

TEST(GroupByTest, CountPerKey) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "airline";
  g.fn = AggFn::kCount;
  Result<Table> r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  // Keys in deterministic (sorted) order: AA, DL, UA; null key skipped.
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->column(0).cat_value(0), "AA");
  EXPECT_DOUBLE_EQ(r->column(1).num_value(0), 2.0);
}

TEST(GroupByTest, MeanSkipsNullAggregates) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "airline";
  g.agg_column = "delay";
  g.fn = AggFn::kMean;
  Result<Table> r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  // AA rows: delay 5.0 and NaN -> mean 5.0 over one value.
  EXPECT_DOUBLE_EQ(r->column(1).num_value(0), 5.0);
}

TEST(GroupByTest, MinMaxSum) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "airline";
  g.agg_column = "distance";
  g.fn = AggFn::kMin;
  Result<Table> r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->column(1).num_value(0), 100.0);  // AA: min(100, 300).

  g.fn = AggFn::kMax;
  r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->column(1).num_value(0), 300.0);

  g.fn = AggFn::kSum;
  r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->column(1).num_value(0), 400.0);
}

TEST(GroupByTest, NumericKeyStaysNumeric) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "distance";
  g.fn = AggFn::kCount;
  Result<Table> r = RunGroupBy(t, g);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column(0).type(), ColumnType::kNumeric);
}

TEST(GroupByTest, NonNumericAggregateErrors) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "distance";
  g.agg_column = "airline";
  g.fn = AggFn::kMean;
  EXPECT_FALSE(RunGroupBy(t, g).ok());
}

TEST(GroupByTest, UnknownColumnsError) {
  Table t = FlightsMini();
  GroupByQuery g;
  g.key_column = "nope";
  EXPECT_FALSE(RunGroupBy(t, g).ok());
}

// ------------------------------------------------------------ Chunk scans --

/// A randomized table with nulls in both column types, rechunked into small
/// chunks so multi-chunk scans and zone-map pruning actually engage.
Table RandomChunkedTable(size_t rows, size_t max_chunk_rows, std::mt19937* rng) {
  std::uniform_real_distribution<double> num(-50.0, 50.0);
  std::uniform_int_distribution<int> cat(0, 5);
  std::uniform_int_distribution<int> coin(0, 9);
  std::vector<double> a, b;
  std::vector<std::string> c;
  const char* names[] = {"red", "green", "blue", "cyan", "mag", "yel"};
  for (size_t i = 0; i < rows; ++i) {
    a.push_back(coin(*rng) == 0 ? std::nan("") : num(*rng));
    b.push_back(num(*rng));
    c.push_back(coin(*rng) == 0 ? "" : names[cat(*rng)]);
  }
  Result<Table> t = Table::Make({Column::Numeric("a", a), Column::Numeric("b", b),
                                 Column::Categorical("c", c)});
  SUBTAB_CHECK(t.ok());
  return t->Rechunked(max_chunk_rows);
}

TEST(ChunkScanTest, BitIdenticalAcrossLayouts) {
  std::vector<SpQuery> queries;
  {
    SpQuery q;  // Conjunction over both types.
    q.filters = {Predicate::Num("a", CmpOp::kGe, -10.0),
                 Predicate::Str("c", CmpOp::kEq, "green")};
    queries.push_back(q);
  }
  {
    SpQuery q;  // Null-sensitive + order + limit + projection.
    q.filters = {Predicate::NotNull("a"), Predicate::Num("b", CmpOp::kLt, 25.0)};
    q.order_by = "b";
    q.descending = true;
    q.limit = 17;
    q.projection = {"c", "a"};
    queries.push_back(q);
  }
  queries.push_back(SpQuery{});  // Unfiltered.
  {
    SpQuery q;  // Empty result.
    q.filters = {Predicate::Num("b", CmpOp::kGt, 1e9)};
    queries.push_back(q);
  }

  // Every layout holds the same rows (same generator seed), so each must
  // answer every query exactly as the unchunked table does.
  const auto layout = [](size_t chunk_rows) {
    std::mt19937 rng(20260731);
    return RandomChunkedTable(500, chunk_rows, &rng);
  };
  const Table unchunked = layout(0);
  for (size_t chunk_rows : {size_t{0}, size_t{7}, size_t{64}}) {
    Table t = layout(chunk_rows);
    for (const SpQuery& q : queries) {
      Result<QueryResult> expected = RunQuery(unchunked, q);
      ASSERT_TRUE(expected.ok());
      Result<QueryScope> scope = ResolveQueryScope(t, q);
      ASSERT_TRUE(scope.ok());
      EXPECT_EQ(scope->row_ids, expected->row_ids)
          << "chunk_rows=" << chunk_rows << " query=" << q.ToString();
      EXPECT_EQ(scope->col_ids, expected->col_ids);
      Result<QueryResult> result = RunQuery(t, q);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->row_ids, expected->row_ids);
      EXPECT_EQ(result->table.ToString(99), expected->table.ToString(99));
    }
  }
}

TEST(ChunkScanTest, ScopeMatchesRunQueryProvenance) {
  Table t = FlightsMini();
  SpQuery q;
  q.filters = {Predicate::Num("distance", CmpOp::kGe, 400.0)};
  q.projection = {"airline", "distance"};
  Result<QueryScope> scope = ResolveQueryScope(t, q);
  Result<QueryResult> full = RunQuery(t, q);
  ASSERT_TRUE(scope.ok() && full.ok());
  EXPECT_EQ(scope->row_ids, full->row_ids);
  EXPECT_EQ(scope->col_ids, full->col_ids);
}

TEST(ChunkScanTest, ErrorsMatchSerialErrors) {
  Table t = FlightsMini();
  SpQuery unknown;
  unknown.filters = {Predicate::Num("nope", CmpOp::kGe, 0.0)};
  EXPECT_FALSE(ResolveQueryScope(t, unknown).ok());
  EXPECT_FALSE(RunQuery(t, unknown).ok());
  SpQuery mismatch;
  mismatch.filters = {Predicate::Str("distance", CmpOp::kEq, "x")};
  EXPECT_FALSE(ResolveQueryScope(t, mismatch).ok());
  EXPECT_FALSE(RunQuery(t, mismatch).ok());
}

// ------------------------------------------------- Containment reasoning --

SpQuery Where(std::vector<Predicate> filters) {
  SpQuery q;
  q.filters = std::move(filters);
  return q;
}

TEST(QueryContainsTest, IntervalSubsumption) {
  const SpQuery broad = Where({Predicate::Num("a", CmpOp::kGe, 1.0)});
  const SpQuery narrow = Where({Predicate::Num("a", CmpOp::kGe, 5.0)});
  EXPECT_TRUE(QueryContains(broad, narrow));
  EXPECT_FALSE(QueryContains(narrow, broad));
  EXPECT_TRUE(QueryContains(broad, broad));  // Reflexive.

  // Strictness: x > 1 is narrower than x >= 1, not vice versa.
  const SpQuery strict = Where({Predicate::Num("a", CmpOp::kGt, 1.0)});
  EXPECT_TRUE(QueryContains(broad, strict));
  EXPECT_FALSE(QueryContains(strict, broad));

  // Two-sided: [0, 10] contains [2, 8] but not [2, 12].
  const SpQuery wide = Where({Predicate::Num("a", CmpOp::kGe, 0.0),
                              Predicate::Num("a", CmpOp::kLe, 10.0)});
  EXPECT_TRUE(QueryContains(wide, Where({Predicate::Num("a", CmpOp::kGe, 2.0),
                                         Predicate::Num("a", CmpOp::kLe, 8.0)})));
  EXPECT_FALSE(QueryContains(wide, Where({Predicate::Num("a", CmpOp::kGe, 2.0),
                                          Predicate::Num("a", CmpOp::kLe, 12.0)})));

  // An equality pins the column inside (or outside) an interval.
  EXPECT_TRUE(QueryContains(broad, Where({Predicate::Num("a", CmpOp::kEq, 3.0)})));
  EXPECT_FALSE(QueryContains(broad, Where({Predicate::Num("a", CmpOp::kEq, 0.0)})));
}

TEST(QueryContainsTest, ConjunctionAndDisjointColumns) {
  // Adding conjuncts narrows: parent's conjuncts must each be implied.
  const SpQuery parent = Where({Predicate::Num("a", CmpOp::kGe, 1.0)});
  const SpQuery child = Where({Predicate::Num("a", CmpOp::kGe, 1.0),
                               Predicate::Str("c", CmpOp::kEq, "x")});
  EXPECT_TRUE(QueryContains(parent, child));
  EXPECT_FALSE(QueryContains(child, parent));
  // A constraint on a column the child never touches cannot be implied.
  EXPECT_FALSE(QueryContains(Where({Predicate::Num("b", CmpOp::kGe, 0.0)}),
                             child));
  // The whole table contains everything.
  EXPECT_TRUE(QueryContains(SpQuery{}, child));
  EXPECT_FALSE(QueryContains(child, SpQuery{}));
}

TEST(QueryContainsTest, NullStateReasoning) {
  // Any value comparison implies NOT NULL (nulls fail all comparisons)...
  EXPECT_TRUE(QueryContains(Where({Predicate::NotNull("a")}),
                            Where({Predicate::Num("a", CmpOp::kNe, 3.0)})));
  EXPECT_TRUE(QueryContains(Where({Predicate::NotNull("c")}),
                            Where({Predicate::Str("c", CmpOp::kEq, "x")})));
  // ...while IS NULL is implied only by itself.
  EXPECT_TRUE(QueryContains(Where({Predicate::IsNull("a")}),
                            Where({Predicate::IsNull("a")})));
  EXPECT_FALSE(QueryContains(Where({Predicate::IsNull("a")}),
                             Where({Predicate::Num("a", CmpOp::kEq, 3.0)})));
}

TEST(QueryContainsTest, InequalityReasoning) {
  // x != 5 is implied by an equality elsewhere, by the same inequality, and
  // by an interval excluding 5.
  const SpQuery ne5 = Where({Predicate::Num("a", CmpOp::kNe, 5.0)});
  EXPECT_TRUE(QueryContains(ne5, Where({Predicate::Num("a", CmpOp::kEq, 7.0)})));
  EXPECT_TRUE(QueryContains(ne5, ne5));
  EXPECT_TRUE(QueryContains(ne5, Where({Predicate::Num("a", CmpOp::kGt, 5.0)})));
  EXPECT_FALSE(QueryContains(ne5, Where({Predicate::Num("a", CmpOp::kGe, 5.0)})));
  // String flavor: c != 'x' implied by c == 'y'.
  EXPECT_TRUE(QueryContains(Where({Predicate::Str("c", CmpOp::kNe, "x")}),
                            Where({Predicate::Str("c", CmpOp::kEq, "y")})));
  EXPECT_FALSE(QueryContains(Where({Predicate::Str("c", CmpOp::kNe, "x")}),
                             Where({Predicate::Str("c", CmpOp::kEq, "x")})));
}

TEST(QueryContainsTest, LimitBlocksContainment) {
  // A truncated parent result proves nothing, whatever the filters say.
  SpQuery limited = Where({Predicate::Num("a", CmpOp::kGe, 1.0)});
  limited.limit = 3;
  EXPECT_FALSE(QueryContains(limited, Where({Predicate::Num("a", CmpOp::kGe, 5.0)})));
  // The child having a limit is fine: its rows only shrink further.
  SpQuery child = Where({Predicate::Num("a", CmpOp::kGe, 5.0)});
  child.limit = 3;
  child.order_by = "a";
  EXPECT_TRUE(QueryContains(Where({Predicate::Num("a", CmpOp::kGe, 1.0)}), child));
}

TEST(CanonicalConjunctsTest, MergesRedundantBounds) {
  // a >= 1 AND a >= 2  ->  a >= 2.
  std::vector<Predicate> merged = CanonicalConjuncts(
      {Predicate::Num("a", CmpOp::kGe, 1.0), Predicate::Num("a", CmpOp::kGe, 2.0)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].op, CmpOp::kGe);
  EXPECT_EQ(merged[0].num_literal, 2.0);

  // a > 2 AND a >= 2  ->  a > 2 (strict is tighter at the same value).
  merged = CanonicalConjuncts(
      {Predicate::Num("a", CmpOp::kGt, 2.0), Predicate::Num("a", CmpOp::kGe, 2.0)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].op, CmpOp::kGt);

  // Upper bounds merge independently of lower bounds; columns independent.
  merged = CanonicalConjuncts(
      {Predicate::Num("a", CmpOp::kLe, 9.0), Predicate::Num("a", CmpOp::kLt, 4.0),
       Predicate::Num("a", CmpOp::kGe, 1.0), Predicate::Num("b", CmpOp::kLe, 7.0)});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].op, CmpOp::kLt);  // a < 4 survived, a <= 9 dropped.
  EXPECT_EQ(merged[0].num_literal, 4.0);

  // Non-bound predicates pass through untouched.
  merged = CanonicalConjuncts(
      {Predicate::Num("a", CmpOp::kEq, 3.0), Predicate::Num("a", CmpOp::kNe, 4.0),
       Predicate::Str("c", CmpOp::kEq, "x"), Predicate::IsNull("b")});
  EXPECT_EQ(merged.size(), 4u);
}

TEST(CanonicalConjunctsTest, PreservesRowSet) {
  // The merged conjunction must select exactly the same rows.
  Table t = FlightsMini();
  SpQuery redundant = Where({Predicate::Num("distance", CmpOp::kGe, 100.0),
                             Predicate::Num("distance", CmpOp::kGe, 400.0),
                             Predicate::Num("distance", CmpOp::kLe, 3000.0)});
  SpQuery canonical;
  canonical.filters = CanonicalConjuncts(redundant.filters);
  EXPECT_LT(canonical.filters.size(), redundant.filters.size());
  Result<QueryResult> a = RunQuery(t, redundant);
  Result<QueryResult> b = RunQuery(t, canonical);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->row_ids, b->row_ids);
}

/// Builds the restricted-scan inputs for (parent, child) and checks the
/// result is bit-identical to a direct full scan of the child.
void ExpectRestrictMatchesDirect(const Table& t, const SpQuery& parent,
                                 const SpQuery& child) {
  ASSERT_TRUE(QueryContains(parent, child));
  Result<QueryScope> parent_scope = ResolveQueryScope(t, parent);
  ASSERT_TRUE(parent_scope.ok());
  Result<QueryScope> direct = ResolveQueryScope(t, child);
  Result<QueryScope> restricted = RestrictQueryScope(
      t, parent_scope->row_ids, child, ExtraConjuncts(parent, child));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(restricted->row_ids, direct->row_ids);
  EXPECT_EQ(restricted->col_ids, direct->col_ids);
}

TEST(RestrictScopeTest, MatchesDirectScanOnRefinements) {
  std::mt19937 rng(77);
  Table t = RandomChunkedTable(400, 23, &rng);
  const SpQuery parent = Where({Predicate::Num("a", CmpOp::kGe, -20.0)});

  // Pure conjunct refinement.
  ExpectRestrictMatchesDirect(
      t, parent, Where({Predicate::Num("a", CmpOp::kGe, -20.0),
                        Predicate::Num("b", CmpOp::kLt, 10.0)}));
  // Tightened bound on the same column (no literally-shared conjunct).
  ExpectRestrictMatchesDirect(t, parent,
                              Where({Predicate::Num("a", CmpOp::kGe, 0.0)}));
  // Child with projection, ordering, and limit over the restricted rows.
  SpQuery fancy = Where({Predicate::Num("a", CmpOp::kGe, -20.0),
                         Predicate::Str("c", CmpOp::kEq, "green")});
  fancy.projection = {"c", "a"};
  fancy.order_by = "a";
  fancy.descending = true;
  fancy.limit = 9;
  ExpectRestrictMatchesDirect(t, parent, fancy);
  // Identical filter set (e.g. same query, different seed): extra is empty.
  ExpectRestrictMatchesDirect(t, parent, parent);
}

TEST(RestrictScopeTest, RandomizedDrillDownChains) {
  // Randomized drill-down chains: start from a broad parent, tighten 1-3
  // times, checking every link AND every ancestor-descendant pair.
  std::mt19937 rng(20260731);
  std::uniform_real_distribution<double> delta(0.0, 30.0);
  const char* names[] = {"red", "green", "blue", "cyan", "mag", "yel"};
  for (int trial = 0; trial < 25; ++trial) {
    Table t = RandomChunkedTable(300, 1 + trial % 40, &rng);
    std::vector<SpQuery> chain;
    double lo = -40.0;
    chain.push_back(Where({Predicate::Num("a", CmpOp::kGe, lo)}));
    const size_t steps = 2 + trial % 3;
    for (size_t s = 0; s < steps; ++s) {
      SpQuery next = chain.back();
      switch (trial % 3) {
        case 0:  // Tighten the numeric bound.
          lo += delta(rng);
          next.filters[0] = Predicate::Num("a", CmpOp::kGe, lo);
          break;
        case 1:  // Add a categorical conjunct.
          next.filters.push_back(
              Predicate::Str("c", CmpOp::kEq, names[(trial + s) % 6]));
          break;
        default:  // Add an upper bound on another column.
          next.filters.push_back(
              Predicate::Num("b", CmpOp::kLe, 40.0 - delta(rng)));
          break;
      }
      chain.push_back(next);
    }
    for (size_t i = 0; i < chain.size(); ++i) {
      for (size_t j = i + 1; j < chain.size(); ++j) {
        ExpectRestrictMatchesDirect(t, chain[i], chain[j]);
      }
    }
  }
}

TEST(RestrictScopeTest, ErrorsMatchDirectScan) {
  Table t = FlightsMini();
  const SpQuery parent = Where({Predicate::Num("distance", CmpOp::kGe, 0.0)});
  Result<QueryScope> parent_scope = ResolveQueryScope(t, parent);
  ASSERT_TRUE(parent_scope.ok());
  // A type-mismatched extra conjunct errors exactly like the full scan.
  SpQuery bad = parent;
  bad.filters.push_back(Predicate::Str("distance", CmpOp::kEq, "x"));
  Result<QueryScope> direct = ResolveQueryScope(t, bad);
  Result<QueryScope> restricted = RestrictQueryScope(
      t, parent_scope->row_ids, bad, ExtraConjuncts(parent, bad));
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(restricted.ok());
  EXPECT_EQ(restricted.status().ToString(), direct.status().ToString());
  // An unknown projection column errors identically too.
  SpQuery ghost = parent;
  ghost.projection = {"nope"};
  direct = ResolveQueryScope(t, ghost);
  restricted = RestrictQueryScope(t, parent_scope->row_ids, ghost, {});
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(restricted.ok());
  EXPECT_EQ(restricted.status().ToString(), direct.status().ToString());
}

TEST(RestrictScopeTest, SamePredicateAndExtraConjuncts) {
  const Predicate ge1 = Predicate::Num("a", CmpOp::kGe, 1.0);
  EXPECT_TRUE(SamePredicate(ge1, Predicate::Num("a", CmpOp::kGe, 1.0)));
  EXPECT_FALSE(SamePredicate(ge1, Predicate::Num("a", CmpOp::kGt, 1.0)));
  EXPECT_FALSE(SamePredicate(ge1, Predicate::Num("b", CmpOp::kGe, 1.0)));
  EXPECT_FALSE(SamePredicate(ge1, Predicate::Num("a", CmpOp::kGe, 2.0)));
  // NaN literals compare equal by bit pattern (both match nothing).
  EXPECT_TRUE(SamePredicate(Predicate::Num("a", CmpOp::kEq, std::nan("")),
                            Predicate::Num("a", CmpOp::kEq, std::nan(""))));

  const SpQuery parent = Where({ge1, Predicate::Str("c", CmpOp::kEq, "x")});
  const SpQuery child = Where({Predicate::Str("c", CmpOp::kEq, "x"), ge1,
                               Predicate::Num("b", CmpOp::kLt, 5.0)});
  const std::vector<Predicate> extra = ExtraConjuncts(parent, child);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].column, "b");
}

}  // namespace
}  // namespace subtab
