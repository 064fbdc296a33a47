// Zone-map pruning and dictionary-code predicate evaluation
// (table/chunk.h ChunkStats + table/query.cc ZoneRefutes/code_verdict).
// The contract under test is bit-identity: pruning on and off must produce
// identical scopes over every chunk layout, query shape, and stream
// append — pruning may only skip rows a conjunct provably fails.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "subtab/stream/streaming_table.h"
#include "subtab/table/query.h"

namespace subtab {
namespace {

QueryExecOptions PruningOn() {
  QueryExecOptions exec;
  exec.zone_map_pruning = true;
  return exec;
}

QueryExecOptions PruningOff() {
  QueryExecOptions exec;
  exec.zone_map_pruning = false;
  return exec;
}

/// Asserts the pruned scan returns exactly the unpruned scan's scope (rows,
/// cols, order) and returns the pruned scan's stats for further checks.
ScanStats ExpectBitIdentical(const Table& table, const SpQuery& query) {
  Result<QueryScope> off = ResolveQueryScope(table, query, PruningOff());
  Result<QueryScope> on = ResolveQueryScope(table, query, PruningOn());
  EXPECT_EQ(on.ok(), off.ok()) << query.ToString();
  if (!on.ok() || !off.ok()) return ScanStats{};
  EXPECT_EQ(on->row_ids, off->row_ids) << query.ToString();
  EXPECT_EQ(on->col_ids, off->col_ids) << query.ToString();
  return on->stats;
}

// ---- Seal-time stats correctness -----------------------------------------

TEST(ChunkStatsTest, NumericSealTimeStats) {
  Column col = Column::Numeric(
      "v", {3.0, -1.5, std::nan(""), 7.25, 0.0});
  col.SealTail();
  ASSERT_EQ(col.chunks().size(), 1u);
  const ChunkStats& s = col.chunks()[0]->stats();
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.null_count, 1u);  // The NaN input lands as a null.
  EXPECT_TRUE(s.has_range);
  EXPECT_EQ(s.min, -1.5);
  EXPECT_EQ(s.max, 7.25);
  EXPECT_FALSE(s.has_code_set);
}

TEST(ChunkStatsTest, AllNullNumericChunkHasNoRange) {
  Column col("v", ColumnType::kNumeric);
  col.AppendNull();
  col.AppendNumeric(std::nan(""));
  col.SealTail();
  ASSERT_EQ(col.chunks().size(), 1u);
  const ChunkStats& s = col.chunks()[0]->stats();
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.null_count, 2u);
  EXPECT_FALSE(s.has_range);
}

TEST(ChunkStatsTest, CategoricalCodeSetSortedAndDistinct) {
  Column col = Column::Categorical("c", {"b", "a", "b", "", "c", "a"});
  col.SealTail();
  ASSERT_EQ(col.chunks().size(), 1u);
  const ChunkStats& s = col.chunks()[0]->stats();
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.null_count, 1u);  // "" is null.
  ASSERT_TRUE(s.has_code_set);
  // First-seen codes: b=0, a=1, c=2; the set is sorted and deduplicated.
  EXPECT_EQ(s.codes, (std::vector<int32_t>{0, 1, 2}));
}

TEST(ChunkStatsTest, CategoricalCodeSetDroppedPastCap) {
  Column col("c", ColumnType::kCategorical);
  for (size_t i = 0; i <= ChunkStats::kMaxTrackedCodes; ++i) {
    col.AppendCategorical("v" + std::to_string(i));
  }
  col.SealTail();
  ASSERT_EQ(col.chunks().size(), 1u);
  const ChunkStats& s = col.chunks()[0]->stats();
  EXPECT_TRUE(s.valid);
  EXPECT_FALSE(s.has_code_set);
  EXPECT_TRUE(s.codes.empty());
}

TEST(ChunkStatsTest, AllNullCategoricalChunkHasEmptyCodeSet) {
  Column col("c", ColumnType::kCategorical);
  col.AppendNull();
  col.SealTail();
  const ChunkStats& s = col.chunks()[0]->stats();
  ASSERT_TRUE(s.valid);
  EXPECT_TRUE(s.has_code_set);
  EXPECT_TRUE(s.codes.empty());
}

TEST(ChunkStatsTest, OpenTailHasNoStats) {
  Column col("v", ColumnType::kNumeric);
  col.AppendNumeric(1.0);
  EXPECT_EQ(col.chunks().size(), 0u);  // Still the open tail: nothing sealed.
  col.SealTail();
  EXPECT_TRUE(col.chunks()[0]->stats().valid);
}

// ---- Zone pruning on chunked tables --------------------------------------

/// 0..n-1 ascending in `ts`, chunked `chunk_rows` at a time — every chunk's
/// zone is a tight disjoint interval, so narrowing range queries refute most
/// chunks.
Table ClusteredTable(size_t n, size_t chunk_rows) {
  std::vector<double> ts(n);
  std::vector<std::string> tag(n);
  for (size_t i = 0; i < n; ++i) {
    ts[i] = static_cast<double>(i);
    tag[i] = (i % 7 == 0) ? "hot" : "cold";
  }
  Result<Table> t = Table::Make({Column::Numeric("ts", ts).Rechunked(chunk_rows),
                                 Column::Categorical("tag", tag)});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ZoneMapTest, RangeQueryPrunesRefutedChunks) {
  Table t = ClusteredTable(1000, 100);  // ts has 10 chunks of 100.
  SpQuery q;
  q.filters = {Predicate::Num("ts", CmpOp::kGe, 450.0),
               Predicate::Num("ts", CmpOp::kLt, 550.0)};
  const ScanStats stats = ExpectBitIdentical(t, q);
  // Chunks [400,500) and [500,600) survive; the other 8 are refuted — per
  // predicate, so both conjuncts' walks count.
  EXPECT_EQ(stats.chunks_pruned, 16u);
  EXPECT_EQ(stats.chunks_scanned, 4u);
  EXPECT_EQ(stats.rows_visited, 200u);
  EXPECT_EQ(stats.rows_matched, 100u);

  Result<QueryScope> off = ResolveQueryScope(t, q, PruningOff());
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->stats.chunks_pruned, 0u);
  EXPECT_EQ(off->stats.chunks_scanned, 20u);
  EXPECT_EQ(off->stats.rows_visited, 1000u);
}

TEST(ZoneMapTest, FullyRefutedQueryVisitsNoRows) {
  Table t = ClusteredTable(500, 50);
  SpQuery q;
  q.filters = {Predicate::Num("ts", CmpOp::kGt, 10000.0)};
  const ScanStats stats = ExpectBitIdentical(t, q);
  EXPECT_EQ(stats.rows_visited, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
  EXPECT_EQ(stats.chunks_pruned, 10u);
  EXPECT_EQ(stats.chunks_scanned, 0u);
}

TEST(ZoneMapTest, NullOperatorsPruneByNullCount) {
  Table t = ClusteredTable(300, 100);  // ts has no nulls at all.
  SpQuery is_null;
  is_null.filters = {Predicate::IsNull("ts")};
  const ScanStats stats = ExpectBitIdentical(t, is_null);
  EXPECT_EQ(stats.chunks_pruned, 3u);
  EXPECT_EQ(stats.rows_visited, 0u);

  SpQuery not_null;
  not_null.filters = {Predicate::NotNull("ts")};
  const ScanStats keep_all = ExpectBitIdentical(t, not_null);
  EXPECT_EQ(keep_all.chunks_pruned, 0u);
  EXPECT_EQ(keep_all.rows_matched, 300u);
}

TEST(ZoneMapTest, NaNLiteralRefutesAllButNe) {
  Table t = ClusteredTable(200, 50);
  SpQuery eq_nan;
  eq_nan.filters = {Predicate::Num("ts", CmpOp::kEq, std::nan(""))};
  const ScanStats stats = ExpectBitIdentical(t, eq_nan);
  EXPECT_EQ(stats.rows_visited, 0u);
  EXPECT_EQ(stats.chunks_pruned, 4u);

  // x != NaN is true for every non-null value — nothing may be pruned.
  SpQuery ne_nan;
  ne_nan.filters = {Predicate::Num("ts", CmpOp::kNe, std::nan(""))};
  const ScanStats ne_stats = ExpectBitIdentical(t, ne_nan);
  EXPECT_EQ(ne_stats.chunks_pruned, 0u);
  EXPECT_EQ(ne_stats.rows_matched, 200u);
}

TEST(ZoneMapTest, CrossColumnRefutationMergesIntervals) {
  // Chunk layouts differ per column: ts is 4x50, tag is one 200-row chunk.
  // Pruning merges refuted intervals across columns, and a chunk counts as
  // pruned when ANOTHER column's conjunct covers its whole range.
  std::vector<double> ts(200);
  for (size_t i = 0; i < 200; ++i) ts[i] = static_cast<double>(i);
  std::vector<std::string> tag(200, "x");
  Result<Table> made =
      Table::Make({Column::Numeric("ts", ts).Rechunked(50),
                   Column::Categorical("tag", tag)});
  ASSERT_TRUE(made.ok());
  SpQuery q;
  q.filters = {Predicate::Num("ts", CmpOp::kLt, 50.0),
               Predicate::Str("tag", CmpOp::kEq, "x")};
  const ScanStats stats = ExpectBitIdentical(*made, q);
  // ts refutes chunks [50,100),[100,150),[150,200); tag's single chunk
  // still spans surviving rows, so it scans. 1 ts chunk + 1 tag chunk scan.
  EXPECT_EQ(stats.chunks_pruned, 3u);
  EXPECT_EQ(stats.chunks_scanned, 2u);
  EXPECT_EQ(stats.rows_visited, 50u);
  EXPECT_EQ(stats.code_eval_predicates, 1u);
}

// ---- Dictionary-code resolution ------------------------------------------

TEST(DictCodeTest, AbsentValueEqualityRefutesEveryChunk) {
  Table t = ClusteredTable(400, 100);
  SpQuery q;
  q.filters = {Predicate::Str("tag", CmpOp::kEq, "never-seen")};
  const ScanStats stats = ExpectBitIdentical(t, q);
  EXPECT_EQ(stats.rows_matched, 0u);
  EXPECT_EQ(stats.rows_visited, 0u);
  // tag is a single sealed chunk; equality against an absent value is
  // provably empty without consulting the chunk's zone.
  EXPECT_EQ(stats.chunks_pruned, 1u);
  EXPECT_EQ(stats.code_eval_predicates, 1u);
}

TEST(DictCodeTest, NegatedConjuncts) {
  // "tag != hot" keeps the cold rows; "tag != absent" keeps every non-null.
  Column tag = Column::Categorical("tag", {"hot", "cold", "", "cold", "hot"});
  Result<Table> made = Table::Make({std::move(tag)});
  ASSERT_TRUE(made.ok());

  SpQuery ne_present;
  ne_present.filters = {Predicate::Str("tag", CmpOp::kNe, "hot")};
  Result<QueryScope> on = ResolveQueryScope(*made, ne_present, PruningOn());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->row_ids, (std::vector<size_t>{1, 3}));  // Null row 2 fails.
  ExpectBitIdentical(*made, ne_present);

  SpQuery ne_absent;
  ne_absent.filters = {Predicate::Str("tag", CmpOp::kNe, "absent")};
  Result<QueryScope> all = ResolveQueryScope(*made, ne_absent, PruningOn());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->row_ids, (std::vector<size_t>{0, 1, 3, 4}));
  ExpectBitIdentical(*made, ne_absent);
}

TEST(DictCodeTest, UniformChunkRefutedByCodeSet) {
  // Two chunks: all-"a" then all-"b". "tag == b" must refute the first by
  // its code set and keep the second whole.
  std::vector<std::string> vals(100, "a");
  vals.insert(vals.end(), 100, "b");
  Result<Table> made =
      Table::Make({Column::Categorical("tag", vals).Rechunked(100)});
  ASSERT_TRUE(made.ok());
  SpQuery q;
  q.filters = {Predicate::Str("tag", CmpOp::kEq, "b")};
  const ScanStats stats = ExpectBitIdentical(*made, q);
  EXPECT_EQ(stats.chunks_pruned, 1u);
  EXPECT_EQ(stats.chunks_scanned, 1u);
  EXPECT_EQ(stats.rows_visited, 100u);
  EXPECT_EQ(stats.rows_matched, 100u);
}

TEST(DictCodeTest, StringOrderComparisonsRunOverCodes) {
  Column tag =
      Column::Categorical("tag", {"apple", "pear", "fig", "apple", "zv"});
  Result<Table> made = Table::Make({std::move(tag)});
  ASSERT_TRUE(made.ok());
  for (const CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
    SpQuery q;
    q.filters = {Predicate::Str("tag", op, "fig")};
    const ScanStats stats = ExpectBitIdentical(*made, q);
    EXPECT_EQ(stats.code_eval_predicates, 1u);
  }
}

TEST(DictCodeTest, RestrictedPathUsesCodesAndStaysBitIdentical) {
  Table t = ClusteredTable(600, 100);
  SpQuery parent;
  parent.filters = {Predicate::Num("ts", CmpOp::kLt, 300.0)};
  Result<QueryScope> parent_scope = ResolveQueryScope(t, parent, PruningOn());
  ASSERT_TRUE(parent_scope.ok());

  SpQuery child = parent;
  child.filters.push_back(Predicate::Str("tag", CmpOp::kEq, "hot"));
  const std::vector<Predicate> extra = ExtraConjuncts(parent, child);
  ASSERT_EQ(extra.size(), 1u);
  Result<QueryScope> restricted =
      RestrictQueryScope(t, parent_scope->row_ids, child, extra);
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(restricted->stats.code_eval_predicates, 1u);
  EXPECT_TRUE(restricted->stats.restricted);

  Result<QueryScope> full = ResolveQueryScope(t, child, PruningOff());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(restricted->row_ids, full->row_ids);
  EXPECT_EQ(restricted->col_ids, full->col_ids);
}

// ---- Open-tail / append invalidation (the stale-zone hazard) -------------

TEST(ZoneMapTest, AppendPastRefutedZoneIsNeverPruned) {
  // Base: ts in [0, 100). The query's zone refutes every base chunk. A
  // batch appended AFTER the base was sealed must still be found — appended
  // rows land in a new sealed chunk with fresh stats, never under a stale
  // zone.
  Table base = ClusteredTable(100, 25);
  SpQuery q;
  q.filters = {Predicate::Num("ts", CmpOp::kGe, 1000.0)};
  EXPECT_EQ(ExpectBitIdentical(base, q).rows_matched, 0u);

  Result<Table> batch = Table::Make(
      {Column::Numeric("ts", {1000.0, 1001.0}),
       Column::Categorical("tag", {"hot", "cold"})});
  ASSERT_TRUE(batch.ok());
  Result<Table> grown = base.AppendRows(*batch);
  ASSERT_TRUE(grown.ok());

  const ScanStats stats = ExpectBitIdentical(*grown, q);
  EXPECT_EQ(stats.rows_matched, 2u);
  Result<QueryScope> on = ResolveQueryScope(*grown, q, PruningOn());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->row_ids, (std::vector<size_t>{100, 101}));
  // The base's 4 ts chunks are still refuted; only the batch chunk scans.
  EXPECT_EQ(stats.chunks_pruned, 4u);
  EXPECT_EQ(stats.chunks_scanned, 1u);
}

TEST(ZoneMapTest, StreamAppendExtendsZonesBitIdentically) {
  Result<std::unique_ptr<stream::StreamingTable>> opened =
      stream::StreamingTable::Open(ClusteredTable(200, 50));
  ASSERT_TRUE(opened.ok());
  stream::StreamingTable& streaming = **opened;

  SpQuery q;
  q.filters = {Predicate::Num("ts", CmpOp::kGe, 150.0),
               Predicate::Str("tag", CmpOp::kEq, "hot")};
  for (int step = 0; step < 4; ++step) {
    std::vector<double> ts;
    std::vector<std::string> tag;
    const size_t start = streaming.num_rows();
    for (size_t i = 0; i < 30; ++i) {
      ts.push_back(static_cast<double>(start + i));
      tag.push_back((start + i) % 7 == 0 ? "hot" : "cold");
    }
    Result<Table> batch = Table::Make(
        {Column::Numeric("ts", ts), Column::Categorical("tag", tag)});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(streaming.Append(*batch).ok());
    ExpectBitIdentical(*streaming.Current().table, q);
  }
}

TEST(ZoneMapTest, ConcurrentScansVsStreamAppends) {
  Result<std::unique_ptr<stream::StreamingTable>> opened =
      stream::StreamingTable::Open(ClusteredTable(400, 100));
  ASSERT_TRUE(opened.ok());
  stream::StreamingTable& streaming = **opened;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&streaming, &done, &failures, r] {
      SpQuery q;
      q.filters = {Predicate::Num("ts", CmpOp::kGe, 100.0 * (r + 1)),
                   Predicate::Num("ts", CmpOp::kLt, 100.0 * (r + 2))};
      while (!done.load(std::memory_order_acquire)) {
        // Each reader pins ONE snapshot and compares pruned and unpruned
        // scans over it — appends race only with snapshot acquisition,
        // never with the scan itself.
        std::shared_ptr<const Table> snap = streaming.Current().table;
        Result<QueryScope> on = ResolveQueryScope(*snap, q, PruningOn());
        Result<QueryScope> off = ResolveQueryScope(*snap, q, PruningOff());
        if (!on.ok() || !off.ok() || on->row_ids != off->row_ids) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int step = 0; step < 20; ++step) {
    std::vector<double> ts;
    std::vector<std::string> tag;
    const size_t start = streaming.num_rows();
    for (size_t i = 0; i < 25; ++i) {
      ts.push_back(static_cast<double>(start + i));
      tag.push_back("t" + std::to_string((start + i) % 5));
    }
    Result<Table> batch = Table::Make(
        {Column::Numeric("ts", ts), Column::Categorical("tag", tag)});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(streaming.Append(*batch).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Randomized differential ---------------------------------------------

TEST(ZoneMapTest, RandomizedDifferential) {
  std::mt19937 rng(20230407);
  const std::vector<std::string> words = {"aa", "bb", "cc", "dd", "ee",
                                          "ff", "gg", "hh"};
  for (int iter = 0; iter < 60; ++iter) {
    const size_t n = 40 + rng() % 400;
    std::vector<double> nums;
    std::vector<std::string> cats;
    for (size_t i = 0; i < n; ++i) {
      // Clustered-ish numeric values so zones sometimes refute; ~8% nulls.
      const double base = static_cast<double>(i / 50) * 100.0;
      nums.push_back(rng() % 12 == 0 ? std::nan("")
                                     : base + static_cast<double>(rng() % 100));
      cats.push_back(rng() % 10 == 0 ? "" : words[(i / 37) % words.size()]);
    }
    const size_t chunk_rows = std::vector<size_t>{0, 1, 7, 33, 64}[rng() % 5];
    Result<Table> made = Table::Make(
        {Column::Numeric("num", nums).Rechunked(chunk_rows),
         Column::Categorical("cat", cats).Rechunked(chunk_rows ? 29 : 0)});
    ASSERT_TRUE(made.ok());
    // Sometimes grow by a batch, exercising appended-chunk stats.
    Table t = *made;
    if (rng() % 3 == 0) {
      Result<Table> batch = Table::Make(
          {Column::Numeric("num", {9999.0, std::nan(""), -50.0}),
           Column::Categorical("cat", {"zz", "aa", ""})});
      ASSERT_TRUE(batch.ok());
      Result<Table> grown = t.AppendRows(*batch);
      ASSERT_TRUE(grown.ok());
      t = *grown;
    }

    SpQuery q;
    const size_t num_preds = 1 + rng() % 3;
    for (size_t p = 0; p < num_preds; ++p) {
      const CmpOp op = static_cast<CmpOp>(rng() % 8);
      if (rng() % 2 == 0) {
        const double lit = rng() % 16 == 0
                               ? std::nan("")
                               : static_cast<double>(rng() % 1000);
        q.filters.push_back(Predicate::Num("num", op, lit));
      } else {
        // Absent literals ("absent") exercise the provably-empty path.
        const std::string lit =
            rng() % 5 == 0 ? "absent" : words[rng() % words.size()];
        q.filters.push_back(Predicate::Str("cat", op, lit));
      }
    }
    if (rng() % 3 == 0) {
      q.order_by = rng() % 2 == 0 ? "num" : "cat";
      q.descending = rng() % 2 == 0;
    }
    if (rng() % 4 == 0) q.limit = 1 + rng() % 20;

    ExpectBitIdentical(t, q);
  }
}

}  // namespace
}  // namespace subtab
