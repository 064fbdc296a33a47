// Differential + property tests for the chunked, shared-ownership column
// store (table/chunk.h). The refactor's contract is that chunking is purely
// physical: for ANY append schedule and chunk capacity, a chunked table is
// row-for-row identical to a flat rebuild of the same value sequence —
// cells, dictionaries, fingerprints, bin tokenizations, and selections are
// all bit-identical — while appends share (not copy) every prior chunk.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "subtab/binning/binned_table.h"
#include "subtab/core/fingerprint.h"
#include "subtab/core/subtab.h"
#include "subtab/stream/streaming_table.h"
#include "subtab/table/csv.h"
#include "subtab/table/table.h"

namespace subtab {
namespace {

using stream::StreamingTable;
using stream::TableVersion;

/// Column-wise value sequences a table is (re)built from.
struct RowStream {
  std::vector<double> n;        // Numeric, NaN = null.
  std::vector<double> m;        // Numeric.
  std::vector<std::string> c;   // Categorical, "" = null.
  std::vector<std::string> d;   // Categorical.

  size_t size() const { return n.size(); }

  RowStream Slice(size_t begin, size_t end) const {
    RowStream out;
    out.n.assign(n.begin() + begin, n.begin() + end);
    out.m.assign(m.begin() + begin, m.begin() + end);
    out.c.assign(c.begin() + begin, c.begin() + end);
    out.d.assign(d.begin() + begin, d.begin() + end);
    return out;
  }

  Table Build() const {
    Result<Table> table = Table::Make(
        {Column::Numeric("n", n), Column::Numeric("m", m),
         Column::Categorical("c", c), Column::Categorical("d", d)});
    SUBTAB_CHECK(table.ok());
    return std::move(*table);
  }
};

/// Deterministic random rows: nulls, repeated and fresh categories, values
/// drifting with the row index so later batches introduce unseen content.
RowStream MakeRows(size_t count, std::mt19937* rng, size_t index_base = 0) {
  std::uniform_real_distribution<double> value(-50.0, 50.0);
  std::uniform_int_distribution<int> coin(0, 9);
  const char* pool[] = {"ant", "bee", "cat", "dog", "elk", "fox"};
  RowStream rows;
  for (size_t i = 0; i < count; ++i) {
    const size_t index = index_base + i;
    rows.n.push_back(coin(*rng) == 0 ? std::nan("") : value(*rng));
    rows.m.push_back(static_cast<double>(index % 13) * 0.5);
    if (coin(*rng) == 0) {
      rows.c.push_back("");  // Null.
    } else if (coin(*rng) == 1) {
      rows.c.push_back("fresh_" + std::to_string(index / 40));  // Late-arriving.
    } else {
      rows.c.push_back(pool[static_cast<size_t>(coin(*rng)) % 6]);
    }
    rows.d.push_back(index % 4 == 0 ? "even" : "odd");
  }
  return rows;
}

void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_TRUE(a.schema() == b.schema());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.dictionary(), cb.dictionary()) << "column " << ca.name();
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(ca.is_null(r), cb.is_null(r)) << ca.name() << " row " << r;
      if (ca.is_null(r)) continue;
      if (ca.is_numeric()) {
        // Bit-identical, not approximately equal.
        ASSERT_EQ(ca.num_value(r), cb.num_value(r)) << ca.name() << " row " << r;
      } else {
        ASSERT_EQ(ca.cat_code(r), cb.cat_code(r)) << ca.name() << " row " << r;
        ASSERT_EQ(ca.cat_value(r), cb.cat_value(r));
      }
    }
  }
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
}

/// Appends `rows` to `base` batch-by-batch per `batch_sizes`, with the given
/// per-append chunk capacity.
Table AppendSchedule(Table base, const RowStream& rows,
                     const std::vector<size_t>& batch_sizes,
                     size_t max_chunk_rows) {
  Table chunked = std::move(base);
  size_t offset = 0;
  for (size_t batch : batch_sizes) {
    Result<Table> next =
        chunked.AppendRows(rows.Slice(offset, offset + batch).Build(),
                           max_chunk_rows);
    SUBTAB_CHECK(next.ok());
    chunked = std::move(*next);
    offset += batch;
  }
  SUBTAB_CHECK(offset == rows.size());
  return chunked;
}

// ------------------------------------------------------------ Differential --

TEST(ChunkedTableTest, RandomizedAppendSchedulesMatchFlatRebuild) {
  std::mt19937 rng(20260731);
  const size_t chunk_caps[] = {0, 1, 3, 17, 4096};
  for (int schedule = 0; schedule < 8; ++schedule) {
    std::uniform_int_distribution<size_t> base_size(1, 80);
    std::uniform_int_distribution<size_t> batch_size(1, 40);
    std::uniform_int_distribution<size_t> batch_count(1, 9);
    const size_t base_rows = base_size(rng);
    std::vector<size_t> batches(batch_count(rng));
    size_t appended = 0;
    for (size_t& b : batches) {
      b = batch_size(rng);
      appended += b;
    }
    const RowStream all = MakeRows(base_rows + appended, &rng);
    const size_t cap = chunk_caps[static_cast<size_t>(schedule) %
                                  (sizeof(chunk_caps) / sizeof(chunk_caps[0]))];

    const Table chunked =
        AppendSchedule(all.Slice(0, base_rows).Build(),
                       all.Slice(base_rows, all.size()), batches, cap);
    const Table flat = all.Build();

    ASSERT_EQ(flat.num_chunks(), 1u);
    if (appended > 0 && cap != 4096) EXPECT_GT(chunked.num_chunks(), 1u);
    ExpectTablesBitIdentical(chunked, flat);

    // Slice fingerprints agree on arbitrary windows regardless of layout.
    std::uniform_int_distribution<size_t> pick(0, flat.num_rows());
    for (int probe = 0; probe < 4; ++probe) {
      size_t lo = pick(rng);
      size_t hi = pick(rng);
      if (lo > hi) std::swap(lo, hi);
      ASSERT_EQ(TableSliceFingerprint(chunked, lo, hi),
                TableSliceFingerprint(flat, lo, hi));
    }

    // Derived tables gather through the chunk-aware accessors identically.
    std::vector<size_t> take = {0, flat.num_rows() - 1, flat.num_rows() / 2, 0};
    ExpectTablesBitIdentical(chunked.TakeRows(take), flat.TakeRows(take));
    ExpectTablesBitIdentical(chunked.SelectColumns({2, 0}),
                             flat.SelectColumns({2, 0}));
    EXPECT_EQ(chunked.Describe().ToString(99), flat.Describe().ToString(99));
  }
}

TEST(ChunkedTableTest, TokenizationsAndSelectionsBitIdentical) {
  // The paper pipeline end to end on chunked vs flat content: binning must
  // tokenize every cell identically, and a fitted SubTab must select the
  // exact same sub-table (the engine's bit-identical-serving contract).
  std::mt19937 rng(7);
  const RowStream all = MakeRows(240, &rng);
  const Table flat = all.Build();
  const Table chunked = AppendSchedule(
      all.Slice(0, 60).Build(), all.Slice(60, all.size()), {90, 30, 60}, 25);

  const BinnedTable flat_binned = BinnedTable::Compute(flat);
  const BinnedTable chunked_binned = BinnedTable::Compute(chunked);
  ASSERT_EQ(flat_binned.num_rows(), chunked_binned.num_rows());
  ASSERT_EQ(flat_binned.total_bins(), chunked_binned.total_bins());
  for (size_t r = 0; r < flat_binned.num_rows(); ++r) {
    for (size_t c = 0; c < flat_binned.num_columns(); ++c) {
      ASSERT_EQ(flat_binned.token(r, c), chunked_binned.token(r, c));
    }
  }

  SubTabConfig config;
  config.k = 5;
  config.l = 3;
  config.embedding.dim = 8;
  config.embedding.epochs = 1;
  config.seed = 11;
  Result<SubTab> fit_flat = SubTab::Fit(flat, config);
  Result<SubTab> fit_chunked = SubTab::Fit(chunked, config);
  ASSERT_TRUE(fit_flat.ok() && fit_chunked.ok());

  const SubTabView view_flat = fit_flat->Select();
  const SubTabView view_chunked = fit_chunked->Select();
  EXPECT_EQ(view_flat.row_ids, view_chunked.row_ids);
  EXPECT_EQ(view_flat.col_ids, view_chunked.col_ids);
  EXPECT_EQ(view_flat.table.ToString(99), view_chunked.table.ToString(99));

  SpQuery query;
  query.filters = {Predicate::Num("m", CmpOp::kLe, 4.0),
                   Predicate::Str("d", CmpOp::kEq, "odd")};
  query.order_by = "m";
  Result<SubTabView> q_flat = fit_flat->SelectForQuery(query);
  Result<SubTabView> q_chunked = fit_chunked->SelectForQuery(query);
  ASSERT_TRUE(q_flat.ok() && q_chunked.ok());
  EXPECT_EQ(q_flat->row_ids, q_chunked->row_ids);
  EXPECT_EQ(q_flat->col_ids, q_chunked->col_ids);
  EXPECT_EQ(q_flat->table.ToString(99), q_chunked->table.ToString(99));

  // The staged pipeline's scan stage — ResolveScope — feeds SelectScoped
  // bit-identically to the one-shot SelectForQuery above, on both layouts.
  for (const SubTab* fit : {&*fit_flat, &*fit_chunked}) {
    Result<SelectionScope> scope = fit->ResolveScope(query);
    ASSERT_TRUE(scope.ok());
    const SubTabView staged = fit->SelectScoped(*scope, config.k, config.l);
    EXPECT_EQ(staged.row_ids, q_flat->row_ids);
    EXPECT_EQ(staged.col_ids, q_flat->col_ids);
  }
}

TEST(ChunkedTableTest, RechunkFlattenAndCsvPreserveContent) {
  std::mt19937 rng(99);
  const RowStream all = MakeRows(120, &rng);
  const Table flat = all.Build();

  const Table rechunked = flat.Rechunked(7);
  EXPECT_EQ(rechunked.num_chunks(), (120 + 6) / 7);
  ExpectTablesBitIdentical(rechunked, flat);

  const Table reflattened = rechunked.Flatten();
  EXPECT_EQ(reflattened.num_chunks(), 1u);
  ExpectTablesBitIdentical(reflattened, flat);

  // The CSV loader's chunked mode is layout-only too.
  std::ostringstream csv;
  ASSERT_TRUE(WriteCsv(flat, csv).ok());
  CsvOptions options;
  options.max_chunk_rows = 11;
  std::istringstream in(csv.str());
  Result<Table> loaded = ReadCsv(in, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_chunks(), (120 + 10) / 11);
  std::istringstream in_flat(csv.str());
  Result<Table> loaded_flat = ReadCsv(in_flat);
  ASSERT_TRUE(loaded_flat.ok());
  ExpectTablesBitIdentical(*loaded, *loaded_flat);
}

TEST(ChunkedTableTest, AppendRemapsDictionaryCodes) {
  // The batch's own dictionary orders values differently than the parent's;
  // appended cells must be remapped into the cumulative dictionary so codes
  // stay globally consistent across chunks.
  std::vector<std::string> base_vals = {"x", "y", "x"};
  std::vector<std::string> batch_vals = {"w", "y", "x", "w"};
  Result<Table> base = Table::Make({Column::Categorical("c", base_vals)});
  Result<Table> batch = Table::Make({Column::Categorical("c", batch_vals)});
  ASSERT_TRUE(base.ok() && batch.ok());
  Result<Table> grown = base->AppendRows(*batch);
  ASSERT_TRUE(grown.ok());
  const Column& col = grown->column(size_t{0});
  const std::vector<std::string> want_dict = {"x", "y", "w"};
  EXPECT_EQ(col.dictionary(), want_dict);
  EXPECT_EQ(col.cat_value(3), "w");
  EXPECT_EQ(col.cat_code(3), 2);   // Remapped (was 0 in the batch's dict).
  EXPECT_EQ(col.cat_code(0), 0);   // Parent codes untouched.
  EXPECT_EQ(col.cat_code(4), 1);
  EXPECT_EQ(col.cat_code(5), 0);
}

// ------------------------------------------------------------- Properties --

/// All sealed chunks of every column of `table`, in order.
std::vector<std::shared_ptr<const Chunk>> AllChunks(const Table& table) {
  std::vector<std::shared_ptr<const Chunk>> chunks;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (const auto& chunk : table.column(c).chunks()) chunks.push_back(chunk);
  }
  return chunks;
}

TEST(ChunkedTableTest, AppendSharesChunksWithoutHiddenCopies) {
  std::mt19937 rng(5);
  const RowStream all = MakeRows(100, &rng);
  auto stream = StreamingTable::Open(all.Slice(0, 40).Build());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Append(all.Slice(40, 70).Build()).ok());

  std::vector<const Chunk*> before;
  {
    const TableVersion v1 = (*stream)->Current();
    for (const auto& chunk : AllChunks(*v1.table)) before.push_back(chunk.get());
  }
  ASSERT_TRUE((*stream)->Append(all.Slice(70, 100).Build()).ok());
  TableVersion v2 = (*stream)->Current();

  // Chunk identity: the new version references the parent's chunks — the
  // very same objects, not copies.
  std::vector<const Chunk*> after;
  for (const auto& chunk : AllChunks(*v2.table)) after.push_back(chunk.get());
  ASSERT_GT(after.size(), before.size());
  size_t found = 0;
  for (const Chunk* chunk : before) {
    for (const Chunk* candidate : after) found += (candidate == chunk);
  }
  EXPECT_EQ(found, before.size());

  // Interior-chunk use_count property: a chunk's use_count counts the
  // distinct Table objects referencing it (holding a TableVersion copy
  // shares the same Table object and adds nothing). With no old snapshots
  // retained, an append leaves every interior chunk's count unchanged — the
  // new version takes over the reference the dropped parent held. Measured
  // through weak_ptrs so this test itself holds no table alive.
  std::vector<std::weak_ptr<const Chunk>> interior;
  for (const auto& chunk : AllChunks(*v2.table)) interior.push_back(chunk);
  v2.table.reset();
  const auto table_refs = [](const std::weak_ptr<const Chunk>& weak) {
    auto locked = weak.lock();
    SUBTAB_CHECK(locked != nullptr);
    return locked.use_count() - 1;  // Minus our own temporary lock.
  };
  for (const auto& weak : interior) ASSERT_EQ(table_refs(weak), 1);
  ASSERT_TRUE((*stream)->Append(all.Slice(0, 10).Build()).ok());
  for (const auto& weak : interior) {
    EXPECT_EQ(table_refs(weak), 1);  // Constant across Append: no copies.
  }
}

TEST(ChunkedTableTest, DroppingVersionsFreesOnlyUnsharedChunks) {
  std::mt19937 rng(13);
  const RowStream all = MakeRows(90, &rng);
  auto opened = StreamingTable::Open(all.Slice(0, 30).Build());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<StreamingTable> stream = std::move(*opened);

  std::shared_ptr<const Table> t0 = stream->Current().table;
  ASSERT_TRUE(stream->Append(all.Slice(30, 60).Build()).ok());
  std::shared_ptr<const Table> t1 = stream->Current().table;
  ASSERT_TRUE(stream->Append(all.Slice(60, 90).Build()).ok());
  std::shared_ptr<const Table> t2 = stream->Current().table;

  const Column& col2 = t2->column(size_t{0});
  ASSERT_EQ(col2.chunks().size(), 3u);
  std::weak_ptr<const Chunk> base_chunk = col2.chunks()[0];
  std::weak_ptr<const Chunk> delta1_chunk = col2.chunks()[1];
  std::weak_ptr<const Chunk> delta2_chunk = col2.chunks()[2];

  // Destroy the stream: snapshots alone keep chunks alive.
  stream.reset();
  EXPECT_FALSE(base_chunk.expired());
  EXPECT_FALSE(delta1_chunk.expired());
  EXPECT_FALSE(delta2_chunk.expired());

  // Dropping the newest version frees exactly its unshared delta chunk.
  t2.reset();
  EXPECT_FALSE(base_chunk.expired());
  EXPECT_FALSE(delta1_chunk.expired());
  EXPECT_TRUE(delta2_chunk.expired());

  // Dropping the middle version frees its delta; the base, still referenced
  // by t0, survives.
  t1.reset();
  EXPECT_FALSE(base_chunk.expired());
  EXPECT_TRUE(delta1_chunk.expired());

  t0.reset();
  EXPECT_TRUE(base_chunk.expired());
}

TEST(ChunkedTableTest, ApproxBytesReflectsSharing) {
  std::mt19937 rng(21);
  const RowStream all = MakeRows(200, &rng);
  const Table base = all.Slice(0, 100).Build();
  Result<Table> grown = base.AppendRows(all.Slice(100, 200).Build());
  ASSERT_TRUE(grown.ok());
  // The grown table's payload is roughly base + delta; materializing the
  // same content flat costs about the same bytes — but the grown table
  // *shares* the base chunks, so base + grown resident together cost far
  // less than two flat copies (the engine's MemoryStats dedupes this).
  EXPECT_GT(grown->ApproxBytes(), base.ApproxBytes());
  size_t shared_bytes = 0;
  for (size_t c = 0; c < grown->num_columns(); ++c) {
    const auto& base_chunks = base.column(c).chunks();
    const auto& grown_chunks = grown->column(c).chunks();
    ASSERT_EQ(base_chunks.size(), 1u);
    ASSERT_EQ(grown_chunks.size(), 2u);
    EXPECT_EQ(grown_chunks[0].get(), base_chunks[0].get());
    shared_bytes += base_chunks[0]->ByteSize();
  }
  EXPECT_GT(shared_bytes, 0u);
}

}  // namespace
}  // namespace subtab
