// Tests for k-means / k-means++ / medoid extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <thread>

#include "subtab/binning/binned_table.h"
#include "subtab/cluster/kmeans.h"
#include "subtab/embed/cell_model.h"
#include "subtab/embed/corpus.h"
#include "subtab/embed/word2vec.h"
#include "subtab/workload/synthetic_table.h"

// Counts operator-new calls made by threads other than the one that set
// g_alloc_owner, while g_alloc_owner is set: KMeans's restart helpers must
// run without allocating.
namespace {
std::atomic<bool> g_count_foreign_allocs{false};
std::atomic<std::thread::id> g_alloc_owner{};
std::atomic<size_t> g_foreign_allocs{0};
}  // namespace

void* operator new(size_t size) {
  if (g_count_foreign_allocs.load(std::memory_order_relaxed) &&
      std::this_thread::get_id() != g_alloc_owner.load()) {
    g_foreign_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace subtab {
namespace {

/// `clusters` well-separated Gaussian blobs in `dim` dimensions.
std::vector<float> Blobs(size_t clusters, size_t per_cluster, size_t dim,
                         uint64_t seed, double separation = 50.0) {
  Rng rng(seed);
  std::vector<float> points;
  points.reserve(clusters * per_cluster * dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t p = 0; p < per_cluster; ++p) {
      for (size_t d = 0; d < dim; ++d) {
        const double center = (d == c % dim) ? separation * (1.0 + c) : 0.0;
        points.push_back(static_cast<float>(rng.Normal(center, 1.0)));
      }
    }
  }
  return points;
}

TEST(KMeansTest, SquaredDistance) {
  const float a[] = {0, 0, 0};
  const float b[] = {1, 2, 2};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 3), 9.0);
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  const size_t per = 40;
  std::vector<float> points = Blobs(3, per, 4, 1);
  KMeansOptions options;
  options.k = 3;
  options.seed = 5;
  KMeansResult result = KMeans(points, 4, options);
  // All points of one blob share an assignment, and blobs get distinct ones.
  std::set<uint32_t> blob_labels;
  for (size_t blob = 0; blob < 3; ++blob) {
    const uint32_t label = result.assignment[blob * per];
    blob_labels.insert(label);
    for (size_t p = 0; p < per; ++p) {
      EXPECT_EQ(result.assignment[blob * per + p], label);
    }
  }
  EXPECT_EQ(blob_labels.size(), 3u);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  std::vector<float> points = Blobs(4, 30, 3, 2);
  double prev = 1e30;
  for (size_t k = 1; k <= 4; ++k) {
    KMeansOptions options;
    options.k = k;
    options.seed = 3;
    const KMeansResult result = KMeans(points, 3, options);
    EXPECT_LE(result.inertia, prev + 1e-6);
    prev = result.inertia;
  }
}

TEST(KMeansTest, KEqualsNumPointsGivesZeroInertia) {
  std::vector<float> points = {0, 0, 10, 10, 20, 20};
  KMeansOptions options;
  options.k = 3;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, SinglePoint) {
  std::vector<float> points = {1.0f, 2.0f};
  KMeansOptions options;
  options.k = 1;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_EQ(result.assignment, (std::vector<uint32_t>{0}));
  EXPECT_NEAR(result.centroids[0], 1.0f, 1e-6);
}

TEST(KMeansTest, DeterministicForSeed) {
  std::vector<float> points = Blobs(3, 20, 2, 4);
  KMeansOptions options;
  options.k = 3;
  options.seed = 17;
  KMeansResult a = KMeans(points, 2, options);
  KMeansResult b = KMeans(points, 2, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids, b.centroids);
}

TEST(KMeansTest, DuplicatePointsDoNotCrash) {
  std::vector<float> points(20, 1.0f);  // 10 identical 2-d points.
  KMeansOptions options;
  options.k = 3;
  KMeansResult result = KMeans(points, 2, options);
  EXPECT_EQ(result.assignment.size(), 10u);
}

class KMeansSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KMeansSweepTest, AssignmentIsNearestCentroid) {
  // Lloyd invariant: on convergence every point's assigned centroid is at
  // least as close as any other centroid.
  const auto [k, dim] = GetParam();
  std::vector<float> points = Blobs(k, 25, dim, 7 + k + dim);
  KMeansOptions options;
  options.k = k;
  options.max_iterations = 100;
  options.seed = 23;
  const KMeansResult result = KMeans(points, dim, options);
  const size_t n = points.size() / dim;
  for (size_t p = 0; p < n; ++p) {
    const double assigned = SquaredDistance(
        points.data() + p * dim,
        result.centroids.data() + result.assignment[p] * dim, dim);
    for (size_t c = 0; c < k; ++c) {
      const double d =
          SquaredDistance(points.data() + p * dim, result.centroids.data() + c * dim, dim);
      EXPECT_GE(d + 1e-5, assigned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, KMeansSweepTest,
                         ::testing::Combine(::testing::Values(2, 4, 7),
                                            ::testing::Values(2, 8, 16)));

TEST(MedoidTest, MedoidsAreDistinctRealPoints) {
  std::vector<float> points = Blobs(4, 15, 3, 9);
  KMeansOptions options;
  options.k = 4;
  const KMeansResult result = KMeans(points, 3, options);
  const std::vector<size_t> medoids = SelectMedoids(points, 3, result);
  EXPECT_EQ(medoids.size(), 4u);
  std::set<size_t> unique(medoids.begin(), medoids.end());
  EXPECT_EQ(unique.size(), 4u);
  for (size_t m : medoids) EXPECT_LT(m, points.size() / 3);
}

TEST(MedoidTest, MedoidsComeFromTheirClusters) {
  const size_t per = 30;
  std::vector<float> points = Blobs(3, per, 2, 10);
  KMeansOptions options;
  options.k = 3;
  const KMeansResult result = KMeans(points, 2, options);
  const std::vector<size_t> medoids = SelectMedoids(points, 2, result);
  // Each blob contributes exactly one medoid.
  std::set<size_t> blobs;
  for (size_t m : medoids) blobs.insert(m / per);
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(MedoidTest, ClusterRepresentativesConvenience) {
  std::vector<float> points = Blobs(2, 10, 2, 11);
  KMeansOptions options;
  options.k = 2;
  const std::vector<size_t> reps = ClusterRepresentatives(points, 2, options);
  EXPECT_EQ(reps.size(), 2u);
  EXPECT_NE(reps[0], reps[1]);
}

TEST(MedoidTest, KEqualsNReturnsEveryPoint) {
  std::vector<float> points = {0, 0, 5, 5, 9, 9};
  KMeansOptions options;
  options.k = 3;
  const KMeansResult result = KMeans(points, 2, options);
  std::vector<size_t> medoids = SelectMedoids(points, 2, result);
  std::sort(medoids.begin(), medoids.end());
  EXPECT_EQ(medoids, (std::vector<size_t>{0, 1, 2}));
}

TEST(KMeansTest, BlockedKernelBitIdenticalToReferenceKernel) {
  // The register-blocked assignment kernel must reproduce the pre-refactor
  // one-chain-per-centroid loop EXACTLY: centroids, assignments, inertia,
  // iteration counts, and medoids, across dimensions that exercise the
  // 8-wide, 4-wide, and scalar-tail block paths and k values around the
  // block boundaries (including duplicate points, which force distance
  // ties). This is the bit-identical-selections guarantee at its root.
  for (size_t dim : {1u, 3u, 8u, 13u, 32u}) {
    for (size_t k : {1u, 4u, 7u, 8u, 9u, 16u}) {
      std::vector<float> points = Blobs(4, 30, dim, 1000 + dim * 31 + k);
      // Duplicate a run of points to create exact ties.
      points.insert(points.end(), points.begin(),
                    points.begin() + static_cast<long>(8 * dim));
      KMeansOptions options;
      options.k = k;
      options.n_init = 2;
      options.seed = 91 + k;

      SetKMeansReferenceKernel(true);
      const KMeansResult reference = KMeans(points, dim, options);
      const std::vector<size_t> reference_medoids =
          SelectMedoids(points, dim, reference);
      SetKMeansReferenceKernel(false);
      const KMeansResult blocked = KMeans(points, dim, options);
      const std::vector<size_t> blocked_medoids =
          SelectMedoids(points, dim, blocked);

      ASSERT_EQ(blocked.assignment, reference.assignment)
          << "dim=" << dim << " k=" << k;
      ASSERT_EQ(blocked.centroids, reference.centroids);
      ASSERT_EQ(blocked.inertia, reference.inertia);  // Bitwise, not approx.
      ASSERT_EQ(blocked.iterations, reference.iterations);
      ASSERT_EQ(blocked_medoids, reference_medoids);
    }
  }
}

// ---- Differential: bounded + fanned-out KMeans vs a plain serial Lloyd. ----

/// The plain algorithm KMeans must reproduce bit for bit: restarts one after
/// another, each k-means++ seeded and then Lloyd with every distance of
/// every point computed by SquaredDistance and the ascending strict-`<`
/// scan; the lowest inertia wins, earliest on ties.
KMeansResult OracleKMeans(const std::vector<float>& points, size_t dim,
                          const KMeansOptions& options) {
  const size_t n = points.size() / dim;
  const size_t k = options.k;
  KMeansResult best;
  for (size_t init = 0; init < options.n_init; ++init) {
    Rng rng(options.seed + init * 0x9e3779b9ULL);
    KMeansResult run;
    run.centroids.assign(k * dim, 0.0f);
    std::vector<double> dist2(n, std::numeric_limits<double>::max());
    const size_t first = rng.Uniform(n);
    std::copy_n(points.data() + first * dim, dim, run.centroids.begin());
    for (size_t c = 1; c < k; ++c) {
      double total = 0.0;
      for (size_t p = 0; p < n; ++p) {
        dist2[p] = std::min(dist2[p],
                            SquaredDistance(points.data() + p * dim,
                                            run.centroids.data() + (c - 1) * dim, dim));
        total += dist2[p];
      }
      size_t chosen = n - 1;
      if (total <= 0.0) {
        chosen = rng.Uniform(n);
      } else {
        double u = rng.UniformDouble() * total;
        for (size_t p = 0; p < n; ++p) {
          u -= dist2[p];
          if (u <= 0.0) {
            chosen = p;
            break;
          }
        }
      }
      std::copy_n(points.data() + chosen * dim, dim,
                  run.centroids.begin() + c * dim);
    }
    run.assignment.assign(n, 0);
    double prev = std::numeric_limits<double>::max();
    for (size_t iter = 0; iter < options.max_iterations; ++iter) {
      run.iterations = iter + 1;
      double inertia = 0.0;
      for (size_t p = 0; p < n; ++p) {
        double nearest = 0.0;
        uint32_t nearest_c = 0;
        for (size_t c = 0; c < k; ++c) {
          const double d = SquaredDistance(points.data() + p * dim,
                                           run.centroids.data() + c * dim, dim);
          if (c == 0 || d < nearest) {
            nearest = d;
            nearest_c = static_cast<uint32_t>(c);
          }
        }
        run.assignment[p] = nearest_c;
        inertia += nearest;
      }
      run.inertia = inertia;
      std::vector<double> sums(k * dim, 0.0);
      std::vector<size_t> counts(k, 0);
      for (size_t p = 0; p < n; ++p) {
        for (size_t d = 0; d < dim; ++d) {
          sums[run.assignment[p] * dim + d] += points[p * dim + d];
        }
        ++counts[run.assignment[p]];
      }
      for (size_t c = 0; c < k; ++c) {
        if (counts[c] == 0) {
          size_t far_p = 0;
          double far_d = -1.0;
          for (size_t p = 0; p < n; ++p) {
            const double d = SquaredDistance(
                points.data() + p * dim,
                run.centroids.data() + run.assignment[p] * dim, dim);
            if (d > far_d) {
              far_d = d;
              far_p = p;
            }
          }
          std::copy_n(points.data() + far_p * dim, dim,
                      run.centroids.begin() + c * dim);
          continue;
        }
        const double inv = 1.0 / static_cast<double>(counts[c]);
        for (size_t d = 0; d < dim; ++d) {
          run.centroids[c * dim + d] = static_cast<float>(sums[c * dim + d] * inv);
        }
      }
      if (prev != std::numeric_limits<double>::max() &&
          (prev - inertia) / std::max(prev, 1e-12) < options.tolerance) {
        break;
      }
      prev = inertia;
    }
    if (init == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

/// Medoids the plain way: per cluster in order, a full scan for its nearest
/// unused assigned point, else the nearest unused point overall.
std::vector<size_t> OracleMedoids(const std::vector<float>& points, size_t dim,
                                  const KMeansResult& result) {
  const size_t n = points.size() / dim;
  const size_t k = result.centroids.size() / dim;
  std::vector<size_t> medoids;
  std::vector<char> used(n, 0);
  for (size_t c = 0; c < k; ++c) {
    const float* centroid = result.centroids.data() + c * dim;
    for (bool any_cluster : {false, true}) {
      double best = std::numeric_limits<double>::max();
      size_t best_p = n;
      for (size_t p = 0; p < n; ++p) {
        if (used[p] || (!any_cluster && result.assignment[p] != c)) continue;
        const double d = SquaredDistance(points.data() + p * dim, centroid, dim);
        if (d < best) {
          best = d;
          best_p = p;
        }
      }
      if (best_p < n) {
        used[best_p] = 1;
        medoids.push_back(best_p);
        break;
      }
    }
  }
  return medoids;
}

void ExpectMatchesOracle(const std::vector<float>& points, size_t dim,
                         const KMeansOptions& options, const std::string& label) {
  const KMeansResult oracle = OracleKMeans(points, dim, options);
  const KMeansResult got = KMeans(points, dim, options);
  ASSERT_EQ(got.assignment, oracle.assignment) << label;
  ASSERT_EQ(got.centroids, oracle.centroids) << label;
  ASSERT_EQ(got.inertia, oracle.inertia) << label;  // Bitwise, not approx.
  ASSERT_EQ(got.iterations, oracle.iterations) << label;
  ASSERT_EQ(SelectMedoids(points, dim, got), OracleMedoids(points, dim, oracle))
      << label;
}

/// Row matrices as the select stage builds them: a forge table, binned, a
/// dim-16 SGNS fit, then tuple vectors over row and column subsets.
class ForgeRowMatrices : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    using workload::ColumnDataDistribution;
    using workload::SyntheticColumnSpec;
    workload::SyntheticTableSpec spec;
    spec.num_rows = 14000;
    spec.chunk_rows = 2048;
    spec.seed = 7;
    spec.columns = {
        SyntheticColumnSpec::Numeric("amount",
                                     ColumnDataDistribution::Pareto(1.0, 1.3)),
        SyntheticColumnSpec::Numeric(
            "score", ColumnDataDistribution::NormalSkewed(50.0, 12.0, 4.0)),
        SyntheticColumnSpec::Numeric(
            "age", ColumnDataDistribution::Uniform(18.0, 90.0, 64), 0.35),
        SyntheticColumnSpec::Numeric(
            "visits", ColumnDataDistribution::Pareto(1.0, 1.5, 20), 0.2),
        SyntheticColumnSpec::Numeric(
            "rating", ColumnDataDistribution::Uniform(1.0, 5.0, 5), 0.3),
        SyntheticColumnSpec::Categorical(
            "region", ColumnDataDistribution::Uniform(0.0, 1.0, 4)),
        SyntheticColumnSpec::Categorical(
            "device", ColumnDataDistribution::Uniform(0.0, 1.0, 4), 0.5),
        SyntheticColumnSpec::Categorical(
            "plan", ColumnDataDistribution::Pareto(1.0, 1.1, 6)),
    };
    spec.num_profiles = 8;
    data_ = new workload::SyntheticTable(workload::GenerateSyntheticTable(spec));
    binned_ = new BinnedTable(BinnedTable::Compute(data_->table));
    Rng rng(42);
    const Corpus corpus = Corpus::Build(*binned_, {}, &rng);
    Word2VecOptions w2v;
    w2v.dim = 16;
    w2v.epochs = 1;
    cells_ = new CellModel(binned_, Word2VecModel::Train(corpus, w2v));
  }

  static void TearDownTestSuite() {
    delete cells_;
    delete binned_;
    delete data_;
  }

  /// `rows` distinct rows and a subset of at least two columns, drawn from
  /// `seed`.
  static std::vector<float> Matrix(size_t rows, uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> row_ids =
        rng.SampleWithoutReplacement(binned_->num_rows(), rows);
    std::sort(row_ids.begin(), row_ids.end());
    const size_t m = binned_->num_columns();
    std::vector<size_t> col_ids =
        rng.SampleWithoutReplacement(m, 2 + rng.Uniform(m - 1));
    std::sort(col_ids.begin(), col_ids.end());
    return cells_->RowMatrix(row_ids, col_ids);
  }

  static workload::SyntheticTable* data_;
  static BinnedTable* binned_;
  static CellModel* cells_;
};

workload::SyntheticTable* ForgeRowMatrices::data_ = nullptr;
BinnedTable* ForgeRowMatrices::binned_ = nullptr;
CellModel* ForgeRowMatrices::cells_ = nullptr;

TEST_F(ForgeRowMatrices, RowMatrixKeepsTupleVectorFloatOrder) {
  // Tuple vectors as Algorithm 2 line 9 defines them, one vector per row:
  // float sums over the columns in order, then times 1/|cols|. Selections
  // stay bit-identical only if RowMatrix does exactly these operations.
  const std::vector<size_t> rows = {0, 5, 13, 4000, 13999};
  const std::vector<size_t> cols = {1, 2, 6};
  std::vector<float> expected;
  for (size_t r : rows) {
    std::vector<float> acc(cells_->dim(), 0.0f);
    for (size_t c : cols) {
      const auto v = cells_->CellVector(r, c);
      for (size_t d = 0; d < acc.size(); ++d) acc[d] += v[d];
    }
    const float inv = 1.0f / static_cast<float>(cols.size());
    for (float& x : acc) x *= inv;
    expected.insert(expected.end(), acc.begin(), acc.end());
  }
  EXPECT_EQ(cells_->RowMatrix(rows, cols), expected);
  EXPECT_EQ(cells_->RowVector(13, cols),
            std::vector<float>(expected.begin() + 2 * cells_->dim(),
                               expected.begin() + 3 * cells_->dim()));
}

TEST_F(ForgeRowMatrices, KMeansBitIdenticalToSerialLloydAtServingShapes) {
  // Serving shapes: dim 16, 2k-14k rows, k from 1 to 16, with n_init 4 as
  // the row k-means runs; 2048 x k >= 2 is above the fan-out threshold.
  uint64_t seed = 1;
  for (size_t rows : {2048u, 6000u, 14000u}) {
    for (size_t k : {1u, 2u, 7u, 10u, 16u}) {
      const std::vector<float> matrix = Matrix(rows, 100 + seed);
      KMeansOptions options;
      options.k = k;
      options.n_init = 4;
      options.seed = seed++;
      ExpectMatchesOracle(matrix, 16, options,
                          "rows=" + std::to_string(rows) +
                              " k=" + std::to_string(k));
    }
  }
}

TEST_F(ForgeRowMatrices, KMeansBitIdenticalBelowFanOutThreshold) {
  // Small inputs run their restarts serially (the ~12-point column k-means
  // with n_init 10, a few-hundred-row scope); they must match too.
  for (size_t rows : {12u, 40u, 300u}) {
    for (size_t k : {1u, 5u, 10u}) {
      const std::vector<float> matrix = Matrix(rows, 7 * rows + k);
      KMeansOptions options;
      options.k = k;
      options.n_init = 10;
      options.seed = rows + k;
      ExpectMatchesOracle(matrix, 16, options,
                          "rows=" + std::to_string(rows) +
                              " k=" + std::to_string(k));
    }
  }
}

TEST(KMeansDifferentialTest, MedoidFallbackTakesAnotherClustersNearestPoint) {
  // Cluster 0 is empty (a re-seeded centroid), so its fallback takes the
  // globally nearest point, point 1, which is also cluster 1's nearest
  // member; cluster 1 must then take its next nearest member, point 0.
  const std::vector<float> points = {0, 0, 1, 1, 10, 10};
  KMeansResult result;
  result.centroids = {1.0f, 1.0f, 0.8f, 0.8f, 10.0f, 10.0f};
  result.assignment = {1, 1, 2};
  const std::vector<size_t> expected = {1, 0, 2};
  EXPECT_EQ(OracleMedoids(points, 2, result), expected);
  EXPECT_EQ(SelectMedoids(points, 2, result), expected);
}

TEST(KMeansDifferentialTest, NearDuplicatePointsFarFromOrigin) {
  // Coordinates ~1e4 with spread ~1e-3: distances sit at the float grain of
  // the coordinates, where a purely relative bound slack is not safe.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const size_t dim = 16;
    std::vector<float> points(3000 * dim);
    for (size_t i = 0; i < points.size(); ++i) {
      points[i] = static_cast<float>(1e4 + (i % dim) + rng.Normal(0.0, 1e-3));
    }
    for (size_t k : {2u, 7u, 10u}) {
      KMeansOptions options;
      options.k = k;
      options.n_init = 4;
      options.seed = seed * 11 + k;
      ExpectMatchesOracle(points, dim, options,
                          "near-dup seed=" + std::to_string(seed) +
                              " k=" + std::to_string(k));
    }
  }
}

TEST(KMeansDifferentialTest, AllIdenticalPoints) {
  const size_t dim = 16;
  std::vector<float> points(5000 * dim, 3.25f);
  for (size_t k : {1u, 2u, 10u}) {
    KMeansOptions options;
    options.k = k;
    options.n_init = 4;
    ExpectMatchesOracle(points, dim, options, "identical k=" + std::to_string(k));
  }
}

TEST(KMeansDifferentialTest, KNearDistinctCountReseedsEmptyClusters) {
  // 12 distinct points repeated 400 times: with k close to 12, clusters
  // empty out and are re-seeded at far points, teleporting centroids.
  const size_t dim = 16;
  const size_t distinct = 12;
  Rng rng(5);
  std::vector<float> base(distinct * dim);
  for (float& v : base) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> points;
  for (size_t rep = 0; rep < 400; ++rep) {
    points.insert(points.end(), base.begin(), base.end());
  }
  for (size_t k : {10u, 11u, 12u, 16u}) {
    KMeansOptions options;
    options.k = k;
    options.n_init = 4;
    options.seed = k;
    ExpectMatchesOracle(points, dim, options, "dups k=" + std::to_string(k));
  }
}

TEST(KMeansDifferentialTest, NonFinitePointsFallBackToFullScan) {
  const size_t dim = 16;
  std::vector<float> points = Blobs(4, 600, dim, 3);
  points[17] = std::numeric_limits<float>::infinity();
  KMeansOptions options;
  options.k = 4;
  options.n_init = 4;
  const KMeansResult oracle = OracleKMeans(points, dim, options);
  const KMeansResult got = KMeans(points, dim, options);
  EXPECT_EQ(got.assignment, oracle.assignment);
  EXPECT_EQ(got.iterations, oracle.iterations);
}

TEST(KMeansDifferentialTest, RestartHelpersDoNotAllocate) {
  const size_t dim = 16;
  const std::vector<float> points = Blobs(10, 400, dim, 8);
  KMeansOptions options;
  options.k = 10;
  options.n_init = 4;
  g_foreign_allocs.store(0);
  g_alloc_owner.store(std::this_thread::get_id());
  g_count_foreign_allocs.store(true);
  const KMeansResult result = KMeans(points, dim, options);
  g_count_foreign_allocs.store(false);
  EXPECT_EQ(g_foreign_allocs.load(), 0u);
  EXPECT_EQ(result.assignment.size(), 4000u);
}

}  // namespace
}  // namespace subtab
