#include "subtab/cluster/kmeans.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <system_error>
#include <thread>

#include "subtab/util/parallel.h"

namespace subtab {

double SquaredDistance(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = static_cast<double>(a[d]) - static_cast<double>(b[d]);
    acc += diff * diff;
  }
  return acc;
}

namespace {

/// Restarts fan out across threads only when one restart's assignment step
/// (points x k x dim) reaches this size; below it a thread's start-up costs
/// more than the restart, so e.g. the ~12-point column k-means stays serial.
constexpr size_t kMinParallelWork = size_t{1} << 16;

/// Hamerly bounds run only with at least this many points per cluster: each
/// bounded iteration pays ~k^2 centroid-to-centroid distances, which small
/// inputs (the ~12-point column k-means) do not win back.
constexpr size_t kMinPointsPerCluster = 8;

/// Safety factor on the float error bound behind the Hamerly skip test.
constexpr double kSlackFactor = 16.0;

/// Distances from one point to B centroids, accumulated side by side in B
/// compile-time accumulators (held in registers). Each centroid's sum adds
/// the exact same terms in the exact same order as SquaredDistance — only
/// the B *independent* chains interleave — so every output is bit-identical
/// to the one-at-a-time loop, while the B chains pipeline instead of
/// serializing on a single double-add latency chain. `cents` is the first of
/// B consecutive row-major centroids.
template <int B>
inline void DistanceBlock(const float* point, const double* cents_t,
                          size_t stride, size_t dim, double* out) {
  double acc[B] = {};
  for (size_t d = 0; d < dim; ++d) {
    const double pv = static_cast<double>(point[d]);
    const double* row = cents_t + d * stride;  // B contiguous centroids.
    for (int j = 0; j < B; ++j) {
      const double diff = pv - row[j];
      acc[j] += diff * diff;
    }
  }
  for (int j = 0; j < B; ++j) out[j] = acc[j];
}

/// Distances from `point` to all k centroids into `out`, via register
/// blocks of 8/4 with a scalar tail. `cents_t` holds the centroids
/// pre-widened to double (float -> double conversion is exact, so widening
/// once instead of per term changes nothing) and transposed to [dim][k] so
/// the block inner loop reads contiguous doubles the compiler can vectorize
/// lane-per-centroid (no reassociation within any chain); the result is
/// bit-identical to calling SquaredDistance per float centroid.
inline void DistancesToCentroids(const float* point, const double* cents_t,
                                 size_t k, size_t dim, double* out) {
  size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    DistanceBlock<8>(point, cents_t + c, k, dim, out + c);
  }
  for (; c + 4 <= k; c += 4) {
    DistanceBlock<4>(point, cents_t + c, k, dim, out + c);
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      const double diff = static_cast<double>(point[d]) - cents_t[d * k + c];
      acc += diff * diff;
    }
    out[c] = acc;
  }
}

/// SquaredDistance of kLanes (a, b) pairs at once: independent chains, each
/// adding the same terms in the same order as SquaredDistance, so every
/// result is bit-identical while the chains overlap instead of each waiting
/// on its own double-add latency. Callers pad a short tail by repeating the
/// last pair.
constexpr size_t kLanes = 4;
inline void SquaredDistanceLanes(const float* const* a, const float* const* b,
                                 size_t dim, double* out) {
  double acc[kLanes] = {};
  for (size_t d = 0; d < dim; ++d) {
    for (size_t j = 0; j < kLanes; ++j) {
      const double diff =
          static_cast<double>(a[j][d]) - static_cast<double>(b[j][d]);
      acc[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < kLanes; ++j) out[j] = acc[j];
}

/// k-means++ seeding into `centroids` (k x dim): first center uniform, then
/// D^2-weighted. `dist2` is num_points of scratch.
void PlusPlusInit(const std::vector<float>& points, size_t dim,
                  size_t num_points, size_t k, Rng* rng, float* centroids,
                  double* dist2) {
  std::fill_n(dist2, num_points, std::numeric_limits<double>::max());

  const size_t first = rng->Uniform(num_points);
  std::copy_n(points.data() + first * dim, dim, centroids);

  for (size_t c = 1; c < k; ++c) {
    const float* last = centroids + (c - 1) * dim;
    const float* lasts[kLanes];
    std::fill_n(lasts, kLanes, last);
    double total = 0.0;
    for (size_t p = 0; p < num_points; p += kLanes) {
      const float* ps[kLanes];
      for (size_t j = 0; j < kLanes; ++j) {
        ps[j] = points.data() + std::min(p + j, num_points - 1) * dim;
      }
      double d[kLanes];
      SquaredDistanceLanes(ps, lasts, dim, d);
      for (size_t j = 0; j < kLanes && p + j < num_points; ++j) {
        dist2[p + j] = std::min(dist2[p + j], d[j]);
        total += dist2[p + j];
      }
    }
    size_t chosen;
    if (total <= 0.0) {
      // All remaining points coincide with chosen centers.
      chosen = rng->Uniform(num_points);
    } else {
      double u = rng->UniformDouble() * total;
      chosen = num_points - 1;
      for (size_t p = 0; p < num_points; ++p) {
        u -= dist2[p];
        if (u <= 0.0) {
          chosen = p;
          break;
        }
      }
    }
    std::copy_n(points.data() + chosen * dim, dim, centroids + c * dim);
  }
}

/// One thread's scratch for the restarts it runs, sized by the calling
/// thread before any restart starts (like each restart's KMeansResult), so
/// restarts on helper threads never allocate: a thread that mallocs gets
/// its own allocator arena, which outlives the thread.
struct Workspace {
  Workspace(size_t num_points, size_t k, size_t dim)
      : bound(num_points),
        sums(k * dim),
        counts(k),
        acc(k),
        cents_t(k * dim),
        old_centroids(k * dim),
        half_gap(k) {}

  /// k-means++ D^2 weights during seeding; afterwards each point's Hamerly
  /// lower bound on its distance to every centroid but its own.
  std::vector<double> bound;
  std::vector<double> sums;
  std::vector<size_t> counts;
  std::vector<double> acc;            // Per-centroid distance sums.
  std::vector<double> cents_t;        // Widened + transposed centroids.
  std::vector<float> old_centroids;   // Centroids before the update step.
  std::vector<double> half_gap;       // Half the distance to the nearest
                                      // other centroid, per centroid.
};

/// Upper bound on any distance between two points of the box that holds
/// every input point (and hence every centroid, each being a mean of or a
/// copy of input points), or +inf when a coordinate is not finite — which
/// turns the Hamerly skip off, since NaN distances tie-break in ways only
/// the full scan reproduces.
double DistanceCeiling(const std::vector<float>& points, size_t dim) {
  double max_abs = 0.0;
  for (float x : points) {
    if (!std::isfinite(x)) return std::numeric_limits<double>::infinity();
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(x)));
  }
  return 2.0 * max_abs * std::sqrt(static_cast<double>(dim));
}

/// One k-means++ seeding plus Lloyd iterations into `result`, whose
/// vectors are already sized.
///
/// The assignment step is Hamerly's ("Making k-means even faster", SDM
/// 2010) from the second iteration on: a point whose own centroid is closer
/// than both half the gap from that centroid to its nearest other centroid
/// and the point's lower bound on every other centroid keeps its assignment
/// without the k-1 other distances. The skip needs a strict margin that
/// covers every rounding error in the bounds, so that exactly where it
/// fires the full scan would have found a *strictly* nearest own centroid —
/// the same winner, whatever the tie-breaking — and the own distance is
/// SquaredDistance's, the same double the full scan produces. Hence
/// assignment, centroids, inertia and iteration count are bit-identical to
/// the full scan on every iteration.
///
/// The margin: a computed squared distance sums `dim` non-negative rounded
/// terms, so it is within a relative (dim + 3) * 2^-53 of the exact value,
/// and comparing distances with half-gaps needs a few such relative errors.
/// The lower bounds also pick up an absolute error each iteration as
/// centroid moves are subtracted from them; it scales with the coordinates,
/// not with the distances (near-duplicate points far from the origin), and
/// `ceiling` bounds it. Hence slack = rel_slack * (d + (iter + 1) * ceiling)
/// with rel_slack = kSlackFactor * (dim + 3) * DBL_EPSILON.
void RunRestart(const std::vector<float>& points, size_t dim,
                const KMeansOptions& options, uint64_t seed, bool use_bounds,
                double ceiling, Workspace* ws, KMeansResult* out) {
  const size_t num_points = points.size() / dim;
  const size_t k = options.k;
  KMeansResult& result = *out;
  double* bound = ws->bound.data();

  Rng rng(seed);
  PlusPlusInit(points, dim, num_points, k, &rng, result.centroids.data(),
               bound);
  std::fill(result.assignment.begin(), result.assignment.end(), 0);

  const double rel_slack =
      kSlackFactor * static_cast<double>(dim + 3) * DBL_EPSILON;
  double* acc = ws->acc.data();
  double* cents_t = ws->cents_t.data();
  // Largest and second-largest centroid move of the last update step, and
  // the centroid that made the largest.
  double max_move = 0.0;
  double second_move = 0.0;
  size_t max_mover = 0;
  double prev_inertia = std::numeric_limits<double>::max();

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    double inertia = 0.0;
    for (size_t c = 0; c < k; ++c) {
      for (size_t d = 0; d < dim; ++d) {
        cents_t[d * k + c] = static_cast<double>(result.centroids[c * dim + d]);
      }
    }
    const bool bounded = use_bounds && iter > 0;
    if (bounded) {
      for (size_t c = 0; c < k; ++c) {
        double nearest = std::numeric_limits<double>::infinity();
        for (size_t o = 0; o < k; ++o) {
          if (o == c) continue;
          nearest = std::min(
              nearest, SquaredDistance(result.centroids.data() + c * dim,
                                       result.centroids.data() + o * dim, dim));
        }
        ws->half_gap[c] = 0.5 * std::sqrt(nearest);
      }
    }
    const double abs_slack =
        rel_slack * static_cast<double>(iter + 1) * ceiling;
    double own_d2[kLanes];
    for (size_t p = 0; p < num_points; ++p) {
      const float* point = points.data() + p * dim;
      const size_t lane = p % kLanes;
      if (bounded) {
        if (lane == 0) {
          // Own-centroid distances of the next kLanes points at once.
          const float* ps[kLanes];
          const float* cs[kLanes];
          for (size_t j = 0; j < kLanes; ++j) {
            const size_t q = std::min(p + j, num_points - 1);
            ps[j] = points.data() + q * dim;
            cs[j] = result.centroids.data() + result.assignment[q] * dim;
          }
          SquaredDistanceLanes(ps, cs, dim, own_d2);
        }
        const uint32_t own = result.assignment[p];
        bound[p] -= own == max_mover ? second_move : max_move;
        const double own_d = std::sqrt(own_d2[lane]);
        if (own_d + rel_slack * own_d + abs_slack <
            std::max(ws->half_gap[own], bound[p])) {
          inertia += own_d2[lane];
          continue;
        }
      }
      // Full scan: all k distances via the register-blocked kernel
      // (bit-identical values, see DistanceBlock), then the ascending
      // strict-`<` scan picks the winner; the runner-up seeds the bound.
      DistancesToCentroids(point, cents_t, k, dim, acc);
      double best = acc[0];
      double second = std::numeric_limits<double>::infinity();
      uint32_t best_c = 0;
      for (size_t c = 1; c < k; ++c) {
        if (acc[c] < best) {
          second = best;
          best = acc[c];
          best_c = static_cast<uint32_t>(c);
        } else if (acc[c] < second) {
          second = acc[c];
        }
      }
      result.assignment[p] = best_c;
      if (use_bounds) bound[p] = std::sqrt(second);
      inertia += best;
    }
    if (use_bounds) {
      std::copy(result.centroids.begin(), result.centroids.end(),
                ws->old_centroids.begin());
    }
    result.inertia = inertia;

    // Update step.
    std::vector<double>& sums = ws->sums;
    std::vector<size_t>& counts = ws->counts;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t p = 0; p < num_points; ++p) {
      const uint32_t c = result.assignment[p];
      const float* point = points.data() + p * dim;
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += point[d];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at the point farthest from its centroid.
        size_t far_p = 0;
        double far_d = -1.0;
        for (size_t p = 0; p < num_points; ++p) {
          const double d = SquaredDistance(
              points.data() + p * dim,
              result.centroids.data() + result.assignment[p] * dim, dim);
          if (d > far_d) {
            far_d = d;
            far_p = p;
          }
        }
        std::copy_n(points.data() + far_p * dim, dim,
                    result.centroids.begin() + c * dim);
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c * dim + d] = static_cast<float>(sums[c * dim + d] * inv);
      }
    }

    // Convergence on relative inertia improvement.
    if (prev_inertia != std::numeric_limits<double>::max()) {
      const double denom = std::max(prev_inertia, 1e-12);
      if ((prev_inertia - inertia) / denom < options.tolerance) break;
    }
    prev_inertia = inertia;

    if (use_bounds) {
      max_move = second_move = 0.0;
      for (size_t c = 0; c < k; ++c) {
        const double move = std::sqrt(
            SquaredDistance(ws->old_centroids.data() + c * dim,
                            result.centroids.data() + c * dim, dim));
        if (move > max_move) {
          second_move = max_move;
          max_move = move;
          max_mover = c;
        } else if (move > second_move) {
          second_move = move;
        }
      }
    }
  }
}

}  // namespace

KMeansResult KMeans(const std::vector<float>& points, size_t dim,
                    const KMeansOptions& options) {
  SUBTAB_CHECK(options.n_init >= 1);
  SUBTAB_CHECK(dim > 0);
  SUBTAB_CHECK(points.size() % dim == 0);
  const size_t num_points = points.size() / dim;
  const size_t k = options.k;
  SUBTAB_CHECK(k >= 1 && k <= num_points);

  const bool use_bounds = num_points >= kMinPointsPerCluster * k;
  const double ceiling = use_bounds ? DistanceCeiling(points, dim) : 0.0;
  const size_t n_init = options.n_init;
  const bool fan_out = num_points * k * dim >= kMinParallelWork;
  const size_t threads = fan_out ? std::min(n_init, HardwareThreads()) : 1;
  std::vector<KMeansResult> runs(n_init);
  for (KMeansResult& run : runs) {
    run.centroids.resize(k * dim);
    run.assignment.resize(num_points);
  }
  std::vector<Workspace> spaces;
  spaces.reserve(threads);
  for (size_t t = 0; t < threads; ++t) spaces.emplace_back(num_points, k, dim);

  // Restarts are independent; each helper takes every threads-th one and
  // the caller runs share 0. The winner is picked below in init order, so
  // the result is the same for any thread count.
  const auto run_share = [&](size_t share) {
    for (size_t i = share; i < n_init; i += threads) {
      RunRestart(points, dim, options, options.seed + i * 0x9e3779b9ULL,
                 use_bounds, ceiling, &spaces[share], &runs[i]);
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (size_t share = 1; share < threads; ++share) {
      try {
        helpers.emplace_back(run_share, share);
      } catch (const std::system_error&) {
        run_share(share);  // No thread to be had (e.g. EAGAIN): run inline.
      }
    }
    run_share(0);
  }  // Joins the helpers.

  size_t best = 0;
  for (size_t i = 1; i < n_init; ++i) {
    if (runs[i].inertia < runs[best].inertia) best = i;
  }
  return std::move(runs[best]);
}

std::vector<size_t> SelectMedoids(const std::vector<float>& points, size_t dim,
                                  const KMeansResult& result) {
  const size_t num_points = points.size() / dim;
  const size_t k = result.centroids.size() / dim;
  SUBTAB_CHECK(k <= num_points);

  // One pass: each cluster's nearest assigned point (ascending p, strict
  // `<`, so the first of equally near points).
  std::vector<double> nearest_d(k, std::numeric_limits<double>::max());
  std::vector<size_t> nearest_p(k, num_points);  // Sentinel: empty cluster.
  for (size_t p = 0; p < num_points; ++p) {
    const uint32_t c = result.assignment[p];
    if (c >= k) continue;
    const double d = SquaredDistance(points.data() + p * dim,
                                     result.centroids.data() + c * dim, dim);
    if (d < nearest_d[c]) {
      nearest_d[c] = d;
      nearest_p[c] = p;
    }
  }

  std::vector<size_t> medoids;
  medoids.reserve(k);
  std::vector<char> used(num_points, 0);
  for (size_t c = 0; c < k; ++c) {
    const float* centroid = result.centroids.data() + c * dim;
    double best = std::numeric_limits<double>::max();
    size_t best_p = nearest_p[c];
    if (best_p < num_points && used[best_p]) {
      // An earlier empty cluster's fallback took this cluster's nearest
      // point: take the nearest of its unused points instead.
      best_p = num_points;
      for (size_t p = 0; p < num_points; ++p) {
        if (used[p] || result.assignment[p] != c) continue;
        const double d = SquaredDistance(points.data() + p * dim, centroid, dim);
        if (d < best) {
          best = d;
          best_p = p;
        }
      }
    }
    if (best_p == num_points) {
      // Empty (or fully used) cluster: fall back to the globally nearest
      // unused point so we still return k distinct representatives.
      for (size_t p = 0; p < num_points; ++p) {
        if (used[p]) continue;
        const double d = SquaredDistance(points.data() + p * dim, centroid, dim);
        if (d < best) {
          best = d;
          best_p = p;
        }
      }
    }
    SUBTAB_CHECK(best_p < num_points);
    used[best_p] = 1;
    medoids.push_back(best_p);
  }
  return medoids;
}

std::vector<size_t> ClusterRepresentatives(const std::vector<float>& points,
                                           size_t dim, const KMeansOptions& options) {
  const KMeansResult result = KMeans(points, dim, options);
  return SelectMedoids(points, dim, result);
}

}  // namespace subtab
