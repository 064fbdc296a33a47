#ifndef SUBTAB_CLUSTER_KMEANS_H_
#define SUBTAB_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "subtab/util/rng.h"

/// \file kmeans.h
/// Lloyd's k-means with k-means++ seeding — the clustering step of
/// Algorithm 2 (lines 11 and 16). SubTab displays *actual* rows/columns, so
/// alongside the centroids we extract medoids: the real point nearest each
/// centroid, guaranteed distinct, which become the selected rows/columns.
///
/// Two speed-ups leave every output bit-identical to plain serial Lloyd
/// (cluster_test pins this against an oracle). The assignment step keeps
/// Hamerly's triangle-inequality bounds (SDM 2010) and skips a point's other
/// k-1 distances when the bounds, with a float-error margin, prove its own
/// centroid strictly nearest. The `n_init` restarts of a large enough input
/// run concurrently on up to HardwareThreads() threads, and the winner is
/// picked in restart order, so the result is the same for any thread count.

namespace subtab {

struct KMeansOptions {
  size_t k = 1;
  size_t max_iterations = 50;
  /// Stop when the relative inertia improvement falls below this.
  double tolerance = 1e-6;
  /// Independent k-means++ restarts; the lowest-inertia run wins (sklearn's
  /// KMeans, which the paper uses, defaults to 10).
  size_t n_init = 1;
  uint64_t seed = 42;
};

struct KMeansResult {
  std::vector<float> centroids;      ///< Row-major k x dim.
  std::vector<uint32_t> assignment;  ///< Cluster of each input point.
  double inertia = 0.0;              ///< Sum of squared distances.
  size_t iterations = 0;
};

/// Clusters `num_points` points of dimension `dim` stored row-major in
/// `points`. Requires 1 <= k <= num_points.
KMeansResult KMeans(const std::vector<float>& points, size_t dim,
                    const KMeansOptions& options);

/// For each cluster, the index of the point nearest its centroid ("centroid
/// selection", Algorithm 2 lines 12/17). The returned k indices are distinct.
std::vector<size_t> SelectMedoids(const std::vector<float>& points, size_t dim,
                                  const KMeansResult& result);

/// Convenience: cluster and return medoid indices directly.
std::vector<size_t> ClusterRepresentatives(const std::vector<float>& points,
                                           size_t dim, const KMeansOptions& options);

/// Squared Euclidean distance between two dim-vectors.
double SquaredDistance(const float* a, const float* b, size_t dim);

}  // namespace subtab

#endif  // SUBTAB_CLUSTER_KMEANS_H_
