#ifndef LAKE_ML_KNN_H
#define LAKE_ML_KNN_H

/**
 * @file
 * k-nearest-neighbours classifier.
 *
 * The malware detector (§7.5) classifies processes by majority vote of
 * the 16 nearest reference points among 16,384, over feature vectors of
 * syscall frequencies and PMU counters. Brute-force distance scan — the
 * embarrassing parallelism is precisely what gives the GPU its ~1.5k×
 * advantage in Fig. 12.
 */

#include <cstdint>
#include <vector>

#include "base/logging.h"
#include "ml/matrix.h"

namespace lake::ml {

/**
 * Brute-force Euclidean k-NN over a fixed reference set.
 */
class Knn
{
  public:
    /**
     * @param dim feature dimensionality
     * @param k   neighbours voting per query
     */
    Knn(std::size_t dim, std::size_t k);

    /** Adds one labelled reference point (@p point is dim floats). */
    void add(const float *point, int label);

    /** Feature dimensionality. */
    std::size_t dim() const { return dim_; }
    /** Vote size. */
    std::size_t k() const { return k_; }
    /** Number of reference points. */
    std::size_t refCount() const { return labels_.size(); }

    /**
     * Majority label of the k nearest references to @p query, scalar
     * scan. A vote tie goes to the label with the nearest reference.
     */
    int classify(const float *query) const;

    /**
     * Classifies every row of @p queries (a strided window, see
     * ml/matrix.h MatrixView) through the batched path: one blocked
     * GEMM over the ||q-r||^2 decomposition plus a top-k pass,
     * parallel over queries (see ml/compute.h). Same voting rule as
     * classify().
     */
    std::vector<int> classifyBatch(const MatrixView &queries) const;

    /** classifyBatch() of @p n concatenated dim-float queries. */
    std::vector<int>
    classifyBatch(const float *queries, std::size_t n) const
    {
        return classifyBatch(MatrixView(queries, n, dim_, dim_));
    }

    /** FLOPs of one query (distances + selection bookkeeping). */
    double flopsPerQuery() const;

    /** Flat reference matrix (refCount x dim), for GPU upload. */
    const std::vector<float> &refs() const { return refs_; }
    /** Reference labels. */
    const std::vector<std::int32_t> &labels() const { return labels_; }

  private:
    std::size_t dim_;
    std::size_t k_;
    std::vector<float> refs_;
    std::vector<std::int32_t> labels_;
};

} // namespace lake::ml

#endif // LAKE_ML_KNN_H
