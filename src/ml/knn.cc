#include "ml/knn.h"

#include <algorithm>
#include <map>
#include <vector>

#include "ml/compute.h"

namespace lake::ml {

namespace {

/** Heap order: front = farthest candidate, ties to the higher index. */
bool
nearer(const compute::Neighbor &a, const compute::Neighbor &b)
{
    return a.d2 < b.d2 || (a.d2 == b.d2 && a.index < b.index);
}

/**
 * Majority vote over @p k neighbours sorted by ascending distance.
 * A vote tie is broken by nearest neighbour: the tied label whose
 * closest reference is nearer wins (and a residual exact-distance tie
 * falls to the lower reference index, since that orders the sort).
 */
int
voteNearest(const compute::Neighbor *nb, std::size_t k,
            const std::vector<std::int32_t> &labels)
{
    // votes and best (lowest) rank per label; nb is sorted, so the
    // first occurrence of a label is its nearest reference.
    std::map<std::int32_t, std::pair<std::size_t, std::size_t>> tally;
    for (std::size_t i = 0; i < k; ++i) {
        std::int32_t label = labels[nb[i].index];
        auto [it, fresh] = tally.try_emplace(label, 0, i);
        ++it->second.first;
        (void)fresh;
    }
    std::int32_t winner = labels[nb[0].index];
    std::size_t winner_votes = 0, winner_rank = k;
    for (const auto &[label, vr] : tally) {
        auto [votes, rank] = vr;
        if (votes > winner_votes ||
            (votes == winner_votes && rank < winner_rank)) {
            winner = label;
            winner_votes = votes;
            winner_rank = rank;
        }
    }
    return winner;
}

} // namespace

Knn::Knn(std::size_t dim, std::size_t k) : dim_(dim), k_(k)
{
    LAKE_ASSERT(dim > 0 && k > 0, "knn needs positive dim and k");
}

void
Knn::add(const float *point, int label)
{
    refs_.insert(refs_.end(), point, point + dim_);
    labels_.push_back(label);
}

int
Knn::classify(const float *query) const
{
    LAKE_ASSERT(!labels_.empty(), "knn classify with no references");
    std::size_t k = std::min(k_, labels_.size());

    // Scalar reference scan (the oracle for the batched path): direct
    // squared distances, max-heap of the k best seen so far.
    std::vector<compute::Neighbor> best;
    best.reserve(k + 1);
    for (std::size_t r = 0; r < labels_.size(); ++r) {
        const float *ref = refs_.data() + r * dim_;
        float d2 = 0.0f;
        for (std::size_t i = 0; i < dim_; ++i) {
            float diff = query[i] - ref[i];
            d2 += diff * diff;
        }
        compute::Neighbor cand{d2, static_cast<std::int32_t>(r)};
        if (best.size() < k) {
            best.push_back(cand);
            std::push_heap(best.begin(), best.end(), nearer);
        } else if (nearer(cand, best.front())) {
            std::pop_heap(best.begin(), best.end(), nearer);
            best.back() = cand;
            std::push_heap(best.begin(), best.end(), nearer);
        }
    }
    std::sort_heap(best.begin(), best.end(), nearer);
    return voteNearest(best.data(), k, labels_);
}

std::vector<int>
Knn::classifyBatch(const MatrixView &queries) const
{
    LAKE_ASSERT(!labels_.empty(), "knn classify with no references");
    if (queries.rows() == 0)
        return {};
    LAKE_ASSERT(queries.cols() == dim_,
                "knn view width %zu != dim %zu", queries.cols(), dim_);
    std::size_t n = queries.rows();
    std::size_t k = std::min(k_, labels_.size());

    // One GEMM (||q-r||^2 decomposition) plus a top-k pass per query,
    // parallel over queries — see compute::knnNeighbors.
    std::vector<compute::Neighbor> nb(n * k);
    compute::knnNeighbors(queries.data(), n, dim_, queries.stride(),
                          refs_.data(), labels_.size(), k, nb.data());

    std::vector<int> out(n);
    for (std::size_t q = 0; q < n; ++q)
        out[q] = voteNearest(nb.data() + q * k, k, labels_);
    return out;
}

double
Knn::flopsPerQuery() const
{
    // 3 ops per dimension per reference (sub, mul, add).
    return 3.0 * static_cast<double>(dim_) *
           static_cast<double>(labels_.size());
}

} // namespace lake::ml
