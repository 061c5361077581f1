#include "ml/compute.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/thread_pool.h"

namespace lake::ml::compute {

namespace {

/** Rows per microkernel: one wt load feeds 4 accumulator streams. */
constexpr std::size_t kRowBlock = 4;
/** Register-tile width (floats): 4 x 16 accumulators live in SIMD regs. */
constexpr std::size_t kRegTile = 16;
/** parallelFor grain (rows) for GEMM row-block distribution. */
constexpr std::size_t kGemmGrain = 2 * kRowBlock;
/** parallelFor grain (queries) for the kNN top-k pass. */
constexpr std::size_t kKnnGrain = 8;
/** packTranspose stripe floor: columns, and floats per stripe. A
 *  31x256 LinnOS layer (7,936 floats) packs inline. */
constexpr std::size_t kPackGrain = 64;
constexpr std::size_t kPackMinFloats = std::size_t{1} << 16;

/**
 * 4-row x 16-column register-tile microkernel. The k-loop accumulates
 * the full depth into 4x16 local accumulators (vector registers after
 * vectorization), so each output element is loaded/stored exactly
 * once; each wt vector load feeds four independent accumulator
 * streams. Per (row, column) the reduction still runs over i in
 * ascending order, one product at a time — the seed scalar loop's
 * summation order — so tiling never changes results.
 */
inline void
micro4(const float *__restrict x0, const float *__restrict x1,
       const float *__restrict x2, const float *__restrict x3,
       std::size_t in, const float *__restrict wt, std::size_t out,
       std::size_t o, const float *__restrict bias,
       float *__restrict y0, float *__restrict y1, float *__restrict y2,
       float *__restrict y3)
{
    float a0[kRegTile], a1[kRegTile], a2[kRegTile], a3[kRegTile];
    for (std::size_t c = 0; c < kRegTile; ++c) {
        float bv = bias ? bias[o + c] : 0.0f;
        a0[c] = bv;
        a1[c] = bv;
        a2[c] = bv;
        a3[c] = bv;
    }
    for (std::size_t i = 0; i < in; ++i) {
        const float v0 = x0[i];
        const float v1 = x1[i];
        const float v2 = x2[i];
        const float v3 = x3[i];
        const float *__restrict wrow = wt + i * out + o;
        for (std::size_t c = 0; c < kRegTile; ++c) {
            const float wv = wrow[c];
            a0[c] += v0 * wv;
            a1[c] += v1 * wv;
            a2[c] += v2 * wv;
            a3[c] += v3 * wv;
        }
    }
    for (std::size_t c = 0; c < kRegTile; ++c) {
        y0[o + c] = a0[c];
        y1[o + c] = a1[c];
        y2[o + c] = a2[c];
        y3[o + c] = a3[c];
    }
}

/**
 * Generic tail kernel for the ragged edges (row block < 4 or column
 * tile < 16): same ascending-i accumulation, y resident in cache.
 */
inline void
tailKernel(const float *__restrict x, std::size_t nrows, std::size_t in,
           std::size_t x_stride, const float *__restrict wt,
           std::size_t out, std::size_t o0, std::size_t o1,
           const float *__restrict bias, float *__restrict y)
{
    for (std::size_t r = 0; r < nrows; ++r) {
        float *__restrict yr = y + r * out;
        for (std::size_t o = o0; o < o1; ++o)
            yr[o] = bias ? bias[o] : 0.0f;
    }
    for (std::size_t r = 0; r < nrows; ++r) {
        const float *__restrict xr = x + r * x_stride;
        float *__restrict yr = y + r * out;
        for (std::size_t i = 0; i < in; ++i) {
            const float a = xr[i];
            const float *__restrict wrow = wt + i * out;
            for (std::size_t o = o0; o < o1; ++o)
                yr[o] += a * wrow[o];
        }
    }
}

/**
 * Parallel row-block GEMM over a packed transpose: the one dense-layer
 * driver behind affine() and affinePacked().
 */
void
gemmRows(const float *x, std::size_t n, std::size_t in,
         std::size_t x_stride, const float *wt, std::size_t out,
         const float *bias, float *y)
{
    base::ThreadPool::global().parallelFor(
        0, n, kGemmGrain, [&](std::size_t b, std::size_t e) {
            gemmBlock(x + b * x_stride, e - b, in, x_stride, wt, out,
                      bias, y + b * out);
        });
}

} // namespace

void
packTranspose(const float *w, std::size_t rows, std::size_t cols,
              std::size_t ld, float *wt)
{
    LAKE_ASSERT(ld >= rows, "packTranspose ld=%zu below rows=%zu", ld,
                rows);
    // Column stripe [c0, c1) owns wt rows c0..c1-1, padding included.
    auto stripe = [&](std::size_t c0, std::size_t c1) {
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = c0; c < c1; ++c)
                wt[c * ld + r] = w[r * cols + c];
        for (std::size_t c = c0; c < c1; ++c)
            std::fill(wt + c * ld + rows, wt + (c + 1) * ld, 0.0f);
    };
    const std::size_t grain =
        std::max(kPackGrain, kPackMinFloats / std::max<std::size_t>(1, rows));
    if (cols <= grain)
        stripe(0, cols);
    else
        base::ThreadPool::global().parallelFor(0, cols, grain, stripe);
}

void
gemmBlock(const float *x, std::size_t n, std::size_t in,
          std::size_t x_stride, const float *wt, std::size_t out,
          const float *bias, float *y)
{
    const std::size_t full_rows = n - n % kRowBlock;
    const std::size_t full_cols = out - out % kRegTile;

    for (std::size_t r = 0; r < full_rows; r += kRowBlock) {
        const float *x0 = x + r * x_stride;
        float *y0 = y + r * out;
        for (std::size_t o = 0; o < full_cols; o += kRegTile)
            micro4(x0, x0 + x_stride, x0 + 2 * x_stride,
                   x0 + 3 * x_stride, in, wt, out, o, bias, y0,
                   y0 + out, y0 + 2 * out, y0 + 3 * out);
        if (full_cols < out)
            tailKernel(x0, kRowBlock, in, x_stride, wt, out, full_cols,
                       out, bias, y0);
    }
    if (full_rows < n)
        tailKernel(x + full_rows * x_stride, n - full_rows, in,
                   x_stride, wt, out, 0, out, bias,
                   y + full_rows * out);
}

void
affine(const float *x, std::size_t n, std::size_t in,
       std::size_t x_stride, const float *w, std::size_t out,
       const float *bias, float *y)
{
    std::vector<float> wt(in * out);
    packTranspose(w, out, in, out, wt.data());
    gemmRows(x, n, in, x_stride, wt.data(), out, bias, y);
}

std::size_t
padTile(std::size_t out)
{
    return (out + kRegTile - 1) / kRegTile * kRegTile;
}

void
affinePacked(const float *x, std::size_t n, std::size_t in,
             std::size_t x_stride, const float *wt, std::size_t out,
             const float *bias, float *y)
{
    LAKE_ASSERT(out % kRegTile == 0,
                "affinePacked out=%zu is not tile-padded (see padTile)",
                out);
    gemmRows(x, n, in, x_stride, wt, out, bias, y);
}

void
knnNeighbors(const float *queries, std::size_t n, std::size_t dim,
             std::size_t q_stride, const float *refs, std::size_t n_refs,
             std::size_t k, Neighbor *out)
{
    LAKE_ASSERT(k >= 1 && k <= n_refs,
                "knnNeighbors k=%zu outside 1..%zu", k, n_refs);
    base::ThreadPool &pool = base::ThreadPool::global();

    // ||r||^2 per reference, each summed independently in index order.
    std::vector<float> ref_n2(n_refs);
    pool.parallelFor(0, n_refs, 256, [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r) {
            const float *__restrict p = refs + r * dim;
            float s = 0.0f;
            for (std::size_t i = 0; i < dim; ++i)
                s += p[i] * p[i];
            ref_n2[r] = s;
        }
    });

    // refs^T packed once: the cross-term GEMM streams it unit-stride.
    std::vector<float> rt(dim * n_refs);
    packTranspose(refs, n_refs, dim, n_refs, rt.data());

    pool.parallelFor(0, n, kKnnGrain, [&](std::size_t qb, std::size_t qe) {
        std::size_t rows = qe - qb;
        // Cross terms q.r for this query block: one GEMM tile.
        std::vector<float> dots(rows * n_refs);
        gemmBlock(queries + qb * q_stride, rows, dim, q_stride,
                  rt.data(), n_refs, nullptr, dots.data());

        // (d2, index) max-heap of the best k, scanned in index order
        // with strict comparison — identical selection (including tie
        // handling) to the scalar reference scan.
        std::vector<Neighbor> best;
        for (std::size_t q = qb; q < qe; ++q) {
            const float *__restrict qp = queries + q * q_stride;
            float q_n2 = 0.0f;
            for (std::size_t i = 0; i < dim; ++i)
                q_n2 += qp[i] * qp[i];

            const float *row = dots.data() + (q - qb) * n_refs;
            best.clear();
            best.reserve(k + 1);
            auto worse = [](const Neighbor &a, const Neighbor &b) {
                return a.d2 < b.d2 ||
                       (a.d2 == b.d2 && a.index < b.index);
            };
            for (std::size_t r = 0; r < n_refs; ++r) {
                float d2 = q_n2 + ref_n2[r] - 2.0f * row[r];
                Neighbor cand{d2, static_cast<std::int32_t>(r)};
                if (best.size() < k) {
                    best.push_back(cand);
                    std::push_heap(best.begin(), best.end(), worse);
                } else if (worse(cand, best.front())) {
                    std::pop_heap(best.begin(), best.end(), worse);
                    best.back() = cand;
                    std::push_heap(best.begin(), best.end(), worse);
                }
            }
            std::sort_heap(best.begin(), best.end(), worse);
            std::copy(best.begin(), best.end(), out + q * k);
        }
    });
}

} // namespace lake::ml::compute
