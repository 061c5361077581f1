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
/** GEMM row-chunk floor: rows, and multiply-adds per chunk. Below
 *  the latter a chunk costs the pool more to hand off than it saves;
 *  a LinnOS training batch (64 rows, 31x256 or 256x256) runs inline. */
constexpr std::size_t kGemmGrain = 2 * kRowBlock;
constexpr std::size_t kGemmMinMacs = std::size_t{1} << 22;
/** parallelFor grain (queries) for the kNN top-k pass. */
constexpr std::size_t kKnnGrain = 8;
/** packTranspose stripe floor: columns, and floats per stripe. A
 *  31x256 LinnOS layer (7,936 floats) packs inline. */
constexpr std::size_t kPackGrain = 64;
constexpr std::size_t kPackMinFloats = std::size_t{1} << 16;
/** packTranspose source rows per panel: 16 floats, one cache line of
 *  every output row. */
constexpr std::size_t kPackPanel = 16;

/**
 * acc + a * b, as one fused multiply-add wherever the target has a
 * fast one, else as a multiply then an add. Every GEMM accumulation
 * goes through here, so each output element is the same chain of
 * roundings whichever kernel (and loop shape) computes it: left to
 * contraction, GCC fuses some loop shapes and splits others into a
 * vector multiply and a scalar add.
 */
inline float
fmadd(float a, float b, float acc)
{
#if defined(__FP_FAST_FMAF)
    return __builtin_fmaf(a, b, acc);
#else
    return acc + a * b;
#endif
}

/**
 * 4-row x 16-column register-tile microkernel for a deep layer's full
 * row blocks on targets without AVX-512 (see kShallowDepth). The
 * k-loop accumulates the full depth into 4x16 local accumulators
 * (vector registers after vectorization), so each output element is
 * loaded/stored exactly once; each wt vector load feeds four
 * independent accumulator streams. Per (row, column) the reduction
 * still runs over i in ascending order, one fmadd at a time — the seed
 * scalar loop's summation order — so tiling never changes results.
 * Kept apart from microRows and inlined into gemmBlock's column
 * sweep: there a 4-row instance of microRows (a call per 16-column
 * tile) ran deep layers slower.
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
            a0[c] = fmadd(v0, wv, a0[c]);
            a1[c] = fmadd(v1, wv, a1[c]);
            a2[c] = fmadd(v2, wv, a2[c]);
            a3[c] = fmadd(v3, wv, a3[c]);
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
 * Accumulator floats one microRows call may hold in registers: 16 of
 * AVX-512's 32 vector registers, else 8 of 16 (AVX2).
 */
#if defined(__AVX512F__)
constexpr std::size_t kSweepAccFloats = 16 * 16;
#else
constexpr std::size_t kSweepAccFloats = 8 * 8;
#endif

/** The bias tile of a bias-free GEMM: microRows always reads one. */
alignas(64) constexpr float kZeroBias[kSweepAccFloats] = {};

/**
 * micro4's accumulation for R = 1..4 rows over W columns (a multiple
 * of the 16-float tile): R x W local accumulators, i ascending, one
 * fmadd at a time, so every element is the same rounding chain micro4
 * computes. Runs a batch's 1-3 row tail, and the full row blocks of a
 * layer up to kShallowDepth inputs (every layer on AVX-512). @p wt,
 * @p bias and @p y point at the tile's first column; @p bias is never
 * null (W floats). Row r reads x_r and writes y_r (rows past R are
 * null); wt row i starts at wt + i * ld. One restrict pointer and one
 * named accumulator array per row (not a stride, not an R x W array),
 * a call rather than inlined, the c-loops unrolled whole and the
 * i-loop not at all: otherwise GCC 12 adds a scalar path for
 * overlapping rows, leaves some instances' accumulators in memory
 * (all of them at -O2) or their loops scalar.
 */
template <std::size_t R, std::size_t W>
[[gnu::noinline]] void
microRows(const float *__restrict x0, const float *__restrict x1,
          const float *__restrict x2, const float *__restrict x3,
          std::size_t in, const float *__restrict wt, std::size_t ld,
          const float *__restrict bias, float *__restrict y0,
          float *__restrict y1, float *__restrict y2,
          float *__restrict y3)
{
    static_assert(R >= 1 && R <= kRowBlock && W % kRegTile == 0);
    float a0[W], a1[W], a2[W], a3[W];
#pragma GCC unroll 256
    for (std::size_t c = 0; c < W; ++c) {
        a0[c] = bias[c];
        a1[c] = bias[c];
        a2[c] = bias[c];
        a3[c] = bias[c];
    }
#pragma GCC unroll 1
    for (std::size_t i = 0; i < in; ++i) {
        const float *__restrict wrow = wt + i * ld;
        const float v0 = x0[i];
        const float v1 = R > 1 ? x1[i] : 0.0f;
        const float v2 = R > 2 ? x2[i] : 0.0f;
        const float v3 = R > 3 ? x3[i] : 0.0f;
#pragma GCC unroll 256
        for (std::size_t c = 0; c < W; ++c) {
            const float wv = wrow[c];
            a0[c] = fmadd(v0, wv, a0[c]);
            if constexpr (R > 1)
                a1[c] = fmadd(v1, wv, a1[c]);
            if constexpr (R > 2)
                a2[c] = fmadd(v2, wv, a2[c]);
            if constexpr (R > 3)
                a3[c] = fmadd(v3, wv, a3[c]);
        }
    }
#pragma GCC unroll 256
    for (std::size_t c = 0; c < W; ++c) {
        y0[c] = a0[c];
        if constexpr (R > 1)
            y1[c] = a1[c];
        if constexpr (R > 2)
            y2[c] = a2[c];
        if constexpr (R > 3)
            y3[c] = a3[c];
    }
}

/**
 * Columns per microRows call for R rows: the widest power-of-two
 * multiple of the tile whose R x W accumulators fit kSweepAccFloats
 * (4 x 64 on AVX-512, 4 x 16 on AVX2). Each call's chains are as deep
 * as the layer's input, and a shallow layer (LinnOS's 31 inputs) is
 * bound by that chain's FMA latency once per call, so fewer, wider
 * calls win: a 1-row 31->256 layer on single tiles ran slower than
 * the scalar loop it replaced.
 */
template <std::size_t R>
constexpr std::size_t kSweepCols = [] {
    std::size_t w = kRegTile;
    while (2 * w * R <= kSweepAccFloats)
        w *= 2;
    return w;
}();

/**
 * Deepest layer (input width) whose full 4-row blocks run on
 * microRows<4, kSweepCols<4>> rather than micro4. Measured on
 * single-threaded gemmBlock calls of 32 rows (bench/micro_primitives
 * BM_GemmShallow shapes, Release):
 *  - AVX-512, the 4 x 64 tile: faster at every depth tried, 16 to
 *    1024 (31->256 8.2 -> 3.2 us, 256->256 51 -> 25 us, 1024->1024
 *    2.5 -> 2.0 ms; BM_GemmBlocked256 547 -> 347 us), so no depth
 *    keeps micro4.
 *  - AVX2, where kSweepCols<4> is micro4's own 16 columns: faster up
 *    to 48 inputs (31->256 8.3 -> 6.8 us), even at 64, slower beyond
 *    (256->256 62 -> 98 us, the call-per-tile shape BM_GemmBlocked256
 *    once ran slower on).
 */
#if defined(__AVX512F__)
constexpr std::size_t kShallowDepth = ~std::size_t{0};
#else
constexpr std::size_t kShallowDepth = 64;
#endif

/**
 * All output columns of R = 1..4 rows: kSweepCols<R> columns per
 * microRows call, then the remaining whole tiles one by one. A ragged
 * column tail runs on the same kernel over @p tail_wt / @p tail_bias
 * (see gemmBlock); the padded outputs land in a scratch tile and are
 * dropped.
 */
template <std::size_t R>
inline void
sweepRows(const float *x, std::size_t x_stride, std::size_t in,
          const float *wt, std::size_t out, const float *bias,
          const float *tail_wt, const float *tail_bias, float *y)
{
    constexpr std::size_t kSweep = kSweepCols<R>;
    const std::size_t full_cols = out - out % kRegTile;
    // Row r's input (null past R), and its outputs from column o on.
    auto xr = [&](std::size_t r) {
        return r < R ? x + r * x_stride : nullptr;
    };
    auto yr = [&](std::size_t r, std::size_t o) {
        return r < R ? y + r * out + o : nullptr;
    };
    std::size_t o = 0;
    for (; o + kSweep <= full_cols; o += kSweep)
        microRows<R, kSweep>(x, xr(1), xr(2), xr(3), in, wt + o, out,
                             bias ? bias + o : kZeroBias, yr(0, o),
                             yr(1, o), yr(2, o), yr(3, o));
    for (; o < full_cols; o += kRegTile)
        microRows<R, kRegTile>(x, xr(1), xr(2), xr(3), in, wt + o, out,
                               bias ? bias + o : kZeroBias, yr(0, o),
                               yr(1, o), yr(2, o), yr(3, o));
    if (full_cols != out) {
        float yt[R][kRegTile];
        auto ytr = [&](std::size_t r) { return r < R ? yt[r] : nullptr; };
        microRows<R, kRegTile>(x, xr(1), xr(2), xr(3), in, tail_wt,
                               kRegTile, tail_bias, ytr(0), ytr(1),
                               ytr(2), ytr(3));
        for (std::size_t r = 0; r < R; ++r)
            std::copy(yt[r], yt[r] + (out - full_cols),
                      y + r * out + full_cols);
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
    // Whole row blocks per chunk, so only the batch's last n % 4 rows
    // take a short row block whatever the grain.
    const std::size_t rows =
        kGemmMinMacs / std::max<std::size_t>(1, in * out);
    const std::size_t grain = std::max(
        kGemmGrain, (rows + kRowBlock - 1) / kRowBlock * kRowBlock);
    // One chunk (every inference batch of a few rows): no pool round
    // trip. Same rows, same kernels as the chunked path.
    if (n <= grain) {
        gemmBlock(x, n, in, x_stride, wt, out, bias, y);
        return;
    }
    base::ThreadPool::global().parallelFor(
        0, n, grain, [&](std::size_t b, std::size_t e) {
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
    // Panels of kPackPanel source rows: each wt row takes one
    // contiguous run per panel, and the panel's source lines stay in
    // L1 across the column sweep. A row-at-a-time sweep instead writes
    // every output row once per source row, at a power-of-two stride
    // that maps them onto a handful of cache sets.
    auto stripe = [&](std::size_t c0, std::size_t c1) {
        for (std::size_t r0 = 0; r0 < rows; r0 += kPackPanel) {
            const std::size_t r1 = std::min(rows, r0 + kPackPanel);
            for (std::size_t c = c0; c < c1; ++c)
                for (std::size_t r = r0; r < r1; ++r)
                    wt[c * ld + r] = w[r * cols + c];
        }
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

    const std::size_t ragged = out - full_cols;

    // A ragged column tail runs on the microkernels too, over a copy
    // of those wt columns (and bias) zero-padded to one register tile;
    // the padded outputs land in a scratch tile and are dropped.
    std::vector<float> tail_wt;
    float tail_bias[kRegTile] = {};
    if (ragged != 0) {
        tail_wt.assign(in * kRegTile, 0.0f);
        for (std::size_t i = 0; i < in; ++i)
            std::copy(wt + i * out + full_cols, wt + (i + 1) * out,
                      tail_wt.data() + i * kRegTile);
        if (bias)
            std::copy(bias + full_cols, bias + out, tail_bias);
    }

    // A shallow layer's full row blocks sweep the wide tile. A deep
    // one's keep the seed's loop shape, so GCC 12 emits the seed's
    // k-loop for them (through a helper it picked other addressing for
    // the same micro4).
    std::size_t r = 0;
    if (in <= kShallowDepth)
        for (; r < full_rows; r += kRowBlock)
            sweepRows<kRowBlock>(x + r * x_stride, x_stride, in, wt, out,
                                 bias, tail_wt.data(), tail_bias,
                                 y + r * out);
    for (; r < full_rows; r += kRowBlock) {
        const float *x0 = x + r * x_stride;
        float *y0 = y + r * out;
        for (std::size_t o = 0; o < full_cols; o += kRegTile)
            micro4(x0, x0 + x_stride, x0 + 2 * x_stride,
                   x0 + 3 * x_stride, in, wt, out, o, bias, y0,
                   y0 + out, y0 + 2 * out, y0 + 3 * out);
        if (ragged != 0) {
            float yt[kRowBlock][kRegTile];
            micro4(x0, x0 + x_stride, x0 + 2 * x_stride,
                   x0 + 3 * x_stride, in, tail_wt.data(), kRegTile, 0,
                   tail_bias, yt[0], yt[1], yt[2], yt[3]);
            for (std::size_t k = 0; k < kRowBlock; ++k)
                std::copy(yt[k], yt[k] + ragged, y0 + k * out + full_cols);
        }
    }
    const float *xt = x + full_rows * x_stride;
    float *yt = y + full_rows * out;
    switch (n - full_rows) {
    case 1:
        sweepRows<1>(xt, x_stride, in, wt, out, bias, tail_wt.data(),
                     tail_bias, yt);
        break;
    case 2:
        sweepRows<2>(xt, x_stride, in, wt, out, bias, tail_wt.data(),
                     tail_bias, yt);
        break;
    case 3:
        sweepRows<3>(xt, x_stride, in, wt, out, bias, tail_wt.data(),
                     tail_bias, yt);
        break;
    }
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
