#ifndef LAKE_ML_COMPUTE_H
#define LAKE_ML_COMPUTE_H

/**
 * @file
 * Blocked, vectorized, multithreaded CPU compute for the ML models.
 *
 * Every dense layer (MLP inference and training, batched kNN, the
 * simulated-GPU kernel bodies) funnels through this layer, and each op
 * has one body. One batch form: every op takes row-strided input (row
 * r at x + r * stride), so a MatrixView and a dense Matrix run the
 * same code. One packer: packTranspose is the only transpose; the
 * GEMM reads its right-hand side as a transpose whose row stride
 * (ld) is the output width, zero-padded to a register tile when the
 * caller caches it (padTile). The kernels are cache-blocked and
 * written with independent accumulator streams and __restrict
 * pointers so the compiler auto-vectorizes them, and they parallelize
 * over output rows via base::ThreadPool.
 *
 * Host time only: nothing here touches virtual-time cost models. The
 * calibrated figure benches charge exactly the same Nanos as the seed
 * scalar loops did; this layer just makes the simulator's real
 * execution of that math fast (see bench/micro_primitives and
 * BENCH_mlcompute.json).
 *
 * Determinism: for every output element the reduction over the
 * k-dimension runs in ascending index order, one element at a time —
 * the same order as the seed scalar loops — and parallelism never
 * splits a reduction. Results are therefore bit-identical at any
 * LAKE_CPU_THREADS setting (and to the seed scalar code under
 * identical floating-point contraction rules).
 */

#include <cstddef>
#include <cstdint>

namespace lake::ml::compute {

/**
 * Packs the row-major matrix @p w (rows x cols) into its transpose
 * @p wt (cols x @p ld): wt[c * ld + r] = w[r * cols + c], and the
 * ld - rows padding floats at the end of every wt row are zeroed.
 * This is the only transpose in the ML library: every dense layer and
 * the kNN cross-term GEMM read their right-hand side in this layout,
 * so inner loops are unit-stride over outputs. Needs ld >= rows.
 * Parallel over column stripes on the global ThreadPool; a stripe is
 * at least 64 columns and roughly 64K floats, so model-sized layers
 * pack inline and only kNN reference sets fan out.
 */
void packTranspose(const float *w, std::size_t rows, std::size_t cols,
                   std::size_t ld, float *wt);

/**
 * Single-threaded blocked GEMM block:
 *   y(n x out) = x(n x in) * wt(in x out) [+ bias]
 * Row r of @p x starts at x + r * x_stride (x_stride >= in), so a
 * MatrixView feeds the kernels in place; y rows are contiguous.
 * @p wt is the packed transpose (see packTranspose, ld == out);
 * @p bias may be null for no bias. Tiled over output columns with a
 * 4-row microkernel of independent accumulator streams.
 */
void gemmBlock(const float *x, std::size_t n, std::size_t in,
               std::size_t x_stride, const float *wt, std::size_t out,
               const float *bias, float *y);

/**
 * y = x * w^T + bias over the global ThreadPool, parallel across row
 * blocks. @p w is row-major (out x in) as Matrix stores layer weights;
 * it is packed (ld == out) once per call. Rows of @p x are x_stride
 * floats apart.
 */
void affine(const float *x, std::size_t n, std::size_t in,
            std::size_t x_stride, const float *w, std::size_t out,
            const float *bias, float *y);

/** Output width rounded up to a whole register tile: the padded
 *  column count affinePacked() expects wt and bias to provide. */
std::size_t padTile(std::size_t out);

/**
 * y = x * wt [+ bias] with a caller-packed transposed weight: the
 * same parallel row-block GEMM as affine(), minus the per-call
 * transpose pack and scratch allocation. @p out must be a whole
 * number of register tiles (see padTile); a caller padding a narrow
 * layer packs with ld = padTile(real out), zero-pads the bias and
 * ignores the padded outputs. Per real output element the reduction
 * runs in the same ascending-i order as affine(), so results are
 * bit-identical — padding only moves the ragged column tail off the
 * scalar edge kernel and onto the vectorized microkernel.
 */
void affinePacked(const float *x, std::size_t n, std::size_t in,
                  std::size_t x_stride, const float *wt, std::size_t out,
                  const float *bias, float *y);

/** One kNN candidate: squared distance and reference index. */
struct Neighbor
{
    float d2 = 0.0f;
    std::int32_t index = -1;
};

/**
 * Batched brute-force k-nearest-neighbours:
 * for each of @p n queries, writes its @p k nearest references
 * (ascending squared distance, ties broken by lower reference index)
 * to out + q * k. Query q starts at queries + q * q_stride
 * (q_stride >= dim); @p refs is dense (n_refs x dim).
 *
 * Uses the ||q - r||^2 = ||q||^2 + ||r||^2 - 2 q.r decomposition: the
 * cross terms become one blocked GEMM (queries x refs^T, refs packed
 * with ld == n_refs) and selection is a single top-k pass per query,
 * parallel over queries. @p k must be <= @p n_refs.
 */
void knnNeighbors(const float *queries, std::size_t n, std::size_t dim,
                  std::size_t q_stride, const float *refs,
                  std::size_t n_refs, std::size_t k, Neighbor *out);

} // namespace lake::ml::compute

#endif // LAKE_ML_COMPUTE_H
