// Exactness of the GEMM microkernels: every output element of
// compute::gemmBlock is one multiply-add chain from the bias over
// i ascending, whatever the row count, column tail or row stride.
// Built twice: compute_test against the library, and
// compute_portable_test with src/ml/compute.cc compiled without FMA
// (tests named portable/...), so both branches of the kernels'
// multiply-add run on every ctest.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "ml/compute.h"

#if defined(LAKE_COMPUTE_PORTABLE) && defined(__FP_FAST_FMAF)
#error "compute_portable_test must build the unfused multiply-add branch"
#endif

namespace lake::ml::compute {
namespace {

/** The kernels' multiply-add contract (compute.h): fused where the
 *  target has a fast FMA, else a rounded multiply then an add. */
float
fmaddRef(float a, float b, float acc)
{
#if defined(__FP_FAST_FMAF)
    return __builtin_fmaf(a, b, acc);
#else
    return acc + a * b;
#endif
}

std::vector<float>
randomFloats(std::size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (float &f : v)
        f = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
}

/** y[r][o] as the scalar chain: bias (or 0), then i = 0, 1, ... */
float
chain(const float *xr, std::size_t in, const float *wt, std::size_t out,
      std::size_t o, const float *bias)
{
    float acc = bias ? bias[o] : 0.0f;
    for (std::size_t i = 0; i < in; ++i)
        acc = fmaddRef(xr[i], wt[i * out + o], acc);
    return acc;
}

/**
 * gemmBlock over @p n random rows (strided, as a MatrixView over a
 * wider buffer), every output element checked bit for bit against
 * chain().
 */
void
expectChains(std::size_t n, std::size_t in, std::size_t out,
             const std::vector<float> &wt, const float *bias, Rng &rng)
{
    const std::size_t stride = in + 3;
    const std::vector<float> x = randomFloats(n * stride, rng);
    std::vector<float> y(n * out, -1.0f);
    gemmBlock(x.data(), n, in, stride, wt.data(), out, bias, y.data());
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t o = 0; o < out; ++o)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(y[r * out + o]),
                      std::bit_cast<std::uint32_t>(chain(
                          x.data() + r * stride, in, wt.data(), out, o,
                          bias)))
                << "n=" << n << " in=" << in << " out=" << out
                << " r=" << r << " o=" << o << " bias=" << (bias != nullptr);
}

TEST(GemmBlockTest, EveryElementIsTheAscendingMultiplyAddChain)
{
    Rng rng(5);
    for (std::size_t in : {1u, 31u, 256u}) {
        for (std::size_t out : {2u, 16u, 17u, 256u}) {
            const std::vector<float> wt = randomFloats(in * out, rng);
            const std::vector<float> bias = randomFloats(out, rng);
            for (std::size_t n = 1; n <= 13; ++n)
                for (const float *b :
                     {bias.data(), static_cast<const float *>(nullptr)})
                    expectChains(n, in, out, wt, b, rng);
        }
    }
}

// Full 4-row blocks run the wide register tile (several 16-column
// tiles per call) up to a depth cutoff, and micro4 beyond it where the
// target keeps it: batches of 4..33 rows across that cutoff (64/65),
// at widths that are one sweep, a sweep plus tiles, and a sweep plus a
// ragged tail, still give the scalar chain in every element.
TEST(GemmBlockTest, FullRowBlocksOnEveryTileMatchTheChain)
{
    Rng rng(11);
    for (std::size_t in : {2u, 31u, 64u, 65u, 256u}) {
        for (std::size_t out : {16u, 64u, 80u, 256u, 272u}) {
            const std::vector<float> wt = randomFloats(in * out, rng);
            const std::vector<float> bias = randomFloats(out, rng);
            for (std::size_t n = 4; n <= 33; ++n)
                expectChains(n, in, out, wt, n % 2 ? bias.data() : nullptr,
                             rng);
        }
    }
}

// A row's outputs do not depend on which row block computes it: each
// row of a 4-row block, computed alone (and in 2- and 3-row blocks),
// comes out bit for bit the same.
TEST(GemmBlockTest, RowAloneMatchesRowInsideFullBlock)
{
    Rng rng(9);
    for (std::size_t out : {16u, 17u, 256u}) {
        const std::size_t in = 256, stride = 259;
        const std::vector<float> wt = randomFloats(in * out, rng);
        const std::vector<float> bias = randomFloats(out, rng);
        const std::vector<float> x = randomFloats(4 * stride, rng);
        std::vector<float> block(4 * out);
        gemmBlock(x.data(), 4, in, stride, wt.data(), out, bias.data(),
                  block.data());
        for (std::size_t rows = 1; rows <= 3; ++rows) {
            for (std::size_t r0 = 0; r0 + rows <= 4; ++r0) {
                std::vector<float> part(rows * out);
                gemmBlock(x.data() + r0 * stride, rows, in, stride,
                          wt.data(), out, bias.data(), part.data());
                for (std::size_t k = 0; k < rows * out; ++k)
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(part[k]),
                              std::bit_cast<std::uint32_t>(
                                  block[r0 * out + k]))
                        << "out=" << out << " rows=" << rows
                        << " r0=" << r0 << " k=" << k;
            }
        }
    }
}

} // namespace
} // namespace lake::ml::compute
