#include "ml/matrix.h"

#include <algorithm>

#include "ml/compute.h"

namespace lake::ml {

Matrix
Matrix::randn(std::size_t rows, std::size_t cols, Rng &rng, double scale)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data_[i] = static_cast<float>(rng.normal(0.0, scale));
    return m;
}

Matrix
Matrix::pack(const std::vector<MatrixView> &views)
{
    std::size_t rows = 0, cols = views.empty() ? 0 : views.front().cols();
    for (const MatrixView &v : views) {
        LAKE_ASSERT(v.cols() == cols, "pack of a %zu-wide view into %zu",
                    v.cols(), cols);
        rows += v.rows();
    }
    Matrix m(rows, cols);
    std::size_t r = 0;
    for (const MatrixView &v : views)
        for (std::size_t i = 0; i < v.rows(); ++i, ++r)
            std::copy(v.row(i), v.row(i) + cols, m.row(r));
    return m;
}

Matrix
Matrix::affine(const Matrix &x, const Matrix &w, const std::vector<float> &b)
{
    LAKE_ASSERT(x.cols() == w.cols(),
                "affine shape mismatch: x %zux%zu, w %zux%zu", x.rows(),
                x.cols(), w.rows(), w.cols());
    LAKE_ASSERT(b.size() == w.rows(), "bias length mismatch");

    Matrix y(x.rows(), w.rows());
    compute::affine(x.data(), x.rows(), x.cols(), w.data(), w.rows(),
                    b.data(), y.data());
    return y;
}

Matrix
Matrix::affine(const MatrixView &x, const Matrix &w,
               const std::vector<float> &b)
{
    LAKE_ASSERT(x.cols() == w.cols(),
                "affine shape mismatch: view %zux%zu, w %zux%zu",
                x.rows(), x.cols(), w.rows(), w.cols());
    LAKE_ASSERT(b.size() == w.rows(), "bias length mismatch");

    Matrix y(x.rows(), w.rows());
    compute::affine(x.data(), x.rows(), x.cols(), x.stride(), w.data(),
                    w.rows(), b.data(), y.data());
    return y;
}

} // namespace lake::ml
