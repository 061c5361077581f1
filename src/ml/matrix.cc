#include "ml/matrix.h"

#include <algorithm>

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

} // namespace lake::ml
