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

void
argmaxRows(const MatrixView &logits, int *out)
{
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const float *row = logits.row(r);
        out[r] = static_cast<int>(
            std::max_element(row, row + logits.cols()) - row);
    }
}

} // namespace lake::ml
