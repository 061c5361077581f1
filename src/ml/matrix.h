#ifndef LAKE_ML_MATRIX_H
#define LAKE_ML_MATRIX_H

/**
 * @file
 * Dense row-major float matrix — the only tensor type the in-kernel
 * models need — and MatrixView, the one batch form the model ops take.
 *
 * MatrixView is a non-owning window over row-major float storage whose
 * rows may be further apart than cols (a row *stride*). Every batched
 * op (Mlp::forward, Knn::classifyBatch, the simulated-GPU kernel
 * bodies) has one body written over views; a dense Matrix enters
 * through view() (stride == cols). The SoA feature plane hands
 * committed slots over as views, so a coalesced score batch needs no
 * gather/pack step (DESIGN.md §12), and a kernel body reads device
 * memory in place. Matrix owns storage and does no layer math: dense
 * layers live in ml/compute.h, which makes them fast for *host* time
 * only; the CpuSpec calibration still models the unvectorized float
 * routines a kernel module runs between kernel_fpu_begin/end, so every
 * *virtual* time charge is unchanged from the seed scalar loops.
 */

#include <cstddef>
#include <vector>

#include "base/aligned.h"
#include "base/logging.h"
#include "base/rng.h"

namespace lake::ml {

/**
 * Non-owning strided window over row-major float data: row r starts at
 * data + r * stride and holds cols contiguous floats (stride >= cols).
 * Plain value type; the viewed storage must outlive every read.
 */
class MatrixView
{
  public:
    /** Empty 0x0 view. */
    MatrixView() = default;

    MatrixView(const float *data, std::size_t rows, std::size_t cols,
               std::size_t stride)
        : data_(data), rows_(rows), cols_(cols), stride_(stride)
    {
        LAKE_ASSERT(stride >= cols,
                    "view stride %zu below row width %zu", stride, cols);
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    /** Floats between consecutive row starts. */
    std::size_t stride() const { return stride_; }

    const float *data() const { return data_; }
    const float *row(std::size_t r) const
    {
        LAKE_ASSERT(r < rows_, "view row %zu out of range", r);
        return data_ + r * stride_;
    }
    float
    at(std::size_t r, std::size_t c) const
    {
        LAKE_ASSERT(r < rows_ && c < cols_, "view index out of range");
        return data_[r * stride_ + c];
    }

  private:
    const float *data_ = nullptr;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
};

/**
 * Writes each row's argmax of @p logits to out[0, rows): the column of
 * the row's first maximum, so ties keep the lowest column.
 */
void argmaxRows(const MatrixView &logits, int *out);

/** Row-major 2-D float matrix, cache-line-aligned backing store. */
class Matrix
{
  public:
    /** Alignment of data() (and so of row(0)); see base/aligned.h. */
    static constexpr std::size_t kAlign = base::kCacheLine;
    static_assert(kAlign % alignof(float) == 0 && kAlign >= 64,
                  "matrix backing must be cache-line aligned");

    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {}

    /** Number of rows. */
    std::size_t rows() const { return rows_; }
    /** Number of columns. */
    std::size_t cols() const { return cols_; }
    /** Total elements. */
    std::size_t size() const { return data_.size(); }

    /** Element access. */
    float &
    at(std::size_t r, std::size_t c)
    {
        LAKE_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    /** Const element access. */
    float
    at(std::size_t r, std::size_t c) const
    {
        LAKE_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
        return data_[r * cols_ + c];
    }

    /** Raw storage (row-major). */
    float *data() { return data_.data(); }
    /** Const raw storage. */
    const float *data() const { return data_.data(); }

    /** Pointer to the start of row @p r. */
    float *row(std::size_t r) { return data_.data() + r * cols_; }
    /** Const pointer to the start of row @p r. */
    const float *row(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Whole-matrix view (stride == cols). */
    MatrixView
    view() const
    {
        return MatrixView(data_.data(), rows_, cols_, cols_);
    }

    /**
     * Gaussian-initialized matrix (He-style scale for ReLU nets when
     * @p scale is sqrt(2/fan_in)).
     */
    static Matrix randn(std::size_t rows, std::size_t cols, Rng &rng,
                        double scale);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    base::AlignedVec<float> data_;
};

} // namespace lake::ml

#endif // LAKE_ML_MATRIX_H
