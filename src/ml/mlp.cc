#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/logging.h"
#include "ml/compute.h"

namespace lake::ml {

namespace {

/** serialize()'s leading magic, 'MLPM'. */
constexpr std::uint32_t kBlobMagic = 0x4d4c504dU;

/** Argmax per row of a logits matrix. */
std::vector<int>
argmaxRows(const Matrix &logits)
{
    std::vector<int> out(logits.rows());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const float *row = logits.row(r);
        out[r] = static_cast<int>(
            std::max_element(row, row + logits.cols()) - row);
    }
    return out;
}

} // namespace

MlpConfig
MlpConfig::linnos(std::size_t extra_layers)
{
    MlpConfig c;
    c.input = 31;
    c.hidden.assign(1 + extra_layers, 256);
    c.output = 2;
    return c;
}

MlpConfig
MlpConfig::mllb()
{
    // Width calibrated so the CPU/GPU crossover lands at Table 3's 256
    // tasks given the kernel-space CPU model.
    MlpConfig c;
    c.input = 22;
    c.hidden = {6};
    c.output = 2;
    return c;
}

MlpConfig
MlpConfig::kml()
{
    // Width calibrated so the CPU/GPU crossover lands at Table 3's 64
    // classifications given the kernel-space CPU model.
    MlpConfig c;
    c.input = 31;
    c.hidden = {18};
    c.output = 4;
    return c;
}

std::vector<std::uint32_t>
Mlp::dims() const
{
    std::vector<std::uint32_t> d;
    d.push_back(config_.input);
    for (std::uint32_t h : config_.hidden)
        d.push_back(h);
    d.push_back(config_.output);
    return d;
}

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    LAKE_ASSERT(config_.input > 0 && config_.output > 0,
                "mlp needs nonzero input/output widths");
}

Mlp::Mlp(MlpConfig config, Rng &rng) : Mlp(std::move(config))
{
    std::vector<std::uint32_t> d = dims();
    for (std::size_t l = 0; l + 1 < d.size(); ++l) {
        double scale = std::sqrt(2.0 / d[l]);
        weights_.push_back(Matrix::randn(d[l + 1], d[l], rng, scale));
        biases_.emplace_back(d[l + 1], 0.0f);
    }
    repack();
}

void
Mlp::repack()
{
    packed_.resize(weights_.size());
    packed_bias_.resize(weights_.size());
    packed_out_.resize(weights_.size());
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        const Matrix &w = weights_[l]; // out x in
        std::size_t padded = compute::padTile(w.rows());
        packed_[l].resize(w.cols() * padded);
        compute::packTranspose(w.data(), w.rows(), w.cols(), padded,
                               packed_[l].data());
        packed_bias_[l].assign(padded, 0.0f);
        std::copy(biases_[l].begin(), biases_[l].end(),
                  packed_bias_[l].begin());
        packed_out_[l] = padded;
    }
}

void
Mlp::layerForward(std::size_t l, const float *x, std::size_t n,
                  std::size_t x_stride, float *y) const
{
    const std::size_t in = weights_[l].cols();
    const std::size_t out = weights_[l].rows();
    const std::size_t padded = packed_out_[l];
    if (padded == out) {
        compute::affinePacked(x, n, in, x_stride, packed_[l].data(),
                              out, packed_bias_[l].data(), y);
        return;
    }
    // Narrow layer: compute into a tile-padded scratch, then drop the
    // zero columns. Each real element's reduction is untouched.
    Matrix pad(n, padded);
    compute::affinePacked(x, n, in, x_stride, packed_[l].data(), padded,
                          packed_bias_[l].data(), pad.data());
    for (std::size_t r = 0; r < n; ++r)
        std::copy(pad.row(r), pad.row(r) + out, y + r * out);
}

Matrix
Mlp::run(const std::vector<MatrixView> &xs,
         std::vector<Matrix> *hidden) const
{
    std::size_t n = 0;
    for (const MatrixView &v : xs) {
        LAKE_ASSERT(v.rows() == 0 || v.cols() == config_.input,
                    "mlp view width %zu != expected %u", v.cols(),
                    config_.input);
        n += v.rows();
    }

    // Layer 0 consumes each strided window in place, writing into the
    // stacked activation matrix. Each row's reduction does not depend
    // on where its row starts, so any split of the rows into views
    // gives the same bits — and the cached weight transpose is shared
    // across the views, so a multi-registry flush packs nothing.
    Matrix a(n, weights_[0].rows());
    std::size_t r0 = 0;
    for (const MatrixView &v : xs) {
        if (v.rows() == 0)
            continue;
        layerForward(0, v.data(), v.rows(), v.stride(), a.row(r0));
        r0 += v.rows();
    }

    for (std::size_t l = 1; l < weights_.size(); ++l) {
        // a is layer l-1's output, a hidden layer: ReLU.
        for (std::size_t i = 0; i < a.size(); ++i)
            a.data()[i] = std::max(0.0f, a.data()[i]);
        Matrix next(n, weights_[l].rows());
        layerForward(l, a.data(), n, a.cols(), next.data());
        if (hidden)
            hidden->push_back(std::move(a));
        a = std::move(next);
    }
    return a;
}

Matrix
Mlp::forward(const std::vector<MatrixView> &xs) const
{
    return run(xs, nullptr);
}

std::vector<int>
Mlp::classify(const std::vector<MatrixView> &xs) const
{
    return argmaxRows(forward(xs));
}

Matrix
softmax(const Matrix &logits)
{
    Matrix p(logits.rows(), logits.cols());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const float *in = logits.row(r);
        float *out = p.row(r);
        float mx = *std::max_element(in, in + logits.cols());
        float sum = 0.0f;
        for (std::size_t c = 0; c < logits.cols(); ++c) {
            out[c] = std::exp(in[c] - mx);
            sum += out[c];
        }
        for (std::size_t c = 0; c < logits.cols(); ++c)
            out[c] /= sum;
    }
    return p;
}

double
Mlp::trainStep(const Matrix &x, const std::vector<int> &labels, float lr)
{
    LAKE_ASSERT(labels.size() == x.rows(), "labels/batch size mismatch");
    std::size_t n = x.rows();

    // Forward through the packed inference layers, keeping each hidden
    // layer's post-ReLU activations for the backward pass.
    std::vector<Matrix> hidden;
    Matrix logits = run({x.view()}, &hidden);

    // Softmax cross-entropy loss and its gradient w.r.t. the logits.
    Matrix probs = softmax(logits);
    double loss = 0.0;
    Matrix delta(n, config_.output); // dL/dlogits
    for (std::size_t r = 0; r < n; ++r) {
        int y = labels[r];
        LAKE_ASSERT(y >= 0 && static_cast<std::uint32_t>(y) <
                                  config_.output,
                    "label %d out of range", y);
        loss += -std::log(std::max(probs.at(r, y), 1e-12f));
        for (std::size_t c = 0; c < config_.output; ++c) {
            float t = (static_cast<int>(c) == y) ? 1.0f : 0.0f;
            delta.at(r, c) = (probs.at(r, c) - t) / static_cast<float>(n);
        }
    }

    // Backward through each layer, applying SGD updates in place.
    for (std::size_t li = weights_.size(); li-- > 0;) {
        const Matrix &a_in = li == 0 ? x : hidden[li - 1];
        Matrix &w = weights_[li];
        std::vector<float> &b = biases_[li];

        // Propagate to the previous layer before mutating w.
        Matrix next_delta;
        if (li > 0) {
            next_delta = Matrix(n, w.cols());
            for (std::size_t r = 0; r < n; ++r) {
                for (std::size_t i = 0; i < w.cols(); ++i) {
                    float acc = 0.0f;
                    for (std::size_t o = 0; o < w.rows(); ++o)
                        acc += delta.at(r, o) * w.at(o, i);
                    // ReLU gate of the previous layer's activation.
                    next_delta.at(r, i) = a_in.at(r, i) > 0.0f ? acc : 0.0f;
                }
            }
        }

        // dW = delta^T * a_in; db = column sums of delta.
        for (std::size_t o = 0; o < w.rows(); ++o) {
            float db = 0.0f;
            for (std::size_t r = 0; r < n; ++r)
                db += delta.at(r, o);
            b[o] -= lr * db;
            for (std::size_t i = 0; i < w.cols(); ++i) {
                float dw = 0.0f;
                for (std::size_t r = 0; r < n; ++r)
                    dw += delta.at(r, o) * a_in.at(r, i);
                w.at(o, i) -= lr * dw;
            }
        }

        if (li > 0)
            delta = std::move(next_delta);
    }

    repack();
    return loss / static_cast<double>(n);
}

double
Mlp::accuracy(const Matrix &x, const std::vector<int> &labels) const
{
    std::vector<int> pred = classify(x);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        hits += pred[i] == labels[i] ? 1 : 0;
    return pred.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(pred.size());
}

double
Mlp::flopsPerSample() const
{
    double flops = 0.0;
    for (const Matrix &w : weights_)
        flops += 2.0 * static_cast<double>(w.rows()) * w.cols();
    return flops;
}

std::size_t
Mlp::paramCount() const
{
    std::size_t n = 0;
    for (std::size_t l = 0; l < weights_.size(); ++l)
        n += weights_[l].size() + biases_[l].size();
    return n;
}

std::vector<std::uint8_t>
Mlp::serialize() const
{
    std::vector<std::uint8_t> blob;
    auto put32 = [&blob](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto putFloats = [&blob](const float *p, std::size_t n) {
        const auto *bytes = reinterpret_cast<const std::uint8_t *>(p);
        blob.insert(blob.end(), bytes, bytes + n * sizeof(float));
    };

    put32(kBlobMagic);
    put32(config_.input);
    put32(static_cast<std::uint32_t>(config_.hidden.size()));
    for (std::uint32_t h : config_.hidden)
        put32(h);
    put32(config_.output);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        putFloats(weights_[l].data(), weights_[l].size());
        putFloats(biases_[l].data(), biases_[l].size());
    }
    return blob;
}

Result<Mlp::BlobLayout>
Mlp::parseBlobHeader(const Read32 &read32)
{
    auto bad = [](const char *why) {
        return Result<BlobLayout>(Status(Code::InvalidArgument, why));
    };

    std::uint32_t magic = 0, input = 0, nhidden = 0, output = 0;
    if (!read32(0, &magic) || magic != kBlobMagic)
        return bad("bad MLP magic");
    if (!read32(4, &input) || !read32(8, &nhidden) || nhidden > 64)
        return bad("bad MLP header");
    BlobLayout layout;
    layout.dims.push_back(input);
    std::size_t pos = 12;
    for (std::uint32_t i = 0; i < nhidden; ++i, pos += 4) {
        std::uint32_t h = 0;
        if (!read32(pos, &h))
            return bad("truncated hidden widths");
        layout.dims.push_back(h);
    }
    if (!read32(pos, &output))
        return bad("truncated output width");
    if (input == 0 || output == 0)
        return bad("zero layer width");
    layout.dims.push_back(output);

    // Header, then per layer out*in weights and out biases. Widths are
    // u32, so the float counts can overflow size_t arithmetic.
    std::size_t bytes = pos + 4;
    const std::vector<std::uint32_t> &d = layout.dims;
    for (std::size_t l = 0; l + 1 < d.size(); ++l) {
        std::size_t floats = 0, layer = 0;
        if (__builtin_mul_overflow(std::size_t{d[l]} + 1, d[l + 1],
                                   &floats) ||
            __builtin_mul_overflow(floats, sizeof(float), &layer) ||
            __builtin_add_overflow(bytes, layer, &bytes))
            return bad("MLP blob length overflows");
    }
    layout.bytes = bytes;
    return Result<BlobLayout>(std::move(layout));
}

Result<Mlp>
Mlp::deserialize(const std::vector<std::uint8_t> &blob)
{
    Result<BlobLayout> layout =
        parseBlobHeader([&blob](std::size_t pos, std::uint32_t *out) {
            if (pos > blob.size() || blob.size() - pos < 4)
                return false;
            std::uint32_t v = 0;
            for (int i = 0; i < 4; ++i)
                v |= static_cast<std::uint32_t>(blob[pos + i]) << (8 * i);
            *out = v;
            return true;
        });
    if (!layout.isOk())
        return Result<Mlp>(layout.status());
    // The header fixes the length: check it before allocating a layer.
    const std::vector<std::uint32_t> &d = layout.value().dims;
    if (blob.size() != layout.value().bytes)
        return Result<Mlp>(Status(Code::InvalidArgument,
                                  "MLP blob length does not match header"));

    MlpConfig cfg;
    cfg.input = d.front();
    cfg.hidden.assign(d.begin() + 1, d.end() - 1);
    cfg.output = d.back();
    Mlp net(cfg);
    std::size_t pos = 4 * (d.size() + 2); // past the header
    auto take = [&](float *dst, std::size_t n) {
        std::memcpy(dst, blob.data() + pos, n * sizeof(float));
        pos += n * sizeof(float);
    };
    for (std::size_t l = 0; l + 1 < d.size(); ++l) {
        Matrix w(d[l + 1], d[l]);
        take(w.data(), w.size());
        std::vector<float> b(d[l + 1]);
        take(b.data(), b.size());
        net.weights_.push_back(std::move(w));
        net.biases_.push_back(std::move(b));
    }
    net.repack();
    return Result<Mlp>(std::move(net));
}

} // namespace lake::ml
