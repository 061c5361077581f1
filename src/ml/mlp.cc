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

float *
Mlp::activation(const Workspace &ws, std::size_t l, std::size_t n) const
{
    std::size_t off = 0;
    for (std::size_t j = 0; j < l; ++j)
        off += packed_out_[j];
    return ws.data() + n * off;
}

std::size_t
Mlp::run(std::span<const MatrixView> xs, Workspace &ws) const
{
    std::size_t n = 0;
    for (const MatrixView &v : xs) {
        LAKE_ASSERT(v.rows() == 0 || v.cols() == config_.input,
                    "mlp view width %zu != expected %u", v.cols(),
                    config_.input);
        n += v.rows();
    }
    std::size_t floats = 0;
    for (std::size_t padded : packed_out_)
        floats += n * padded;
    ws.reserve(floats);

    // Layer 0 consumes each strided window in place, writing into the
    // stacked activations. Each row's reduction does not depend on
    // where its row starts, so any split of the rows into views gives
    // the same bits — and the cached weight transpose is shared across
    // the views, so a multi-registry flush packs nothing. Every layer
    // computes its whole tile-padded width (the padding is zero
    // weights and bias), and the next layer reads the real columns.
    float *a = activation(ws, 0, n);
    std::size_t r0 = 0;
    for (const MatrixView &v : xs) {
        if (v.rows() == 0)
            continue;
        compute::affinePacked(v.data(), v.rows(), config_.input, v.stride(),
                              packed_[0].data(), packed_out_[0],
                              packed_bias_[0].data(),
                              a + r0 * packed_out_[0]);
        r0 += v.rows();
    }

    for (std::size_t l = 1; l < weights_.size(); ++l) {
        // a is layer l-1's output, a hidden layer: ReLU.
        const std::size_t ld = packed_out_[l - 1];
        for (std::size_t i = 0; i < n * ld; ++i)
            a[i] = std::max(0.0f, a[i]);
        float *next = activation(ws, l, n);
        compute::affinePacked(a, n, weights_[l].cols(), ld,
                              packed_[l].data(), packed_out_[l],
                              packed_bias_[l].data(), next);
        a = next;
    }
    return n;
}

void
Mlp::copyLogits(const Workspace &ws, std::size_t n, float *logits) const
{
    const std::size_t last = weights_.size() - 1;
    const float *y = activation(ws, last, n);
    const std::size_t ld = packed_out_[last];
    for (std::size_t r = 0; r < n; ++r)
        std::copy(y + r * ld, y + r * ld + config_.output,
                  logits + r * config_.output);
}

void
Mlp::forwardInto(std::span<const MatrixView> xs, Workspace &ws,
                 float *logits) const
{
    copyLogits(ws, run(xs, ws), logits);
}

Matrix
Mlp::forward(const std::vector<MatrixView> &xs) const
{
    Workspace ws;
    std::size_t n = run(xs, ws);
    Matrix logits(n, config_.output);
    copyLogits(ws, n, logits.data());
    return logits;
}

std::vector<int>
Mlp::classify(const std::vector<MatrixView> &xs) const
{
    Workspace ws;
    std::size_t n = run(xs, ws);
    const std::size_t last = weights_.size() - 1;
    std::vector<int> labels(n);
    argmaxRows(MatrixView(activation(ws, last, n), n, config_.output,
                          packed_out_[last]),
               labels.data());
    return labels;
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

    // Forward through the packed inference layers; the backward pass
    // reads each hidden layer's post-ReLU activations dense.
    Workspace ws;
    MatrixView xv = x.view();
    run({&xv, 1}, ws);
    std::vector<Matrix> hidden;
    for (std::size_t l = 0; l + 1 < weights_.size(); ++l) {
        const std::size_t width = weights_[l].rows();
        const float *act = activation(ws, l, n);
        Matrix h(n, width);
        for (std::size_t r = 0; r < n; ++r)
            std::copy(act + r * packed_out_[l],
                      act + r * packed_out_[l] + width, h.row(r));
        hidden.push_back(std::move(h));
    }
    Matrix logits(n, config_.output);
    copyLogits(ws, n, logits.data());

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

    // Backward through each layer on the GEMM microkernel, applying
    // SGD updates in place. Every gradient element is one reduction in
    // the same ascending order as the textbook loops (batch rows for
    // dW and db, output units for the propagated delta), so the
    // trained weights do not depend on the kernel's tiling.
    std::vector<float> delta_t, dw, db;
    for (std::size_t li = weights_.size(); li-- > 0;) {
        const Matrix &a_in = li == 0 ? x : hidden[li - 1];
        Matrix &w = weights_[li];
        std::vector<float> &b = biases_[li];
        const std::size_t out = w.rows(), in = w.cols();

        // Propagate to the previous layer before mutating w:
        // next = delta * W, where W (out x in, row-major) already is
        // the packed right-hand side with ld = in. Then the ReLU gate
        // of the previous layer's activation.
        Matrix next_delta;
        if (li > 0) {
            next_delta = Matrix(n, in);
            compute::gemmBlock(delta.data(), n, out, out, w.data(), in,
                               nullptr, next_delta.data());
            float *__restrict nd = next_delta.data();
            const float *__restrict act = a_in.data();
            for (std::size_t j = 0; j < next_delta.size(); ++j)
                nd[j] = act[j] > 0.0f ? nd[j] : 0.0f;
        }

        // dW = delta^T * a_in: a_in (n x in) is the packed right-hand
        // side with ld = in, and dW comes out in W's own layout. (The
        // transposed product a_in^T * delta would put a 2-wide output
        // layer's gradient on a 2-column GEMM.)
        delta_t.resize(out * n);
        compute::packTranspose(delta.data(), n, out, n, delta_t.data());
        dw.resize(out * in);
        compute::gemmBlock(delta_t.data(), out, n, n, a_in.data(), in,
                           nullptr, dw.data());

        // db = column sums of delta, rows outermost.
        db.assign(out, 0.0f);
        for (std::size_t r = 0; r < n; ++r) {
            const float *__restrict dr = delta.row(r);
            float *__restrict dbp = db.data();
            for (std::size_t o = 0; o < out; ++o)
                dbp[o] += dr[o];
        }

        for (std::size_t o = 0; o < out; ++o)
            b[o] -= lr * db[o];
        float *__restrict wp = w.data();
        const float *__restrict dwp = dw.data();
        for (std::size_t j = 0; j < dw.size(); ++j)
            wp[j] -= lr * dwp[j];

        if (li > 0)
            delta = std::move(next_delta);
    }

    repack();
    return loss / static_cast<double>(n);
}

double
Mlp::accuracy(const Matrix &x, const std::vector<int> &labels) const
{
    LAKE_ASSERT(labels.size() == x.rows(), "labels/batch size mismatch");
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
