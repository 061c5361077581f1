#include "ml/lstm.h"

#include <cmath>
#include <cstring>

#include "base/logging.h"
#include "base/thread_pool.h"

namespace lake::ml {

namespace {

float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

} // namespace

LstmConfig
LstmConfig::kleio()
{
    LstmConfig c;
    c.input = 1;     // access count per scheduling interval
    c.hidden = 64;   // sized for host-side simulation throughput; the
                     // TF-runtime cost model carries the timing
    c.layers = 2;
    c.output = 2;    // hot / cold
    c.seq_len = 32;  // history window of intervals
    return c;
}

Lstm::Lstm(LstmConfig config) : config_(config)
{
    LAKE_ASSERT(config_.input > 0 && config_.hidden > 0 &&
                    config_.layers > 0 && config_.output > 0 &&
                    config_.seq_len > 0,
                "lstm config has a zero dimension");
}

Lstm::Lstm(LstmConfig config, Rng &rng) : Lstm(config)
{
    for (std::uint32_t l = 0; l < config_.layers; ++l) {
        std::uint32_t in = l == 0 ? config_.input : config_.hidden;
        double sx = std::sqrt(1.0 / in);
        double sh = std::sqrt(1.0 / config_.hidden);
        wx_.push_back(Matrix::randn(4 * config_.hidden, in, rng, sx));
        wh_.push_back(
            Matrix::randn(4 * config_.hidden, config_.hidden, rng, sh));
        std::vector<float> bias(4 * config_.hidden, 0.0f);
        // Forget-gate bias +1: standard stabilization for fresh LSTMs.
        for (std::uint32_t i = config_.hidden; i < 2 * config_.hidden; ++i)
            bias[i] = 1.0f;
        b_.push_back(std::move(bias));
    }
    head_w_ = Matrix::randn(config_.output, config_.hidden, rng,
                            std::sqrt(1.0 / config_.hidden));
    head_b_.assign(config_.output, 0.0f);
}

std::vector<float>
Lstm::forward(std::span<const float> seq, LstmTape *tape) const
{
    std::size_t expect =
        static_cast<std::size_t>(config_.seq_len) * config_.input;
    LAKE_ASSERT(seq.size() == expect, "lstm sample has %zu values, want %zu",
                seq.size(), expect);

    std::uint32_t H = config_.hidden;
    std::size_t state = static_cast<std::size_t>(config_.layers) * H;
    // Per-layer hidden and cell state, layer l at [l * H, (l + 1) * H).
    std::vector<float> h(state, 0.0f), c(state, 0.0f), gates(4 * H);
    if (tape) {
        tape->seq_len = config_.seq_len;
        tape->hidden = H;
        for (auto *field : {&tape->ig, &tape->fg, &tape->gg, &tape->og,
                            &tape->c, &tape->tanh_c, &tape->h})
            field->resize(state * config_.seq_len);
    }

    for (std::uint32_t t = 0; t < config_.seq_len; ++t) {
        const float *x = seq.data() +
                         static_cast<std::size_t>(t) * config_.input;
        std::uint32_t xin = config_.input;

        for (std::uint32_t l = 0; l < config_.layers; ++l) {
            const Matrix &wx = wx_[l];
            const Matrix &wh = wh_[l];
            const std::vector<float> &bias = b_[l];
            float *hl = h.data() + static_cast<std::size_t>(l) * H;
            float *cl = c.data() + static_cast<std::size_t>(l) * H;

            for (std::uint32_t g = 0; g < 4 * H; ++g) {
                const float *wxr = wx.row(g);
                const float *whr = wh.row(g);
                float acc = bias[g];
                for (std::uint32_t i = 0; i < xin; ++i)
                    acc += wxr[i] * x[i];
                for (std::uint32_t i = 0; i < H; ++i)
                    acc += whr[i] * hl[i];
                gates[g] = acc;
            }

            std::size_t at = tape ? tape->at(l, t) : 0;
            for (std::uint32_t i = 0; i < H; ++i) {
                float ig = sigmoidf(gates[i]);
                float fg = sigmoidf(gates[H + i]);
                float gg = std::tanh(gates[2 * H + i]);
                float og = sigmoidf(gates[3 * H + i]);
                cl[i] = fg * cl[i] + ig * gg;
                float tc = std::tanh(cl[i]);
                hl[i] = og * tc;
                if (tape) {
                    tape->ig[at + i] = ig;
                    tape->fg[at + i] = fg;
                    tape->gg[at + i] = gg;
                    tape->og[at + i] = og;
                    tape->c[at + i] = cl[i];
                    tape->tanh_c[at + i] = tc;
                    tape->h[at + i] = hl[i];
                }
            }

            x = hl; // next layer consumes this layer's output
            xin = H;
        }
    }

    // Dense head over the top layer's final hidden state.
    std::vector<float> logits(config_.output, 0.0f);
    const float *top = h.data() + state - H;
    for (std::uint32_t o = 0; o < config_.output; ++o) {
        const float *w = head_w_.row(o);
        float acc = head_b_[o];
        for (std::uint32_t i = 0; i < H; ++i)
            acc += w[i] * top[i];
        logits[o] = acc;
    }
    return logits;
}

int
Lstm::classify(std::span<const float> seq) const
{
    std::vector<float> logits = forward(seq);
    int best = 0;
    argmaxRows(MatrixView(logits.data(), 1, logits.size(), logits.size()),
               &best);
    return best;
}

std::vector<int>
Lstm::classifyBatch(std::span<const float> seqs, std::size_t batch) const
{
    std::size_t per =
        static_cast<std::size_t>(config_.seq_len) * config_.input;
    LAKE_ASSERT(seqs.size() == per * batch,
                "lstm batch has %zu values, want %zu", seqs.size(),
                per * batch);
    // Samples are independent: parallel over the batch, one label slot
    // per sample, so results are identical at any thread count.
    std::vector<int> out(batch);
    base::ThreadPool::global().parallelFor(
        0, batch, 1, [&](std::size_t b, std::size_t e) {
            for (std::size_t s = b; s < e; ++s)
                out[s] = classify(seqs.subspan(s * per, per));
        });
    return out;
}

double
Lstm::flopsPerSample() const
{
    double flops = 0.0;
    for (std::uint32_t l = 0; l < config_.layers; ++l) {
        double in = l == 0 ? config_.input : config_.hidden;
        // Gate matmuls (x and h paths) plus elementwise updates.
        double per_step = 2.0 * 4 * config_.hidden * (in + config_.hidden) +
                          10.0 * config_.hidden;
        flops += per_step * config_.seq_len;
    }
    flops += 2.0 * config_.output * config_.hidden; // head
    return flops;
}

std::size_t
Lstm::paramCount() const
{
    std::size_t n = 0;
    for (std::uint32_t l = 0; l < config_.layers; ++l)
        n += wx_[l].size() + wh_[l].size() + b_[l].size();
    n += head_w_.size() + head_b_.size();
    return n;
}

std::vector<std::uint8_t>
Lstm::serialize() const
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

    put32(0x4c53544dU); // 'LSTM'
    put32(config_.input);
    put32(config_.hidden);
    put32(config_.layers);
    put32(config_.output);
    put32(config_.seq_len);
    for (std::uint32_t l = 0; l < config_.layers; ++l) {
        putFloats(wx_[l].data(), wx_[l].size());
        putFloats(wh_[l].data(), wh_[l].size());
        putFloats(b_[l].data(), b_[l].size());
    }
    putFloats(head_w_.data(), head_w_.size());
    putFloats(head_b_.data(), head_b_.size());
    return blob;
}

Result<Lstm>
Lstm::deserialize(const std::vector<std::uint8_t> &blob)
{
    std::size_t pos = 0;
    auto get32 = [&](std::uint32_t *out) {
        if (pos + 4 > blob.size())
            return false;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(blob[pos + i]) << (8 * i);
        pos += 4;
        *out = v;
        return true;
    };
    auto getFloats = [&](float *p, std::size_t n) {
        std::size_t bytes = n * sizeof(float);
        if (pos + bytes > blob.size())
            return false;
        std::memcpy(p, blob.data() + pos, bytes);
        pos += bytes;
        return true;
    };
    auto bad = [](const char *why) {
        return Result<Lstm>(Status(Code::InvalidArgument, why));
    };

    std::uint32_t magic = 0;
    if (!get32(&magic) || magic != 0x4c53544dU)
        return bad("bad LSTM magic");

    LstmConfig cfg;
    if (!get32(&cfg.input) || !get32(&cfg.hidden) || !get32(&cfg.layers) ||
        !get32(&cfg.output) || !get32(&cfg.seq_len)) {
        return bad("truncated LSTM header");
    }
    if (cfg.input == 0 || cfg.hidden == 0 || cfg.layers == 0 ||
        cfg.layers > 16 || cfg.output == 0 || cfg.seq_len == 0) {
        return bad("implausible LSTM config");
    }

    Lstm net(cfg);
    for (std::uint32_t l = 0; l < cfg.layers; ++l) {
        std::uint32_t in = l == 0 ? cfg.input : cfg.hidden;
        Matrix wx(4 * cfg.hidden, in);
        Matrix wh(4 * cfg.hidden, cfg.hidden);
        std::vector<float> bias(4 * cfg.hidden);
        if (!getFloats(wx.data(), wx.size()) ||
            !getFloats(wh.data(), wh.size()) ||
            !getFloats(bias.data(), bias.size())) {
            return bad("truncated LSTM weights");
        }
        net.wx_.push_back(std::move(wx));
        net.wh_.push_back(std::move(wh));
        net.b_.push_back(std::move(bias));
    }
    net.head_w_ = Matrix(cfg.output, cfg.hidden);
    net.head_b_.assign(cfg.output, 0.0f);
    if (!getFloats(net.head_w_.data(), net.head_w_.size()) ||
        !getFloats(net.head_b_.data(), net.head_b_.size())) {
        return bad("truncated LSTM head");
    }
    if (pos != blob.size())
        return bad("trailing bytes in LSTM blob");
    return Result<Lstm>(std::move(net));
}

} // namespace lake::ml
