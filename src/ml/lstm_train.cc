#include "ml/lstm_train.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "base/logging.h"
#include "ml/sgd.h"

namespace lake::ml {

namespace {

/** Per-layer parameter gradients. */
struct LayerGrads
{
    Matrix dwx;
    Matrix dwh;
    std::vector<float> db;
};

/**
 * Forward and backward pass for one sample, with @p tape as the
 * forward pass's record; accumulates into the gradient buffers.
 * @return the sample's cross-entropy loss
 */
double
backwardOne(const Lstm &net, const LstmSample &sample,
            std::vector<LayerGrads> *grads, Matrix *dhead_w,
            std::vector<float> *dhead_b, LstmTape &tape)
{
    const LstmConfig &cfg = net.config();
    std::uint32_t H = cfg.hidden;
    std::uint32_t L = cfg.layers;
    std::uint32_t T = cfg.seq_len;

    std::vector<float> logits = net.forward(sample.seq, &tape);

    // Softmax cross-entropy gradient on the head.
    float mx = *std::max_element(logits.begin(), logits.end());
    std::vector<float> probs(cfg.output);
    float sum = 0.0f;
    for (std::uint32_t o = 0; o < cfg.output; ++o) {
        probs[o] = std::exp(logits[o] - mx);
        sum += probs[o];
    }
    for (auto &p : probs)
        p /= sum;
    double loss = -std::log(std::max(
        1e-12, static_cast<double>(probs[sample.label])));

    std::vector<float> dlogits(cfg.output);
    for (std::uint32_t o = 0; o < cfg.output; ++o) {
        dlogits[o] = probs[o] - (static_cast<int>(o) == sample.label
                                     ? 1.0f
                                     : 0.0f);
    }

    // dh flowing into each layer at the *current* timestep, plus the
    // recurrent carriers dc/dh for the next-earlier step.
    std::vector<std::vector<float>> dh_next(L,
                                            std::vector<float>(H, 0.0f));
    std::vector<std::vector<float>> dc_next(L,
                                            std::vector<float>(H, 0.0f));

    // Head gradients (into the top layer's last hidden state).
    const float *top = &tape.h[tape.at(L - 1, T - 1)];
    for (std::uint32_t o = 0; o < cfg.output; ++o) {
        (*dhead_b)[o] += dlogits[o];
        for (std::uint32_t i = 0; i < H; ++i) {
            dhead_w->at(o, i) += dlogits[o] * top[i];
            dh_next[L - 1][i] += dlogits[o] * net.headW().at(o, i);
        }
    }

    std::vector<float> dz(4 * H);
    // dx of the layer above, to be added to the lower layer's dh at
    // the same timestep.
    std::vector<float> dx_upper(H, 0.0f);

    for (std::uint32_t ti = T; ti-- > 0;) {
        std::fill(dx_upper.begin(), dx_upper.end(), 0.0f);
        for (std::uint32_t l = L; l-- > 0;) {
            std::uint32_t xin = l == 0 ? cfg.input : H;
            const float *x_in =
                l == 0 ? sample.seq.data() +
                             static_cast<std::size_t>(ti) * cfg.input
                       : &tape.h[tape.at(l - 1, ti)];

            // Total dh at (l, ti): recurrent carrier + upper layer's dx.
            for (std::uint32_t u = 0; u < H; ++u)
                dh_next[l][u] += dx_upper[u];
            std::fill(dx_upper.begin(), dx_upper.end(), 0.0f);

            std::size_t at = tape.at(l, ti);
            std::size_t prev = ti > 0 ? tape.at(l, ti - 1) : 0;
            for (std::uint32_t u = 0; u < H; ++u) {
                float i_g = tape.ig[at + u];
                float f_g = tape.fg[at + u];
                float g_g = tape.gg[at + u];
                float o_g = tape.og[at + u];
                float tc = tape.tanh_c[at + u];
                float c_prev = ti > 0 ? tape.c[prev + u] : 0.0f;

                float dh = dh_next[l][u];
                float dc = dc_next[l][u] + dh * o_g * (1.0f - tc * tc);

                float d_o = dh * tc;
                float d_i = dc * g_g;
                float d_g = dc * i_g;
                float d_f = dc * c_prev;

                dz[0 * H + u] = d_i * i_g * (1.0f - i_g);
                dz[1 * H + u] = d_f * f_g * (1.0f - f_g);
                dz[2 * H + u] = d_g * (1.0f - g_g * g_g);
                dz[3 * H + u] = d_o * o_g * (1.0f - o_g);

                dc_next[l][u] = dc * f_g; // carries to step ti-1
            }
            std::fill(dh_next[l].begin(), dh_next[l].end(), 0.0f);

            LayerGrads &lg = (*grads)[l];
            const Matrix &wx = net.wx()[l];
            const Matrix &wh = net.wh()[l];
            const float *h_prev = ti > 0 ? &tape.h[prev] : nullptr;

            for (std::uint32_t g = 0; g < 4 * H; ++g) {
                float d = dz[g];
                if (d == 0.0f)
                    continue;
                lg.db[g] += d;
                float *dwx_row = lg.dwx.row(g);
                for (std::uint32_t i = 0; i < xin; ++i)
                    dwx_row[i] += d * x_in[i];
                if (h_prev) {
                    float *dwh_row = lg.dwh.row(g);
                    for (std::uint32_t i = 0; i < H; ++i)
                        dwh_row[i] += d * h_prev[i];
                }
                // Propagate to the layer input and recurrent state.
                const float *wx_row = wx.row(g);
                if (l > 0) {
                    for (std::uint32_t i = 0; i < H; ++i)
                        dx_upper[i] += d * wx_row[i];
                }
                const float *wh_row = wh.row(g);
                for (std::uint32_t i = 0; i < H; ++i)
                    dh_next[l][i] += d * wh_row[i];
            }
        }
    }
    return loss;
}

} // namespace

double
trainLstm(Lstm &net, const std::vector<LstmSample> &data,
          const LstmTrainConfig &config, Rng &rng)
{
    LAKE_ASSERT(!data.empty(), "empty LSTM training set");
    const LstmConfig &cfg = net.config();
    std::uint32_t H = cfg.hidden;
    std::uint32_t L = cfg.layers;

    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    LstmTape tape;
    auto step = [&](std::span<const std::size_t> samples, float lr,
                    double &epoch_loss) {
        std::size_t n = samples.size();
        std::vector<LayerGrads> grads;
        for (std::uint32_t l = 0; l < L; ++l) {
            std::uint32_t xin = l == 0 ? cfg.input : H;
            grads.push_back(LayerGrads{
                Matrix(4 * H, xin), Matrix(4 * H, H),
                std::vector<float>(4 * H, 0.0f)});
        }
        Matrix dhead_w(cfg.output, H);
        std::vector<float> dhead_b(cfg.output, 0.0f);

        for (std::size_t i : samples) {
            epoch_loss += backwardOne(net, data[i], &grads, &dhead_w,
                                      &dhead_b, tape);
        }

        // Global-norm clip, then SGD.
        double norm2 = 0.0;
        for (const LayerGrads &lg : grads) {
            for (std::size_t i = 0; i < lg.dwx.size(); ++i)
                norm2 += lg.dwx.data()[i] * lg.dwx.data()[i];
            for (std::size_t i = 0; i < lg.dwh.size(); ++i)
                norm2 += lg.dwh.data()[i] * lg.dwh.data()[i];
            for (float v : lg.db)
                norm2 += v * v;
        }
        for (std::size_t i = 0; i < dhead_w.size(); ++i)
            norm2 += dhead_w.data()[i] * dhead_w.data()[i];
        for (float v : dhead_b)
            norm2 += v * v;

        float scale = lr / static_cast<float>(n);
        if (config.clip > 0.0f) {
            double norm = std::sqrt(norm2) / static_cast<double>(n);
            if (norm > config.clip)
                scale *= config.clip / static_cast<float>(norm);
        }

        for (std::uint32_t l = 0; l < L; ++l) {
            Matrix &wx = net.mutableWx(l);
            Matrix &wh = net.mutableWh(l);
            std::vector<float> &b = net.mutableBias(l);
            for (std::size_t i = 0; i < wx.size(); ++i)
                wx.data()[i] -= scale * grads[l].dwx.data()[i];
            for (std::size_t i = 0; i < wh.size(); ++i)
                wh.data()[i] -= scale * grads[l].dwh.data()[i];
            for (std::size_t i = 0; i < b.size(); ++i)
                b[i] -= scale * grads[l].db[i];
        }
        Matrix &hw = net.mutableHeadW();
        std::vector<float> &hb = net.mutableHeadB();
        for (std::size_t i = 0; i < hw.size(); ++i)
            hw.data()[i] -= scale * dhead_w.data()[i];
        for (std::size_t i = 0; i < hb.size(); ++i)
            hb[i] -= scale * dhead_b[i];
    };
    double last_epoch_loss = sgdEpochs(std::move(order), config.batch,
                                       config.epochs, config.lr,
                                       config.lr_decay, rng, step);
    return last_epoch_loss / static_cast<double>(data.size());
}

double
lstmAccuracy(const Lstm &net, const std::vector<LstmSample> &data)
{
    if (data.empty())
        return 0.0;
    std::size_t hits = 0;
    for (const LstmSample &s : data)
        hits += net.classify(s.seq) == s.label ? 1 : 0;
    return static_cast<double>(hits) / static_cast<double>(data.size());
}

} // namespace lake::ml
