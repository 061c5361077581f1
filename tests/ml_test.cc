// Tests for the ML substrate: matrix ops, MLP forward/backward
// (including a numerical gradient check), LSTM, k-NN, serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "base/thread_pool.h"
#include "ml/compute.h"
#include "ml/knn.h"
#include "ml/lstm.h"
#include "ml/matrix.h"
#include "ml/mlp.h"

namespace lake::ml {
namespace {

TEST(MatrixTest, AffineComputesXWtPlusB)
{
    Matrix x(2, 3);
    float xv[] = {1, 2, 3, 4, 5, 6};
    std::copy(xv, xv + 6, x.data());
    Matrix w(2, 3); // (out=2, in=3)
    float wv[] = {1, 0, 0, 0, 1, 0};
    std::copy(wv, wv + 6, w.data());
    std::vector<float> b = {10, 20};

    Matrix y(2, 2);
    compute::affine(x.data(), x.rows(), x.cols(), x.cols(), w.data(),
                    w.rows(), b.data(), y.data());
    ASSERT_EQ(y.rows(), 2u);
    ASSERT_EQ(y.cols(), 2u);
    EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f); // 1 + 10
    EXPECT_FLOAT_EQ(y.at(0, 1), 22.0f); // 2 + 20
    EXPECT_FLOAT_EQ(y.at(1, 0), 14.0f);
    EXPECT_FLOAT_EQ(y.at(1, 1), 25.0f);
}

TEST(MatrixTest, BackingIsCacheLineAligned)
{
    // The GEMM substrate and the SoA float plane both assume row 0
    // starts on a cache line; odd shapes and moves must not break it.
    for (std::size_t rows : {1u, 3u, 17u}) {
        for (std::size_t cols : {1u, 5u, 31u}) {
            Matrix m(rows, cols);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) %
                          Matrix::kAlign,
                      0u)
                << rows << "x" << cols;
            Matrix moved = std::move(m);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) %
                          Matrix::kAlign,
                      0u);
        }
    }
}

TEST(MatrixTest, RandnMomentsRoughlyGaussian)
{
    Rng rng(5);
    Matrix m = Matrix::randn(100, 100, rng, 0.5);
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        sum += m.data()[i];
        sq += m.data()[i] * m.data()[i];
    }
    double mean = sum / m.size();
    double var = sq / m.size() - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(std::sqrt(var), 0.5, 0.02);
}

TEST(MlpTest, ConfigsMatchPaperShapes)
{
    MlpConfig linnos = MlpConfig::linnos();
    EXPECT_EQ(linnos.input, 31u);
    ASSERT_EQ(linnos.hidden.size(), 1u);
    EXPECT_EQ(linnos.hidden[0], 256u); // "two layers with 256 and 2"
    EXPECT_EQ(linnos.output, 2u);

    EXPECT_EQ(MlpConfig::linnos(1).hidden.size(), 2u); // NN+1
    EXPECT_EQ(MlpConfig::linnos(2).hidden.size(), 3u); // NN+2
}

TEST(MlpTest, ForwardShapeAndDeterminism)
{
    Rng rng(1);
    Mlp net(MlpConfig::linnos(), rng);
    Matrix x(5, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i % 7) * 0.1f;
    Matrix y1 = net.forward(x);
    Matrix y2 = net.forward(x);
    ASSERT_EQ(y1.rows(), 5u);
    ASSERT_EQ(y1.cols(), 2u);
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
}

TEST(MlpTest, GradientMatchesNumericalDifferentiation)
{
    // Small net so finite differences stay accurate.
    MlpConfig cfg;
    cfg.input = 4;
    cfg.hidden = {5};
    cfg.output = 3;
    Rng rng(7);

    Matrix x(3, 4);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<int> y = {0, 2, 1};

    auto loss_of = [&](const Mlp &net) {
        Matrix probs = softmax(net.forward(x));
        double loss = 0.0;
        for (std::size_t r = 0; r < 3; ++r)
            loss += -std::log(static_cast<double>(probs.at(r, y[r])));
        return loss / 3.0;
    };

    // Analytic gradient via one SGD step with tiny lr: dW ~ (W - W')/lr.
    const float lr = 1e-4f;
    Mlp base(cfg, rng);
    Mlp stepped = base;
    stepped.trainStep(x, y, lr);

    // Numerical gradient for a handful of probe weights.
    for (auto [layer, row, col] :
         {std::tuple<int, int, int>{0, 0, 0}, {0, 2, 3}, {1, 1, 4},
          {1, 2, 0}}) {
        double analytic =
            (base.weights()[layer].at(row, col) -
             stepped.weights()[layer].at(row, col)) /
            lr;

        const float eps = 1e-3f;
        Mlp plus = base, minus = base;
        plus.editParams([&, layer = layer, row = row, col = col](
                            std::vector<Matrix> &w, auto &) {
            w[layer].at(row, col) += eps;
        });
        minus.editParams([&, layer = layer, row = row, col = col](
                             std::vector<Matrix> &w, auto &) {
            w[layer].at(row, col) -= eps;
        });
        double numeric = (loss_of(plus) - loss_of(minus)) / (2.0 * eps);

        EXPECT_NEAR(analytic, numeric,
                    std::max(2e-2, std::abs(numeric) * 0.05))
            << "layer " << layer << " w(" << row << "," << col << ")";
    }
}

TEST(MlpTest, TrainingLearnsASeparableTask)
{
    // Label = 1 iff sum of inputs exceeds 0; linearly separable so a
    // few epochs must reach high accuracy.
    Rng rng(11);
    MlpConfig cfg;
    cfg.input = 8;
    cfg.hidden = {16};
    cfg.output = 2;
    Mlp net(cfg, rng);

    const std::size_t n = 512;
    Matrix x(n, 8);
    std::vector<int> y(n);
    for (std::size_t r = 0; r < n; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < 8; ++c) {
            x.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
            sum += x.at(r, c);
        }
        y[r] = sum > 0.0f ? 1 : 0;
    }

    double first_loss = net.trainStep(x, y, 0.2f);
    for (int epoch = 0; epoch < 400; ++epoch)
        net.trainStep(x, y, 0.2f);
    EXPECT_GT(net.accuracy(x, y), 0.95);
    EXPECT_LT(net.trainStep(x, y, 0.0f), first_loss);
}

TEST(MlpTest, SerializeRoundTrip)
{
    Rng rng(3);
    Mlp net(MlpConfig::linnos(1), rng);
    auto blob = net.serialize();

    auto copy = Mlp::deserialize(blob);
    ASSERT_TRUE(copy.isOk());
    EXPECT_EQ(copy.value().paramCount(), net.paramCount());

    Matrix x(4, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i) * 0.01f;
    Matrix y1 = net.forward(x);
    Matrix y2 = copy.value().forward(x);
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
}

TEST(MlpTest, DeserializeRejectsGarbage)
{
    EXPECT_FALSE(Mlp::deserialize({}).isOk());
    EXPECT_FALSE(Mlp::deserialize({1, 2, 3}).isOk());

    Rng rng(4);
    Mlp net(MlpConfig::mllb(), rng);
    auto blob = net.serialize();
    blob.resize(blob.size() / 2); // truncated weights
    EXPECT_FALSE(Mlp::deserialize(blob).isOk());

    auto blob2 = net.serialize();
    blob2.push_back(0); // trailing bytes
    EXPECT_FALSE(Mlp::deserialize(blob2).isOk());

    // A 20-byte header (a real blob's magic, then input, one hidden
    // layer and output widths) declaring 2^31-wide layers: rejected on
    // length before a single layer is allocated.
    std::vector<std::uint8_t> huge(blob2.begin(), blob2.begin() + 4);
    for (std::uint32_t v : {0x7fffffffU, 1U, 0x7fffffffU, 2U})
        for (int i = 0; i < 4; ++i)
            huge.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    ASSERT_EQ(huge.size(), 20u);
    Result<Mlp> r = Mlp::deserialize(huge);
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), Code::InvalidArgument);
}

TEST(MlpTest, TrainStepLossIsTheInferenceForwardLoss)
{
    // trainStep's forward is the inference forward: the loss it reports
    // equals, bit for bit, the loss recomputed from forward() before
    // the step, for every shape and batch size.
    Rng rng(31);
    for (MlpConfig cfg : {MlpConfig::linnos(), MlpConfig::linnos(1),
                          MlpConfig::mllb(), MlpConfig::kml()}) {
        Mlp net(cfg, rng);
        for (std::size_t n : {1u, 2u, 3u, 5u, 17u}) {
            Matrix x(n, cfg.input);
            for (std::size_t i = 0; i < x.size(); ++i)
                x.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
            std::vector<int> y(n);
            for (int &label : y)
                label = static_cast<int>(rng.uniformInt(0, cfg.output - 1));

            Matrix probs = softmax(net.forward(x));
            double expect = 0.0;
            for (std::size_t r = 0; r < n; ++r)
                expect += -std::log(std::max(probs.at(r, y[r]), 1e-12f));
            expect /= static_cast<double>(n);

            EXPECT_EQ(net.trainStep(x, y, 0.05f), expect)
                << cfg.input << "-wide model, batch " << n;
        }
    }
}

// ---- scalar reference trainer ---------------------------------------
//
// The textbook SGD step Mlp::trainStep replaced with GEMM calls: scalar
// forward and backward loops, each output element one reduction in
// ascending index order. Kept as the bit-exact model the GEMM
// backward must reproduce.
namespace ref {

struct Net
{
    std::vector<Matrix> w; //!< per layer, out x in
    std::vector<std::vector<float>> b;

    /** y = x * W^T + b, one ascending-i reduction per element. */
    Matrix
    layer(std::size_t l, const Matrix &x) const
    {
        Matrix y(x.rows(), w[l].rows());
        for (std::size_t r = 0; r < x.rows(); ++r) {
            for (std::size_t o = 0; o < w[l].rows(); ++o) {
                float acc = b[l][o];
                for (std::size_t i = 0; i < w[l].cols(); ++i)
                    acc += x.at(r, i) * w[l].at(o, i);
                y.at(r, o) = acc;
            }
        }
        return y;
    }

    double
    trainStep(const Matrix &x, const std::vector<int> &labels, float lr)
    {
        std::size_t n = x.rows();
        std::vector<Matrix> hidden;
        Matrix logits = layer(0, x);
        for (std::size_t l = 1; l < w.size(); ++l) {
            for (std::size_t i = 0; i < logits.size(); ++i)
                logits.data()[i] = std::max(0.0f, logits.data()[i]);
            Matrix next = layer(l, logits);
            hidden.push_back(std::move(logits));
            logits = std::move(next);
        }

        Matrix probs = softmax(logits);
        double loss = 0.0;
        Matrix delta(n, logits.cols());
        for (std::size_t r = 0; r < n; ++r) {
            int y = labels[r];
            loss += -std::log(std::max(probs.at(r, y), 1e-12f));
            for (std::size_t c = 0; c < logits.cols(); ++c) {
                float t = (static_cast<int>(c) == y) ? 1.0f : 0.0f;
                delta.at(r, c) =
                    (probs.at(r, c) - t) / static_cast<float>(n);
            }
        }

        for (std::size_t li = w.size(); li-- > 0;) {
            const Matrix &a_in = li == 0 ? x : hidden[li - 1];
            Matrix &wl = w[li];
            Matrix next_delta;
            if (li > 0) {
                next_delta = Matrix(n, wl.cols());
                for (std::size_t r = 0; r < n; ++r) {
                    for (std::size_t i = 0; i < wl.cols(); ++i) {
                        float acc = 0.0f;
                        for (std::size_t o = 0; o < wl.rows(); ++o)
                            acc += delta.at(r, o) * wl.at(o, i);
                        next_delta.at(r, i) =
                            a_in.at(r, i) > 0.0f ? acc : 0.0f;
                    }
                }
            }
            for (std::size_t o = 0; o < wl.rows(); ++o) {
                float db = 0.0f;
                for (std::size_t r = 0; r < n; ++r)
                    db += delta.at(r, o);
                b[li][o] -= lr * db;
                for (std::size_t i = 0; i < wl.cols(); ++i) {
                    float dw = 0.0f;
                    for (std::size_t r = 0; r < n; ++r)
                        dw += delta.at(r, o) * a_in.at(r, i);
                    wl.at(o, i) -= lr * dw;
                }
            }
            if (li > 0)
                delta = std::move(next_delta);
        }
        return loss / static_cast<double>(n);
    }
};

} // namespace ref

/** Whether @p net's parameters equal @p model's, bit for bit. */
::testing::AssertionResult
sameParams(const Mlp &net, const ref::Net &model)
{
    auto differ = [](const float *got, const float *want, std::size_t n,
                     std::size_t l, const char *what) {
        for (std::size_t i = 0; i < n; ++i)
            if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
                return ::testing::AssertionFailure()
                       << "layer " << l << " " << what << "[" << i
                       << "]: " << got[i] << " != " << want[i];
        return ::testing::AssertionSuccess();
    };
    for (std::size_t l = 0; l < model.w.size(); ++l) {
        const Matrix &w = net.weights()[l];
        const std::vector<float> &b = net.biases()[l];
        if (auto r = differ(w.data(), model.w[l].data(), w.size(), l,
                            "weight");
            !r)
            return r;
        if (auto r = differ(b.data(), model.b[l].data(), b.size(), l,
                            "bias");
            !r)
            return r;
    }
    return ::testing::AssertionSuccess();
}

/** Shapes the trainer must reproduce the reference on: the paper's
 *  models, plus one whose widths leave every gemmBlock tail (n % 4
 *  rows, out % 16 columns) to run. */
std::vector<MlpConfig>
trainShapes()
{
    MlpConfig odd;
    odd.input = 5;
    odd.hidden = {7};
    odd.output = 3;
    return {MlpConfig::linnos(0), MlpConfig::linnos(1),
            MlpConfig::linnos(2), MlpConfig::mllb(), MlpConfig::kml(),
            odd};
}

TEST(MlpTest, TrainStepMatchesScalarReference)
{
    Rng rng(41);
    for (const MlpConfig &cfg : trainShapes()) {
        for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 64u}) {
            Mlp net(cfg, rng);
            ref::Net model{net.weights(), net.biases()};
            for (int step = 0; step < 5; ++step) {
                Matrix x(n, cfg.input);
                for (std::size_t i = 0; i < x.size(); ++i)
                    x.data()[i] =
                        static_cast<float>(rng.uniform(-2.0, 2.0));
                std::vector<int> y(n);
                for (int &label : y)
                    label =
                        static_cast<int>(rng.uniformInt(0, cfg.output - 1));
                // A learning rate drawn at run time, as training
                // schedules pass it: a literal would let the compiler
                // fold it into the reference's update and contract
                // that expression differently from the library's.
                const auto lr = static_cast<float>(rng.uniform(0.01, 0.1));
                EXPECT_EQ(net.trainStep(x, y, lr),
                          model.trainStep(x, y, lr))
                    << cfg.input << "-wide model, batch " << n
                    << ", step " << step;
                ASSERT_TRUE(sameParams(net, model))
                    << cfg.input << "-wide model, "
                    << cfg.hidden.size() << " hidden, batch " << n
                    << ", step " << step;
            }
        }
    }
}

TEST(MlpDeathTest, AccuracyRejectsMismatchedLabels)
{
    Rng rng(42);
    Mlp net(MlpConfig::mllb(), rng);
    Matrix x(8, 22);
    std::vector<int> short_labels(3, 0);
    EXPECT_DEATH(net.accuracy(x, short_labels),
                 "labels/batch size mismatch");
}

TEST(MlpTest, FlopsAndParamsMatchShape)
{
    Rng rng(5);
    Mlp net(MlpConfig::linnos(), rng);
    // 31*256 + 256*2 mults, doubled for adds.
    EXPECT_DOUBLE_EQ(net.flopsPerSample(),
                     2.0 * (31 * 256 + 256 * 2));
    EXPECT_EQ(net.paramCount(),
              static_cast<std::size_t>(31 * 256 + 256 + 256 * 2 + 2));
}

// ---- LSTM -----------------------------------------------------------

TEST(LstmTest, HandComputedSingleStep)
{
    // 1 layer, hidden 1, input 1, seq 1: all weights set by hand.
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 1;
    cfg.layers = 1;
    cfg.output = 1;
    cfg.seq_len = 1;
    Rng rng(1);
    Lstm net(cfg, rng);

    auto &wx = const_cast<Matrix &>(net.wx()[0]);
    auto &wh = const_cast<Matrix &>(net.wh()[0]);
    auto &b = const_cast<std::vector<float> &>(net.bias()[0]);
    // Gates [i, f, g, o]: make i=sigmoid(1), f=sigmoid(0)=0.5,
    // g=tanh(2), o=sigmoid(0.5) for x=1, h=0.
    wx.at(0, 0) = 1.0f;  // i
    wx.at(1, 0) = 0.0f;  // f
    wx.at(2, 0) = 2.0f;  // g
    wx.at(3, 0) = 0.5f;  // o
    for (int g = 0; g < 4; ++g) {
        wh.at(g, 0) = 0.0f;
        b[g] = 0.0f;
    }
    auto &hw = const_cast<Matrix &>(net.headW());
    hw.at(0, 0) = 1.0f;
    const_cast<std::vector<float> &>(net.headB())[0] = 0.0f;

    double i = 1.0 / (1.0 + std::exp(-1.0));
    double g = std::tanh(2.0);
    double c = 0.5 * 0.0 + i * g;
    double o = 1.0 / (1.0 + std::exp(-0.5));
    double h = o * std::tanh(c);

    std::vector<float> out = net.forward(std::vector<float>{1.0f});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0], h, 1e-5);
}

TEST(LstmTest, ForgettingGateCarriesState)
{
    // With f=1, i=0: cell state must persist across the sequence.
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 1;
    cfg.layers = 1;
    cfg.output = 1;
    cfg.seq_len = 5;
    Rng rng(2);
    Lstm net(cfg, rng);

    auto &wx = const_cast<Matrix &>(net.wx()[0]);
    auto &wh = const_cast<Matrix &>(net.wh()[0]);
    auto &b = const_cast<std::vector<float> &>(net.bias()[0]);
    for (int g = 0; g < 4; ++g) {
        wx.at(g, 0) = 0.0f;
        wh.at(g, 0) = 0.0f;
    }
    b[0] = -100.0f; // i ~= 0
    b[1] = 100.0f;  // f ~= 1
    b[2] = 0.0f;
    b[3] = 100.0f;  // o ~= 1
    // Zero state forever: output = tanh(0) = 0 regardless of input.
    const_cast<Matrix &>(net.headW()).at(0, 0) = 1.0f;
    std::vector<float> out = net.forward(std::vector<float>(5, 5.0f));
    EXPECT_NEAR(out[0], 0.0, 1e-5);
}

TEST(LstmTest, KleioShape)
{
    LstmConfig cfg = LstmConfig::kleio();
    EXPECT_EQ(cfg.layers, 2u); // "a model with two LSTM layers"
    Rng rng(6);
    Lstm net(cfg, rng);
    std::vector<float> seq(cfg.seq_len * cfg.input, 0.3f);
    std::vector<float> logits = net.forward(seq);
    EXPECT_EQ(logits.size(), cfg.output);
    EXPECT_GT(net.flopsPerSample(), 1e6);
}

TEST(LstmTest, SerializeRoundTrip)
{
    LstmConfig cfg;
    cfg.input = 2;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.output = 3;
    cfg.seq_len = 4;
    Rng rng(9);
    Lstm net(cfg, rng);

    auto blob = net.serialize();
    auto copy = Lstm::deserialize(blob);
    ASSERT_TRUE(copy.isOk());

    std::vector<float> seq(8, 0.5f);
    auto a = net.forward(seq);
    auto b = copy.value().forward(seq);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_FLOAT_EQ(a[i], b[i]);

    blob[0] ^= 0xff;
    EXPECT_FALSE(Lstm::deserialize(blob).isOk());
}

TEST(LstmTest, BatchMatchesSingles)
{
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 4;
    cfg.layers = 1;
    cfg.output = 2;
    cfg.seq_len = 3;
    Rng rng(10);
    Lstm net(cfg, rng);

    std::vector<float> batch = {0.1f, 0.2f, 0.3f, 0.9f, 0.8f, 0.7f};
    auto labels = net.classifyBatch(batch, 2);
    EXPECT_EQ(labels[0], net.classify(std::span(batch).first(3)));
    EXPECT_EQ(labels[1], net.classify(std::span(batch).last(3)));
}

// ---- kNN ------------------------------------------------------------

TEST(KnnTest, NearestNeighborWins)
{
    Knn knn(2, 1);
    float a[] = {0.0f, 0.0f};
    float b[] = {10.0f, 10.0f};
    knn.add(a, 0);
    knn.add(b, 1);

    float q1[] = {1.0f, 1.0f};
    float q2[] = {9.0f, 9.0f};
    EXPECT_EQ(knn.classify(q1), 0);
    EXPECT_EQ(knn.classify(q2), 1);
}

TEST(KnnTest, MajorityVote)
{
    Knn knn(1, 3);
    float p0[] = {0.0f}, p1[] = {1.0f}, p2[] = {2.0f}, p3[] = {10.0f};
    knn.add(p0, 0);
    knn.add(p1, 0);
    knn.add(p2, 1);
    knn.add(p3, 1);
    // Query at 0.5: neighbours {0, 1, 2} vote labels {0, 0, 1}.
    float q[] = {0.5f};
    EXPECT_EQ(knn.classify(q), 0);
}

TEST(KnnTest, BatchMatchesSingles)
{
    Rng rng(12);
    Knn knn(4, 3);
    std::vector<float> point(4);
    for (int i = 0; i < 100; ++i) {
        for (auto &v : point)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        knn.add(point.data(), i % 3);
    }
    std::vector<float> queries(10 * 4);
    for (auto &v : queries)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    auto batch = knn.classifyBatch(queries.data(), 10);
    for (int q = 0; q < 10; ++q)
        EXPECT_EQ(batch[q], knn.classify(queries.data() + q * 4));
}

TEST(KnnTest, VoteTieGoesToNearestNeighbor)
{
    // k=4 with votes 2:2 — label 1 owns the nearest reference, so it
    // must win even though label 0 has the lower id. (The seed broke
    // ties toward the lowest label id.)
    Knn knn(1, 4);
    float r0[] = {1.0f}, r1[] = {3.0f}, r2[] = {2.0f}, r3[] = {2.5f};
    knn.add(r0, 1);
    knn.add(r1, 1);
    knn.add(r2, 0);
    knn.add(r3, 0);
    float q[] = {0.0f};
    EXPECT_EQ(knn.classify(q), 1);
    auto batch = knn.classifyBatch(q, 1);
    EXPECT_EQ(batch[0], 1);
}

TEST(KnnTest, BatchMatchesSinglesAtScale)
{
    // Larger randomized oracle for the GEMM-decomposed batched path:
    // awkward sizes (refs not a multiple of the register tile, dim not
    // a multiple of anything) and enough queries to span several
    // parallelFor chunks.
    Rng rng(77);
    const std::size_t dim = 37, refs_n = 501, queries_n = 67, k = 9;
    Knn knn(dim, k);
    std::vector<float> point(dim);
    for (std::size_t r = 0; r < refs_n; ++r) {
        for (auto &v : point)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        knn.add(point.data(), static_cast<int>(r % 5));
    }
    std::vector<float> queries(queries_n * dim);
    for (auto &v : queries)
        v = static_cast<float>(rng.uniform(-2.0, 2.0));
    auto batch = knn.classifyBatch(queries.data(), queries_n);
    ASSERT_EQ(batch.size(), queries_n);
    for (std::size_t q = 0; q < queries_n; ++q)
        EXPECT_EQ(batch[q], knn.classify(queries.data() + q * dim))
            << "query " << q;
}

// ---- thread-count determinism --------------------------------------
//
// The ThreadPool determinism contract promises bit-identical results
// with LAKE_CPU_THREADS=1, 2 or 8. These sweeps pin that down for the
// routed hot paths: affine/GEMM, batched kNN, MLP forward and the MLP
// training step.

class ThreadSweepTest : public ::testing::Test
{
  protected:
    void TearDown() override { base::ThreadPool::resetGlobal(0); }

    template <typename Fn>
    void
    expectBitIdentical(Fn &&run)
    {
        base::ThreadPool::resetGlobal(1);
        auto ref = run();
        for (std::size_t threads : {2, 8}) {
            base::ThreadPool::resetGlobal(threads);
            auto got = run();
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(got[i], ref[i])
                    << "element " << i << " at " << threads
                    << " threads";
        }
    }
};

TEST_F(ThreadSweepTest, AffineBitIdentical)
{
    // Dense and strided input (row stride 40 over 31 used floats), the
    // ragged row counts the 4-row microkernel leaves to the tail
    // kernel, and output widths below and past one register tile.
    Rng rng(21);
    const std::size_t in = 31, stride = 40;
    Matrix xs = Matrix::randn(53, stride, rng, 1.0);
    for (std::size_t x_stride : {in, stride}) {
        for (std::size_t rows : {1u, 2u, 3u, 5u, 53u}) {
            for (std::size_t out : {2u, 17u}) {
                Matrix w = Matrix::randn(out, in, rng, 1.0);
                std::vector<float> b(out, 0.25f);
                expectBitIdentical([&] {
                    std::vector<float> y(rows * out);
                    compute::affine(xs.data(), rows, in, x_stride,
                                    w.data(), out, b.data(), y.data());
                    return y;
                });
            }
        }
    }
}

TEST_F(ThreadSweepTest, KnnNeighborsBitIdentical)
{
    Rng rng(22);
    const std::size_t dim = 19, refs_n = 230, queries_n = 41, k = 7;
    std::vector<float> refs(refs_n * dim), queries(queries_n * dim);
    for (auto &v : refs)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto &v : queries)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    expectBitIdentical([&] {
        std::vector<compute::Neighbor> nb(queries_n * k);
        compute::knnNeighbors(queries.data(), queries_n, dim, dim,
                              refs.data(), refs_n, k, nb.data());
        std::vector<float> flat;
        flat.reserve(nb.size() * 2);
        for (const auto &n : nb) {
            flat.push_back(n.d2);
            flat.push_back(static_cast<float>(n.index));
        }
        return flat;
    });
}

TEST_F(ThreadSweepTest, MlpForwardBitIdentical)
{
    Rng rng(23);
    Mlp net(MlpConfig::linnos(), rng);
    Matrix x(33, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i % 13) * 0.07f;
    // The dense forward, then the same rows split into two views at
    // every split point: each must match the single-thread dense run.
    expectBitIdentical([&] {
        Matrix y = net.forward(x);
        std::vector<float> all(y.data(), y.data() + y.size());
        for (std::size_t split = 0; split <= x.rows(); ++split) {
            Matrix ys = net.forward(
                {MatrixView(x.data(), split, x.cols(), x.cols()),
                 MatrixView(x.row(split), x.rows() - split, x.cols(),
                            x.cols())});
            EXPECT_TRUE(std::equal(ys.data(), ys.data() + ys.size(),
                                   y.data(), y.data() + y.size()))
                << "views split at row " << split;
            all.insert(all.end(), ys.data(), ys.data() + ys.size());
        }
        return all;
    });
}

TEST_F(ThreadSweepTest, MlpTrainStepBitIdentical)
{
    // Training runs the pooled forward GEMM, and at 1,100 rows the
    // backward's delta transpose fans out over the pool too: the
    // trained parameters must not depend on the thread count.
    Rng rng(24);
    for (std::size_t n : {17u, 1100u}) {
        Matrix x(n, 31);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
        std::vector<int> y(n);
        for (int &label : y)
            label = static_cast<int>(rng.uniformInt(0, 1));
        const std::uint64_t seed = rng.uniformInt(0, 1 << 30);
        expectBitIdentical([&] {
            Rng init(seed);
            Mlp net(MlpConfig::linnos(1), init);
            std::vector<double> all; // losses, then parameters
            for (int step = 0; step < 3; ++step)
                all.push_back(net.trainStep(x, y, 0.05f));
            for (std::size_t l = 0; l < net.weights().size(); ++l) {
                const Matrix &w = net.weights()[l];
                all.insert(all.end(), w.data(), w.data() + w.size());
                all.insert(all.end(), net.biases()[l].begin(),
                           net.biases()[l].end());
            }
            return all;
        });
    }
}

TEST(KnnTest, FlopsScaleWithDbAndDim)
{
    Knn small(8, 1), big(64, 1);
    float pt[64] = {};
    small.add(pt, 0);
    for (int i = 0; i < 10; ++i)
        big.add(pt, 0);
    EXPECT_DOUBLE_EQ(small.flopsPerQuery(), 3.0 * 8 * 1);
    EXPECT_DOUBLE_EQ(big.flopsPerQuery(), 3.0 * 64 * 10);
}

} // namespace
} // namespace lake::ml
