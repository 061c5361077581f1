#ifndef LAKE_ML_MLP_H
#define LAKE_ML_MLP_H

/**
 * @file
 * Multi-layer perceptron with SGD training.
 *
 * This is the model family of three of the paper's workloads: LinnOS's
 * I/O latency predictor ("two layers with 256 and 2 neurons" plus the
 * +1/+2 augmented variants of §7.1), MLLB's load balancer (§7.3), and
 * KML's readahead classifier (§7.4). Hidden layers are ReLU; the output
 * layer is linear, classified by argmax / trained with softmax
 * cross-entropy.
 *
 * One dense-layer path: every layer runs on weights packed once per
 * parameter change (compute::packTranspose with ld = padTile(out)),
 * over a batch given as MatrixViews. Inference and the training
 * forward run the same packed layers, so a trained model scores the
 * same bits it was trained on. The serialize() blob format is read in
 * one place too (parseBlobHeader), by deserialize and by the
 * mlp_forward GPU kernel body.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "ml/matrix.h"

namespace lake::ml {

/** Layer widths of an MLP. */
struct MlpConfig
{
    std::uint32_t input = 0;
    /** Hidden widths; empty = logistic regression. */
    std::vector<std::uint32_t> hidden;
    std::uint32_t output = 2;

    /**
     * LinnOS's model: 31 inputs (4 pending-I/O counts + latencies of
     * recent I/Os, digit-encoded), one 256 hidden layer, 2 outputs.
     * @param extra_layers the paper's +1/+2 augmentation: extra hidden
     *        layers with the same width as the first
     */
    static MlpConfig linnos(std::size_t extra_layers = 0);

    /** MLLB's load-balancer: 22 task/CPU features, compact hidden layer. */
    static MlpConfig mllb();

    /** KML's readahead classifier: 31 stats -> 4 pattern classes. */
    static MlpConfig kml();
};

/**
 * The network: weights, forward pass, and SGD training.
 */
class Mlp
{
  public:
    /** Randomly initialized network (He initialization). */
    Mlp(MlpConfig config, Rng &rng);

    /** Shape. */
    const MlpConfig &config() const { return config_; }

    /**
     * Forward pass over strided windows: the rows of all views (in
     * order) form the batch, (n x input) -> logits (n x output). The
     * first layer consumes each view in place — no gather/pack into a
     * contiguous Matrix — and later layers run on the stacked
     * activations.
     */
    Matrix forward(const std::vector<MatrixView> &xs) const;

    /** forward() of one dense batch. */
    Matrix forward(const Matrix &x) const { return forward({x.view()}); }

    /** Argmax class per row (see forward). */
    std::vector<int> classify(const std::vector<MatrixView> &xs) const;

    /** classify() of one dense batch. */
    std::vector<int> classify(const Matrix &x) const
    {
        return classify({x.view()});
    }

    /**
     * One SGD minibatch step with softmax cross-entropy loss.
     * @return mean loss over the batch before the update
     */
    double trainStep(const Matrix &x, const std::vector<int> &labels,
                     float lr);

    /** Fraction of rows classified correctly. */
    double accuracy(const Matrix &x, const std::vector<int> &labels) const;

    /** FLOPs of one sample's forward pass (the cost models' input). */
    double flopsPerSample() const;

    /** Total parameter count. */
    std::size_t paramCount() const;

    /** Serializes config + weights (the ModelStore blob format). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Reconstructs a network from serialize() output. The length the
     * header declares is checked against blob.size() before anything
     * is allocated.
     */
    static Result<Mlp> deserialize(const std::vector<std::uint8_t> &blob);

    /** What a serialize() header declares. */
    struct BlobLayout
    {
        std::vector<std::uint32_t> dims; //!< input, hidden..., output
        std::size_t bytes = 0;           //!< whole blob, header included
    };

    /** Reads the little-endian u32 at byte offset pos; false past the
     *  end of the blob. */
    using Read32 = std::function<bool(std::size_t pos, std::uint32_t *)>;

    /**
     * Parses a serialize() header through @p read32, touching nothing
     * past it: the one reader of the blob format. Fails with
     * InvalidArgument on a bad magic, a truncated header, a zero input
     * or output width, or a blob length that overflows size_t.
     */
    static Result<BlobLayout> parseBlobHeader(const Read32 &read32);

    /** Per-layer weight matrices, each (out x in). */
    const std::vector<Matrix> &weights() const { return weights_; }
    /** Per-layer bias vectors. */
    const std::vector<std::vector<float>> &biases() const { return biases_; }

    /**
     * In-place parameter edit (tests, calibration tools): applies
     * @p fn to the raw weights and biases, then refreshes the packed
     * forward-pass weights. The only supported way to mutate
     * parameters from outside — editing through a const_cast of
     * weights() leaves inference running on stale packs.
     */
    template <typename Fn> void editParams(Fn &&fn)
    {
        fn(weights_, biases_);
        repack();
    }

  private:
    /** Uninitialized network (deserialize fills the parameters). */
    explicit Mlp(MlpConfig config);

    /** Widths including input and output. */
    std::vector<std::uint32_t> dims() const;

    /**
     * Rebuilds the packed forward-pass weights; runs whenever the
     * parameters change (construction, deserialize, trainStep). Each
     * layer's transpose is padded to a whole register tile of output
     * columns (zeros the forward pass discards), so inference never
     * re-packs per call and narrow output layers still run the
     * vectorized GEMM microkernel.
     */
    void repack();

    /** One packed layer: y(n x out) = x * W_l^T + b_l, x rows at
     *  @p x_stride. y rows are contiguous (stride = layer output). */
    void layerForward(std::size_t l, const float *x, std::size_t n,
                      std::size_t x_stride, float *y) const;

    /**
     * The forward pass behind forward() and trainStep(): returns the
     * logits and, when @p hidden is non-null, appends each hidden
     * layer's post-ReLU activations (what backprop needs).
     */
    Matrix run(const std::vector<MatrixView> &xs,
               std::vector<Matrix> *hidden) const;

    MlpConfig config_;
    std::vector<Matrix> weights_;
    std::vector<std::vector<float>> biases_;
    std::vector<std::vector<float>> packed_;      //!< in x padded-out
    std::vector<std::vector<float>> packed_bias_; //!< zero-padded
    std::vector<std::size_t> packed_out_;         //!< padTile(out)
};

/** Row-wise softmax (exposed for loss computations in tests). */
Matrix softmax(const Matrix &logits);

} // namespace lake::ml

#endif // LAKE_ML_MLP_H
