#ifndef LAKE_STORAGE_LINNOS_H
#define LAKE_STORAGE_LINNOS_H

/**
 * @file
 * LinnOS-style I/O latency prediction: feature encoding, labelling and
 * offline training.
 *
 * LinnOS classifies each read as fast or slow from "the number of
 * pending I/Os and the completion latency of a fixed number of previous
 * I/Os", encoding the numbers digit-by-digit so the network sees
 * magnitude structure: 31 inputs = 3 decimal digits of the pending
 * count + 4 recent latencies x 7 decimal digits each.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "ml/mlp.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "registry/soa.h"
#include "storage/nvme.h"
#include "storage/trace.h"

namespace lake::storage {

/** LinnOS input width: 3 + 4*7. */
constexpr std::size_t kLinnosFeatures = 31;
/** Latency history depth. */
constexpr std::size_t kLinnosHistory = 4;

/**
 * Digit-encodes device state into the 31 LinnOS features.
 * @param pending queued I/Os on the target device (clamped to 999)
 * @param lat_us  last 4 read latencies, microseconds, most recent
 *                first (each clamped to 9,999,999)
 * @param out     31 floats, each a digit scaled to [0, 0.9]
 */
void encodeLinnosFeatures(std::uint32_t pending,
                          const std::array<std::uint32_t,
                                           kLinnosHistory> &lat_us,
                          float out[kLinnosFeatures]);

/** Registry names of the latency-history features, most recent first. */
extern const std::array<std::string, kLinnosHistory> kLinnosLatFeatures;

/** The LinnOS registry schema: "pend_ios", then kLinnosLatFeatures. */
registry::Schema linnosSchema();

/**
 * One LinnOS-shaped request stamped at @p now: "pend_ios" uniform in
 * [0, 31], then each kLinnosLatFeatures latency uniform in [50, 2000]
 * us, drawn from @p rng in that order.
 */
registry::FeatureVector randomLinnosRequest(Rng &rng, Nanos now);

/**
 * The LinnOS featurizer: the 31 inputs of one row of a registry created
 * with linnosSchema(), as its store's float encoder
 * (SoaStore::setFloatEncoder with kLinnosFeatures floats). It encodes
 * committed slots at seal time and caller-built vectors the first time
 * a classifier reads their FvBatchView::matrixViews().
 */
void encodeLinnosRow(const registry::SoaStore::RowReader &row, float *out);

/** One labelled training example. */
struct LinnosSample
{
    std::array<float, kLinnosFeatures> x;
    int slow = 0; //!< 1 = latency exceeded the threshold
};

/** Output of a data-collection run. */
struct LinnosDataset
{
    std::vector<LinnosSample> samples;
    /** The slow/fast boundary used for labels, microseconds. */
    double threshold_us = 0.0;
    /** Fraction of samples labelled slow. */
    double slow_fraction = 0.0;
};

/**
 * Replays @p spec against one device (no rerouting) and collects
 * (features at issue, observed latency) pairs for reads. Labels use
 * LinnOS-style inflection thresholding: the @p quantile-th percentile
 * latency, floored at 3.5x the median so the slow class is always the
 * mechanistic tail rather than fast-mode noise.
 */
LinnosDataset collectLinnosData(const TraceSpec &spec,
                                const NvmeSpec &device, Nanos duration,
                                double quantile, std::uint64_t seed);

/**
 * Trains an MLP on the dataset with minibatch SGD.
 * @param extra_layers 0 for LinnOS's model, 1/2 for the augmented nets
 * @return the trained network
 */
ml::Mlp trainLinnosModel(const LinnosDataset &data,
                         std::size_t extra_layers, std::size_t epochs,
                         float lr, Rng &rng);

} // namespace lake::storage

#endif // LAKE_STORAGE_LINNOS_H
