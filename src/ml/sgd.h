#ifndef LAKE_ML_SGD_H
#define LAKE_ML_SGD_H

/**
 * @file
 * The minibatch SGD loop every offline trainer shares: the per-epoch
 * shuffle, the batch slicing and the per-epoch learning-rate decay.
 */

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "base/rng.h"
#include "ml/mlp.h"

namespace lake::ml {

/**
 * One minibatch step: the batch's sample indices, the epoch's learning
 * rate, and the epoch's running sum (e.g. of losses) to add to.
 */
using SgdStep = std::function<void(std::span<const std::size_t> samples,
                                   float lr, double &epoch_sum)>;

/**
 * Runs @p epochs epochs; each shuffles @p order with @p rng, steps
 * through it in slices of at most @p batch indices, then multiplies
 * the learning rate by @p lr_decay.
 * @return the last epoch's running sum (0 with no epochs)
 */
double sgdEpochs(std::vector<std::size_t> order, std::size_t batch,
                 std::size_t epochs, float lr, float lr_decay, Rng &rng,
                 const SgdStep &step);

/**
 * Trains @p net with sgdEpochs() and Mlp::trainStep; @p sample writes
 * sample i's input row and returns its label.
 */
void trainMlp(Mlp &net, std::vector<std::size_t> order, std::size_t batch,
              std::size_t epochs, float lr, float lr_decay, Rng &rng,
              const std::function<int(std::size_t i, float *row)> &sample);

} // namespace lake::ml

#endif // LAKE_ML_SGD_H
