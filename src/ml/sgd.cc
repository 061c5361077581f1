#include "ml/sgd.h"

#include <algorithm>
#include <utility>

namespace lake::ml {

double
sgdEpochs(std::vector<std::size_t> order, std::size_t batch,
          std::size_t epochs, float lr, float lr_decay, Rng &rng,
          const SgdStep &step)
{
    double epoch_sum = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        epoch_sum = 0.0;
        for (std::size_t start = 0; start < order.size(); start += batch) {
            std::size_t n = std::min(batch, order.size() - start);
            step(std::span(order).subspan(start, n), lr, epoch_sum);
        }
        lr *= lr_decay;
    }
    return epoch_sum;
}

void
trainMlp(Mlp &net, std::vector<std::size_t> order, std::size_t batch,
         std::size_t epochs, float lr, float lr_decay, Rng &rng,
         const std::function<int(std::size_t i, float *row)> &sample)
{
    sgdEpochs(std::move(order), batch, epochs, lr, lr_decay, rng,
              [&](std::span<const std::size_t> samples, float step_lr,
                  double &) {
                  Matrix x(samples.size(), net.config().input);
                  std::vector<int> y(samples.size());
                  for (std::size_t i = 0; i < samples.size(); ++i)
                      y[i] = sample(samples[i], x.row(i));
                  net.trainStep(x, y, step_lr);
              });
}

} // namespace lake::ml
