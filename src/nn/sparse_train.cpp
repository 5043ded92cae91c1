#include "sparse_train.hpp"

#include <algorithm>
#include <cmath>

#include "core/prune.hpp"
#include "core/mask_search.hpp"
#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"

namespace tbstc::nn {

using core::Matrix;
using core::Pattern;

std::vector<size_t>
maskableLayers(const Mlp &model)
{
    std::vector<size_t> idx;
    for (size_t l = 1; l + 1 < model.layers().size(); ++l)
        idx.push_back(l);
    return idx;
}

double
applyPatternMasks(Mlp &model, const TrainConfig &cfg, double sparsity)
{
    if (cfg.pattern == Pattern::Dense || sparsity <= 0.0) {
        for (size_t l : maskableLayers(model)) {
            model.layers()[l].masked = false;
        }
        return 0.0;
    }
    const std::vector<uint8_t> cand = cfg.candidates.empty()
        ? core::defaultCandidates(cfg.m)
        : cfg.candidates;
    size_t kept = 0;
    size_t total = 0;
    for (size_t l : maskableLayers(model)) {
        auto &layer = model.layers()[l];
        const Matrix scores = core::magnitudeScores(layer.w);
        layer.mask =
            core::patternMask(cfg.pattern, scores, sparsity, cfg.m, cand);
        layer.masked = true;
        kept += layer.mask.nnz();
        total += layer.mask.rows() * layer.mask.cols();
    }
    return total == 0
        ? 0.0
        : 1.0 - static_cast<double>(kept) / static_cast<double>(total);
}

TrainResult
sparseTrain(Mlp &model, const DataSplit &data, const TrainConfig &cfg,
            util::Rng &rng)
{
    util::ensure(cfg.batch > 0 && cfg.epochs > 0, "degenerate TrainConfig");
    TrainResult result;
    const size_t n = data.train.samples();

    for (size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        const obs::ScopedSpan span(
            util::formatStr("nn.train.epoch{}", epoch));
        // Cubic sparsity ramp (Zhu & Gupta schedule).
        double s = cfg.sparsity;
        if (cfg.rampEpochs > 1 && epoch < cfg.rampEpochs) {
            const double t = static_cast<double>(epoch + 1)
                / static_cast<double>(cfg.rampEpochs);
            s = cfg.sparsity * (1.0 - std::pow(1.0 - t, 3.0));
        }
        const double realized = applyPatternMasks(model, cfg, s);

        const std::vector<size_t> order = rng.permutation(n);
        double loss_sum = 0.0;
        size_t batches = 0;
        for (size_t b0 = 0; b0 < n; b0 += cfg.batch) {
            const size_t b1 = std::min(b0 + cfg.batch, n);
            Matrix xb(b1 - b0, data.train.features());
            std::vector<size_t> yb(b1 - b0);
            for (size_t i = b0; i < b1; ++i) {
                for (size_t f = 0; f < data.train.features(); ++f)
                    xb.at(i - b0, f) = data.train.x.at(order[i], f);
                yb[i - b0] = data.train.labels[order[i]];
            }
            const Matrix logits = model.forward(xb);
            loss_sum += model.backward(logits, yb);
            model.sgdStep(cfg.lr, cfg.momentum, cfg.prunedDecay);
            ++batches;
        }

        EpochStats stats;
        stats.trainLoss = loss_sum / static_cast<double>(batches);
        stats.testAccuracy =
            model.accuracy(data.test.x, data.test.labels);
        stats.sparsity = realized;
        result.history.push_back(stats);

        if (obs::metricsEnabled()) {
            static const obs::Counter c_epochs =
                obs::counter("nn.train.epochs");
            static const obs::Counter c_batches =
                obs::counter("nn.train.batches");
            static const obs::Counter c_regens =
                obs::counter("nn.train.mask_regens");
            static const obs::Counter c_samples =
                obs::counter("nn.train.samples");
            c_epochs.add();
            c_batches.add(batches);
            c_regens.add();
            c_samples.add(n);
        }
    }
    result.finalAccuracy = result.history.back().testAccuracy;
    return result;
}

} // namespace tbstc::nn
