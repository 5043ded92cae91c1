#include "oneshot.hpp"

#include "core/linalg.hpp"
#include "core/mask_search.hpp"
#include "sparse_train.hpp"
#include "util/logging.hpp"

namespace tbstc::nn {

using core::Criterion;
using core::Matrix;
using core::Pattern;

void
oneshotPrune(Mlp &model, const Matrix &calib_x, const OneshotConfig &cfg)
{
    const std::vector<uint8_t> cand = cfg.candidates.empty()
        ? core::defaultCandidates(cfg.m)
        : cfg.candidates;

    // A forward pass records each layer's input activations.
    (void)model.forward(calib_x);

    // Prune layer by layer in order; when OBS compensation changes a
    // layer's weights, downstream activations shift, so re-run the
    // forward pass after each compensated layer (sequential pruning,
    // as SparseGPT does).
    for (size_t l : maskableLayers(model)) {
        auto &layer = model.layers()[l];
        const Matrix &acts = layer.lastInput;

        Matrix scores(0, 0);
        Matrix hinv(0, 0);
        switch (cfg.criterion) {
          case Criterion::Magnitude:
            scores = core::magnitudeScores(layer.w);
            break;
          case Criterion::Wanda:
            scores = core::wandaScores(layer.w,
                                       core::activationNorms(acts));
            break;
          case Criterion::SparseGpt: {
            const Matrix h = core::gramFromActivations(acts);
            hinv = core::spdInverse(h);
            scores = core::sparseGptScores(layer.w, hinv);
            break;
          }
          case Criterion::Gradient:
            util::fatal("Gradient criterion needs an explicit gradient; "
                        "use gradientScores() with patternMask() or the "
                        "sparse trainer");
        }

        layer.mask = core::patternMask(cfg.pattern, scores, cfg.sparsity,
                                       cfg.m, cand);
        layer.masked = true;

        if (cfg.criterion == Criterion::SparseGpt
            && cfg.obsCompensation) {
            const Matrix u = core::choleskyUpper(hinv);
            core::obsCompensate(layer.w, layer.mask, u);
            // Downstream layers must see the compensated activations.
            (void)model.forward(calib_x);
        }
    }
}

} // namespace tbstc::nn
