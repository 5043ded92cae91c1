/**
 * @file
 * Unit tests for pruning criteria and OBS weight compensation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/linalg.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::core;
using tbstc::util::Rng;

Matrix
randomMatrix(size_t r, size_t c, Rng &rng, double scale = 1.0)
{
    Matrix m(r, c);
    for (auto &v : m.data())
        v = static_cast<float>(rng.gaussian() * scale);
    return m;
}

TEST(Criteria, MagnitudeIsAbs)
{
    Matrix w(1, 3, {-2.0f, 0.5f, 0.0f});
    const Matrix s = magnitudeScores(w);
    EXPECT_EQ(s.at(0, 0), 2.0f);
    EXPECT_EQ(s.at(0, 1), 0.5f);
    EXPECT_EQ(s.at(0, 2), 0.0f);
}

TEST(Criteria, WandaWeighsByActivationNorm)
{
    Matrix w(1, 2, {1.0f, 1.0f});
    const std::vector<float> norms{2.0f, 10.0f};
    const Matrix s = wandaScores(w, norms);
    EXPECT_LT(s.at(0, 0), s.at(0, 1));
    EXPECT_EQ(s.at(0, 1), 10.0f);
}

TEST(Criteria, ActivationNorms)
{
    Matrix x(2, 2, {3.0f, 0.0f, 4.0f, 2.0f});
    const auto norms = activationNorms(x);
    EXPECT_NEAR(norms[0], 5.0f, 1e-5);
    EXPECT_NEAR(norms[1], 2.0f, 1e-5);
}

TEST(Criteria, SparseGptPenalizesLowCurvatureColumns)
{
    // Column with larger H^-1 diagonal (less-constrained weight)
    // scores lower at equal magnitude.
    Matrix w(1, 2, {1.0f, 1.0f});
    Matrix hinv(2, 2, {0.1f, 0.0f, 0.0f, 10.0f});
    const Matrix s = sparseGptScores(w, hinv);
    EXPECT_GT(s.at(0, 0), s.at(0, 1));
}

TEST(Criteria, DispatchesAllFamilies)
{
    Rng rng(7);
    const Matrix w = randomMatrix(8, 16, rng);
    const Matrix acts = randomMatrix(64, 16, rng);
    for (Criterion c : {Criterion::Magnitude, Criterion::Wanda,
                        Criterion::SparseGpt}) {
        const Matrix s = criterionScores(c, w, acts);
        EXPECT_EQ(s.rows(), 8u);
        EXPECT_EQ(s.cols(), 16u);
        for (float v : s.data())
            EXPECT_GE(v, 0.0f);
    }
}

TEST(CriterionName, Names)
{
    EXPECT_EQ(criterionName(Criterion::Magnitude), "Magnitude");
    EXPECT_EQ(criterionName(Criterion::Wanda), "Wanda");
    EXPECT_EQ(criterionName(Criterion::SparseGpt), "SparseGPT");
}

/**
 * The OBS compensation must reduce the layer's output reconstruction
 * error ||X W^T - X W_pruned^T||_F versus plain magnitude zeroing —
 * that is SparseGPT's entire point.
 */
TEST(ObsCompensate, ReducesReconstructionError)
{
    Rng rng(11);
    const size_t in = 24;
    const size_t out = 16;
    const Matrix w = randomMatrix(out, in, rng);
    // Correlated activations: OBS compensation works by shifting a
    // pruned weight's contribution onto correlated features, so the
    // calibration data must have feature correlation (as real layer
    // inputs do). Latent factors + small noise provide it.
    const Matrix z = randomMatrix(128, 8, rng);
    const Matrix mix = randomMatrix(8, in, rng, 0.5);
    Matrix x = matmul(z, mix);
    for (auto &v : x.data())
        v += static_cast<float>(rng.gaussian() * 0.05);
    const Matrix h = gramFromActivations(x);
    const Matrix hinv = spdInverse(h);

    const Matrix scores = sparseGptScores(w, hinv);
    const Mask mask = usMask(scores, 0.5);

    // Plain zeroing.
    const Matrix w_zero = applyMask(w, mask);
    // OBS-compensated.
    Matrix w_obs = w;
    obsCompensate(w_obs, mask, choleskyUpper(hinv));

    const Matrix y_ref = matmul(x, w.transposed());
    const Matrix y_zero = matmul(x, w_zero.transposed());
    const Matrix y_obs = matmul(x, w_obs.transposed());

    double err_zero = 0.0;
    double err_obs = 0.0;
    for (size_t i = 0; i < y_ref.size(); ++i) {
        const double dz = y_ref.data()[i] - y_zero.data()[i];
        const double dobs = y_ref.data()[i] - y_obs.data()[i];
        err_zero += dz * dz;
        err_obs += dobs * dobs;
    }
    EXPECT_LT(err_obs, err_zero * 0.9);
}

TEST(ObsCompensate, RespectsMask)
{
    Rng rng(13);
    const Matrix w0 = randomMatrix(8, 16, rng);
    const Matrix x = randomMatrix(64, 16, rng);
    const Matrix hinv = spdInverse(gramFromActivations(x));
    const Mask mask = usMask(magnitudeScores(w0), 0.5);
    Matrix w = w0;
    obsCompensate(w, mask, choleskyUpper(hinv));
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < w.cols(); ++c)
            if (!mask.at(r, c)) {
                EXPECT_EQ(w.at(r, c), 0.0f);
            }
}

TEST(ObsCompensate, NoOpOnFullMask)
{
    Rng rng(17);
    const Matrix w0 = randomMatrix(4, 8, rng);
    const Matrix x = randomMatrix(32, 8, rng);
    const Matrix hinv = spdInverse(gramFromActivations(x));
    Mask full(4, 8);
    for (size_t r = 0; r < 4; ++r)
        for (size_t c = 0; c < 8; ++c)
            full.at(r, c) = 1;
    Matrix w = w0;
    obsCompensate(w, full, choleskyUpper(hinv));
    EXPECT_EQ(w, w0);
}

} // namespace
