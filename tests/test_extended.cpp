/**
 * @file
 * Extended coverage: exhaustive fp16 round trip, element-granular
 * datapath modelling, codec cycle-estimator consistency, derived-meta
 * DDC on non-TBS masks, teacher datasets, RunStats scaling, and
 * model-table edge cases.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/accelerator.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "format/codec.hpp"
#include "format/encoding.hpp"
#include "nn/dataset.hpp"
#include "sim/pipeline.hpp"
#include "util/fp16.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/accuracy_model.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc;

// ---------------------------------------------------------------------
// fp16: every one of the 65536 encodings must survive a decode/encode
// round trip bit-exactly (NaNs compare by NaN-ness).
// ---------------------------------------------------------------------

TEST(Fp16Exhaustive, AllEncodingsRoundTrip)
{
    for (uint32_t h = 0; h <= 0xffff; ++h) {
        const auto half = static_cast<uint16_t>(h);
        const float f = util::fp16ToFloat(half);
        if (std::isnan(f)) {
            EXPECT_TRUE(std::isnan(
                util::fp16ToFloat(util::fp16FromFloat(f))));
            continue;
        }
        EXPECT_EQ(util::fp16FromFloat(f), half) << "bits " << h;
    }
}

TEST(Fp16Exhaustive, DecodeIsMonotoneOnPositives)
{
    // Positive halves sorted by bit pattern are sorted by value.
    float prev = util::fp16ToFloat(0);
    for (uint16_t h = 1; h < 0x7c00; ++h) {
        const float f = util::fp16ToFloat(h);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

// ---------------------------------------------------------------------
// Element-granular datapaths (RM-STC / SGCN).
// ---------------------------------------------------------------------

TEST(ElementGranular, NoBlockQuantizationAtHighSparsity)
{
    // Blocks with 2 kept elements: structured issue pays a whole beat
    // per block; an element pipeline pays nnz/lanes.
    sim::LayerProfile layer;
    layer.x = 256;
    layer.y = 256;
    layer.nb = 64;
    layer.m = 8;
    layer.aNnz = 256 * 256 / 32;
    layer.blocks.assign(32 * 32, sim::BlockTask{2, 1, false, 2});
    layer.aStream = {layer.aNnz * 2, layer.aNnz * 2, 2};

    sim::ArchConfig structured;
    sim::ArchConfig element;
    element.elementGranular = true;
    const auto s = simulateLayer(layer, structured);
    const auto e = simulateLayer(layer, element);
    // 2 nnz -> 1 beat (8 lanes) structured vs 2/8 beat element-wise.
    EXPECT_GT(s.breakdown.compute, e.breakdown.compute * 3.0);
}

TEST(ElementGranular, BeatOverheadScales)
{
    sim::LayerProfile layer;
    layer.x = 128;
    layer.y = 128;
    layer.nb = 32;
    layer.m = 8;
    layer.aNnz = 128 * 128 / 2;
    layer.blocks.assign(16 * 16, sim::BlockTask{32, 4, false, 8});
    layer.aStream = {layer.aNnz * 2, layer.aNnz * 2, 2};

    sim::ArchConfig base;
    sim::ArchConfig padded = base;
    padded.beatOverheadScale = 1.5;
    const auto b = simulateLayer(layer, base);
    const auto p = simulateLayer(layer, padded);
    EXPECT_NEAR(p.breakdown.compute / b.breakdown.compute, 1.5, 1e-9);
}

// ---------------------------------------------------------------------
// Codec estimator consistency: the pipeline's closed-form per-block
// conversion cost must upper-bound (within a tail margin) the real
// queue simulation.
// ---------------------------------------------------------------------

TEST(CodecEstimate, MatchesQueueSimulation)
{
    util::Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<format::StorageElem> storage;
        const size_t n = 1 + rng.below(8);
        for (uint8_t col = 0; col < 8; ++col) {
            const auto rows = rng.permutation(8);
            for (size_t k = 0; k < n; ++k)
                storage.push_back(
                    {1.0f, static_cast<uint8_t>(rows[k]), col});
        }
        const auto out =
            format::convertToComputation(storage, {8, 2, 2});
        const uint64_t estimate = (storage.size() + 1) / 2 + 2;
        EXPECT_LE(out.cycles, estimate + 3);
        EXPECT_GE(out.cycles + 4, estimate);
    }
}

TEST(CodecLineRate, FasterMemoryMeansFasterConversion)
{
    workload::ProfileSpec spec;
    spec.shape = {"codec-linerate", 512, 512, 8};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = format::StorageFormat::DDC;
    const auto profile = workload::buildLayerProfile(spec);

    sim::ArchConfig slow;
    slow.dramGbps = 64.0;
    sim::ArchConfig fast;
    fast.dramGbps = 512.0;
    const auto s = simulateLayer(profile, slow);
    const auto f = simulateLayer(profile, fast);
    // Codec is provisioned at line rate, so it can never become the
    // standalone bottleneck when bandwidth scales up.
    EXPECT_LT(f.breakdown.codec, s.breakdown.codec);
    EXPECT_LE(f.breakdown.codecExposed, s.breakdown.total * 0.05);
}

// ---------------------------------------------------------------------
// Derived-meta DDC on non-TBS masks.
// ---------------------------------------------------------------------

TEST(DeriveMeta, DdcRoundTripOnRsvMask)
{
    const auto w = workload::synthWeights({"dm", 64, 64, 1}, 3);
    const auto scores = core::magnitudeScores(w);
    const auto mask = core::rsvMask(scores, 0.6, 8,
                                    core::defaultCandidates(8));
    const auto meta = workload::deriveMeta(mask, 8);
    const auto enc = format::encodeDdc(w, mask, meta);
    EXPECT_EQ(enc->decode(), core::applyMask(w, mask));
}

TEST(DeriveMeta, AllBlocksReduction)
{
    const auto w = workload::synthWeights({"dm2", 32, 32, 1}, 4);
    const auto mask =
        core::usMask(core::magnitudeScores(w), 0.5);
    const auto meta = workload::deriveMeta(mask, 8);
    for (const auto &b : meta.blocks) {
        EXPECT_EQ(b.dim, core::SparsityDim::Reduction);
        EXPECT_LE(b.n, 8);
    }
}

// ---------------------------------------------------------------------
// Teacher dataset.
// ---------------------------------------------------------------------

TEST(TeacherDataset, ShapesAndDeterminism)
{
    nn::TeacherConfig tc;
    tc.features = 16;
    tc.classes = 8;
    tc.trainSamples = 64;
    tc.testSamples = 32;
    util::Rng a(9);
    util::Rng b(9);
    const auto da = nn::makeTeacherDataset(tc, a);
    const auto db = nn::makeTeacherDataset(tc, b);
    EXPECT_EQ(da.train.x, db.train.x);
    EXPECT_EQ(da.train.labels, db.train.labels);
    EXPECT_EQ(da.train.samples(), 64u);
    for (size_t l : da.test.labels)
        EXPECT_LT(l, 8u);
}

TEST(TeacherDataset, UsesMultipleClasses)
{
    nn::TeacherConfig tc;
    tc.features = 16;
    tc.classes = 8;
    tc.trainSamples = 512;
    tc.testSamples = 32;
    util::Rng rng(10);
    const auto d = nn::makeTeacherDataset(tc, rng);
    std::vector<int> seen(8, 0);
    for (size_t l : d.train.labels)
        seen[l] = 1;
    int classes = 0;
    for (int s : seen)
        classes += s;
    EXPECT_GE(classes, 4);
}

// ---------------------------------------------------------------------
// RunStats scaling and model dedup.
// ---------------------------------------------------------------------

TEST(RunStatsScaled, ExtensiveQuantitiesScale)
{
    workload::ProfileSpec spec;
    spec.shape = {"scale-test", 128, 128, 32};
    spec.pattern = core::Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = format::StorageFormat::DDC;
    const auto one =
        simulateLayer(workload::buildLayerProfile(spec), sim::ArchConfig{});
    const auto three = one.scaled(3.0);
    EXPECT_NEAR(three.cycles, 3.0 * one.cycles, 1e-9);
    EXPECT_NEAR(three.energy.totalJ(), 3.0 * one.energy.totalJ(), 1e-15);
    EXPECT_NEAR(three.edp, 9.0 * one.edp, 1e-18);
    EXPECT_DOUBLE_EQ(three.bwUtilisation, one.bwUtilisation);
}

TEST(RunModel, DedupMatchesExplicitSum)
{
    // BERT's 72 layers collapse to 3 unique shapes; the deduped model
    // run must match accumulating a per-shape run times multiplicity.
    using namespace tbstc::accel;
    const auto model = runModel(AccelKind::TbStc,
                                workload::ModelId::BertBase, 0.5, 64);

    sim::RunStats manual;
    struct G
    {
        workload::GemmShape shape;
        double count;
    };
    const std::vector<G> groups{
        {{"bert.L0.q", 768, 768, 64}, 48.0},
        {{"bert.L0.fc1", 3072, 768, 64}, 12.0},
        {{"bert.L0.fc2", 768, 3072, 64}, 12.0},
    };
    for (const auto &g : groups) {
        RunRequest req;
        req.shape = g.shape;
        req.sparsity = 0.5;
        manual.accumulate(runLayer(AccelKind::TbStc, req).scaled(g.count));
    }
    EXPECT_NEAR(model.cycles, manual.cycles, model.cycles * 0.02);
    EXPECT_NEAR(model.energy.totalJ(), manual.energy.totalJ(),
                model.energy.totalJ() * 0.02);
}

// ---------------------------------------------------------------------
// Mask generator degenerate inputs.
// ---------------------------------------------------------------------

TEST(Degenerate, FullAndEmptySparsity)
{
    const auto w = workload::synthWeights({"deg", 32, 32, 1}, 5);
    const auto scores = core::magnitudeScores(w);
    const auto cand = core::defaultCandidates(8);

    const auto empty = core::tbsMask(scores, 1.0, 8, cand);
    EXPECT_EQ(empty.mask.nnz(), 0u);
    EXPECT_TRUE(core::validateTbs(empty.mask, empty.meta));

    const auto full = core::tbsMask(scores, 0.0, 8, cand);
    EXPECT_EQ(full.mask.nnz(), 32u * 32u);
    EXPECT_TRUE(core::validateTbs(full.mask, full.meta));

    EXPECT_EQ(core::tsMask(scores, 0, 8).nnz(), 0u);
    EXPECT_THROW(core::usMask(scores, 1.5), util::FatalError);
}

TEST(Degenerate, AccuracyProxyOtherModels)
{
    using workload::ModelId;
    for (ModelId m : {ModelId::ResNet18, ModelId::Llama27b}) {
        const double dense = workload::denseAccuracy(m);
        EXPECT_GT(dense, 50.0);
        const double tbs =
            workload::proxyAccuracy(m, core::Pattern::TBS, 0.5);
        const double ts =
            workload::proxyAccuracy(m, core::Pattern::TS, 0.5);
        EXPECT_LT(tbs, dense);
        EXPECT_GT(tbs, ts);
    }
}

TEST(Degenerate, LlamaShapesGated)
{
    const auto layers =
        workload::modelLayers(workload::ModelId::Llama27b, 64);
    size_t gates = 0;
    for (const auto &l : layers)
        gates += l.name.find("gate") != std::string::npos;
    EXPECT_EQ(gates, 32u);
    // 11008 pads to a multiple of 8 unchanged.
    for (const auto &l : layers) {
        if (l.name.find("down") != std::string::npos) {
            EXPECT_EQ(l.y, 11008u);
        }
    }
}

} // namespace
