/**
 * @file
 * Tests for the workload layer: model tables, synthesis, profiles.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/models.hpp"
#include "workload/profile_builder.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::workload;
using tbstc::core::Pattern;
using tbstc::format::StorageFormat;

TEST(Models, PadTo)
{
    EXPECT_EQ(padTo(0, 8), 0u);
    EXPECT_EQ(padTo(1, 8), 8u);
    EXPECT_EQ(padTo(8, 8), 8u);
    EXPECT_EQ(padTo(11008, 8), 11008u);
}

TEST(Models, AllLayersBlockAligned)
{
    for (ModelId id : {ModelId::ResNet50, ModelId::ResNet18,
                       ModelId::BertBase, ModelId::Opt67b,
                       ModelId::Llama27b}) {
        const auto layers = modelLayers(id, 128);
        EXPECT_FALSE(layers.empty()) << modelName(id);
        for (const auto &l : layers) {
            EXPECT_EQ(l.x % 8, 0u) << l.name;
            EXPECT_EQ(l.y % 8, 0u) << l.name;
            EXPECT_GT(l.nb, 0u) << l.name;
        }
    }
}

TEST(Models, LayerCountsMatchArchitectures)
{
    // ResNet-50: 16 bottlenecks x 3 convs + 4 downsamples = 52.
    EXPECT_EQ(modelLayers(ModelId::ResNet50).size(), 52u);
    // BERT-base: 12 x 6 weight GEMMs.
    EXPECT_EQ(modelLayers(ModelId::BertBase).size(), 72u);
    // OPT-6.7B: 32 x 6.
    EXPECT_EQ(modelLayers(ModelId::Opt67b).size(), 192u);
    // Llama2-7B: 32 x 7 (gated MLP).
    EXPECT_EQ(modelLayers(ModelId::Llama27b).size(), 224u);
}

TEST(Models, BertShapes)
{
    const auto layers = modelLayers(ModelId::BertBase, 128);
    const auto &fc1 = layers[4]; // q,k,v,o,fc1,fc2 per layer.
    EXPECT_EQ(fc1.x, 3072u);
    EXPECT_EQ(fc1.y, 768u);
    EXPECT_EQ(fc1.nb, 128u);
    EXPECT_EQ(fc1.macs(), 3072.0 * 768.0 * 128.0);
}

TEST(Models, RepresentativeSubsetsNonEmpty)
{
    for (ModelId id : {ModelId::ResNet50, ModelId::BertBase,
                       ModelId::Opt67b}) {
        const auto reps = representativeLayers(id);
        EXPECT_GE(reps.size(), 2u);
        EXPECT_LE(reps.size(), 8u);
    }
}

TEST(Synth, Deterministic)
{
    const GemmShape shape{"test", 64, 64, 16};
    const auto a = synthWeights(shape, 42);
    const auto b = synthWeights(shape, 42);
    EXPECT_EQ(a, b);
    const auto c = synthWeights(shape, 43);
    EXPECT_NE(a, c);
}

TEST(Synth, NameChangesStream)
{
    const GemmShape a{"layer.a", 32, 32, 8};
    const GemmShape b{"layer.b", 32, 32, 8};
    EXPECT_NE(synthWeights(a, 42), synthWeights(b, 42));
}

TEST(Synth, RowCapApplies)
{
    const GemmShape shape{"big", 4096, 64, 8};
    const auto w = synthWeights(shape, 1, 128);
    EXPECT_EQ(w.rows(), 128u);
    EXPECT_EQ(w.cols(), 64u);
}

TEST(Synth, PinnedHashesOfRowSampledLlamaLayers)
{
    // FNV-1a over the float bytes of the two row-sampled Llama2-7B
    // weight shapes the cold model run builds, captured from the
    // single-pass serial generator. The chunked generator must
    // reproduce them at any thread count.
    const auto hash = [](const tbstc::core::Matrix &w) {
        uint64_t h = 0xcbf29ce484222325ull;
        for (const float v : w.data()) {
            const auto bits = std::bit_cast<uint32_t>(v);
            for (int b = 0; b < 4; ++b) {
                h ^= (bits >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        }
        return h;
    };
    for (size_t threads : {size_t{1}, size_t{4}}) {
        tbstc::util::ThreadScope scope(threads);
        const auto gate = synthWeights({"llama.L0.gate", 11008, 4096, 128},
                                       42, 2048);
        ASSERT_EQ(gate.rows(), 2048u);
        EXPECT_EQ(hash(gate), 0xc0d6e50e455a979bull) << threads;
        const auto down = synthWeights({"llama.L0.down", 4096, 11008, 128},
                                       42, 760);
        ASSERT_EQ(down.rows(), 760u);
        EXPECT_EQ(hash(down), 0xbb388b2e9aa07457ull) << threads;
    }
}

/** Undo one xoshiro256** state step (the generator is invertible). */
void
xoshiroStepBack(uint64_t s[4])
{
    const uint64_t d1 = std::rotl(s[3], 19); // s3 ^ s1 before rotl 45.
    const uint64_t a = s[0] ^ d1;
    // s1' ^ s2' == b ^ (b << 17): peel the shifted copies.
    const uint64_t x = s[1] ^ s[2];
    uint64_t b = x;
    for (int i = 0; i < 4; ++i)
        b = x ^ (b << 17);
    const uint64_t c = s[1] ^ b ^ a;
    s[0] = a;
    s[1] = b;
    s[2] = c;
    s[3] = d1 ^ b;
}

/**
 * The first element of @p row at or after @p col whose heavy-tail draw
 * starts a fresh Box-Muller pair (rather than using a spare), and the
 * word index of that pair's u1, assuming no earlier rejection.
 */
std::pair<uint64_t, uint64_t>
freshPairAt(uint64_t cols, uint64_t row, uint64_t col)
{
    uint64_t pos = 0;
    bool spare = false;
    uint64_t u1 = 0;
    const auto gaussian = [&] {
        if (spare) {
            spare = false;
            return false;
        }
        u1 = pos;
        pos += 2;
        spare = true;
        return true;
    };
    for (uint64_t i = 0; i < cols + (cols + 7) / 8; ++i)
        gaussian();
    for (uint64_t r = 0;; ++r) {
        if (r % 8 == 0)
            gaussian();
        gaussian();
        for (uint64_t c = 0; c < cols; ++c) {
            ++pos; // Outlier coin.
            if (gaussian() && r == row && c >= col)
                return {c, u1};
        }
    }
}

TEST(Synth, ChunkedStreamHandlesBoxMullerRedraw)
{
    // Craft a stream whose word at the u1 of an element of row 13 is
    // 0, so that element's Box-Muller pair is redrawn (one extra word)
    // inside the second 8-row block. Every chunking must agree with the
    // plain serial walk, which only holds if the word pass replays the
    // rejection exactly.
    const uint64_t rows = 40;
    const uint64_t cols = 24;
    const auto [col, target] = freshPairAt(cols, 13, 6);
    uint64_t s[4] = {0x243f6a8885a308d3ull, 0, 0x13198a2e03707344ull,
                     0xa4093822299f31d0ull};
    for (uint64_t i = 0; i < target; ++i)
        xoshiroStepBack(s);
    tbstc::util::Rng::State st;
    for (int i = 0; i < 4; ++i)
        st.s[i] = s[i];
    {
        tbstc::util::Rng probe(st);
        for (uint64_t i = 0; i < target; ++i)
            probe.next();
        ASSERT_EQ(probe.next(), 0u);
    }
    const auto serial =
        synthFromStream(tbstc::util::Rng(st), rows, cols, 1);
    for (size_t chunks : {size_t{2}, size_t{3}, size_t{5}, size_t{64}})
        EXPECT_EQ(synthFromStream(tbstc::util::Rng(st), rows, cols, chunks),
                  serial)
            << chunks << " chunks";
    // The rejection really fired at (13, col): drawing the serial
    // sequence through that element consumes its pair's two words plus
    // one redraw.
    tbstc::util::Rng walk(st);
    for (uint64_t i = 0; i < cols + (cols + 7) / 8; ++i)
        walk.gaussian();
    for (uint64_t r = 0; r <= 13; ++r) {
        if (r % 8 == 0)
            walk.gaussian();
        walk.gaussian();
        for (uint64_t c = 0; c < (r == 13 ? col + 1 : cols); ++c)
            walk.heavyTail();
    }
    tbstc::util::Rng words(st);
    for (uint64_t i = 0; i < target + 3; ++i)
        words.next();
    EXPECT_EQ(walk.next(), words.next());
}

TEST(Synth, ActivationsNonNegative)
{
    const auto x = synthActivations(32, 16, 5);
    for (float v : x.data())
        EXPECT_GE(v, 0.0f);
}

TEST(ProfileBuilder, BlockCountsAndNnz)
{
    ProfileSpec spec;
    spec.shape = {"t", 128, 128, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::DDC;
    const auto profile = buildLayerProfile(spec);
    EXPECT_EQ(profile.blocks.size(), 16u * 16u);
    EXPECT_NEAR(static_cast<double>(profile.aNnz) / (128.0 * 128.0),
                0.5, 0.05);
    EXPECT_EQ(profile.sampleScale, 1.0);
    EXPECT_GT(profile.aStream.payloadBytes, 0u);
}

TEST(ProfileBuilder, SamplingScalesWork)
{
    ProfileSpec spec;
    spec.shape = {"huge", 4096, 1024, 64};
    spec.pattern = Pattern::US;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::Bitmap;
    spec.maxElements = 256 * 1024;
    const auto profile = buildLayerProfile(spec);
    EXPECT_LT(profile.blocks.size(), 4096u / 8 * (1024u / 8));
    EXPECT_GT(profile.sampleScale, 1.0);
    // usefulMacs must reflect the *full* layer.
    const double full_density =
        profile.usefulMacs() / spec.shape.macs();
    EXPECT_NEAR(full_density, 0.5, 0.05);
}

TEST(ProfileBuilder, TbsHasIndependentBlocks)
{
    ProfileSpec spec;
    spec.shape = {"t2", 256, 256, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::DDC;
    const auto profile = buildLayerProfile(spec);
    size_t independent = 0;
    for (const auto &b : profile.blocks)
        independent += b.independentDim;
    EXPECT_GT(independent, 0u);
}

TEST(ProfileBuilder, DensifyRemovesIndependentBlocks)
{
    ProfileSpec spec;
    spec.shape = {"t3", 256, 256, 64};
    spec.pattern = Pattern::TBS;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::SDC;
    spec.densifyIndependent = true;
    const auto profile = buildLayerProfile(spec);
    for (const auto &b : profile.blocks)
        EXPECT_FALSE(b.independentDim);
    // Densified blocks add extra kept elements beyond the target.
    EXPECT_GT(static_cast<double>(profile.aNnz) / (256.0 * 256.0), 0.5);
}

TEST(ProfileBuilder, DeriveMetaBoundsGroups)
{
    ProfileSpec spec;
    spec.shape = {"t4", 64, 64, 16};
    spec.pattern = Pattern::RSV;
    spec.sparsity = 0.5;
    spec.fmt = StorageFormat::SDC;
    const auto profile = buildLayerProfile(spec);
    for (const auto &b : profile.blocks) {
        EXPECT_LE(b.nnz, 64u);
        EXPECT_LE(b.n, 8u);
        EXPECT_FALSE(b.independentDim);
        EXPECT_LE(b.nonemptyRows, 8u);
    }
}

} // namespace
