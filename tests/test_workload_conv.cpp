/**
 * @file
 * Tests for the im2col convolution lowering.
 */

#include <gtest/gtest.h>

#include "core/matrix.hpp"
#include "util/rng.hpp"
#include "workload/conv.hpp"

namespace {

using namespace tbstc;
using core::Matrix;
using workload::ConvSpec;

Matrix
randomWeights(const ConvSpec &spec, uint64_t seed)
{
    util::Rng rng(seed);
    Matrix w(spec.cout, spec.patchSize());
    for (auto &v : w.data())
        v = static_cast<float>(rng.gaussian());
    return w;
}

std::vector<float>
randomImage(const ConvSpec &spec, uint64_t seed)
{
    util::Rng rng(seed ^ 0xabc);
    std::vector<float> img(spec.cin * spec.h * spec.w);
    for (auto &v : img)
        v = static_cast<float>(rng.gaussian());
    return img;
}

TEST(ConvSpec, OutputDims)
{
    ConvSpec s;
    s.h = 8;
    s.w = 8;
    s.kh = 3;
    s.kw = 3;
    EXPECT_EQ(s.outH(), 6u);
    s.pad = 1;
    EXPECT_EQ(s.outH(), 8u);
    s.stride = 2;
    EXPECT_EQ(s.outH(), 4u);
    EXPECT_EQ(s.patchSize(), 9u);
}

TEST(ConvSpec, LoweredShapePadsToBlocks)
{
    ConvSpec s;
    s.name = "test";
    s.cin = 3;
    s.cout = 10;
    s.kh = s.kw = 3;
    s.h = s.w = 8;
    s.pad = 1;
    const auto shape = workload::loweredShape(s, 8);
    EXPECT_EQ(shape.x, 16u); // 10 -> 16.
    EXPECT_EQ(shape.y, 32u); // 27 -> 32.
    EXPECT_EQ(shape.nb, 64u);
}

TEST(ConvSpec, ResNetLayerMatchesModelTable)
{
    // The 3x3 conv of ResNet-50 stage conv4 should lower to the same
    // GEMM shape the workload table lists.
    ConvSpec s;
    s.cin = 256;
    s.cout = 256;
    s.kh = s.kw = 3;
    s.h = s.w = 14;
    s.pad = 1;
    const auto shape = workload::loweredShape(s);
    EXPECT_EQ(shape.x, 256u);
    EXPECT_EQ(shape.y, 2304u);
    EXPECT_EQ(shape.nb, 196u);
}

class ConvLowering
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(ConvLowering, Im2colMatchesDirectConvolution)
{
    const auto [stride, pad, cin] = GetParam();
    ConvSpec s;
    s.cin = cin;
    s.cout = 5;
    s.kh = s.kw = 3;
    s.h = 9;
    s.w = 7;
    s.stride = stride;
    s.pad = pad;

    const Matrix w = randomWeights(s, 1);
    const auto img = randomImage(s, 2);

    // im2col path: cols (pixels x patch) * w^T -> (pixels x cout).
    const Matrix cols = workload::im2col(s, img);
    const auto ref = workload::convReference(s, w, img);

    const size_t pixels = s.outH() * s.outW();
    ASSERT_EQ(cols.rows(), pixels);
    for (uint64_t c = 0; c < s.cout; ++c) {
        for (size_t p = 0; p < pixels; ++p) {
            double acc = 0.0;
            for (size_t k = 0; k < s.patchSize(); ++k)
                acc += static_cast<double>(cols.at(p, k)) * w.at(c, k);
            EXPECT_NEAR(acc, ref[c * pixels + p], 1e-4)
                << "cout " << c << " pixel " << p;
        }
    }
}

std::string
convLoweringName(
    const ::testing::TestParamInfo<std::tuple<int, int, int>> &info)
{
    std::string name = "s";
    name += std::to_string(std::get<0>(info.param));
    name += "_p";
    name += std::to_string(std::get<1>(info.param));
    name += "_c";
    name += std::to_string(std::get<2>(info.param));
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvLowering,
    ::testing::Values(std::make_tuple(1, 0, 1), std::make_tuple(1, 1, 1),
                      std::make_tuple(2, 1, 3), std::make_tuple(1, 1, 4),
                      std::make_tuple(2, 0, 2)),
    convLoweringName);

TEST(ConvLowering, Col2imIsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> for all x, y: the defining
    // property of the backward pass.
    ConvSpec s;
    s.cin = 2;
    s.cout = 1;
    s.kh = s.kw = 3;
    s.h = 6;
    s.w = 5;
    s.pad = 1;

    const auto x = randomImage(s, 3);
    util::Rng rng(4);
    Matrix y(s.outH() * s.outW(), s.patchSize());
    for (auto &v : y.data())
        v = static_cast<float>(rng.gaussian());

    const Matrix cols = workload::im2col(s, x);
    double lhs = 0.0;
    for (size_t i = 0; i < cols.size(); ++i)
        lhs += static_cast<double>(cols.data()[i]) * y.data()[i];

    const auto folded = workload::col2im(s, y);
    double rhs = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * folded[i];

    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ConvLowering, PaddingRegionsAreZero)
{
    ConvSpec s;
    s.cin = 1;
    s.h = s.w = 4;
    s.kh = s.kw = 3;
    s.pad = 1;
    std::vector<float> img(16, 1.0f);
    const Matrix cols = workload::im2col(s, img);
    // Top-left output pixel: the (0,0) kernel tap reads padding.
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    EXPECT_EQ(cols.at(0, 4), 1.0f); // Center tap reads the image.
}

} // namespace
