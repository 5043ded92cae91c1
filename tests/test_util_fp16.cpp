/**
 * @file
 * Unit tests for fp16 emulation and int8 fake-quantization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace {

using namespace tbstc::util;

TEST(Fp16, ExactValuesRoundTrip)
{
    const float values[] = {0.0f,  1.0f,   -1.0f, 0.5f,  2.0f,
                            -4.5f, 1024.0f, 0.25f, 65504.0f};
    for (float v : values)
        EXPECT_EQ(fp16Round(v), v) << v;
}

TEST(Fp16, NegativeZeroPreservesSign)
{
    const float v = fp16ToFloat(fp16FromFloat(-0.0f));
    EXPECT_EQ(v, 0.0f);
    EXPECT_TRUE(std::signbit(v));
}

TEST(Fp16, OverflowToInfinity)
{
    EXPECT_TRUE(std::isinf(fp16Round(1e6f)));
    EXPECT_TRUE(std::isinf(fp16Round(-1e6f)));
    EXPECT_LT(fp16Round(-1e6f), 0.0f);
}

TEST(Fp16, NanPropagates)
{
    EXPECT_TRUE(std::isnan(
        fp16Round(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Fp16, SubnormalsRepresentable)
{
    // Smallest positive fp16 subnormal: 2^-24.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(fp16Round(tiny), tiny);
    // Below half of it rounds to zero.
    EXPECT_EQ(fp16Round(std::ldexp(1.0f, -26)), 0.0f);
}

TEST(Fp16, RoundToNearestEven)
{
    // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16
    // (1 + 2^-10); ties to even -> 1.0.
    const float halfway = 1.0f + std::ldexp(1.0f, -11);
    EXPECT_EQ(fp16Round(halfway), 1.0f);
    // 1 + 3*2^-11 is halfway between odd and even mantissa; ties to
    // even -> 1 + 2^-9 ... verify it rounds *up* to the even mantissa.
    const float halfway2 = 1.0f + 3.0f * std::ldexp(1.0f, -11);
    EXPECT_EQ(fp16Round(halfway2), 1.0f + std::ldexp(1.0f, -9));
}

TEST(Fp16, RelativeErrorBounded)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const auto v = static_cast<float>(rng.uniform(-100.0, 100.0));
        const float r = fp16Round(v);
        if (v != 0.0f) {
            EXPECT_LE(std::fabs(r - v) / std::fabs(v), 1.0 / 1024.0);
        }
    }
}

TEST(Fp16, RoundInPlace)
{
    std::vector<float> v{0.1f, 0.2f, 0.3f};
    fp16RoundInPlace(v);
    for (float x : v)
        EXPECT_EQ(x, fp16Round(x));
}

TEST(Int8Quant, RoundTripWithinScale)
{
    std::vector<float> v{-1.27f, 0.0f, 0.64f, 1.27f};
    const Int8Quant q = fitInt8(v);
    EXPECT_NEAR(q.scale, 0.01f, 1e-6);
    for (float x : v)
        EXPECT_NEAR(q.dequantize(q.quantize(x)), x, q.scale / 2 + 1e-7);
}

TEST(Int8Quant, SaturatesAtExtremes)
{
    Int8Quant q{0.01f};
    EXPECT_EQ(q.quantize(10.0f), 127);
    EXPECT_EQ(q.quantize(-10.0f), -127);
}

TEST(Int8Quant, AllZerosSafe)
{
    std::vector<float> v(8, 0.0f);
    const Int8Quant q = fitInt8(v);
    EXPECT_GT(q.scale, 0.0f);
    int8RoundInPlace(v);
    for (float x : v)
        EXPECT_EQ(x, 0.0f);
}

TEST(Int8Quant, FakeQuantBoundedError)
{
    Rng rng(5);
    std::vector<float> v(256);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    std::vector<float> orig = v;
    int8RoundInPlace(v);
    const Int8Quant q = fitInt8(orig);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_NEAR(v[i], orig[i], q.scale / 2 + 1e-7);
}

} // namespace
