/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace {

using tbstc::util::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiasedAndBounded)
{
    Rng rng(11);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 70000; ++i) {
        const uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        ++counts[v];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 450);
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.below(0), tbstc::util::PanicError);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(3.0, 0.5);
    EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, HeavyTailHasOutliers)
{
    Rng rng(19);
    int big = 0;
    for (int i = 0; i < 20000; ++i)
        big += std::fabs(rng.heavyTail(0.05, 8.0)) > 4.0;
    // A pure unit Gaussian would give ~0.006%; the mixture gives ~3%.
    EXPECT_GT(big, 200);
    EXPECT_LT(big, 2000);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(23);
    const auto p = rng.permutation(257);
    std::set<size_t> seen(p.begin(), p.end());
    EXPECT_EQ(seen.size(), 257u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, PermutationShuffles)
{
    Rng rng(29);
    const auto p = rng.permutation(100);
    size_t fixed = 0;
    for (size_t i = 0; i < p.size(); ++i)
        fixed += p[i] == i;
    EXPECT_LT(fixed, 10u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripResumesStream)
{
    Rng a(77);
    for (int i = 0; i < 5; ++i) // Odd count: a Box-Muller spare pends.
        a.gaussian();
    const Rng::State st = a.state();
    EXPECT_TRUE(st.haveSpare);
    Rng b(st);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(a.gaussian(), b.gaussian());
        EXPECT_EQ(a.heavyTail(), b.heavyTail());
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, SkipsConsumeTheWordsOfTheDrawTheyReplace)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng drawn(seed);
        Rng skipped(seed);
        for (int i = 0; i < 101; ++i) {
            drawn.heavyTail();
            skipped.skipHeavyTails(1);
            drawn.gaussian();
            skipped.skipGaussian();
        }
        for (int i = 0; i < 37; ++i)
            drawn.heavyTail();
        skipped.skipHeavyTails(37);
        drawn.gaussian();
        skipped.skipGaussian(); // Leaves a deferred spare pending.
        const Rng::State ds = drawn.state();
        const Rng::State ss = skipped.state();
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(ds.s[i], ss.s[i]);
        EXPECT_EQ(ds.haveSpare, ss.haveSpare);
        EXPECT_EQ(ds.spare, ss.spare);
        // The deferred spare is the value gaussian() would have kept.
        EXPECT_EQ(drawn.gaussian(), skipped.gaussian());
        EXPECT_EQ(drawn.next(), skipped.next());
    }
}

TEST(Rng, GaussianRedrawsAZeroU1)
{
    // xoshiro256** outputs rotl(s1 * 5, 7) * 9, so s1 == 0 makes the
    // next word 0: u1 = 0 must be rejected and redrawn (log(0) is
    // -inf). The redraw consumes a third word.
    Rng::State st;
    st.s[0] = 0x0123456789abcdefull;
    st.s[1] = 0;
    st.s[2] = 0xfedcba9876543210ull;
    st.s[3] = 0x0f1e2d3c4b5a6978ull;
    Rng words(st);
    EXPECT_EQ(words.next(), 0u);
    const double u2 = words.uniform();
    const double u1 = words.uniform();
    ASSERT_GT(u1, 1e-300);
    const double mag = std::sqrt(-2.0 * std::log(u1));

    Rng drawn(st);
    EXPECT_EQ(drawn.gaussian(),
              mag * std::cos(2.0 * std::numbers::pi * u2));
    EXPECT_EQ(drawn.gaussian(),
              mag * std::sin(2.0 * std::numbers::pi * u2));

    Rng skipped(st);
    skipped.skipGaussian();
    EXPECT_EQ(skipped.gaussian(),
              mag * std::sin(2.0 * std::numbers::pi * u2));
    EXPECT_EQ(skipped.next(), words.next());
}

} // namespace
