#include "rng.hpp"

#include <cmath>
#include <numbers>

#include "logging.hpp"

namespace tbstc::util {

namespace {

/** SplitMix64 step; used only for seeding. */
uint64_t
splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** Box-Muller's u1 rejection: log(u1) must stay finite. */
bool
rejectU1(double u1)
{
    return u1 <= 1e-300;
}

/** Box-Muller radius for u1. */
double
boxMullerMag(double u1)
{
    return std::sqrt(-2.0 * std::log(u1));
}

/** The second (sin) variate of a Box-Muller pair of radius @p mag. */
double
boxMullerSin(double mag, double u2)
{
    return mag * std::sin(2.0 * std::numbers::pi * u2);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
    // All-zero state would lock xoshiro at zero; SplitMix64 cannot emit
    // four zeros from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

Rng::Rng(const State &state)
    : haveSpare_(state.haveSpare), spare_(state.spare)
{
    for (size_t i = 0; i < 4; ++i)
        s_[i] = state.s[i];
}

Rng::State
Rng::state() const
{
    State st;
    for (size_t i = 0; i < 4; ++i)
        st.s[i] = s_[i];
    st.haveSpare = haveSpare_;
    if (haveSpare_)
        st.spare = spareDeferred_
            ? boxMullerSin(boxMullerMag(deferredU1_), deferredU2_)
            : spare_;
    return st;
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    ensure(n > 0, "Rng::below requires n > 0");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit);
    return draw % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        if (spareDeferred_) {
            spareDeferred_ = false;
            return boxMullerSin(boxMullerMag(deferredU1_), deferredU2_);
        }
        return spare_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (rejectU1(u1))
        u1 = uniform();
    const double mag = boxMullerMag(u1);
    spare_ = boxMullerSin(mag, u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * std::numbers::pi * u2);
}

void
Rng::skipGaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        spareDeferred_ = false;
        return;
    }
    double u1 = uniform();
    const double u2 = uniform();
    while (rejectU1(u1))
        u1 = uniform();
    deferredU1_ = u1;
    deferredU2_ = u2;
    spareDeferred_ = true;
    haveSpare_ = true;
}

void
Rng::skipHeavyTails(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        next(); // The outlier-component coin.
        skipGaussian();
    }
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::heavyTail(double outlier_frac, double outlier_scale)
{
    const double scale = uniform() < outlier_frac ? outlier_scale : 1.0;
    return gaussian() * scale;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (size_t i = n; i > 1; --i) {
        const size_t j = below(i);
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefull);
}

} // namespace tbstc::util
