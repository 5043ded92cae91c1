/**
 * @file
 * Deterministic random number generation for all experiments.
 *
 * Every stochastic component of the library (weight synthesis, dataset
 * generation, tie-breaking) draws from an explicitly seeded Rng so that
 * every table and figure reproduces bit-identically. Wall-clock or global
 * RNG state is never used.
 */

#ifndef TBSTC_UTIL_RNG_HPP
#define TBSTC_UTIL_RNG_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tbstc::util {

/**
 * xoshiro256** PRNG seeded via SplitMix64.
 *
 * Fast, high-quality, and tiny; identical streams on every platform,
 * unlike std::mt19937 + std::normal_distribution whose outputs are not
 * pinned by the standard.
 */
class Rng
{
  public:
    /**
     * Complete generator state. Restoring it with Rng(State) replays
     * the stream exactly, including a pending Box-Muller spare, so a
     * long serial stream can be checkpointed and resumed in chunks.
     * spare is 0 unless haveSpare.
     */
    struct State
    {
        uint64_t s[4] = {};
        bool haveSpare = false;
        double spare = 0.0;
    };

    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Resume the stream captured by state(). */
    explicit Rng(const State &state);

    /** Snapshot of the stream position (see State). */
    State state() const;

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t below(uint64_t n);

    /** Standard normal draw (Box-Muller, deterministic). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Heavy-tailed draw modelling trained-DNN weight magnitudes:
     * a two-component Gaussian scale mixture. Most weights are small,
     * a minority are large — the regime in which magnitude pruning and
     * N:M mask selection differ meaningfully.
     *
     * @param outlier_frac Fraction of draws from the wide component.
     * @param outlier_scale Stddev ratio of the wide component.
     */
    double heavyTail(double outlier_frac = 0.05,
                     double outlier_scale = 8.0);

    /**
     * Advance past one gaussian() draw: consume exactly the words it
     * would, without the transcendental math. A spare left pending is
     * computed only if a later gaussian() or state() needs it.
     */
    void skipGaussian();

    /** Advance past @p n heavyTail() draws, like skipGaussian(). */
    void skipHeavyTails(uint64_t n);

    /** Fisher-Yates shuffle of indices [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Derive an independent child stream (for parallel workloads). */
    Rng split();

  private:
    uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
    /** The spare is still the (u1, u2) pair a skip drew, not a value. */
    bool spareDeferred_ = false;
    double deferredU1_ = 0.0;
    double deferredU2_ = 0.0;
};

} // namespace tbstc::util

#endif // TBSTC_UTIL_RNG_HPP
