/**
 * @file
 * Sample statistics, the open-loop arrival schedule and span self-time
 * arithmetic of the harness. Pure functions, pinned by
 * tests/test_perfbench.cpp.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n)
 * of the sorted samples.
 */
double percentile(std::vector<double> v, double p);

/** Samples strictly beyond the nearest-rank @p p percentile of @p n. */
size_t samplesBeyond(size_t n, double p);

/** The tail percentile chosen for a sample set. */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
    size_t beyond = 0;  ///< Samples above the chosen rank.
    size_t samples = 0;
};

/**
 * The highest of p99 / p95 / p90 / p75 with at least @p minBeyond
 * samples beyond it. With too few samples for any of them the median
 * is returned (and `beyond` says how thin it is).
 */
Tail tailPercentile(const std::vector<double> &samples,
                    size_t minBeyond = 10);

/**
 * Send offsets (seconds from the rung start) of @p count Poisson
 * arrivals at @p ratePerSec, drawn from @p seed. The same seed gives
 * the same schedule on every platform.
 */
std::vector<double> poissonSchedule(double ratePerSec, size_t count,
                                    uint64_t seed);

/** Self time: @p durUs minus the union of child intervals inside it. */
double selfTimeUs(double startUs, double endUs,
                  std::vector<std::pair<double, double>> children);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
