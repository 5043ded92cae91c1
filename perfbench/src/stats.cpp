#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

size_t
nearestRank(size_t n, double p)
{
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

size_t
samplesBeyond(size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

Tail
tailPercentile(const std::vector<double> &samples, size_t minBeyond)
{
    Tail t;
    t.samples = samples.size();
    for (double p : {99.0, 95.0, 90.0, 75.0}) {
        if (samplesBeyond(samples.size(), p) >= minBeyond) {
            t.percentile = p;
            t.value = percentile(samples, p);
            t.beyond = samplesBeyond(samples.size(), p);
            return t;
        }
    }
    t.percentile = 50.0;
    t.value = median(samples);
    t.beyond = samplesBeyond(samples.size(), 50.0);
    return t;
}

std::vector<double>
poissonSchedule(double ratePerSec, size_t count, uint64_t seed)
{
    // mt19937_64's output sequence is fixed by the standard; the
    // uniform and exponential transforms are spelled out here because
    // the <random> distributions are implementation-defined.
    std::mt19937_64 gen(seed);
    std::vector<double> at;
    at.reserve(count);
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
        const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / ratePerSec;
        at.push_back(t);
    }
    return at;
}

double
selfTimeUs(double startUs, double endUs,
           std::vector<std::pair<double, double>> children)
{
    for (auto &[s, e] : children) {
        s = std::clamp(s, startUs, endUs);
        e = std::clamp(e, startUs, endUs);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double runStart = 0.0;
    double runEnd = -std::numeric_limits<double>::infinity();
    for (const auto &[s, e] : children) {
        if (s > runEnd) {
            if (runEnd > runStart)
                covered += runEnd - runStart;
            runStart = s;
            runEnd = e;
        } else {
            runEnd = std::max(runEnd, e);
        }
    }
    if (runEnd > runStart)
        covered += runEnd - runStart;
    return (endUs - startUs) - covered;
}

} // namespace perfbench
