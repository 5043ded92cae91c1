/**
 * @file
 * Shared types of the perfbench harness: run options, the outcome a
 * workload reports, timing helpers and seeded input generation.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Instant main() started; setup_s counts from here. */
Clock::time_point processStart();

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Fault injection proving the checks bite: "digest" or "reply". */
    std::string inject;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string spansOut;
    /** Directory for run-time files (the serve probe's socket). */
    std::string workDir = ".";
};

/** What one workload run reports. */
class Outcome
{
  public:
    /** Count one checked operation; a false @p ok is a failed op. */
    void check(bool ok, const std::string &what);

    /** Record a metric; units live in main.cpp's catalogue. */
    void set(const std::string &name, double value) { metrics[name] = value; }

    void note(const std::string &line) { notes.push_back(line); }

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
};

/**
 * Run a workload's set-up @p rounds times. Each round returns the
 * digest of its default-seed output, checked against @p pinned.
 * Returns the median round in seconds; the first round is counted
 * from process start, so it includes pool and ISA initialisation.
 */
double timedSetup(Outcome &out, int rounds, uint64_t pinned,
                  const std::function<uint64_t()> &round);

/** splitmix64 finalizer: the harness's only source of derived seeds. */
uint64_t mix64(uint64_t x);

/** Seed of input @p index in stream @p stream of run seed @p seed. */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    return mix64(mix64(seed ^ mix64(stream)) + index);
}

/** Uniform double in [0, 1) from a derived seed (53 bits). */
inline double
unitDouble(uint64_t bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/** FNV-1a over the bit patterns of every RunStats field. */
uint64_t statsDigest(const tbstc::sim::RunStats &s);

/** Fold @p value into a running FNV-1a digest. */
uint64_t digestMix(uint64_t digest, uint64_t value);

/** printf-style formatting into a std::string. */
std::string strf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** @p v as 0x-prefixed hex. */
std::string hex(uint64_t v);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Worker count of the default pool (online CPUs). */
size_t defaultPool();

/** Workload entry points; each returns only after its run finished. */
Outcome runLlmCold(const Options &opt);
Outcome runGridSweep(const Options &opt);

/**
 * The serve layer's probe (serve_probe.cpp), run by grid_sweep's
 * traced pass: sets the serve.* per-layer metrics and checks every
 * reply against in-process execution.
 */
void probeServeLayer(const Options &opt, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
