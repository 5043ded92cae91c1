/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload llm_cold|grid_sweep --seed N
 *             --seconds S --trace 0|1 [--spans-out FILE]
 *             [--work-dir DIR] [--inject digest|reply]
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 runs the traced pass and measures the per-layer metrics.
 * The lines before the last on stdout are the host context and notes.
 * The last is the raw result: correct, attempted, failed and every
 * measured metric by name. run.py turns it into the result object,
 * with the metric lists and units of BENCHMARK.json.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include <malloc.h>

#include "bench.hpp"
#include "kernels/kernels.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "llm_cold|grid_sweep --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--work-dir DIR]\n"
                 "                 [--inject digest|reply]\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = val == "1";
        } else if (key == "--spans-out") {
            opt.spansOut = val;
        } else if (key == "--work-dir") {
            opt.workDir = val;
        } else if (key == "--inject") {
            opt.inject = val;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

void
printHost(const Options &opt)
{
    std::printf("{\"host\": {\"nproc\": %zu, \"pool\": %zu, \"kernels\": %s, "
                "\"build_type\": %s, \"compiler\": %s, \"workload\": %s, "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
                defaultPool(), tbstc::util::effectiveThreads(),
                tbstc::obs::jsonQuote(tbstc::kernels::isaName(
                                          tbstc::kernels::activeIsa()))
                    .c_str(),
                tbstc::obs::jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
                tbstc::obs::jsonQuote(__VERSION__).c_str(),
                tbstc::obs::jsonQuote(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
}

} // namespace

int
main(int argc, char **argv)
{
    (void)processStart();
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage("bad arguments");
    // A fixed mmap threshold: glibc's adaptive one makes whether a
    // freed 32 MiB matrix goes back to the OS depend on allocation
    // history, which made peak RSS vary by 15% between runs.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    tbstc::util::setThreads(defaultPool());
    // In-memory cache only, whatever TBSTC_PROFILE_CACHE says.
    tbstc::util::ContentStore::instance().setDiskDir("");
    tbstc::util::ContentStore::instance().setEnabled(true);

    Outcome out;
    try {
        if (opt.workload == "llm_cold")
            out = runLlmCold(opt);
        else if (opt.workload == "grid_sweep")
            out = runGridSweep(opt);
        else
            return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (opt.trace && !opt.spansOut.empty())
        out.check(Tracer::instance().writeJson(opt.spansOut),
                  "write spans to " + opt.spansOut);

    printHost(opt);
    std::string metrics;
    for (const auto &[name, value] : out.metrics) {
        if (!std::isfinite(value)) {
            out.check(false, "metric finite: " + name);
            continue;
        }
        metrics += strf("%s\"%s\": %.17g", metrics.empty() ? "" : ", ",
                        name.c_str(), value);
    }
    for (const std::string &line : out.notes)
        std::printf("# %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
}
