#include "bench.hpp"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include <sys/resource.h>

#include "stats.hpp"

namespace perfbench {

Clock::time_point
processStart()
{
    static const Clock::time_point t0 = Clock::now();
    return t0;
}

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        note("FAILED: " + what);
    }
}

double
timedSetup(Outcome &out, int rounds, uint64_t pinned,
           const std::function<uint64_t()> &round)
{
    std::vector<double> seconds;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = r == 0 ? processStart() : Clock::now();
        const uint64_t d = round();
        seconds.push_back(msSince(t0) / 1000.0);
        out.check(d == pinned, "default-seed digest " + hex(d)
                                   + " == pinned " + hex(pinned));
    }
    return median(seconds);
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
digestMix(uint64_t digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (value >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
    }
    return digest;
}

uint64_t
statsDigest(const tbstc::sim::RunStats &s)
{
    uint64_t d = 0xcbf29ce484222325ull;
    for (double v : {s.cycles, s.seconds, s.energy.computeJ, s.energy.sramJ,
                     s.energy.dramJ, s.energy.codecJ, s.energy.mbdJ,
                     s.energy.staticJ, s.edp, s.breakdown.compute,
                     s.breakdown.memory, s.breakdown.codec,
                     s.breakdown.codecExposed, s.breakdown.startup,
                     s.breakdown.total, s.bwUtilisation,
                     s.computeUtilisation, s.schedUtilisation})
        d = digestMix(d, std::bit_cast<uint64_t>(v));
    return d;
}

std::string
strf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list copy;
    va_copy(copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    va_end(ap);
    return out;
}

std::string
hex(uint64_t v)
{
    return strf("%#llx", static_cast<unsigned long long>(v));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB.
}

size_t
defaultPool()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace perfbench
