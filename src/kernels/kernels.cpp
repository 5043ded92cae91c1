/**
 * @file
 * Runtime CPU-feature detection and kernel-table dispatch.
 *
 * Detection: __builtin_cpu_supports on x86-64 (which also folds in
 * the XSAVE/OS-enabled state for AVX registers), getauxval(AT_HWCAP)
 * on aarch64 Linux. Selection happens once, at the first call to
 * active(): TBSTC_ISA if set — a malformed or unsupported value is a
 * hard error, because silently falling back would make forced-ISA
 * perf runs lie — else the best level the host supports.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "kernels_detail.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace tbstc::kernels {

namespace {

CpuFeatures
detectCpuFeatures()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
    f.sse42 = __builtin_cpu_supports("sse4.2");
    f.pclmul = __builtin_cpu_supports("pclmul");
    f.bmi2 = __builtin_cpu_supports("bmi2");
    f.avx2 = __builtin_cpu_supports("avx2");
#elif defined(__aarch64__)
#if defined(__linux__)
    const unsigned long hwcap = getauxval(AT_HWCAP);
    f.neon = (hwcap & HWCAP_ASIMD) != 0;
    f.armCrc = (hwcap & HWCAP_CRC32) != 0;
#else
    // Advanced SIMD is architecturally baseline on aarch64; without
    // an auxv the CRC extension cannot be probed, so leave it off.
    f.neon = true;
#endif
#endif
    return f;
}

/** The selection; nullptr until first active()/setIsa(). */
std::atomic<const KernelTable *> g_active{nullptr};
std::once_flag g_init_once;

[[noreturn]] void
fatalIsa(const char *value, const char *why)
{
    std::fprintf(stderr,
                 "tbstc: TBSTC_ISA=%s: %s (supported here:", value, why);
    for (const Isa isa : supportedIsas())
        std::fprintf(stderr, " %s", isaName(isa));
    std::fprintf(stderr, ")\n");
    std::exit(2);
}

void
initActive()
{
    const char *env = std::getenv("TBSTC_ISA");
    if (env != nullptr && env[0] != '\0') {
        Isa isa;
        if (!parseIsa(env, isa))
            fatalIsa(env, "unknown ISA name");
        const KernelTable *t = kernelTableFor(isa);
        if (t == nullptr)
            fatalIsa(env, "not supported on this host");
        g_active.store(t, std::memory_order_release);
        return;
    }
    g_active.store(kernelTableFor(bestSupportedIsa()),
                   std::memory_order_release);
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = detectCpuFeatures();
    return features;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Neon:
        return "neon";
    }
    return "unknown";
}

bool
parseIsa(std::string_view name, Isa &out)
{
    if (name == "scalar") {
        out = Isa::Scalar;
        return true;
    }
    if (name == "avx2") {
        out = Isa::Avx2;
        return true;
    }
    if (name == "neon") {
        out = Isa::Neon;
        return true;
    }
    if (name == "native") {
        out = bestSupportedIsa();
        return true;
    }
    return false;
}

bool
isaSupported(Isa isa)
{
    return kernelTableFor(isa) != nullptr;
}

std::vector<Isa>
supportedIsas()
{
    std::vector<Isa> out;
    for (const Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon})
        if (isaSupported(isa))
            out.push_back(isa);
    return out;
}

Isa
bestSupportedIsa()
{
    Isa best = Isa::Scalar;
    for (const Isa isa : {Isa::Avx2, Isa::Neon})
        if (isaSupported(isa))
            best = isa;
    return best;
}

const KernelTable *
kernelTableFor(Isa isa)
{
    [[maybe_unused]] const CpuFeatures &f = cpuFeatures();
    switch (isa) {
    case Isa::Scalar:
        return &detail::scalarTable();
    case Isa::Avx2:
#if defined(TBSTC_KERNELS_HAVE_AVX2)
        // The whole table needs its whole feature set: BMI2 for the
        // pext/pdep index codec, PCLMUL + SSE4.2 for the CRC fold.
        // Every AVX2 part ships all three.
        if (f.avx2 && f.bmi2 && f.pclmul && f.sse42)
            return &detail::avx2Table();
#endif
        return nullptr;
    case Isa::Neon:
#if defined(TBSTC_KERNELS_HAVE_NEON)
        if (f.neon)
            return &detail::neonTable();
#endif
        return nullptr;
    }
    return nullptr;
}

const KernelTable &
active()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        std::call_once(g_init_once, initActive);
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

Isa
activeIsa()
{
    return active().isa;
}

bool
setIsa(Isa isa)
{
    const KernelTable *t = kernelTableFor(isa);
    if (t == nullptr)
        return false;
    g_active.store(t, std::memory_order_release);
    return true;
}

} // namespace tbstc::kernels
