/**
 * @file
 * llm_cold: one op is a cold accel::runModel(TB-STC, Llama2-7B, 50%,
 * seq 128) with a fresh seed and an emptied in-memory ContentStore.
 * The serial synth -> top-k -> Alg. 1 -> DDC chain of its three
 * row-sampled 2048x4096 layers does nearly all of the work.
 */

#include "bench.hpp"
#include "pipeline.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace tbstc;

namespace {

constexpr uint64_t kDefaultSeed = 42;
/** statsDigest of the default-seed op, pinned at the benchmark's first commit. */
constexpr uint64_t kPinnedDigest = 0x87f7e2d48737af37ull;
constexpr int kSetupRounds = 3;
constexpr uint64_t kSeedStream = 1;

constexpr auto kKind = accel::AccelKind::TbStc;
constexpr auto kModel = workload::ModelId::Llama27b;
constexpr double kSparsity = 0.5;
constexpr uint64_t kSeq = 128;

/** A timed cold op at the current pool size. */
double
timedOp(uint64_t seed, sim::RunStats &stats)
{
    util::ContentStore::instance().clearMemory();
    const auto t0 = Clock::now();
    stats = accel::runModel(kKind, kModel, kSparsity, kSeq, false, seed);
    return msSince(t0);
}

accel::RunRequest
layerRequest(const LayerGroup &g, uint64_t seed)
{
    accel::RunRequest req;
    req.shape = g.shape;
    req.sparsity = kSparsity;
    req.seed = seed;
    return req;
}

/**
 * Traced pass: per seed, untraced cold ops at both pool sizes, then a
 * decomposed t1 op with a span per public call. The decomposition's
 * profiles and totals must equal the library's.
 */
void
tracedPass(const Options &opt, Outcome &out)
{
    Tracer &tracer = Tracer::instance();
    const auto groups = modelGroups(kModel, kSeq);
    std::vector<double> poolMs, t1Ms, tracedMs, coverage, simShare;
    double blocks = 0.0;  // Op 0's counts: its input is fixed by the
    double payload = 0.0; // seed, so they repeat exactly.
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (uint64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        const uint64_t seed = deriveSeed(opt.seed, kSeedStream, i);
        tracer.setEnabled(false);
        sim::RunStats real;
        poolMs.push_back(timedOp(seed, real));
        sim::RunStats realT1;
        {
            const util::ThreadScope t1(1);
            t1Ms.push_back(timedOp(seed, realT1));
        }
        out.check(statsDigest(real) == statsDigest(realT1),
                  "threaded == t1 RunStats, seed " + hex(seed));
        // The t1 op left this seed's profiles in the store.
        std::vector<sim::LayerProfile> realProfiles;
        for (const LayerGroup &g : groups)
            realProfiles.push_back(workload::buildLayerProfile(
                runLayerSpec(kKind, layerRequest(g, seed))));

        util::ContentStore::instance().clearMemory();
        tracer.setEnabled(true);
        const util::ThreadScope t1(1);
        const auto t0 = Clock::now();
        sim::RunStats total;
        double opBlocks = 0.0;
        double opBytes = 0.0;
        bool same = true;
        {
            const Span root("accel.runModel", OpRoot{i});
            for (size_t l = 0; l < groups.size(); ++l) {
                TracedLayer tl = tracedRunLayer(
                    kKind, layerRequest(groups[l], seed), true, true);
                total.accumulate(tl.stats.scaled(groups[l].count));
                same = same && sameProfile(tl.profile, realProfiles[l]);
                opBlocks += static_cast<double>(tl.profile.blocks.size());
                opBytes += static_cast<double>(tl.profile.aStream.payloadBytes);
            }
        }
        const double wall = msSince(t0);
        tracer.setEnabled(false);
        out.check(same, "decomposed profiles == buildLayerProfile, seed "
                            + hex(seed));
        out.check(statsDigest(total) == statsDigest(realT1),
                  "decomposed op == runModel, seed " + hex(seed));

        const auto spans = tracer.snapshot();
        auto opTotal = [&](const char *name) {
            return opTotalMs(spans, name, i);
        };
        const double probe = opTotal("core.usMask");
        double stages = 0.0;
        for (const char *name :
             {"workload.synthWeights", "core.magnitudeScores",
              "core.tryMakeMask", "workload.blockTasks", "format.encode.DDC",
              "sim.simulateLayer"})
            stages += opTotal(name);
        tracedMs.push_back(wall - probe);
        coverage.push_back(100.0 * stages / tracedMs.back());
        simShare.push_back(100.0 * opTotal("sim.simulateLayer")
                           / tracedMs.back());
        if (i == 0) {
            blocks = opBlocks;
            payload = opBytes;
        }
    }

    const auto spans = tracer.snapshot();
    auto stage = [&](const std::string &name) {
        return median(perOpTotalsMs(spans, name));
    };
    const double probeMs = stage("core.usMask");
    out.set("workload.synthWeights_ms", stage("workload.synthWeights"));
    out.set("workload.buildLayerProfile_ms",
            stage("workload.buildLayerProfile") - probeMs);
    out.set("core.magnitudeScores_ms", stage("core.magnitudeScores"));
    out.set("core.usMask_ms", probeMs);
    out.set("core.tryMakeMask_ms", stage("core.tryMakeMask"));
    out.set("format.encode.DDC_ms", stage("format.encode.DDC"));
    out.set("format.payload_bytes", payload);
    const double simMs = stage("sim.simulateLayer");
    out.set("sim.simulateLayer_ms", simMs);
    out.set("sim.blocks", blocks);
    out.set("sim.ns_per_block", 1e6 * simMs / blocks);
    out.set("accel.runModel_ms", median(tracedMs));
    out.set("accel.runLayer.self_ms",
            median(perOpTotalsMs(spans, "accel.runLayer", true)));
    out.set("util.parallel.speedup", median(t1Ms) / median(poolMs));
    out.set("cache.profile.hit_ratio", 0.0);
    out.set("cache.sim.hit_ratio", 0.0);
    out.set("trace.overhead_pct",
            100.0 * (median(tracedMs) - median(t1Ms)) / median(t1Ms));
    out.set("trace.stage_coverage_pct", median(coverage));
    out.set("sim.share_pct", median(simShare));
    out.note(strf("traced llm_cold: %zu seeds, t1 op %.1f ms, stage "
                  "coverage %.1f%%, sim share %.2f%%",
                  t1Ms.size(), median(t1Ms), median(coverage),
                  median(simShare)));
}

} // namespace

Outcome
runLlmCold(const Options &opt)
{
    Outcome out;
    const uint64_t pinned =
        opt.inject == "digest" ? ~kPinnedDigest : kPinnedDigest;

    // Set-up: pool/ISA init, then a cold default-seed op.
    out.set("setup_s", timedSetup(out, kSetupRounds, pinned, [] {
                sim::RunStats stats;
                (void)timedOp(kDefaultSeed, stats);
                return statsDigest(stats);
            }));

    if (opt.trace) {
        tracedPass(opt, out);
        return out;
    }

    // Ops: each seed runs cold at the default pool, then at a pool of
    // one; the two RunStats must be bit-identical.
    std::vector<double> poolMs;
    std::vector<double> t1Ms;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (uint64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        const uint64_t seed = deriveSeed(opt.seed, kSeedStream, i);
        sim::RunStats a;
        sim::RunStats b;
        poolMs.push_back(timedOp(seed, a));
        {
            const util::ThreadScope t1(1);
            t1Ms.push_back(timedOp(seed, b));
        }
        out.check(statsDigest(a) == statsDigest(b),
                  "threaded == t1 RunStats, seed " + hex(seed));
    }
    util::ContentStore::instance().clearMemory();

    const Tail tail = tailPercentile(poolMs);
    double sum = 0.0;
    for (double ms : poolMs)
        sum += ms;
    out.set("peak_rss_mb", peakRssMb());
    out.set("op_p50_ms", median(poolMs));
    out.set("op_tail_ms", tail.value);
    out.set("op_t1_p50_ms", median(t1Ms));
    out.set("ops_per_s", 1000.0 * static_cast<double>(poolMs.size()) / sum);
    out.note(strf("llm_cold: %zu ops per pool size; tail = p%g with %zu "
                  "samples beyond",
                  poolMs.size(), tail.percentile, tail.beyond));
    return out;
}

} // namespace perfbench
