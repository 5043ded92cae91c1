/**
 * @file
 * grid_sweep: one op is one hardware point -- an off-chip bandwidth
 * from the seeded sequence -- run over every unique layer of every
 * fig13 cell (ResNet-50, BERT-base, OPT-6.7B x all eight
 * accelerators), cells fanned out over the pool. The cold fig13 grid
 * of the set-up builds every profile, so ops hit the profile cache and
 * miss the simulation cache: the simulator does nearly all of an op.
 */

#include <algorithm>
#include <iterator>

#include "bench.hpp"
#include "pipeline.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"
#include "workload/accuracy_model.hpp"

namespace perfbench {

using namespace tbstc;
using accel::AccelKind;
using workload::ModelId;

namespace {

/** Digest over the default-seed cold grid, pinned at the benchmark's first commit. */
constexpr uint64_t kPinnedGridDigest = 0x5cf2335f84586ee9ull;
constexpr int kSetupRounds = 3;
constexpr uint64_t kMinOps = 40;
constexpr uint64_t kBwStream = 2;
constexpr uint64_t kCheckStream = 3;

struct Cell
{
    ModelId model;
    uint64_t seq = 0;
    AccelKind kind;
    double sparsity = 0.0;
    std::vector<LayerGroup> groups;
};

/** The fig13 grid (bench/fig13_end2end.cpp) over all eight accelerators. */
std::vector<Cell>
fig13Cells()
{
    struct Model
    {
        ModelId model;
        uint64_t seq;
        double usSparsity; ///< Sparsity the US baseline runs at.
    };
    const Model models[] = {{ModelId::ResNet50, 0, 0.75},
                            {ModelId::BertBase, 128, 0.50},
                            {ModelId::Opt67b, 256, 0.50}};
    const AccelKind kinds[] = {AccelKind::TC,        AccelKind::STC,
                               AccelKind::Vegeta,    AccelKind::HighLight,
                               AccelKind::RmStc,     AccelKind::Sgcn,
                               AccelKind::TbStc,     AccelKind::TbStcFan};
    std::vector<Cell> cells;
    for (const Model &m : models) {
        const auto groups = modelGroups(m.model, m.seq);
        const double targetAcc = workload::proxyAccuracy(
            m.model, core::Pattern::US, m.usSparsity);
        for (AccelKind kind : kinds) {
            const core::Pattern pattern = accel::accelPattern(kind);
            double sparsity = 0.0;
            if (kind == AccelKind::STC)
                sparsity = 0.5; // Hard-wired 4:8.
            else if (pattern != core::Pattern::Dense)
                sparsity = workload::isoAccuracySparsity(m.model, pattern,
                                                         targetAcc);
            cells.push_back({m.model, m.seq, kind, sparsity, groups});
        }
    }
    return cells;
}

/** The cold fig13 grid: every cell's runModel on an empty cache. */
uint64_t
coldGrid(const std::vector<Cell> &cells)
{
    util::ContentStore::instance().clearMemory();
    const auto stats = util::parallelMap<sim::RunStats>(
        cells.size(), [&](size_t i) {
            return accel::runModel(cells[i].kind, cells[i].model,
                                   cells[i].sparsity, cells[i].seq);
        });
    uint64_t d = 0xcbf29ce484222325ull;
    for (const auto &s : stats)
        d = digestMix(d, statsDigest(s));
    return d;
}

accel::RunRequest
pointRequest(const Cell &cell, const LayerGroup &g, double bw)
{
    accel::RunRequest req;
    req.shape = g.shape;
    req.sparsity = cell.sparsity;
    sim::ArchConfig cfg = accel::accelConfig(cell.kind);
    cfg.dramGbps = bw;
    req.configOverride = cfg;
    return req;
}

/** Off-chip bandwidth of point @p i: 32..512 GB/s, never repeating. */
double
pointBandwidth(uint64_t seed, uint64_t i)
{
    return 32.0 + 480.0 * unitDouble(deriveSeed(seed, kBwStream, i));
}

/** Per-layer stats of one op, [cell][group]. */
using PointStats = std::vector<std::vector<sim::RunStats>>;

PointStats
runPoint(const std::vector<Cell> &cells, double bw)
{
    return util::parallelMap<std::vector<sim::RunStats>>(
        cells.size(), [&](size_t c) {
            std::vector<sim::RunStats> layers;
            for (const LayerGroup &g : cells[c].groups)
                layers.push_back(
                    accel::runLayer(cells[c].kind,
                                    pointRequest(cells[c], g, bw))
                        .scaled(g.count));
            return layers;
        });
}

/**
 * Recompute one seeded (cell, layer) of a point with the cache off at
 * the default pool. For an op run with a pool of one this is also the
 * threaded == t1 identity check.
 */
bool
checkPoint(const std::vector<Cell> &cells, const PointStats &got, double bw,
           uint64_t pick)
{
    size_t pairs = 0;
    for (const Cell &c : cells)
        pairs += c.groups.size();
    size_t k = pick % pairs;
    size_t c = 0;
    while (k >= cells[c].groups.size())
        k -= cells[c++].groups.size();
    util::ContentStore &store = util::ContentStore::instance();
    store.setEnabled(false);
    const util::ThreadScope pool(defaultPool());
    const sim::RunStats want =
        accel::runLayer(cells[c].kind,
                        pointRequest(cells[c], cells[c].groups[k], bw))
            .scaled(cells[c].groups[k].count);
    store.setEnabled(true);
    return statsDigest(want) == statsDigest(got[c][k]);
}

void
tracedPass(const Options &opt, const std::vector<Cell> &cells, Outcome &out);

} // namespace

Outcome
runGridSweep(const Options &opt)
{
    Outcome out;
    const uint64_t pinned =
        opt.inject == "digest" ? ~kPinnedGridDigest : kPinnedGridDigest;
    const std::vector<Cell> cells = fig13Cells();

    // Set-up: the cold fig13 grid, which builds every pattern x format
    // profile.
    out.set("setup_s", timedSetup(out, kSetupRounds, pinned,
                                  [&] { return coldGrid(cells); }));

    if (opt.trace) {
        tracedPass(opt, cells, out);
        return out;
    }

    // Ops alternate between the default pool and a pool of one, each
    // at its own bandwidth so every op misses the simulation cache. At
    // least kMinOps per pool size keeps the tail at p75 in every run.
    std::vector<double> poolMs;
    std::vector<double> t1Ms;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (uint64_t i = 0; i < 2 * kMinOps || Clock::now() < deadline; ++i) {
        const bool t1 = i % 2 == 1;
        const double bw = pointBandwidth(opt.seed, i);
        const util::ThreadScope pool(t1 ? 1 : defaultPool());
        const auto t0 = Clock::now();
        const PointStats got = runPoint(cells, bw);
        (t1 ? t1Ms : poolMs).push_back(msSince(t0));
        out.check(checkPoint(cells, got, bw,
                             deriveSeed(opt.seed, kCheckStream, i)),
                  strf("point %llu (%.3f GB/s) == cache-off recompute",
                       static_cast<unsigned long long>(i), bw));
    }

    const Tail tail = tailPercentile(poolMs);
    double sum = 0.0;
    for (double ms : poolMs)
        sum += ms;
    out.set("peak_rss_mb", peakRssMb());
    out.set("op_p50_ms", median(poolMs));
    out.set("op_tail_ms", tail.value);
    out.set("op_t1_p50_ms", median(t1Ms));
    out.set("ops_per_s", 1000.0 * static_cast<double>(poolMs.size()) / sum);
    out.note(strf("grid_sweep: %zu cells, %zu + %zu ops; tail = p%g with "
                  "%zu samples beyond",
                  cells.size(), poolMs.size(), t1Ms.size(), tail.percentile,
                  tail.beyond));
    return out;
}

namespace {

/** Op id of the traced set-up; traced ops count up from 0. */
constexpr uint64_t kSetupOp = uint64_t{1} << 40;

/**
 * Traced pass. The set-up's profile builds are decomposed (one span
 * per public call, at the default pool) and compared with the cached
 * profiles; each op is then run untraced at both pool sizes and
 * decomposed at a pool of one. Last, the serve layer is probed.
 */
void
tracedPass(const Options &opt, const std::vector<Cell> &cells, Outcome &out)
{
    Tracer &tracer = Tracer::instance();

    // Unique profile specs of the grid, as runLayer derives them.
    std::vector<workload::ProfileSpec> specs;
    for (const Cell &c : cells) {
        for (const LayerGroup &g : c.groups) {
            accel::RunRequest req;
            req.shape = g.shape;
            req.sparsity = c.sparsity;
            const workload::ProfileSpec spec = runLayerSpec(c.kind, req);
            const bool seen = std::any_of(
                specs.begin(), specs.end(), [&](const auto &o) {
                    return o.shape.name == spec.shape.name
                        && o.shape.x == spec.shape.x
                        && o.shape.y == spec.shape.y
                        && o.shape.nb == spec.shape.nb
                        && o.pattern == spec.pattern
                        && o.sparsity == spec.sparsity
                        && o.fmt == spec.fmt
                        && o.densifyIndependent == spec.densifyIndependent;
                });
            if (!seen)
                specs.push_back(spec);
        }
    }
    tracer.setEnabled(true);
    const auto decomposed = [&] {
        const Span root("grid.setup", OpRoot{kSetupOp});
        const uint32_t rootId = root.id();
        return util::parallelMap<sim::LayerProfile>(
            specs.size(), [&](size_t i) {
                const Span task("grid.setup.spec", rootId);
                return tracedProfile(specs[i]);
            });
    }();
    tracer.setEnabled(false);
    bool same = true;
    for (size_t i = 0; i < specs.size(); ++i)
        same = same
            && sameProfile(decomposed[i], workload::buildLayerProfile(specs[i]));
    out.check(same, strf("%zu decomposed set-up profiles == "
                         "buildLayerProfile",
                         specs.size()));

    std::vector<double> poolMs, t1Ms, tracedMs, simShare;
    double blocks = 0.0;
    double payload = 0.0;
    size_t profileHits = 0;
    size_t simHits = 0;
    size_t lookups = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (uint64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        {
            const double bw = pointBandwidth(opt.seed, 3 * i);
            const auto t0 = Clock::now();
            (void)runPoint(cells, bw);
            poolMs.push_back(msSince(t0));
        }
        {
            const double bw = pointBandwidth(opt.seed, 3 * i + 1);
            const util::ThreadScope t1(1);
            const auto t0 = Clock::now();
            (void)runPoint(cells, bw);
            t1Ms.push_back(msSince(t0));
        }
        const double bw = pointBandwidth(opt.seed, 3 * i + 2);
        PointStats got(cells.size());
        double opBlocks = 0.0;
        double opBytes = 0.0;
        tracer.setEnabled(true);
        const auto t0 = Clock::now();
        {
            const util::ThreadScope t1(1);
            const Span root("grid.point", OpRoot{i});
            for (size_t c = 0; c < cells.size(); ++c) {
                for (const LayerGroup &g : cells[c].groups) {
                    const TracedLayer tl = tracedRunLayer(
                        cells[c].kind, pointRequest(cells[c], g, bw), false);
                    got[c].push_back(tl.stats.scaled(g.count));
                    opBlocks += static_cast<double>(tl.profile.blocks.size());
                    opBytes +=
                        static_cast<double>(tl.profile.aStream.payloadBytes);
                    profileHits += tl.profileHit;
                    simHits += tl.simHit;
                    ++lookups;
                }
            }
        }
        const double wall = msSince(t0);
        tracer.setEnabled(false);
        tracedMs.push_back(wall);
        if (i == 0) {
            blocks = opBlocks;
            payload = opBytes;
        }
        out.check(checkPoint(cells, got, bw,
                             deriveSeed(opt.seed, kCheckStream, i)),
                  strf("decomposed point %llu == cache-off runLayer",
                       static_cast<unsigned long long>(i)));
        simShare.push_back(
            100.0 * opTotalMs(tracer.snapshot(), "sim.simulateLayer", i)
            / wall);
    }

    const auto spans = tracer.snapshot();
    std::vector<SpanRec> opSpans;
    std::copy_if(spans.begin(), spans.end(), std::back_inserter(opSpans),
                 [](const SpanRec &s) { return s.op != kSetupOp; });
    for (const char *name :
         {"workload.synthWeights", "workload.buildLayerProfile",
          "core.magnitudeScores", "core.tryMakeMask", "core.patternMask.TS",
          "core.patternMask.RS-V", "core.patternMask.RS-H",
          "core.patternMask.US", "format.encode.DDC", "format.encode.SDC",
          "format.encode.Bitmap", "format.encode.Dense"})
        out.set(std::string(name) + "_ms", opTotalMs(spans, name, kSetupOp));
    const double simMs = median(perOpTotalsMs(opSpans, "sim.simulateLayer"));
    out.set("sim.simulateLayer_ms", simMs);
    out.set("sim.blocks", blocks);
    out.set("sim.ns_per_block", 1e6 * simMs / blocks);
    out.set("format.payload_bytes", payload);
    out.set("accel.runLayer.self_ms",
            median(perOpTotalsMs(opSpans, "accel.runLayer", true)));
    out.set("util.parallel.speedup", median(t1Ms) / median(poolMs));
    out.set("cache.profile.hit_ratio",
            static_cast<double>(profileHits) / static_cast<double>(lookups));
    out.set("cache.sim.hit_ratio",
            static_cast<double>(simHits) / static_cast<double>(lookups));
    out.set("cache.hit_us",
            1000.0 * median(durationsMs(opSpans, "workload.buildLayerProfile")));
    out.set("trace.overhead_pct",
            100.0 * (median(tracedMs) - median(t1Ms)) / median(t1Ms));
    out.set("sim.share_pct", median(simShare));
    out.note(strf("traced grid_sweep: %zu unique set-up profiles; %zu points; "
                  "t1 op %.1f ms, sim share %.1f%%",
                  specs.size(), t1Ms.size(), median(t1Ms), median(simShare)));

    probeServeLayer(opt, out);
}

} // namespace

} // namespace perfbench
