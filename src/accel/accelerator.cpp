#include "accelerator.hpp"

#include <map>
#include <tuple>

#include "obs/obs.hpp"
#include "util/fmt.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "workload/graph.hpp"

namespace tbstc::accel {

using core::Pattern;
using format::StorageFormat;
using sim::ArchConfig;
using sim::InterSched;
using sim::IntraMap;
using sim::RunStats;
using workload::ProfileSpec;

namespace {

/**
 * Datapath of the structured baselines: no adaptive codec, matrix-B
 * distribution or alternate buffer (TB-STC's Sec. V units).
 */
constexpr ArchConfig
baseline(ArchConfig cfg)
{
    cfg.codecUnit = false;
    cfg.mbdUnit = false;
    cfg.alternateUnit = false;
    return cfg;
}

/**
 * The accelerator table, one row per AccelKind in enum order. Each
 * config is the paper's common geometry (ArchConfig's defaults) plus
 * that architecture's changes.
 */
constexpr AccelSpec kAccels[] = {
    {.kind = AccelKind::TC, .name = "TC", .wireName = "tc",
     .pattern = Pattern::Dense, .format = StorageFormat::Dense,
     .config = baseline({.interSched = InterSched::Naive})}, // Uniform blocks.
    {.kind = AccelKind::STC, .name = "STC", .wireName = "stc",
     .pattern = Pattern::TS, .format = StorageFormat::SDC,
     .fixedSparsity = 0.5, // 4:8.
     .config = baseline({.interSched = InterSched::Naive})}, // Uniform blocks.
    {.kind = AccelKind::Vegeta, .name = "VEGETA", .wireName = "vegeta",
     .pattern = Pattern::RSV, .format = StorageFormat::Bitmap,
     .config = baseline({.interSched = InterSched::Naive})}, // Row waves.
    // Hierarchical metadata gives coarse (tile-level) balancing: aware
    // dispatch, but with a much shallower buffer than TB-STC's
    // scheduling unit, and two-level metadata decode overhead in the
    // issue path.
    {.kind = AccelKind::HighLight, .name = "HighLight",
     .wireName = "highlight", .pattern = Pattern::RSH,
     .format = StorageFormat::Bitmap,
     .config = baseline({.interSched = InterSched::Aware,
                         .schedLookahead = 2,
                         .beatOverheadScale = 1.10})},
    // Row merging balances. Gather/union modules: higher switching
    // energy per MAC and always-on overhead (paper Fig. 6(d)); slight
    // beat overhead from merge bubbles.
    {.kind = AccelKind::RmStc, .name = "RM-STC", .wireName = "rmstc",
     .pattern = Pattern::US, .format = StorageFormat::Bitmap,
     .config = baseline({.interSched = InterSched::Aware,
                         .computeEnergyScale = 2.10,
                         .extraStaticW = 0.045,
                         .beatOverheadScale = 1.05,
                         .elementGranular = true})},
    // High-sparsity design point: generous bandwidth, but an
    // element-granular pipeline that cannot reach structured
    // throughput at moderate density (paper Sec. VII-D4).
    {.kind = AccelKind::Sgcn, .name = "SGCN", .wireName = "sgcn",
     .pattern = Pattern::US, .format = StorageFormat::Bitmap,
     .config = baseline({.dramGbps = 256.0,
                         .interSched = InterSched::Aware,
                         .computeEnergyScale = 1.40,
                         .extraStaticW = 0.015,
                         .beatOverheadScale = 1.35,
                         .elementGranular = true})},
    // This paper: the full feature set.
    {.kind = AccelKind::TbStc, .name = "TB-STC", .wireName = "tbstc",
     .pattern = Pattern::TBS, .format = StorageFormat::DDC,
     .independentDim = true},
    // SIGMA's forwarding adder network in place of the DVPE reduction
    // network: element-level forwarding burns energy and adds
    // arbitration bubbles (paper Sec. VII-E2: 1.61x EDP). An ablation,
    // so not one of compare's baselines.
    {.kind = AccelKind::TbStcFan, .name = "DVPE+FAN", .wireName = "fan",
     .pattern = Pattern::TBS, .format = StorageFormat::DDC,
     .independentDim = true, .compared = false,
     .config = {.computeEnergyScale = 2.0,
                .extraStaticW = 0.030,
                .beatOverheadScale = 1.25}},
};

/** kAccels[i] is the row of AccelKind i, and every kind has one. */
constexpr bool
indexedByKind()
{
    for (size_t i = 0; i < std::size(kAccels); ++i) {
        if (static_cast<size_t>(kAccels[i].kind) != i)
            return false;
    }
    return std::size(kAccels) == size_t(AccelKind::TbStcFan) + 1;
}
static_assert(indexedByKind());

} // namespace

std::span<const AccelSpec>
accelSpecs()
{
    return kAccels;
}

const AccelSpec &
accelSpec(AccelKind kind)
{
    const auto i = static_cast<size_t>(kind);
    util::ensure(i < std::size(kAccels), "unknown AccelKind");
    return kAccels[i];
}

std::string
accelName(AccelKind kind)
{
    return accelSpec(kind).name;
}

core::Pattern
accelPattern(AccelKind kind)
{
    return accelSpec(kind).pattern;
}

format::StorageFormat
accelFormat(AccelKind kind)
{
    return accelSpec(kind).format;
}

sim::ArchConfig
accelConfig(AccelKind kind)
{
    return accelSpec(kind).config;
}

bool
supportsIndependentDim(AccelKind kind)
{
    return accelSpec(kind).independentDim;
}

RunStats
runLayer(AccelKind kind, const RunRequest &req)
{
    const AccelSpec &row = accelSpec(kind);
    const obs::ScopedSpan span(util::formatStr(
        "accel.runLayer {} {}x{}x{}", row.name, req.shape.x, req.shape.y,
        req.shape.nb));
    const Pattern pattern = req.patternOverride.value_or(row.pattern);

    ProfileSpec spec;
    spec.shape = req.shape;
    spec.pattern = pattern;
    spec.sparsity = row.fixedSparsity && !req.patternOverride
        ? *row.fixedSparsity
        : req.sparsity;
    spec.m = req.m;
    spec.maskStrategy = req.maskStrategy;
    spec.fmt = req.formatOverride.value_or(row.format);
    // Structured-only datapaths cannot express independent-dimension
    // blocks and fall back to dense; unstructured-capable ones
    // (RM-STC, SGCN) consume any mask natively.
    spec.densifyIndependent = pattern == Pattern::TBS
        && !row.independentDim && row.pattern != Pattern::US;
    spec.seed = req.seed;

    const ArchConfig cfg = req.configOverride.value_or(row.config);
    const util::ThreadScope threads(cfg.hostThreads);
    const sim::LayerProfile profile = workload::buildLayerProfile(spec);
    sim::RunOptions opts;
    opts.int8Weights = req.int8Weights;
    static const obs::Stage stage("sim.simulateLayer");
    const obs::ScopedStage timed(stage);
    return sim::simulateLayer(profile, cfg, sim::EnergyParams{}, opts);
}

RunStats
runModel(AccelKind kind, workload::ModelId model, double sparsity,
         uint64_t seq, bool int8_weights, uint64_t seed,
         const std::string &maskStrategy,
         const std::optional<ArchConfig> &config)
{
    const obs::ScopedSpan span(util::formatStr(
        "accel.runModel {} model={} seq={}", accelName(kind),
        workload::modelName(model), seq));
    // Group identically shaped layers; simulate one representative and
    // scale. Statistically the synthetic weights of same-shape layers
    // are interchangeable, and this turns 32-layer LLMs into a handful
    // of simulations.
    std::map<std::tuple<uint64_t, uint64_t, uint64_t>,
             std::pair<workload::GemmShape, double>> groups;
    for (const auto &shape : workload::modelLayers(model, seq)) {
        auto key = std::make_tuple(shape.x, shape.y, shape.nb);
        auto [it, inserted] = groups.try_emplace(key, shape, 0.0);
        it->second.second += 1.0;
    }
    // Representatives are independent simulator runs: simulate them in
    // parallel, then accumulate in the map's (sorted-key) order so the
    // floating-point totals match the serial path bit for bit.
    std::vector<std::pair<workload::GemmShape, double>> reps;
    reps.reserve(groups.size());
    for (const auto &[key, entry] : groups)
        reps.push_back(entry);
    const auto stats = util::parallelMap<RunStats>(
        reps.size(), [&](size_t i) {
            RunRequest req;
            req.shape = reps[i].first;
            req.sparsity = sparsity;
            req.seed = seed;
            req.int8Weights = int8_weights;
            req.maskStrategy = maskStrategy;
            req.configOverride = config;
            return runLayer(kind, req).scaled(reps[i].second);
        });
    RunStats total;
    for (const auto &s : stats)
        total.accumulate(s);
    return total;
}

RunStats
runInference(AccelKind kind, workload::ModelId model, double sparsity,
             uint64_t seq, bool int8_weights, uint64_t seed,
             const std::string &maskStrategy,
             const std::optional<ArchConfig> &config)
{
    const obs::ScopedSpan span(util::formatStr(
        "accel.runInference {} model={} seq={}", accelName(kind),
        workload::modelName(model), seq));
    RunStats total = runModel(kind, model, sparsity, seq, int8_weights,
                              seed, maskStrategy, config);
    std::vector<workload::InferenceOp> acts;
    for (const auto &op : workload::inferenceGraph(model, seq)) {
        if (!op.weightOp) // Weight ops are covered by runModel().
            acts.push_back(op);
    }
    const auto stats = util::parallelMap<RunStats>(
        acts.size(), [&](size_t i) {
            RunRequest req;
            req.shape = acts[i].shape;
            req.sparsity = 0.0;
            req.seed = seed;
            // Activation GEMMs are dense whatever the weight pattern.
            req.patternOverride = Pattern::Dense;
            req.formatOverride = StorageFormat::Dense;
            req.configOverride = config;
            return runLayer(kind, req).scaled(acts[i].count);
        });
    for (const auto &s : stats)
        total.accumulate(s);
    return total;
}

} // namespace tbstc::accel
