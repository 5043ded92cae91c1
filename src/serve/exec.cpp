#include "exec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "format/serialize.hpp"
#include "util/checked.hpp"
#include "util/crc32.hpp"
#include "util/fmt.hpp"
#include "workload/synth.hpp"

namespace tbstc::serve {

namespace {

/** Row cap used by the formats/sparsify pipeline (matches the CLI). */
constexpr uint64_t kSparsifyMaxRows = 4096;

/**
 * Upper bound on a layer spec's x * y * nb (its dense MACs): 2^40.
 * The largest built-in layer, OPT-6.7B's 16384x4096 fc1, reaches it
 * only at a 16384-token sequence (the CLI default is 128), so every
 * built-in model layer passes. Below it, every byte, cycle and energy
 * term the simulator derives from the shape stays far inside
 * uint64_t; far above it those terms wrap into nonsense stats.
 */
constexpr uint64_t kMaxLayerMacs = uint64_t{1} << 40;

/** The layer spec, parsed and bounded, or why it is rejected. */
util::Result<workload::GemmShape, std::string>
boundedLayer(const std::string &spec, const std::string &name)
{
    const auto shape = tryParseLayer(spec, name);
    if (!shape)
        return util::unexpected("layer spec must be XxYxNB, got '" + spec
                                + "'");
    uint64_t xy = 0;
    uint64_t macs = 0;
    if (!util::checkedMul(shape->x, shape->y, xy)
        || !util::checkedMul(xy, shape->nb, macs) || macs > kMaxLayerMacs)
        return util::unexpected(util::formatStr(
            "layer '{}' is too large: x*y*nb must be at most {}", spec,
            kMaxLayerMacs));
    return *shape;
}

std::optional<std::string>
tilingError(uint64_t rows, uint64_t cols, uint64_t m)
{
    if (rows % m == 0 && cols % m == 0)
        return std::nullopt;
    return util::formatStr(
        "weight matrix {}x{} does not tile into {}x{} blocks", rows, cols,
        m, m);
}

} // namespace

std::optional<accel::AccelKind>
tryParseAccel(const std::string &name)
{
    for (const accel::AccelSpec &a : accel::accelSpecs()) {
        if (name == a.wireName)
            return a.kind;
    }
    return std::nullopt;
}

std::string
accelWireName(accel::AccelKind kind)
{
    return accel::accelSpec(kind).wireName;
}

std::optional<workload::ModelId>
tryParseModel(const std::string &name)
{
    static const std::map<std::string, workload::ModelId> models{
        {"resnet50", workload::ModelId::ResNet50},
        {"resnet18", workload::ModelId::ResNet18},
        {"bert", workload::ModelId::BertBase},
        {"opt", workload::ModelId::Opt67b},
        {"llama", workload::ModelId::Llama27b},
    };
    const auto it = models.find(name);
    if (it == models.end())
        return std::nullopt;
    return it->second;
}

std::optional<workload::GemmShape>
tryParseLayer(const std::string &spec, const std::string &name)
{
    // Exactly three positive decimals joined by 'x': no sign (an
    // unsigned read of "-8" wraps to 2^64 - 8), no trailing bytes.
    uint64_t dims[3] = {};
    const char *p = spec.data();
    const char *const end = p + spec.size();
    for (size_t i = 0; i < 3; ++i) {
        if (i > 0 && (p == end || *p++ != 'x'))
            return std::nullopt;
        const auto [next, ec] = std::from_chars(p, end, dims[i]);
        if (ec != std::errc() || dims[i] == 0)
            return std::nullopt;
        p = next;
    }
    if (p != end)
        return std::nullopt;
    return workload::GemmShape{name, dims[0], dims[1], dims[2]};
}

std::optional<std::string>
runSpecError(const RunSpec &spec)
{
    if (spec.model.empty() && spec.layer.empty())
        return "need 'model' or 'layer'";
    if (!spec.model.empty() && !tryParseModel(spec.model))
        return "unknown model '" + spec.model + "'";
    if (!spec.layer.empty()) {
        const auto shape = boundedLayer(spec.layer, "cli.layer");
        if (!shape)
            return shape.error();
        if (const auto err =
                tilingError(shape->x, shape->y, accel::RunRequest{}.m))
            return err;
    }
    if (!(spec.sparsity >= 0.0 && spec.sparsity < 1.0))
        return std::string("'sparsity' must be in [0, 1)");
    if (spec.bw && !(*spec.bw > 0.0 && std::isfinite(*spec.bw)))
        return std::string("'bw' must be positive and finite");
    if (!core::isMaskStrategy(spec.strategy))
        return "unknown mask strategy '" + spec.strategy + "'";
    return std::nullopt;
}

std::optional<std::string>
sparsifySpecError(const SparsifySpec &spec)
{
    const auto shape = boundedLayer(spec.layer, "cli.formats");
    if (!shape)
        return shape.error();
    if (!(spec.sparsity >= 0.0 && spec.sparsity < 1.0))
        return std::string("'sparsity' must be in [0, 1)");
    if (spec.m == 0 || spec.m > 64)
        return std::string("'m' must be in [1, 64]");
    if (const auto err = tilingError(std::min(shape->x, kSparsifyMaxRows),
                                     shape->y, spec.m))
        return err;
    if (!core::isMaskStrategy(spec.strategy))
        return "unknown mask strategy '" + spec.strategy + "'";
    return std::nullopt;
}

sim::RunStats
executeRun(const RunSpec &spec)
{
    if (const auto err = runSpecError(spec))
        throw std::invalid_argument(*err);
    std::optional<sim::ArchConfig> config;
    if (spec.bw) {
        config = accel::accelConfig(spec.kind);
        config->dramGbps = *spec.bw;
    }

    if (!spec.layer.empty()) {
        accel::RunRequest req;
        req.shape = *tryParseLayer(spec.layer, "cli.layer");
        req.sparsity = spec.sparsity;
        req.seed = spec.seed;
        req.int8Weights = spec.int8Weights;
        req.maskStrategy = spec.strategy;
        req.configOverride = config;
        return accel::runLayer(spec.kind, req);
    }
    const workload::ModelId model = *tryParseModel(spec.model);
    // Full inference pass: weight GEMMs + dense attention GEMMs.
    const auto run = spec.full ? accel::runInference : accel::runModel;
    return run(spec.kind, model, spec.sparsity, spec.seq,
               spec.int8Weights, spec.seed, spec.strategy, config);
}

SparsifiedLayer
sparsifyLayer(const SparsifySpec &spec)
{
    if (const auto err = sparsifySpecError(spec))
        throw std::invalid_argument(*err);
    core::Matrix w = workload::synthWeights(
        *tryParseLayer(spec.layer, "cli.formats"), spec.seed,
        kSparsifyMaxRows);
    core::MaskRequest req;
    req.pattern = core::Pattern::TBS;
    req.strategy = spec.strategy;
    req.sparsity = spec.sparsity;
    req.m = static_cast<size_t>(spec.m);
    auto tbs = core::tryMakeMask(core::magnitudeScores(w), req);
    if (!tbs)
        throw std::invalid_argument(tbs.error().message);
    return {std::move(w), std::move(*tbs)};
}

SparsifyResult
executeSparsify(const SparsifySpec &spec)
{
    const SparsifiedLayer layer = sparsifyLayer(spec);
    const auto bytes = format::serializeDdc(layer.weights, layer.tbs.mask,
                                            layer.tbs.meta);
    SparsifyResult out;
    out.rows = layer.weights.rows();
    out.cols = layer.weights.cols();
    out.nnz = layer.tbs.mask.nnz();
    out.ddcBytes = bytes.size();
    out.ddcCrc32 = util::crc32(bytes);
    return out;
}

std::string
formatStats(const std::string &label, const sim::RunStats &s, bool csv)
{
    char buf[256];
    if (csv) {
        std::snprintf(buf, sizeof buf,
                      "%s,%.0f,%.6e,%.6e,%.6e,%.4f,%.4f\n",
                      label.c_str(), s.cycles, s.seconds,
                      s.energy.totalJ(), s.edp, s.computeUtilisation,
                      s.bwUtilisation);
        return buf;
    }
    std::snprintf(buf, sizeof buf,
                  "%-10s cycles=%.0f time=%.3f ms energy=%.3f mJ "
                  "EDP=%.4e computeUtil=%.1f%% bwUtil=%.1f%%\n",
                  label.c_str(), s.cycles, s.seconds * 1e3,
                  s.energy.totalJ() * 1e3, s.edp,
                  s.computeUtilisation * 100.0,
                  s.bwUtilisation * 100.0);
    return buf;
}

std::string
statsCsvHeader()
{
    return "accel,cycles,seconds,energyJ,edp,computeUtil,bwUtil\n";
}

} // namespace tbstc::serve
