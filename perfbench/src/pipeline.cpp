#include "pipeline.hpp"

#include <map>
#include <stdexcept>
#include <tuple>

#include "core/mask_search.hpp"
#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "spans.hpp"
#include "util/contentstore.hpp"
#include "util/parallel.hpp"
#include "workload/synth.hpp"

namespace perfbench {

using namespace tbstc;
using core::Pattern;
using core::SparsityDim;
using format::StorageFormat;

workload::ProfileSpec
runLayerSpec(accel::AccelKind kind, const accel::RunRequest &req)
{
    // Mirrors accel::runLayer (src/accel/accelerator.cpp).
    const Pattern pattern =
        req.patternOverride.value_or(accel::accelPattern(kind));
    workload::ProfileSpec spec;
    spec.shape = req.shape;
    spec.pattern = pattern;
    spec.sparsity = kind == accel::AccelKind::STC && !req.patternOverride
        ? 0.5
        : req.sparsity;
    spec.m = req.m;
    spec.maskStrategy = req.maskStrategy;
    spec.fmt = req.formatOverride.value_or(accel::accelFormat(kind));
    spec.densifyIndependent = pattern == Pattern::TBS
        && !accel::supportsIndependentDim(kind)
        && accel::accelPattern(kind) != Pattern::US;
    spec.seed = req.seed;
    return spec;
}

namespace {

std::unique_ptr<format::Encoding>
encode(StorageFormat fmt, const core::Matrix &w, const core::Mask &mask,
       const core::TbsMeta &meta)
{
    switch (fmt) {
      case StorageFormat::Dense:  return format::encodeDense(w);
      case StorageFormat::SDC:    return format::encodeSdc(w, mask);
      case StorageFormat::CSR:    return format::encodeCsr(w, mask);
      case StorageFormat::DDC:    return format::encodeDdc(w, mask, meta);
      case StorageFormat::Bitmap: return format::encodeBitmap(w, mask);
    }
    throw std::logic_error("unknown storage format");
}

/** Densify fallback plus per-block task derivation of the profile builder. */
sim::LayerProfile
blockTasks(const workload::ProfileSpec &spec, uint64_t rows, core::Mask &mask,
           core::TbsMeta &meta)
{
    const size_t m = spec.m;
    const workload::GemmShape &shape = spec.shape;
    if (spec.densifyIndependent) {
        for (size_t br = 0; br < meta.blockRows; ++br) {
            for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                auto &info = meta.block(br, bc);
                if (info.dim == SparsityDim::Independent && info.n > 0
                    && info.n < m) {
                    info = {static_cast<uint8_t>(m), SparsityDim::Reduction};
                    for (size_t r = 0; r < m; ++r)
                        for (size_t c = 0; c < m; ++c)
                            mask.at(br * m + r, bc * m + c) = 1;
                }
            }
        }
    }
    sim::LayerProfile profile;
    profile.x = shape.x;
    profile.y = shape.y;
    profile.nb = shape.nb;
    profile.m = m;
    profile.sampleScale =
        static_cast<double>(shape.x) / static_cast<double>(rows);
    profile.aNnz = mask.nnz();
    profile.blocks.resize(meta.blocks.size());
    util::parallelFor(meta.blocks.size(), 0, [&](size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
            const size_t br = u / meta.blockCols;
            const size_t bc = u % meta.blockCols;
            const auto &info = meta.block(br, bc);
            sim::BlockTask task;
            size_t nnz = 0;
            size_t nonempty = 0;
            for (size_t r = 0; r < m; ++r) {
                size_t rowNnz = 0;
                for (size_t c = 0; c < m; ++c)
                    rowNnz += mask.at(br * m + r, bc * m + c);
                nnz += rowNnz;
                nonempty += rowNnz > 0;
            }
            task.nnz = static_cast<uint16_t>(nnz);
            task.n = info.n;
            task.nonemptyRows = static_cast<uint8_t>(nonempty);
            task.independentDim = info.dim == SparsityDim::Independent
                && info.n > 0 && info.n < m;
            profile.blocks[u] = task;
        }
    });
    return profile;
}

} // namespace

sim::LayerProfile
tracedProfile(const workload::ProfileSpec &spec, bool probeUsMask)
{
    // Mirrors buildLayerProfileUncached (src/workload/profile_builder.cpp).
    const Span whole("workload.buildLayerProfile");
    const size_t m = spec.m;
    const workload::GemmShape &shape = spec.shape;
    uint64_t rows = shape.x;
    if (spec.maxElements > 0 && shape.x * shape.y > spec.maxElements)
        rows = std::max<uint64_t>(m, spec.maxElements / shape.y / m * m);

    core::Matrix w;
    {
        const Span s("workload.synthWeights");
        w = workload::synthWeights(shape, spec.seed, rows);
    }
    core::Matrix scores;
    {
        const Span s("core.magnitudeScores");
        scores = core::magnitudeScores(w);
    }
    const std::vector<uint8_t> cand = core::defaultCandidates(m);

    core::Mask mask;
    core::TbsMeta meta;
    if (spec.pattern == Pattern::TBS) {
        core::MaskRequest req;
        req.pattern = Pattern::TBS;
        req.strategy = spec.maskStrategy;
        req.sparsity = spec.sparsity;
        req.m = m;
        req.candidates = cand;
        const Span s(spec.maskStrategy == core::kOptimalStrategy
                         ? "core.tryMakeMask.optimal"
                         : "core.tryMakeMask");
        auto res = core::tryMakeMask(scores, req);
        if (!res)
            throw std::runtime_error(res.error().message);
        mask = std::move(res->mask);
        meta = std::move(res->meta);
    } else {
        {
            const Span s("core.patternMask." + core::patternName(spec.pattern));
            mask = core::patternMask(spec.pattern, scores, spec.sparsity, m,
                                     cand);
        }
        const Span s("workload.deriveMeta");
        meta = workload::deriveMeta(mask, m);
    }
    if (probeUsMask && spec.pattern == Pattern::TBS) {
        const Span s("core.usMask", Probe{});
        (void)core::usMask(scores, spec.sparsity);
    }

    sim::LayerProfile profile;
    {
        const Span s("workload.blockTasks");
        profile = blockTasks(spec, rows, mask, meta);
    }
    const Span s("format.encode." + format::formatName(spec.fmt));
    profile.aStream = encode(spec.fmt, w, mask, meta)->streamProfile(m);
    return profile;
}

TracedLayer
tracedRunLayer(accel::AccelKind kind, const accel::RunRequest &req,
               bool decomposeProfile, bool probeUsMask)
{
    // Mirrors accel::runLayer.
    const Span whole("accel.runLayer");
    const workload::ProfileSpec spec = runLayerSpec(kind, req);
    const sim::ArchConfig cfg =
        req.configOverride.value_or(accel::accelConfig(kind));
    const util::ThreadScope threads(cfg.hostThreads);
    util::ContentStore &store = util::ContentStore::instance();
    TracedLayer out;
    auto before = store.stats();
    if (decomposeProfile) {
        out.profile = tracedProfile(spec, probeUsMask);
    } else {
        const Span s("workload.buildLayerProfile");
        out.profile = workload::buildLayerProfile(spec);
    }
    auto after = store.stats();
    out.profileHit = after.memoryHits > before.memoryHits;
    sim::RunOptions opts;
    opts.int8Weights = req.int8Weights;
    {
        const Span s("sim.simulateLayer");
        out.stats =
            sim::simulateLayer(out.profile, cfg, sim::EnergyParams{}, opts);
    }
    before = after;
    after = store.stats();
    out.simHit = after.memoryHits > before.memoryHits;
    return out;
}

bool
sameProfile(const sim::LayerProfile &a, const sim::LayerProfile &b)
{
    if (a.x != b.x || a.y != b.y || a.nb != b.nb || a.m != b.m
        || a.aNnz != b.aNnz || a.sampleScale != b.sampleScale
        || a.aStream.payloadBytes != b.aStream.payloadBytes
        || a.aStream.usefulBytes != b.aStream.usefulBytes
        || a.aStream.segments != b.aStream.segments
        || a.blocks.size() != b.blocks.size())
        return false;
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        const sim::BlockTask &x = a.blocks[i];
        const sim::BlockTask &y = b.blocks[i];
        if (x.nnz != y.nnz || x.n != y.n
            || x.independentDim != y.independentDim
            || x.nonemptyRows != y.nonemptyRows)
            return false;
    }
    return true;
}

std::vector<LayerGroup>
modelGroups(workload::ModelId model, uint64_t seq)
{
    // Mirrors accel::runModel's grouping: the first layer of each
    // shape represents all of them, in sorted-shape order.
    std::map<std::tuple<uint64_t, uint64_t, uint64_t>, LayerGroup> groups;
    for (const auto &shape : workload::modelLayers(model, seq)) {
        auto [it, inserted] = groups.try_emplace(
            std::make_tuple(shape.x, shape.y, shape.nb),
            LayerGroup{shape, 0.0});
        it->second.count += 1.0;
    }
    std::vector<LayerGroup> out;
    for (const auto &[key, g] : groups)
        out.push_back(g);
    return out;
}

} // namespace perfbench
