#include "profile_builder.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/mask_search.hpp"
#include "core/sparsify.hpp"
#include "obs/obs.hpp"
#include "synth.hpp"
#include "util/contentstore.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace tbstc::workload {

using core::Mask;
using core::Matrix;
using core::Pattern;
using core::SparsityDim;
using core::TbsMeta;
using format::StorageFormat;
using sim::BlockTask;
using sim::LayerProfile;

namespace {

/** Set every element of block (br, bc), whole row words at a time. */
void
fillBlock(Mask &mask, size_t br, size_t bc, size_t m)
{
    for (size_t r = br * m; r < (br + 1) * m; ++r)
        for (size_t off = 0; off < m; off += 64)
            mask.setRowBits(r, bc * m + off, std::min<size_t>(64, m - off),
                            ~uint64_t{0});
}

} // namespace

core::TbsMeta
deriveMeta(const Mask &mask, size_t m)
{
    util::ensure(mask.rows() % m == 0 && mask.cols() % m == 0,
                 "deriveMeta requires block-divisible mask");
    TbsMeta meta;
    meta.m = m;
    meta.blockRows = mask.rows() / m;
    meta.blockCols = mask.cols() / m;
    meta.blocks.resize(meta.blockRows * meta.blockCols);
    for (size_t br = 0; br < meta.blockRows; ++br) {
        for (size_t bc = 0; bc < meta.blockCols; ++bc) {
            size_t max_row = 0;
            for (size_t r = 0; r < m; ++r)
                max_row = std::max(
                    max_row, mask.rangeNnz(br * m + r, bc * m, m));
            meta.block(br, bc) = {static_cast<uint8_t>(max_row),
                                  SparsityDim::Reduction};
        }
    }
    return meta;
}

namespace {

/**
 * Content key of one profile build. Every ProfileSpec field feeds the
 * hash (the build is a pure function of the spec), plus a schema tag
 * so a payload-layout change can never be misread by an older binary.
 */
uint64_t
profileCacheKey(const ProfileSpec &spec)
{
    util::Hasher h;
    // v2: maskStrategy joined the spec (and the "" default hashes
    // differently from any named strategy, so v1 keys can never alias).
    h.str("tbstc.cache.profile.v2");
    h.str(spec.shape.name);
    h.u64(spec.shape.x).u64(spec.shape.y).u64(spec.shape.nb);
    h.u64(static_cast<uint64_t>(spec.pattern));
    h.f64(spec.sparsity);
    h.u64(spec.m);
    h.str(spec.maskStrategy);
    h.u64(static_cast<uint64_t>(spec.fmt));
    h.u64(spec.densifyIndependent ? 1 : 0);
    h.u64(spec.seed);
    h.u64(spec.maxElements);
    return h.digest();
}

std::vector<uint8_t>
serializeProfile(const LayerProfile &p)
{
    util::ByteWriter w;
    w.u64(p.x);
    w.u64(p.y);
    w.u64(p.nb);
    w.u64(p.m);
    w.u64(p.aNnz);
    w.f64(p.sampleScale);
    w.u64(p.aStream.payloadBytes);
    w.u64(p.aStream.usefulBytes);
    w.u64(p.aStream.segments);
    w.u64(p.blocks.size());
    for (const BlockTask &b : p.blocks) {
        w.u16(b.nnz);
        w.u8(b.n);
        w.u8(b.independentDim ? 1 : 0);
        w.u8(b.nonemptyRows);
    }
    return w.bytes();
}

std::optional<LayerProfile>
deserializeProfile(std::span<const uint8_t> bytes)
{
    util::ByteReader r(bytes);
    LayerProfile p;
    p.x = r.u64();
    p.y = r.u64();
    p.nb = r.u64();
    p.m = r.u64();
    p.aNnz = r.u64();
    p.sampleScale = r.f64();
    p.aStream.payloadBytes = r.u64();
    p.aStream.usefulBytes = r.u64();
    p.aStream.segments = r.u64();
    const uint64_t blocks = r.u64();
    if (!r.ok() || blocks > bytes.size()) // Each block is >= 1 byte.
        return std::nullopt;
    p.blocks.resize(blocks);
    for (auto &b : p.blocks) {
        b.nnz = r.u16();
        b.n = r.u8();
        b.independentDim = r.u8() != 0;
        b.nonemptyRows = r.u8();
    }
    if (!r.done())
        return std::nullopt;
    return p;
}

/** Host-domain cache telemetry (hit patterns are schedule-dependent). */
void
countProfileCache(util::CacheOutcome outcome)
{
    if (!obs::metricsEnabled())
        return;
    static const obs::Counter hits =
        obs::counter("cache.profile.hits", obs::Domain::Host);
    static const obs::Counter disk_hits =
        obs::counter("cache.profile.disk_hits", obs::Domain::Host);
    static const obs::Counter misses =
        obs::counter("cache.profile.misses", obs::Domain::Host);
    switch (outcome) {
      case util::CacheOutcome::MemoryHit: hits.add(); break;
      case util::CacheOutcome::DiskHit:   disk_hits.add(); break;
      case util::CacheOutcome::Computed:  misses.add(); break;
      case util::CacheOutcome::Disabled:  break;
    }
}

LayerProfile buildLayerProfileUncached(const ProfileSpec &spec);

} // namespace

LayerProfile
buildLayerProfile(const ProfileSpec &spec)
{
    util::ContentStore &store = util::ContentStore::instance();
    if (!store.enabled())
        return buildLayerProfileUncached(spec);
    const uint64_t key = profileCacheKey(spec);
    auto [bytes, outcome] = store.getOrCompute(
        "profile", key,
        [&] { return serializeProfile(buildLayerProfileUncached(spec)); });
    countProfileCache(outcome);
    if (auto profile = deserializeProfile(bytes))
        return std::move(*profile);
    // Defensive: an undecodable payload (e.g. a hash collision across
    // schema revisions) falls back to a fresh build.
    util::warn("profile cache payload undecodable; rebuilding");
    return buildLayerProfileUncached(spec);
}

namespace {

LayerProfile
buildLayerProfileUncached(const ProfileSpec &spec)
{
    const size_t m = spec.m;
    const GemmShape &shape = spec.shape;

    // Row-sample huge layers on the block grid.
    uint64_t rows = shape.x;
    if (spec.maxElements > 0 && shape.x * shape.y > spec.maxElements) {
        rows = std::max<uint64_t>(m,
                                  spec.maxElements / shape.y / m * m);
    }
    const double scale =
        static_cast<double>(shape.x) / static_cast<double>(rows);

    // Only |w| is needed downstream (the stream profile comes from
    // counts), so the weights become their magnitude scores in place.
    Matrix scores = synthWeights(shape, spec.seed, rows);
    {
        static const obs::Stage stage("workload.abs");
        const obs::ScopedStage timed(stage);
        const std::span<float> data = scores.data();
        util::parallelFor(data.size(), 0, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                data[i] = std::fabs(data[i]);
        });
    }
    const std::vector<uint8_t> cand = core::defaultCandidates(m);

    Mask mask;
    TbsMeta meta;
    if (spec.pattern == Pattern::TBS) {
        core::MaskRequest req;
        req.pattern = Pattern::TBS;
        req.strategy = spec.maskStrategy;
        req.sparsity = spec.sparsity;
        req.m = m;
        req.candidates = cand;
        auto res = core::tryMakeMask(scores, req);
        if (!res)
            util::fatal("mask search failed: {}", res.error().message);
        mask = std::move(res->mask);
        meta = std::move(res->meta);
    } else {
        if (!core::isMaskStrategy(spec.maskStrategy))
            util::fatal("unknown mask strategy \"{}\"",
                        spec.maskStrategy);
        mask = core::patternMask(spec.pattern, scores, spec.sparsity, m,
                                 cand);
        meta = deriveMeta(mask, m);
    }
    scores = Matrix(); // Nothing below reads |w|; free it early.

    LayerProfile profile;
    profile.x = shape.x;
    profile.y = shape.y;
    profile.nb = shape.nb;
    profile.m = m;
    profile.sampleScale = scale;
    {
        static const obs::Stage stage("workload.blockTasks");
        const obs::ScopedStage timed(stage);
        if (spec.densifyIndependent) {
            // Hardware without codec/MBD support cannot exploit (or
            // even index) independent-dimension blocks; they fall back
            // to dense.
            for (size_t br = 0; br < meta.blockRows; ++br) {
                for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                    auto &info = meta.block(br, bc);
                    if (info.dim == SparsityDim::Independent
                        && info.n > 0 && info.n < m) {
                        info = {static_cast<uint8_t>(m),
                                SparsityDim::Reduction};
                        fillBlock(mask, br, bc, m);
                    }
                }
            }
        }
        profile.aNnz = mask.nnz();
        // Per-block task derivation only reads the (frozen) mask and
        // writes its own slot — scan blocks in parallel.
        profile.blocks.resize(meta.blocks.size());
        util::parallelFor(
            meta.blocks.size(), 0, [&](size_t begin, size_t end) {
            for (size_t u = begin; u < end; ++u) {
                const size_t br = u / meta.blockCols;
                const size_t bc = u % meta.blockCols;
                const auto &info = meta.block(br, bc);
                BlockTask task;
                size_t nnz = 0;
                size_t nonempty = 0;
                for (size_t r = 0; r < m; ++r) {
                    const size_t row_nnz =
                        mask.rangeNnz(br * m + r, bc * m, m);
                    nnz += row_nnz;
                    nonempty += row_nnz > 0;
                }
                task.nnz = static_cast<uint16_t>(nnz);
                task.n = info.n;
                task.nonemptyRows = static_cast<uint8_t>(nonempty);
                task.independentDim = info.dim == SparsityDim::Independent
                    && info.n > 0 && info.n < m;
                profile.blocks[u] = task;
            }
        });
    }

    static const obs::Stage stage("format.streamProfile");
    const obs::ScopedStage timed(stage);
    profile.aStream = format::streamProfile(spec.fmt, mask, meta, m);
    return profile;
}

} // namespace

} // namespace tbstc::workload
