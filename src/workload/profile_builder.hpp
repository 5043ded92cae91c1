/**
 * @file
 * Builds block-granular simulator profiles from real masks + encodings.
 *
 * This is the bridge between the algorithm side (patterns, masks) and
 * the hardware side (LayerProfile): weights are synthesized, the
 * requested pattern's mask generated from their magnitudes, and the
 * result reduced to per-block tasks plus the requested storage
 * format's stream profile (format::streamProfile, computed from the
 * mask's counts — no encoding is materialized). Layers too large to materialize are row-sampled on the
 * block grid and linearly rescaled (documented in DESIGN.md).
 */

#ifndef TBSTC_WORKLOAD_PROFILE_BUILDER_HPP
#define TBSTC_WORKLOAD_PROFILE_BUILDER_HPP

#include <string>

#include "core/pattern.hpp"
#include "format/encoding.hpp"
#include "models.hpp"
#include "sim/profile.hpp"

namespace tbstc::workload {

/** Everything that determines one layer profile. */
struct ProfileSpec
{
    GemmShape shape;
    core::Pattern pattern = core::Pattern::TBS;
    double sparsity = 0.5;
    size_t m = 8;

    /**
     * TBS mask-search strategy (core/mask_search.hpp registry name);
     * empty = the default ("greedy"). A determining input of the
     * profile: it feeds the cache key, so a cached greedy profile can
     * never answer an optimal-strategy request.
     */
    std::string maskStrategy;

    format::StorageFormat fmt = format::StorageFormat::DDC;

    /**
     * Treat independent-dimension blocks as dense (the fallback of
     * hardware lacking the codec/MBD units; paper Fig. 16(a)).
     */
    bool densifyIndependent = false;

    uint64_t seed = 42;

    /** Row-sampling cap on materialized elements (0 = unlimited). */
    uint64_t maxElements = 1ull << 23;
};

/** Build the simulator profile for @p spec. */
sim::LayerProfile buildLayerProfile(const ProfileSpec &spec);

/**
 * Derive TBS-style block metadata for a mask produced by a
 * non-transposable pattern: every block is reduction-dimension with
 * N set to its maximum row-group occupancy.
 */
core::TbsMeta deriveMeta(const core::Mask &mask, size_t m);

} // namespace tbstc::workload

#endif // TBSTC_WORKLOAD_PROFILE_BUILDER_HPP
