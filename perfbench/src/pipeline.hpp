/**
 * @file
 * The traced pass's decomposition of a layer run: the same public
 * library calls that accel::runLayer and workload::buildLayerProfile
 * make, one at a time, each inside a span. Every decomposed result is
 * compared with the library's own, so the split describes the real
 * program.
 */

#ifndef PERFBENCH_PIPELINE_HPP
#define PERFBENCH_PIPELINE_HPP

#include "accel/accelerator.hpp"
#include "workload/profile_builder.hpp"

namespace perfbench {

/** The ProfileSpec accel::runLayer builds for (@p kind, @p req). */
tbstc::workload::ProfileSpec runLayerSpec(tbstc::accel::AccelKind kind,
                                          const tbstc::accel::RunRequest &req);

/**
 * workload::buildLayerProfile without the cache, one span per stage:
 * synth, scores, mask search, block tasks, encode. With
 * @p probeUsMask the unstructured top-k is timed once more on its own
 * as a probe span (tryMakeMask runs it internally).
 */
tbstc::sim::LayerProfile tracedProfile(const tbstc::workload::ProfileSpec &spec,
                                       bool probeUsMask = false);

/**
 * A decomposed layer run. The hit flags come from ContentStore
 * counter deltas around each call, so they are exact only when
 * nothing else uses the store concurrently (a pool of one).
 */
struct TracedLayer
{
    tbstc::sim::RunStats stats;
    tbstc::sim::LayerProfile profile;
    bool profileHit = false;
    bool simHit = false;
};

/**
 * accel::runLayer one call at a time. The profile is either
 * decomposed (tracedProfile) or fetched with buildLayerProfile.
 */
TracedLayer tracedRunLayer(tbstc::accel::AccelKind kind,
                                    const tbstc::accel::RunRequest &req,
                                    bool decomposeProfile,
                                    bool probeUsMask = false);

/** Field-by-field equality of two layer profiles. */
bool sameProfile(const tbstc::sim::LayerProfile &a,
                 const tbstc::sim::LayerProfile &b);

/** Unique-shape representatives of @p model, as accel::runModel groups them. */
struct LayerGroup
{
    tbstc::workload::GemmShape shape;
    double count = 0.0;
};
std::vector<LayerGroup> modelGroups(tbstc::workload::ModelId model,
                                    uint64_t seq);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HPP
