/**
 * @file
 * Accelerator facade: one entry point that runs a (model, pattern,
 * sparsity) workload on any of the paper's evaluated architectures.
 *
 * Every per-architecture fact (names, pattern, storage format,
 * independent-dimension support, hardware config) is one AccelSpec row
 * of the accelerator table, kAccels[] in accelerator.cpp; the lookup
 * functions below read it, and the CLI and daemon derive their name
 * lists from it (paper Sec. VII-A2 baselines).
 */

#ifndef TBSTC_ACCEL_ACCELERATOR_HPP
#define TBSTC_ACCEL_ACCELERATOR_HPP

#include <optional>
#include <span>
#include <string>

#include "sim/pipeline.hpp"
#include "workload/models.hpp"
#include "workload/profile_builder.hpp"

namespace tbstc::accel {

/** Evaluated accelerator architectures. */
enum class AccelKind : uint8_t
{
    TC,
    STC,
    Vegeta,
    HighLight,
    RmStc,
    Sgcn,
    TbStc,
    TbStcFan,
};

/** One architecture's row of the accelerator table. */
struct AccelSpec
{
    AccelKind kind;
    const char *name;     ///< Display name, as in the paper's figures.
    const char *wireName; ///< Lowercase CLI/daemon name ("tbstc").
    core::Pattern pattern;        ///< Pattern it natively expresses.
    format::StorageFormat format; ///< Storage format it consumes.
    bool independentDim = false; ///< Exploits independent-dim blocks.
    /** Part of `tbstc compare`'s baseline set (the FAN ablation is not). */
    bool compared = true;
    /**
     * Sparsity the datapath is hard-wired to, whatever the request
     * asks (STC's 4:8), unless a pattern override deploys another
     * model.
     */
    std::optional<double> fixedSparsity{};
    sim::ArchConfig config{}; ///< Paper defaults plus this row's changes.
};

/** Every row of the accelerator table, in AccelKind order. */
std::span<const AccelSpec> accelSpecs();

/** The row of @p kind. */
const AccelSpec &accelSpec(AccelKind kind);

/** Display name as used in the paper's figures. */
std::string accelName(AccelKind kind);

/** The sparsity pattern this architecture natively expresses. */
core::Pattern accelPattern(AccelKind kind);

/** The storage format this architecture consumes. */
format::StorageFormat accelFormat(AccelKind kind);

/** Hardware configuration (features, bandwidth, energy knobs). */
sim::ArchConfig accelConfig(AccelKind kind);

/** True when the datapath can exploit independent-dimension blocks. */
bool supportsIndependentDim(AccelKind kind);

/** One layer-run request. */
struct RunRequest
{
    workload::GemmShape shape;
    double sparsity = 0.5; ///< STC always clamps to its fixed 4:8.
    size_t m = 8;
    uint64_t seed = 42;
    bool int8Weights = false;

    /**
     * TBS mask-search strategy (core/mask_search.hpp): "greedy" or
     * "optimal"; empty = default greedy. Threaded into the
     * ProfileSpec, so it is a determining input of the cached layer
     * profile.
     */
    std::string maskStrategy;

    /**
     * Run a different pattern's pruned model on this hardware
     * (ablation Fig. 16(a) deploys the TBS model everywhere).
     * Unsupported independent-dimension blocks fall back to dense.
     */
    std::optional<core::Pattern> patternOverride;

    /** Architecture tweak hook (ablations); applied after accelConfig. */
    std::optional<sim::ArchConfig> configOverride;

    /** Storage-format override (e.g. dense activation GEMMs). */
    std::optional<format::StorageFormat> formatOverride;
};

/** Simulate one layer on @p kind. */
sim::RunStats runLayer(AccelKind kind, const RunRequest &req);

/**
 * Simulate a whole model (sum over modelLayers) on @p kind.
 * Identically shaped layers (ubiquitous in transformers) are
 * simulated once and scaled by their multiplicity. @p config, when
 * set, replaces accelConfig(kind) for every layer (RunRequest's
 * configOverride).
 */
sim::RunStats runModel(AccelKind kind, workload::ModelId model,
                       double sparsity, uint64_t seq = 128,
                       bool int8_weights = false, uint64_t seed = 42,
                       const std::string &maskStrategy = {},
                       const std::optional<sim::ArchConfig> &config = {});

/**
 * Simulate a full inference pass — weight GEMMs at the requested
 * sparsity plus the dense activation GEMMs (attention scores/context)
 * that weight pruning cannot touch (workload/graph.hpp). The honest
 * whole-network latency. @p config applies to both as in runModel().
 */
sim::RunStats runInference(AccelKind kind, workload::ModelId model,
                           double sparsity, uint64_t seq = 128,
                           bool int8_weights = false, uint64_t seed = 42,
                           const std::string &maskStrategy = {},
                           const std::optional<sim::ArchConfig> &config = {});

} // namespace tbstc::accel

#endif // TBSTC_ACCEL_ACCELERATOR_HPP
