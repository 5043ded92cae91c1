/**
 * @file
 * Request execution shared by the one-shot CLI and the serve daemon.
 *
 * The daemon's acceptance bar is byte-identical responses: a `run`
 * request answered by `tbstc serve` must produce exactly the bytes the
 * one-shot `tbstc run` would print for the same parameters. The only
 * robust way to guarantee that is to have both call the same code, so
 * the CLI's former runOne/printStats logic lives here and both paths
 * delegate: the CLI parses flags into a RunSpec and prints
 * formatStats(); the daemon parses a JSON request into the same
 * RunSpec and embeds formatStats() in the response.
 *
 * Parsing helpers return std::optional instead of exiting, so the
 * daemon can answer a bad request with a structured error while the
 * CLI turns nullopt into its usual exit-2 diagnostic.
 */

#ifndef TBSTC_SERVE_EXEC_HPP
#define TBSTC_SERVE_EXEC_HPP

#include <optional>
#include <string>

#include "accel/accelerator.hpp"
#include "core/mask_search.hpp"
#include "sim/pipeline.hpp"
#include "workload/models.hpp"

namespace tbstc::serve {

/** One simulate-this request, CLI flags and JSON fields alike. */
struct RunSpec
{
    accel::AccelKind kind = accel::AccelKind::TbStc;
    std::string model;      ///< Model name; empty when layer is set.
    std::string layer;      ///< "XxYxNB" layer spec; empty for model.
    double sparsity = 0.5;
    uint64_t seq = 128;
    uint64_t seed = 42;
    bool int8Weights = false;
    bool full = false;            ///< Include dense attention GEMMs.
    std::optional<double> bw;     ///< Off-chip bandwidth override.

    /**
     * TBS mask-search strategy ("greedy" or "optimal"). Empty =
     * default greedy, which keeps the wire bytes and responses of
     * strategy-less requests unchanged.
     */
    std::string strategy;
};

/** One sparsify-this request (the `formats` pipeline's front half). */
struct SparsifySpec
{
    std::string layer = "512x512x1"; ///< "XxYxNB" weight shape.
    double sparsity = 0.75;
    uint64_t seed = 42;
    uint64_t m = 8;
    std::string strategy; ///< Mask-search strategy; empty = greedy.
};

/** Result of a sparsify execution (summary; values stay server-side). */
struct SparsifyResult
{
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t nnz = 0;       ///< Kept weights under the TBS mask.
    uint64_t ddcBytes = 0;  ///< serializeDdc() stream size.
    uint32_t ddcCrc32 = 0;  ///< CRC-32 of the stream (zlib-compatible).
};

/** Accelerator name -> kind ("tbstc", "stc", ...); nullopt unknown. */
std::optional<accel::AccelKind> tryParseAccel(const std::string &name);

/** Kind -> the lowercase wire/CLI name tryParseAccel accepts. */
std::string accelWireName(accel::AccelKind kind);

/** Model name -> id ("bert", "opt", ...); nullopt when unknown. */
std::optional<workload::ModelId> tryParseModel(const std::string &name);

/** "XxYxNB" -> shape (named @p name); nullopt when malformed. */
std::optional<workload::GemmShape>
tryParseLayer(const std::string &spec, const std::string &name);

/**
 * Why @p spec is not a valid run request, or nullopt when it is: the
 * one rule set of `tbstc run` (exit 2), the daemon (bad_request) and
 * executeRun() (throws). A model that parses or a layer that parses,
 * has at most 2^40 MACs (x*y*nb) and tiles into the accelerators'
 * 8x8 blocks; sparsity in [0, 1);
 * bw > 0 when set; a known mask strategy.
 */
std::optional<std::string> runSpecError(const RunSpec &spec);

/**
 * Why @p spec is not a valid sparsify request, or nullopt when it is
 * (`tbstc formats`, the daemon and executeSparsify() alike): a layer
 * of at most 2^40 MACs whose row-capped weights tile into m x m
 * blocks; sparsity in
 * [0, 1); m in [1, 64]; a known mask strategy.
 */
std::optional<std::string> sparsifySpecError(const SparsifySpec &spec);

/**
 * Execute a run request: one layer, a model's weight GEMMs, or a full
 * inference pass, exactly as `tbstc run` would; bw replaces the
 * accelerator's off-chip bandwidth in each. Throws
 * std::invalid_argument on a spec runSpecError() rejects.
 */
sim::RunStats executeRun(const RunSpec &spec);

/** A sparsify request's weights and their TBS mask. */
struct SparsifiedLayer
{
    core::Matrix weights; ///< Synthesized, rows capped at 4096.
    core::MaskOutput tbs;
};

/**
 * Synthesize @p spec's weights and run Algorithm 1 on them: the front
 * half `tbstc formats` and executeSparsify() share. Throws
 * std::invalid_argument on a spec sparsifySpecError() rejects.
 */
SparsifiedLayer sparsifyLayer(const SparsifySpec &spec);

/**
 * Execute a sparsify request: sparsifyLayer(), then serialize the DDC2
 * stream and summarize it. ddcCrc32 equals the CRC of the file
 * `tbstc formats --dump` writes for the same spec.
 */
SparsifyResult executeSparsify(const SparsifySpec &spec);

/**
 * Render @p s as `tbstc run` prints it: the human line or the CSV
 * line (both newline-terminated). Byte-identical to the one-shot
 * output for the same stats.
 */
std::string formatStats(const std::string &label, const sim::RunStats &s,
                        bool csv);

/** The CSV header line `tbstc run --csv` prints before the row. */
std::string statsCsvHeader();

} // namespace tbstc::serve

#endif // TBSTC_SERVE_EXEC_HPP
