/**
 * @file
 * Synthetic weight/activation generation.
 *
 * The paper profiles pruned checkpoints of public models; we cannot
 * ship weights, so each layer's weights are drawn from a heavy-tailed
 * Gaussian scale mixture — the magnitude distribution regime in which
 * magnitude-based mask selection behaves like it does on trained DNNs
 * (most weights small, a minority dominant). Generation is keyed by
 * (layer name, seed) so every bench sees identical matrices.
 */

#ifndef TBSTC_WORKLOAD_SYNTH_HPP
#define TBSTC_WORKLOAD_SYNTH_HPP

#include <string>

#include "core/matrix.hpp"
#include "models.hpp"
#include "util/rng.hpp"

namespace tbstc::workload {

/** Deterministic 64-bit hash of a string (FNV-1a). */
uint64_t nameHash(const std::string &name);

/**
 * Synthesize weights for @p shape (rows = x, cols = y), optionally
 * row-sampled to at most @p max_rows rows (0 = no cap).
 */
core::Matrix synthWeights(const GemmShape &shape, uint64_t seed,
                          uint64_t max_rows = 0);

/**
 * synthWeights' generator on an explicit stream: draws a rows x cols
 * matrix from @p rng exactly as synthWeights draws from its seeded
 * one. The rows are split into @p chunks ranges of whole 8-row blocks;
 * a serial pass walks the stream's words to checkpoint each range's
 * start, then the ranges are transformed in parallel. The result is
 * identical for every @p chunks >= 1 (1 is the plain serial walk).
 * Exposed so tests can drive rare stream events (a Box-Muller u1
 * rejection) from a crafted generator state.
 */
core::Matrix synthFromStream(util::Rng rng, uint64_t rows, uint64_t cols,
                             size_t chunks);

/** Synthesize a calibration activation batch (samples x features). */
core::Matrix synthActivations(uint64_t samples, uint64_t features,
                              uint64_t seed);

} // namespace tbstc::workload

#endif // TBSTC_WORKLOAD_SYNTH_HPP
