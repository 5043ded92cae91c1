/**
 * @file
 * Alg. 1 step 1 (usMask), the statistics of a TBS search, and the
 * structural validators of each pattern family.
 *
 * The per-family generators, including the paper's Algorithm 1 (TBS
 * sparsification), are internal to sparsify.cpp and sit behind the
 * pattern table (pattern_table.hpp). Make masks with tryMakeMask()
 * (mask_search.hpp).
 *
 * Matrix dimensions must tile by the block size M; hardware (and our
 * workload layer) pads shapes to the block grid, exactly as real
 * tensor-core kernels do.
 */

#ifndef TBSTC_CORE_SPARSIFY_HPP
#define TBSTC_CORE_SPARSIFY_HPP

#include "matrix.hpp"
#include "pattern.hpp"

namespace tbstc::core {

/**
 * Unstructured mask: keep the global top-k scores (Alg. 1 step 1).
 * Ties break toward the lower flat index.
 */
Mask usMask(const Matrix &scores, double sparsity);

/**
 * Statistics of one TBS mask search. The greedy mapper only fills
 * `blocks`; the optimal solver reports how much of its extra work paid
 * off, which the mask-search bench turns into its quality-vs-cost
 * table.
 */
struct TbsSearchStats
{
    size_t blocks = 0;        ///< M x M blocks examined.
    /** Blocks whose L1 distance to the US mask beat greedy's choice. */
    size_t improvedBlocks = 0;
    /** Blocks whose final mask meets the N cap in *both* directions. */
    size_t transposableBlocks = 0;
    /** Augmenting paths that re-routed the doubly-constrained core. */
    size_t augmentations = 0;
};

/**
 * Verify the structural invariant of a TBS mask against its metadata:
 * every block group (row or column per its dim) has at most N non-zeros.
 * @return true when the mask is a valid TBS mask.
 */
bool validateTbs(const Mask &mask, const TbsMeta &meta);

/** Verify a tile-wise N:M constraint over all row tiles. */
bool validateTs(const Mask &mask, size_t n, size_t m);

/**
 * Verify the SlideSparse invariant: m is even and >= 4, columns tile
 * by m, and every aligned m-element row tile keeps at most m-2
 * elements.
 */
bool validateSlideSparse(const Mask &mask, size_t m);

} // namespace tbstc::core

#endif // TBSTC_CORE_SPARSIFY_HPP
