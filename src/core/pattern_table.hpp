/**
 * @file
 * The pattern table: one PatternSpec row per Pattern family, holding
 * every per-family fact the library needs. patternName(),
 * log2MaskSpace(), patternMask() and tryMakeMask() all read it, so a
 * new family is one row (plus its generator in sparsify.cpp).
 *
 * Internal to src/core: callers make masks through tryMakeMask()
 * (mask_search.hpp).
 */

#ifndef TBSTC_CORE_PATTERN_TABLE_HPP
#define TBSTC_CORE_PATTERN_TABLE_HPP

#include <span>
#include <vector>

#include "matrix.hpp"
#include "pattern.hpp"

namespace tbstc::core {

struct MaskOutput;

/**
 * One generator call. Alg. 1 step 1 (the unstructured top-k) has
 * already run when the family needs it, so no generator repeats it.
 */
struct MaskJob
{
    const Matrix &scores;
    double sparsity;
    size_t m;
    std::span<const uint8_t> candidates; ///< The family's N ladder.
    const Mask &us;  ///< Step-1 mask; empty unless step1 == Step1::Mask.
    size_t target;   ///< targetNnz(scores.size(), sparsity).
    bool optimal;    ///< TBS step 3: the optimal solver, not greedy.
};

/** What a family needs of Alg. 1 step 1. */
enum class Step1 : uint8_t
{
    None,     ///< Dense: its distance to step 1 is size - target.
    Distance, ///< TS: only MaskOutput::usHamming reads it.
    Mask,     ///< The generator starts from the step-1 mask.
};

/** One family's row of the pattern table. */
struct PatternSpec
{
    const char *name; ///< As in the paper's tables.
    bool blocks;      ///< Rows tile by m too (M x M blocks).
    /** m must be even and >= 4: SlideSparse's m = 2N, ladder 0..m-2. */
    bool evenM;
    /**
     * Largest m: the N ladder's top rung (m, or m - 2 for SS) and
     * BlockInfo::n are bytes.
     */
    size_t maxM;
    Step1 step1;
    /**
     * Fixed N ladder of the family, ignoring the request's candidates;
     * null means the request's candidates, defaulting to
     * defaultCandidates(m).
     */
    std::vector<uint8_t> (*ladder)(size_t m);
    double (*log2MaskSpace)(size_t x, size_t y, size_t m);
    /** Fill out.mask (and, for TBS, out.meta and out.stats). */
    void (*generate)(const MaskJob &job, MaskOutput &out);
};

/** The row of @p p. */
const PatternSpec &patternSpec(Pattern p);

/** Kept elements of a @p total-element mask at @p sparsity. */
size_t targetNnz(size_t total, double sparsity);

} // namespace tbstc::core

#endif // TBSTC_CORE_PATTERN_TABLE_HPP
