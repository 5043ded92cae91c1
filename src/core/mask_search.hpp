/**
 * @file
 * The mask-making entry point.
 *
 * tryMakeMask() is the one way to produce a sparsity mask: it
 * validates a MaskRequest against the family's row of the pattern
 * table (pattern_table.hpp), runs Alg. 1 step 1 (the unstructured
 * top-k) once, and hands it to the family's generator. TBS has a
 * closed set of two search strategies:
 *
 *   "greedy"  — paper Algorithm 1: per block, rank-table top-N in each
 *               direction, keep the direction with the smaller L1
 *               distance to the unstructured mask. The default.
 *   "optimal" — TSENOR-style solver: per block, the exact L1 optimum
 *               under the <=N constraint, with a Hungarian-style
 *               b-matching core. Never worse than greedy on any block;
 *               may undershoot the target nnz.
 *
 * Following the try*-primary convention (see serialize.hpp), the
 * function never throws for bad requests: it returns
 * Result<MaskOutput, MaskError> with a machine-readable error kind.
 */

#ifndef TBSTC_CORE_MASK_SEARCH_HPP
#define TBSTC_CORE_MASK_SEARCH_HPP

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "matrix.hpp"
#include "pattern.hpp"
#include "sparsify.hpp"
#include "util/result.hpp"

namespace tbstc::core {

/** Names of the two TBS search strategies. */
inline constexpr const char *kGreedyStrategy = "greedy";
inline constexpr const char *kOptimalStrategy = "optimal";

/**
 * One mask request. `strategy` selects the TBS search strategy; the
 * empty string means the default ("greedy"). Known strategies are
 * accepted (and ignored) for non-TBS patterns, which each have a
 * single generator; an unknown strategy is always an error, so a typo
 * can never silently fall back to greedy. Empty `candidates` means
 * defaultCandidates(m).
 */
struct MaskRequest
{
    Pattern pattern = Pattern::TBS;
    std::string strategy;
    double sparsity = 0.5;
    size_t m = 8;
    std::vector<uint8_t> candidates;
};

/**
 * A produced mask plus everything the search learned on the way.
 * `meta` carries the per-block (N, dim) grid for TBS and is an empty
 * grid (blocks.empty()) for the other families; `usHamming` is the L1
 * distance to the same-sparsity unstructured mask for every family;
 * `stats` is filled by TBS strategies (greedy only reports blocks).
 */
struct MaskOutput
{
    Mask mask;
    TbsMeta meta;
    size_t usHamming = 0;
    TbsSearchStats stats;
};

/** Machine-readable class of a rejected MaskRequest. */
enum class MaskErrorKind : uint8_t
{
    UnknownStrategy, ///< Neither "greedy" nor "optimal" (nor "").
    BadSparsity,     ///< Sparsity outside [0, 1].
    BadBlockSize,    ///< m == 0, or illegal for the pattern (SS).
    NotDivisible,    ///< Matrix does not tile by m as the pattern needs.
    BadCandidates,   ///< A candidate N exceeds m.
};

/** Stable name of a MaskErrorKind ("unknown_strategy", ...). */
const char *maskErrorKindName(MaskErrorKind kind);

/** Why a MaskRequest was rejected. */
struct MaskError
{
    MaskErrorKind kind = MaskErrorKind::UnknownStrategy;
    std::string message;
};

/** Whether @p name is a strategy: "", "greedy" or "optimal". */
bool isMaskStrategy(std::string_view name);

/**
 * The one spelling of @p name: "greedy" becomes "" (the default), so
 * both build, key and batch as the same request. Other names pass
 * through unchanged.
 */
std::string canonicalMaskStrategy(std::string_view name);

/**
 * Validate @p req and produce the mask. See the file comment for the
 * dispatch semantics; errors come back as a MaskError instead of a
 * thrown FatalError.
 */
util::Result<MaskOutput, MaskError> tryMakeMask(const Matrix &scores,
                                                const MaskRequest &req);

/**
 * The mask alone, with the default strategy: tryMakeMask without the
 * usHamming step (so TS runs no step 1). Throws FatalError where
 * tryMakeMask would return an error.
 */
Mask patternMask(Pattern p, const Matrix &scores, double sparsity,
                 size_t m, std::span<const uint8_t> candidates);

} // namespace tbstc::core

#endif // TBSTC_CORE_MASK_SEARCH_HPP
