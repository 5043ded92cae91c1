/**
 * @file
 * Mask-space (representation-space) analysis, paper Sec. III-A2.
 *
 * Mask-space counts the masks a sparsity pattern can express on an
 * X x Y matrix at sparsity granularity M (paper Eqs. (1)-(4)). Counts
 * are astronomically large, so everything is computed and returned in
 * log2. Brute-force enumerators over tiny matrices are provided so
 * tests can validate the closed forms.
 */

#ifndef TBSTC_CORE_MASKSPACE_HPP
#define TBSTC_CORE_MASKSPACE_HPP

#include <cstdint>

#include "pattern.hpp"

namespace tbstc::core {

/**
 * log2 mask-space of tile-wise N:M (paper Eq. (1)):
 *   MS_TS = sum_{i=0}^{k} C(M, 2^i)^(X*Y/M),   k = log2 M.
 * All tiles share one N drawn from the power-of-two ladder.
 */
double log2MaskSpaceTs(size_t x, size_t y, size_t m);

/**
 * log2 mask-space of row-wise N:M with per-row N (paper Eq. (2)):
 *   MS_RS-V = [ sum_{i=0}^{k} C(M, 2^i)^(Y/M) ]^X.
 */
double log2MaskSpaceRsv(size_t x, size_t y, size_t m);

/**
 * log2 mask-space of hierarchical row-wise N:M (paper Eq. (3)):
 *   MS_RS-H = sum_{i=M}^{2M-1} [ (C(i,M) * C(M,M/2)^M)^(X*Y/(i*M))
 *                                + 2 * C(i,M)^(X*Y/(i*M)) ].
 */
double log2MaskSpaceRsh(size_t x, size_t y, size_t m);

/**
 * log2 mask-space of transposable block-wise N:M (paper Eq. (4)):
 *   MS_TBS = [ sum_{i=0}^{k} 2 * C(M, 2^i)^M ]^(X*Y/M^2).
 * Each block independently chooses N and one of two directions.
 */
double log2MaskSpaceTbs(size_t x, size_t y, size_t m);

/** log2 mask-space of unstructured sparsity: all 2^(X*Y) masks. */
double log2MaskSpaceUs(size_t x, size_t y);

/**
 * log2 mask-space of SlideSparse (2N-2):2N with m = 2N: every
 * m-element tile independently takes any mask with at most m-2 kept
 * elements, so
 *   MS_SS = (2^M - M - 1)^(X*Y/M)
 * (all 2^M tile masks minus the one M-dense and the M masks with M-1
 * kept).
 */
double log2MaskSpaceSs(size_t x, size_t y, size_t m);

/** log2 mask-space of family @p p (0 for Dense), from the pattern table. */
double log2MaskSpace(Pattern p, size_t x, size_t y, size_t m);

/**
 * Brute-force mask count for one M x M block under TBS semantics
 * (union over candidate N and both directions, counting distinct
 * masks). Exponential in m*m; only call with m <= 4.
 */
uint64_t bruteForceTbsBlockMasks(size_t m);

/**
 * Brute-force count of masks of one M-tile under a fixed N:M
 * constraint: C(M, N). For cross-checking chooseExact in context.
 */
uint64_t bruteForceTileMasks(size_t m, size_t n);

} // namespace tbstc::core

#endif // TBSTC_CORE_MASKSPACE_HPP
