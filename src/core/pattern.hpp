/**
 * @file
 * Sparsity-pattern taxonomy and per-block metadata for TBS.
 *
 * Pattern families follow the paper's Sec. II-A / Fig. 4(a):
 *  - US    unstructured (element-wise top-k)
 *  - TS    tile-wise N:M (fixed N for every M-element row tile; the
 *          NVIDIA STC 2:4 / 4:8 pattern)
 *  - RS-V  row-wise N:M, per-row N (VEGETA)
 *  - RS-H  row-wise hierarchical N:M (HighLight)
 *  - TBS   transposable block-wise N:M (this paper): per M x M block an
 *          independent N *and* an independent sparsity dimension.
 *  - SS    SlideSparse (2N-2):2N (arxiv 2603.05232): every 2N-element
 *          row tile keeps at most 2N-2 elements, with a per-tile keep
 *          count chosen from the full 0..2N-2 ladder.
 */

#ifndef TBSTC_CORE_PATTERN_HPP
#define TBSTC_CORE_PATTERN_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tbstc::core {

/** Sparsity-pattern family. */
enum class Pattern : uint8_t
{
    Dense, ///< No sparsity.
    US,    ///< Unstructured.
    TS,    ///< Tile-wise N:M (NVIDIA STC).
    RSV,   ///< Row-wise N:M, per-row N (VEGETA).
    RSH,   ///< Row-wise hierarchical N:M (HighLight).
    TBS,   ///< Transposable block-wise N:M (this paper).
    SS,    ///< SlideSparse (2N-2):2N row tiles (arxiv 2603.05232).
};

/** Number of Pattern families; the enum counts up from 0. */
inline constexpr size_t kPatternCount = 7;

/** Human-readable pattern name as used in the paper's tables. */
std::string patternName(Pattern p);

/**
 * Dimension along which an N:M group is formed inside a block.
 *
 * Reduction = groups along a row (classic "row-wise" N:M; elements of a
 * group share a row). Independent = groups along a column.
 */
enum class SparsityDim : uint8_t
{
    Reduction,   ///< N:M within each row of the block.
    Independent, ///< N:M within each column of the block.
};

/** Short label for a sparsity dimension ("row"/"col"). */
std::string dimName(SparsityDim d);

/** Per-block TBS descriptor: N of the N:M ratio plus the direction. */
struct BlockInfo
{
    uint8_t n = 0;                               ///< Non-zeros per group.
    SparsityDim dim = SparsityDim::Reduction;    ///< Group direction.

    bool operator==(const BlockInfo &) const = default;
};

/**
 * Block-grid metadata accompanying a TBS mask: one BlockInfo per
 * M x M block, in row-major block order. blockRows/blockCols count
 * blocks, not elements.
 */
struct TbsMeta
{
    size_t m = 8;           ///< Block edge (the M of N:M).
    size_t blockRows = 0;   ///< Number of block rows.
    size_t blockCols = 0;   ///< Number of block columns.
    std::vector<BlockInfo> blocks; ///< blockRows * blockCols entries.

    const BlockInfo &
    block(size_t br, size_t bc) const
    {
        return blocks[br * blockCols + bc];
    }

    BlockInfo &
    block(size_t br, size_t bc)
    {
        return blocks[br * blockCols + bc];
    }
};

/** Default candidate N set for M = 8 (paper Sec. VII-A3). */
std::vector<uint8_t> defaultCandidates(size_t m);

} // namespace tbstc::core

#endif // TBSTC_CORE_PATTERN_HPP
