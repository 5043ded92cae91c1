#include "blockstats.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace tbstc::core {

using util::ensure;

BlockKind
classifyBlock(const BlockInfo &info, size_t m)
{
    if (info.n == 0 || info.n == m)
        return BlockKind::Other;
    return info.dim == SparsityDim::Reduction ? BlockKind::RowSparse
                                              : BlockKind::ColSparse;
}

DirectionDistribution
directionDistribution(const TbsMeta &meta)
{
    DirectionDistribution d;
    d.blocks = meta.blocks.size();
    if (d.blocks == 0)
        return d;
    size_t row = 0;
    size_t col = 0;
    size_t other = 0;
    for (const auto &b : meta.blocks) {
        switch (classifyBlock(b, meta.m)) {
          case BlockKind::RowSparse: ++row; break;
          case BlockKind::ColSparse: ++col; break;
          case BlockKind::Other:     ++other; break;
        }
    }
    const auto total = static_cast<double>(d.blocks);
    d.rowFrac = row / total;
    d.colFrac = col / total;
    d.otherFrac = other / total;
    return d;
}

std::vector<size_t>
blockNnz(const Mask &mask, size_t m)
{
    ensure(m > 0 && mask.rows() % m == 0 && mask.cols() % m == 0,
           "blockNnz requires block-divisible mask");
    const size_t block_rows = mask.rows() / m;
    const size_t block_cols = mask.cols() / m;
    std::vector<size_t> nnz(block_rows * block_cols, 0);
    if (m == 8) {
        // Each packed word holds 8 adjacent blocks' row bytes; SWAR
        // byte-popcounts accumulate all 8 per-block sums at once (the
        // 8-row vertical sum tops out at 64, well inside a byte).
        const std::span<const uint64_t> words = mask.words();
        const size_t wpr = mask.wordsPerRow();
        const kernels::KernelTable &k = kernels::active();
        std::vector<uint64_t> acc(wpr);
        for (size_t br = 0; br < block_rows; ++br) {
            std::fill(acc.begin(), acc.end(), uint64_t{0});
            for (size_t r = 0; r < 8; ++r)
                k.bytePopcountAccum(
                    words.data() + (br * 8 + r) * wpr, wpr, acc.data());
            for (size_t bc = 0; bc < block_cols; ++bc)
                nnz[br * block_cols + bc] =
                    (acc[bc >> 3] >> ((bc & 7) * 8)) & 0xff;
        }
        return nnz;
    }
    // Word-at-a-time: each block row contributes one popcount per <=64
    // columns.
    for (size_t br = 0; br < block_rows; ++br)
        for (size_t r = 0; r < m; ++r)
            for (size_t bc = 0; bc < block_cols; ++bc)
                nnz[br * block_cols + bc] +=
                    mask.rangeNnz(br * m + r, bc * m, m);
    return nnz;
}

double
naiveInterBlockUtilisation(const std::vector<size_t> &nnz, size_t window,
                           size_t m)
{
    ensure(window > 0 && m > 0, "invalid window or block size");
    if (nnz.empty())
        return 1.0;
    double useful = 0.0;
    double issued = 0.0;
    for (size_t w0 = 0; w0 < nnz.size(); w0 += window) {
        const size_t w1 = std::min(w0 + window, nnz.size());
        size_t max_nnz = 0;
        size_t sum_nnz = 0;
        for (size_t i = w0; i < w1; ++i) {
            max_nnz = std::max(max_nnz, nnz[i]);
            sum_nnz += nnz[i];
        }
        // Each PE in the window stalls until the heaviest block's cycles
        // (ceil(max/m) pipeline beats of m MACs) have elapsed.
        const double beats =
            std::ceil(static_cast<double>(max_nnz) / static_cast<double>(m));
        useful += static_cast<double>(sum_nnz);
        issued += beats * static_cast<double>(m) *
            static_cast<double>(w1 - w0);
    }
    return issued > 0.0 ? useful / issued : 1.0;
}

} // namespace tbstc::core
