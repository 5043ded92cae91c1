#include "maskspace.hpp"

#include <bit>
#include <cmath>
#include <vector>

#include "pattern_table.hpp"
#include "util/combinatorics.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace tbstc::core {

using util::ensure;
using util::log2Choose;
using util::log2SumExp2;

namespace {

/** k = log2 M; the paper's power-of-two N ladder runs i = 0..k. */
size_t
log2OfM(size_t m)
{
    ensure(m > 0 && std::has_single_bit(m),
           "mask-space formulas require a power-of-two M");
    return static_cast<size_t>(std::countr_zero(m));
}

} // namespace

double
log2MaskSpaceTs(size_t x, size_t y, size_t m)
{
    const size_t k = log2OfM(m);
    const double tiles = static_cast<double>(x) * y / m;
    std::vector<double> terms;
    for (size_t i = 0; i <= k; ++i)
        terms.push_back(tiles * log2Choose(m, double(1ull << i)));
    return log2SumExp2(terms);
}

double
log2MaskSpaceRsv(size_t x, size_t y, size_t m)
{
    const size_t k = log2OfM(m);
    const double tiles_per_row = static_cast<double>(y) / m;
    std::vector<double> terms;
    for (size_t i = 0; i <= k; ++i)
        terms.push_back(tiles_per_row * log2Choose(m, double(1ull << i)));
    return static_cast<double>(x) * log2SumExp2(terms);
}

double
log2MaskSpaceRsh(size_t x, size_t y, size_t m)
{
    const double xy = static_cast<double>(x) * y;
    std::vector<double> terms;
    for (size_t i = m; i < 2 * m; ++i) {
        const double reps = xy / (static_cast<double>(i) * m);
        const double inner = log2Choose(double(i), double(m))
            + static_cast<double>(m) * log2Choose(m, double(m) / 2.0);
        terms.push_back(reps * inner);
        terms.push_back(1.0 + reps * log2Choose(double(i), double(m)));
    }
    return log2SumExp2(terms);
}

double
log2MaskSpaceTbs(size_t x, size_t y, size_t m)
{
    const size_t k = log2OfM(m);
    std::vector<double> terms;
    for (size_t i = 0; i <= k; ++i) {
        terms.push_back(1.0 + static_cast<double>(m)
                        * log2Choose(m, double(1ull << i)));
    }
    const double per_block = log2SumExp2(terms);
    const double blocks =
        static_cast<double>(x) * y / (static_cast<double>(m) * m);
    return blocks * per_block;
}

double
log2MaskSpaceUs(size_t x, size_t y)
{
    return static_cast<double>(x) * y;
}

double
log2MaskSpaceSs(size_t x, size_t y, size_t m)
{
    ensure(m >= 4 && m % 2 == 0,
           "SlideSparse mask-space requires an even M >= 4");
    const double tiles = static_cast<double>(x) * y / m;
    // Count in log space via the complement: 2^M tile masks minus the
    // M+1 over-dense ones. exp2(M) stays exact in double through
    // M = 52, far past any practical tile width.
    const double per_tile =
        std::log2(std::exp2(static_cast<double>(m))
                  - static_cast<double>(m) - 1.0);
    return tiles * per_tile;
}

double
log2MaskSpace(Pattern p, size_t x, size_t y, size_t m)
{
    return patternSpec(p).log2MaskSpace(x, y, m);
}

uint64_t
bruteForceTbsBlockMasks(size_t m)
{
    ensure(m <= 4, "bruteForceTbsBlockMasks is exponential; m <= 4 only");
    const size_t bits = m * m;
    const size_t k = log2OfM(m);

    // A mask belongs to the block space when some candidate N makes
    // every row exactly-N (reduction dir) or every column exactly-N
    // (independent dir). The paper's per-block space keeps exactly
    // N per group for the chosen N.
    const auto in_space = [&](uint64_t mask) {
        for (size_t i = 0; i <= k; ++i) {
            const uint64_t n = 1ull << i;
            bool row_ok = true;
            bool col_ok = true;
            for (size_t g = 0; g < m; ++g) {
                uint64_t row_nnz = 0;
                uint64_t col_nnz = 0;
                for (size_t e = 0; e < m; ++e) {
                    row_nnz += (mask >> (g * m + e)) & 1ull;
                    col_nnz += (mask >> (e * m + g)) & 1ull;
                }
                row_ok = row_ok && row_nnz == n;
                col_ok = col_ok && col_nnz == n;
            }
            if (row_ok || col_ok)
                return true;
        }
        return false;
    };

    // The loop enumerates distinct mask values, so membership counting
    // needs no dedup set; chunks count independently and sum exactly.
    return util::orderedReduce<uint64_t>(
        size_t{1} << bits, 4096, 0,
        [&](size_t begin, size_t end) {
            uint64_t count = 0;
            for (uint64_t mask = begin; mask < end; ++mask)
                count += in_space(mask);
            return count;
        },
        [](uint64_t acc, uint64_t c) { return acc + c; });
}

uint64_t
bruteForceTileMasks(size_t m, size_t n)
{
    ensure(m <= 20, "bruteForceTileMasks: m too large");
    uint64_t count = 0;
    for (uint64_t mask = 0; mask < (1ull << m); ++mask)
        count += static_cast<size_t>(std::popcount(mask)) == n;
    return count;
}

} // namespace tbstc::core
