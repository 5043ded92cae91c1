#include "sparsify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <type_traits>

#include "kernels/kernels.hpp"
#include "mask_search.hpp"
#include "maskspace.hpp"
#include "obs/stage.hpp"
#include "pattern_table.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace tbstc::core {

using util::ensure;
using util::fatal;

namespace {

/**
 * Mark the top @p n of @p vals in @p keep (1 = kept). Deterministic
 * tie-break: higher score wins, then lower index — a strict total
 * order, so the top-n set is unique. The selection runs value-only:
 * nth_element over a float scratch copy finds the n-th largest score,
 * everything strictly above it is kept, and the remaining slots go to
 * the lowest-indexed elements tied with it. That reproduces exactly
 * the set the index-permuting formulation selects, without the
 * iota/indirect-comparator overhead. @p scratch is reused across calls
 * so per-tile selection never re-allocates.
 */
void
selectTopN(std::span<const float> vals, size_t n, std::span<uint8_t> keep,
           std::vector<float> &scratch)
{
    ensure(vals.size() == keep.size(), "selectTopN size mismatch");
    if (n >= vals.size()) {
        std::fill(keep.begin(), keep.end(), uint8_t{1});
        return;
    }
    if (n == 0) {
        std::fill(keep.begin(), keep.end(), uint8_t{0});
        return;
    }
    if (n + 1 == vals.size()) {
        // Dense end of the candidate ladder: drop only the worst
        // element — the minimum, ties resolved to the highest index
        // (the last element in the total order).
        size_t worst = 0;
        for (size_t i = 1; i < vals.size(); ++i)
            if (vals[i] <= vals[worst])
                worst = i;
        std::fill(keep.begin(), keep.end(), uint8_t{1});
        keep[worst] = 0;
        return;
    }
    scratch.assign(vals.begin(), vals.end());
    std::nth_element(scratch.begin(), scratch.begin() + (n - 1),
                     scratch.end(), std::greater<float>());
    const float threshold = scratch[n - 1];
    size_t ties = n;
    for (const float v : vals)
        ties -= v > threshold;
    for (size_t i = 0; i < vals.size(); ++i) {
        // setcc for the common above/below case; scores rarely collide
        // with the threshold exactly, so the tie branch predicts well.
        uint8_t k = vals[i] > threshold;
        if (vals[i] == threshold && ties > 0) {
            k = 1;
            --ties;
        }
        keep[i] = k;
    }
}

/** One unit of the candidate-count fitting problem. */
struct FitUnit
{
    double ideal;  ///< Desired kept elements (from the US mask).
    size_t groups; ///< Number of N:M groups in the unit.
};

/**
 * Choose a per-unit N from @p candidates so each unit's kept count
 * (N * groups) tracks its unstructured ideal, then run a
 * largest-remainder promotion pass so the matrix total lands as close
 * to @p target_nnz as the candidate lattice allows. This implements
 * Alg. 1 step 2's "ensuring the overall sparsity meets the
 * predetermined target".
 */
std::vector<uint8_t>
fitCounts(std::span<const FitUnit> units,
          std::span<const uint8_t> candidates, size_t target_nnz)
{
    ensure(!candidates.empty(), "fitCounts requires candidates");
    std::vector<uint8_t> cand(candidates.begin(), candidates.end());
    std::sort(cand.begin(), cand.end());

    struct Promo
    {
        size_t unit;
        double frac;   ///< How far the ideal sits above the floor step.
        size_t gain;   ///< Elements added by promoting one step.
        uint8_t hi;    ///< Candidate reached by the promotion.
    };

    std::vector<uint8_t> n(units.size());
    std::vector<Promo> promos;
    long long total = 0;

    for (size_t u = 0; u < units.size(); ++u) {
        const double per_group =
            units[u].ideal / static_cast<double>(units[u].groups);
        // Bracket per_group between adjacent candidates.
        size_t hi_idx = 0;
        while (hi_idx < cand.size()
               && static_cast<double>(cand[hi_idx]) < per_group)
            ++hi_idx;
        const uint8_t hi =
            hi_idx < cand.size() ? cand[hi_idx] : cand.back();
        const uint8_t lo = hi_idx > 0 ? cand[hi_idx - 1] : cand.front();
        n[u] = lo;
        total += static_cast<long long>(lo) * units[u].groups;
        if (hi > lo) {
            const double frac = (per_group - lo) / (hi - lo);
            promos.push_back(
                {u, frac, (hi - lo) * units[u].groups, hi});
        }
    }

    long long deficit = static_cast<long long>(target_nnz) - total;
    std::sort(promos.begin(), promos.end(),
              [](const Promo &a, const Promo &b) {
                  if (a.frac != b.frac)
                      return a.frac > b.frac;
                  return a.unit < b.unit;
              });
    for (const auto &p : promos) {
        if (deficit <= 0)
            break;
        const auto gain = static_cast<long long>(p.gain);
        // Promote only when it brings the total closer to the target.
        if (std::llabs(deficit - gain) < deficit) {
            n[p.unit] = p.hi;
            deficit -= gain;
        }
    }
    return n;
}

/**
 * Algorithm 1 step-2 input: per-block unstructured densities over the
 * M x M grid. Shared by the greedy and optimal TBS strategies so both
 * feed fitCounts identical units and end up with identical per-block N
 * — the strategies differ only in the step-3 mapper.
 */
std::vector<FitUnit>
tbsFitUnits(const Mask &us, size_t m, size_t block_rows, size_t block_cols)
{
    std::vector<FitUnit> units(block_rows * block_cols);
    util::parallelFor(block_rows, 0, [&](size_t begin, size_t end) {
        for (size_t br = begin; br < end; ++br) {
            for (size_t bc = 0; bc < block_cols; ++bc) {
                size_t nnz = 0;
                for (size_t r = 0; r < m; ++r)
                    nnz += us.rangeNnz(br * m + r, bc * m, m);
                units[br * block_cols + bc] =
                    {static_cast<double>(nnz), m};
            }
        }
    });
    return units;
}

/** Algorithm 1 step 2: per-block N from the unstructured mask @p us. */
std::vector<uint8_t>
tbsFit(const Mask &us, size_t m, size_t block_rows, size_t block_cols,
       std::span<const uint8_t> candidates, size_t target)
{
    static const obs::Stage stage("core.tbs.fit");
    const obs::ScopedStage timed(stage);
    return fitCounts(tbsFitUnits(us, m, block_rows, block_cols),
                     candidates, target);
}

/** Algorithm 1 step 3 (block scoring and mask materialization). */
const obs::Stage &
tbsScoreStage()
{
    static const obs::Stage stage("core.tbs.score");
    return stage;
}

/**
 * Algorithm 1 step-3 worker over block-rows [begin, end).
 *
 * Instead of re-running a top-N selection per (N, dim) candidate, rank
 * every block element once within its row and its column under
 * (score desc, index asc) — the same strict total order selectTopN
 * uses, so "rank < N" reproduces its top-N set exactly — and build
 * prefix-overlap tables against the unstructured mask. Each
 * direction's L1 distance for any candidate N then reads off in O(1):
 * dist(N) = N*m + us_nnz - 2*overlap[N].
 *
 * @p m is either a plain size_t or std::integral_constant<size_t, 8>:
 * the dominant block size dispatches through the constant so every
 * m-bounded loop unrolls and the rank comparisons vectorize.
 */
template <typename MT>
void
tbsScoreBlockRows(const Matrix &scores, const Mask &us,
                  std::span<const uint8_t> n, size_t block_cols, MT m,
                  size_t begin, size_t end, MaskOutput &out)
{
    [[maybe_unused]] const auto rank_kernel = kernels::active().rank8x8;
    std::vector<float> blk(m * m);
    std::vector<uint16_t> rank_row(m * m);
    std::vector<uint16_t> rank_col(m * m);
    std::vector<size_t> overlap_row(m + 1);
    std::vector<size_t> overlap_col(m + 1);
    for (size_t br = begin; br < end; ++br) {
        for (size_t bc = 0; bc < block_cols; ++bc) {
            const uint8_t nb = n[br * block_cols + bc];
            for (size_t r = 0; r < m; ++r) {
                const std::span<const float> src =
                    scores.row(br * m + r);
                std::copy_n(src.data() + bc * m, static_cast<size_t>(m),
                            &blk[r * m]);
            }
            if constexpr (!std::is_same_v<MT, size_t>) {
                static_assert(MT::value == 8);
                // The selectTopN-order rank oracle, dispatched to the
                // active ISA level (kernels/): both rank tables of the
                // whole 8x8 block in one call.
                rank_kernel(blk.data(), rank_row.data(),
                            rank_col.data());
            } else {
                // Bitwise |/& rather than short-circuit ||/&&: scores
                // are effectively random, so data-dependent branches
                // mispredict half the time.
                for (size_t r = 0; r < m; ++r) {
                    const float *row = &blk[r * m];
                    for (size_t c = 0; c < m; ++c) {
                        const float v = row[c];
                        unsigned rk = 0;
                        for (size_t c2 = 0; c2 < m; ++c2)
                            rk += static_cast<unsigned>(row[c2] > v)
                                | (static_cast<unsigned>(row[c2] == v)
                                   & static_cast<unsigned>(c2 < c));
                        rank_row[r * m + c] =
                            static_cast<uint16_t>(rk);
                    }
                }
                for (size_t c = 0; c < m; ++c) {
                    for (size_t r = 0; r < m; ++r) {
                        const float v = blk[r * m + c];
                        unsigned rk = 0;
                        for (size_t r2 = 0; r2 < m; ++r2)
                            rk += static_cast<unsigned>(
                                      blk[r2 * m + c] > v)
                                | (static_cast<unsigned>(
                                       blk[r2 * m + c] == v)
                                   & static_cast<unsigned>(r2 < r));
                        rank_col[r * m + c] =
                            static_cast<uint16_t>(rk);
                    }
                }
            }
            // overlap_dir[k]: US-kept positions whose in-group rank is
            // below k, i.e. |top-k mask AND us| for direction dir.
            std::fill(overlap_row.begin(), overlap_row.end(), size_t{0});
            std::fill(overlap_col.begin(), overlap_col.end(), size_t{0});
            size_t us_nnz = 0;
            for (size_t r = 0; r < m; ++r) {
                if (m <= 64) {
                    uint64_t bits = us.rowBits(br * m + r, bc * m, m);
                    us_nnz +=
                        static_cast<size_t>(std::popcount(bits));
                    while (bits != 0) {
                        const auto c = static_cast<size_t>(
                            std::countr_zero(bits));
                        bits &= bits - 1;
                        ++overlap_row[rank_row[r * m + c] + 1];
                        ++overlap_col[rank_col[r * m + c] + 1];
                    }
                } else {
                    for (size_t c = 0; c < m; ++c) {
                        if (us.at(br * m + r, bc * m + c)) {
                            ++us_nnz;
                            ++overlap_row[rank_row[r * m + c] + 1];
                            ++overlap_col[rank_col[r * m + c] + 1];
                        }
                    }
                }
            }
            for (size_t k = 1; k <= m; ++k) {
                overlap_row[k] += overlap_row[k - 1];
                overlap_col[k] += overlap_col[k - 1];
            }
            const size_t dist_row = nb * m + us_nnz - 2 * overlap_row[nb];
            const size_t dist_col = nb * m + us_nnz - 2 * overlap_col[nb];
            const bool use_row = dist_row <= dist_col;
            const auto &rank = use_row ? rank_row : rank_col;
            if (m <= 64) {
                for (size_t r = 0; r < m; ++r) {
                    uint64_t bits = 0;
                    for (size_t c = 0; c < m; ++c)
                        bits |= static_cast<uint64_t>(rank[r * m + c]
                                                      < nb)
                            << c;
                    out.mask.setRowBits(br * m + r, bc * m, m, bits);
                }
            } else {
                for (size_t r = 0; r < m; ++r)
                    for (size_t c = 0; c < m; ++c)
                        out.mask.at(br * m + r, bc * m + c) =
                            static_cast<uint8_t>(rank[r * m + c] < nb);
            }
            out.meta.block(br, bc) = {nb, use_row
                                              ? SparsityDim::Reduction
                                              : SparsityDim::Independent};
        }
    }
}

/** Reusable per-worker scratch of the optimal TBS block solver. */
struct OptScratch
{
    std::vector<uint8_t> usb;       ///< 0/1 unstructured bits, row-major.
    std::vector<float> blk;         ///< Block scores, row-major.
    std::vector<uint16_t> rank_row; ///< selectTopN-order rank within row.
    std::vector<uint16_t> rank_col; ///< ... within column.
    std::vector<uint16_t> inv_row;  ///< inv_row[r*m+rk] = column at rank rk.
    std::vector<uint16_t> inv_col;  ///< inv_col[c*m+rk] = row at rank rk.
    std::vector<size_t> overlap_row;
    std::vector<size_t> overlap_col;
    std::vector<size_t> row_us;     ///< US survivors per row.
    std::vector<size_t> col_us;     ///< ... per column.
    std::vector<size_t> col_used;   ///< Core occupancy per column.
    std::vector<uint8_t> core;      ///< Doubly-constrained kept core.
    std::vector<uint8_t> seen;      ///< DFS column marks.
    std::vector<uint8_t> keep;      ///< Final block mask, 0/1 bytes.
};

/**
 * Solve one M x M block to L1 optimality against the unstructured
 * mask (tbsMaskOptimal's step 3; docs/mask_search.md). Fills
 * s.keep with the block's final 0/1 image and returns the declared
 * direction; @p improved reports whether the optimum strictly beat
 * the greedy mapper's distance, @p transposable whether the final
 * mask also meets the N cap in the *other* direction, @p augments
 * how many augmenting paths re-routed the matching core.
 */
SparsityDim
optimalBlockSolve(const Matrix &scores, const Mask &us, size_t br,
                  size_t bc, size_t m, uint8_t nb, OptScratch &s,
                  bool &improved, bool &transposable, size_t &augments)
{
    s.blk.resize(m * m);
    s.usb.assign(m * m, 0);
    s.rank_row.resize(m * m);
    s.rank_col.resize(m * m);
    s.inv_row.resize(m * m);
    s.inv_col.resize(m * m);
    s.overlap_row.assign(m + 1, 0);
    s.overlap_col.assign(m + 1, 0);
    s.row_us.assign(m, 0);
    s.col_us.assign(m, 0);

    size_t us_nnz = 0;
    for (size_t r = 0; r < m; ++r) {
        const std::span<const float> src = scores.row(br * m + r);
        std::copy_n(src.data() + bc * m, m, &s.blk[r * m]);
        for (size_t c0 = 0; c0 < m; c0 += 64) {
            const size_t len = std::min<size_t>(64, m - c0);
            uint64_t bits = us.rowBits(br * m + r, bc * m + c0, len);
            while (bits != 0) {
                const size_t c =
                    c0 + static_cast<size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                s.usb[r * m + c] = 1;
                ++s.row_us[r];
                ++s.col_us[c];
                ++us_nnz;
            }
        }
    }

    // The greedy mapper's rank oracle, scalar: (score desc, index asc)
    // within each row and column — selectTopN's strict total order.
    for (size_t r = 0; r < m; ++r) {
        const float *row = &s.blk[r * m];
        for (size_t c = 0; c < m; ++c) {
            const float v = row[c];
            unsigned rk = 0;
            for (size_t c2 = 0; c2 < m; ++c2)
                rk += static_cast<unsigned>(row[c2] > v)
                    | (static_cast<unsigned>(row[c2] == v)
                       & static_cast<unsigned>(c2 < c));
            s.rank_row[r * m + c] = static_cast<uint16_t>(rk);
            s.inv_row[r * m + rk] = static_cast<uint16_t>(c);
        }
    }
    for (size_t c = 0; c < m; ++c) {
        for (size_t r = 0; r < m; ++r) {
            const float v = s.blk[r * m + c];
            unsigned rk = 0;
            for (size_t r2 = 0; r2 < m; ++r2)
                rk += static_cast<unsigned>(s.blk[r2 * m + c] > v)
                    | (static_cast<unsigned>(s.blk[r2 * m + c] == v)
                       & static_cast<unsigned>(r2 < r));
            s.rank_col[r * m + c] = static_cast<uint16_t>(rk);
            s.inv_col[c * m + rk] = static_cast<uint16_t>(r);
        }
    }

    // Greedy's distances, for the improved-block statistic.
    for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < m; ++c) {
            if (s.usb[r * m + c]) {
                ++s.overlap_row[s.rank_row[r * m + c] + 1];
                ++s.overlap_col[s.rank_col[r * m + c] + 1];
            }
        }
    }
    for (size_t k = 1; k <= m; ++k) {
        s.overlap_row[k] += s.overlap_row[k - 1];
        s.overlap_col[k] += s.overlap_col[k - 1];
    }
    const size_t g_row = nb * m + us_nnz - 2 * s.overlap_row[nb];
    const size_t g_col = nb * m + us_nnz - 2 * s.overlap_col[nb];
    const size_t greedy_dist = g_row <= g_col ? g_row : g_col;

    // The L1 optimum under the <=N constraint keeps unstructured
    // survivors only, min(us_g, N) per group of the chosen direction.
    size_t kept_row = 0;
    size_t kept_col = 0;
    for (size_t g = 0; g < m; ++g) {
        kept_row += std::min<size_t>(s.row_us[g], nb);
        kept_col += std::min<size_t>(s.col_us[g], nb);
    }
    const size_t opt_row = us_nnz - kept_row;
    const size_t opt_col = us_nnz - kept_col;
    const bool use_row = opt_row <= opt_col; // Greedy's tie-break too.
    improved = (use_row ? opt_row : opt_col) < greedy_dist;

    // Stage A: Hungarian-style augmenting-path b-matching of the
    // unstructured survivors under simultaneous row *and* column caps
    // of N — the doubly-constrained transposable core. Rows are
    // processed in index order and elements in rank order, so the
    // matching is deterministic and keeps the highest-scoring
    // survivors first.
    s.core.assign(m * m, 0);
    s.col_used.assign(m, 0);
    size_t steals = 0;
    // Free one unit of column c by re-routing a kept edge to a column
    // with spare capacity, recursively (the alternating-path DFS).
    auto stealCol = [&](auto &&self, size_t c) -> bool {
        for (size_t r2 = 0; r2 < m; ++r2) {
            if (!s.core[r2 * m + c])
                continue;
            for (size_t rk = 0; rk < m; ++rk) {
                const size_t c2 = s.inv_row[r2 * m + rk];
                if (c2 == c || !s.usb[r2 * m + c2]
                    || s.core[r2 * m + c2] || s.seen[c2])
                    continue;
                s.seen[c2] = 1;
                if (s.col_used[c2] < nb || self(self, c2)) {
                    s.core[r2 * m + c] = 0;
                    s.core[r2 * m + c2] = 1;
                    ++s.col_used[c2];
                    --s.col_used[c];
                    ++steals;
                    return true;
                }
            }
        }
        return false;
    };
    auto addOne = [&](size_t r) -> bool {
        for (size_t rk = 0; rk < m; ++rk) {
            const size_t c = s.inv_row[r * m + rk];
            if (!s.usb[r * m + c] || s.core[r * m + c] || s.seen[c])
                continue;
            s.seen[c] = 1;
            if (s.col_used[c] < nb || stealCol(stealCol, c)) {
                s.core[r * m + c] = 1;
                ++s.col_used[c];
                return true;
            }
        }
        return false;
    };
    for (size_t r = 0; r < m; ++r) {
        const size_t want = std::min<size_t>(s.row_us[r], nb);
        for (size_t have = 0; have < want; ++have) {
            s.seen.assign(m, 0);
            if (!addOne(r))
                break;
        }
    }

    // Stage B: top each declared-direction group up to its quota with
    // the best-ranked survivors outside the core. The choice cannot
    // change the L1 distance (every survivor costs the same), only how
    // transposable the final mask ends up.
    s.keep.assign(m * m, 0);
    if (use_row) {
        for (size_t r = 0; r < m; ++r) {
            const size_t quota = std::min<size_t>(s.row_us[r], nb);
            size_t got = 0;
            for (size_t c = 0; c < m; ++c) {
                if (s.core[r * m + c]) {
                    s.keep[r * m + c] = 1;
                    ++got;
                }
            }
            for (size_t rk = 0; rk < m && got < quota; ++rk) {
                const size_t c = s.inv_row[r * m + rk];
                if (s.usb[r * m + c] && !s.core[r * m + c]) {
                    s.keep[r * m + c] = 1;
                    ++got;
                }
            }
        }
    } else {
        for (size_t c = 0; c < m; ++c) {
            const size_t quota = std::min<size_t>(s.col_us[c], nb);
            size_t got = 0;
            for (size_t r = 0; r < m; ++r) {
                if (s.core[r * m + c]) {
                    s.keep[r * m + c] = 1;
                    ++got;
                }
            }
            for (size_t rk = 0; rk < m && got < quota; ++rk) {
                const size_t r = s.inv_col[c * m + rk];
                if (s.usb[r * m + c] && !s.core[r * m + c]) {
                    s.keep[r * m + c] = 1;
                    ++got;
                }
            }
        }
    }

    transposable = true;
    for (size_t g = 0; g < m && transposable; ++g) {
        size_t cross = 0;
        for (size_t i = 0; i < m; ++i)
            cross += use_row ? s.keep[i * m + g] : s.keep[g * m + i];
        transposable = cross <= nb;
    }
    augments = steals;
    return use_row ? SparsityDim::Reduction : SparsityDim::Independent;
}

/** Store one row tile of 0/1 bytes at (r, c0). */
void
storeTile(Mask &mask, size_t r, size_t c0, std::span<const uint8_t> keep)
{
    if (keep.size() > 64) {
        for (size_t i = 0; i < keep.size(); ++i)
            mask.at(r, c0 + i) = keep[i];
        return;
    }
    uint64_t bits = 0;
    for (size_t i = 0; i < keep.size(); ++i)
        bits |= static_cast<uint64_t>(keep[i] != 0) << i;
    mask.setRowBits(r, c0, keep.size(), bits);
}

/**
 * Order-preserving integer key of a score: ascending keys are
 * ascending floats. -0.0 and +0.0 share one key because they compare
 * equal, and selectTopN's tie rule runs on float equality.
 */
uint32_t
scoreKey(float v)
{
    uint32_t u = std::bit_cast<uint32_t>(v);
    if ((u << 1) == 0)
        u = 0;
    return (u & 0x80000000u) != 0 ? ~u : u | 0x80000000u;
}

/** High key bits histogrammed by usMask's first pass. */
constexpr unsigned kRadixBits = 12;
constexpr unsigned kRadixShift = 32 - kRadixBits;

} // namespace

size_t
targetNnz(size_t total, double sparsity)
{
    if (sparsity < 0.0 || sparsity > 1.0)
        fatal("sparsity degree {} is outside [0, 1]", sparsity);
    const double keep = (1.0 - sparsity) * static_cast<double>(total);
    return static_cast<size_t>(std::llround(keep));
}

Mask
usMask(const Matrix &scores, double sparsity)
{
    static const obs::Stage stage("core.usMask");
    const obs::ScopedStage timed(stage);
    // Global top-k under selectTopN's order (score descending, then
    // index ascending) as a radix select on order-preserving keys: a
    // histogram of the high key bits finds the bucket holding the k-th
    // largest key, that bucket's keys are gathered and selected
    // exactly, and a final pass writes mask words, admitting keys tied
    // with the threshold lowest index first. Chunks own whole rows, so
    // no two chunks share a mask word; every cross-chunk quantity is an
    // integer count, so the mask is the same at any thread count.
    const size_t rows = scores.rows();
    const size_t cols = scores.cols();
    const size_t k = targetNnz(scores.size(), sparsity);
    Mask mask(rows, cols);
    if (k == 0)
        return mask;

    const size_t rows_per = std::max<size_t>(
        1, rows / (util::effectiveThreads() * 4));
    const size_t chunks = (rows + rows_per - 1) / rows_per;
    const auto rowRange = [&](size_t ci) {
        return std::pair{ci * rows_per, std::min(rows, (ci + 1) * rows_per)};
    };

    // Pass 1: per-chunk histograms of the high key bits.
    constexpr size_t kBins = size_t{1} << kRadixBits;
    std::vector<uint32_t> hist(chunks * kBins, 0);
    util::runChunked(chunks, [&](size_t ci) {
        uint32_t *h = hist.data() + ci * kBins;
        const auto [r0, r1] = rowRange(ci);
        for (const float v : scores.data().subspan(r0 * cols,
                                                   (r1 - r0) * cols))
            ++h[scoreKey(v) >> kRadixShift];
    });
    size_t above = 0; // Keys in buckets above the threshold bucket.
    uint32_t bucket = kBins - 1;
    for (;; --bucket) {
        size_t count = 0;
        for (size_t ci = 0; ci < chunks; ++ci)
            count += hist[ci * kBins + bucket];
        if (above + count >= k)
            break;
        above += count;
    }

    // Pass 2: gather the threshold bucket's keys, per chunk in index
    // order, and select the threshold key among them.
    std::vector<std::vector<uint32_t>> cand(chunks);
    util::runChunked(chunks, [&](size_t ci) {
        cand[ci].reserve(hist[ci * kBins + bucket]);
        const auto [r0, r1] = rowRange(ci);
        for (const float v : scores.data().subspan(r0 * cols,
                                                   (r1 - r0) * cols)) {
            const uint32_t key = scoreKey(v);
            if (key >> kRadixShift == bucket)
                cand[ci].push_back(key);
        }
    });
    std::vector<uint32_t> all;
    for (const auto &c : cand)
        all.insert(all.end(), c.begin(), c.end());
    const size_t need = k - above; // 1 <= need <= all.size()
    std::nth_element(all.begin(), all.begin() + (need - 1), all.end(),
                     std::greater<uint32_t>());
    const uint32_t threshold = all[need - 1];
    size_t ties = need;
    for (const uint32_t key : all)
        ties -= key > threshold;
    all = {};

    // Pass 3: write mask words. Chunk ci may admit the ties left after
    // the lower-indexed chunks took theirs.
    std::vector<size_t> tie_budget(chunks);
    for (size_t ci = 0; ci < chunks; ++ci) {
        const size_t eq = static_cast<size_t>(
            std::count(cand[ci].begin(), cand[ci].end(), threshold));
        tie_budget[ci] = std::min(eq, ties);
        ties -= tie_budget[ci];
    }
    util::runChunked(chunks, [&](size_t ci) {
        size_t budget = tie_budget[ci];
        const auto [r0, r1] = rowRange(ci);
        for (size_t r = r0; r < r1; ++r) {
            const std::span<const float> row = scores.row(r);
            for (size_t c0 = 0; c0 < cols; c0 += 64) {
                const size_t len = std::min<size_t>(64, cols - c0);
                uint64_t bits = 0;
                for (size_t i = 0; i < len; ++i) {
                    const uint32_t key = scoreKey(row[c0 + i]);
                    bool keep = key > threshold;
                    if (key == threshold && budget > 0) {
                        keep = true;
                        --budget;
                    }
                    bits |= static_cast<uint64_t>(keep) << i;
                }
                mask.setRowBits(r, c0, len, bits);
            }
        }
    });
    return mask;
}

namespace {

/**
 * Row-tile N:M materialization shared by TS, RS-V and SS: every
 * m-element tile t of row r keeps its top nOf(r, t) scores.
 */
template <typename NOf>
Mask
rowTileMask(const Matrix &scores, size_t m, NOf nOf)
{
    Mask mask(scores.rows(), scores.cols());
    std::vector<uint8_t> keep(m);
    std::vector<float> scratch;
    for (size_t r = 0; r < scores.rows(); ++r) {
        const std::span<const float> row = scores.row(r);
        for (size_t t = 0; t < scores.cols() / m; ++t) {
            selectTopN(row.subspan(t * m, m), nOf(r, t), keep, scratch);
            storeTile(mask, r, t * m, keep);
        }
    }
    return mask;
}

void
denseMask(const MaskJob &job, MaskOutput &out)
{
    out.mask = Mask(job.scores.rows(), job.scores.cols());
    for (size_t r = 0; r < out.mask.rows(); ++r)
        for (size_t c = 0; c < out.mask.cols(); ++c)
            out.mask.at(r, c) = 1;
}

void
usGenerate(const MaskJob &job, MaskOutput &out)
{
    out.mask = job.us;
}

/**
 * Tile-wise N:M (NVIDIA STC style): every m-element row tile keeps its
 * top N, with the fixed N derived from the target density (e.g. 50% ->
 * 4:8).
 */
void
tsMask(const MaskJob &job, MaskOutput &out)
{
    const auto n = std::min<size_t>(
        static_cast<size_t>(std::llround(
            (1.0 - job.sparsity) * static_cast<double>(job.m))),
        job.m);
    out.mask = rowTileMask(job.scores, job.m,
                           [n](size_t, size_t) { return n; });
}

/**
 * Row-wise N:M with per-row N (VEGETA). Each row picks the candidate N
 * closest to its unstructured density; a global largest-remainder pass
 * nudges rows so the whole matrix hits the target sparsity.
 */
void
rsvMask(const MaskJob &job, MaskOutput &out)
{
    const Matrix &scores = job.scores;
    const size_t groups = scores.cols() / job.m;
    std::vector<FitUnit> units(scores.rows());
    for (size_t r = 0; r < scores.rows(); ++r) {
        units[r] = {
            static_cast<double>(job.us.rangeNnz(r, 0, scores.cols())),
            groups};
    }
    const std::vector<uint8_t> n =
        fitCounts(units, job.candidates, job.target);
    out.mask = rowTileMask(scores, job.m,
                           [&n](size_t r, size_t) { return n[r]; });
}

/**
 * Row-wise hierarchical N:M (HighLight). Each super-group of M row
 * tiles keeps T of its M tiles (tile-level N:M), and surviving tiles
 * keep N0 of M elements, with (T, N0) chosen per super-group to match
 * its unstructured density.
 */
void
rshMask(const MaskJob &job, MaskOutput &out)
{
    const Matrix &scores = job.scores;
    const size_t m = job.m;
    const size_t tiles_per_row = scores.cols() / m;
    // Super-groups of up to M row tiles. HighLight's hierarchy: keep T
    // of the super-group's tiles; surviving tiles are either dense (M:M)
    // or half-dense (M/2:M), mirroring the structure of paper Eq. (3).
    struct Super
    {
        size_t row;
        size_t tile0;     ///< First tile index in the row.
        size_t tiles;     ///< Tiles in this super-group (<= m).
        size_t us_nnz;
        uint8_t n0;       ///< Inner density: m or m/2.
    };
    std::vector<Super> supers;
    for (size_t r = 0; r < scores.rows(); ++r) {
        for (size_t t0 = 0; t0 < tiles_per_row; t0 += m) {
            Super s;
            s.row = r;
            s.tile0 = t0;
            s.tiles = std::min(m, tiles_per_row - t0);
            s.us_nnz = job.us.rangeNnz(r, t0 * m, s.tiles * m);
            // Inner density from the average kept-per-surviving-tile:
            // dense inner tiles when the super-group is lightly pruned.
            const double density = static_cast<double>(s.us_nnz)
                / static_cast<double>(s.tiles * m);
            s.n0 = density > 0.5 ? static_cast<uint8_t>(m)
                                  : static_cast<uint8_t>(m / 2);
            supers.push_back(s);
        }
    }

    // Fit the number of kept tiles T per super-group. Tile candidates
    // are the contiguous integers 0..tiles; reuse fitCounts by treating
    // each super-group as one unit of `tiles` groups with N in 0..1 ...
    // simpler: largest-remainder directly over tile counts.
    std::vector<size_t> t_count(supers.size());
    struct Promo
    {
        size_t unit;
        double frac;
        size_t gain;
    };
    std::vector<Promo> promos;
    long long total = 0;
    for (size_t u = 0; u < supers.size(); ++u) {
        const double ideal_tiles = static_cast<double>(supers[u].us_nnz)
            / static_cast<double>(supers[u].n0);
        const auto floor_t = static_cast<size_t>(
            std::min<double>(std::floor(ideal_tiles),
                             static_cast<double>(supers[u].tiles)));
        t_count[u] = floor_t;
        total += static_cast<long long>(floor_t) * supers[u].n0;
        if (floor_t < supers[u].tiles) {
            promos.push_back({u, ideal_tiles - static_cast<double>(floor_t),
                              supers[u].n0});
        }
    }
    long long deficit = static_cast<long long>(job.target) - total;
    std::sort(promos.begin(), promos.end(),
              [](const Promo &a, const Promo &b) {
                  if (a.frac != b.frac)
                      return a.frac > b.frac;
                  return a.unit < b.unit;
              });
    for (const auto &p : promos) {
        if (deficit <= 0)
            break;
        const auto gain = static_cast<long long>(p.gain);
        if (std::llabs(deficit - gain) < deficit) {
            ++t_count[p.unit];
            deficit -= gain;
        }
    }

    // Materialize: per super-group keep the T tiles with the largest
    // score mass, each at its inner density.
    Mask mask(scores.rows(), scores.cols());
    std::vector<uint8_t> keep(m);
    std::vector<float> scratch;
    for (size_t u = 0; u < supers.size(); ++u) {
        const Super &s = supers[u];
        std::vector<std::pair<double, size_t>> mass(s.tiles);
        for (size_t t = 0; t < s.tiles; ++t) {
            double sum = 0.0;
            for (size_t i = 0; i < m; ++i)
                sum += scores.at(s.row, (s.tile0 + t) * m + i);
            mass[t] = {sum, t};
        }
        std::sort(mass.begin(), mass.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        for (size_t rank = 0; rank < t_count[u]; ++rank) {
            const size_t c0 = (mass[rank].second + s.tile0) * m;
            selectTopN(scores.row(s.row).subspan(c0, m), s.n0, keep,
                       scratch);
            storeTile(mask, s.row, c0, keep);
        }
    }
    out.mask = std::move(mask);
}

/**
 * Alg. 1 step 2 for both TBS strategies: size out's mask and block
 * grid and choose N per block from the step-1 block density (with a
 * global balance pass so the matrix hits the target). The strategies
 * differ only in the step-3 mapper.
 */
std::vector<uint8_t>
tbsPrepare(const MaskJob &job, MaskOutput &out)
{
    const size_t m = job.m;
    const size_t block_rows = job.scores.rows() / m;
    const size_t block_cols = job.scores.cols() / m;
    out.mask = Mask(job.scores.rows(), job.scores.cols());
    out.meta.m = m;
    out.meta.blockRows = block_rows;
    out.meta.blockCols = block_cols;
    out.meta.blocks.resize(block_rows * block_cols);
    // Blocks are independent and write index-addressed slots, so the
    // density scan parallelizes; the largest-remainder promotion pass
    // inside fitCounts is a global ordered pass and stays serial.
    return tbsFit(job.us, m, block_rows, block_cols, job.candidates,
                  job.target);
}

/**
 * Transposable block-wise N:M (paper Algorithm 1), greedy step 3: per
 * block, build the reduction-direction mask (top-N per row) and the
 * independent-direction mask (top-N per column) and keep the one with
 * the smaller L1 distance to the unstructured block mask.
 */
void
tbsMask(const MaskJob &job, MaskOutput &out)
{
    const std::vector<uint8_t> n = tbsPrepare(job, out);
    const size_t m = job.m;
    const size_t block_cols = out.meta.blockCols;
    // Workers own whole block-rows: different block-rows never share a
    // packed mask word, so the parallel materialization stays race-free
    // and index-addressed (bit-identical at any thread count). The
    // per-block scoring itself lives in tbsScoreBlockRows.
    const obs::ScopedStage timed(tbsScoreStage());
    util::parallelFor(out.meta.blockRows, 0, [&](size_t begin, size_t end) {
        if (m == 8)
            tbsScoreBlockRows(job.scores, job.us, n, block_cols,
                              std::integral_constant<size_t, 8>{},
                              begin, end, out);
        else
            tbsScoreBlockRows(job.scores, job.us, n, block_cols, m, begin,
                              end, out);
    });
    out.stats = {};
    out.stats.blocks = out.meta.blocks.size();
}

/**
 * TSENOR-style optimal step 3 (see docs/mask_search.md): per block,
 * the exact L1 optimum against the step-1 mask under the <=N
 * constraint, with a Hungarian-style b-matching core. Never worse
 * than greedy on any block; may undershoot the target nnz.
 */
void
tbsMaskOptimal(const MaskJob &job, MaskOutput &out)
{
    const std::vector<uint8_t> n = tbsPrepare(job, out);
    const size_t m = job.m;
    const size_t block_rows = out.meta.blockRows;
    const size_t block_cols = out.meta.blockCols;

    // Stats land in per-block-row slots and reduce serially below, so
    // the totals are bit-identical at any thread count, like the mask.
    std::vector<size_t> improved(block_rows, 0);
    std::vector<size_t> transposable(block_rows, 0);
    std::vector<size_t> augments(block_rows, 0);

    const obs::ScopedStage timed(tbsScoreStage());
    util::parallelFor(block_rows, 0, [&](size_t begin, size_t end) {
        OptScratch s;
        for (size_t br = begin; br < end; ++br) {
            for (size_t bc = 0; bc < block_cols; ++bc) {
                bool imp = false;
                bool trans = false;
                size_t aug = 0;
                const uint8_t nb = n[br * block_cols + bc];
                const SparsityDim dim = optimalBlockSolve(
                    job.scores, job.us, br, bc, m, nb, s, imp, trans, aug);
                for (size_t r = 0; r < m; ++r)
                    storeTile(out.mask, br * m + r, bc * m,
                              std::span(s.keep).subspan(r * m, m));
                out.meta.block(br, bc) = {nb, dim};
                improved[br] += imp;
                transposable[br] += trans;
                augments[br] += aug;
            }
        }
    });
    out.stats = {};
    out.stats.blocks = block_rows * block_cols;
    for (size_t br = 0; br < block_rows; ++br) {
        out.stats.improvedBlocks += improved[br];
        out.stats.transposableBlocks += transposable[br];
        out.stats.augmentations += augments[br];
    }
}

void
tbsGenerate(const MaskJob &job, MaskOutput &out)
{
    if (job.optimal)
        tbsMaskOptimal(job, out);
    else
        tbsMask(job, out);
}

/** Per-tile candidate keep counts of SlideSparse: {0, 1, ..., m-2}. */
std::vector<uint8_t>
slideSparseCandidates(size_t m)
{
    if (m < 4 || m % 2 != 0 || m - 2 > 255)
        fatal("SlideSparse requires an even block size m = 2N with "
              "4 <= m <= 256; got {}",
              m);
    std::vector<uint8_t> c(m - 1);
    for (size_t n = 0; n <= m - 2; ++n)
        c[n] = static_cast<uint8_t>(n);
    return c;
}

/**
 * SlideSparse (2N-2):2N mask (arxiv 2603.05232), with m = 2N. Every
 * m-element row tile keeps at most m-2 elements; the per-tile keep
 * count is chosen from the contiguous 0..m-2 ladder nearest the tile's
 * unstructured density, with the usual global largest-remainder pass
 * toward the target. Targets sparser than 2/m are unreachable (the cap
 * bites) and the mask saturates at m-2 per tile.
 */
void
ssMask(const MaskJob &job, MaskOutput &out)
{
    const Matrix &scores = job.scores;
    const size_t m = job.m;
    const size_t tiles_per_row = scores.cols() / m;

    // One fit unit per tile. fitCounts brackets a tile's unstructured
    // density on the contiguous 0..m-2 ladder, so tiles denser than
    // the (2N-2):2N cap saturate at m-2 and the largest-remainder pass
    // spreads the shortfall across the rest of the matrix.
    std::vector<FitUnit> units(scores.rows() * tiles_per_row);
    for (size_t r = 0; r < scores.rows(); ++r) {
        for (size_t t = 0; t < tiles_per_row; ++t) {
            units[r * tiles_per_row + t] = {
                static_cast<double>(job.us.rangeNnz(r, t * m, m)), 1};
        }
    }
    const std::vector<uint8_t> n =
        fitCounts(units, job.candidates, job.target);
    out.mask = rowTileMask(scores, m, [&](size_t r, size_t t) {
        return n[r * tiles_per_row + t];
    });
}

double
noMaskSpace(size_t, size_t, size_t)
{
    return 0.0;
}

double
usMaskSpace(size_t x, size_t y, size_t)
{
    return log2MaskSpaceUs(x, y);
}

/**
 * The pattern table, one row per Pattern in enum order. Every family
 * needs its columns to tile by m, with m in [1, maxM]; `blocks` and
 * `evenM` add to that.
 */
constexpr PatternSpec kPatterns[] = {
    {"Dense", false, false, 255, Step1::None, nullptr, noMaskSpace,
     denseMask},
    {"US", false, false, 255, Step1::Mask, nullptr, usMaskSpace,
     usGenerate},
    {"TS", false, false, 255, Step1::Distance, nullptr, log2MaskSpaceTs,
     tsMask},
    {"RS-V", false, false, 255, Step1::Mask, nullptr, log2MaskSpaceRsv,
     rsvMask},
    {"RS-H", false, false, 255, Step1::Mask, nullptr, log2MaskSpaceRsh,
     rshMask},
    {"TBS", true, false, 255, Step1::Mask, nullptr, log2MaskSpaceTbs,
     tbsGenerate},
    {"SS", false, true, 256, Step1::Mask, slideSparseCandidates,
     log2MaskSpaceSs, ssMask},
};
static_assert(std::size(kPatterns) == kPatternCount);

} // namespace

const PatternSpec &
patternSpec(Pattern p)
{
    const auto i = static_cast<size_t>(p);
    ensure(i < kPatternCount, "unknown Pattern");
    return kPatterns[i];
}

bool
validateTbs(const Mask &mask, const TbsMeta &meta)
{
    const size_t m = meta.m;
    if (mask.rows() != meta.blockRows * m
        || mask.cols() != meta.blockCols * m)
        return false;
    for (size_t br = 0; br < meta.blockRows; ++br) {
        for (size_t bc = 0; bc < meta.blockCols; ++bc) {
            const BlockInfo &info = meta.block(br, bc);
            for (size_t g = 0; g < m; ++g) {
                size_t nnz = 0;
                for (size_t i = 0; i < m; ++i) {
                    const size_t r = info.dim == SparsityDim::Reduction
                        ? g : i;
                    const size_t c = info.dim == SparsityDim::Reduction
                        ? i : g;
                    nnz += mask.at(br * m + r, bc * m + c);
                }
                if (nnz > info.n)
                    return false;
            }
        }
    }
    return true;
}

bool
validateTs(const Mask &mask, size_t n, size_t m)
{
    if (mask.cols() % m != 0)
        return false;
    for (size_t r = 0; r < mask.rows(); ++r) {
        for (size_t t = 0; t < mask.cols(); t += m) {
            size_t nnz = 0;
            for (size_t i = 0; i < m; ++i)
                nnz += mask.at(r, t + i);
            if (nnz > n)
                return false;
        }
    }
    return true;
}

bool
validateSlideSparse(const Mask &mask, size_t m)
{
    if (m < 4 || m % 2 != 0 || mask.cols() % m != 0)
        return false;
    for (size_t r = 0; r < mask.rows(); ++r) {
        for (size_t t = 0; t < mask.cols(); t += m) {
            if (mask.rangeNnz(r, t, m) > m - 2)
                return false;
        }
    }
    return true;
}

} // namespace tbstc::core
