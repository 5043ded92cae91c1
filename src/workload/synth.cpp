#include "synth.hpp"

#include <algorithm>
#include <cmath>

#include "obs/stage.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tbstc::workload {

using core::Matrix;
using util::Rng;

uint64_t
nameHash(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

/**
 * Rows per region-scale refresh. Chunks of the parallel transform
 * start on these boundaries, so each resumes with a fresh row_block.
 */
constexpr uint64_t kRowBlock = 8;

/**
 * Chunk count for synthWeights at the current pool size: one (no word
 * pass at all) when serial, else a few per worker for load balance.
 */
size_t
defaultChunks()
{
    const size_t threads = util::effectiveThreads();
    return threads > 1 ? threads * 4 : 1;
}

} // namespace

Matrix
synthFromStream(Rng rng, uint64_t rows, uint64_t cols, size_t chunks)
{
    Matrix w(rows, cols);

    // Trained DNN weights are not i.i.d.: magnitudes vary per output
    // channel (row), per input feature (column), and regionally (e.g.
    // filter groups). This structured variance is what makes whole
    // blocks dense or empty after global-threshold pruning — the
    // effect paper Fig. 17 measures — and what makes SDC's row
    // padding expensive. Log-normal scale fields reproduce it.
    // Output-channel (row) variance dominates in trained nets, which
    // is why the paper's Fig. 17 finds mostly column-direction blocks:
    // a block whose kept mass sits in a few hot rows is matched best
    // by a per-column top-N mask.
    std::vector<double> col_scale(cols);
    for (auto &s : col_scale)
        s = std::exp(rng.gaussian(0.0, 0.25));
    std::vector<double> col_block_scale((cols + 7) / 8);
    for (auto &s : col_block_scale)
        s = std::exp(rng.gaussian(0.0, 0.35));

    // Chunk c covers row blocks [c * per, (c + 1) * per).
    const uint64_t row_blocks = (rows + kRowBlock - 1) / kRowBlock;
    const uint64_t per = std::max<uint64_t>(
        1, (row_blocks + chunks - 1) / std::max<size_t>(chunks, 1));
    const auto n_chunks = static_cast<size_t>(
        std::max<uint64_t>(1, (row_blocks + per - 1) / per));
    const auto chunkRow = [&](size_t c) {
        return std::min<uint64_t>(rows, c * per * kRowBlock);
    };

    // Word pass: walk the stream serially, consuming exactly the words
    // the transform below draws, and checkpoint it at each chunk start.
    std::vector<Rng::State> starts(n_chunks);
    {
        static const obs::Stage stage("workload.synth.words");
        const obs::ScopedStage timed(stage);
        size_t next_chunk = 0;
        const uint64_t last_start = chunkRow(n_chunks - 1);
        for (uint64_t r = 0; r < last_start; ++r) {
            if (r == chunkRow(next_chunk))
                starts[next_chunk++] = rng.state();
            if (r % kRowBlock == 0)
                rng.skipGaussian();
            rng.skipGaussian();
            rng.skipHeavyTails(cols);
        }
        while (next_chunk < n_chunks)
            starts[next_chunk++] = rng.state();
    }

    // Transform: each chunk resumes its checkpoint and draws its rows
    // exactly as one serial walk would, so any chunking (and any
    // thread count) yields the same bits.
    static const obs::Stage stage("workload.synth.transform");
    const obs::ScopedStage timed(stage);
    util::runChunked(n_chunks, [&](size_t chunk) {
        Rng local(starts[chunk]);
        double row_block = 1.0;
        for (uint64_t r = chunkRow(chunk); r < chunkRow(chunk + 1); ++r) {
            // Row-block (region) scale refreshes every 8 rows so it is
            // identical whether or not later rows get sampled away.
            if (r % kRowBlock == 0)
                row_block = std::exp(local.gaussian(0.0, 0.7));
            const double row_scale =
                std::exp(local.gaussian(0.0, 0.6)) * row_block;
            for (uint64_t c = 0; c < cols; ++c) {
                w.at(r, c) = static_cast<float>(
                    local.heavyTail() * 0.02 * row_scale * col_scale[c]
                    * col_block_scale[c / 8]);
            }
        }
    });
    return w;
}

Matrix
synthWeights(const GemmShape &shape, uint64_t seed, uint64_t max_rows)
{
    uint64_t rows = shape.x;
    if (max_rows > 0)
        rows = std::min<uint64_t>(rows, max_rows);
    return synthFromStream(Rng(seed ^ nameHash(shape.name)), rows,
                           shape.y, defaultChunks());
}

Matrix
synthActivations(uint64_t samples, uint64_t features, uint64_t seed)
{
    Rng rng(seed ^ 0x9d2c5680u);
    Matrix x(samples, features);
    // Activations after a ReLU-ish nonlinearity: non-negative, with
    // per-feature scale diversity (some channels systematically hot),
    // which is exactly what the Wanda criterion exploits.
    std::vector<double> channel_scale(features);
    for (auto &s : channel_scale)
        s = std::exp(rng.gaussian(0.0, 0.7));
    for (uint64_t i = 0; i < samples; ++i)
        for (uint64_t f = 0; f < features; ++f)
            x.at(i, f) = static_cast<float>(
                std::max(0.0, rng.gaussian(0.0, channel_scale[f])));
    return x;
}

} // namespace tbstc::workload
