/**
 * @file
 * Unit tests for the sparse storage formats (Dense/SDC/CSR/DDC/Bitmap).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "core/prune.hpp"
#include "core/sparsify.hpp"
#include "format/encoding.hpp"
#include "util/rng.hpp"
#include "workload/synth.hpp"

namespace {

using namespace tbstc::core;
using namespace tbstc::format;
using tbstc::util::Rng;

struct Fixture
{
    Matrix w;
    Matrix scores;
    Mask us;
    TbsResult tbs;

    explicit Fixture(uint64_t seed, size_t rows = 64, size_t cols = 64,
                     double sparsity = 0.5)
    {
        w = tbstc::workload::synthWeights(
            {"fmt-probe", rows, cols, 1}, seed);
        scores = magnitudeScores(w);
        us = usMask(scores, sparsity);
        tbs = tbsMask(scores, sparsity, 8, defaultCandidates(8));
    }
};

TEST(DenseEncoding, RoundTripAndBytes)
{
    Fixture f(1);
    const auto enc = encodeDense(f.w);
    EXPECT_EQ(enc->format(), StorageFormat::Dense);
    EXPECT_EQ(enc->decode(), f.w);
    EXPECT_EQ(enc->storageBytes(), 64u * 64u * 2u);
}

TEST(DenseEncoding, StreamIsFullyUseful)
{
    Fixture f(2);
    const auto p = encodeDense(f.w)->streamProfile(8);
    EXPECT_EQ(p.payloadBytes, p.usefulBytes);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
    EXPECT_GT(p.segments, 1u); // Block walk breaks rows.
}

TEST(SdcEncoding, RoundTrip)
{
    Fixture f(3);
    const auto enc = encodeSdc(f.w, f.tbs.mask);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(SdcEncoding, PaddingRedundancyOnTbs)
{
    // TBS has non-uniform per-row occupancy, so SDC's row padding
    // creates redundant traffic (paper Fig. 7(a)); at 75% sparsity
    // the paper reports > 61% redundancy.
    Fixture f(4, 128, 128, 0.75);
    const auto p = encodeSdc(f.w, f.tbs.mask)->streamProfile(8);
    EXPECT_GT(p.redundancy(), 0.35);
    EXPECT_EQ(p.segments, 1u); // But fully contiguous.
}

TEST(SdcEncoding, NoPaddingOnUniformTs)
{
    // A fixed 4:8 tile mask gives every row identical occupancy: SDC
    // becomes padding-free (why STC ships it).
    Fixture f(5);
    const Mask ts = tsMask(f.scores, 4, 8);
    const auto p = encodeSdc(f.w, ts)->streamProfile(8);
    EXPECT_NEAR(p.redundancy(), 0.0, 1e-9);
}

TEST(CsrEncoding, RoundTrip)
{
    Fixture f(6);
    const auto enc = encodeCsr(f.w, f.tbs.mask);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(CsrEncoding, MinimalBytesButFragmented)
{
    Fixture f(7, 128, 128, 0.75);
    const auto csr = encodeCsr(f.w, f.tbs.mask)->streamProfile(8);
    const auto sdc = encodeSdc(f.w, f.tbs.mask)->streamProfile(8);
    // CSR carries fewer bytes than padded SDC...
    EXPECT_LT(csr.payloadBytes, sdc.payloadBytes);
    // ...but in thousands of short runs instead of one.
    EXPECT_GT(csr.segments, 1000u);
    EXPECT_LT(csr.avgSegmentBytes(), 64.0);
}

TEST(DdcEncoding, RoundTrip)
{
    Fixture f(8);
    const auto enc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(DdcEncoding, RoundTripAtHighSparsity)
{
    Fixture f(9, 64, 64, 0.875);
    const auto enc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.tbs.mask));
}

TEST(DdcEncoding, ContiguousAndUnpadded)
{
    Fixture f(10, 128, 128, 0.75);
    const auto p =
        encodeDdc(f.w, f.tbs.mask, f.tbs.meta)->streamProfile(8);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
    EXPECT_EQ(p.segments, 2u);
}

TEST(DdcEncoding, SmallerThanSdcOnTbs)
{
    Fixture f(11, 128, 128, 0.75);
    const auto ddc = encodeDdc(f.w, f.tbs.mask, f.tbs.meta);
    const auto sdc = encodeSdc(f.w, f.tbs.mask);
    EXPECT_LT(ddc->storageBytes(), sdc->storageBytes());
}

TEST(DdcEncoding, InfoTableAccounted)
{
    // Storage must include the 16-bit info entry per block plus packed
    // 3-bit indices: check against a hand computation for a fully
    // dense "TBS" matrix (every block 8:8).
    Matrix w(16, 16);
    for (size_t i = 0; i < w.size(); ++i)
        w.data()[i] = static_cast<float>(i + 1);
    const Matrix scores = magnitudeScores(w);
    const TbsResult res = tbsMask(scores, 0.0, 8, defaultCandidates(8));
    const auto enc = encodeDdc(w, res.mask, res.meta);
    const uint64_t blocks = 4;
    const uint64_t values = 16 * 16 * 2;
    const uint64_t indices = (16 * 16 * 3 + 7) / 8;
    EXPECT_EQ(enc->storageBytes(), blocks * 2 + values + indices);
}

TEST(BitmapEncoding, RoundTrip)
{
    Fixture f(12);
    const auto enc = encodeBitmap(f.w, f.us);
    EXPECT_EQ(enc->decode(), applyMask(f.w, f.us));
}

TEST(BitmapEncoding, BytesAreValuesPlusBitmap)
{
    Fixture f(13);
    const auto enc = encodeBitmap(f.w, f.us);
    EXPECT_EQ(enc->storageBytes(),
              f.us.nnz() * 2 + (64 * 64 + 7) / 8);
    const auto p = enc->streamProfile(8);
    EXPECT_EQ(p.segments, 2u);
    EXPECT_DOUBLE_EQ(p.redundancy(), 0.0);
}

/** Every format's encoder, for the closed-form differential. */
std::unique_ptr<Encoding>
encodeAs(StorageFormat fmt, const Matrix &w, const Mask &mask,
         const TbsMeta &meta)
{
    switch (fmt) {
      case StorageFormat::Dense:  return encodeDense(w);
      case StorageFormat::SDC:    return encodeSdc(w, mask);
      case StorageFormat::CSR:    return encodeCsr(w, mask);
      case StorageFormat::DDC:    return encodeDdc(w, mask, meta);
      case StorageFormat::Bitmap: return encodeBitmap(w, mask);
    }
    return nullptr;
}

constexpr StorageFormat kAllFormats[] = {
    StorageFormat::Dense, StorageFormat::SDC, StorageFormat::CSR,
    StorageFormat::DDC, StorageFormat::Bitmap};

void
expectClosedFormMatches(StorageFormat fmt, const Matrix &w,
                        const Mask &mask, const TbsMeta &meta, size_t m)
{
    SCOPED_TRACE(formatName(fmt) + " " + std::to_string(mask.rows()) + "x"
                 + std::to_string(mask.cols()) + " m="
                 + std::to_string(m));
    const StreamProfile want = encodeAs(fmt, w, mask, meta)->streamProfile(m);
    const StreamProfile got = streamProfile(fmt, mask, meta, m);
    EXPECT_EQ(got.payloadBytes, want.payloadBytes);
    EXPECT_EQ(got.usefulBytes, want.usefulBytes);
    EXPECT_EQ(got.segments, want.segments);
}

/** Random mask whose rows range from empty to full. */
Mask
fuzzMask(Rng &rng, size_t rows, size_t cols)
{
    Mask mask(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t mode = rng.below(6);
        const double density = mode == 0 ? 0.0
            : mode == 1                  ? 1.0
                                         : rng.uniform();
        for (size_t c = 0; c < cols; ++c)
            mask.at(r, c) = rng.uniform() < density ? 1 : 0;
    }
    return mask;
}

/** Random per-block metadata on the mask's block grid. */
TbsMeta
fuzzMeta(Rng &rng, size_t rows, size_t cols, size_t m)
{
    TbsMeta meta;
    meta.m = m;
    meta.blockRows = rows / m;
    meta.blockCols = cols / m;
    meta.blocks.resize(meta.blockRows * meta.blockCols);
    for (auto &b : meta.blocks)
        b = {static_cast<uint8_t>(rng.below(m + 1)),
             rng.below(2) == 0 ? SparsityDim::Reduction
                               : SparsityDim::Independent};
    return meta;
}

TEST(StreamProfileClosedForm, MatchesEncodersOnFuzzedGeometries)
{
    Rng rng(2024);
    for (size_t m : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
        for (int trial = 0; trial < 12; ++trial) {
            // Block-aligned shapes for every format, DDC included.
            const size_t rows = m * (1 + rng.below(6));
            const size_t cols = m * (1 + rng.below(9));
            Matrix w(rows, cols);
            for (auto &v : w.data())
                v = static_cast<float>(rng.gaussian());
            const Mask mask = fuzzMask(rng, rows, cols);
            const TbsMeta meta = fuzzMeta(rng, rows, cols, m);
            for (StorageFormat fmt : kAllFormats)
                expectClosedFormMatches(fmt, w, mask, meta, m);

            // Ragged tails: block-unaligned shapes for the formats
            // that accept them (DDC needs the block grid).
            const size_t rr = 1 + rng.below(3 * m);
            const size_t rc = 1 + rng.below(5 * m);
            Matrix rw(rr, rc);
            const Mask rmask = fuzzMask(rng, rr, rc);
            for (StorageFormat fmt : kAllFormats)
                if (fmt != StorageFormat::DDC)
                    expectClosedFormMatches(fmt, rw, rmask, {}, m);
        }
    }
}

TEST(StreamProfileClosedForm, EmptyAndFullMasks)
{
    for (size_t m : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
        const size_t rows = 2 * m;
        const size_t cols = 3 * m;
        const Matrix w(rows, cols);
        Mask empty(rows, cols);
        Mask full(rows, cols);
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                full.at(r, c) = 1;
        TbsMeta meta;
        meta.m = m;
        meta.blockRows = 2;
        meta.blockCols = 3;
        meta.blocks.assign(6, {0, SparsityDim::Reduction});
        for (StorageFormat fmt : kAllFormats)
            expectClosedFormMatches(fmt, w, empty, meta, m);
        meta.blocks.assign(6, {static_cast<uint8_t>(m),
                               SparsityDim::Reduction});
        for (StorageFormat fmt : kAllFormats)
            expectClosedFormMatches(fmt, w, full, meta, m);
    }
    // Degenerate shapes: one row, one column, a single element.
    for (auto [r, c] : {std::pair<size_t, size_t>{1, 37}, {37, 1}, {1, 1}}) {
        const Matrix w(r, c);
        Mask mask(r, c);
        mask.at(0, 0) = 1;
        for (StorageFormat fmt : kAllFormats)
            if (fmt != StorageFormat::DDC)
                expectClosedFormMatches(fmt, w, mask, {}, 8);
    }
}

TEST(StreamProfileClosedForm, TbsMasksWithDensifiedBlocks)
{
    // The profile builder's real inputs: Alg. 1 masks, with some
    // independent-dimension blocks densified the way hardware without
    // the codec falls back.
    for (size_t m : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
        const size_t rows = 4 * m;
        const size_t cols = 6 * m;
        const Matrix w = tbstc::workload::synthWeights(
            {"closed-form", rows, cols, 1}, m);
        const Matrix scores = magnitudeScores(w);
        TbsResult tbs = tbsMask(scores, 0.625, m, defaultCandidates(m));
        for (StorageFormat fmt : kAllFormats)
            expectClosedFormMatches(fmt, w, tbs.mask, tbs.meta, m);
        size_t densified = 0;
        for (size_t br = 0; br < tbs.meta.blockRows; ++br) {
            for (size_t bc = 0; bc < tbs.meta.blockCols; ++bc) {
                auto &info = tbs.meta.block(br, bc);
                if (info.dim != SparsityDim::Independent
                    || (br + bc) % 2 != 0)
                    continue;
                info = {static_cast<uint8_t>(m), SparsityDim::Reduction};
                for (size_t r = 0; r < m; ++r)
                    for (size_t c = 0; c < m; ++c)
                        tbs.mask.at(br * m + r, bc * m + c) = 1;
                ++densified;
            }
        }
        EXPECT_GT(densified, 0u);
        for (StorageFormat fmt : kAllFormats)
            expectClosedFormMatches(fmt, w, tbs.mask, tbs.meta, m);
    }
}

TEST(FormatName, AllNamed)
{
    EXPECT_EQ(formatName(StorageFormat::Dense), "Dense");
    EXPECT_EQ(formatName(StorageFormat::SDC), "SDC");
    EXPECT_EQ(formatName(StorageFormat::CSR), "CSR");
    EXPECT_EQ(formatName(StorageFormat::DDC), "DDC");
    EXPECT_EQ(formatName(StorageFormat::Bitmap), "Bitmap");
}

} // namespace
