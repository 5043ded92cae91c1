/**
 * @file
 * Sparse storage formats (paper Sec. V).
 *
 * Each encoding is a real byte-level representation built from an
 * actual mask. The simulator derives bandwidth behaviour from the
 * encoding's StreamProfile — the byte counts and access contiguity the
 * computation's block-ordered walk induces — rather than from
 * hard-coded per-format factors.
 *
 * Formats:
 *  - Dense: row-major fp16 payload, no metadata.
 *  - SDC: single-dimensional compression. Rows are compressed and then
 *    padded to the global maximum row occupancy so accesses stay
 *    regular (paper Fig. 7(a)); the padding is redundant traffic.
 *  - CSR: classic compressed sparse row; minimal bytes, but a
 *    block-ordered walk touches many short non-contiguous runs
 *    (paper Fig. 7(b)).
 *  - DDC: the paper's dual-dimensional compression (Fig. 8): a 16-bit
 *    per-block info entry (1b sparsity dim, 3b sparsity ratio N, 12b
 *    element offset) plus per-block payloads compressed along the
 *    block's own sparsity dimension, laid out in block-walk order.
 */

#ifndef TBSTC_FORMAT_ENCODING_HPP
#define TBSTC_FORMAT_ENCODING_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "core/matrix.hpp"
#include "core/pattern.hpp"

namespace tbstc::format {

/** Storage-format family. */
enum class StorageFormat : uint8_t
{
    Dense,
    SDC,
    CSR,
    DDC,
    Bitmap, ///< Values + one presence bit per position (RM-STC style).
};

/** Human-readable format name. */
std::string formatName(StorageFormat f);

/**
 * Byte-stream statistics of walking an encoding in computation order
 * (block-column major over M x M blocks, as the PE array consumes it).
 */
struct StreamProfile
{
    uint64_t payloadBytes = 0; ///< Bytes that must cross the memory bus.
    uint64_t usefulBytes = 0;  ///< Bytes carrying non-redundant content.
    uint64_t segments = 0;     ///< Contiguous runs in the walk.

    /** Fraction of traffic that is padding/duplication. */
    double
    redundancy() const
    {
        return payloadBytes == 0
            ? 0.0
            : 1.0 - static_cast<double>(usefulBytes) / payloadBytes;
    }

    /** Average contiguous-run length in bytes. */
    double
    avgSegmentBytes() const
    {
        return segments == 0
            ? 0.0
            : static_cast<double>(payloadBytes) / segments;
    }
};

/**
 * A materialized sparse-matrix encoding.
 *
 * decode() must reproduce exactly the masked matrix the encoding was
 * built from (lossless round trip at fp32 resolution; byte counts
 * model fp16 payloads).
 */
class Encoding
{
  public:
    virtual ~Encoding() = default;

    /** Format family of this encoding. */
    virtual StorageFormat format() const = 0;

    /** Total storage footprint in bytes (values + metadata). */
    virtual uint64_t storageBytes() const = 0;

    /** Reconstruct the (masked) dense matrix. */
    virtual core::Matrix decode() const = 0;

    /** Access statistics for a block-ordered walk with block size m. */
    virtual StreamProfile streamProfile(size_t m) const = 0;
};

/** Encode a dense matrix (no mask). */
std::unique_ptr<Encoding> encodeDense(const core::Matrix &w);

/** Encode the masked matrix in SDC (row-padded) layout. */
std::unique_ptr<Encoding>
encodeSdc(const core::Matrix &w, const core::Mask &mask);

/** Encode the masked matrix in CSR layout. */
std::unique_ptr<Encoding>
encodeCsr(const core::Matrix &w, const core::Mask &mask);

/**
 * Encode the masked matrix in DDC layout using the TBS metadata to
 * pick each block's compression dimension.
 */
std::unique_ptr<Encoding>
encodeDdc(const core::Matrix &w, const core::Mask &mask,
          const core::TbsMeta &meta);

/**
 * Encode the masked matrix as packed non-zero values plus a dense
 * presence bitmap, the format RM-STC's row-merge dataflow consumes.
 * Fully contiguous and unpadded, at one metadata bit per position.
 */
std::unique_ptr<Encoding>
encodeBitmap(const core::Matrix &w, const core::Mask &mask);

/**
 * The stream profile of encoding @p mask in format @p fmt for a walk
 * with block size @p m, computed from counts alone: equal to
 * encode<fmt>(w, mask[, meta])->streamProfile(m) for any weights w of
 * the mask's shape, without materializing the encoding.
 *
 *  - Dense: shape only.
 *  - SDC: per-row popcounts (pitch = max row nnz).
 *  - CSR: per-(row, m-column-group) popcounts, walked in block order.
 *  - DDC: @p meta only (blocks * info + m * sum(N) values and
 *    ceil(log2 meta.m)-bit indices); @p m is ignored, as in the
 *    encoder, and the mask must match the metadata grid.
 *  - Bitmap: shape and nnz.
 *
 * @p meta is read only for DDC. @p m must be > 0.
 */
StreamProfile streamProfile(StorageFormat fmt, const core::Mask &mask,
                            const core::TbsMeta &meta, size_t m);

} // namespace tbstc::format

#endif // TBSTC_FORMAT_ENCODING_HPP
