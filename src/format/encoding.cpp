#include "encoding.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/logging.hpp"

namespace tbstc::format {

using core::Mask;
using core::Matrix;
using core::SparsityDim;
using core::TbsMeta;
using util::ensure;

namespace {

constexpr uint64_t kValueBytes = 2;  ///< fp16 payload element.
constexpr uint64_t kIdxBytes = 2;    ///< 16-bit column/row index.
constexpr uint64_t kInfoBytes = 2;   ///< DDC per-block info entry.
constexpr uint64_t kRowPtrBytes = 4; ///< CSR row pointer.

/** Sentinel column marking an SDC padding slot. */
constexpr uint16_t kPadSlot = 0xffff;

/** DDC intra-group index width: ceil(log2 m) bits, at least 1. */
uint64_t
log2Bits(size_t m)
{
    uint64_t bits = 0;
    while ((1ull << bits) < m)
        ++bits;
    return bits == 0 ? 1 : bits;
}

/** Dense walk segments: accesses that do not continue the previous. */
uint64_t
denseSegments(uint64_t rows, uint64_t cols, uint64_t m)
{
    if (rows == 0 || cols == 0)
        return 0;
    if (cols <= m)
        return 1; // One block column: rows abut, the walk is linear.
    // Rows inside a block never abut (each is narrower than a matrix
    // row). A block-row's last access ends its last row, where the next
    // block-row starts, so block-row seams always merge; block seams
    // inside a block-row merge only when the block-row has one row.
    const uint64_t block_cols = (cols + m - 1) / m;
    uint64_t segments = 0;
    uint64_t block_rows = 0;
    for (uint64_t br = 0; br < rows; br += m, ++block_rows) {
        const uint64_t height = std::min(m, rows - br);
        segments += height == 1 ? 1 : height * block_cols;
    }
    return segments - (block_rows - 1);
}

/**
 * On-line merger of a walk's byte accesses into contiguous segments.
 * Feed (start, len) accesses in walk order; adjacent runs coalesce.
 */
class SegmentCounter
{
  public:
    void
    access(uint64_t start, uint64_t len)
    {
        if (len == 0)
            return;
        if (!(open_ && start == end_))
            ++segments_;
        open_ = true;
        end_ = start + len;
        bytes_ += len;
    }

    uint64_t segments() const { return segments_; }
    uint64_t bytes() const { return bytes_; }

  private:
    bool open_ = false;
    uint64_t end_ = 0;
    uint64_t segments_ = 0;
    uint64_t bytes_ = 0;
};

/** Dense row-major fp16 encoding. */
class DenseEncoding final : public Encoding
{
  public:
    explicit DenseEncoding(Matrix w) : w_(std::move(w)) {}

    StorageFormat format() const override { return StorageFormat::Dense; }

    uint64_t
    storageBytes() const override
    {
        return static_cast<uint64_t>(w_.size()) * kValueBytes;
    }

    Matrix decode() const override { return w_; }

    StreamProfile
    streamProfile(size_t m) const override
    {
        StreamProfile p;
        p.payloadBytes = storageBytes();
        p.usefulBytes = p.payloadBytes;
        SegmentCounter seg;
        const uint64_t row_bytes = w_.cols() * kValueBytes;
        for (size_t br = 0; br < w_.rows(); br += m) {
            for (size_t bc = 0; bc < w_.cols(); bc += m) {
                for (size_t r = 0; r < m && br + r < w_.rows(); ++r) {
                    const uint64_t start =
                        (br + r) * row_bytes + bc * kValueBytes;
                    const size_t width =
                        std::min(m, w_.cols() - bc) * kValueBytes;
                    seg.access(start, width);
                }
            }
        }
        p.segments = seg.segments();
        return p;
    }

  private:
    Matrix w_;
};

/** SDC: per-row compression padded to the global max row occupancy. */
class SdcEncoding final : public Encoding
{
  public:
    SdcEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "SDC mask shape mismatch");
        size_t max_nnz = 0;
        std::vector<std::vector<std::pair<uint16_t, float>>> row_data(rows_);
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                row_data[r].emplace_back(static_cast<uint16_t>(c),
                                         w.at(r, c));
            });
            max_nnz = std::max(max_nnz, row_data[r].size());
            nnz_ += row_data[r].size();
        }
        pitch_ = max_nnz;
        cols_idx_.assign(rows_ * pitch_, kPadSlot);
        values_.assign(rows_ * pitch_, 0.0f);
        for (size_t r = 0; r < rows_; ++r) {
            for (size_t i = 0; i < row_data[r].size(); ++i) {
                cols_idx_[r * pitch_ + i] = row_data[r][i].first;
                values_[r * pitch_ + i] = row_data[r][i].second;
            }
        }
    }

    StorageFormat format() const override { return StorageFormat::SDC; }

    uint64_t
    storageBytes() const override
    {
        return static_cast<uint64_t>(rows_) * pitch_
            * (kValueBytes + kIdxBytes);
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t i = 0; i < pitch_; ++i)
                if (cols_idx_[r * pitch_ + i] != kPadSlot)
                    w.at(r, cols_idx_[r * pitch_ + i]) =
                        values_[r * pitch_ + i];
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        // SDC's whole point is regular row-aligned streaming: the padded
        // rows are read end to end, one long contiguous run, and the
        // padding slots are the redundant traffic (paper Fig. 7(a)).
        StreamProfile p;
        p.payloadBytes = storageBytes();
        p.usefulBytes = nnz_ * (kValueBytes + kIdxBytes);
        p.segments = 1;
        return p;
    }

    size_t pitch() const { return pitch_; }

  private:
    size_t rows_;
    size_t cols_;
    size_t pitch_ = 0; ///< Padded slots per row (global max nnz).
    uint64_t nnz_ = 0;
    std::vector<uint16_t> cols_idx_;
    std::vector<float> values_;
};

/** Classic CSR. */
class CsrEncoding final : public Encoding
{
  public:
    CsrEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "CSR mask shape mismatch");
        row_ptr_.push_back(0);
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                col_idx_.push_back(static_cast<uint16_t>(c));
                values_.push_back(w.at(r, c));
            });
            row_ptr_.push_back(static_cast<uint32_t>(col_idx_.size()));
        }
    }

    StorageFormat format() const override { return StorageFormat::CSR; }

    uint64_t
    storageBytes() const override
    {
        return values_.size() * (kValueBytes + kIdxBytes)
            + row_ptr_.size() * kRowPtrBytes;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        for (size_t r = 0; r < rows_; ++r)
            for (uint32_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
                w.at(r, col_idx_[i]) = values_[i];
        return w;
    }

    StreamProfile
    streamProfile(size_t m) const override
    {
        // The PE array consumes M x M blocks, but CSR packs by full
        // row: every block touches a short run inside each of its rows'
        // value and index arrays (paper Fig. 7(b)).
        StreamProfile p;
        SegmentCounter seg;
        // Values and indices stream as interleaved (value, index)
        // pairs, as a hardware CSR walker would lay them out.
        const uint64_t pair = kValueBytes + kIdxBytes;
        for (size_t br = 0; br < rows_; br += m) {
            for (size_t bc = 0; bc < cols_; bc += m) {
                for (size_t r = br; r < std::min(br + m, rows_); ++r) {
                    // Entries of row r within [bc, bc+m) are contiguous
                    // in CSR order; locate them.
                    uint32_t lo = row_ptr_[r];
                    while (lo < row_ptr_[r + 1] && col_idx_[lo] < bc)
                        ++lo;
                    uint32_t hi = lo;
                    while (hi < row_ptr_[r + 1] && col_idx_[hi] < bc + m)
                        ++hi;
                    seg.access(lo * pair, (hi - lo) * pair);
                }
            }
        }
        const uint64_t ptr_bytes = row_ptr_.size() * kRowPtrBytes;
        p.payloadBytes = seg.bytes() + ptr_bytes;
        p.usefulBytes = p.payloadBytes;
        p.segments = seg.segments() + 1;
        return p;
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<uint32_t> row_ptr_;
    std::vector<uint16_t> col_idx_;
    std::vector<float> values_;
};

/** The paper's dual-dimensional compression. */
class DdcEncoding final : public Encoding
{
  public:
    DdcEncoding(const Matrix &w, const Mask &mask, const TbsMeta &meta)
        : rows_(w.rows()), cols_(w.cols()), meta_(meta)
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "DDC mask shape mismatch");
        ensure(rows_ == meta.blockRows * meta.m
                   && cols_ == meta.blockCols * meta.m,
               "DDC metadata grid mismatch");
        const size_t m = meta.m;
        for (size_t br = 0; br < meta.blockRows; ++br) {
            for (size_t bc = 0; bc < meta.blockCols; ++bc) {
                const auto &info = meta.block(br, bc);
                offsets_.push_back(static_cast<uint32_t>(values_.size()));
                // Groups run along the block's sparsity dimension; each
                // group stores exactly N entries (slots beyond the
                // group's population are zero padding inside the block,
                // which TBS generation never produces).
                for (size_t g = 0; g < m; ++g) {
                    size_t emitted = 0;
                    if (info.dim == SparsityDim::Reduction && m <= 64) {
                        // Row group: grab the block row's bits in one
                        // word and walk only the set positions.
                        uint64_t bits =
                            mask.rowBits(br * m + g, bc * m, m);
                        while (bits != 0 && emitted < info.n) {
                            const auto e = static_cast<size_t>(
                                std::countr_zero(bits));
                            bits &= bits - 1;
                            values_.push_back(
                                w.at(br * m + g, bc * m + e));
                            intra_idx_.push_back(static_cast<uint8_t>(e));
                            ++emitted;
                        }
                    } else {
                        for (size_t e = 0; e < m && emitted < info.n;
                             ++e) {
                            const size_t r =
                                info.dim == SparsityDim::Reduction ? g : e;
                            const size_t c =
                                info.dim == SparsityDim::Reduction ? e : g;
                            if (mask.at(br * m + r, bc * m + c)) {
                                values_.push_back(
                                    w.at(br * m + r, bc * m + c));
                                intra_idx_.push_back(
                                    static_cast<uint8_t>(e));
                                ++emitted;
                            }
                        }
                    }
                    for (; emitted < info.n; ++emitted) {
                        values_.push_back(0.0f);
                        intra_idx_.push_back(0);
                    }
                }
            }
        }
    }

    StorageFormat format() const override { return StorageFormat::DDC; }

    uint64_t
    storageBytes() const override
    {
        const uint64_t info = meta_.blocks.size() * kInfoBytes;
        const uint64_t vals = values_.size() * kValueBytes;
        // ceil(log2 m)-bit intra-group indices, bit-packed.
        const uint64_t idx_bits =
            static_cast<uint64_t>(intra_idx_.size()) * log2Bits(meta_.m);
        return info + vals + (idx_bits + 7) / 8;
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        const size_t m = meta_.m;
        size_t cursor = 0;
        for (size_t br = 0; br < meta_.blockRows; ++br) {
            for (size_t bc = 0; bc < meta_.blockCols; ++bc) {
                const auto &info = meta_.block(br, bc);
                for (size_t g = 0; g < m; ++g) {
                    for (size_t k = 0; k < info.n; ++k, ++cursor) {
                        const size_t e = intra_idx_[cursor];
                        const float v = values_[cursor];
                        if (v == 0.0f)
                            continue; // Padding slot.
                        const size_t r = info.dim == SparsityDim::Reduction
                            ? g : e;
                        const size_t c = info.dim == SparsityDim::Reduction
                            ? e : g;
                        w.at(br * m + r, bc * m + c) = v;
                    }
                }
            }
        }
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        // Payloads are laid out in exactly the walk order, so the whole
        // stream is one contiguous run; the info table is a second.
        StreamProfile p;
        p.payloadBytes = storageBytes();
        p.usefulBytes = p.payloadBytes;
        p.segments = 2;
        return p;
    }

  private:
    size_t rows_;
    size_t cols_;
    TbsMeta meta_;
    std::vector<uint32_t> offsets_;
    std::vector<float> values_;
    std::vector<uint8_t> intra_idx_;
};

/** RM-STC style values + presence bitmap. */
class BitmapEncoding final : public Encoding
{
  public:
    BitmapEncoding(const Matrix &w, const Mask &mask)
        : rows_(w.rows()), cols_(w.cols())
    {
        ensure(mask.rows() == rows_ && mask.cols() == cols_,
               "Bitmap mask shape mismatch");
        bits_.assign((rows_ * cols_ + 7) / 8, 0);
        for (size_t r = 0; r < rows_; ++r) {
            mask.forEachSet(r, [&](size_t c) {
                const size_t pos = r * cols_ + c;
                bits_[pos / 8] |= static_cast<uint8_t>(1u << (pos % 8));
                values_.push_back(w.at(r, c));
            });
        }
    }

    StorageFormat format() const override { return StorageFormat::Bitmap; }

    uint64_t
    storageBytes() const override
    {
        return values_.size() * kValueBytes + bits_.size();
    }

    Matrix
    decode() const override
    {
        Matrix w(rows_, cols_);
        size_t cursor = 0;
        for (size_t pos = 0; pos < rows_ * cols_; ++pos)
            if (bits_[pos / 8] & (1u << (pos % 8)))
                w.data()[pos] = values_[cursor++];
        return w;
    }

    StreamProfile
    streamProfile(size_t /* m */) const override
    {
        // Row-merge hardware streams values and bitmap sequentially and
        // reassembles blocks on chip; both arrays are contiguous.
        StreamProfile p;
        p.payloadBytes = storageBytes();
        p.usefulBytes = p.payloadBytes;
        p.segments = 2;
        return p;
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<uint8_t> bits_;
    std::vector<float> values_;
};

} // namespace

std::string
formatName(StorageFormat f)
{
    switch (f) {
      case StorageFormat::Dense: return "Dense";
      case StorageFormat::SDC:   return "SDC";
      case StorageFormat::CSR:   return "CSR";
      case StorageFormat::DDC:   return "DDC";
      case StorageFormat::Bitmap: return "Bitmap";
    }
    util::panic("unknown StorageFormat");
}

std::unique_ptr<Encoding>
encodeDense(const Matrix &w)
{
    return std::make_unique<DenseEncoding>(w);
}

std::unique_ptr<Encoding>
encodeSdc(const Matrix &w, const Mask &mask)
{
    return std::make_unique<SdcEncoding>(w, mask);
}

std::unique_ptr<Encoding>
encodeCsr(const Matrix &w, const Mask &mask)
{
    return std::make_unique<CsrEncoding>(w, mask);
}

std::unique_ptr<Encoding>
encodeDdc(const Matrix &w, const Mask &mask, const TbsMeta &meta)
{
    return std::make_unique<DdcEncoding>(w, mask, meta);
}

std::unique_ptr<Encoding>
encodeBitmap(const Matrix &w, const Mask &mask)
{
    return std::make_unique<BitmapEncoding>(w, mask);
}

StreamProfile
streamProfile(StorageFormat fmt, const Mask &mask, const TbsMeta &meta,
              size_t m)
{
    ensure(m > 0, "streamProfile requires m > 0");
    const uint64_t rows = mask.rows();
    const uint64_t cols = mask.cols();
    StreamProfile p;
    switch (fmt) {
      case StorageFormat::Dense:
        p.payloadBytes = rows * cols * kValueBytes;
        p.usefulBytes = p.payloadBytes;
        p.segments = denseSegments(rows, cols, m);
        return p;
      case StorageFormat::SDC: {
        uint64_t pitch = 0;
        for (size_t r = 0; r < rows; ++r)
            pitch = std::max(pitch, mask.rangeNnz(r, 0, cols));
        p.payloadBytes = rows * pitch * (kValueBytes + kIdxBytes);
        p.usefulBytes = mask.nnz() * (kValueBytes + kIdxBytes);
        p.segments = 1;
        return p;
      }
      case StorageFormat::CSR: {
        // The encoder's block walk over interleaved (value, index)
        // pairs: a row's entries in one m-column group are contiguous,
        // at the row's start plus the entries left of the group.
        const uint64_t pair = kValueBytes + kIdxBytes;
        std::vector<uint64_t> row_start(rows + 1, 0);
        for (size_t r = 0; r < rows; ++r)
            row_start[r + 1] = row_start[r] + mask.rangeNnz(r, 0, cols);
        SegmentCounter seg;
        std::vector<uint64_t> cursor(m);
        for (size_t br = 0; br < rows; br += m) {
            const size_t height = std::min<size_t>(m, rows - br);
            for (size_t i = 0; i < height; ++i)
                cursor[i] = row_start[br + i];
            for (size_t bc = 0; bc < cols; bc += m) {
                const size_t width = std::min<size_t>(m, cols - bc);
                for (size_t i = 0; i < height; ++i) {
                    const uint64_t n = mask.rangeNnz(br + i, bc, width);
                    seg.access(cursor[i] * pair, n * pair);
                    cursor[i] += n;
                }
            }
        }
        p.payloadBytes = seg.bytes() + (rows + 1) * kRowPtrBytes;
        p.usefulBytes = p.payloadBytes;
        p.segments = seg.segments() + 1;
        return p;
      }
      case StorageFormat::DDC: {
        ensure(rows == meta.blockRows * meta.m
                   && cols == meta.blockCols * meta.m,
               "DDC metadata grid mismatch");
        uint64_t n_sum = 0;
        for (const auto &info : meta.blocks)
            n_sum += info.n;
        const uint64_t values = meta.m * n_sum;
        p.payloadBytes = meta.blocks.size() * kInfoBytes
            + values * kValueBytes
            + (values * log2Bits(meta.m) + 7) / 8;
        p.usefulBytes = p.payloadBytes;
        p.segments = 2;
        return p;
      }
      case StorageFormat::Bitmap:
        p.payloadBytes = mask.nnz() * kValueBytes + (rows * cols + 7) / 8;
        p.usefulBytes = p.payloadBytes;
        p.segments = 2;
        return p;
    }
    util::panic("unknown StorageFormat");
}

} // namespace tbstc::format
