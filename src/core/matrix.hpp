/**
 * @file
 * Dense matrix and binary mask containers shared by every subsystem.
 *
 * Conventions (paper Fig. 3(a)): in the SpMM D = A x B + C the sparse
 * operand A has shape rows x cols where @b cols is the reduction
 * dimension (contracted with B) and @b rows is the independent dimension
 * (survives into D). "Row-wise" N:M sparsity groups M consecutive
 * elements along a row (i.e. along the reduction dimension); "column-wise"
 * groups along a column (the independent dimension).
 */

#ifndef TBSTC_CORE_MATRIX_HPP
#define TBSTC_CORE_MATRIX_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tbstc::core {

/** Row-major dense float matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a rows x cols matrix of zeros. */
    Matrix(size_t rows, size_t cols);

    /** Construct from existing row-major data (size must match). */
    Matrix(size_t rows, size_t cols, std::vector<float> data);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }

    float &at(size_t r, size_t c) { return data_[r * cols_ + c]; }
    float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    std::span<float> data() { return data_; }
    std::span<const float> data() const { return data_; }

    /** Mutable view of one row. */
    std::span<float> row(size_t r) { return {&data_[r * cols_], cols_}; }
    std::span<const float>
    row(size_t r) const
    {
        return {&data_[r * cols_], cols_};
    }

    /** Transposed copy. */
    Matrix transposed() const;

    /** Sum of |a_ij|. */
    double absSum() const;

    /** Frobenius norm. */
    double frobenius() const;

    bool operator==(const Matrix &other) const = default;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * Binary keep/drop mask over a matrix (1 = keep), bit-packed.
 *
 * Storage is 64 elements per word, row-aligned: every row starts on a
 * word boundary (wordsPerRow() words per row) and the pad bits past the
 * last column of a row are always zero. That invariant makes the
 * defaulted operator== exact and lets nnz/overlap/agreement/hamming run
 * as word-wise popcounts without per-word tail masking.
 *
 * The element accessors keep the historical byte semantics: const
 * at(r, c) yields a uint8_t 0/1 and the mutable overload returns a
 * proxy assignable from any integer (non-zero sets the bit), so callers
 * written against the old byte-per-element Mask compile unchanged.
 */
class Mask
{
  public:
    /** Assignable proxy for a single mask bit. */
    class BitRef
    {
      public:
        BitRef(uint64_t *word, unsigned bit) : word_(word), bit_(bit) {}

        BitRef &
        operator=(uint8_t v)
        {
            const uint64_t m = uint64_t{1} << bit_;
            if (v != 0)
                *word_ |= m;
            else
                *word_ &= ~m;
            return *this;
        }

        BitRef &
        operator=(const BitRef &o)
        {
            return *this = static_cast<uint8_t>(o);
        }

        operator uint8_t() const
        {
            return static_cast<uint8_t>((*word_ >> bit_) & 1u);
        }

      private:
        uint64_t *word_;
        unsigned bit_;
    };

    Mask() = default;

    /** Construct a rows x cols mask, all dropped. */
    Mask(size_t rows, size_t cols);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return rows_ * cols_; }

    uint8_t
    at(size_t r, size_t c) const
    {
        return static_cast<uint8_t>(
            (words_[r * wpr_ + (c >> 6)] >> (c & 63)) & 1u);
    }

    BitRef
    at(size_t r, size_t c)
    {
        return {&words_[r * wpr_ + (c >> 6)],
                static_cast<unsigned>(c & 63)};
    }

    /** Bit at flat row-major index i, i.e. at(i / cols, i % cols). */
    uint8_t bit(size_t i) const { return at(i / cols_, i % cols_); }

    /** Row-major byte image (one 0/1 byte per element). */
    std::vector<uint8_t> toBytes() const;

    /** Packed words, row-aligned at wordsPerRow() words per row. */
    std::span<const uint64_t> words() const { return words_; }
    size_t wordsPerRow() const { return wpr_; }

    /** Up to 64 bits [c0, c0+len) of row r; bit 0 is column c0. */
    uint64_t
    rowBits(size_t r, size_t c0, size_t len) const
    {
        if (len == 0)
            return 0;
        const uint64_t *row = words_.data() + r * wpr_;
        const size_t w = c0 >> 6;
        const auto b = static_cast<unsigned>(c0 & 63);
        uint64_t bits = row[w] >> b;
        if (b != 0 && b + len > 64)
            bits |= row[w + 1] << (64u - b);
        return len >= 64 ? bits : bits & ((uint64_t{1} << len) - 1);
    }

    /** Overwrite bits [c0, c0+len) of row r from the low bits (len <= 64). */
    void
    setRowBits(size_t r, size_t c0, size_t len, uint64_t bits)
    {
        if (len == 0)
            return;
        if (len < 64)
            bits &= (uint64_t{1} << len) - 1;
        uint64_t *row = words_.data() + r * wpr_;
        const size_t w = c0 >> 6;
        const auto b = static_cast<unsigned>(c0 & 63);
        const size_t lo = len < 64 - b ? len : 64 - b;
        const uint64_t lo_mask =
            (lo == 64 ? ~uint64_t{0} : (uint64_t{1} << lo) - 1) << b;
        row[w] = (row[w] & ~lo_mask) | ((bits << b) & lo_mask);
        if (lo < len) {
            const uint64_t hi_mask = (uint64_t{1} << (len - lo)) - 1;
            row[w + 1] = (row[w + 1] & ~hi_mask) | ((bits >> lo) & hi_mask);
        }
    }

    /** Kept count in [c0, c0+len) of row r (any len). */
    size_t
    rangeNnz(size_t r, size_t c0, size_t len) const
    {
        size_t n = 0;
        for (size_t off = 0; off < len; off += 64) {
            const size_t piece = len - off < 64 ? len - off : 64;
            n += static_cast<size_t>(
                std::popcount(rowBits(r, c0 + off, piece)));
        }
        return n;
    }

    /** Invoke f(c) for every kept column of row r, ascending. */
    template <typename F>
    void
    forEachSet(size_t r, F &&f) const
    {
        const uint64_t *row = words_.data() + r * wpr_;
        for (size_t w = 0; w < wpr_; ++w) {
            uint64_t bits = row[w];
            while (bits != 0) {
                f(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    }

    /** Invoke f(c) for every dropped column of row r, ascending. */
    template <typename F>
    void
    forEachDropped(size_t r, F &&f) const
    {
        const uint64_t *row = words_.data() + r * wpr_;
        for (size_t w = 0; w < wpr_; ++w) {
            uint64_t bits = ~row[w];
            if (w + 1 == wpr_ && (cols_ & 63) != 0)
                bits &= (uint64_t{1} << (cols_ & 63)) - 1;
            while (bits != 0) {
                f(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    }

    /** Number of kept (non-zero) positions. */
    size_t nnz() const;

    /** Fraction of dropped positions. */
    double sparsity() const;

    /** Positions whose keep/drop state differs from @p other's. */
    size_t hamming(const Mask &other) const;

    /** Kept positions agreeing with @p other, as a fraction of its nnz. */
    double overlap(const Mask &other) const;

    /**
     * Position-wise agreement with @p other (keeps and drops both
     * count): 1 - normalized Hamming/L1 distance. The paper's
     * mask-similarity metric (Fig. 4(b)).
     */
    double agreement(const Mask &other) const;

    /** Word-wise set combinators; shapes must match. */
    Mask &operator&=(const Mask &other);
    Mask &operator|=(const Mask &other);
    Mask &operator^=(const Mask &other);

    /** Transposed copy. */
    Mask transposed() const;

    bool operator==(const Mask &other) const = default;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t wpr_ = 0;
    std::vector<uint64_t> words_;
};

inline Mask
operator&(Mask a, const Mask &b)
{
    return a &= b;
}

inline Mask
operator|(Mask a, const Mask &b)
{
    return a |= b;
}

inline Mask
operator^(Mask a, const Mask &b)
{
    return a ^= b;
}

/** Element-wise product W .* mask; shapes must match. */
Matrix applyMask(const Matrix &w, const Mask &mask);

/** Reference dense GEMM: D = A x B (+ C when provided). */
Matrix matmul(const Matrix &a, const Matrix &b, const Matrix *c = nullptr);

/** Max |x - y| over all elements; shapes must match. */
double maxAbsDiff(const Matrix &x, const Matrix &y);

} // namespace tbstc::core

#endif // TBSTC_CORE_MATRIX_HPP
