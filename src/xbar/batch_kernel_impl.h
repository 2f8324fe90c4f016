/**
 * @file
 * Shared skeleton of the batched popcount GEMM, instantiated once per
 * instruction-set tier. Each tier translation unit supplies only the
 * innermost accumulation row as a functor,
 *
 *   accumRow(Acc *dst, const uint64_t *dp, uint64_t pw, int shift, n)
 *     : dst[i] += popcount(dp[i] & pw) << shift   for i in [0, n),
 *
 * and everything else — loop structure, zero-plane skipping, the
 * register-resident small-batch sweep — is this template. Keeping
 * the skeleton in one place is what makes the tiers bit-exact by
 * construction: they can only differ in how a row of popcounts is
 * computed, never in what is summed.
 *
 * The small-batch sweep is plain scalar code on purpose: a handful of
 * windows has no lane parallelism worth a vector row, and compiling
 * this header inside a tier TU means std::popcount lowers to that
 * tier's best instruction (hardware POPCNT from the popcnt tier up).
 *
 * Everything here has internal linkage (an anonymous namespace): the
 * tier TUs compile this header under different -m flags, and an
 * inline function with external linkage would leave one weak copy
 * per TU for the linker to pick from — a baseline-tier caller could
 * then run the AVX-512 object's body.
 */

#ifndef ISAAC_XBAR_BATCH_KERNEL_IMPL_H
#define ISAAC_XBAR_BATCH_KERNEL_IMPL_H

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/types.h"
#include "xbar/batch_kernel.h"

namespace isaac::xbar::kernel::detail {
namespace {

/**
 * One window's column sweep for the 1-bit-DAC shapes: the window's
 * `Words` digit words stay in registers across every column, and the
 * reading lands at out[c * n] (the caller offsets `out` by the window
 * index). `CellBits` is the cell width when fixed at compile time (the
 * unrolled sum has no variable shifts), or 0 to take `cellBits`. An
 * all-zero digit vector reads zero on every column.
 */
template <int Words, int CellBits>
inline void
sweepWindow1Bit(const std::uint64_t *cellPlanes, int cols,
                int cellBits, const std::uint64_t *dig, int n,
                Acc *out)
{
    if constexpr (CellBits > 0)
        cellBits = CellBits;
    std::uint64_t d[Words];
    std::uint64_t any = 0;
    for (int w = 0; w < Words; ++w) {
        d[w] = dig[static_cast<std::size_t>(w) * n];
        any |= d[w];
    }
    if (!any) {
        for (int c = 0; c < cols; ++c)
            out[static_cast<std::size_t>(c) * n] = 0;
        return;
    }
    const std::uint64_t *cp = cellPlanes;
    for (int c = 0; c < cols; ++c) {
        Acc sum = 0;
        for (int b = 0; b < cellBits; ++b, cp += Words) {
            int cnt = 0;
            for (int w = 0; w < Words; ++w)
                cnt += std::popcount(d[w] & cp[w]);
            sum += static_cast<Acc>(cnt) << b;
        }
        out[static_cast<std::size_t>(c) * n] = sum;
    }
}

/** sweepWindow1Bit for a runtime word count of 1 or 2. */
template <int CellBits>
inline void
sweepSmallBatch1Bit(const std::uint64_t *cellPlanes, int cols,
                    int cellBits, int words, const std::uint64_t *dig,
                    int n, Acc *out)
{
    for (int i = 0; i < n; ++i) {
        if (words == 1)
            sweepWindow1Bit<1, CellBits>(cellPlanes, cols, cellBits,
                                         dig + i, n, out + i);
        else
            sweepWindow1Bit<2, CellBits>(cellPlanes, cols, cellBits,
                                         dig + i, n, out + i);
    }
}

template <typename AccumRow>
inline void
batchedBitlineSumsImpl(const std::uint64_t *cellPlanes, int cols,
                       int cellBits, int words,
                       const std::uint64_t *dig, int digitBits, int n,
                       Acc *out, AccumRow accumRow)
{
    // Small batches (single-window layers, FC nodes): one register-
    // resident column sweep per window for the common 1-bit-DAC
    // shapes. Window i's digit words sit at stride n in the
    // plane-major matrix, and its readings at stride n in `out`.
    if (n < kSmallBatch && digitBits == 1 && words <= 2) {
        if (cellBits == 2)
            sweepSmallBatch1Bit<2>(cellPlanes, cols, cellBits, words,
                                   dig, n, out);
        else
            sweepSmallBatch1Bit<0>(cellPlanes, cols, cellBits, words,
                                   dig, n, out);
        return;
    }

    // General batched shape: per column, stream each (cell bit, digit
    // bit, plane word) term across the whole window row. The cell
    // word is one broadcast operand; the window row dst/dp are
    // contiguous, which is the layout accumRow vectorizes over. A
    // zero cell word contributes nothing at any input — skip it (flip
    // encoding makes all-zero high planes common).
    for (int c = 0; c < cols; ++c) {
        const std::uint64_t *cp = cellPlanes +
            static_cast<std::size_t>(c) * cellBits * words;
        Acc *dst = out + static_cast<std::size_t>(c) * n;
        std::fill(dst, dst + n, Acc{0});
        for (int b = 0; b < cellBits; ++b) {
            for (int j = 0; j < digitBits; ++j) {
                for (int w = 0; w < words; ++w) {
                    const std::uint64_t pw =
                        cp[static_cast<std::size_t>(b) * words + w];
                    if (!pw)
                        continue;
                    accumRow(dst,
                             dig +
                                 (static_cast<std::size_t>(j) * words +
                                  w) *
                                     n,
                             pw, b + j, n);
                }
            }
        }
    }
}

/**
 * Portable bodies of the digital-merge rows (scaleAdd /
 * scaleAddFlipped in batch_kernel.h): the scalar/popcnt tiers run
 * these whole, the vector tiers only for the sub-vector tail. Pure
 * shift/add loops over the contiguous window index — every
 * multiplier in the engine's merge (slice weight 2^(s*w), phase
 * weight 2^(p*v), the 2^15 weight bias, the slice ceiling 2^w - 1)
 * is a power of two, which is what makes the vector tiers trivially
 * bit-exact: 64-bit shift/add/sub has exactly one answer.
 */
inline void
scaleAddImpl(Acc *acc, const Acc *row, int shift, bool negate, int n)
{
    if (negate) {
        for (int i = 0; i < n; ++i)
            acc[i] -= row[i] << shift;
    } else {
        for (int i = 0; i < n; ++i)
            acc[i] += row[i] << shift;
    }
}

inline void
scaleAddFlippedImpl(Acc *acc, const Acc *row, const Acc *units,
                    int cellBits, int shift, bool negate, int n)
{
    // Unflipped slice value: (2^w - 1) * unit - v, the linear form
    // of encoding.cc's unflipColumnSum.
    if (negate) {
        for (int i = 0; i < n; ++i) {
            acc[i] -=
                ((units[i] << cellBits) - units[i] - row[i]) << shift;
        }
    } else {
        for (int i = 0; i < n; ++i) {
            acc[i] +=
                ((units[i] << cellBits) - units[i] - row[i]) << shift;
        }
    }
}

/** The portable accumulation row (scalar and popcnt tiers). */
struct ScalarAccumRow
{
    void
    operator()(Acc *dst, const std::uint64_t *dp, std::uint64_t pw,
               int shift, int n) const
    {
        for (int i = 0; i < n; ++i) {
            dst[i] += static_cast<Acc>(std::popcount(dp[i] & pw))
                << shift;
        }
    }
};

} // namespace
} // namespace isaac::xbar::kernel::detail

#endif // ISAAC_XBAR_BATCH_KERNEL_IMPL_H
