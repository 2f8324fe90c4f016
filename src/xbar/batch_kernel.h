/**
 * @file
 * The plane-major batched popcount GEMM kernel behind the crossbar
 * fast path (docs/performance.md).
 *
 * The bit-plane representation turns an analog bitline read into
 * popcounts: column c's current for digit planes D is
 *
 *   sum_b 2^b * sum_j 2^j * sum_w popcount(D[j][w] & P[c][b][w])
 *
 * where P are the stored-level bit-planes. Evaluating one digit
 * vector at a time leaves most of the work in per-call staging, so
 * this kernel batches: the caller packs N digit vectors (a layer's
 * worth of windows) into one *plane-major* bit-matrix with the window
 * index innermost,
 *
 *   dig[(j * words + w) * n + i]   = word w of plane j of window i,
 *
 * and one call produces every window's reading of every column,
 *
 *   out[c * n + i] = reading of column c for window i.
 *
 * With the window index contiguous, the inner loop is a broadcast
 * cell word ANDed against consecutive digit words — exactly the shape
 * SIMD wants. Implementations exist at four tiers (scalar baseline,
 * hardware POPCNT, AVX2 with the vpshufb nibble-LUT popcount, and
 * AVX-512 with vpopcntdq); which tiers are *compiled* is decided per
 * translation unit by CMake source properties (never globally — the
 * rest of the binary stays baseline x86-64), and which one *runs* is
 * decided here at runtime from CPUID. Every tier returns bit-identical
 * integer results; the scalar tier is the oracle the tests sweep
 * against.
 */

#ifndef ISAAC_XBAR_BATCH_KERNEL_H
#define ISAAC_XBAR_BATCH_KERNEL_H

#include <cstdint>

#include "common/types.h"

namespace isaac::xbar::kernel {

/** Instruction-set tiers, in increasing capability order. */
enum class Tier
{
    Scalar = 0, ///< Baseline x86-64 (or any other ISA).
    Popcnt = 1, ///< Hardware POPCNT.
    Avx2 = 2,   ///< AVX2 vpshufb nibble-LUT popcount, 4 lanes.
    Avx512 = 3, ///< AVX-512 vpopcntdq, 8 lanes.
};

/**
 * Batches below two widths of the widest vector tier (AVX-512: eight
 * 64-bit lanes) have too few windows to fill a vector row, so the
 * GEMM sweeps them window by window and the engine merges them with
 * scalar code. Fixed, not tier-dependent, so every tier runs the same
 * shape for a given n.
 */
inline constexpr int kSmallBatch = 16;

/** Human-readable tier name ("scalar", "popcnt", ...). */
const char *tierName(Tier t);

/**
 * Best tier both compiled into this binary and supported by the
 * running CPU (CPUID-probed once, then cached).
 */
Tier detectedTier();

/** The tier dispatch currently selects: detectedTier() unless forced. */
Tier activeTier();

/**
 * Test hook: pin dispatch to one tier so the golden sweeps can prove
 * every available level bit-exact. fatal()s above detectedTier() —
 * forcing an unsupported tier would trap. Thread-safe; not meant to
 * be raced against kernel calls that must use a *specific* tier.
 */
void forceTier(Tier t);

/** Undo forceTier(); dispatch returns to detectedTier(). */
void resetTierOverride();

/**
 * The batched plane-major popcount GEMM (layouts above):
 *
 *   out[c * n + i] = sum_{b < cellBits} sum_{j < digitBits} 2^(b+j) *
 *       sum_{w < words} popcount(dig[(j*words + w)*n + i] &
 *                                cellPlanes[(c*cellBits + b)*words + w])
 *
 * for c in [0, cols) and i in [0, n). `out` must hold cols * n
 * accumulators; it is fully overwritten. Batches narrower than
 * kSmallBatch run one register-resident column sweep per window
 * instead of window rows. Dispatches on activeTier(); all tiers are
 * bit-exact.
 */
void batchedBitlineSums(const std::uint64_t *cellPlanes, int cols,
                        int cellBits, int words,
                        const std::uint64_t *dig, int digitBits,
                        int n, Acc *out);

/**
 * Digital-merge rows for the engine's batched clip-free tile pass,
 * dispatched on activeTier() like the GEMM. Both are pure 64-bit
 * shift/add sweeps over the contiguous window index (every factor in
 * the bit-serial merge is a power of two), so each tier is the same
 * loop auto-vectorized under that tier's ISA flags; the popcnt tier
 * adds nothing over scalar here and shares its code. All tiers are
 * bit-exact (integer shift/add has one answer).
 *
 *   scaleAdd:        acc[i] +/-= row[i] << shift
 *   scaleAddFlipped: acc[i] +/-=
 *       (((1 << cellBits) - 1) * units[i] - row[i]) << shift
 *
 * (the flipped form is encoding.h's unflipColumnSum applied across a
 * window row; `negate` selects subtraction, which the engine uses
 * for the final two's-complement phase).
 */
void scaleAdd(Acc *acc, const Acc *row, int shift, bool negate,
              int n);
void scaleAddFlipped(Acc *acc, const Acc *row, const Acc *units,
                     int cellBits, int shift, bool negate, int n);

/*
 * Tier entry points, defined only in the translation units CMake
 * compiles with the matching -m flags (batch_kernel_*.cc). Only the
 * dispatcher calls these; everyone else goes through
 * batchedBitlineSums().
 */
void batchedBitlineSumsPopcnt(const std::uint64_t *cellPlanes,
                              int cols, int cellBits, int words,
                              const std::uint64_t *dig, int digitBits,
                              int n, Acc *out);
void batchedBitlineSumsAvx2(const std::uint64_t *cellPlanes, int cols,
                            int cellBits, int words,
                            const std::uint64_t *dig, int digitBits,
                            int n, Acc *out);
void batchedBitlineSumsAvx512(const std::uint64_t *cellPlanes,
                              int cols, int cellBits, int words,
                              const std::uint64_t *dig, int digitBits,
                              int n, Acc *out);
void scaleAddAvx2(Acc *acc, const Acc *row, int shift, bool negate,
                  int n);
void scaleAddFlippedAvx2(Acc *acc, const Acc *row, const Acc *units,
                         int cellBits, int shift, bool negate, int n);
void scaleAddAvx512(Acc *acc, const Acc *row, int shift, bool negate,
                    int n);
void scaleAddFlippedAvx512(Acc *acc, const Acc *row,
                           const Acc *units, int cellBits, int shift,
                           bool negate, int n);

} // namespace isaac::xbar::kernel

#endif // ISAAC_XBAR_BATCH_KERNEL_H
