/**
 * @file
 * The memristor crossbar array: an R x C grid of w-bit conductance
 * cells whose bitline read performs an analog sum of products
 * (Fig. 1). The functional model computes the Kirchhoff current sum
 * as an exact integer (one LSB = one unit conductance at full input
 * voltage), with optional Gaussian noise injection.
 *
 * Read noise is *counter-based*: the jitter of a read is a pure
 * function of (seed, read sequence number, column), not of a shared
 * RNG stream. Concurrent readers therefore observe exactly the noise
 * a serial run would, which is what lets concurrent callers share one
 * bit-serial engine with bit-identical results.
 *
 * The 1T1R access device (Sec. II-D) has no effect on the dot product
 * at DAC output voltages and is therefore not modelled beyond its
 * area/energy contribution in the energy catalog.
 */

#ifndef ISAAC_XBAR_CROSSBAR_H
#define ISAAC_XBAR_CROSSBAR_H

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "xbar/noise.h"

namespace isaac::xbar {

/** One physical crossbar array of w-bit cells. */
class CrossbarArray
{
  public:
    /**
     * @param rows      wordlines (128 in ISAAC-CE)
     * @param cols      bitlines (128 data + the unit column)
     * @param cellBits  bits per memristor cell (w; 2 in ISAAC-CE)
     */
    CrossbarArray(int rows, int cols, int cellBits);

    int rows() const { return _rows; }
    int cols() const { return _cols; }
    int cellBits() const { return _cellBits; }

    /** Maximum conductance level a cell can hold (2^w - 1). */
    int maxLevel() const { return (1 << _cellBits) - 1; }

    /**
     * Program one cell to a conductance level in [0, 2^w - 1] with a
     * bounded program-verify loop: pulse, read back, re-pulse until
     * the stored level matches the target or the NoiseSpec's
     * maxProgramPulses budget is exhausted. Under write noise each
     * pulse lands within a Gaussian error of the target; stuck cells
     * ignore programming entirely and burn the whole budget (which
     * is how the resilience layer detects them). Returns the number
     * of pulses issued; callers verify with cell().
     * Not thread-safe against concurrent reads of the same array.
     */
    int program(int row, int col, int level);

    /** Read back a programmed level (test/verification hook). */
    int cell(int row, int col) const;

    /**
     * Analog bitline read: sum over rows of input digit x cell level.
     * Inputs are DAC digits in [0, 2^v - 1]; the result is the exact
     * current sum in LSBs, plus noise if configured (each call draws
     * a fresh noise sequence number).
     */
    Acc readBitline(int col, std::span<const int> inputs) const;

    /**
     * One crossbar read cycle: all bitlines sampled against the same
     * input vector (the S&H latches every column simultaneously).
     * Thread-safe; the noise sequence number advances per call.
     */
    std::vector<Acc> readAllBitlines(std::span<const int> inputs) const;

    /**
     * As above, but with the caller supplying the noise sequence
     * number. Reads issued with the same `noiseSeq` see the same
     * jitter regardless of thread or call order — the engine keys
     * this on its input phase so parallel and serial execution are
     * bit-identical. Still counts one read cycle.
     */
    std::vector<Acc> readAllBitlines(std::span<const int> inputs,
                                     std::uint64_t noiseSeq) const;

    /**
     * As above with an explicit drift clock: `driftTime` is the
     * operation count the conductance-drift model ages cells by
     * (see effectiveLevel). The engine passes its op sequence number
     * so a bounded ABFT re-read (fresh noiseSeq) still observes the
     * *same* drifted conductances — drift is not a retryable error.
     * The two-argument overload uses driftTime = noiseSeq.
     */
    std::vector<Acc> readAllBitlines(std::span<const int> inputs,
                                     std::uint64_t noiseSeq,
                                     std::uint64_t driftTime) const;

    /**
     * Allocation-free variant of the three-argument overload: the
     * result lands in `out` (resized to cols()), so a caller that
     * loops — the engine's per-call scratch, the ABFT retry loop —
     * reuses one buffer instead of allocating per read.
     */
    void readAllBitlinesInto(std::span<const int> inputs,
                             std::uint64_t noiseSeq,
                             std::uint64_t driftTime,
                             std::vector<Acc> &out) const;

    /**
     * Number of 64-bit words per column in the packed bit-plane
     * representation (ceil(rows / 64)).
     */
    int planeWords() const { return (_rows + 63) / 64; }

    /**
     * True when the packed bit-plane read is bit-exact for this
     * array: no read noise and no drift configured. Write noise and
     * stuck cells only shape the *stored* levels, which the planes
     * capture, so they do not disqualify the packed path.
     */
    bool
    packedReadExact() const
    {
        return !noise.readNoiseEnabled() && !noise.driftEnabled();
    }

    /**
     * Batched packed read: `n` digit-vector sets evaluated against
     * the stored planes in one plane-major popcount GEMM
     * (xbar/batch_kernel.h). `digitPlanes` holds the plane-major
     * bit-matrix dig[(j * planeWords() + w) * n + i] (window index i
     * innermost); `out` is resized to cols() * n with window i's
     * reading of column c at out[c * n + i], bit-identical to n
     * clean readAllBitlines() calls against the same digits (the
     * caller packs digit bit j of row r into bit r of plane j; rows
     * beyond the input vector must be zero). This does NOT count read
     * cycles: the engine charges one cycle per logical read *attempt*
     * per window (chargeReadCycles), which keeps readCycles() exact
     * under ABFT retries. fatal()s unless packedReadExact().
     * Thread-safe against other reads; the planes are rebuilt lazily
     * after any program()/forceStuck()/setNoise().
     */
    void readAllBitlinesPackedBatch(
        std::span<const std::uint64_t> digitPlanes, int digitBits,
        int n, std::vector<Acc> &out) const;

    /**
     * Upper bound on any packed bitline reading of this array: the
     * largest per-column stored-level sum times the largest digit
     * value (2^digitBits - 1). Computed from the stored levels, so
     * stuck and write-noised cells are included; the column sums are
     * taken in the same pass that builds the packed planes and go
     * stale with them, so a call costs a load. The engine compares
     * the bound against the ADC code ceiling per tile-phase — when it
     * fits, no reading of any column can clip (or go negative: levels
     * and digits are non-negative), and the digital merge skips
     * quantizer clamping entirely, bit-exactly.
     */
    Acc maxPackedReading(int digitBits) const;

    /**
     * Charge `n` read cycles without performing a read. The packed
     * batch read counts no cycles itself; the engine charges one per
     * window read attempt through this, keeping readCycles() equal to
     * the scalar path's.
     */
    void
    chargeReadCycles(std::uint64_t n) const
    {
        _readCycles.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Row-major view of every stored level (rows() x cols()).
     * Read-only programming/verification helper; not stable across
     * program() calls.
     */
    std::span<const int> storedLevels() const { return cells; }

    /**
     * Conductance the cell presents at drift clock `t`: the stored
     * level minus floor(driftLevelsPerOp * age * susceptibility),
     * clamped at 0, where age = t mod refreshIntervalOps (the
     * periodic refresh re-programs every cell, resetting its age)
     * and the susceptibility in [0, 1) is a pure function of
     * (seed, cell, refresh epoch). Stuck cells do not drift (their
     * conductance is frozen by the defect). Equals cell() whenever
     * drift is disabled or age is 0.
     */
    int effectiveLevel(int row, int col, std::uint64_t t) const;

    /**
     * Configure the non-ideality model. Must be set before
     * programming for write noise / stuck cells to take effect;
     * stuck cells are (re)drawn deterministically from the seed.
     * `instanceSalt` decorrelates the fault/write streams of arrays
     * sharing one NoiseSpec (an engine salts each tile with its
     * index); the default 0 reproduces the historical streams.
     */
    void setNoise(const NoiseSpec &spec,
                  std::uint64_t instanceSalt = 0);

    /** Number of stuck (unprogrammable) cells. */
    int stuckCells() const;

    /**
     * Fault-injection hook: freeze one cell at `level` (or heal it
     * with level = -1), independent of the statistical fault model.
     * The stored level snaps to the frozen one immediately. Used by
     * tests and targeted fault campaigns.
     */
    void forceStuck(int row, int col, int level);

    /**
     * Write pulses issued by program() since construction. Lifetime
     * (manufacturing-time) accounting; resetStats() does not clear
     * it. Feeds the WriteModel's measured time/energy accounting.
     */
    std::uint64_t programPulses() const { return _programPulses; }

    /** Number of full-array read cycles performed. */
    std::uint64_t
    readCycles() const
    {
        return _readCycles.load(std::memory_order_relaxed);
    }

    /** Reset activity counters (read cycles, noise sequence). */
    void resetStats();

    /** Number of cells programmed to a non-zero level. */
    std::int64_t programmedCells() const;

  private:
    Acc bitlineSum(int col, std::span<const int> inputs) const;
    Acc driftedBitlineSum(int col, std::span<const int> inputs,
                          std::uint64_t t) const;
    int driftedLevel(std::size_t idx, std::uint64_t t) const;
    double driftSusceptibility(std::size_t idx,
                               std::uint64_t epoch) const;
    /** Lazily build the epoch-0 susceptibility table. */
    const double *ensureSusceptibility() const;
    Acc applyReadNoise(Acc sum, std::uint64_t seq, int col) const;

    /** Rebuild the packed planes (and the column-sum bound) if
     *  stale; returns the plane base. */
    const std::uint64_t *ensurePlanes() const;
    /** Mark the packed planes stale (any stored-level mutation). */
    void
    invalidatePlanes()
    {
        _planesValid.store(false, std::memory_order_relaxed);
    }

    int _rows;
    int _cols;
    int _cellBits;
    std::vector<int> cells;      ///< row-major stored levels
    std::vector<int> stuckLevel; ///< -1 = healthy, else frozen level
    NoiseSpec noise;
    Rng writeRng;
    /** Salted base for the per-(cell, epoch) drift streams. */
    std::uint64_t driftSeed = 0;
    std::uint64_t _programPulses = 0;
    /** Sequence for standalone single-bitline reads. */
    mutable std::atomic<std::uint64_t> _noiseSeq{0};
    mutable std::atomic<std::uint64_t> _readCycles{0};
    /**
     * Packed bit-planes of the stored levels, one plane per (column,
     * cell bit): bit r of plane word r/64 is bit b of cell (r, c).
     * Layout: (c * cellBits + b) * planeWords() + word. Built lazily
     * under _planesMutex; _planesValid is the double-checked flag.
     * Mutators (program/forceStuck/setNoise) only invalidate — they
     * must not overlap reads, per the class contract above.
     */
    mutable std::vector<std::uint64_t> _planes;
    /** Largest per-column stored-level sum, built with _planes. */
    mutable Acc _maxColumnSum = 0;
    mutable std::atomic<bool> _planesValid{false};
    mutable std::mutex _planesMutex;
    /**
     * Per-cell drift susceptibility for refresh epoch 0, cached so a
     * long no-refresh campaign does not re-derive the same per-cell
     * RNG draw on every read (the draw is a pure function of the
     * seed, so the cache is exact). Later epochs stay on the direct
     * derivation — they change every refreshIntervalOps and caching
     * them would thrash. Built lazily under _planesMutex; setNoise()
     * invalidates.
     */
    mutable std::vector<double> _suscept;
    mutable std::atomic<bool> _susceptValid{false};
};

} // namespace isaac::xbar

#endif // ISAAC_XBAR_CROSSBAR_H
