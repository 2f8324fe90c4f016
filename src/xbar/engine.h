/**
 * @file
 * The bit-serial in-situ dot-product engine (Sections V and VI).
 *
 * A BitSerialEngine owns the physical crossbars that store one
 * logical weight matrix (dot-product length x output count) and
 * executes the paper's full arithmetic pipeline:
 *
 *  - inputs are presented as 16/v sequential v-bit digits (the 1-bit
 *    DAC of the default design needs no DAC circuit at all);
 *  - each 16-bit weight occupies 16/w adjacent w-bit cells, stored
 *    biased by 2^15 and possibly column-flipped;
 *  - every crossbar read latches all bitlines in S&H circuits and
 *    streams them through the ADC;
 *  - digital shift-and-add merges slices, phases, the unit-column
 *    corrections, and the sign of input bit 15.
 *
 * The result is the *exact* signed 64-bit dot product of the signed
 * 16-bit inputs and weights (tests assert bit-equality against a
 * direct evaluation) unless analog noise is enabled.
 *
 * Logical matrices larger than one physical array are tiled across
 * row segments (partial sums added digitally) and column segments.
 *
 * Thread-safety contract (see docs/threading.md): every call runs on
 * its caller's thread. dotProduct() is const and safe to call
 * concurrently from any number of threads on one engine. Each call
 * accumulates its activity into call-local tallies that are published
 * once at the end, so results AND final counter values are
 * bit-identical to a serial run however the callers interleave.
 * reprogram() is a structural mutation and must not overlap any other
 * call.
 */

#ifndef ISAAC_XBAR_ENGINE_H
#define ISAAC_XBAR_ENGINE_H

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/epoch_log.h"
#include "common/types.h"
#include "resilience/fault_map.h"
#include "resilience/health.h"
#include "resilience/summary.h"
#include "xbar/adc.h"
#include "xbar/adc_policy.h"
#include "xbar/crossbar.h"
#include "xbar/noise.h"

namespace isaac::xbar {

/** How signed inputs are fed to the rows. */
enum class InputMode
{
    /**
     * Two's-complement bit-serial (the paper's scheme, Sec. V): the
     * final bit's partial result is shift-and-*subtracted*. Requires
     * a 1-bit DAC (v = 1).
     */
    TwosComplement,

    /**
     * Biased inputs (x + 2^15 fed as unsigned digits) with a digital
     * correction using the unit column and per-column weight sums.
     * Works for any DAC resolution v; used in the multi-bit-DAC
     * ablation.
     */
    Biased,
};

/** Static configuration of one engine. */
struct EngineConfig
{
    int rows = 128;     ///< Physical wordlines per array.
    int cols = 128;     ///< Physical data bitlines (unit col extra).
    int cellBits = 2;   ///< w: bits per cell.
    int dacBits = 1;    ///< v: input digit width.
    bool flipEncoding = true; ///< Column-flip scheme of Sec. V.
    InputMode inputMode = InputMode::TwosComplement;
    NoiseSpec noise;    ///< Analog non-ideality (off by default).

    /**
     * Spare physical columns per array for fault-aware remapping
     * (in addition to the data columns and the unit column). A
     * logical weight-slice column whose program-verify readback
     * mismatches is moved onto a spare; when spares run out the
     * least-bad column is kept and its mismatches are reported as
     * uncorrectable (see resilience/remap.h).
     */
    int spareCols = 0;

    /**
     * Program one extra physical column per array holding, in each
     * used row, the modular sum (mod 2^w) of that row's mapped data
     * cells, and verify every bit-serial read against it: with exact
     * analog values the quantized data-column total and the checksum
     * reading agree mod 2^w, so any single-column excursion (read
     * noise, drift, an injected cell fault) is flagged. A flagged
     * tile-phase is re-read up to maxReadRetries times with a fresh
     * noise draw before the engine accepts the value as-is. The
     * checksum targets are derived from the *stored* (post
     * program-verify, post remap) levels, so permanent defects the
     * resilience layer already accounted for never raise alarms;
     * a tile whose checksum column itself fails verification runs
     * with the check disabled (counted in TransientStats).
     */
    bool abftChecksum = false;

    /** Bounded re-reads per flagged tile-phase (0 = detect only). */
    int maxReadRetries = 3;

    /** First re-read backoff in cycles; doubles per attempt. */
    int retryBackoffCycles = 2;

    /**
     * Packed bit-plane fast path: when the analog model is clean (no
     * read noise, no drift, no injected faults) every dot product,
     * single or batched, runs through dotProductBatch()'s popcount
     * GEMM over 64-bit bit-planes of the stored levels instead of the
     * scalar O(rows x cols) loop, and the ABFT checksum is verified
     * digitally from the same packed sums. Results, EngineStats,
     * per-tile AdcTally, and TransientStats are bit-identical either
     * way (tests assert it); false selects the scalar reference the
     * golden tests compare against. Noisy / drifting configs and
     * engines with injectCellFault() activity always take the scalar
     * path regardless of this knob. See docs/performance.md.
     */
    bool fastPath = true;

    /**
     * The ADC resolution/energy policy (xbar/adc_policy.h): one
     * surface replacing the old adcBitsOverride special-casing. The
     * default fixed policy reproduces the derived Eq. (1)/(2)
     * converter; AdcPolicy::fixed(b) forces every conversion to b
     * bits — below the requirement it models a cheaper converter
     * whose clips are counted in adcClips / AdcTally, the
     * accuracy-vs-energy axis the campaign lab sweeps — and
     * AdcPolicy::adaptive() truncates each conversion to the
     * worst-case bound the unit column certifies for that cycle
     * (bit-exact when the cap covers the requirement; deterministic,
     * seed-stable quantization deltas otherwise). The energy catalog
     * prices the converter from the same policy, so every trade
     * shows up in both the accuracy and energy columns.
     */
    AdcPolicy adcPolicy;

    /** Digits per weight = 16 / w. */
    int slicesPerWeight() const { return kDataBits / cellBits; }

    /** Input phases per 16-bit operation = 16 / v. */
    int phases() const { return kDataBits / dacBits; }

    /** Outputs that fit in one physical array's data columns. */
    int outputsPerArray() const { return cols / slicesPerWeight(); }

    /**
     * Converter sizing in effect: the derived requirement, or the
     * policy's explicit override/cap when set (the adaptive policy's
     * cap is the widest conversion its converter can run).
     */
    int adcBits() const;

    /** Sanity-check field combinations; fatal() on bad configs. */
    void validate() const;
};

/**
 * Outcome of one online repairTile() pass: what the quarantine march
 * censused and what the fresh placement could (and could not) cover.
 * Every field is derived from array state alone, so a scripted fault
 * timeline reproduces the same report regardless of how many reads
 * raced the detection — the serving watchdog's canonical recovery
 * log leans on that.
 */
struct TileRepairReport
{
    int faultsFound = 0;        ///< March-test census of stuck cells.
    int remappedColumns = 0;    ///< Logical columns moved to spares.
    int uncorrectableCells = 0; ///< Mismatches spares could not cover.
    bool abftOk = true;         ///< Checksum column healthy (or off).

    void
    merge(const TileRepairReport &o)
    {
        faultsFound += o.faultsFound;
        remappedColumns += o.remappedColumns;
        uncorrectableCells += o.uncorrectableCells;
        abftOk = abftOk && o.abftOk;
    }
};

/** Activity counters for energy/perf accounting. */
struct EngineStats
{
    std::uint64_t ops = 0;           ///< dotProduct() calls.
    std::uint64_t crossbarReads = 0; ///< Physical array read cycles.
    std::uint64_t adcSamples = 0;    ///< ADC conversions.
    std::uint64_t adcClips = 0;      ///< Conversions that clipped.
    std::uint64_t shiftAdds = 0;     ///< Digital merge operations.
    std::uint64_t dacActivations = 0; ///< Row-digit presentations.
    /** SAR comparator cycles across the conversions: adcSamples x
     *  resolution for a fixed policy, the sum of the per-cycle
     *  resolutions for an adaptive one (the Newton saving the
     *  energy model prices). */
    std::uint64_t adcBitCycles = 0;

    /** Fold another tally in (all counters are exact sums). */
    void
    merge(const EngineStats &o)
    {
        ops += o.ops;
        crossbarReads += o.crossbarReads;
        adcSamples += o.adcSamples;
        adcClips += o.adcClips;
        shiftAdds += o.shiftAdds;
        dacActivations += o.dacActivations;
        adcBitCycles += o.adcBitCycles;
    }

    bool operator==(const EngineStats &) const = default;
};

/** The in-situ multiply-accumulate engine for one weight matrix. */
class BitSerialEngine
{
  public:
    /**
     * Program a logical weight matrix.
     * @param cfg         engine configuration
     * @param weights     matrix in output-major layout:
     *                    weights[k * numInputs + r]
     * @param numInputs   dot-product length (rows of the matrix)
     * @param numOutputs  number of output neurons (columns)
     */
    BitSerialEngine(const EngineConfig &cfg,
                    std::span<const Word> weights,
                    int numInputs, int numOutputs);

    /**
     * Execute one full bit-serial dot-product operation: 16/v
     * crossbar read phases against all arrays, ADC conversion, and
     * digital merging. Returns the exact signed dot products, one
     * per output. On the fast path this is dotProductBatch(inputs,
     * 1). Safe to call concurrently from multiple threads.
     */
    std::vector<Acc> dotProduct(std::span<const Word> inputs) const;

    /**
     * Execute `count` dot products in one batched call: `inputs`
     * holds count concatenated input vectors (window-major,
     * inputs[i * numInputs() + r]) and the result holds the count
     * concatenated outputs (out[i * numOutputs() + k]). This is the
     * engine's one packed execution path: the digit planes of every
     * window are staged once per row segment into a plane-major
     * bit-matrix and each tile is evaluated for all windows per phase
     * in one popcount GEMM; batches below kernel::kSmallBatch sweep
     * and merge window by window instead. Results and every counter
     * (EngineStats, per-tile AdcTally, TransientStats, array read
     * cycles) are bit-identical to `count` sequential scalar
     * dotProduct() calls at any dispatch tier.
     * Noisy, drifting, or fault-injected engines fall back to
     * per-window scalar dotProduct() calls internally, so the batch
     * entry point is always safe to use. Thread-safe like
     * dotProduct().
     */
    std::vector<Acc> dotProductBatch(std::span<const Word> inputs,
                                     int count) const;

    /**
     * Replace the weight matrix in place (same dimensions).
     * Program-verify only rewrites cells whose target level changed.
     * Must not overlap concurrent dotProduct() calls.
     * @return number of cell writes performed.
     */
    std::int64_t reprogram(std::span<const Word> weights);

    int numInputs() const { return _numInputs; }
    int numOutputs() const { return _numOutputs; }

    /** Physical arrays used (row segments x column segments). */
    int physicalArrays() const;
    int rowSegments() const { return _rowSegments; }
    int colSegments() const { return _colSegments; }

    const EngineConfig &config() const { return cfg; }

    /** Snapshot of the activity counters (consistent under races). */
    EngineStats stats() const;

    /**
     * Zero every counter the engine owns: the EngineStats tallies,
     * the ADC sample/clip counts, and each tile's crossbar read
     * cycles, so post-reset accounting starts from zero and a
     * replayed campaign reports what a fresh engine would.
     */
    void resetStats();

    /**
     * Advance the drift clock by `ops` operations without executing
     * anything: subsequent reads see conductances aged as if that
     * many dot products had already run. Campaign scenarios use this
     * to place a model at a chosen point on the drift curve before
     * measuring; resetStats() rewinds the clock to zero. Must not
     * overlap concurrent dotProduct() calls.
     */
    void advanceOpClock(std::uint64_t ops);

    /** Total ADC clip events (must stay 0 with noise disabled). */
    std::uint64_t adcClips() const;

    /** Total crossbar read cycles across the engine's tiles. */
    std::uint64_t readCycles() const;

    /** Fraction of cells in the allocated arrays holding weights. */
    double cellUtilization() const;

    /** Aggregate fault census across the engine's arrays. */
    resilience::ArrayFaultReport faultReport() const;

    /** Fault census of one tile's array. */
    resilience::ArrayFaultReport tileFaultReport(int rs,
                                                 int cs) const;

    /**
     * Fault map the latest programming pass detected on one tile's
     * array (physical coordinates, used rows only). Deterministic
     * per (seed, geometry).
     */
    const resilience::FaultMap &faultMap(int rs, int cs) const;

    /**
     * Per-tile ADC activity (samples and clips), consistent with
     * stats() under concurrent dotProduct() calls.
     */
    AdcTally tileAdcTally(int rs, int cs) const;

    /** Write pulses issued by all programming passes (lifetime). */
    std::uint64_t programPulses() const;

    /**
     * Transient-error counters: ABFT checks/mismatches/retries and
     * drift-refresh accounting. abftDisabledTiles reflects the
     * current structural state (tiles whose checksum column failed
     * verification) and therefore survives resetStats(), like the
     * fault census.
     */
    resilience::TransientStats transientStats() const;

    /**
     * Targeted fault injection on one tile's array (forceStuck
     * semantics: level = -1 heals). Corrupting a mapped data cell
     * after programming makes every subsequent ABFT check on that
     * tile flag a persistent mismatch — the campaign tests use this
     * to exercise the retry-exhaustion path.
     */
    void injectCellFault(int rs, int cs, int row, int col, int level);

    /**
     * Online self-repair of one tile: run the destructive march test
     * (resilience::extractFaultMap) to census the tile's *current*
     * permanent faults — the program-time map goes stale the moment
     * a cell fails in the field — then rebuild the tile from its
     * retained intended levels with a fresh fault-aware placement
     * (spare remap, least-bad fallback), reprogram the ABFT checksum
     * column, and re-arm the packed fast path if no other tile still
     * carries an un-repaired injected fault. A report with
     * uncorrectableCells > 0 means the spares are exhausted and the
     * caller should degrade around the tile instead of trusting it.
     *
     * Structural mutation like reprogram(): must not overlap any
     * concurrent dotProduct() call (the serving watchdog holds its
     * exclusive repair lock across this). fatal() when write noise
     * is enabled — the march would misreport transient write errors
     * as permanent faults.
     */
    TileRepairReport repairTile(int rs, int cs);

    /** Whether tile (rs, cs) runs with an active checksum column. */
    bool abftActive(int rs, int cs) const;

    /**
     * True when dotProduct() takes the packed bit-plane path: the
     * fastPath knob is on, the noise spec has no read noise or
     * drift, and no fault was injected after programming. Scalar
     * and packed execution are bit-identical; this only reports
     * which one runs.
     */
    bool fastPathActive() const;

  private:
    /**
     * Cache-line-aligned: tiles sit adjacent in the `tiles` vector and
     * concurrent callers read/evaluate different tiles; alignment
     * keeps one tile's mutable tail (fault census, taint flag) off its
     * neighbour's line.
     */
    struct alignas(kCacheLineBytes) ArrayTile
    {
        std::unique_ptr<CrossbarArray> array;
        std::vector<bool> flipped;  ///< Per logical data column.
        std::vector<Acc> sumBiased; ///< Per local output: sum of U.
        std::vector<int> intended;  ///< Target levels in *logical*
                                    ///< layout (differential
                                    ///< reprogramming baseline).
        std::vector<int> colMap;    ///< Logical -> physical column.
        /** Merge plan of the small-batch digital pass: per logical
         *  data column, its signed slice weight (+-2^(s*w), negative
         *  when flipped — the unflip folded in); per local output,
         *  the unit reading's weight (the flipped slices' (2^w - 1)
         *  * 2^(s*w) terms, minus the 2^15 weight bias in two's
         *  complement mode). A window's merged phase value is then
         *  one dot product over its readings. */
        std::vector<Acc> sliceWeight;
        std::vector<Acc> unitWeight;
        resilience::FaultMap faults; ///< Latest pass's detections.
        int remappedColumns = 0;
        int uncorrectableCells = 0;
        int usedRows = 0;
        int localOutputs = 0;
        bool abftOk = false;         ///< Checksum column verified.
        bool checksumFlipped = false; ///< Flip rule on the checksum.
        /** injectCellFault() hit this tile and no repairTile() has
         *  run since; the engine-wide _injected flag is the OR of
         *  these, so repairing the last tainted tile re-arms the
         *  packed fast path. */
        bool tainted = false;
    };

    /** Scratch and counter accumulator of one dotProduct() or
     *  dotProductBatch() call. */
    struct Partial
    {
        std::vector<Acc> result;  ///< Phase contributions per output.
        std::vector<Acc> rawSum;  ///< Biased-mode running totals.
        Acc unitTotal = 0;
        std::vector<int> digits;  ///< Scratch input-digit buffer.
        std::vector<Acc> colQ;    ///< Scratch quantized columns.
        std::vector<Acc> currents; ///< Scratch bitline readings.
        /** Batched-path scratch (runBatchBlock): the plane-major
         *  digit matrix, the GEMM readings (physCols x n), the
         *  column-major block accumulator (numOutputs x n), and the
         *  clamped ladder's per-window quantized unit readings and
         *  data-column code ceilings. */
        std::vector<std::uint64_t> dig;
        std::vector<Acc> curMat;
        std::vector<Acc> batchAcc;
        std::vector<Acc> unitsBatch;
        std::vector<Acc> dataCeil;
        EngineStats stats;
        resilience::TransientStats transient;
        std::vector<AdcTally> tileAdc; ///< ADC activity per tile.
    };

    ArrayTile &tile(int rs, int cs);
    const ArrayTile &tile(int rs, int cs) const;

    /**
     * Scalar evaluation of phase p against row segment rs into
     * `part`. `opSeq` is this dotProduct() call's operation number;
     * together with p it keys the read-noise draw so any call
     * interleaving reproduces the serial noise realization.
     */
    void runPhaseSegment(std::span<const Word> inputs, int p, int rs,
                         std::uint64_t opSeq, Partial &part) const;

    /**
     * The bounded read-attempt loop every execution path shares:
     * `readFn(attempt)` supplies the bitline currents (and is
     * responsible for read-cycle accounting), everything else — ADC
     * quantization, unflipping, the ABFT check/retry/give-up ladder,
     * and every counter those touch — is common code, which is what
     * keeps the scalar and packed paths counter-identical.
     * Fills part.colQ and `unit`.
     */
    template <typename ReadFn>
    void evalTileAttempts(const ArrayTile &t, int dataCols,
                          bool checking, Partial &part,
                          AdcTally &tileTally, Acc &unit,
                          ReadFn readFn) const;

    /**
     * Digital merge of one (phase, tile) reading into a window's
     * accumulators: shift-and-add the slice columns of part.colQ,
     * remove the per-phase weight bias (two's complement) or
     * accumulate the raw biased sum, and count the shiftAdds. `acc`
     * is the window's full result (two's complement) or rawSum
     * (biased) vector; `unitTotal` accumulates the row-side unit
     * readings once per (phase, row segment). Shared verbatim by the
     * scalar path and the packed path's ABFT tiles.
     */
    void mergeTilePhase(const ArrayTile &t, int cs, int p, Acc unit,
                        Partial &part, std::span<Acc> acc,
                        Acc &unitTotal) const;

    /**
     * Stage-in for the batched path: pack ALL 16 data bits of
     * windows [first, first + n) for row segment rs into one
     * plane-major bit-matrix dig[(b * words + w) * n + i] (b the bit
     * of the streamed 16-bit value: the raw two's-complement word,
     * or the biased value x + 2^15). One pass over the inputs per
     * (row segment, block) — each input word is read once and its
     * set bits scattered — instead of one branchy pass per phase.
     * Phase p's GEMM planes are then the contiguous slice starting
     * at bit p * dacBits: two's complement streams bit p with a
     * 1-bit DAC (EngineConfig::validate pins dacBits there) and
     * biased mode streams digit bits [p*v, (p+1)*v), so in both
     * modes plane j of phase p is plane p * dacBits + j here.
     */
    void packBitPlanesBatch(std::span<const Word> inputs, int first,
                            int n, int rs, int used,
                            std::vector<std::uint64_t> &dig) const;

    /**
     * Fast-path evaluation of one contiguous window block [first,
     * first + n): per row segment one batched packing, per
     * (phase, tile) one popcount GEMM, then the digital pass. Results
     * land in the windows' slices of `out` (rawSum in biased mode,
     * corrected by the caller) and `unitTotals` (biased mode only,
     * else null); counters in `part`.
     */
    void runBatchBlock(std::span<const Word> inputs, int first, int n,
                       std::span<Acc> out, Acc *unitTotals,
                       Partial &part) const;

    /** Program one tile; returns the cell writes performed. */
    std::int64_t programTile(ArrayTile &t,
                             std::span<const Word> weights,
                             int rowBase, int outBase);

    /**
     * (Re)program one tile's checksum column from the stored levels
     * the placement pass read back (usedRows x logicalCols, logical
     * column order); sets abftOk.
     */
    void programChecksum(ArrayTile &t, std::span<const int> stored);

    /** Physical column index of the ABFT checksum column. */
    int checksumCol() const { return cfg.cols + cfg.spareCols + 1; }

    EngineConfig cfg;
    int _numInputs;
    int _numOutputs;
    int _rowSegments;
    int _colSegments;
    std::vector<ArrayTile> tiles; ///< rowSegments x colSegments.
    Adc adc;
    /** dotProduct() call counter; keys the per-call noise stream. */
    mutable std::atomic<std::uint64_t> _opSeq{0};

    /**
     * Lock-free statistics substrate. Every dotProduct()/
     * dotProductBatch() call publishes its finished counter delta to
     * the calling thread's slot as one epoch; readers fold the slots.
     * Flat counter layout (see kLog* indices below):
     * [ EngineStats(7) | TransientStats(20) |
     *   per-tile {samples, clips, bitCycles} ].
     */
    static constexpr std::size_t kLogEngineFields = 7;
    static constexpr std::size_t kLogTransientFields = 20;
    /** Per-tile AdcTally fields in the flat layout. */
    static constexpr std::size_t kLogTileStride = 3;
    static constexpr std::size_t kLogTileBase =
        kLogEngineFields + kLogTransientFields;
    mutable EpochLog _log;
    /** Reader-side fold state: the vector-clock cursor plus the last
     *  folded totals, shared by stats()/tileAdcTally()/
     *  transientStats() under _foldMutex (readers only — writers
     *  never take it). */
    mutable std::mutex _foldMutex;
    mutable EpochLog::Cursor _foldCursor;
    mutable std::vector<std::uint64_t> _folded;

    /** Flatten one call's delta and publish it as one epoch; `total`
     *  carries the engine-wide clip and SAR-cycle sums (samples ride
     *  in `delta`). */
    void publishDelta(std::uint64_t ops, const EngineStats &delta,
                      const AdcTally &total,
                      const resilience::TransientStats &transientDelta,
                      std::span<const AdcTally> tileTally) const;
    /** Incremental fold into _folded; caller holds _foldMutex. */
    void foldLocked() const;

    /** injectCellFault() happened: stored levels no longer match
     *  what programming left, so the packed path stands down. */
    mutable std::atomic<bool> _injected{false};

  public:
    // Layout probes for the false-sharing audit
    // (tests/common/test_layout.cc). The nested hot structures are
    // private; these constexprs export just their geometry so the
    // static_asserts live next to the other layout checks instead of
    // inside this header.
    static constexpr std::size_t kArrayTileAlign = alignof(ArrayTile);
};

} // namespace isaac::xbar

#endif // ISAAC_XBAR_ENGINE_H
