#include "xbar/engine.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "common/bits.h"
#include "common/logging.h"
#include "resilience/remap.h"
#include "xbar/batch_kernel.h"
#include "xbar/encoding.h"

namespace isaac::xbar {

int
EngineConfig::adcBits() const
{
    const int data = adcResolution(rows, dacBits, cellBits,
                                   flipEncoding);
    // The unit column sums raw input digits over all rows; it must
    // be representable too. For the default design point (128 rows,
    // v=1, w=2, encoded) both requirements are exactly 8 bits.
    const Acc unitMax = static_cast<Acc>(rows) *
        ((Acc{1} << dacBits) - 1);
    const int unit = log2Ceil(static_cast<std::uint64_t>(unitMax) + 1);
    return adcPolicy.capBits(std::max(data, unit));
}

void
EngineConfig::validate() const
{
    if (rows <= 0 || cols <= 0)
        fatal("EngineConfig: array dimensions must be positive");
    if (cellBits < 1 || cellBits > 8 || kDataBits % cellBits != 0)
        fatal("EngineConfig: cell bits must divide 16");
    if (dacBits < 1 || dacBits > 8 || kDataBits % dacBits != 0)
        fatal("EngineConfig: DAC bits must divide 16");
    if (inputMode == InputMode::TwosComplement && dacBits != 1) {
        fatal("EngineConfig: two's-complement input streaming "
              "requires a 1-bit DAC; use InputMode::Biased");
    }
    if (outputsPerArray() < 1) {
        fatal("EngineConfig: array narrower than one sliced weight ("
              + std::to_string(slicesPerWeight()) + " columns)");
    }
    if (spareCols < 0 || spareCols > cols)
        fatal("EngineConfig: spare columns must be in [0, cols]");
    if (noise.maxProgramPulses < 1)
        fatal("EngineConfig: maxProgramPulses must be >= 1");
    if (maxReadRetries < 0)
        fatal("EngineConfig: maxReadRetries must be non-negative");
    if (retryBackoffCycles < 1)
        fatal("EngineConfig: retryBackoffCycles must be >= 1");
    adcPolicy.validate();
}

BitSerialEngine::BitSerialEngine(const EngineConfig &cfg,
                                 std::span<const Word> weights,
                                 int numInputs, int numOutputs)
    : cfg(cfg), _numInputs(numInputs), _numOutputs(numOutputs),
      adc(cfg.adcBits(), cfg.noise.anyEnabled())
{
    cfg.validate();
    if (numInputs <= 0 || numOutputs <= 0)
        fatal("BitSerialEngine: matrix dimensions must be positive");
    if (weights.size() !=
        static_cast<std::size_t>(numInputs) * numOutputs) {
        fatal("BitSerialEngine: weight span size does not match the "
              "matrix dimensions");
    }

    _rowSegments = static_cast<int>(ceilDiv(numInputs, cfg.rows));
    _colSegments = static_cast<int>(
        ceilDiv(numOutputs, cfg.outputsPerArray()));
    tiles.resize(static_cast<std::size_t>(_rowSegments) *
                 _colSegments);

    _log.configure(kLogTileBase + kLogTileStride * tiles.size());
    _folded.assign(_log.counters(), 0);
    for (int rs = 0; rs < _rowSegments; ++rs) {
        for (int cs = 0; cs < _colSegments; ++cs) {
            auto &t = tile(rs, cs);
            t.usedRows = std::min(cfg.rows,
                                  numInputs - rs * cfg.rows);
            t.localOutputs =
                std::min(cfg.outputsPerArray(),
                         numOutputs - cs * cfg.outputsPerArray());
            // Physical columns: data + configured spares + the unit
            // column + the ABFT checksum column if enabled. Each
            // tile's fault/write streams are salted with its index
            // so arrays fail independently.
            t.array = std::make_unique<CrossbarArray>(
                cfg.rows,
                cfg.cols + cfg.spareCols + 1 +
                    (cfg.abftChecksum ? 1 : 0),
                cfg.cellBits);
            t.array->setNoise(
                cfg.noise,
                static_cast<std::uint64_t>(rs) * _colSegments + cs);
        }
    }
    reprogram(weights);
}

BitSerialEngine::ArrayTile &
BitSerialEngine::tile(int rs, int cs)
{
    return tiles[static_cast<std::size_t>(rs) * _colSegments + cs];
}

const BitSerialEngine::ArrayTile &
BitSerialEngine::tile(int rs, int cs) const
{
    return tiles[static_cast<std::size_t>(rs) * _colSegments + cs];
}

std::int64_t
BitSerialEngine::programTile(ArrayTile &t,
                             std::span<const Word> weights,
                             int rowBase, int outBase)
{
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1; // + the unit column
    t.flipped.assign(static_cast<std::size_t>(dataCols), false);
    t.sumBiased.assign(static_cast<std::size_t>(t.localOutputs), 0);

    // Build the intended level matrix in logical layout: biased
    // digits, then the flip encoding, then the unit column (a
    // 1-valued cell in every used row, producing the sum of the
    // input digits each phase).
    std::vector<int> next(
        static_cast<std::size_t>(cfg.rows) * logicalCols, 0);
    auto at = [&](int r, int c) -> int & {
        return next[static_cast<std::size_t>(r) * logicalCols + c];
    };
    for (int o = 0; o < t.localOutputs; ++o) {
        const int k = outBase + o;
        for (int r = 0; r < t.usedRows; ++r) {
            const Word w = weights[static_cast<std::size_t>(k) *
                                       _numInputs +
                                   (rowBase + r)];
            const std::uint16_t u = biasWeight(w);
            t.sumBiased[static_cast<std::size_t>(o)] += u;
            const auto digits = sliceWeight(u, cfg.cellBits);
            for (int s = 0; s < slices; ++s)
                at(r, o * slices + s) =
                    digits[static_cast<std::size_t>(s)];
        }
    }
    if (cfg.flipEncoding) {
        std::vector<int> levels(static_cast<std::size_t>(t.usedRows));
        for (int c = 0; c < dataCols; ++c) {
            for (int r = 0; r < t.usedRows; ++r)
                levels[static_cast<std::size_t>(r)] = at(r, c);
            if (shouldFlipColumn(levels, cfg.cellBits)) {
                t.flipped[static_cast<std::size_t>(c)] = true;
                for (int r = 0; r < t.usedRows; ++r)
                    at(r, c) = flipLevel(at(r, c), cfg.cellBits);
            }
        }
    }
    for (int r = 0; r < t.usedRows; ++r)
        at(r, dataCols) = 1;

    // Merge plan: a flipped slice reads (2^w - 1) * unit - v, so its
    // weight goes negative and its (2^w - 1) * unit share moves onto
    // the unit reading's weight, as does the two's-complement bias
    // removal (-2^15 * unit per phase).
    const Acc full = (Acc{1} << cfg.cellBits) - 1;
    t.sliceWeight.assign(static_cast<std::size_t>(dataCols), 0);
    t.unitWeight.assign(
        static_cast<std::size_t>(t.localOutputs),
        cfg.inputMode == InputMode::TwosComplement ? -kWeightBias : 0);
    for (int c = 0; c < dataCols; ++c) {
        const Acc w = Acc{1} << ((c % slices) * cfg.cellBits);
        const bool flip = t.flipped[static_cast<std::size_t>(c)];
        t.sliceWeight[static_cast<std::size_t>(c)] = flip ? -w : w;
        if (flip)
            t.unitWeight[static_cast<std::size_t>(c / slices)] +=
                full * w;
    }

    // First programming pass: fault-aware placement decides which
    // physical column serves each logical column (identity unless
    // program-verify flags mismatches and spares are available).
    // Reprogramming keeps the placement and rewrites differentially.
    std::int64_t writes = 0;
    std::vector<int> stored;
    if (t.colMap.empty()) {
        std::vector<int> preferred(
            static_cast<std::size_t>(logicalCols));
        for (int c = 0; c < dataCols; ++c)
            preferred[static_cast<std::size_t>(c)] = c;
        preferred[static_cast<std::size_t>(dataCols)] =
            cfg.cols + cfg.spareCols;
        std::vector<int> spares(
            static_cast<std::size_t>(cfg.spareCols));
        for (int s = 0; s < cfg.spareCols; ++s)
            spares[static_cast<std::size_t>(s)] = cfg.cols + s;
        auto plan = resilience::assignColumns(
            *t.array, next, cfg.rows, t.usedRows, logicalCols,
            preferred, spares);
        t.colMap = std::move(plan.colMap);
        t.faults = std::move(plan.faults);
        t.remappedColumns = plan.remappedColumns;
        t.uncorrectableCells = plan.uncorrectableCells;
        writes = plan.cellWrites;
        stored = std::move(plan.stored);
    } else {
        auto plan = resilience::reprogramColumns(
            *t.array, next, t.intended, cfg.rows, t.usedRows,
            logicalCols, t.colMap);
        t.faults = std::move(plan.faults);
        t.uncorrectableCells = plan.uncorrectableCells;
        writes = plan.cellWrites;
        stored = std::move(plan.stored);
    }
    t.intended = std::move(next);
    if (cfg.abftChecksum)
        programChecksum(t, stored);
    return writes;
}

void
BitSerialEngine::programChecksum(ArrayTile &t,
                                 std::span<const int> stored)
{
    // Checksum targets come from the *stored* levels the placement
    // pass left behind — reusing the readback its verification loop
    // already performed instead of re-reading every cell — unflipped
    // to the logical encoding so the digital check in
    // runPhaseSegment, which also unflips, stays consistent.
    // Deriving targets from readback rather than intent means
    // permanent write failures the remapper already reported do not
    // raise ABFT alarms forever.
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1;
    const int mask = (1 << cfg.cellBits) - 1;
    std::vector<int> target(static_cast<std::size_t>(t.usedRows), 0);
    for (int r = 0; r < t.usedRows; ++r) {
        int sum = 0;
        for (int c = 0; c < dataCols; ++c) {
            int lvl = stored[static_cast<std::size_t>(r) *
                                 logicalCols +
                             c];
            if (t.flipped[static_cast<std::size_t>(c)])
                lvl = flipLevel(lvl, cfg.cellBits);
            sum += lvl;
        }
        target[static_cast<std::size_t>(r)] = sum & mask;
    }
    // The checksum column obeys the same flip rule as data columns
    // so its bitline sum stays inside the encoded ADC range.
    t.checksumFlipped =
        cfg.flipEncoding && shouldFlipColumn(target, cfg.cellBits);
    if (t.checksumFlipped) {
        for (int &lvl : target)
            lvl = flipLevel(lvl, cfg.cellBits);
    }
    t.abftOk = true;
    const int phys = checksumCol();
    for (int r = 0; r < t.usedRows; ++r) {
        const int want = target[static_cast<std::size_t>(r)];
        int have = t.array->cell(r, phys);
        if (have != want) {
            t.array->program(r, phys, want);
            have = t.array->cell(r, phys);
        }
        if (have != want)
            t.abftOk = false; // Defective column: run unchecked.
    }
}

std::int64_t
BitSerialEngine::reprogram(std::span<const Word> weights)
{
    if (weights.size() !=
        static_cast<std::size_t>(_numInputs) * _numOutputs) {
        fatal("BitSerialEngine::reprogram: weight span size does "
              "not match the matrix dimensions");
    }
    // Each tile owns its array and write RNG, so the tile order does
    // not affect the stored levels.
    std::int64_t writes = 0;
    for (int rs = 0; rs < _rowSegments; ++rs)
        for (int cs = 0; cs < _colSegments; ++cs)
            writes += programTile(tile(rs, cs), weights, rs * cfg.rows,
                                  cs * cfg.outputsPerArray());
    return writes;
}

bool
BitSerialEngine::fastPathActive() const
{
    return cfg.fastPath && !cfg.noise.readNoiseEnabled() &&
        !cfg.noise.driftEnabled() &&
        !_injected.load(std::memory_order_relaxed);
}

void
BitSerialEngine::runPhaseSegment(std::span<const Word> inputs, int p,
                                 int rs, std::uint64_t opSeq,
                                 Partial &part) const
{
    const int slices = cfg.slicesPerWeight();
    const int phases = cfg.phases();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;

    const int used = tile(rs, 0).usedRows;
    auto &digits = part.digits;
    digits.assign(static_cast<std::size_t>(used), 0);
    for (int r = 0; r < used; ++r) {
        const Word x =
            inputs[static_cast<std::size_t>(rs * cfg.rows + r)];
        if (twosComp) {
            digits[static_cast<std::size_t>(r)] = bitOf(x, p);
        } else {
            const std::uint16_t y = static_cast<std::uint16_t>(
                static_cast<Acc>(x) + kWeightBias);
            digits[static_cast<std::size_t>(r)] =
                digitOf(static_cast<Word>(y), p * cfg.dacBits,
                        cfg.dacBits);
        }
    }
    part.stats.dacActivations += static_cast<std::uint64_t>(used);

    for (int cs = 0; cs < _colSegments; ++cs) {
        const auto &t = tile(rs, cs);
        const int dataCols = t.localOutputs * slices;
        auto &tileTally = part.tileAdc[static_cast<std::size_t>(
            rs * _colSegments + cs)];
        const bool checking = cfg.abftChecksum && t.abftOk;
        const std::uint64_t baseSeq =
            opSeq * static_cast<std::uint64_t>(phases) +
            static_cast<std::uint64_t>(p);

        // The noise sequence salts the attempt into the high bits;
        // the drift clock stays pinned to opSeq — noise excursions
        // are retryable, drifted conductances are not.
        Acc unit = 0;
        evalTileAttempts(
            t, dataCols, checking, part, tileTally, unit,
            [&](int attempt) -> const std::vector<Acc> & {
                t.array->readAllBitlinesInto(
                    part.digits,
                    baseSeq +
                        (static_cast<std::uint64_t>(attempt) << 40),
                    opSeq, part.currents);
                return part.currents;
            });

        mergeTilePhase(t, cs, p, unit, part,
                       twosComp ? std::span<Acc>(part.result)
                                : std::span<Acc>(part.rawSum),
                       part.unitTotal);
    }
}

void
BitSerialEngine::mergeTilePhase(const ArrayTile &t, int cs, int p,
                                Acc unit, Partial &part,
                                std::span<Acc> acc,
                                Acc &unitTotal) const
{
    const int slices = cfg.slicesPerWeight();
    const int phases = cfg.phases();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    const auto &colQ = part.colQ;
    for (int o = 0; o < t.localOutputs; ++o) {
        Acc merged = 0;
        for (int s = 0; s < slices; ++s) {
            const int c = o * slices + s;
            merged += colQ[static_cast<std::size_t>(c)] *
                (Acc{1} << (s * cfg.cellBits));
            ++part.stats.shiftAdds;
        }
        const std::size_t k = static_cast<std::size_t>(
            cs * cfg.outputsPerArray() + o);
        if (twosComp) {
            // Remove the weight bias for this phase, then
            // shift-and-add (subtract for the sign bit).
            const Acc v = merged - kWeightBias * unit;
            acc[k] += (p == phases - 1 ? -v : v) * (Acc{1} << p);
        } else {
            acc[k] += merged * (Acc{1} << (p * cfg.dacBits));
        }
        ++part.stats.shiftAdds;
    }
    // unitTotal is a row-side quantity: accumulate it once per
    // (phase, row segment), not per column tile.
    if (!twosComp && cs == 0)
        unitTotal += unit * (Acc{1} << (p * cfg.dacBits));
}

template <typename ReadFn>
void
BitSerialEngine::evalTileAttempts(const ArrayTile &t, int dataCols,
                                  bool checking, Partial &part,
                                  AdcTally &tileTally, Acc &unit,
                                  ReadFn readFn) const
{
    // Read-attempt loop. Each attempt samples the unit column and
    // every mapped data column (spares the remapper left unused are
    // never sampled); with ABFT active the checksum column is
    // sampled too and the quantized total is verified mod 2^w. A
    // mismatch triggers a bounded re-read — the scalar read
    // primitive draws a fresh noise sequence per attempt, the packed
    // primitive is deterministic — and the retry
    // decision depends only on the currents readFn supplies, so
    // every execution path shares this loop and every counter it
    // touches.
    //
    // Resolution law: the unit column converts first at the static
    // per-tile bound (its reading is the sum of this cycle's input
    // digits, unknowable before converting); the data and checksum
    // columns then run at the per-cycle bound the unit certifies —
    // reading <= (2^w - 1) * unit. A fixed policy resolves the full
    // converter width on every conversion (resolutionFor == cap).
    const int cap = adc.bits();
    const bool adaptive = cfg.adcPolicy.isAdaptive();
    const int unitRes = adaptive
        ? cfg.adcPolicy.resolutionFor(
              static_cast<Acc>(t.usedRows) *
                  ((Acc{1} << cfg.dacBits) - 1),
              cap)
        : cap;
    const Acc maxLevel = (Acc{1} << cfg.cellBits) - 1;
    auto &colQ = part.colQ;
    colQ.assign(static_cast<std::size_t>(dataCols), 0);
    for (int attempt = 0;; ++attempt) {
        const std::vector<Acc> &currents = readFn(attempt);
        ++part.stats.crossbarReads;
        unit = adc.quantizeAt(
            currents[static_cast<std::size_t>(
                t.colMap[static_cast<std::size_t>(dataCols)])],
            unitRes, tileTally);
        ++part.stats.adcSamples;
        const int dataRes = adaptive
            ? cfg.adcPolicy.resolutionFor(unit * maxLevel, cap)
            : cap;
        Acc rawTotal = 0;
        for (int c = 0; c < dataCols; ++c) {
            const int phys = t.colMap[static_cast<std::size_t>(c)];
            Acc v = adc.quantizeAt(
                currents[static_cast<std::size_t>(phys)], dataRes,
                tileTally);
            ++part.stats.adcSamples;
            if (t.flipped[static_cast<std::size_t>(c)])
                v = unflipColumnSum(v, unit, cfg.cellBits);
            colQ[static_cast<std::size_t>(c)] = v;
            rawTotal += v;
        }
        if (!checking)
            break;
        Acc s = adc.quantizeAt(
            currents[static_cast<std::size_t>(checksumCol())],
            dataRes, tileTally);
        ++part.stats.adcSamples;
        if (t.checksumFlipped)
            s = unflipColumnSum(s, unit, cfg.cellBits);
        ++part.transient.abftChecks;
        const Acc mod = Acc{1} << cfg.cellBits;
        if (((rawTotal - s) % mod + mod) % mod == 0)
            break;
        if (attempt == 0)
            ++part.transient.abftMismatches;
        if (attempt >= cfg.maxReadRetries) {
            ++part.transient.abftUncorrected;
            break;
        }
        ++part.transient.abftRetries;
        part.transient.abftRetryCycles +=
            static_cast<std::uint64_t>(cfg.retryBackoffCycles)
            << attempt;
    }
}

std::vector<Acc>
BitSerialEngine::dotProduct(std::span<const Word> inputs) const
{
    if (inputs.size() != static_cast<std::size_t>(_numInputs))
        fatal("BitSerialEngine::dotProduct: wrong input length");
    if (fastPathActive())
        return dotProductBatch(inputs, 1);

    const int phases = cfg.phases();
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    const std::uint64_t opSeq =
        _opSeq.fetch_add(1, std::memory_order_relaxed);

    // Scalar reference path: every (phase, row segment) pass lands
    // its partial sums, stats, and ADC tallies in one call-local
    // accumulator.
    Partial part;
    part.result.assign(static_cast<std::size_t>(_numOutputs), 0);
    if (!twosComp)
        part.rawSum.assign(static_cast<std::size_t>(_numOutputs), 0);
    part.tileAdc.assign(tiles.size(), AdcTally{});
    for (int p = 0; p < phases; ++p)
        for (int rs = 0; rs < _rowSegments; ++rs)
            runPhaseSegment(inputs, p, rs, opSeq, part);

    AdcTally tally;
    for (const auto &t : part.tileAdc)
        tally.merge(t);

    if (!twosComp) {
        // sum(x*w) = sum(y*u) - B*sum(y) - B*sum(u) + R*B^2 with
        // y = x + B, u = w + B (Sec. V's bias, applied to both
        // operands).
        Acc totalUsedRows = 0;
        for (int rs = 0; rs < _rowSegments; ++rs)
            totalUsedRows += tile(rs, 0).usedRows;
        for (int k = 0; k < _numOutputs; ++k) {
            Acc sumU = 0;
            const int cs = k / cfg.outputsPerArray();
            const int o = k % cfg.outputsPerArray();
            for (int rs = 0; rs < _rowSegments; ++rs)
                sumU += tile(rs, cs)
                            .sumBiased[static_cast<std::size_t>(o)];
            part.result[static_cast<std::size_t>(k)] =
                part.rawSum[static_cast<std::size_t>(k)] -
                kWeightBias * part.unitTotal - kWeightBias * sumU +
                totalUsedRows * kWeightBias * kWeightBias;
        }
    }

    // Drift refresh policy: after every refreshIntervalOps
    // operations, every array is re-verified against its stored
    // levels (the read-path drift model already treats refreshed
    // cells as exact — see CrossbarArray::effectiveLevel — so the
    // pass is pure accounting: one pulse per programmed cell,
    // charged to the WriteModel by the callers that price energy).
    // Keyed by opSeq, so any call interleaving charges identically.
    if (cfg.noise.driftEnabled() && cfg.noise.refreshIntervalOps &&
        (opSeq + 1) % cfg.noise.refreshIntervalOps == 0) {
        for (const auto &t : tiles) {
            ++part.transient.driftRefreshes;
            part.transient.refreshPulses += static_cast<std::uint64_t>(
                t.array->programmedCells());
        }
    }

    adc.addTally(tally);
    publishDelta(1, part.stats, tally, part.transient, part.tileAdc);
    return std::move(part.result);
}

void
BitSerialEngine::packBitPlanesBatch(
    std::span<const Word> inputs, int first, int n, int rs, int used,
    std::vector<std::uint64_t> &dig) const
{
    const int words = (cfg.rows + 63) / 64;
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    dig.assign(static_cast<std::size_t>(kDataBits) * words * n, 0);
    // Distance between bit-plane b and b + 1 in the matrix.
    const std::size_t planeStride =
        static_cast<std::size_t>(words) * n;
    for (int i = 0; i < n; ++i) {
        const Word *x = inputs.data() +
            static_cast<std::size_t>(first + i) * _numInputs +
            static_cast<std::size_t>(rs) * cfg.rows;
        for (int r = 0; r < used; ++r) {
            // The streamed 16-bit value: raw two's-complement bits
            // (bitOf semantics) or the biased x + 2^15 (digitOf on
            // the biased value); either way bit b lands in plane b.
            unsigned y = twosComp
                ? static_cast<std::uint16_t>(x[r])
                : static_cast<std::uint16_t>(static_cast<Acc>(x[r]) +
                                             kWeightBias);
            if (!y)
                continue;
            const std::uint64_t bit = std::uint64_t{1} << (r & 63);
            std::uint64_t *base = dig.data() +
                static_cast<std::size_t>(r >> 6) * n + i;
            // Scatter the set bits (ctz walk: no per-plane branch
            // mispredictions, and sign-extended small activations
            // skip their all-zero planes for free).
            do {
                const int b = std::countr_zero(y);
                y &= y - 1;
                base[static_cast<std::size_t>(b) * planeStride] |=
                    bit;
            } while (y);
        }
    }
}

void
BitSerialEngine::runBatchBlock(std::span<const Word> inputs,
                               int first, int n, std::span<Acc> out,
                               Acc *unitTotals, Partial &part) const
{
    const int slices = cfg.slicesPerWeight();
    const int phases = cfg.phases();
    const int words = (cfg.rows + 63) / 64;
    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    // Too few windows to fill a vector row: merge window by window
    // from the tiles' merge plans instead of through kernel rows.
    const bool smallBatch = n < kernel::kSmallBatch;
    auto &dig = part.dig;
    auto &curMat = part.curMat;
    Acc dummyUnitTotal = 0;
    // Column-major output accumulator (batchAcc[k * n + i]): the
    // digital pass adds into contiguous window runs and one transpose
    // at the end lands the block in `out`. ABFT tiles merge straight
    // into `out` instead; mixing is fine because both only ever add.
    auto &batchAcc = part.batchAcc;
    batchAcc.assign(static_cast<std::size_t>(_numOutputs) * n, 0);
    auto &units = part.unitsBatch;
    auto &dataCeil = part.dataCeil;
    const Acc maxCode = adc.maxCode();
    const int cap = adc.bits();
    const bool adaptive = cfg.adcPolicy.isAdaptive();
    const Acc maxLevel = (Acc{1} << cfg.cellBits) - 1;
    const std::size_t phaseStride =
        static_cast<std::size_t>(cfg.dacBits) * words * n;
    for (int rs = 0; rs < _rowSegments; ++rs) {
        const int used = tile(rs, 0).usedRows;
        // One pass over the block's inputs packs every phase's
        // planes (phase p consumes the slice at bit p * dacBits);
        // the DAC still streams every phase, so its activations are
        // charged for all of them here.
        packBitPlanesBatch(inputs, first, n, rs, used, dig);
        part.stats.dacActivations +=
            static_cast<std::uint64_t>(used) * n * phases;
        for (int p = 0; p < phases; ++p) {
            const std::span<const std::uint64_t> digP(
                dig.data() + static_cast<std::size_t>(p) * phaseStride,
                phaseStride);
            // A phase whose digits are all zero in every window (the
            // sign-extended high bits of small non-negative
            // activations) reads zero on every column: a clip-free
            // tile has nothing to merge, though every read and
            // conversion is still charged.
            const bool zeroPhase =
                std::all_of(digP.begin(), digP.end(),
                            [](std::uint64_t w) { return w == 0; });
            for (int cs = 0; cs < _colSegments; ++cs) {
                const auto &t = tile(rs, cs);
                const int dataCols = t.localOutputs * slices;
                const int physCols = t.array->cols();
                const std::size_t ti =
                    static_cast<std::size_t>(rs * _colSegments + cs);
                auto &tileTally = part.tileAdc[ti];
                const bool checking = cfg.abftChecksum && t.abftOk;
                t.array->readAllBitlinesPackedBatch(digP, cfg.dacBits,
                                                    n, curMat);
                if (checking) {
                    // ABFT tiles keep the shared per-window attempt
                    // ladder (retries and their counters must match
                    // a sequential run exactly).
                    for (int i = 0; i < n; ++i) {
                        Acc unit = 0;
                        evalTileAttempts(
                            t, dataCols, checking, part, tileTally,
                            unit,
                            [&](int attempt)
                                -> const std::vector<Acc> & {
                                // Batched attempts are deterministic:
                                // the currents are the window's GEMM
                                // column, gathered once; every
                                // attempt still charges its read
                                // cycle so readCycles() matches a
                                // per-window run under ABFT retries.
                                if (attempt == 0) {
                                    part.currents.resize(
                                        static_cast<std::size_t>(
                                            physCols));
                                    for (int c = 0; c < physCols; ++c)
                                        part.currents[static_cast<
                                            std::size_t>(c)] =
                                            curMat[static_cast<
                                                       std::size_t>(
                                                       c) *
                                                       n +
                                                   i];
                                }
                                t.array->chargeReadCycles(1);
                                return part.currents;
                            });
                        const std::size_t base =
                            static_cast<std::size_t>(first + i) *
                            _numOutputs;
                        mergeTilePhase(
                            t, cs, p, unit, part,
                            out.subspan(base,
                                        static_cast<std::size_t>(
                                            _numOutputs)),
                            unitTotals ? unitTotals[first + i]
                                       : dummyUnitTotal);
                    }
                    continue;
                }
                // Unchecked tiles: one column-major digital pass over
                // the GEMM matrix, bit-identical to n trips through
                // evalTileAttempts (single attempt) + mergeTilePhase.
                // Counters are commutative sums, charged in bulk:
                part.stats.crossbarReads +=
                    static_cast<std::uint64_t>(n);
                part.stats.adcSamples +=
                    static_cast<std::uint64_t>(dataCols + 1) * n;
                tileTally.samples +=
                    static_cast<std::uint64_t>(dataCols + 1) * n;
                if (!adaptive) {
                    // Fixed policy: every conversion runs the full
                    // SAR ladder, so the cycle count is a closed
                    // form. Adaptive tiles charge per window below
                    // (the resolution depends on each unit reading).
                    tileTally.bitCycles +=
                        static_cast<std::uint64_t>(dataCols + 1) * n *
                        static_cast<std::uint64_t>(cap);
                }
                t.array->chargeReadCycles(n);
                part.stats.shiftAdds +=
                    static_cast<std::uint64_t>(n) * t.localOutputs *
                    (slices + 1);
                const Acc *unitRow = curMat.data() +
                    static_cast<std::size_t>(t.colMap[static_cast<
                        std::size_t>(dataCols)]) * n;
                // Clip feasibility: when even the all-ones digit
                // pattern cannot push any column past the ADC ceiling
                // — the common case; the flip encoding exists to
                // guarantee it for clean weights — quantize() is the
                // identity on every reading of the tile and the
                // digital pass can skip clamping entirely. Stuck-at-
                // high cells can break the bound (it is taken over
                // the *stored* levels, so they are counted), in which
                // case the tile takes the clamped ladder.
                const bool clipFree =
                    t.array->maxPackedReading(cfg.dacBits) <= maxCode;
                if (clipFree && adaptive) {
                    // The adaptive ceilings cover every clean reading
                    // whenever the fixed ones do (the unit-certified
                    // bound dominates the data readings, and the
                    // capped case falls back to maxCode — see
                    // evalTileAttempts), so the merge stays
                    // bit-identical; only the realized comparator
                    // cycles differ.
                    const int unitRes = cfg.adcPolicy.resolutionFor(
                        static_cast<Acc>(t.usedRows) *
                            ((Acc{1} << cfg.dacBits) - 1),
                        cap);
                    std::uint64_t cycles = 0;
                    for (int i = 0; i < n; ++i) {
                        cycles += static_cast<std::uint64_t>(
                            unitRes +
                            dataCols * cfg.adcPolicy.resolutionFor(
                                           unitRow[i] * maxLevel,
                                           cap));
                    }
                    tileTally.bitCycles += cycles;
                }
                if (clipFree && zeroPhase)
                    continue;
                if (clipFree && !smallBatch) {
                    // Wide clip-free batches: the slices fold straight
                    // into the column-major accumulator as power-of-
                    // two shift/add rows through the kernel's vector
                    // tiers.
                    static_assert(kWeightBias == Acc{1} << 15,
                                  "bias-removal shift assumes the "
                                  "2^15 weight bias");
                    const int phShift =
                        twosComp ? p : p * cfg.dacBits;
                    const bool neg = twosComp && p == phases - 1;
                    for (int o = 0; o < t.localOutputs; ++o) {
                        Acc *accRow = batchAcc.data() +
                            static_cast<std::size_t>(
                                cs * cfg.outputsPerArray() + o) *
                                n;
                        for (int s = 0; s < slices; ++s) {
                            const int c = o * slices + s;
                            const Acc *row = curMat.data() +
                                static_cast<std::size_t>(
                                    t.colMap[static_cast<
                                        std::size_t>(c)]) *
                                    n;
                            const int shift =
                                s * cfg.cellBits + phShift;
                            if (t.flipped[static_cast<std::size_t>(
                                    c)]) {
                                kernel::scaleAddFlipped(
                                    accRow, row, unitRow,
                                    cfg.cellBits, shift, neg, n);
                            } else {
                                kernel::scaleAdd(accRow, row, shift,
                                                 neg, n);
                            }
                        }
                        if (twosComp) {
                            // Remove the per-phase weight bias:
                            // -sign * (unit << 15) << p.
                            kernel::scaleAdd(accRow, unitRow, 15 + p,
                                             !neg, n);
                        }
                    }
                    if (!twosComp && cs == 0 && unitTotals) {
                        kernel::scaleAdd(unitTotals + first, unitRow,
                                         p * cfg.dacBits, false, n);
                    }
                    continue;
                }
                // Small batches and tiles that may clip merge window
                // by window from the tile's merge plan.
                std::uint64_t clips = 0;
                const Acc *unitQ = unitRow;
                if (!clipFree) {
                    // The clamped ladder converts the unit column
                    // first (quantize clamp order matches the scalar
                    // ladder; a packed read can never go negative,
                    // which is the one case quantize() panics on).
                    // Under an adaptive policy the unit converts at
                    // the tile's static-bound resolution and each
                    // window's data columns clamp at the ceiling its
                    // quantized unit certifies, exactly as
                    // evalTileAttempts does.
                    const int unitRes = adaptive
                        ? cfg.adcPolicy.resolutionFor(
                              static_cast<Acc>(t.usedRows) *
                                  ((Acc{1} << cfg.dacBits) - 1),
                              cap)
                        : cap;
                    const Acc unitCeil = (Acc{1} << unitRes) - 1;
                    units.resize(static_cast<std::size_t>(n));
                    dataCeil.assign(static_cast<std::size_t>(n),
                                    maxCode);
                    std::uint64_t cycles = 0;
                    for (int i = 0; i < n; ++i) {
                        const Acc u = unitRow[i];
                        clips += static_cast<std::uint64_t>(u > unitCeil);
                        const Acc uq = u > unitCeil ? unitCeil : u;
                        units[static_cast<std::size_t>(i)] = uq;
                        if (adaptive) {
                            const int res = cfg.adcPolicy.resolutionFor(
                                uq * maxLevel, cap);
                            dataCeil[static_cast<std::size_t>(i)] =
                                (Acc{1} << res) - 1;
                            cycles += static_cast<std::uint64_t>(
                                unitRes + dataCols * res);
                        }
                    }
                    if (adaptive)
                        tileTally.bitCycles += cycles;
                    unitQ = units.data();
                }
                // Per window and output: one dot product of the slice
                // readings and the unit reading with their signed
                // weights, scaled by the phase weight (negated for
                // the two's-complement sign bit).
                const Acc phaseWeight = twosComp
                    ? (p == phases - 1 ? -(Acc{1} << p) : Acc{1} << p)
                    : Acc{1} << (p * cfg.dacBits);
                const auto planMerge = [&](auto clamped) {
                    for (int o = 0; o < t.localOutputs; ++o) {
                        const Acc *w = t.sliceWeight.data() +
                            static_cast<std::size_t>(o) * slices;
                        const int *col = t.colMap.data() +
                            static_cast<std::size_t>(o) * slices;
                        const Acc uw =
                            t.unitWeight[static_cast<std::size_t>(o)];
                        Acc *accRow = batchAcc.data() +
                            static_cast<std::size_t>(
                                cs * cfg.outputsPerArray() + o) *
                                n;
                        for (int i = 0; i < n; ++i) {
                            const Acc *reading = curMat.data() + i;
                            Acc m = uw * unitQ[i];
                            if constexpr (decltype(clamped)::value) {
                                const Acc lim = dataCeil[
                                    static_cast<std::size_t>(i)];
                                for (int s = 0; s < slices; ++s) {
                                    const Acc v = reading[
                                        static_cast<std::size_t>(
                                            col[s]) * n];
                                    clips +=
                                        static_cast<std::uint64_t>(
                                            v > lim);
                                    m += w[s] * (v > lim ? lim : v);
                                }
                            } else {
                                for (int s = 0; s < slices; ++s)
                                    m += w[s] *
                                        reading[static_cast<
                                                    std::size_t>(
                                                    col[s]) *
                                                n];
                            }
                            accRow[i] += phaseWeight * m;
                        }
                    }
                };
                if (clipFree)
                    planMerge(std::false_type{});
                else
                    planMerge(std::true_type{});
                tileTally.clips += clips;
                if (!twosComp && cs == 0 && unitTotals) {
                    for (int i = 0; i < n; ++i)
                        unitTotals[first + i] += unitQ[i]
                            << (p * cfg.dacBits);
                }
            }
        }
    }
    // Land the column-major accumulator in the windows' out slices.
    for (int i = 0; i < n; ++i) {
        Acc *row = out.data() +
            static_cast<std::size_t>(first + i) * _numOutputs;
        for (int k = 0; k < _numOutputs; ++k)
            row[k] +=
                batchAcc[static_cast<std::size_t>(k) * n + i];
    }
}

std::vector<Acc>
BitSerialEngine::dotProductBatch(std::span<const Word> inputs,
                                 int count) const
{
    if (count < 0 ||
        inputs.size() !=
            static_cast<std::size_t>(count) * _numInputs) {
        fatal("BitSerialEngine::dotProductBatch: input span does not "
              "hold count x numInputs words");
    }
    std::vector<Acc> out(
        static_cast<std::size_t>(count) * _numOutputs, 0);
    if (count == 0)
        return out;
    if (!fastPathActive()) {
        // Noisy / drifting / fault-injected engines take the scalar
        // per-window path — identical to the caller looping
        // dotProduct(), including the per-op noise realizations.
        for (int i = 0; i < count; ++i) {
            const auto r = dotProduct(inputs.subspan(
                static_cast<std::size_t>(i) * _numInputs,
                static_cast<std::size_t>(_numInputs)));
            std::copy(r.begin(), r.end(),
                      out.begin() +
                          static_cast<std::size_t>(i) * _numOutputs);
        }
        return out;
    }

    const bool twosComp = cfg.inputMode == InputMode::TwosComplement;
    // Claim the op-sequence range `count` dotProduct() calls would:
    // the fast path never draws from the noise streams, but later
    // scalar operations (say, after a fault injection stands the
    // fast path down) must observe the same sequence either way.
    _opSeq.fetch_add(static_cast<std::uint64_t>(count),
                     std::memory_order_relaxed);

    // Contiguous window blocks of at most kBlockWindows bound the
    // GEMM scratch; results and counters are independent of the
    // block size.
    constexpr int kBlockWindows = 256;
    Partial part;
    part.tileAdc.assign(tiles.size(), AdcTally{});
    std::vector<Acc> unitTotals;
    if (!twosComp)
        unitTotals.assign(static_cast<std::size_t>(count), 0);
    for (int first = 0; first < count; first += kBlockWindows) {
        runBatchBlock(inputs, first,
                      std::min(kBlockWindows, count - first),
                      std::span<Acc>(out),
                      twosComp ? nullptr : unitTotals.data(), part);
    }

    AdcTally tally;
    for (const auto &t : part.tileAdc)
        tally.merge(t);

    if (!twosComp) {
        // The same bias inversion dotProduct() applies, per window
        // (sum(x*w) = sum(y*u) - B*sum(y) - B*sum(u) + R*B^2).
        Acc totalUsedRows = 0;
        for (int rs = 0; rs < _rowSegments; ++rs)
            totalUsedRows += tile(rs, 0).usedRows;
        std::vector<Acc> sumU(static_cast<std::size_t>(_numOutputs));
        for (int k = 0; k < _numOutputs; ++k) {
            const int cs = k / cfg.outputsPerArray();
            const int o = k % cfg.outputsPerArray();
            Acc s = 0;
            for (int rs = 0; rs < _rowSegments; ++rs)
                s += tile(rs, cs)
                         .sumBiased[static_cast<std::size_t>(o)];
            sumU[static_cast<std::size_t>(k)] = s;
        }
        for (int i = 0; i < count; ++i) {
            Acc *row =
                out.data() + static_cast<std::size_t>(i) * _numOutputs;
            for (int k = 0; k < _numOutputs; ++k) {
                row[k] = row[k] -
                    kWeightBias *
                        unitTotals[static_cast<std::size_t>(i)] -
                    kWeightBias * sumU[static_cast<std::size_t>(k)] +
                    totalUsedRows * kWeightBias * kWeightBias;
            }
        }
    }

    // fastPathActive() implies drift is disabled, so the periodic
    // refresh accounting dotProduct() performs can never trigger.
    adc.addTally(tally);
    publishDelta(static_cast<std::uint64_t>(count), part.stats, tally,
                 part.transient, part.tileAdc);
    return out;
}

int
BitSerialEngine::physicalArrays() const
{
    return _rowSegments * _colSegments;
}

void
BitSerialEngine::publishDelta(
    std::uint64_t ops, const EngineStats &delta,
    const AdcTally &total, const resilience::TransientStats &tr,
    std::span<const AdcTally> tileTally) const
{
    // Flatten the finished call's counters into the log layout and
    // publish them as one epoch. The delta lives entirely in
    // caller-owned scratch, so this is the only point where the call
    // touches shared state — and it touches only this thread's slot.
    std::vector<std::uint64_t> flat(_log.counters(), 0);
    flat[0] = ops;
    flat[1] = delta.crossbarReads;
    flat[2] = delta.adcSamples;
    flat[3] = total.clips;
    flat[4] = delta.shiftAdds;
    flat[5] = delta.dacActivations;
    flat[6] = total.bitCycles;
    std::uint64_t *t = flat.data() + kLogEngineFields;
    t[0] = tr.abftChecks;
    t[1] = tr.abftMismatches;
    t[2] = tr.abftRetries;
    t[3] = tr.abftRetryCycles;
    t[4] = tr.abftUncorrected;
    t[5] = tr.abftDisabledTiles;
    t[6] = tr.driftRefreshes;
    t[7] = tr.refreshPulses;
    t[8] = tr.eccWords;
    t[9] = tr.eccBitFlips;
    t[10] = tr.eccSingles;
    t[11] = tr.eccDoubles;
    t[12] = tr.eccRecomputedWords;
    t[13] = tr.eccRecomputeCycles;
    t[14] = tr.packetsSent;
    t[15] = tr.packetsCorrupted;
    t[16] = tr.packetsRetransmitted;
    t[17] = tr.packetBackoffCycles;
    t[18] = tr.packetsUncorrected;
    t[19] = tr.deadLinks;
    for (std::size_t i = 0; i < tileTally.size(); ++i) {
        const std::size_t base = kLogTileBase + kLogTileStride * i;
        flat[base] = tileTally[i].samples;
        flat[base + 1] = tileTally[i].clips;
        flat[base + 2] = tileTally[i].bitCycles;
    }
    _log.publish(flat);
}

void
BitSerialEngine::foldLocked() const
{
    _log.fold(_foldCursor, _folded);
}

EngineStats
BitSerialEngine::stats() const
{
    std::lock_guard<std::mutex> lock(_foldMutex);
    foldLocked();
    EngineStats s;
    s.ops = _folded[0];
    s.crossbarReads = _folded[1];
    s.adcSamples = _folded[2];
    s.adcClips = _folded[3];
    s.shiftAdds = _folded[4];
    s.dacActivations = _folded[5];
    s.adcBitCycles = _folded[6];
    return s;
}

void
BitSerialEngine::resetStats()
{
    {
        // Rewind the epoch log and the reader-side cursor together.
        // The caller guarantees no dotProduct() is in flight (same
        // contract as reprogram), so reset() observes no half-
        // published epochs; dropping the cursor forgets the cached
        // pre-reset snapshots outright.
        std::lock_guard<std::mutex> lock(_foldMutex);
        _log.reset();
        _foldCursor = EpochLog::Cursor{};
        std::fill(_folded.begin(), _folded.end(), std::uint64_t{0});
    }
    adc.resetStats();
    for (auto &t : tiles)
        t.array->resetStats();
    // Rewind the op counter so a replayed workload draws the same
    // noise/drift/retry realization a fresh engine would (the arrays
    // rewind their own sequences above).
    _opSeq.store(0, std::memory_order_relaxed);
}

void
BitSerialEngine::advanceOpClock(std::uint64_t ops)
{
    _opSeq.fetch_add(ops, std::memory_order_relaxed);
}

std::uint64_t
BitSerialEngine::adcClips() const
{
    return adc.clips();
}

std::uint64_t
BitSerialEngine::readCycles() const
{
    std::uint64_t cycles = 0;
    for (const auto &t : tiles)
        cycles += t.array->readCycles();
    return cycles;
}

double
BitSerialEngine::cellUtilization() const
{
    const double perArray = static_cast<double>(cfg.rows) *
        (cfg.cols + cfg.spareCols + 1 + (cfg.abftChecksum ? 1 : 0));
    double used = 0;
    for (const auto &t : tiles) {
        used += static_cast<double>(t.usedRows) *
            (t.localOutputs * cfg.slicesPerWeight() + 1);
    }
    return used / (perArray * static_cast<double>(tiles.size()));
}

resilience::ArrayFaultReport
BitSerialEngine::faultReport() const
{
    resilience::ArrayFaultReport report;
    for (int rs = 0; rs < _rowSegments; ++rs)
        for (int cs = 0; cs < _colSegments; ++cs)
            report.merge(tileFaultReport(rs, cs));
    return report;
}

resilience::ArrayFaultReport
BitSerialEngine::tileFaultReport(int rs, int cs) const
{
    const auto &t = tile(rs, cs);
    resilience::ArrayFaultReport report;
    report.stuckCells = t.array->stuckCells();
    report.faultyCells = t.faults.count();
    report.remappedColumns = t.remappedColumns;
    report.uncorrectableCells = t.uncorrectableCells;
    report.programPulses =
        static_cast<std::int64_t>(t.array->programPulses());
    return report;
}

const resilience::FaultMap &
BitSerialEngine::faultMap(int rs, int cs) const
{
    return tile(rs, cs).faults;
}

AdcTally
BitSerialEngine::tileAdcTally(int rs, int cs) const
{
    const std::size_t i =
        static_cast<std::size_t>(rs) * _colSegments + cs;
    std::lock_guard<std::mutex> lock(_foldMutex);
    foldLocked();
    AdcTally tally;
    const std::size_t base = kLogTileBase + kLogTileStride * i;
    tally.samples = _folded[base];
    tally.clips = _folded[base + 1];
    tally.bitCycles = _folded[base + 2];
    return tally;
}

std::uint64_t
BitSerialEngine::programPulses() const
{
    std::uint64_t pulses = 0;
    for (const auto &t : tiles)
        pulses += t.array->programPulses();
    return pulses;
}

resilience::TransientStats
BitSerialEngine::transientStats() const
{
    resilience::TransientStats out;
    {
        std::lock_guard<std::mutex> lock(_foldMutex);
        foldLocked();
        const std::uint64_t *t = _folded.data() + kLogEngineFields;
        out.abftChecks = t[0];
        out.abftMismatches = t[1];
        out.abftRetries = t[2];
        out.abftRetryCycles = t[3];
        out.abftUncorrected = t[4];
        out.abftDisabledTiles = t[5];
        out.driftRefreshes = t[6];
        out.refreshPulses = t[7];
        out.eccWords = t[8];
        out.eccBitFlips = t[9];
        out.eccSingles = t[10];
        out.eccDoubles = t[11];
        out.eccRecomputedWords = t[12];
        out.eccRecomputeCycles = t[13];
        out.packetsSent = t[14];
        out.packetsCorrupted = t[15];
        out.packetsRetransmitted = t[16];
        out.packetBackoffCycles = t[17];
        out.packetsUncorrected = t[18];
        out.deadLinks = t[19];
    }
    // Disabled-tile count is structural (like the fault census), so
    // it is derived from the live tile state rather than accumulated.
    if (cfg.abftChecksum) {
        for (const auto &t : tiles)
            out.abftDisabledTiles += !t.abftOk;
    }
    return out;
}

void
BitSerialEngine::injectCellFault(int rs, int cs, int row, int col,
                                 int level)
{
    if (rs < 0 || rs >= _rowSegments || cs < 0 || cs >= _colSegments)
        fatal("BitSerialEngine::injectCellFault: tile out of range");
    auto &t = tile(rs, cs);
    t.array->forceStuck(row, col, level);
    // Stored levels no longer match what programming left behind, so
    // the packed fast path stands down — the campaign tests rely on
    // the scalar path re-observing the corrupted cell on every
    // subsequent read. The per-tile taint lets repairTile() re-arm
    // the fast path once the last injured tile is rebuilt.
    t.tainted = true;
    _injected.store(true, std::memory_order_relaxed);
}

TileRepairReport
BitSerialEngine::repairTile(int rs, int cs)
{
    if (rs < 0 || rs >= _rowSegments || cs < 0 || cs >= _colSegments)
        fatal("BitSerialEngine::repairTile: tile out of range");
    if (cfg.noise.writeNoiseEnabled()) {
        fatal("BitSerialEngine::repairTile: the march test cannot "
              "distinguish transient write errors from permanent "
              "faults; online repair requires writeSigmaLevels = 0");
    }
    ArrayTile &t = tile(rs, cs);
    TileRepairReport report;

    // Quarantined march: exercise every cell at both rails to census
    // the tile's current permanent faults. Destructive (the array
    // ends all-max), but the tile is rebuilt just below from the
    // intended levels the programming pass retained, so nothing is
    // lost.
    const auto marched = resilience::extractFaultMap(*t.array);
    report.faultsFound = marched.count();

    // Fresh content-aware placement against the new fault set — the
    // same preferred/spare layout the first programming pass used.
    // Columns whose preferred physical column went bad migrate onto
    // spares; when spares run out the least-bad column stays and its
    // mismatches surface as uncorrectableCells for the caller's
    // degradation decision.
    const int slices = cfg.slicesPerWeight();
    const int dataCols = t.localOutputs * slices;
    const int logicalCols = dataCols + 1;
    std::vector<int> preferred(static_cast<std::size_t>(logicalCols));
    for (int c = 0; c < dataCols; ++c)
        preferred[static_cast<std::size_t>(c)] = c;
    preferred[static_cast<std::size_t>(dataCols)] =
        cfg.cols + cfg.spareCols;
    std::vector<int> spares(static_cast<std::size_t>(cfg.spareCols));
    for (int s = 0; s < cfg.spareCols; ++s)
        spares[static_cast<std::size_t>(s)] = cfg.cols + s;
    auto plan = resilience::assignColumns(
        *t.array, t.intended, cfg.rows, t.usedRows, logicalCols,
        preferred, spares);
    t.colMap = std::move(plan.colMap);
    t.faults = std::move(plan.faults);
    t.remappedColumns = plan.remappedColumns;
    t.uncorrectableCells = plan.uncorrectableCells;
    if (cfg.abftChecksum)
        programChecksum(t, plan.stored);
    t.tainted = false;

    report.remappedColumns = t.remappedColumns;
    report.uncorrectableCells = t.uncorrectableCells;
    report.abftOk = !cfg.abftChecksum || t.abftOk;

    // The packed fast path stands down only while some tile still
    // carries an un-repaired injected fault: this tile's stored
    // levels once again match what programming left behind.
    bool tainted = false;
    for (const auto &other : tiles)
        tainted = tainted || other.tainted;
    _injected.store(tainted, std::memory_order_relaxed);
    return report;
}

bool
BitSerialEngine::abftActive(int rs, int cs) const
{
    return cfg.abftChecksum && tile(rs, cs).abftOk;
}

} // namespace isaac::xbar
