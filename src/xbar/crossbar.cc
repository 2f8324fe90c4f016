#include "xbar/crossbar.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "xbar/batch_kernel.h"

namespace isaac::xbar {

CrossbarArray::CrossbarArray(int rows, int cols, int cellBits)
    : _rows(rows), _cols(cols), _cellBits(cellBits),
      cells(static_cast<std::size_t>(rows) * cols, 0),
      stuckLevel(static_cast<std::size_t>(rows) * cols, -1),
      writeRng(noise.seed ^ 0xD1CEull)
{
    if (rows <= 0 || cols <= 0)
        fatal("CrossbarArray: dimensions must be positive");
    if (cellBits < 1 || cellBits > 8)
        fatal("CrossbarArray: cell bits must be in [1, 8]");
}

int
CrossbarArray::program(int row, int col, int level)
{
    if (row < 0 || row >= _rows || col < 0 || col >= _cols)
        fatal("CrossbarArray::program: cell index out of range");
    if (level < 0 || level > maxLevel())
        fatal("CrossbarArray::program: level exceeds cell precision");
    const int budget = std::max(1, noise.maxProgramPulses);
    const std::size_t idx =
        static_cast<std::size_t>(row) * _cols + col;
    invalidatePlanes();
    if (stuckLevel[idx] >= 0) {
        // The device does not respond; the write driver re-pulses
        // until verify matches or the budget runs out.
        cells[idx] = stuckLevel[idx];
        const int pulses = cells[idx] == level ? 1 : budget;
        _programPulses += static_cast<std::uint64_t>(pulses);
        return pulses;
    }
    if (!noise.writeNoiseEnabled()) {
        cells[idx] = level;
        ++_programPulses;
        return 1;
    }
    int pulses = 0;
    while (pulses < budget) {
        ++pulses;
        const double err =
            writeRng.gaussian() * noise.writeSigmaLevels;
        const int stored = std::clamp(
            static_cast<int>(std::lround(level + err)), 0,
            maxLevel());
        cells[idx] = stored;
        if (stored == level)
            break;
    }
    _programPulses += static_cast<std::uint64_t>(pulses);
    return pulses;
}

int
CrossbarArray::cell(int row, int col) const
{
    if (row < 0 || row >= _rows || col < 0 || col >= _cols)
        fatal("CrossbarArray::cell: index out of range");
    return cells[static_cast<std::size_t>(row) * _cols + col];
}

Acc
CrossbarArray::bitlineSum(int col, std::span<const int> inputs) const
{
    Acc sum = 0;
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        sum += static_cast<Acc>(inputs[r]) *
            cells[r * _cols + static_cast<std::size_t>(col)];
    }
    return sum;
}

int
CrossbarArray::driftedLevel(std::size_t idx, std::uint64_t t) const
{
    const int level = cells[idx];
    // Stuck cells are frozen by the defect; empty cells have nothing
    // to lose.
    if (level == 0 || stuckLevel[idx] >= 0)
        return level;
    const std::uint64_t interval = noise.refreshIntervalOps;
    const std::uint64_t age = interval ? t % interval : t;
    if (age == 0)
        return level;
    const std::uint64_t epoch = interval ? t / interval : 0;
    const int drop = static_cast<int>(
        noise.driftLevelsPerOp * static_cast<double>(age) *
        driftSusceptibility(idx, epoch));
    return std::max(0, level - drop);
}

double
CrossbarArray::driftSusceptibility(std::size_t idx,
                                   std::uint64_t epoch) const
{
    if (epoch == 0)
        return ensureSusceptibility()[idx];
    Rng rng(driftSeed +
            0x9E3779B97F4A7C15ull * (idx * 0x1000193ull + epoch + 1));
    return rng.uniform01();
}

const double *
CrossbarArray::ensureSusceptibility() const
{
    if (!_susceptValid.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(_planesMutex);
        if (!_susceptValid.load(std::memory_order_relaxed)) {
            _suscept.resize(cells.size());
            for (std::size_t idx = 0; idx < cells.size(); ++idx) {
                Rng rng(driftSeed +
                        0x9E3779B97F4A7C15ull *
                            (idx * 0x1000193ull + 1));
                _suscept[idx] = rng.uniform01();
            }
            _susceptValid.store(true, std::memory_order_release);
        }
    }
    return _suscept.data();
}

Acc
CrossbarArray::driftedBitlineSum(int col, std::span<const int> inputs,
                                 std::uint64_t t) const
{
    Acc sum = 0;
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        // A zero digit contributes nothing: skip the drift draw.
        if (inputs[r] == 0)
            continue;
        sum += static_cast<Acc>(inputs[r]) *
            driftedLevel(r * _cols + static_cast<std::size_t>(col), t);
    }
    return sum;
}

int
CrossbarArray::effectiveLevel(int row, int col, std::uint64_t t) const
{
    if (row < 0 || row >= _rows || col < 0 || col >= _cols)
        fatal("CrossbarArray::effectiveLevel: index out of range");
    const std::size_t idx =
        static_cast<std::size_t>(row) * _cols + col;
    return noise.driftEnabled() ? driftedLevel(idx, t) : cells[idx];
}

Acc
CrossbarArray::applyReadNoise(Acc sum, std::uint64_t seq,
                              int col) const
{
    // One Gaussian draw from an Rng seeded purely by
    // (seed, seq, col): reproducible under any thread interleaving.
    Rng rng(noise.seed +
            0x9E3779B97F4A7C15ull *
                (seq * 131071ull + static_cast<std::uint64_t>(col) +
                 1ull));
    const double jitter = rng.gaussian() * noise.sigmaLsb;
    sum += static_cast<Acc>(std::llround(jitter));
    return sum < 0 ? 0 : sum;
}

Acc
CrossbarArray::readBitline(int col, std::span<const int> inputs) const
{
    if (col < 0 || col >= _cols)
        fatal("CrossbarArray::readBitline: column out of range");
    if (static_cast<int>(inputs.size()) > _rows)
        fatal("CrossbarArray::readBitline: more inputs than rows");
    if (!noise.readNoiseEnabled() && !noise.driftEnabled())
        return bitlineSum(col, inputs);
    const std::uint64_t seq =
        _noiseSeq.fetch_add(1, std::memory_order_relaxed);
    Acc sum = noise.driftEnabled()
        ? driftedBitlineSum(col, inputs, seq)
        : bitlineSum(col, inputs);
    if (noise.readNoiseEnabled())
        sum = applyReadNoise(sum, seq, col);
    return sum;
}

std::vector<Acc>
CrossbarArray::readAllBitlines(std::span<const int> inputs) const
{
    return readAllBitlines(
        inputs, _noiseSeq.fetch_add(1, std::memory_order_relaxed));
}

std::vector<Acc>
CrossbarArray::readAllBitlines(std::span<const int> inputs,
                               std::uint64_t noiseSeq) const
{
    return readAllBitlines(inputs, noiseSeq, noiseSeq);
}

std::vector<Acc>
CrossbarArray::readAllBitlines(std::span<const int> inputs,
                               std::uint64_t noiseSeq,
                               std::uint64_t driftTime) const
{
    std::vector<Acc> out;
    readAllBitlinesInto(inputs, noiseSeq, driftTime, out);
    return out;
}

void
CrossbarArray::readAllBitlinesInto(std::span<const int> inputs,
                                   std::uint64_t noiseSeq,
                                   std::uint64_t driftTime,
                                   std::vector<Acc> &out) const
{
    if (static_cast<int>(inputs.size()) > _rows)
        fatal("CrossbarArray::readAllBitlines: more inputs than rows");
    _readCycles.fetch_add(1, std::memory_order_relaxed);
    out.resize(static_cast<std::size_t>(_cols));
    const bool noisy = noise.readNoiseEnabled();
    const bool drifty = noise.driftEnabled();
    for (int c = 0; c < _cols; ++c) {
        Acc sum = drifty ? driftedBitlineSum(c, inputs, driftTime)
                         : bitlineSum(c, inputs);
        if (noisy)
            sum = applyReadNoise(sum, noiseSeq, c);
        out[static_cast<std::size_t>(c)] = sum;
    }
}

const std::uint64_t *
CrossbarArray::ensurePlanes() const
{
    if (!_planesValid.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(_planesMutex);
        if (!_planesValid.load(std::memory_order_relaxed)) {
            const int words = planeWords();
            _planes.assign(static_cast<std::size_t>(_cols) *
                               _cellBits * words,
                           0);
            std::vector<Acc> colSum(static_cast<std::size_t>(_cols), 0);
            for (int r = 0; r < _rows; ++r) {
                const std::uint64_t bit = std::uint64_t{1}
                    << (r % 64);
                const int word = r / 64;
                for (int c = 0; c < _cols; ++c) {
                    const int level =
                        cells[static_cast<std::size_t>(r) * _cols +
                              c];
                    if (!level)
                        continue;
                    colSum[static_cast<std::size_t>(c)] += level;
                    for (int b = 0; b < _cellBits; ++b) {
                        if ((level >> b) & 1) {
                            _planes[static_cast<std::size_t>(
                                        c * _cellBits + b) *
                                        words +
                                    word] |= bit;
                        }
                    }
                }
            }
            _maxColumnSum =
                *std::max_element(colSum.begin(), colSum.end());
            _planesValid.store(true, std::memory_order_release);
        }
    }
    return _planes.data();
}

void
CrossbarArray::readAllBitlinesPackedBatch(
    std::span<const std::uint64_t> digitPlanes, int digitBits, int n,
    std::vector<Acc> &out) const
{
    const int words = planeWords();
    if (digitBits < 1 || n < 1 ||
        digitPlanes.size() != static_cast<std::size_t>(digitBits) *
            words * n) {
        fatal("CrossbarArray::readAllBitlinesPackedBatch: digit-plane "
              "matrix does not match the array geometry");
    }
    if (!packedReadExact()) {
        fatal("CrossbarArray::readAllBitlinesPackedBatch: array has "
              "read noise or drift configured; use readAllBitlines");
    }
    const std::uint64_t *planes = ensurePlanes();
    out.resize(static_cast<std::size_t>(_cols) * n);
    kernel::batchedBitlineSums(planes, _cols, _cellBits, words,
                               digitPlanes.data(), digitBits, n,
                               out.data());
}

Acc
CrossbarArray::maxPackedReading(int digitBits) const
{
    // A packed reading of column c is
    //   sum_j 2^j * sum_r level(r, c) * digitBit(j, r)
    // so with every digit bit set it peaks at the column's level sum
    // times (2^digitBits - 1).
    ensurePlanes();
    return _maxColumnSum * ((Acc{1} << digitBits) - 1);
}

void
CrossbarArray::setNoise(const NoiseSpec &spec,
                        std::uint64_t instanceSalt)
{
    if (spec.maxProgramPulses < 1)
        fatal("NoiseSpec: maxProgramPulses must be >= 1");
    invalidatePlanes(); // the fault map below may snap cells
    _susceptValid.store(false, std::memory_order_relaxed);
    noise = spec;
    // The salt mix keeps salt = 0 on the historical streams.
    const std::uint64_t salted =
        spec.seed ^ (0x9E3779B97F4A7C15ull * instanceSalt);
    writeRng = Rng(salted ^ 0xD1CEull);
    driftSeed = salted ^ 0xD21F7ull;
    _noiseSeq.store(0, std::memory_order_relaxed);

    // (Re)draw the stuck-cell map from a dedicated stream.
    std::fill(stuckLevel.begin(), stuckLevel.end(), -1);
    if (noise.faultsEnabled()) {
        Rng faultRng(salted ^ 0xFA417ull);
        for (auto &s : stuckLevel) {
            if (faultRng.uniform01() < noise.stuckAtFraction) {
                switch (noise.stuckMode) {
                case StuckMode::RandomLevel:
                    s = static_cast<int>(
                        faultRng.uniform(0, maxLevel()));
                    break;
                case StuckMode::On:
                    s = maxLevel();
                    break;
                case StuckMode::Off:
                    s = 0;
                    break;
                }
            }
        }
        // Cells programmed before the fault map was drawn snap to
        // their frozen levels.
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (stuckLevel[i] >= 0)
                cells[i] = stuckLevel[i];
    }
}

void
CrossbarArray::forceStuck(int row, int col, int level)
{
    if (row < 0 || row >= _rows || col < 0 || col >= _cols)
        fatal("CrossbarArray::forceStuck: cell index out of range");
    if (level > maxLevel())
        fatal("CrossbarArray::forceStuck: level exceeds precision");
    const std::size_t idx =
        static_cast<std::size_t>(row) * _cols + col;
    stuckLevel[idx] = level < 0 ? -1 : level;
    if (level >= 0) {
        cells[idx] = level;
        invalidatePlanes();
    }
}

int
CrossbarArray::stuckCells() const
{
    int count = 0;
    for (int s : stuckLevel)
        count += s >= 0;
    return count;
}

void
CrossbarArray::resetStats()
{
    _readCycles.store(0, std::memory_order_relaxed);
    _noiseSeq.store(0, std::memory_order_relaxed);
}

std::int64_t
CrossbarArray::programmedCells() const
{
    std::int64_t count = 0;
    for (int level : cells)
        count += level != 0;
    return count;
}

} // namespace isaac::xbar
