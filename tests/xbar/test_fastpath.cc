/**
 * @file
 * Packed bit-plane fast path: the golden equivalence suite for
 * single-vector dotProduct() calls. The fast path is only allowed to
 * exist because it is *invisible* — results, EngineStats, per-tile
 * AdcTally, and TransientStats must be bit-identical to the scalar
 * reference path for every configuration and thread count. These
 * tests sweep the encoding space, prove the dispatch rules
 * (noisy/drifting/injected configs fall back to scalar), and prove
 * invalidation on reprogramming. Batched calls are swept in
 * test_batched.cc.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

std::vector<Word>
randomWords(Rng &rng, int n, int lo = -32768, int hi = 32767)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(lo, hi));
    return v;
}

/** Everything an engine run is observable by. */
struct RunTrace
{
    std::vector<std::vector<Acc>> results;
    EngineStats stats;
    resilience::TransientStats transient;
    std::vector<AdcTally> tiles;
    std::uint64_t readCycles = 0;
    std::uint64_t adcClips = 0;
};

/** Run a sequence of inputs (with repeats) and trace everything. */
RunTrace
runSequence(const EngineConfig &cfg, std::span<const Word> weights,
            int n, int m,
            const std::vector<std::vector<Word>> &inputs)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    for (const auto &x : inputs)
        trace.results.push_back(engine.dotProduct(x));
    trace.stats = engine.stats();
    trace.transient = engine.transientStats();
    for (int rs = 0; rs < engine.rowSegments(); ++rs)
        for (int cs = 0; cs < engine.colSegments(); ++cs)
            trace.tiles.push_back(engine.tileAdcTally(rs, cs));
    trace.readCycles = engine.readCycles();
    trace.adcClips = engine.adcClips();
    return trace;
}

void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i)
        EXPECT_EQ(a.results[i], b.results[i]) << "op " << i;
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.transient.abftChecks, b.transient.abftChecks);
    EXPECT_EQ(a.transient.abftMismatches, b.transient.abftMismatches);
    EXPECT_EQ(a.transient.abftRetries, b.transient.abftRetries);
    EXPECT_EQ(a.transient.abftRetryCycles,
              b.transient.abftRetryCycles);
    EXPECT_EQ(a.transient.abftUncorrected,
              b.transient.abftUncorrected);
    EXPECT_EQ(a.transient.abftDisabledTiles,
              b.transient.abftDisabledTiles);
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (std::size_t i = 0; i < a.tiles.size(); ++i) {
        EXPECT_EQ(a.tiles[i].samples, b.tiles[i].samples)
            << "tile " << i;
        EXPECT_EQ(a.tiles[i].clips, b.tiles[i].clips) << "tile " << i;
    }
    EXPECT_EQ(a.readCycles, b.readCycles);
    EXPECT_EQ(a.adcClips, b.adcClips);
}

/** A named configuration point of the equivalence sweep. */
struct SweepPoint
{
    const char *name;
    EngineConfig cfg;
};

/**
 * The sweep: {cellBits, dacBits, flipEncoding, spares, ABFT on/off,
 * TwosComplement/Biased} plus programming-time non-idealities
 * (write noise, stuck cells) that the packed path must read through
 * exactly because they only shape the *stored* levels.
 */
std::vector<SweepPoint>
sweepPoints()
{
    std::vector<SweepPoint> points;
    {
        SweepPoint p{"default-ce", {}};
        points.push_back(p);
    }
    {
        SweepPoint p{"w1-unflipped", {}};
        p.cfg.cellBits = 1;
        p.cfg.flipEncoding = false;
        points.push_back(p);
    }
    {
        SweepPoint p{"w4-abft", {}};
        p.cfg.cellBits = 4;
        p.cfg.abftChecksum = true;
        points.push_back(p);
    }
    {
        SweepPoint p{"biased-dac2", {}};
        p.cfg.dacBits = 2;
        p.cfg.inputMode = InputMode::Biased;
        points.push_back(p);
    }
    {
        SweepPoint p{"biased-dac4-w4", {}};
        p.cfg.dacBits = 4;
        p.cfg.cellBits = 4;
        p.cfg.inputMode = InputMode::Biased;
        points.push_back(p);
    }
    {
        // Stuck cells + spares: the remapper moves columns, the
        // checksum derives from stored levels, and the packed planes
        // must capture exactly what landed.
        SweepPoint p{"stuck-spares-abft", {}};
        p.cfg.spareCols = 4;
        p.cfg.abftChecksum = true;
        p.cfg.noise.stuckAtFraction = 0.01;
        p.cfg.noise.stuckMode = StuckMode::RandomLevel;
        points.push_back(p);
    }
    {
        SweepPoint p{"write-noise", {}};
        p.cfg.noise.writeSigmaLevels = 0.4;
        p.cfg.noise.maxProgramPulses = 6;
        points.push_back(p);
    }
    return points;
}

TEST(FastPath, GoldenEquivalenceSweep)
{
    const int n = 200, m = 20; // 2 row segments x >=2 col segments
    Rng rng(0xFA57);
    const auto weights = randomWords(rng, n * m);
    // Sequence with repeats and a small-magnitude vector (its
    // sign-extended high phases present all-zero digit vectors).
    std::vector<std::vector<Word>> inputs;
    inputs.push_back(randomWords(rng, n));
    inputs.push_back(randomWords(rng, n, -50, 50));
    inputs.push_back(inputs[0]);
    inputs.push_back(randomWords(rng, n));
    inputs.push_back(inputs[1]);

    for (const auto &point : sweepPoints()) {
        EngineConfig scalar = point.cfg;
        scalar.fastPath = false;
        const auto golden =
            runSequence(scalar, weights, n, m, inputs);
        expectTracesEqual(
            golden, runSequence(point.cfg, weights, n, m, inputs),
            std::string(point.name) + " fast");
    }
}

TEST(FastPath, InvalidationOnReprogram)
{
    const int n = 200, m = 20;
    Rng rng(0x4EBD);
    const auto w1 = randomWords(rng, n * m);
    const auto w2 = randomWords(rng, n * m);
    const auto x = randomWords(rng, n);

    EngineConfig cfg;
    BitSerialEngine engine(cfg, w1, n, m);
    EngineConfig scalar = cfg;
    scalar.fastPath = false;

    // program -> read -> reprogram -> read: the second read must see
    // the new weights, not stale packed planes of the old ones.
    {
        BitSerialEngine ref(scalar, w1, n, m);
        EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    }
    engine.reprogram(w2);
    {
        BitSerialEngine ref(scalar, w2, n, m);
        EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    }
}

TEST(FastPath, NoisyConfigFallsBackToScalar)
{
    EngineConfig noisy;
    noisy.noise.sigmaLsb = 0.5;
    Rng rng(0x0157);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);

    BitSerialEngine engine(noisy, weights, 128, 16);
    EXPECT_FALSE(engine.fastPathActive());
    const auto got = engine.dotProduct(x);

    // The knob is inert under noise: identical noise realization.
    EngineConfig legacy = noisy;
    legacy.fastPath = false;
    BitSerialEngine ref(legacy, weights, 128, 16);
    EXPECT_EQ(got, ref.dotProduct(x));
    EXPECT_TRUE(engine.stats() == ref.stats());
}

TEST(FastPath, DriftConfigFallsBackToScalar)
{
    EngineConfig drifty;
    drifty.noise.driftLevelsPerOp = 0.01;
    drifty.noise.refreshIntervalOps = 16;
    Rng rng(0xD21F);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(drifty, weights, 128, 16);
    EXPECT_FALSE(engine.fastPathActive());
}

TEST(FastPath, InjectionDisablesFastPath)
{
    EngineConfig cfg;
    cfg.abftChecksum = true;
    Rng rng(0x1412);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);

    BitSerialEngine engine(cfg, weights, 128, 16);
    engine.dotProduct(x); // build the packed planes while clean
    ASSERT_TRUE(engine.fastPathActive());
    engine.injectCellFault(0, 0, 3, 5, 0);
    EXPECT_FALSE(engine.fastPathActive());

    // Post-injection reads must match a scalar engine with the same
    // injection — the clean packed planes must not leak through.
    EngineConfig scalar = cfg;
    scalar.fastPath = false;
    BitSerialEngine ref(scalar, weights, 128, 16);
    ref.dotProduct(x);
    ref.injectCellFault(0, 0, 3, 5, 0);
    EXPECT_EQ(engine.dotProduct(x), ref.dotProduct(x));
    const auto ts = engine.transientStats();
    const auto rts = ref.transientStats();
    EXPECT_EQ(ts.abftMismatches, rts.abftMismatches);
    EXPECT_EQ(ts.abftRetries, rts.abftRetries);
}

TEST(FastPath, CrossbarPackedMatchesScalar)
{
    // Array-level equivalence, including stuck cells frozen at
    // arbitrary levels and multi-bit digits.
    const int rows = 100, cols = 37, cellBits = 3;
    CrossbarArray xb(rows, cols, cellBits);
    Rng rng(0xB17);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            xb.program(r, c,
                       static_cast<int>(rng.uniform(0, 7)));
    xb.forceStuck(5, 7, 6);
    xb.forceStuck(63, 0, 1);
    xb.forceStuck(64, 36, 5);

    for (const int digitBits : {1, 2, 4}) {
        std::vector<int> digits(static_cast<std::size_t>(rows));
        for (auto &d : digits)
            d = static_cast<int>(
                rng.uniform(0, (1 << digitBits) - 1));
        const int words = xb.planeWords();
        std::vector<std::uint64_t> planes(
            static_cast<std::size_t>(digitBits) * words, 0);
        for (int r = 0; r < rows; ++r)
            for (int j = 0; j < digitBits; ++j)
                if ((digits[static_cast<std::size_t>(r)] >> j) & 1)
                    planes[static_cast<std::size_t>(j) * words +
                           r / 64] |= std::uint64_t{1} << (r % 64);

        const auto scalar = xb.readAllBitlines(digits, 0);
        std::vector<Acc> packed;
        xb.readAllBitlinesPackedBatch(planes, digitBits, 1, packed);
        EXPECT_EQ(scalar, packed) << "digitBits " << digitBits;
    }
}

TEST(FastPath, PlaneRebuildAfterMutation)
{
    CrossbarArray xb(70, 5, 2);
    std::vector<int> digits(70, 1);
    std::vector<std::uint64_t> planes(2, 0); // 70 rows -> 2 words
    planes[0] = ~std::uint64_t{0};
    planes[1] = (std::uint64_t{1} << (70 - 64)) - 1;

    std::vector<Acc> out;
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 0);
    EXPECT_EQ(xb.maxPackedReading(1), 0);

    xb.program(69, 2, 3); // last row: exercises the word boundary
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 3);
    EXPECT_EQ(xb.maxPackedReading(1), 3);
    EXPECT_EQ(xb.maxPackedReading(2), 9);

    // The cached column-sum bound goes stale with the planes.
    xb.forceStuck(69, 2, 1);
    xb.readAllBitlinesPackedBatch(planes, 1, 1, out);
    EXPECT_EQ(out[2], 1);
    EXPECT_EQ(xb.maxPackedReading(1), 1);
    xb.forceStuck(0, 4, 3);
    EXPECT_EQ(xb.maxPackedReading(1), 3);
}

TEST(FastPath, PackedRefusesNoisyArrays)
{
    CrossbarArray xb(8, 2, 2);
    NoiseSpec spec;
    spec.sigmaLsb = 0.1;
    xb.setNoise(spec);
    std::vector<std::uint64_t> planes(1, 0xFF);
    std::vector<Acc> out;
    EXPECT_THROW(xb.readAllBitlinesPackedBatch(planes, 1, 1, out),
                 FatalError);
    EXPECT_FALSE(xb.packedReadExact());
}

TEST(FastPath, ResetStatsReplaysExactly)
{
    // resetStats() promises a replayed campaign reports what a fresh
    // engine would: every counter rewinds, and the replay reproduces
    // the first run's results and counters.
    EngineConfig cfg;
    Rng rng(0x2E5E7);
    const auto weights = randomWords(rng, 128 * 16);
    const auto x = randomWords(rng, 128);
    const auto y = randomWords(rng, 128, -50, 50);

    BitSerialEngine engine(cfg, weights, 128, 16);
    engine.dotProduct(x);
    engine.dotProduct(y);
    engine.dotProduct(x);
    const auto firstResults = engine.dotProduct(y);
    const auto firstStats = engine.stats();
    const auto firstCycles = engine.readCycles();

    engine.resetStats();
    EXPECT_EQ(engine.readCycles(), 0u);
    EXPECT_EQ(engine.stats(), EngineStats{});

    engine.dotProduct(x);
    engine.dotProduct(y);
    engine.dotProduct(x);
    EXPECT_EQ(engine.dotProduct(y), firstResults);
    EXPECT_TRUE(engine.stats() == firstStats);
    EXPECT_EQ(engine.readCycles(), firstCycles);
}

} // namespace
} // namespace isaac::xbar
