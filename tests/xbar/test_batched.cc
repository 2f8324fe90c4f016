/**
 * @file
 * The plane-major batched popcount GEMM: kernel-level bit-exactness
 * of every compiled dispatch tier against a direct triple-loop
 * oracle, and engine-level equivalence of dotProductBatch() with N
 * sequential scalar dotProduct() calls — results, EngineStats,
 * per-tile AdcTally, TransientStats, and read cycles, at every forced
 * tier, every batch size on both sides of the small-batch shape and
 * across a window-block boundary, and across the encoding sweep. The packed path
 * is only allowed to exist because these never move.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/batch_kernel.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

/** Restore the dispatch tier even when an assertion throws. */
struct TierGuard
{
    ~TierGuard() { kernel::resetTierOverride(); }
};

std::vector<std::uint64_t>
randomPlanes(Rng &rng, std::size_t n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng.next();
    return v;
}

/** The kernel contract, evaluated the slow obvious way. */
std::vector<Acc>
referenceGemm(const std::vector<std::uint64_t> &cellPlanes, int cols,
              int cellBits, int words,
              const std::vector<std::uint64_t> &dig, int digitBits,
              int n)
{
    std::vector<Acc> out(static_cast<std::size_t>(cols) * n, 0);
    for (int c = 0; c < cols; ++c) {
        for (int i = 0; i < n; ++i) {
            Acc v = 0;
            for (int b = 0; b < cellBits; ++b)
                for (int j = 0; j < digitBits; ++j)
                    for (int w = 0; w < words; ++w) {
                        const auto d =
                            dig[(static_cast<std::size_t>(j) * words +
                                 w) * n + i];
                        const auto p = cellPlanes
                            [(static_cast<std::size_t>(c) * cellBits +
                              b) * words + w];
                        v += static_cast<Acc>(std::popcount(d & p))
                             << (b + j);
                    }
            out[static_cast<std::size_t>(c) * n + i] = v;
        }
    }
    return out;
}

TEST(Batched, KernelMatchesOracleAtEveryCompiledTier)
{
    struct Geometry
    {
        int cols, cellBits, words, digitBits, n;
    };
    // n values straddle the SIMD lane widths (4 and 8) and their
    // tails; words straddle the register-resident n == 1 specials.
    const Geometry geoms[] = {
        {1, 1, 1, 1, 1},   {5, 1, 3, 1, 1},  {16, 2, 2, 1, 1},
        {16, 2, 2, 1, 3},  {8, 4, 1, 2, 8},  {37, 3, 2, 4, 5},
        {12, 2, 3, 2, 31}, {3, 2, 4, 4, 33}, {64, 2, 2, 1, 100},
    };

    Rng rng(0xBA7C);
    const auto top = static_cast<int>(kernel::detectedTier());
    TierGuard guard;
    for (const auto &g : geoms) {
        const auto cellPlanes = randomPlanes(
            rng, static_cast<std::size_t>(g.cols) * g.cellBits *
                     g.words);
        const auto dig = randomPlanes(
            rng,
            static_cast<std::size_t>(g.digitBits) * g.words * g.n);
        const auto want = referenceGemm(cellPlanes, g.cols, g.cellBits,
                                        g.words, dig, g.digitBits,
                                        g.n);
        for (int t = 0; t <= top; ++t) {
            kernel::forceTier(static_cast<kernel::Tier>(t));
            std::vector<Acc> got(want.size(), -1);
            kernel::batchedBitlineSums(cellPlanes.data(), g.cols,
                                       g.cellBits, g.words, dig.data(),
                                       g.digitBits, g.n, got.data());
            EXPECT_EQ(want, got)
                << "tier "
                << kernel::tierName(static_cast<kernel::Tier>(t))
                << " cols=" << g.cols << " cellBits=" << g.cellBits
                << " words=" << g.words << " digitBits=" << g.digitBits
                << " n=" << g.n;
        }
        kernel::resetTierOverride();
    }
}

TEST(Batched, TierApiIsSane)
{
    TierGuard guard;
    const auto detected = kernel::detectedTier();
    EXPECT_EQ(kernel::activeTier(), detected);
    // Every tier up to the detected one is forceable and sticky.
    for (int t = 0; t <= static_cast<int>(detected); ++t) {
        kernel::forceTier(static_cast<kernel::Tier>(t));
        EXPECT_EQ(kernel::activeTier(), static_cast<kernel::Tier>(t));
    }
    kernel::resetTierOverride();
    EXPECT_EQ(kernel::activeTier(), detected);
    // Forcing past what the host supports would trap on execution,
    // so the hook refuses it up front.
    if (detected != kernel::Tier::Avx512) {
        EXPECT_THROW(
            kernel::forceTier(static_cast<kernel::Tier>(
                static_cast<int>(detected) + 1)),
            FatalError);
        EXPECT_EQ(kernel::activeTier(), detected);
    }
    EXPECT_STREQ(kernel::tierName(kernel::Tier::Scalar), "scalar");
}

std::vector<Word>
randomWords(Rng &rng, int n, int lo = -32768, int hi = 32767)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(lo, hi));
    return v;
}

/** Everything one engine run is observable by. */
struct RunTrace
{
    std::vector<Acc> results; ///< count * numOutputs, window-major.
    EngineStats stats;
    resilience::TransientStats transient;
    std::vector<AdcTally> tiles;
    std::uint64_t readCycles = 0;
    std::uint64_t adcClips = 0;
};

void
captureCounters(const BitSerialEngine &engine, RunTrace &trace)
{
    trace.stats = engine.stats();
    trace.transient = engine.transientStats();
    for (int rs = 0; rs < engine.rowSegments(); ++rs)
        for (int cs = 0; cs < engine.colSegments(); ++cs)
            trace.tiles.push_back(engine.tileAdcTally(rs, cs));
    trace.readCycles = engine.readCycles();
    trace.adcClips = engine.adcClips();
}

/** count windows through sequential dotProduct() calls. */
RunTrace
runSequential(const EngineConfig &cfg, std::span<const Word> weights,
              int n, int m, const std::vector<Word> &inputs,
              int count)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    for (int i = 0; i < count; ++i) {
        const auto r = engine.dotProduct(std::span<const Word>(
            inputs.data() + static_cast<std::size_t>(i) * n,
            static_cast<std::size_t>(n)));
        trace.results.insert(trace.results.end(), r.begin(), r.end());
    }
    captureCounters(engine, trace);
    return trace;
}

/** The same windows through one dotProductBatch() call. */
RunTrace
runBatched(const EngineConfig &cfg, std::span<const Word> weights,
           int n, int m, const std::vector<Word> &inputs, int count)
{
    BitSerialEngine engine(cfg, weights, n, m);
    RunTrace trace;
    trace.results = engine.dotProductBatch(inputs, count);
    captureCounters(engine, trace);
    return trace;
}

void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.results, b.results);
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
        EXPECT_EQ(a.tiles[i].bitCycles, b.tiles[i].bitCycles)
            << "tile " << i;
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

/** Same encoding sweep the single-window fast path is proved on. */
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
    {
        SweepPoint p{"adaptive-adc", {}};
        p.cfg.adcPolicy = AdcPolicy::adaptive();
        points.push_back(p);
    }
    {
        // Capped below the 8-bit requirement: clean tiles clip, so
        // they run the clamped ladder with per-window ceilings.
        SweepPoint p{"adaptive6-clamped", {}};
        p.cfg.adcPolicy = AdcPolicy::adaptive(6);
        points.push_back(p);
    }
    {
        // Dense stuck-at-high cells push column sums past the 8-bit
        // ceiling: the tiles run the clamped ladder and count clips.
        SweepPoint p{"stuck-high-clamped", {}};
        p.cfg.noise.stuckAtFraction = 0.3;
        p.cfg.noise.stuckMode = StuckMode::On;
        points.push_back(p);
    }
    return points;
}

/** Batch sizes on both sides of kernel::kSmallBatch and its tails,
 *  plus one that spills a single window past the 256-window block. */
constexpr int kCounts[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 257};

TEST(Batched, GoldenEquivalenceSweep)
{
    const int n = 200, m = 20; // 2 row segments x >=2 col segments
    Rng rng(0xBA7C4);
    const auto weights = randomWords(rng, n * m);

    for (const auto &point : sweepPoints()) {
        // Ground truth: the scalar reference path, window by window.
        EngineConfig scalar = point.cfg;
        scalar.fastPath = false;

        // Counts straddle the small-batch shape, the vector widths,
        // and the window-block size, and include a repeated window
        // and an all-ones window (every digit set: the largest
        // reading each column can produce).
        std::uint64_t clips = 0;
        for (const int count : kCounts) {
            auto inputs = randomWords(rng, n * count);
            if (count >= 3)
                std::copy(inputs.begin(), inputs.begin() + n,
                          inputs.begin() +
                              static_cast<std::size_t>(2) * n);
            if (count >= 2)
                std::fill(inputs.end() - n, inputs.end(), Word{-1});
            const auto golden = runSequential(scalar, weights, n, m,
                                              inputs, count);
            clips += golden.adcClips;

            expectTracesEqual(
                golden,
                runBatched(point.cfg, weights, n, m, inputs, count),
                std::string(point.name) + " count" +
                    std::to_string(count));
        }
        // The dense stuck-at-high point must actually clip, so the
        // clamped ladder's clip counting is compared, not just run.
        if (std::string(point.name) == "stuck-high-clamped") {
            EXPECT_GT(clips, 0u);
        }
    }
}

TEST(Batched, EveryCompiledTierIsInvisibleAtEngineLevel)
{
    const int n = 200, m = 20;
    const int count = 13;
    Rng rng(0x71E2);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * count);

    EngineConfig scalar;
    scalar.fastPath = false;
    const auto golden =
        runSequential(scalar, weights, n, m, inputs, count);

    const EngineConfig fast;
    TierGuard guard;
    for (int t = 0; t <= static_cast<int>(kernel::detectedTier());
         ++t) {
        kernel::forceTier(static_cast<kernel::Tier>(t));
        expectTracesEqual(
            golden, runBatched(fast, weights, n, m, inputs, count),
            std::string("tier ") +
                kernel::tierName(static_cast<kernel::Tier>(t)));
    }
}

TEST(Batched, SmallBatchShapeIsInvisibleAtEveryCompiledTier)
{
    // Every compiled tier x the encodings the small-batch merge plan
    // folds (two's complement, biased with a multi-bit DAC, adaptive
    // ADC, the clamped ladder, ABFT tiles) x batch sizes on both
    // sides of kernel::kSmallBatch, plus the MLP's 784 -> 256 layer
    // (7 x 16 tiles) that single-window FC nodes run.
    struct Shape
    {
        int n, m;
        std::vector<int> counts;
        std::vector<const char *> points;
    };
    const Shape shapes[] = {
        {200, 20, {1, 2, 3, 7, 8, 9, 15, 16, 17, 64},
         {"default-ce", "biased-dac2", "adaptive-adc",
          "adaptive6-clamped", "stuck-high-clamped", "w4-abft"}},
        {784, 256, {1, 2, 17}, {"default-ce"}},
    };
    const auto points = sweepPoints();
    Rng rng(0x5A11);
    TierGuard guard;
    for (const auto &shape : shapes) {
        const auto weights = randomWords(rng, shape.n * shape.m);
        for (const char *name : shape.points) {
            const auto point = std::find_if(
                points.begin(), points.end(), [&](const SweepPoint &p) {
                    return std::string(p.name) == name;
                });
            ASSERT_NE(point, points.end()) << name;
            for (const int count : shape.counts) {
                // Small non-negative activations (ReLU outputs) leave
                // the high phases all-zero in every window; even
                // counts mix them with full-range windows.
                auto inputs = randomWords(rng, shape.n * count, 0, 255);
                if (count % 2 == 0) {
                    const auto full = randomWords(rng, shape.n * count);
                    for (std::size_t i = 0; i < inputs.size(); i += 2)
                        inputs[i] = full[i];
                }
                EngineConfig scalar = point->cfg;
                scalar.fastPath = false;
                const auto golden = runSequential(
                    scalar, weights, shape.n, shape.m, inputs, count);
                for (int t = 0;
                     t <= static_cast<int>(kernel::detectedTier());
                     ++t) {
                    kernel::forceTier(static_cast<kernel::Tier>(t));
                    const EngineConfig &fast = point->cfg;
                    const std::string label = std::string(name) +
                        " " + std::to_string(shape.n) + "x" +
                        std::to_string(shape.m) + " count" +
                        std::to_string(count) + " tier " +
                        kernel::tierName(static_cast<kernel::Tier>(t));
                    expectTracesEqual(golden,
                                      runBatched(fast, weights,
                                                 shape.n, shape.m,
                                                 inputs, count),
                                      label);
                    if (count == 1) {
                        expectTracesEqual(
                            golden,
                            runSequential(fast, weights, shape.n,
                                          shape.m, inputs, count),
                            label + " dotProduct");
                    }
                }
                kernel::resetTierOverride();
            }
        }
    }
}

TEST(Batched, ClipBoundFollowsStuckCellsAfterRepair)
{
    // The clip-free merge trusts a per-array bound cached with the
    // packed planes. After a first read has cached it, a column
    // stuck high and a repair that re-arms the packed path must move
    // the tile onto the clamped ladder with its clips counted — a
    // stale bound would let readings past the ADC ceiling through
    // unclamped.
    const int n = 128, m = 16;
    Rng rng(0xC11B);
    const auto weights = randomWords(rng, n * m);
    const auto weights2 = randomWords(rng, n * m);
    // Negative activations set every high bit, so a fully stuck
    // column reads 3 * 128 > 255 on those phases.
    const auto inputs = randomWords(rng, n * 17, -4, -1);
    const std::span<const Word> one(inputs.data(),
                                    static_cast<std::size_t>(n));

    EngineConfig cfg;
    EngineConfig scalar = cfg;
    scalar.fastPath = false;
    BitSerialEngine engine(cfg, weights, n, m);
    BitSerialEngine ref(scalar, weights, n, m);
    EXPECT_EQ(engine.dotProduct(one), ref.dotProduct(one));
    EXPECT_EQ(engine.adcClips(), 0u);

    for (int r = 0; r < n; ++r) {
        engine.injectCellFault(0, 0, r, 0, 3);
        ref.injectCellFault(0, 0, r, 0, 3);
    }
    const auto report = engine.repairTile(0, 0);
    ref.repairTile(0, 0);
    EXPECT_GT(report.uncorrectableCells, 0); // no spares to move onto
    ASSERT_TRUE(engine.fastPathActive());

    const auto check = [&](const char *label) {
        SCOPED_TRACE(label);
        EXPECT_EQ(engine.dotProduct(one), ref.dotProduct(one));
        EXPECT_EQ(engine.dotProductBatch(inputs, 17),
                  ref.dotProductBatch(inputs, 17));
        EXPECT_GT(engine.adcClips(), 0u);
        EXPECT_EQ(engine.adcClips(), ref.adcClips());
        EXPECT_TRUE(engine.stats() == ref.stats());
        EXPECT_EQ(engine.tileAdcTally(0, 0).clips,
                  ref.tileAdcTally(0, 0).clips);
        EXPECT_EQ(engine.readCycles(), ref.readCycles());
    };
    check("after repair");
    engine.reprogram(weights2);
    ref.reprogram(weights2);
    check("after reprogram");
}

TEST(Batched, NoisyConfigFallsBackPerWindow)
{
    // Read noise forces the scalar path; the batch entry point must
    // still be safe and must replay the exact per-window noise
    // streams a sequential caller would see.
    EngineConfig noisy;
    noisy.noise.sigmaLsb = 0.5;
    const int n = 128, m = 16, count = 3;
    Rng rng(0x0157);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * count);

    BitSerialEngine batched(noisy, weights, n, m);
    ASSERT_FALSE(batched.fastPathActive());
    const auto got = batched.dotProductBatch(inputs, count);

    BitSerialEngine seq(noisy, weights, n, m);
    std::vector<Acc> want;
    for (int i = 0; i < count; ++i) {
        const auto r = seq.dotProduct(std::span<const Word>(
            inputs.data() + static_cast<std::size_t>(i) * n,
            static_cast<std::size_t>(n)));
        want.insert(want.end(), r.begin(), r.end());
    }
    EXPECT_EQ(got, want);
    EXPECT_TRUE(batched.stats() == seq.stats());
}

TEST(Batched, MixedBatchAndSequentialCallsShareTheOpStream)
{
    // A batch of k windows advances the op sequence by k, so later
    // per-window calls land on the same op numbers either way.
    EngineConfig cfg;
    const int n = 128, m = 16;
    Rng rng(0x3A7);
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomWords(rng, n * 5);
    const auto tail = randomWords(rng, n);

    BitSerialEngine a(cfg, weights, n, m);
    auto gotBatch = a.dotProductBatch(inputs, 5);
    const auto gotTail = a.dotProduct(tail);

    BitSerialEngine b(cfg, weights, n, m);
    std::vector<Acc> wantBatch;
    for (int i = 0; i < 5; ++i) {
        const auto r = b.dotProduct(std::span<const Word>(
            inputs.data() + static_cast<std::size_t>(i) * n,
            static_cast<std::size_t>(n)));
        wantBatch.insert(wantBatch.end(), r.begin(), r.end());
    }
    const auto wantTail = b.dotProduct(tail);
    EXPECT_EQ(gotBatch, wantBatch);
    EXPECT_EQ(gotTail, wantTail);
    EXPECT_TRUE(a.stats() == b.stats());
    EXPECT_EQ(a.readCycles(), b.readCycles());
}

TEST(Batched, EmptyBatchIsANoOp)
{
    EngineConfig cfg;
    Rng rng(0xE);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(cfg, weights, 128, 16);
    const auto out = engine.dotProductBatch({}, 0);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(engine.stats().ops, 0u);
    EXPECT_EQ(engine.readCycles(), 0u);
}

TEST(Batched, BadBatchArgumentsAreFatal)
{
    EngineConfig cfg;
    Rng rng(0xBAD);
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine engine(cfg, weights, 128, 16);
    const auto x = randomWords(rng, 128);
    EXPECT_THROW((void)engine.dotProductBatch(x, -1), FatalError);
    EXPECT_THROW((void)engine.dotProductBatch(x, 2), FatalError);
}

} // namespace
} // namespace isaac::xbar
