/**
 * @file
 * The pluggable ADC policy surface: validation at config time, the
 * truncated-SAR conversion primitive, and the headline losslessness
 * guarantee — a Newton-style adaptive policy whose cap covers the
 * certified per-phase bound is bit-exact AND counter-exact (every
 * counter except the comparator-cycle tally it exists to shrink)
 * against the fixed baseline, from a bare engine all the way through
 * CompiledModel and serve::InferenceSession at 1/2/4/8 workers.
 * Lossy and noisy adaptive runs must instead be deterministic and
 * tier/thread-invariant, with every clip counted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "campaign/runner.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/accelerator.h"
#include "nn/weights.h"
#include "nn/zoo.h"
#include "serve/session.h"
#include "xbar/adc_policy.h"
#include "xbar/batch_kernel.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

/** Restore the dispatch tier even when an assertion throws. */
struct TierGuard
{
    ~TierGuard() { kernel::resetTierOverride(); }
};

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

TEST(AdcPolicy, ValidationRejectsBadPolicies)
{
    // An explicit 0-bit fixed resolution is a config error; the
    // default AdcPolicy{} (bits == 0) is the derive-from-geometry
    // spelling and must stay valid.
    EXPECT_THROW(AdcPolicy::fixed(0), FatalError);
    EXPECT_NO_THROW(AdcPolicy{}.validate());
    EXPECT_NO_THROW(AdcPolicy::adaptive().validate());

    // Beyond the SAR model's range and beyond the accumulator.
    EXPECT_THROW(AdcPolicy::fixed(25), FatalError);
    EXPECT_THROW(AdcPolicy::fixed(63), FatalError);
    EXPECT_THROW(AdcPolicy::fixed(-1), FatalError);
    EXPECT_THROW(AdcPolicy::adaptive(8, 0), FatalError);
    EXPECT_THROW(AdcPolicy::adaptive(8, 25), FatalError);
    {
        AdcPolicy p = AdcPolicy::adaptive();
        p.activityFactor = 0.0;
        EXPECT_THROW(p.validate(), FatalError);
        p.activityFactor = 1.5;
        EXPECT_THROW(p.validate(), FatalError);
    }

    // The engine validates its policy at construction, so a bad
    // resolution is rejected before any weights are programmed.
    Rng rng(0xAD0C11CE);
    const auto weights = randomWords(rng, 8 * 2);
    EngineConfig cfg;
    cfg.adcPolicy.bits = 25;
    EXPECT_THROW(BitSerialEngine(cfg, weights, 8, 2), FatalError);
}

TEST(AdcPolicy, ResolutionAndLosslessnessLaws)
{
    const AdcPolicy fixed;                 // Derived fixed default.
    const AdcPolicy ad = AdcPolicy::adaptive();

    // Fixed policies convert at the cap no matter the bound.
    EXPECT_EQ(fixed.resolutionFor(0, 8), 8);
    EXPECT_EQ(fixed.resolutionFor(1000000, 8), 8);

    // Adaptive: ceil(log2(bound + 1)) clamped to [minBits, cap].
    EXPECT_EQ(ad.resolutionFor(0, 8), 1);
    EXPECT_EQ(ad.resolutionFor(1, 8), 1);
    EXPECT_EQ(ad.resolutionFor(2, 8), 2);
    EXPECT_EQ(ad.resolutionFor(129, 8), 8);
    EXPECT_EQ(ad.resolutionFor(255, 8), 8);
    EXPECT_EQ(ad.resolutionFor(100000, 8), 8);

    // capBits: an explicit cap wins, 0 defers to the derived bits.
    EXPECT_EQ(ad.capBits(8), 8);
    EXPECT_EQ(AdcPolicy::adaptive(6).capBits(8), 6);
    EXPECT_EQ(AdcPolicy::fixed(7).capBits(8), 7);

    // Losslessness: covering the derived requirement is lossless.
    EXPECT_TRUE(fixed.lossless(8));
    EXPECT_TRUE(ad.lossless(8));
    EXPECT_TRUE(AdcPolicy::adaptive(9).lossless(8));
    EXPECT_FALSE(AdcPolicy::adaptive(7).lossless(8));
    EXPECT_FALSE(AdcPolicy::fixed(7).lossless(8));

    // Expected conversion depth at the default 0.5 activity factor
    // is one cycle under the cap, floored at minBits.
    EXPECT_EQ(ad.expectedBits(8), 7);
    EXPECT_EQ(ad.expectedBits(1), 1);
    EXPECT_EQ(AdcPolicy::adaptive(0, 8).expectedBits(8), 8);

    EXPECT_EQ(AdcPolicy{}.label(), "fixed");
    EXPECT_EQ(AdcPolicy::fixed(8).label(), "fixed8");
    EXPECT_EQ(AdcPolicy::adaptive().label(), "adaptive");
    EXPECT_EQ(AdcPolicy::adaptive(7).label(), "adaptive7");
}

TEST(AdcPolicy, TruncatedConversionChargesAndClips)
{
    const Adc adc(8, /*noisy=*/true);
    AdcTally tally;

    // Full-resolution truncation is exactly quantize().
    EXPECT_EQ(adc.quantizeAt(200, 8, tally), 200);
    EXPECT_EQ(tally.samples, 1u);
    EXPECT_EQ(tally.clips, 0u);
    EXPECT_EQ(tally.bitCycles, 8u);

    // A 3-bit conversion clips at 7 and charges 3 cycles.
    EXPECT_EQ(adc.quantizeAt(6, 3, tally), 6);
    EXPECT_EQ(adc.quantizeAt(9, 3, tally), 7);
    EXPECT_EQ(tally.samples, 3u);
    EXPECT_EQ(tally.clips, 1u);
    EXPECT_EQ(tally.bitCycles, 8u + 3u + 3u);

    // Noisy negatives saturate to zero (and count) at any depth.
    EXPECT_EQ(adc.quantizeAt(-5, 4, tally), 0);
    EXPECT_EQ(tally.clips, 2u);
}

/** The clean encoding sweep whose per-phase bound certification is
 *  provably lossless (no noise: every packed reading obeys the
 *  (2^w - 1) * unit bound the adaptive ladder truncates against). */
std::vector<std::pair<const char *, EngineConfig>>
losslessSweep()
{
    std::vector<std::pair<const char *, EngineConfig>> points;
    points.push_back({"default-ce", {}});
    {
        EngineConfig c;
        c.cellBits = 1;
        c.flipEncoding = false;
        points.push_back({"w1-unflipped", c});
    }
    {
        EngineConfig c;
        c.cellBits = 4;
        c.abftChecksum = true;
        points.push_back({"w4-abft", c});
    }
    {
        EngineConfig c;
        c.dacBits = 2;
        c.inputMode = InputMode::Biased;
        points.push_back({"biased-dac2", c});
    }
    {
        EngineConfig c;
        c.dacBits = 4;
        c.cellBits = 4;
        c.inputMode = InputMode::Biased;
        points.push_back({"biased-dac4-w4", c});
    }
    return points;
}

/**
 * The headline guarantee at the engine level: a lossless adaptive
 * policy returns bit-identical results with every counter equal to
 * the fixed baseline's except adcBitCycles — which must not exceed
 * samples * cap and, on real data, must beat it.
 */
TEST(AdcPolicy, LosslessAdaptiveIsBitAndCounterExact)
{
    const int n = 200, m = 20; // 2 row segments x >= 2 col segments.
    Rng rng(0xAD0C);
    const auto weights = randomWords(rng, n * m);

    for (const auto &[name, base] : losslessSweep()) {
        for (const int count : {1, 9}) {
            const auto inputs = randomWords(rng, n * count);
            const EngineConfig &fixedCfg = base;
            EngineConfig adCfg = fixedCfg;
            adCfg.adcPolicy = AdcPolicy::adaptive();
            ASSERT_TRUE(adCfg.adcPolicy.lossless(
                fixedCfg.adcBits()));

            for (const bool batched : {false, true}) {
                const std::string label = std::string(name) +
                    " count=" + std::to_string(count) +
                    (batched ? " batched" : " sequential");
                SCOPED_TRACE(label);
                const RunTrace f = batched
                    ? runBatched(fixedCfg, weights, n, m, inputs,
                                 count)
                    : runSequential(fixedCfg, weights, n, m,
                                    inputs, count);
                const RunTrace a = batched
                    ? runBatched(adCfg, weights, n, m, inputs,
                                 count)
                    : runSequential(adCfg, weights, n, m, inputs,
                                    count);

                // Bit-exact results, no clipping either side.
                EXPECT_EQ(f.results, a.results);
                EXPECT_EQ(f.adcClips, 0u);
                EXPECT_EQ(a.adcClips, 0u);

                // Counter-exact: everything but the comparator
                // cycles the adaptive policy exists to save.
                EngineStats masked = a.stats;
                masked.adcBitCycles = f.stats.adcBitCycles;
                EXPECT_TRUE(masked == f.stats);
                ASSERT_EQ(f.tiles.size(), a.tiles.size());
                for (std::size_t i = 0; i < f.tiles.size(); ++i) {
                    EXPECT_EQ(f.tiles[i].samples,
                              a.tiles[i].samples);
                    EXPECT_EQ(f.tiles[i].clips,
                              a.tiles[i].clips);
                }
                EXPECT_EQ(f.readCycles, a.readCycles);

                // Fixed charges exactly samples * cap; adaptive
                // never exceeds that and beats it on this data.
                const auto cap = static_cast<std::uint64_t>(
                    fixedCfg.adcBits());
                EXPECT_EQ(f.stats.adcBitCycles,
                          f.stats.adcSamples * cap);
                EXPECT_LT(a.stats.adcBitCycles,
                          f.stats.adcBitCycles);
                EXPECT_GE(a.stats.adcBitCycles,
                          a.stats.adcSamples);
            }
        }
    }
}

/**
 * Where losslessness is NOT provable — noisy arrays, stuck cells,
 * an under-capped converter — the adaptive policy must still be
 * deterministic and identical across the scalar walk, the batched
 * path, and every compiled kernel tier, with clips flowing into the
 * same counters.
 */
TEST(AdcPolicy, AdaptiveDeltasAreSeedStableAcrossTiers)
{
    const int n = 200, m = 20;
    Rng rng(0xAD0C2);
    const auto weights = randomWords(rng, n * m);
    const int count = 13;
    const auto inputs = randomWords(rng, n * count);

    std::vector<std::pair<const char *, EngineConfig>> points;
    {
        EngineConfig c; // Lossy: cap below the 8-bit requirement.
        c.adcPolicy = AdcPolicy::adaptive(6);
        points.push_back({"adaptive6-clean", c});
    }
    {
        EngineConfig c;
        c.adcPolicy = AdcPolicy::adaptive();
        c.spareCols = 4;
        c.abftChecksum = true;
        c.noise.stuckAtFraction = 0.01;
        c.noise.stuckMode = StuckMode::RandomLevel;
        points.push_back({"adaptive-stuck-abft", c});
    }
    {
        EngineConfig c;
        c.adcPolicy = AdcPolicy::adaptive();
        c.noise.writeSigmaLevels = 0.4;
        c.noise.maxProgramPulses = 6;
        points.push_back({"adaptive-write-noise", c});
    }

    TierGuard guard;
    const auto top = static_cast<int>(kernel::detectedTier());
    for (const auto &[name, base] : points) {
        EngineConfig scalar = base;
        scalar.fastPath = false;
        const auto golden =
            runSequential(scalar, weights, n, m, inputs, count);

        // The under-capped converter must actually clip (and count).
        if (std::string(name) == "adaptive6-clean") {
            EXPECT_GT(golden.adcClips, 0u);
        }

        expectTracesEqual(
            golden, runSequential(base, weights, n, m, inputs, count),
            std::string(name) + " sequential");
        for (int t = 0; t <= top; ++t) {
            kernel::forceTier(static_cast<kernel::Tier>(t));
            expectTracesEqual(
                golden, runBatched(base, weights, n, m, inputs, count),
                std::string(name) + " tier " +
                    kernel::tierName(static_cast<kernel::Tier>(t)));
        }
        kernel::resetTierOverride();
    }
}

/**
 * The end-to-end acceptance: TinyCNN through CompiledModel and
 * serve::InferenceSession yields bit-identical outputs under the
 * lossless adaptive policy at 1/2/4/8 workers.
 */
TEST(AdcPolicy, TinyCnnSessionIsBitExactAtEveryWorkerCount)
{
    const nn::Network net = nn::tinyCnn();
    const auto weights =
        campaign::synthesizeStructuredWeights(net, 0xF00D);
    const auto &first = net.layer(0);
    std::vector<nn::Tensor> inputs;
    for (int i = 0; i < 3; ++i) {
        inputs.push_back(nn::synthesizeInput(
            first.ni, first.nx, first.ny, 0xBEEF + i,
            FixedFormat{12}));
    }

    auto serveAll = [&](const arch::IsaacConfig &cfg, int workers) {
        core::Accelerator acc(cfg);
        auto model = acc.compile(net, weights, {});
        serve::SessionOptions so;
        so.queueDepth = inputs.size();
        so.workers = workers;
        serve::InferenceSession session(model, so);
        std::vector<std::future<std::vector<nn::Tensor>>> futs;
        for (const auto &input : inputs)
            futs.push_back(session.submitAll(input));
        session.drain();
        std::vector<std::vector<Word>> finals;
        for (auto &f : futs)
            finals.push_back(f.get().back().raw());
        return finals;
    };

    arch::IsaacConfig fixedCfg;
    arch::IsaacConfig adCfg = fixedCfg;
    adCfg.engine.adcPolicy = AdcPolicy::adaptive();

    const auto want = serveAll(fixedCfg, 1);
    for (const int workers : {1, 2, 4, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        EXPECT_EQ(serveAll(fixedCfg, workers), want);
        EXPECT_EQ(serveAll(adCfg, workers), want);
    }
}

} // namespace
} // namespace isaac::xbar
