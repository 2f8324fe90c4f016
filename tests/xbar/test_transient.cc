/**
 * @file
 * ABFT checksum-column campaigns: zero false positives on a clean
 * engine, injected-fault detection with the bounded retry budget,
 * drift caught when unrefreshed and exact under the refresh sizing
 * rule, and the resetStats() replay contract.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

std::vector<Word>
randomWords(Rng &rng, int n)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(-32768, 32767));
    return v;
}

TEST(Abft, ZeroNoiseHasZeroFalsePositives)
{
    // The checksum column must be an exact invariant of the encoded
    // arrays: with analog noise off, every check passes and the
    // outputs are bit-identical to an engine running without ABFT.
    Rng rng(811);
    const int n = 300, m = 48; // multi-tile
    const auto weights = randomWords(rng, n * m);

    EngineConfig plain;
    EngineConfig checked = plain;
    checked.abftChecksum = true;

    BitSerialEngine ref(plain, weights, n, m);
    BitSerialEngine abft(checked, weights, n, m);

    for (int trial = 0; trial < 6; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(ref.dotProduct(inputs), abft.dotProduct(inputs));
    }
    const auto ts = abft.transientStats();
    EXPECT_GT(ts.abftChecks, 0u);
    EXPECT_EQ(ts.abftMismatches, 0u);
    EXPECT_EQ(ts.abftRetries, 0u);
    EXPECT_EQ(ts.abftUncorrected, 0u);
    EXPECT_EQ(ts.abftDisabledTiles, 0u);
    EXPECT_EQ(ref.transientStats(), resilience::TransientStats{});
}

TEST(Abft, InjectedFaultIsDetectedAndChargesTheRetryBudget)
{
    // Corrupt one mapped data cell after programming. Every phase
    // that drives the row now fails its check; with zero read noise
    // the re-reads see the same value, so each flagged tile-phase
    // burns exactly maxReadRetries retries, charges the doubling
    // backoff, and lands in abftUncorrected.
    Rng rng(812);
    const int n = 32, m = 8; // single tile, identity column map
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.maxReadRetries = 3;
    cfg.retryBackoffCycles = 2;
    BitSerialEngine eng(cfg, weights, n, m);
    ASSERT_TRUE(eng.abftActive(0, 0));

    auto inputs = randomWords(rng, n);
    inputs[0] = static_cast<Word>(-1); // drive row 0 in every phase
    eng.dotProduct(inputs);
    std::uint64_t opsRun = 1;
    const auto clean = eng.transientStats();
    ASSERT_EQ(clean.abftMismatches, 0u);
    const std::uint64_t checksPerOp = clean.abftChecks;

    // The stored level at (0, 0) is unknown; at most one of two
    // distinct forced levels can coincide with it.
    std::uint64_t mismatches = 0;
    for (int level : {0, 1}) {
        eng.injectCellFault(0, 0, /*row=*/0, /*col=*/0, level);
        eng.dotProduct(inputs);
        ++opsRun;
        mismatches = eng.transientStats().abftMismatches;
        if (mismatches > 0)
            break;
    }
    ASSERT_GT(mismatches, 0u);

    const auto ts = eng.transientStats();
    // Nothing is recoverable by re-reading a persistent fault.
    EXPECT_EQ(ts.abftUncorrected, mismatches);
    EXPECT_EQ(ts.abftRetries,
              mismatches * static_cast<std::uint64_t>(
                               cfg.maxReadRetries));
    // Backoff 2 << {0,1,2} = 14 cycles per flagged tile-phase.
    EXPECT_EQ(ts.abftRetryCycles, mismatches * 14u);
    // Each flagged tile-phase re-checks maxReadRetries extra times.
    EXPECT_EQ(ts.abftChecks,
              checksPerOp * opsRun +
                  mismatches * static_cast<std::uint64_t>(
                                   cfg.maxReadRetries));

    // The detection is persistent, not a one-shot alarm.
    eng.dotProduct(inputs);
    EXPECT_GT(eng.transientStats().abftMismatches, mismatches);
}

TEST(Abft, DetectOnlyModeSkipsRetries)
{
    Rng rng(813);
    const int n = 32, m = 8;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.maxReadRetries = 0; // detect, never re-read
    BitSerialEngine eng(cfg, weights, n, m);

    auto inputs = randomWords(rng, n);
    inputs[0] = static_cast<Word>(-1);
    for (int level : {0, 1}) {
        eng.injectCellFault(0, 0, 0, 0, level);
        eng.dotProduct(inputs);
        if (eng.transientStats().abftMismatches > 0)
            break;
    }
    const auto ts = eng.transientStats();
    ASSERT_GT(ts.abftMismatches, 0u);
    EXPECT_EQ(ts.abftRetries, 0u);
    EXPECT_EQ(ts.abftRetryCycles, 0u);
    EXPECT_EQ(ts.abftUncorrected, ts.abftMismatches);
}

TEST(Drift, RefreshSizingRuleKeepsReadsExact)
{
    // driftLevelsPerOp * (refreshIntervalOps - 1) < 1 guarantees no
    // read ever sees a drifted level: outputs stay bit-identical to
    // a drift-free engine while the refresh accounting accrues.
    Rng rng(814);
    const int n = 256, m = 16; // 2 row segments x 1 col segment
    const auto weights = randomWords(rng, n * m);

    EngineConfig clean;
    EngineConfig drifty = clean;
    drifty.abftChecksum = true;
    drifty.noise.driftLevelsPerOp = 0.1;
    drifty.noise.refreshIntervalOps = 10; // 0.1 * 9 = 0.9 < 1

    BitSerialEngine ref(clean, weights, n, m);
    BitSerialEngine eng(drifty, weights, n, m);

    for (int op = 0; op < 25; ++op) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(ref.dotProduct(inputs), eng.dotProduct(inputs))
            << "op " << op;
    }
    const auto ts = eng.transientStats();
    EXPECT_EQ(ts.abftMismatches, 0u);
    // Refresh fires after ops 10 and 20 (opSeq 9 and 19), per tile.
    EXPECT_EQ(ts.driftRefreshes,
              2u * static_cast<std::uint64_t>(eng.physicalArrays()));
    EXPECT_GT(ts.refreshPulses, 0u);
}

TEST(Drift, UnrefreshedDriftIsFlaggedAndUncorrectable)
{
    // With refresh off the cell age grows without bound; once cells
    // drop a level the checksum flags the read, and because a retry
    // keeps the same drift clock (only noise redraws), every
    // mismatch exhausts the budget.
    Rng rng(815);
    const int n = 128, m = 16;
    const auto weights = randomWords(rng, n * m);

    EngineConfig clean;
    EngineConfig drifty = clean;
    drifty.abftChecksum = true;
    drifty.maxReadRetries = 2;
    drifty.noise.driftLevelsPerOp = 0.5;
    drifty.noise.refreshIntervalOps = 0; // never refresh

    BitSerialEngine ref(clean, weights, n, m);
    BitSerialEngine eng(drifty, weights, n, m);

    int corruptedOps = 0;
    for (int op = 0; op < 30; ++op) {
        const auto inputs = randomWords(rng, n);
        if (ref.dotProduct(inputs) != eng.dotProduct(inputs))
            ++corruptedOps;
    }
    const auto ts = eng.transientStats();
    EXPECT_GT(ts.abftMismatches, 0u);
    EXPECT_EQ(ts.abftUncorrected, ts.abftMismatches);
    EXPECT_GT(corruptedOps, 0);
    EXPECT_EQ(ts.driftRefreshes, 0u);
}

TEST(Abft, ReadNoiseRetriesAreDeterministicPerSeed)
{
    // Large read noise makes checks flag; the bounded re-read draws
    // a fresh noise sequence per attempt. Two identical engines must
    // realize the identical mismatch/retry/recovery history.
    Rng rng(816);
    const int n = 128, m = 16;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.noise.sigmaLsb = 3.0;
    cfg.noise.seed = 55;

    BitSerialEngine a(cfg, weights, n, m);
    BitSerialEngine b(cfg, weights, n, m);
    for (int op = 0; op < 6; ++op) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(a.dotProduct(inputs), b.dotProduct(inputs));
    }
    const auto ta = a.transientStats();
    EXPECT_EQ(ta, b.transientStats());
    EXPECT_GT(ta.abftMismatches, 0u);
    EXPECT_GT(ta.abftRetries, 0u);
    // Some noise excursions recover on re-read.
    EXPECT_GE(ta.abftMismatches, ta.abftUncorrected);
}

TEST(Abft, DefectiveChecksumColumnDisablesTheTileNotTheEngine)
{
    // A heavy stuck-cell population corrupts some checksum columns
    // at program time; those tiles run unchecked (structural count)
    // while healthy tiles keep verifying — and because targets come
    // from stored readback, permanent data-cell defects never raise
    // transient alarms.
    Rng rng(817);
    const int n = 300, m = 48;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.noise.stuckAtFraction = 0.3;
    cfg.noise.seed = 7;

    BitSerialEngine eng(cfg, weights, n, m);
    std::uint64_t disabled = 0;
    for (int rs = 0; rs < eng.rowSegments(); ++rs)
        for (int cs = 0; cs < eng.colSegments(); ++cs)
            disabled += !eng.abftActive(rs, cs);
    ASSERT_GT(disabled, 0u);
    EXPECT_EQ(eng.transientStats().abftDisabledTiles, disabled);

    for (int op = 0; op < 4; ++op)
        eng.dotProduct(randomWords(rng, n));
    const auto ts = eng.transientStats();
    EXPECT_EQ(ts.abftMismatches, 0u);
    EXPECT_EQ(ts.abftDisabledTiles, disabled); // survives running

    eng.resetStats();
    EXPECT_EQ(eng.transientStats().abftDisabledTiles, disabled);
}

TEST(Abft, ResetStatsReplaysTheIdenticalRealization)
{
    // Satellite regression: after resetStats() the engine must
    // reproduce a fresh engine's results AND counters on the same
    // workload — op sequence, noise streams, and drift clocks all
    // rewind together.
    Rng rng(818);
    const int n = 256, m = 16;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.noise.sigmaLsb = 2.0;
    cfg.noise.driftLevelsPerOp = 0.1;
    cfg.noise.refreshIntervalOps = 4;
    cfg.noise.seed = 21;

    std::vector<std::vector<Word>> workload;
    for (int op = 0; op < 8; ++op)
        workload.push_back(randomWords(rng, n));

    BitSerialEngine eng(cfg, weights, n, m);
    std::vector<std::vector<Acc>> firstRun;
    for (const auto &inputs : workload)
        firstRun.push_back(eng.dotProduct(inputs));
    const auto firstTransient = eng.transientStats();
    const auto firstStats = eng.stats();
    ASSERT_GT(firstTransient.driftRefreshes, 0u);

    eng.resetStats();
    EXPECT_EQ(eng.transientStats(), resilience::TransientStats{});

    for (std::size_t op = 0; op < workload.size(); ++op)
        EXPECT_EQ(eng.dotProduct(workload[op]), firstRun[op])
            << "op " << op;
    EXPECT_EQ(eng.transientStats(), firstTransient);
    EXPECT_EQ(eng.stats().crossbarReads, firstStats.crossbarReads);
    EXPECT_EQ(eng.stats().adcSamples, firstStats.adcSamples);

    // And a fresh engine agrees with both runs.
    BitSerialEngine fresh(cfg, weights, n, m);
    for (std::size_t op = 0; op < workload.size(); ++op)
        EXPECT_EQ(fresh.dotProduct(workload[op]), firstRun[op]);
    EXPECT_EQ(fresh.transientStats(), firstTransient);
}

} // namespace
} // namespace isaac::xbar
