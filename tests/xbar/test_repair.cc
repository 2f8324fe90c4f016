/**
 * @file
 * Online tile-repair tests (BitSerialEngine::repairTile): the march +
 * spare-remap pass must restore bit-exact results after an injected
 * stuck burst, re-arm the packed fast path, behave as an identity on
 * healthy tiles, report uncorrectable damage when the spares cannot
 * cover it, and refuse to run under write noise (the march cannot
 * tell transient programming errors from permanent faults).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.h"
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

TEST(Repair, StuckBurstIsRemappedAndResultsReturnExact)
{
    // Inject a rail-max burst into mapped data columns of a spared
    // engine, verify the corruption is visible, repair, and demand
    // bit-exactness against an untouched twin on fresh inputs.
    Rng rng(901);
    const int n = 96, m = 12;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.spareCols = 4;
    BitSerialEngine eng(cfg, weights, n, m);
    BitSerialEngine twin(cfg, weights, n, m);
    ASSERT_TRUE(eng.fastPathActive());

    const auto probe = randomWords(rng, n);
    ASSERT_EQ(eng.dotProduct(probe), twin.dotProduct(probe));

    const int railMax = (1 << cfg.cellBits) - 1;
    // Three distinct data columns: well within the spare budget.
    for (int c : {0, 5, 11})
        eng.injectCellFault(0, 0, /*row=*/c + 1, c, railMax);
    EXPECT_FALSE(eng.fastPathActive()); // taint forces scalar reads

    const auto report = eng.repairTile(0, 0);
    // A rail-max cell can coincide with its intended level, so the
    // census is bounded, not pinned.
    EXPECT_GE(report.faultsFound, 1);
    EXPECT_LE(report.faultsFound, 3);
    EXPECT_EQ(report.remappedColumns, report.faultsFound);
    EXPECT_EQ(report.uncorrectableCells, 0);
    EXPECT_TRUE(report.abftOk);
    EXPECT_TRUE(eng.fastPathActive()); // repair re-arms the fast path

    for (int op = 0; op < 4; ++op) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs), twin.dotProduct(inputs))
            << "op " << op;
    }
    EXPECT_EQ(eng.transientStats().abftUncorrected, 0u);
}

TEST(Repair, HealthyTileRepairIsAnIdentity)
{
    Rng rng(902);
    const int n = 64, m = 8;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.spareCols = 2;
    BitSerialEngine eng(cfg, weights, n, m);
    BitSerialEngine twin(cfg, weights, n, m);

    const auto report = eng.repairTile(0, 0);
    EXPECT_EQ(report.faultsFound, 0);
    EXPECT_EQ(report.remappedColumns, 0);
    EXPECT_EQ(report.uncorrectableCells, 0);

    const auto inputs = randomWords(rng, n);
    EXPECT_EQ(eng.dotProduct(inputs), twin.dotProduct(inputs));
}

TEST(Repair, TotalTileCorruptionReportsUncorrectableCells)
{
    // Kill every physical column — data, spares, unit, checksum — at
    // the ON rail. No remap target survives, so the repair must own
    // up to uncorrectable damage instead of claiming success.
    Rng rng(903);
    const int n = 64, m = 8;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.spareCols = 2;
    BitSerialEngine eng(cfg, weights, n, m);

    const int railMax = (1 << cfg.cellBits) - 1;
    const int totalCols = cfg.cols + cfg.spareCols + 1 + 1;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < totalCols; ++c)
            eng.injectCellFault(0, 0, r, c, railMax);

    const auto report = eng.repairTile(0, 0);
    EXPECT_GT(report.faultsFound, 0);
    EXPECT_GT(report.uncorrectableCells, 0);
}

TEST(Repair, SparesExhaustedLeavesUncorrectableResidue)
{
    // More faulted columns than spares: the planner remaps what it
    // can and the rest surfaces as uncorrectable cells.
    Rng rng(904);
    const int n = 96, m = 12;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.spareCols = 1;
    BitSerialEngine eng(cfg, weights, n, m);

    // Force two distinct levels per column so at least one cell per
    // column genuinely mismatches its intended value.
    for (int c : {0, 3, 7}) {
        eng.injectCellFault(0, 0, 0, c, 0);
        eng.injectCellFault(0, 0, 1, c, (1 << cfg.cellBits) - 1);
    }
    const auto report = eng.repairTile(0, 0);
    EXPECT_EQ(report.faultsFound, 6); // census counts stuck cells
    EXPECT_LE(report.remappedColumns, cfg.spareCols);
    EXPECT_GT(report.uncorrectableCells, 0);
}

TEST(Repair, WriteNoiseIsFatal)
{
    Rng rng(905);
    const int n = 32, m = 4;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.noise.writeSigmaLevels = 0.4;
    cfg.noise.seed = 5;
    BitSerialEngine eng(cfg, weights, n, m);
    EXPECT_THROW((void)eng.repairTile(0, 0), FatalError);
}

TEST(Repair, OutOfRangeTileIsFatal)
{
    Rng rng(906);
    const int n = 32, m = 4;
    const auto weights = randomWords(rng, n * m);
    EngineConfig cfg;
    BitSerialEngine eng(cfg, weights, n, m);
    EXPECT_THROW((void)eng.repairTile(-1, 0), FatalError);
    EXPECT_THROW((void)eng.repairTile(0, eng.colSegments()),
                 FatalError);
}

} // namespace
} // namespace isaac::xbar
