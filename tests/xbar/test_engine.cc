/**
 * @file
 * Bit-serial engine tests: the central correctness claim of the
 * reproduction. The analog pipeline (bit-serial inputs, sliced
 * biased weights, flipped columns, unit column, ADC, shift-and-add)
 * must compute the exact signed dot product.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "common/logging.h"
#include "common/rng.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

/** Direct signed dot-product reference. */
std::vector<Acc>
directDot(std::span<const Word> weights, std::span<const Word> inputs,
          int numInputs, int numOutputs)
{
    std::vector<Acc> out(static_cast<std::size_t>(numOutputs), 0);
    for (int k = 0; k < numOutputs; ++k)
        for (int r = 0; r < numInputs; ++r)
            out[static_cast<std::size_t>(k)] +=
                static_cast<Acc>(
                    weights[static_cast<std::size_t>(k) * numInputs +
                            r]) *
                inputs[static_cast<std::size_t>(r)];
    return out;
}

std::vector<Word>
randomWords(Rng &rng, int n, int lo = -32768, int hi = 32767)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(lo, hi));
    return v;
}

TEST(EngineConfig, DefaultsMatchIsaacCE)
{
    EngineConfig cfg;
    EXPECT_EQ(cfg.slicesPerWeight(), 8); // 8 cells per weight
    EXPECT_EQ(cfg.phases(), 16);         // 16-cycle bit-serial input
    EXPECT_EQ(cfg.outputsPerArray(), 16);
    EXPECT_EQ(cfg.adcBits(), 8);         // Table I's 8-bit ADC
}

TEST(EngineConfig, ValidateCatchesBadCombos)
{
    EngineConfig cfg;
    cfg.dacBits = 2; // two's complement streaming needs v = 1
    EXPECT_THROW(cfg.validate(), FatalError);

    EngineConfig narrow;
    narrow.cols = 4; // narrower than one sliced weight
    EXPECT_THROW(narrow.validate(), FatalError);

    EngineConfig badW;
    badW.cellBits = 3;
    EXPECT_THROW(badW.validate(), FatalError);
}

TEST(Engine, ExactSingleArrayDotProduct)
{
    Rng rng(11);
    EngineConfig cfg; // 128x128, w=2, v=1, flip encoding
    const int n = 128, m = 16;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    EXPECT_EQ(eng.physicalArrays(), 1);

    for (int trial = 0; trial < 20; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs),
                  directDot(weights, inputs, n, m));
    }
    EXPECT_EQ(eng.adcClips(), 0u);
}

TEST(Engine, ExactAcrossRowAndColumnSegments)
{
    // Fig. 4's layer i: a 256x256 logical crossbar spread over four
    // 128x128 physical arrays (256 inputs, 32 outputs x 8 slices).
    Rng rng(13);
    EngineConfig cfg;
    const int n = 256, m = 32;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    EXPECT_EQ(eng.rowSegments(), 2);
    EXPECT_EQ(eng.colSegments(), 2);
    EXPECT_EQ(eng.physicalArrays(), 4);

    for (int trial = 0; trial < 10; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs),
                  directDot(weights, inputs, n, m));
    }
    EXPECT_EQ(eng.adcClips(), 0u);
}

TEST(Engine, ExactWithRaggedEdges)
{
    // Dimensions that do not divide the array evenly exercise the
    // zero-padded rows and partially used columns.
    Rng rng(17);
    EngineConfig cfg;
    const int n = 200, m = 21;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    EXPECT_EQ(eng.rowSegments(), 2);
    EXPECT_EQ(eng.colSegments(), 2);

    for (int trial = 0; trial < 10; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs),
                  directDot(weights, inputs, n, m));
    }
    EXPECT_EQ(eng.adcClips(), 0u);
}

TEST(Engine, ExactWithoutFlipEncodingAtHigherAdc)
{
    Rng rng(19);
    EngineConfig cfg;
    cfg.flipEncoding = false; // needs the 9-bit ADC
    EXPECT_EQ(cfg.adcBits(), 9);
    const int n = 128, m = 8;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    for (int trial = 0; trial < 10; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs),
                  directDot(weights, inputs, n, m));
    }
    EXPECT_EQ(eng.adcClips(), 0u);
}

TEST(Engine, ExactExtremeValues)
{
    // Corner inputs/weights: saturated positives, negatives, zero.
    EngineConfig cfg;
    const int n = 6, m = 2;
    const std::vector<Word> weights{
        32767, -32768, 0, 1, -1, 12345,          // output 0
        -32768, -32768, -32768, 32767, 32767, 7, // output 1
    };
    BitSerialEngine eng(cfg, weights, n, m);
    const std::vector<Word> inputs{-32768, 32767, -1, 0, 1, -12345};
    EXPECT_EQ(eng.dotProduct(inputs),
              directDot(weights, inputs, n, m));
    EXPECT_EQ(eng.adcClips(), 0u);
}

/** gtest names each case after its raw bytes, so the struct has no
 *  padding: every byte is a field, and names are stable per build. */
struct GeomCase
{
    int rows, cols, cellBits, dacBits;
    std::int32_t flip;
    InputMode mode;
};
static_assert(std::has_unique_object_representations_v<GeomCase>);
static_assert(sizeof(GeomCase) == 24);

class EngineGeometry : public ::testing::TestWithParam<GeomCase> {};

TEST_P(EngineGeometry, ExactForGeometry)
{
    const auto p = GetParam();
    Rng rng(23 + p.rows + p.cellBits * 100 + p.dacBits);
    EngineConfig cfg;
    cfg.rows = p.rows;
    cfg.cols = p.cols;
    cfg.cellBits = p.cellBits;
    cfg.dacBits = p.dacBits;
    cfg.flipEncoding = p.flip != 0;
    cfg.inputMode = p.mode;

    const int n = p.rows + p.rows / 2; // force two row segments
    const int m = cfg.outputsPerArray() + 3;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    for (int trial = 0; trial < 6; ++trial) {
        const auto inputs = randomWords(rng, n);
        EXPECT_EQ(eng.dotProduct(inputs),
                  directDot(weights, inputs, n, m));
    }
    EXPECT_EQ(eng.adcClips(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineGeometry,
    ::testing::Values(
        // The ISAAC-CE design point.
        GeomCase{128, 128, 2, 1, true, InputMode::TwosComplement},
        // Smaller and larger arrays.
        GeomCase{32, 64, 2, 1, true, InputMode::TwosComplement},
        GeomCase{256, 128, 2, 1, true, InputMode::TwosComplement},
        // 1-bit and 4-bit cells (the w ablation).
        GeomCase{128, 128, 1, 1, true, InputMode::TwosComplement},
        GeomCase{128, 128, 4, 1, true, InputMode::TwosComplement},
        // No flip encoding.
        GeomCase{128, 128, 2, 1, false, InputMode::TwosComplement},
        // Biased input mode at v = 1 (must agree with two's comp).
        GeomCase{128, 128, 2, 1, true, InputMode::Biased},
        // Multi-bit DACs (the v ablation) need biased inputs.
        GeomCase{128, 128, 2, 2, true, InputMode::Biased},
        GeomCase{128, 128, 2, 4, true, InputMode::Biased},
        GeomCase{64, 128, 4, 2, false, InputMode::Biased}));

TEST(Engine, StatsCountPhasesAndSamples)
{
    Rng rng(29);
    EngineConfig cfg;
    const int n = 128, m = 16;
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    const auto inputs = randomWords(rng, n);
    eng.dotProduct(inputs);

    const auto &s = eng.stats();
    EXPECT_EQ(s.ops, 1u);
    // 16 phases, one array.
    EXPECT_EQ(s.crossbarReads, 16u);
    // Per phase: 128 data columns + 1 unit column sampled.
    EXPECT_EQ(s.adcSamples, 16u * 129u);
    // Each row gets one digit per phase.
    EXPECT_EQ(s.dacActivations, 16u * 128u);

    eng.resetStats();
    EXPECT_EQ(eng.stats().ops, 0u);
    EXPECT_EQ(eng.stats().adcSamples, 0u);
}

TEST(Engine, CellUtilizationFullArray)
{
    Rng rng(31);
    EngineConfig cfg;
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine full(cfg, weights, 128, 16);
    // 128 rows x (128 data + 1 unit) used out of 128 x 129.
    EXPECT_DOUBLE_EQ(full.cellUtilization(), 1.0);

    const auto halfWeights = randomWords(rng, 64 * 16);
    BitSerialEngine half(cfg, halfWeights, 64, 16);
    EXPECT_NEAR(half.cellUtilization(), 0.5, 0.01);
}

TEST(Engine, NoiseProducesBoundedErrors)
{
    Rng rng(37);
    EngineConfig cfg;
    cfg.noise.sigmaLsb = 0.3;
    cfg.noise.seed = 77;
    const int n = 128, m = 4;
    // Small weights keep the relative error visible but bounded.
    const auto weights = randomWords(rng, n * m);
    BitSerialEngine eng(cfg, weights, n, m);
    const auto inputs = randomWords(rng, n);
    const auto noisy = eng.dotProduct(inputs);
    const auto exact = directDot(weights, inputs, n, m);
    int differing = 0;
    for (int k = 0; k < m; ++k) {
        // Per-sample sigma of 0.3 LSB is amplified by the slice
        // (up to 2^14) and phase (up to 2^15) shifts: errors of a
        // few times 2^27 are expected; 2^31 bounds the ballpark.
        EXPECT_NEAR(static_cast<double>(noisy[k]),
                    static_cast<double>(exact[k]), 1.0 * (1LL << 31));
        differing += noisy[k] != exact[k];
    }
    EXPECT_GT(differing, 0);
}

TEST(Engine, RejectsWrongInputLength)
{
    Rng rng(41);
    EngineConfig cfg;
    const auto weights = randomWords(rng, 128 * 16);
    BitSerialEngine eng(cfg, weights, 128, 16);
    const auto bad = randomWords(rng, 64);
    EXPECT_THROW(eng.dotProduct(bad), FatalError);
}

TEST(Engine, RejectsMismatchedWeights)
{
    Rng rng(43);
    EngineConfig cfg;
    const auto weights = randomWords(rng, 100);
    EXPECT_THROW(BitSerialEngine(cfg, weights, 128, 16), FatalError);
}

} // namespace
} // namespace isaac::xbar
