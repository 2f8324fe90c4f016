/**
 * @file
 * Buffer-model tests against the Section IV formula and Table III.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "nn/zoo.h"
#include "pipeline/buffer.h"

namespace isaac::pipeline {
namespace {

nn::LayerDesc
convLayer(int ni, int k, int nx)
{
    nn::LayerDesc d;
    d.kind = nn::LayerKind::Conv;
    d.name = "t";
    d.ni = ni;
    d.no = ni;
    d.nx = d.ny = nx;
    d.kx = d.ky = k;
    d.px = d.py = (k - 1) / 2;
    return d;
}

TEST(Buffer, SectionIvFormula)
{
    // ((Nx*(Ky-1)) + Kx) * Nif values.
    const auto l = convLayer(16, 4, 12);
    EXPECT_EQ(pipelinedBufferValues(l), (12 * 3 + 4) * 16);
    EXPECT_EQ(pipelinedBufferBytes(l), (12 * 3 + 4) * 16 * 2);
    EXPECT_EQ(unpipelinedBufferBytes(l), 12 * 12 * 16 * 2);
}

TEST(Buffer, Fig3Example)
{
    // 6x6 input feature map with a 2x2 kernel: one full row plus two
    // values must be buffered before the first output can fire.
    const auto l = convLayer(1, 2, 6);
    EXPECT_EQ(pipelinedBufferValues(l), 6 * 1 + 2);
}

// gtest names each case after the row's raw bytes. nx is 64-bit so the
// row has no padding, whose indeterminate bytes would make those names
// change from build to build.
struct TableIIIRow
{
    int ni, k;
    std::int64_t nx;
    double pipelinedKB;   // published
    double unpipelinedKB; // published
};
static_assert(sizeof(TableIIIRow) ==
              2 * sizeof(int) + sizeof(std::int64_t) + 2 * sizeof(double));

class TableIII : public ::testing::TestWithParam<TableIIIRow> {};

TEST_P(TableIII, PublishedNumbersReproduce)
{
    const auto row = GetParam();
    const auto l = convLayer(row.ni, row.k, static_cast<int>(row.nx));
    EXPECT_NEAR(paperTablePipelinedKB(l), row.pipelinedKB,
                0.03 * row.pipelinedKB + 0.5);
    EXPECT_NEAR(paperTableUnpipelinedKB(l), row.unpipelinedKB,
                0.02 * row.unpipelinedKB + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIII,
    ::testing::Values(
        // (Ni, k, Nx, pipelined KB, unpipelined KB) from Table III.
        TableIIIRow{3, 3, 224, 1.96, 147},
        TableIIIRow{96, 7, 112, 74, 1176},
        TableIIIRow{64, 3, 112, 21, 784},
        TableIIIRow{128, 3, 56, 21, 392},
        TableIIIRow{256, 3, 28, 21, 196},
        TableIIIRow{384, 3, 28, 32, 294},
        TableIIIRow{512, 3, 14, 21, 98},
        TableIIIRow{768, 3, 14, 32, 150},
        TableIIIRow{142, 11, 32, 48, 142},
        TableIIIRow{63, 9, 16, 8.8, 15.75},
        TableIIIRow{55, 9, 16, 7.7, 13.57},
        TableIIIRow{25, 7, 16, 2.7, 6.25}));

TEST(Buffer, NoLayerNeedsMoreThan74KB)
{
    // Sec. VIII-A: with pipelining no convolutional layer needs more
    // than 74 KB of input buffering (basis for the 64 KB per-tile
    // eDRAM). Classifier layers buffer their whole input but always
    // span many tiles.
    for (const auto &net : nn::allBenchmarks()) {
        for (const auto &l : net.layers()) {
            if (l.kind != nn::LayerKind::Conv)
                continue;
            EXPECT_LE(paperTablePipelinedKB(l), 74.5)
                << net.name() << " / " << l.name;
        }
    }
}

TEST(Buffer, ReductionIsRoughlyNyOverKy)
{
    // Sec. IV: "pipelining helps reduce the buffering requirement by
    // approximately Ny / Ky" -- the exact value lands between
    // Ny / Ky and Ny / (Ky - 1).
    const auto l = convLayer(64, 3, 112);
    const double r = pipelineBufferReduction(l);
    EXPECT_GE(r, 112.0 / 3.0);
    EXPECT_LE(r, 112.0 / 2.0);
}

TEST(Buffer, ClassifierBuffersWholeInput)
{
    nn::LayerDesc d;
    d.kind = nn::LayerKind::Classifier;
    d.name = "fc";
    d.ni = 512;
    d.no = 4096;
    d.nx = d.ny = 7;
    d.kx = d.ky = 7;
    EXPECT_EQ(pipelinedBufferBytes(d), 512LL * 49 * 2);
}

} // namespace
} // namespace isaac::pipeline
