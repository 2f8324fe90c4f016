/**
 * @file
 * End-to-end integration tests: the analog pipeline model must be
 * bit-identical to the software reference executor across whole
 * networks, and the compiled plan/report must be coherent.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/accelerator.h"
#include "nn/zoo.h"

namespace isaac::core {
namespace {

TEST(Accelerator, TinyCnnBitExactAgainstReference)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 42);
    const CompileOptions opts;

    Accelerator acc;
    const auto model = acc.compile(net, weights, opts);

    nn::ReferenceExecutor ref(net, weights, opts.format);
    const auto input = nn::synthesizeInput(16, 12, 12, 7, opts.format);

    const auto got = model.inferAll(input);
    const auto want = ref.runAll(input);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].raw(), want[i].raw())
            << "layer " << i << " diverged";
    }
    EXPECT_EQ(model.adcClips(), 0u);
}

TEST(Accelerator, PrivateKernelNetworkBitExact)
{
    // A small DNN-style network with a locally connected layer.
    nn::NetworkBuilder b("private-net", 4, 10, 10);
    b.conv(3, 8, 1, 0);       // 10 -> 8
    b.localConv(3, 6, 1, 0);  // 8 -> 6, private kernels
    b.fc(5, nn::Activation::None);
    const auto net = b.build();
    const auto weights = nn::WeightStore::synthesize(net, 99);
    const CompileOptions opts;

    Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    nn::ReferenceExecutor ref(net, weights, opts.format);

    const auto input = nn::synthesizeInput(4, 10, 10, 3, opts.format);
    EXPECT_EQ(model.infer(input).raw(), ref.run(input).raw());
    EXPECT_EQ(model.adcClips(), 0u);
}

TEST(Accelerator, MultiSegmentLayersBitExact)
{
    // Dot lengths beyond 128 rows and output counts beyond one
    // array's columns force row/column tiling in the engines.
    nn::NetworkBuilder b("wide-net", 8, 8, 8);
    b.conv(5, 24, 1, 0); // dot length 200, 24 outputs
    b.fc(40, nn::Activation::Sigmoid);
    const auto net = b.build();
    const auto weights = nn::WeightStore::synthesize(net, 5);
    const CompileOptions opts;

    Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    nn::ReferenceExecutor ref(net, weights, opts.format);

    const auto input = nn::synthesizeInput(8, 8, 8, 11, opts.format);
    EXPECT_EQ(model.infer(input).raw(), ref.run(input).raw());
}

TEST(Accelerator, BatchedWindowExecutionIsInvisible)
{
    // The packed path drives every shared-kernel layer — one-window
    // FC layers included — through one dotProductBatch() call; every
    // layer output and every engine counter must equal the scalar
    // reference's per-window dotProduct() walk. Multi-segment conv
    // layers stress the tiled path.
    nn::NetworkBuilder b("batch-net", 8, 8, 8);
    b.conv(5, 24, 1, 0); // dot length 200, 24 outputs, 16 windows
    b.conv(3, 8, 1, 0);
    b.fc(10, nn::Activation::None);
    const auto net = b.build();
    const auto weights = nn::WeightStore::synthesize(net, 17);
    const CompileOptions opts;
    const auto input = nn::synthesizeInput(8, 8, 8, 9, opts.format);

    arch::IsaacConfig batched; // default: packed path on
    ASSERT_TRUE(batched.engine.fastPath);
    arch::IsaacConfig perWindow;
    perWindow.engine.fastPath = false;

    const auto ma = Accelerator(batched).compile(net, weights, opts);
    const auto mb = Accelerator(perWindow).compile(net, weights, opts);
    const auto ra = ma.inferAll(input);
    const auto rb = mb.inferAll(input);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].raw(), rb[i].raw()) << "layer " << i;
    EXPECT_TRUE(ma.engineStats() == mb.engineStats());
    EXPECT_EQ(ma.adcClips(), mb.adcClips());
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 1);
    Accelerator acc;
    const auto model = acc.compile(net, weights);
    const auto input = nn::synthesizeInput(16, 12, 12, 2, {12});
    const auto a = model.infer(input);
    const auto b = model.infer(input);
    EXPECT_EQ(a.raw(), b.raw());
}

TEST(Accelerator, NoisyCompilationPerturbsResults)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 8);

    arch::IsaacConfig noisy;
    noisy.engine.noise.sigmaLsb = 1.0;
    noisy.engine.noise.seed = 1234;
    Accelerator acc(noisy);
    const auto model = acc.compile(net, weights);

    nn::ReferenceExecutor ref(net, weights, FixedFormat{12});
    const auto input = nn::synthesizeInput(16, 12, 12, 5, {12});
    const auto got = model.infer(input);
    const auto want = ref.run(input);
    int diffs = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        diffs += got.flat(i) != want.flat(i);
    EXPECT_GT(diffs, 0);
}

TEST(Accelerator, EngineStatsAccumulate)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 3);
    Accelerator acc;
    const auto model = acc.compile(net, weights);
    const auto input = nn::synthesizeInput(16, 12, 12, 4, {12});
    model.infer(input);
    const auto stats = model.engineStats();
    // conv: 81 windows; fc: 1 op.
    EXPECT_EQ(stats.ops, 82u);
    EXPECT_GT(stats.crossbarReads, 82u * 16u);
    EXPECT_GT(stats.adcSamples, stats.crossbarReads);
}

TEST(Accelerator, AnalyticOnlyCompilationSkipsEngines)
{
    const auto net = nn::vgg(1);
    nn::WeightStore empty(net.size());
    Accelerator acc;
    CompileOptions opts;
    opts.chips = 16;
    opts.functional = false;
    const auto model = acc.compile(net, empty, opts);
    EXPECT_TRUE(model.perf().fits);
    EXPECT_GT(model.perf().imagesPerSec, 0.0);
    EXPECT_EQ(model.functionalArrays(), 0);
    const auto input = nn::synthesizeInput(3, 224, 224, 1, {12});
    EXPECT_THROW(model.infer(input), FatalError);
}

TEST(Accelerator, FunctionalArraysMatchFootprint)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 6);
    Accelerator acc;
    const auto model = acc.compile(net, weights);
    // conv: 2x2 segments = 4 arrays; fc: 288 inputs x 10 outputs
    // -> 3 row segments x 1 col segment = 3 arrays.
    EXPECT_EQ(model.functionalArrays(), 7);
}

} // namespace
} // namespace isaac::core
