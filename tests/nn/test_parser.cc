/**
 * @file
 * Network-description parser tests.
 */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "nn/parser.h"
#include "pipeline/replication.h"
#include "nn/zoo.h"

namespace isaac::nn {
namespace {

TEST(Parser, ParsesTinyCnnEquivalent)
{
    const auto net = parseNetwork(R"(
        network TinyCNN
        input 16 12 12
        conv 4 32 pad 0
        maxpool 3 stride 3
        fc 10 linear
    )");
    const auto ref = tinyCnn();
    ASSERT_EQ(net.size(), ref.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &a = net.layer(i);
        const auto &b = ref.layer(i);
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.ni, b.ni) << i;
        EXPECT_EQ(a.no, b.no) << i;
        EXPECT_EQ(a.kx, b.kx) << i;
        EXPECT_EQ(a.sx, b.sx) << i;
        EXPECT_EQ(a.activation, b.activation) << i;
    }
    EXPECT_EQ(net.name(), "TinyCNN");
}

TEST(Parser, HandlesCommentsAndOptions)
{
    const auto net = parseNetwork(R"(
        # a comment
        network t
        input 3 32 32   # trailing comment
        conv 3 8 stride 2 pad 1 relu
        conv 3 8 pad same
        spp 2 1
        fc 5
    )");
    EXPECT_EQ(net.layer(0).sx, 2);
    EXPECT_EQ(net.layer(0).px, 1);
    EXPECT_EQ(net.layer(0).activation, Activation::ReLU);
    EXPECT_EQ(net.layer(1).px, 1); // same padding for 3x3
    EXPECT_EQ(net.layer(2).kind, LayerKind::Spp);
    EXPECT_EQ(net.layer(3).activation, Activation::Sigmoid);
}

TEST(Parser, PrivateConvolutions)
{
    const auto net = parseNetwork(R"(
        input 4 10 10
        conv 3 6 pad 0 private
    )");
    EXPECT_TRUE(net.layer(0).privateKernel);
}

TEST(Parser, AvgPoolAndDefaultName)
{
    const auto net = parseNetwork(R"(
        input 2 8 8
        avgpool 2 stride 2
        fc 3 linear
    )");
    EXPECT_EQ(net.name(), "unnamed");
    EXPECT_EQ(net.layer(0).kind, LayerKind::AvgPool);
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    try {
        parseNetwork("network t\ninput 3 8 8\nconv nonsense 4\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
}

TEST(Parser, RejectsMalformedDescriptions)
{
    EXPECT_THROW(parseNetwork(""), FatalError);
    EXPECT_THROW(parseNetwork("network t\nconv 3 8\n"), FatalError);
    EXPECT_THROW(parseNetwork("input 3 8 8\nwat 1\n"), FatalError);
    EXPECT_THROW(parseNetwork("input 3 8 8\nmaxpool 2\n"),
                 FatalError);
    EXPECT_THROW(parseNetwork("input 3 8 8\nfc 10 bogus\n"),
                 FatalError);
    EXPECT_THROW(parseNetwork("input 3 8 8\nconv 3 8 warp\n"),
                 FatalError);
    // A negative pad is not 'same' (shared kernels) nor 0 (private).
    EXPECT_THROW(parseNetwork("input 3 8 8\nconv 5 6 pad -3\n"),
                 FatalError);
    EXPECT_THROW(
        parseNetwork("input 3 8 8\nconv 5 6 pad -3 private\n"),
        FatalError);
}

TEST(Parser, LoadsFromFile)
{
    const std::string path = "/tmp/isaac_parser_test.net";
    {
        std::ofstream out(path);
        out << "network filed\ninput 1 4 4\nfc 2 linear\n";
    }
    const auto net = loadNetworkFile(path);
    EXPECT_EQ(net.name(), "filed");
    EXPECT_EQ(net.layer(0).no, 2);
    std::remove(path.c_str());
    EXPECT_THROW(loadNetworkFile("/nonexistent/x.net"), FatalError);
}

TEST(Parser, ParsedNetworksPlanLikeBuiltOnes)
{
    // A parsed description runs through the whole analytic stack.
    const auto net = parseNetwork(R"(
        network parsed
        input 8 16 16
        conv 3 16 pad 0
        maxpool 2 stride 2
        fc 10 linear
    )");
    const auto plan = isaac::pipeline::planPipeline(
        net, isaac::arch::IsaacConfig::isaacCE(), 1);
    EXPECT_TRUE(plan.fits);
    EXPECT_GT(plan.cyclesPerImage, 0);
}

} // namespace
} // namespace isaac::nn
