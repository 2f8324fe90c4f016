/**
 * @file
 * Execution-plan IR lowering tests: node/edge shape for every Table
 * II benchmark, topological validity, node-id stability across
 * recompiles, resource annotation from the pipeline plan, and
 * IR-walk vs legacy layer-loop equivalence on TinyCNN and VGG-1.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/accelerator.h"
#include "nn/reference.h"
#include "nn/zoo.h"
#include "pipeline/execution_plan.h"
#include "pipeline/replication.h"

namespace isaac::pipeline {
namespace {

/** Expected node count: dot layers lower to 4 steps, others to 1. */
std::size_t
expectedNodes(const nn::Network &net)
{
    std::size_t nodes = 0;
    for (std::size_t i = 0; i < net.size(); ++i)
        nodes += net.layer(i).isDotProduct() ? 4 : 1;
    return nodes;
}

/** Expected edges: 3 intra-layer per dot chain + 1 between layers. */
std::size_t
expectedEdges(const nn::Network &net)
{
    std::size_t edges = net.size() - 1;
    for (std::size_t i = 0; i < net.size(); ++i)
        if (net.layer(i).isDotProduct())
            edges += 3;
    return edges;
}

TEST(ExecutionPlan, TableIINetworksLowerToExpectedShape)
{
    for (const auto &net : nn::allBenchmarks()) {
        SCOPED_TRACE(net.name());
        const auto ir = ExecutionPlan::lower(net);
        EXPECT_EQ(ir.size(), expectedNodes(net));
        EXPECT_EQ(ir.edgeCount(), expectedEdges(net));
        EXPECT_EQ(ir.computeOrder().size(), net.size());
        EXPECT_FALSE(ir.annotated());
        EXPECT_TRUE(ir.topologicallyOrdered());

        // Per-layer chain shape and stream keying.
        for (std::size_t i = 0; i < net.size(); ++i) {
            const int computeId = ir.computeOrder()[i];
            const auto &compute = ir.node(computeId);
            EXPECT_TRUE(compute.compute);
            EXPECT_EQ(compute.layer, i);
            if (net.layer(i).isDotProduct()) {
                EXPECT_EQ(compute.kind, StepKind::Dot);
                const auto &in = ir.node(computeId - 1);
                const auto &out = ir.node(computeId + 1);
                const auto &tr = ir.node(computeId + 2);
                EXPECT_EQ(in.kind, StepKind::StageIn);
                EXPECT_EQ(out.kind, StepKind::StageOut);
                EXPECT_EQ(tr.kind, StepKind::Transfer);
                EXPECT_EQ(in.transferKind, 0);
                EXPECT_EQ(out.transferKind, 1);
                EXPECT_EQ(tr.transferKind, 2);
                EXPECT_EQ(compute.transferKind, -1);
                EXPECT_FALSE(in.layerOutput);
                EXPECT_FALSE(compute.layerOutput);
                EXPECT_FALSE(out.layerOutput);
                EXPECT_TRUE(tr.layerOutput);
            } else {
                EXPECT_EQ(compute.kind, StepKind::Pool);
                EXPECT_TRUE(compute.layerOutput);
            }
        }

        // Exactly one layerOutput node per layer, in layer order.
        std::size_t outputs = 0;
        for (const auto &n : ir.nodes()) {
            if (n.layerOutput) {
                EXPECT_EQ(n.layer, outputs);
                ++outputs;
            }
        }
        EXPECT_EQ(outputs, net.size());
    }
}

TEST(ExecutionPlan, NodeIdsAreStableAcrossRecompiles)
{
    const auto net = nn::tinyCnn();
    const auto a = ExecutionPlan::lower(net);
    const auto b = ExecutionPlan::lower(net);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &na = a.nodes()[i];
        const auto &nb = b.nodes()[i];
        EXPECT_EQ(na.id, static_cast<int>(i));
        EXPECT_EQ(na.id, nb.id);
        EXPECT_EQ(na.kind, nb.kind);
        EXPECT_EQ(na.layer, nb.layer);
        EXPECT_EQ(na.transferKind, nb.transferKind);
        EXPECT_EQ(na.producers, nb.producers);
        EXPECT_EQ(na.consumers, nb.consumers);
    }

    // The same holds through the compiled-model front door (the
    // annotated lowering), run twice.
    const auto weights = nn::WeightStore::synthesize(net, 3);
    core::Accelerator acc;
    const auto m1 = acc.compile(net, weights);
    const auto m2 = acc.compile(net, weights);
    ASSERT_EQ(m1.executionPlan().size(), m2.executionPlan().size());
    for (std::size_t i = 0; i < m1.executionPlan().size(); ++i) {
        EXPECT_EQ(m1.executionPlan().nodes()[i].id,
                  m2.executionPlan().nodes()[i].id);
        EXPECT_EQ(m1.executionPlan().nodes()[i].kind,
                  m2.executionPlan().nodes()[i].kind);
    }
}

TEST(ExecutionPlan, AnnotatedLoweringCarriesPlanResources)
{
    const auto net = nn::tinyCnn();
    arch::IsaacConfig cfg;
    const auto plan = planPipeline(net, cfg, 1);
    const auto ir = ExecutionPlan::lower(net, plan);
    ASSERT_TRUE(ir.annotated());
    EXPECT_TRUE(ir.topologicallyOrdered());

    for (const auto &n : ir.nodes()) {
        const auto &lp = plan.layers[n.layer];
        if (!net.layer(n.layer).isDotProduct())
            continue;
        EXPECT_EQ(n.replication, lp.replication);
        EXPECT_EQ(n.tiles, lp.tiles);
        EXPECT_GT(n.tiles, 0);
        if (n.kind == StepKind::StageIn)
            EXPECT_EQ(n.bufferBytes, lp.bufferBytes);
        if (n.kind == StepKind::Dot) {
            const auto &l = net.layer(n.layer);
            EXPECT_EQ(n.engineGroups,
                      l.privateKernel ? l.windowsPerImage() : 1);
        }
    }
}

TEST(ExecutionPlan, MismatchedPlanIsFatal)
{
    const auto net = nn::tinyCnn();
    arch::IsaacConfig cfg;
    auto plan = planPipeline(net, cfg, 1);
    plan.layers.pop_back();
    EXPECT_THROW(ExecutionPlan::lower(net, plan), FatalError);
}

TEST(ExecutionPlan, WindowReadyTimesValidatesProducerShape)
{
    const auto net = nn::tinyCnn();
    const auto ir = ExecutionPlan::lower(net);

    // First layer: no producer, all-zero ready times.
    const auto &first = ir.node(ir.computeOrder()[0]);
    const auto &l0 = net.layer(0);
    const auto ready0 = ir.windowReadyTimes(first, {});
    EXPECT_EQ(ready0.size(),
              static_cast<std::size_t>(l0.outNx()) * l0.outNy());
    for (const Cycle c : ready0)
        EXPECT_EQ(c, 0);

    // Later layer with a wrong-sized completion array is fatal.
    const auto &second = ir.node(ir.computeOrder()[1]);
    const std::vector<Cycle> bogus(3, 1);
    EXPECT_THROW(
        ir.windowReadyTimes(
            second, std::span<const Cycle>(bogus)),
        FatalError);
}

/** IR walk (runAll) must equal the legacy per-layer loop exactly. */
void
expectIrWalkMatchesLayerLoop(const nn::Network &net,
                             std::uint64_t seed)
{
    const auto weights = nn::WeightStore::synthesize(net, seed);
    const FixedFormat fmt{12};
    const nn::ReferenceExecutor ref(net, weights, fmt);
    const auto &l0 = net.layer(0);
    const auto input =
        nn::synthesizeInput(l0.ni, l0.nx, l0.ny, seed + 1, fmt);

    // Legacy walk: the hand-rolled layer loop runAll() used to be.
    std::vector<nn::Tensor> want;
    nn::Tensor cur = input;
    for (std::size_t i = 0; i < net.size(); ++i) {
        cur = ref.runLayer(i, cur);
        want.push_back(cur);
    }

    const auto got = ref.runAll(input);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].raw(), want[i].raw())
            << net.name() << " layer " << i;
    }
    EXPECT_EQ(ref.run(input).raw(), want.back().raw());
}

TEST(ExecutionPlan, IrWalkMatchesLegacyWalkOnTinyCnn)
{
    expectIrWalkMatchesLayerLoop(nn::tinyCnn(), 11);
}

TEST(ExecutionPlan, IrWalkMatchesLegacyWalkOnVgg1)
{
    expectIrWalkMatchesLayerLoop(nn::vgg(1), 5);
}

} // namespace
} // namespace isaac::pipeline
