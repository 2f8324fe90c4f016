#include "pipeline/execution_plan.h"

#include <algorithm>

#include "common/logging.h"
#include "pipeline/replication.h"

namespace isaac::pipeline {

const char *
toString(StepKind kind)
{
    switch (kind) {
      case StepKind::StageIn:
        return "stage-in";
      case StepKind::Dot:
        return "dot";
      case StepKind::StageOut:
        return "stage-out";
      case StepKind::Transfer:
        return "transfer";
      case StepKind::Pool:
        return "pool";
    }
    return "?";
}

ExecutionPlan
ExecutionPlan::lower(const nn::Network &net)
{
    return build(net, nullptr);
}

ExecutionPlan
ExecutionPlan::lower(const nn::Network &net, const PipelinePlan &plan)
{
    if (plan.layers.size() != net.size())
        fatal("ExecutionPlan::lower: pipeline plan does not match "
              "the network");
    return build(net, &plan);
}

std::int64_t
ExecutionPlan::recordMigration(std::size_t layer)
{
    for (auto &node : _nodes) {
        if (node.kind != StepKind::Dot || node.layer != layer)
            continue;
        // The chip simulator's policy for a killed tile: its share of
        // the replicated weight copies moves round-robin onto the
        // layer's surviving tiles (sim counts them as
        // remappedServers); here only the accounting lands because
        // the functional rebuild re-places the weights itself.
        const std::int64_t hosts =
            std::max<std::int64_t>(node.tiles, 1);
        const std::int64_t copies =
            (node.replication + hosts - 1) / hosts;
        node.tiles = std::max<std::int64_t>(1, node.tiles - 1);
        node.migratedCopies += copies;
        node.degraded = true;
        return copies;
    }
    fatal("ExecutionPlan::recordMigration: layer has no Dot node");
}

ExecutionPlan
ExecutionPlan::build(const nn::Network &net, const PipelinePlan *plan)
{
    ExecutionPlan ir;
    ir._net = &net;
    ir._annotated = plan != nullptr;

    auto push = [&ir](StepNode node) -> StepNode & {
        node.id = static_cast<int>(ir._nodes.size());
        ir._nodes.push_back(std::move(node));
        return ir._nodes.back();
    };
    auto link = [&ir](int from, int to) {
        ir._nodes[static_cast<std::size_t>(from)]
            .consumers.push_back(to);
        ir._nodes[static_cast<std::size_t>(to)]
            .producers.push_back(from);
    };

    int prevOut = -1; // id of the previous layer's layerOutput node.
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &l = net.layer(i);
        const LayerPlan *lp =
            plan ? &plan->layers[i] : nullptr;
        const int first = static_cast<int>(ir._nodes.size());

        if (l.isDotProduct()) {
            StepNode in;
            in.kind = StepKind::StageIn;
            in.layer = i;
            in.transferKind = 0;
            if (lp)
                in.bufferBytes = lp->bufferBytes;

            StepNode dot;
            dot.kind = StepKind::Dot;
            dot.layer = i;
            dot.compute = true;
            dot.engineGroups =
                l.privateKernel ? l.windowsPerImage() : 1;

            StepNode out;
            out.kind = StepKind::StageOut;
            out.layer = i;
            out.transferKind = 1;

            StepNode tr;
            tr.kind = StepKind::Transfer;
            tr.layer = i;
            tr.transferKind = 2;
            tr.layerOutput = true;

            for (auto *n : {&in, &dot, &out, &tr}) {
                if (lp) {
                    n->replication = lp->replication;
                    n->tiles = lp->tiles;
                }
            }
            push(std::move(in));
            const int dotId = push(std::move(dot)).id;
            push(std::move(out));
            const int trId = push(std::move(tr)).id;
            link(first, dotId);
            link(dotId, dotId + 1);
            link(dotId + 1, trId);
            ir._computeOrder.push_back(dotId);
        } else {
            StepNode pool;
            pool.kind = StepKind::Pool;
            pool.layer = i;
            pool.compute = true;
            pool.layerOutput = true;
            const int id = push(std::move(pool)).id;
            ir._computeOrder.push_back(id);
        }

        if (prevOut >= 0)
            link(prevOut, first);
        prevOut = static_cast<int>(ir._nodes.size()) - 1;
    }
    return ir;
}

std::size_t
ExecutionPlan::edgeCount() const
{
    std::size_t edges = 0;
    for (const auto &n : _nodes)
        edges += n.consumers.size();
    return edges;
}

bool
ExecutionPlan::topologicallyOrdered() const
{
    for (const auto &n : _nodes) {
        if (n.id != static_cast<int>(&n - _nodes.data()))
            return false;
        for (const int p : n.producers) {
            if (p < 0 || p >= n.id)
                return false;
            const auto &cons =
                _nodes[static_cast<std::size_t>(p)].consumers;
            if (std::find(cons.begin(), cons.end(), n.id) ==
                cons.end())
                return false;
        }
        for (const int c : n.consumers) {
            if (c <= n.id ||
                c >= static_cast<int>(_nodes.size()))
                return false;
            const auto &prods =
                _nodes[static_cast<std::size_t>(c)].producers;
            if (std::find(prods.begin(), prods.end(), n.id) ==
                prods.end())
                return false;
        }
    }
    return true;
}

std::vector<Cycle>
ExecutionPlan::windowReadyTimes(const StepNode &node,
                                std::span<const Cycle> prevDone) const
{
    const auto &l = _net->layer(node.layer);
    const int outNy = l.outNy();
    const auto windows =
        static_cast<std::int64_t>(l.outNx()) * outNy;
    std::vector<Cycle> readyAt(static_cast<std::size_t>(windows), 0);
    if (node.layer == 0 || prevDone.empty())
        return readyAt;

    const auto &pl = _net->layer(node.layer - 1);
    const int pnx = pl.outNx();
    const int pny = pl.outNy();
    if (prevDone.size() !=
        static_cast<std::size_t>(pnx) * static_cast<std::size_t>(pny))
        fatal("windowReadyTimes: previous completion array does not "
              "match the producer layer's window count");

    // Classifier and SPP windows consume the whole previous layer;
    // conv/pool windows consume their kernel rectangle.
    const bool fullInput = l.kind == nn::LayerKind::Classifier ||
        l.kind == nn::LayerKind::Spp;

    for (std::int64_t wi = 0; wi < windows; ++wi) {
        const int ox = static_cast<int>(wi / outNy);
        const int oy = static_cast<int>(wi % outNy);
        int y0 = 0, y1 = pnx - 1;
        int x0 = 0, x1 = pny - 1;
        if (!fullInput) {
            y0 = std::max(0, ox * l.sx - l.px);
            y1 = std::min(pnx - 1, ox * l.sx - l.px + l.kx - 1);
            x0 = std::max(0, oy * l.sy - l.py);
            x1 = std::min(pny - 1, oy * l.sy - l.py + l.ky - 1);
        }
        Cycle ready = 0;
        for (int y = y0; y <= y1; ++y) {
            for (int x = x0; x <= x1; ++x) {
                ready = std::max(
                    ready,
                    prevDone[static_cast<std::size_t>(y * pny + x)]);
            }
        }
        readyAt[static_cast<std::size_t>(wi)] = ready;
    }
    return readyAt;
}

} // namespace isaac::pipeline
