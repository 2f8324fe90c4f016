#include "sim/pipeline_sim.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "pipeline/execution_plan.h"

namespace isaac::sim {

namespace {

/** Replicated IMA groups of one layer: a min-heap of free times. */
class ServerPool
{
  public:
    explicit ServerPool(std::int64_t servers)
    {
        if (servers < 1)
            fatal("ServerPool: need at least one server");
        // Cap the modelled parallelism: beyond a few thousand
        // servers the pool is never the bottleneck for the small
        // networks this simulator targets.
        const auto n = static_cast<std::size_t>(
            std::min<std::int64_t>(servers, 1 << 14));
        for (std::size_t i = 0; i < n; ++i)
            heap.push(0);
    }

    /** Start a `busy`-cycle op at or after `ready`; returns start. */
    Cycle
    dispatch(Cycle ready, Cycle busy)
    {
        Cycle free = heap.top();
        heap.pop();
        const Cycle start = std::max(free, ready);
        heap.push(start + busy);
        return start;
    }

  private:
    std::priority_queue<Cycle, std::vector<Cycle>,
                        std::greater<Cycle>>
        heap;
};

} // namespace

PipelineSimResult
simulatePipeline(const nn::Network &net,
                 const pipeline::PipelinePlan &plan, int images,
                 int tailCycles)
{
    if (!plan.fits)
        fatal("simulatePipeline: the plan does not fit its chips");
    if (images < 1)
        fatal("simulatePipeline: need at least one image");

    const int phases = 16; // data path width / 1-bit DAC

    // Per-layer server pools built from the granted replication.
    std::vector<ServerPool> pools;
    pools.reserve(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &lp = plan.layers[i];
        const double rate = lp.isDot ? lp.effectiveRate : 1.0;
        pools.emplace_back(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(rate)));
    }

    PipelineSimResult result;
    result.analyticInterval = plan.cyclesPerImage;

    // The lowered task graph orders the compute steps and owns the
    // window-dependency geometry (windowReadyTimes).
    const auto ir = pipeline::ExecutionPlan::lower(net, plan);

    // completion[i][w]: cycle when window w of layer i finished for
    // the current image (layer outputs, indexed ox * outNy + oy).
    std::vector<std::vector<Cycle>> completion(net.size());

    for (int img = 0; img < images; ++img) {
        for (const int nodeId : ir.computeOrder()) {
            const auto &node = ir.node(nodeId);
            const std::size_t i = node.layer;
            const auto &l = net.layer(i);
            const int outNx = l.outNx();
            const int outNy = l.outNy();
            const auto windows =
                static_cast<std::size_t>(outNx) * outNy;
            std::vector<Cycle> done(windows, 0);

            // Each window's latest-arriving input (a reduction over
            // the previous layer), then dispatch in window order.
            const std::vector<Cycle> readyAt = ir.windowReadyTimes(
                node,
                i > 0 ? std::span<const Cycle>(completion[i - 1])
                      : std::span<const Cycle>());

            for (int ox = 0; ox < outNx; ++ox) {
                for (int oy = 0; oy < outNy; ++oy) {
                    const Cycle ready = readyAt[
                        static_cast<std::size_t>(ox) * outNy + oy];
                    Cycle finish;
                    if (l.isDotProduct()) {
                        const Cycle start = pools[i].dispatch(
                            ready, phases);
                        finish = start + phases + tailCycles;
                    } else {
                        // Pool/SPP: a comparator pass, single cycle.
                        finish = ready + 1;
                    }
                    done[static_cast<std::size_t>(ox * outNy + oy)] =
                        finish;
                }
            }
            completion[i] = std::move(done);
        }

        Cycle imageDone = 0;
        for (Cycle c : completion.back())
            imageDone = std::max(imageDone, c);
        result.imageDone.push_back(imageDone);
    }

    result.firstImageDone = result.imageDone.front();
    result.lastImageDone = result.imageDone.back();
    if (images > 1) {
        result.measuredInterval =
            static_cast<double>(result.lastImageDone -
                                result.firstImageDone) /
            (images - 1);
    }
    return result;
}

} // namespace isaac::sim
