#include "sim/chip_sim.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "arch/edram.h"
#include "common/logging.h"
#include "noc/packet.h"
#include "pipeline/execution_plan.h"
#include "pipeline/mapper.h"

namespace isaac::sim {

namespace {

/** Shared per-tile resources. */
struct TileRes
{
    TileRes(int edramBanks)
        : edram(edramBanks), bus(3)
    {
    }

    SlotResource edram;
    SlotResource bus;
};

/** One schedulable IMA slice owned by a layer. */
struct Server
{
    arch::TileCoord tile;
    Cycle freeAt = 0;
    Cycle busyCycles = 0;
};

/** Min-heap ordering of servers by availability. */
struct ServerOrder
{
    bool
    operator()(const Server *a, const Server *b) const
    {
        return a->freeAt > b->freeAt;
    }
};

} // namespace

ChipSimResult
simulateChip(const nn::Network &net,
             const pipeline::PipelinePlan &plan,
             const pipeline::Placement &placement,
             const arch::IsaacConfig &cfg, int images,
             int tailCycles)
{
    return simulateChip(net, plan, placement, cfg, images,
                        FailureSpec{}, tailCycles);
}

ChipSimResult
simulateChip(const nn::Network &net,
             const pipeline::PipelinePlan &plan,
             const pipeline::Placement &placement,
             const arch::IsaacConfig &cfg, int images,
             const FailureSpec &failures, int tailCycles)
{
    if (!plan.fits)
        fatal("simulateChip: the plan does not fit its chips");
    if (images < 1)
        fatal("simulateChip: need at least one image");

    const int phases = cfg.engine.phases();
    const std::set<arch::TileCoord> dead(failures.deadTiles.begin(),
                                         failures.deadTiles.end());

    // Survivors across the whole placement, in layer order: the
    // last-resort migration targets for layers that lost every tile.
    std::vector<arch::TileCoord> anySurvivor;
    if (!dead.empty()) {
        std::set<arch::TileCoord> seen;
        for (std::size_t i = 0; i < net.size(); ++i) {
            const auto place = placement.layerPlacement(i);
            if (!place)
                continue;
            for (const auto &coord : place->tiles)
                if (!dead.count(coord) && seen.insert(coord).second)
                    anySurvivor.push_back(coord);
        }
    }

    ChipSimResult result;
    result.analyticInterval = plan.cyclesPerImage;
    result.deadTiles = static_cast<int>(dead.size());

    // One server per weight copy (an IMA can run several copies
    // concurrently when a copy spans fewer arrays than the ADCs can
    // drain); each copy is pinned to one of the layer's placed
    // tiles round-robin so it contends for that tile's eDRAM/bus.
    // Copies landing on a dead tile migrate round-robin onto the
    // layer's surviving tiles, which now serve more work each.
    std::map<arch::TileCoord, TileRes> tiles;
    std::vector<std::vector<Server>> servers(net.size());
    std::vector<std::vector<arch::TileCoord>> aliveTiles(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &lp = plan.layers[i];
        if (!lp.isDot)
            continue;
        const auto place = placement.layerPlacement(i);
        if (!place || place->tiles.empty())
            fatal("simulateChip: layer missing from the placement");
        std::vector<arch::TileCoord> alive;
        for (const auto &coord : place->tiles)
            if (!dead.count(coord))
                alive.push_back(coord);
        if (alive.empty())
            alive = anySurvivor;
        if (alive.empty())
            fatal("simulateChip: no placed tile survives the "
                  "failure spec");
        aliveTiles[i] = alive;
        const auto fp = pipeline::layerFootprint(net.layer(i), i,
                                                 cfg);
        std::int64_t copies = net.layer(i).privateKernel
            ? fp.inherentParallelism * lp.replication
            : lp.replication;
        copies = std::min<std::int64_t>(copies, 1 << 14);
        std::int64_t migrated = 0;
        for (std::int64_t c = 0; c < copies; ++c) {
            auto coord = place->tiles[static_cast<std::size_t>(
                c % static_cast<std::int64_t>(
                        place->tiles.size()))];
            if (dead.count(coord)) {
                coord = alive[static_cast<std::size_t>(
                    migrated++ %
                    static_cast<std::int64_t>(alive.size()))];
                ++result.remappedServers;
            }
            servers[i].push_back(Server{coord, 0, 0});
            tiles.emplace(coord, TileRes(cfg.edramBanks));
        }
    }

    // Per-layer min-heaps over the servers.
    std::vector<std::priority_queue<Server *,
                                    std::vector<Server *>,
                                    ServerOrder>>
        pools(net.size());
    for (std::size_t i = 0; i < net.size(); ++i)
        for (auto &s : servers[i])
            pools[i].push(&s);

    std::vector<std::vector<Cycle>> completion(net.size());
    Cycle horizon = 0;

    // The lowered task graph orders the compute steps and owns the
    // window-dependency geometry (windowReadyTimes).
    const auto ir = pipeline::ExecutionPlan::lower(net, plan);

    // Transient-error machinery: one CRC-protocol state per tile's
    // c-mesh link, and a scratch buffer for the per-window eDRAM ECC
    // pass (the timing model has no payload data; flip draws do not
    // depend on word values). The dispatch loop is serial, so the
    // per-link budgets evolve deterministically.
    const auto &tspec = failures.transient;
    std::map<arch::TileCoord, noc::LinkState> links;
    std::vector<Word> eccScratch;

    for (int img = 0; img < images; ++img) {
        for (const int nodeId : ir.computeOrder()) {
            const auto &node = ir.node(nodeId);
            const std::size_t i = node.layer;
            const auto &l = net.layer(i);
            const int outNx = l.outNx();
            const int outNy = l.outNy();
            std::vector<Cycle> done(
                static_cast<std::size_t>(outNx) * outNy, 0);

            // The ready time of each window is a max-reduction over
            // the previous layer's completion rectangle; dispatch
            // below runs in window order.
            const std::vector<Cycle> readyAt = ir.windowReadyTimes(
                node,
                i > 0 ? std::span<const Cycle>(completion[i - 1])
                      : std::span<const Cycle>());

            for (int ox = 0; ox < outNx; ++ox) {
                for (int oy = 0; oy < outNy; ++oy) {
                    const Cycle ready = readyAt[
                        static_cast<std::size_t>(ox) * outNy + oy];

                    Cycle finish;
                    if (l.isDotProduct() && !pools[i].empty()) {
                        Server *srv = pools[i].top();
                        pools[i].pop();
                        auto &res = tiles.at(srv->tile);

                        // eDRAM read + IR copy over the bus, then
                        // the 16 crossbar cycles, then the digital
                        // tail with its eDRAM write.
                        const Cycle want =
                            std::max(ready, srv->freeAt);
                        const Cycle read = res.edram.reserve(
                            res.bus.reserve(want));
                        const Cycle xbarStart =
                            std::max(read + 1, srv->freeAt);
                        srv->freeAt = xbarStart + phases;
                        srv->busyCycles += phases;
                        const Cycle tailStart =
                            res.bus.reserve(xbarStart + phases + 2);
                        finish = res.edram.reserve(tailStart + 1) +
                            static_cast<Cycle>(
                                std::max(0, tailCycles - 4));
                        pools[i].push(srv);

                        const auto fp = pipeline::layerFootprint(
                            l, i, cfg);
                        const std::uint64_t arrays =
                            static_cast<std::uint64_t>(
                                fp.rowSegments * fp.colSegments);
                        result.trace.xbarReads +=
                            arrays * phases;
                        result.trace.adcSamples += arrays * phases *
                            (cfg.engine.cols + 1);
                        result.trace.edramReadBytes +=
                            static_cast<std::uint64_t>(
                                l.dotLength()) *
                            kDataBytes;
                        result.trace.edramWriteBytes +=
                            static_cast<std::uint64_t>(l.no) *
                            kDataBytes;
                        result.trace.busBytes +=
                            static_cast<std::uint64_t>(
                                l.dotLength() + l.no) *
                            kDataBytes;
                        if (l.activation != nn::Activation::None)
                            result.trace.sigmoidOps +=
                                static_cast<std::uint64_t>(l.no);

                        if (tspec.anyEnabled()) {
                            // Soft errors on this window: ECC events
                            // while its output sits in the eDRAM,
                            // then the CRC packet protocol on the
                            // c-mesh hop to the consumer. Recovery
                            // cycles push the completion time out.
                            resilience::TransientStats win;
                            const std::uint64_t key =
                                (static_cast<std::uint64_t>(img)
                                 << 40) ^
                                (static_cast<std::uint64_t>(i)
                                 << 24) ^
                                (static_cast<std::uint64_t>(
                                     ox * outNy + oy)
                                 << 2);
                            if (tspec.eccEnabled()) {
                                eccScratch.assign(
                                    static_cast<std::size_t>(l.no),
                                    0);
                                arch::protectedPass(
                                    eccScratch,
                                    tspec.edramFlipRate, key,
                                    tspec, win);
                            }
                            if (tspec.nocEnabled()) {
                                auto &link = links[srv->tile];
                                const auto tr = noc::sendTransfer(
                                    l.no, key | 1u, tspec, link,
                                    win);
                                if (tr.linkDied) {
                                    // The link's corruption budget
                                    // ran out: migrate this server
                                    // onto a surviving tile with a
                                    // healthy link (the dead-tile
                                    // degradation path).
                                    for (const auto &coord :
                                         aliveTiles[i]) {
                                        if (coord == srv->tile ||
                                            links[coord].dead)
                                            continue;
                                        srv->tile = coord;
                                        tiles.emplace(
                                            coord,
                                            TileRes(
                                                cfg.edramBanks));
                                        ++result.remappedServers;
                                        break;
                                    }
                                }
                            }
                            finish += static_cast<Cycle>(
                                win.recoveryCycles());
                            result.transient.merge(win);
                        }
                    } else {
                        // Pooling/SPP: comparator pass.
                        finish = ready + 1;
                        result.trace.maxPoolValues +=
                            static_cast<std::uint64_t>(l.kx) * l.ky;
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
        horizon = std::max(horizon, imageDone);
    }

    result.firstImageDone = result.imageDone.front();
    result.lastImageDone = result.imageDone.back();
    if (images > 1) {
        result.measuredInterval =
            static_cast<double>(result.lastImageDone -
                                result.firstImageDone) /
            (images - 1);
    }
    if (horizon > 0) {
        for (const auto &layerServers : servers) {
            for (const auto &s : layerServers) {
                result.maxImaUtilization = std::max(
                    result.maxImaUtilization,
                    static_cast<double>(s.busyCycles) / horizon);
            }
        }
    }
    return result;
}

} // namespace isaac::sim
