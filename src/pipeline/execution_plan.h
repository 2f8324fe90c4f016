/**
 * @file
 * The execution-plan IR: the one compiled representation of *how* a
 * network runs, consumed by every backend.
 *
 * Compilation lowers a network (optionally annotated with its
 * pipeline plan) into an immutable task graph of layer-step nodes
 * with explicit producer/consumer edges:
 *
 *   dot layer i :  StageIn(i) -> Dot(i) -> StageOut(i) -> Transfer(i)
 *   pool layer i:  Pool(i)
 *
 * StageIn/StageOut are the eDRAM-buffer and output-register hand-offs
 * of the Fig. 4b schedule (the SECDED-protected passes of the
 * functional model); Transfer is the c-mesh shipment to the layer's
 * consumers. Each node carries resource tags (engine group count,
 * granted replication, tiles, staged buffer bytes) filled in from the
 * PipelinePlan when one is supplied.
 *
 * Node IDs are assigned in deterministic lowering order, so they are
 * stable across recompiles of the same network and usable as keys by
 * schedulers and injection streams. The node list is topologically
 * sorted by construction (every producer id < consumer id).
 *
 * Consumers of the IR:
 *  - core::CompiledModel walks it to run the analog pipeline model
 *    (infer/inferAll/inferBatch and serve::InferenceSession steps);
 *  - nn::ReferenceExecutor walks the structural lowering for the
 *    bit-exact comparison path;
 *  - the cycle-level simulators (sim::simulatePipeline/simulateChip)
 *    use the compute-node order and windowReadyTimes() for their
 *    ready-time precompute.
 */

#ifndef ISAAC_PIPELINE_EXECUTION_PLAN_H
#define ISAAC_PIPELINE_EXECUTION_PLAN_H

#include <span>
#include <vector>

#include "common/types.h"
#include "nn/network.h"

namespace isaac::pipeline {

struct PipelinePlan;

/** What one IR node does. */
enum class StepKind
{
    StageIn,  ///< Inputs stage through the tile eDRAM buffer.
    Dot,      ///< Bit-serial crossbar dot product + activation.
    StageOut, ///< Results land in the output registers.
    Transfer, ///< Output ships to consumers over the c-mesh.
    Pool,     ///< Max/avg/SPP comparator pass.
};

/** Human-readable name of a step kind. */
const char *toString(StepKind kind);

/** One layer-step node of the task graph. */
struct StepNode
{
    /** Stable id: position in deterministic lowering order. */
    int id = -1;

    StepKind kind = StepKind::Dot;

    /** Network layer this step belongs to. */
    std::size_t layer = 0;

    /**
     * Logical transfer slot keying the per-image injection streams
     * (0 = eDRAM staging in, 1 = output registers, 2 = NoC); -1 for
     * compute steps. Matches the historical stream keying, so a
     * walked inference reproduces the legacy traversal bit-exactly.
     */
    int transferKind = -1;

    /** True for Dot/Pool: the step that computes the layer output. */
    bool compute = false;

    /**
     * True on the last node of a layer: once it completes, `cur`
     * holds the layer's output (what inferAll records).
     */
    bool layerOutput = false;

    // --- resource tags (annotated lowering only) ---

    /** Dot: engine groups (1 shared, windowsPerImage private). */
    std::int64_t engineGroups = 0;

    /** Granted weight-copy replication from the pipeline plan. */
    std::int64_t replication = 1;

    /** Tiles hosting the layer (plan grant). */
    std::int64_t tiles = 0;

    /** Staged eDRAM buffer bytes (StageIn nodes). */
    std::int64_t bufferBytes = 0;

    /**
     * Weight copies re-placed onto surviving tiles by graceful
     * degradation (recordMigration; the functional analogue of the
     * chip simulator's dead-tile server migration). 0 until a tile
     * of this layer dies unrepaired.
     */
    std::int64_t migratedCopies = 0;

    /** True once the layer lost a tile to an unrepairable fault. */
    bool degraded = false;

    /** Edges: node ids that must complete before this one. */
    std::vector<int> producers;

    /** Edges: node ids unblocked by this one. */
    std::vector<int> consumers;
};

/** The immutable lowered task graph for one network. */
class ExecutionPlan
{
  public:
    /**
     * Structural lowering from the network alone (reference executor
     * and tests): nodes/edges/ids only, resource tags defaulted.
     */
    static ExecutionPlan lower(const nn::Network &net);

    /**
     * Annotated lowering: same graph, with per-node resource tags
     * filled from the pipeline plan's grants.
     */
    static ExecutionPlan lower(const nn::Network &net,
                               const PipelinePlan &plan);

    /** The network this plan was lowered from (not owned). */
    const nn::Network &network() const { return *_net; }

    /** All nodes, topologically sorted, ids == indices. */
    const std::vector<StepNode> &nodes() const { return _nodes; }

    const StepNode &node(int id) const
    {
        return _nodes.at(static_cast<std::size_t>(id));
    }

    std::size_t size() const { return _nodes.size(); }

    /** Ids of the compute nodes (one per layer, network order). */
    const std::vector<int> &computeOrder() const
    {
        return _computeOrder;
    }

    /** Whether resource tags were filled from a pipeline plan. */
    bool annotated() const { return _annotated; }

    /** Total directed edges (each counted once). */
    std::size_t edgeCount() const;

    /**
     * Verify the topological invariant: every producer id is smaller
     * than its consumer's, and the edge lists are mutually
     * consistent. Always true for lower()-built plans; exposed so
     * tests can assert it.
     */
    bool topologicallyOrdered() const;

    /**
     * Record a graceful-degradation re-placement on `layer`'s Dot
     * node, reusing the chip simulator's migration policy (see
     * sim::FailureSpec tile kills): the dead tile's share of the
     * replicated weight copies — ceil(replication / tiles) — moves
     * round-robin onto the layer's survivors, the tile grant shrinks
     * by one, and the node is marked degraded. Returns the migrated
     * copy count. This is the one sanctioned mutation of a lowered
     * plan ("immutable" above means the *graph* — nodes, edges, ids —
     * never changes; degradation only re-tags resources), performed
     * by serve::HealthWatchdog under its exclusive repair lock.
     * fatal() when the layer has no Dot node.
     */
    std::int64_t recordMigration(std::size_t layer);

    /**
     * Ready-time precompute shared by the cycle-level simulators:
     * for each output window of `node`'s layer, the max completion
     * cycle over the previous layer's windows it consumes (the
     * kernel-window rectangle; the whole previous layer for
     * classifier/SPP layers). `prevDone` is the previous layer's
     * per-window completion array (empty for the first layer: all
     * zeros).
     */
    std::vector<Cycle>
    windowReadyTimes(const StepNode &node,
                     std::span<const Cycle> prevDone) const;

  private:
    ExecutionPlan() = default;

    static ExecutionPlan build(const nn::Network &net,
                               const PipelinePlan *plan);

    const nn::Network *_net = nullptr;
    bool _annotated = false;
    std::vector<StepNode> _nodes;
    std::vector<int> _computeOrder;
};

} // namespace isaac::pipeline

#endif // ISAAC_PIPELINE_EXECUTION_PLAN_H
