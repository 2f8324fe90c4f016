/**
 * @file
 * Window-level simulation of the inter-layer pipeline (Sec. IV).
 *
 * Replays the Fig. 3 data flow at the granularity of kernel-window
 * operations: a layer's window fires as soon as (a) every input
 * value it covers has been produced by the previous layer and (b)
 * one of the layer's replicated IMA groups is free. The simulator
 * measures pipeline fill latency and the steady-state image interval
 * and cross-checks the analytic model of pipeline/perf.h.
 */

#ifndef ISAAC_SIM_PIPELINE_SIM_H
#define ISAAC_SIM_PIPELINE_SIM_H

#include "nn/network.h"
#include "pipeline/replication.h"
#include "sim/trace.h"

namespace isaac::sim {

/** Results of a pipeline simulation run. */
struct PipelineSimResult
{
    /** Cycle when the first image's final output completed. */
    Cycle firstImageDone = 0;
    /** Cycle when the last image's final output completed. */
    Cycle lastImageDone = 0;
    /** Steady-state cycles per image (measured between images). */
    double measuredInterval = 0.0;
    /** The analytic model's prediction for the same plan. */
    double analyticInterval = 0.0;
    /** Per-image completion cycles. */
    std::vector<Cycle> imageDone;
};

/**
 * Simulate `images` consecutive inferences through the pipeline
 * plan. Intended for small networks (the per-window bookkeeping is
 * O(total windows x images)).
 *
 * @param tailCycles  digital pipeline tail per op (ADC drain, S+A,
 *                    OR transfer, sigmoid, eDRAM write: 6 cycles in
 *                    the Fig. 4b schedule).
 */
PipelineSimResult
simulatePipeline(const nn::Network &net,
                 const pipeline::PipelinePlan &plan, int images,
                 int tailCycles = 6);

} // namespace isaac::sim

#endif // ISAAC_SIM_PIPELINE_SIM_H
