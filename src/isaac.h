/**
 * @file
 * Umbrella header: pulls in the whole public API.
 *
 *     #include "isaac.h"
 *
 * exposes the model zoo and network builder (isaac::nn), the
 * accelerator front end (isaac::core), the analytic models
 * (isaac::pipeline, isaac::baseline, isaac::energy, isaac::noc,
 * isaac::dse), the cycle-level simulators (isaac::sim), the analog
 * engine (isaac::xbar), the streaming inference runtime
 * (isaac::serve), the Monte Carlo fault-injection campaign lab
 * (isaac::campaign), and the training extension (isaac::train).
 */

#ifndef ISAAC_ISAAC_H
#define ISAAC_ISAAC_H

#include "common/bits.h"
#include "common/epoch_log.h"
#include "common/fixed_point.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/types.h"

#include "arch/chip.h"
#include "arch/config.h"
#include "arch/ecc.h"
#include "arch/edram.h"
#include "arch/sigmoid.h"
#include "baseline/dadiannao_perf.h"
#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "core/accelerator.h"
#include "core/floorplan.h"
#include "core/json.h"
#include "core/json_writer.h"
#include "core/report.h"
#include "dse/dse.h"
#include "energy/catalog.h"
#include "energy/dadiannao_catalog.h"
#include "nn/parser.h"
#include "nn/reference.h"
#include "nn/weights_io.h"
#include "nn/zoo.h"
#include "noc/packet.h"
#include "noc/traffic.h"
#include "resilience/health.h"
#include "pipeline/buffer.h"
#include "pipeline/execution_plan.h"
#include "pipeline/perf.h"
#include "pipeline/placement.h"
#include "serve/session.h"
#include "sim/chip_sim.h"
#include "sim/pipeline_sim.h"
#include "sim/tile_sim.h"
#include "sim/timeline.h"
#include "train/trainer.h"
#include "xbar/engine.h"
#include "xbar/write_model.h"

#endif // ISAAC_ISAAC_H
