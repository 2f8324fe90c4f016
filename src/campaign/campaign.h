/**
 * @file
 * Monte Carlo fault-injection campaign lab (the ROADMAP's
 * accuracy-under-analog-noise item): scenario grids, stable scenario
 * identifiers, and the campaign report.
 *
 * A *scenario* is one fully specified analog configuration — write
 * noise, read noise, drift age, stuck-cell rate and polarity, spare
 * columns, ADC resolution — plus a trial number, evaluated on a
 * shared input batch against the bit-exact fixed-point reference.
 * The literature this chases (RxNN; Xiao et al., "On the Accuracy of
 * Analog Neural Network Inference Accelerators") scores analog
 * accelerators by *classification agreement*, not bit-exactness, so
 * that is what the campaign measures: top-1 agreement, per-layer
 * divergence, and the resilience/energy roll-ups joined into one
 * accuracy/energy/throughput Pareto record.
 *
 * Determinism contract: a campaign is a pure function of (grid,
 * master seed, batch). Scenario IDs are self-describing strings that
 * parse back into the exact Scenario (doubles round-trip via
 * shortest-form formatting), so any single grid point is replayable
 * in isolation, bit-for-bit, without re-enumerating the grid. The
 * scenario seed depends only on (master seed, trial) — deliberately
 * NOT on the knob values — so paired configurations (say spares 0
 * vs 4 at the same trial) face the *same* fault draw and the delta
 * isolates what the knob bought.
 */

#ifndef ISAAC_CAMPAIGN_CAMPAIGN_H
#define ISAAC_CAMPAIGN_CAMPAIGN_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.h"
#include "resilience/summary.h"
#include "xbar/adc_policy.h"
#include "xbar/noise.h"

namespace isaac::campaign {

/** One point on the conductance-drift axis. */
struct DriftPoint
{
    double levelsPerOp = 0.0; ///< NoiseSpec::driftLevelsPerOp.
    std::uint64_t age = 0;    ///< Op-clock age applied before runs.

    bool operator==(const DriftPoint &) const = default;
};

/** One fully specified (configuration, trial) grid point. */
struct Scenario
{
    std::string network = "tinycnn"; ///< Registry name (runner.h).
    double writeSigma = 0.0;  ///< Programming noise, levels.
    double readSigma = 0.0;   ///< Read noise, LSBs.
    double driftPerOp = 0.0;  ///< Drift rate, levels/op.
    std::uint64_t driftAge = 0; ///< Pre-aging, ops.
    double stuckRate = 0.0;   ///< Stuck-cell fraction.
    xbar::StuckMode stuckMode = xbar::StuckMode::On;
    int spareCols = 0;        ///< Remap budget per array.
    /**
     * ADC resolution knob. Fixed policy: explicit converter bits
     * (0 = the geometry-derived requirement). Adaptive policy: the
     * per-conversion cap (0 = cap at the requirement — provably
     * lossless, only the SAR cycle count changes).
     */
    int adcBits = 0;
    /** Which AdcPolicy the scenario lowers `adcBits` through. */
    xbar::AdcPolicyKind policy = xbar::AdcPolicyKind::Fixed;
    int trial = 0;            ///< Monte Carlo repetition index.
    std::uint64_t masterSeed = 0;

    /**
     * Stable self-describing identifier, e.g.
     * "net=tinycnn;w=0.3;r=0;d=0;a=0;k=0.005;m=on;sp=2;adc=0;
     * pol=fixed;t=1;s=15aac". parse(id()) reconstructs this Scenario
     * exactly (numbers use shortest-round-trip formatting; the seed
     * is hex). `pol` is always emitted but optional on parse — IDs
     * minted before the policy axis existed still replay (as fixed).
     */
    std::string id() const;

    /** Inverse of id(); fatal() on a malformed identifier. */
    static Scenario parse(const std::string &id);

    /**
     * Non-throwing inverse of id(): std::nullopt — with a
     * descriptive message in *error when non-null — for malformed,
     * truncated, duplicated, unknown, out-of-range, or non-finite
     * identifiers (replay tooling surfaces the message instead of
     * dying; parse() is tryParse() + fatal()). Numeric fields are
     * range-checked: rates/sigmas must be finite and non-negative,
     * sp/adc/t must fit their int fields (adc <= 24, matching the
     * SAR converter range AdcPolicy::validate enforces).
     */
    static std::optional<Scenario>
    tryParse(const std::string &id, std::string *error = nullptr);

    /**
     * The scenario's noise seed: a hash of (masterSeed, trial) only.
     * Every knob combination at the same trial shares one draw.
     */
    std::uint64_t noiseSeed() const;

    /**
     * Lower the scenario onto an ISAAC-CE design point. Campaign
     * scenarios never refresh (refreshIntervalOps = 0), so the drift
     * age applied via CompiledModel::ageArrays persists.
     */
    arch::IsaacConfig config() const;

    /**
     * True for the zero-noise / zero-fault / full-ADC point, whose
     * analog pipeline must agree with the fixed-point reference
     * bit-for-bit (the campaign's self-check). A lossless adaptive
     * policy (adcBits == 0) is clean too: truncation below the
     * unit-certified bound never alters a clean reading, so the
     * exactness gate covers it.
     */
    bool clean() const;

    bool operator==(const Scenario &) const = default;
};

/**
 * A cartesian scenario grid: every combination of the axis values
 * below, times `trials` repetitions. Degenerate combinations are
 * deduplicated (stuckRate 0 ignores the mode axis). A campaign may
 * run several grids (Grid::defaultSuite) so expensive axes — drift
 * forces the scalar read path — get their own, smaller, cross
 * product instead of multiplying the whole lab.
 */
struct Grid
{
    std::string network = "tinycnn";
    std::vector<double> writeSigma{0.0};
    std::vector<double> readSigma{0.0};
    std::vector<DriftPoint> drift{{0.0, 0}};
    std::vector<double> stuckRate{0.0};
    std::vector<xbar::StuckMode> stuckModes{xbar::StuckMode::On};
    std::vector<int> spareCols{0};
    std::vector<int> adcBits{0};
    std::vector<xbar::AdcPolicyKind> policies{
        xbar::AdcPolicyKind::Fixed};
    int trials = 1;

    /**
     * All scenarios of this grid, in deterministic axis-major order
     * (trial innermost), deduplicated by scenario ID.
     */
    std::vector<Scenario> enumerate(std::uint64_t masterSeed) const;

    /**
     * A sampled (non-cartesian) subset: at most `n` of enumerate()'s
     * scenarios, drawn without replacement by a seeded partial
     * Fisher-Yates and returned in enumeration order. A pure
     * function of (grid, n, masterSeed) — no clocks, no thread
     * count — so sampled campaigns keep the byte-identical report
     * contract. n >= the grid size returns the full enumeration.
     */
    std::vector<Scenario> sample(std::size_t n,
                                 std::uint64_t masterSeed) const;

    /**
     * The CI smoke grid: 3 write-noise levels x 3 stuck rates on
     * TinyCNN, fast-path friendly (no read noise or drift), with the
     * clean point included. 9 scenarios.
     */
    static Grid smoke();

    /**
     * The default campaign lab (>= 500 scenarios): a main grid over
     * write/read noise x stuck rate/mode x spares x ADC bits, a
     * focused drift grid kept small because drifting reads take the
     * scalar path, and an adaptive-ADC grid measuring the policy
     * surface's accuracy deltas under noise.
     */
    static std::vector<Grid> defaultSuite();
};

/**
 * Deterministically thin `scenarios` to at most `n` entries (the
 * per-network runtime budget): a seeded partial Fisher-Yates picks
 * the survivors, which keep their relative order. Pure function of
 * (scenarios, n, seed).
 */
std::vector<Scenario> sampleScenarios(std::vector<Scenario> scenarios,
                                      std::size_t n,
                                      std::uint64_t seed);

/** Divergence of one layer's outputs vs the reference, over a batch. */
struct LayerDivergence
{
    std::string layer;    ///< Layer name from the network.
    double maxAbs = 0.0;  ///< Max |analog - reference|.
    double maxRel = 0.0;  ///< Max |analog - ref| / max(1, |ref|).
    double meanRel = 0.0; ///< Mean relative error over all words.
};

/** Everything measured for one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    int batch = 0;        ///< Inputs submitted.
    int completed = 0;    ///< Inputs that finished (deadlines).
    int top1Matches = 0;  ///< Final argmax == reference argmax.
    double agreement = 0.0; ///< top1Matches / completed.
    double maxRel = 0.0;    ///< Worst relative error, any layer.
    double finalMeanRel = 0.0; ///< Mean relative error, final layer.
    bool timedOut = false;  ///< Any request hit its deadline.
    std::vector<LayerDivergence> layers;
    resilience::ResilienceSummary resilience;
    double imagesPerSec = 0.0;    ///< Analytic throughput.
    double energyPerImageJ = 0.0; ///< Analytic energy (ADC-aware).
    double powerW = 0.0;
    bool pareto = false; ///< On the accuracy/energy/speed frontier.

    std::string toJson() const;
};

/** One campaign's full, deterministic output. */
struct Report
{
    std::string network;
    std::uint64_t masterSeed = 0;
    int batch = 0;
    int gridPoints = 0; ///< Distinct scenarios enumerated.
    std::vector<ScenarioResult> scenarios;

    /**
     * Mark the Pareto-efficient scenarios (maximize agreement and
     * imagesPerSec, minimize energyPerImageJ; timed-out scenarios
     * are excluded) and record the frontier's scenario indices.
     * Runner calls this once after the sweep.
     */
    void finalize();

    /** Indices into `scenarios` (set by finalize()). */
    std::vector<std::size_t> paretoFrontier;

    /**
     * The full campaign JSON: every scenario record, the Pareto
     * frontier, agreement-vs-stuck-rate curves grouped by (spares,
     * rate, mode) over otherwise-clean scenarios, and the zero-noise
     * self-check. Pure function of the results — no timestamps — so
     * equal campaigns serialize byte-identically.
     */
    std::string toJson() const;

    /** Compact summary object for embedding (core::runReportJson). */
    std::string summaryJson() const;

    /** FNV-1a 64 hash of toJson(): the determinism fingerprint. */
    std::uint64_t contentHash() const;

    /** Scenarios where Scenario::clean() holds. */
    int cleanScenarioCount() const;

    /** Minimum agreement over the clean scenarios (1.0 if none). */
    double cleanAgreementMin() const;

    /** Worst relative error over the clean scenarios. */
    double cleanMaxRel() const;
};

/** Round-trip double formatting (shortest form, via to_chars). */
std::string formatDouble(double v);

/** StuckMode <-> scenario-ID token ("rand" / "on" / "off"). */
std::string toToken(xbar::StuckMode mode);
xbar::StuckMode stuckModeFromToken(const std::string &token);

} // namespace isaac::campaign

#endif // ISAAC_CAMPAIGN_CAMPAIGN_H
