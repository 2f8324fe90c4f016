/**
 * @file
 * The ISAAC organization parameters (Fig. 2 hierarchy + Table I).
 *
 * An IsaacConfig describes one design point: the crossbar geometry
 * (via xbar::EngineConfig), the number of crossbars and ADCs per IMA,
 * IMAs per tile, and tiles per chip, plus buffer sizes and link
 * bandwidths. The defaults are the ISAAC-CE design point of Table I:
 * H128-A8-C8 with 12 IMAs per tile and 14x12 = 168 tiles per chip.
 */

#ifndef ISAAC_ARCH_CONFIG_H
#define ISAAC_ARCH_CONFIG_H

#include <cstdint>
#include <string>

#include "common/types.h"
#include "resilience/health.h"
#include "xbar/engine.h"

namespace isaac::arch {

/** One ISAAC design point. */
struct IsaacConfig
{
    /** Crossbar geometry and encoding (defaults: 128x128, w=2, v=1). */
    xbar::EngineConfig engine;

    int adcsPerIma = 8;    ///< ADCs shared by the IMA's crossbars.
    int xbarsPerIma = 8;   ///< Crossbar arrays per IMA.
    int imasPerTile = 12;  ///< IMAs per tile.
    int tilesPerChip = 168; ///< 14 x 12 tiles (Sec. VII).

    /**
     * Effective ADC sampling rate in giga-samples/s. Section V sizes
     * the ADC to drain one 128-column crossbar (plus unit column)
     * per 100 ns cycle: 1.28 GSps ("a single 1.28 GSps ADC unit");
     * Table I's nominal clock is 1.2 GHz.
     */
    double adcGsps = 1.28;

    int edramKBPerTile = 64; ///< Central eDRAM buffer (Sec. VIII-A).
    int edramBanks = 4;
    int busBits = 256;       ///< eDRAM-to-IMA bus width.
    int tileOrBytes = 3072;  ///< Tile output register (3 KB).

    double cycleNs = 100.0;  ///< Crossbar read latency = one cycle.

    int htLinks = 4;             ///< Off-chip HyperTransport links.
    double htLinkGBps = 6.4;     ///< Bandwidth per link.
    double cmeshLinkGBps = 4.0;  ///< 32-bit c-mesh link at 1 GHz.

    /**
     * Transient-error injection rates and recovery budgets for the
     * buffers and the NoC (crossbar-side drift/ABFT knobs live in
     * engine.noise / engine). All off by default.
     */
    resilience::TransientSpec transient;

    /**
     * Crossbars per IMA that can actually be in flight, given the
     * ADC drain rate (ceil of effectiveXbarsPerIma, capped at the
     * array count). Buffer sizing and dynamic power follow this:
     * an SE-style IMA with one slow ADC only ever activates one of
     * its many arrays per cycle.
     */
    int activeXbarsPerIma() const;

    /** IMA input register bytes: one 16-bit input per active row. */
    int irBytesPerIma() const;

    /** IMA output register bytes: one 16-bit value per weight col. */
    int orBytesPerIma() const;

    /** 16-bit weights stored per crossbar array. */
    std::int64_t weightsPerXbar() const;

    /** 16-bit weights stored per chip. */
    std::int64_t weightsPerChip() const;

    /** Synaptic storage per chip in bytes. */
    std::int64_t storageBytesPerChip() const;

    /**
     * Crossbar read cycles that can be drained per 100 ns cycle per
     * IMA, limited by both the crossbar count and the ADC sampling
     * rate (each read produces rows+1 samples to convert).
     */
    double effectiveXbarsPerIma() const;

    /** Peak 16-bit MACs per cycle per chip. */
    double peakMacsPerCycle() const;

    /** Peak 16-bit operations per second per chip (2 ops per MAC). */
    double peakGops() const;

    /** Validate; fatal() on inconsistent parameters. */
    void validate() const;

    /** The ISAAC-CE design point (Table I defaults). */
    static IsaacConfig isaacCE();

    /**
     * The ISAAC-PE design point. The paper notes CE- and PE-optimal
     * configurations are nearly identical; the DSE (Fig. 5) selects
     * H128-A8-C8 with 8 IMAs per tile for peak PE.
     */
    static IsaacConfig isaacPE();

    /**
     * The ISAAC-SE (storage-efficiency) design point: many large
     * crossbars sharing a single ADC per IMA, trading throughput for
     * on-chip weight capacity (Sec. VIII-A).
     */
    static IsaacConfig isaacSE();

    /** Short config label, e.g. "H128-A8-C8-I12". */
    std::string label() const;
};

} // namespace isaac::arch

#endif // ISAAC_ARCH_CONFIG_H
