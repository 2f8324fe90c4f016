/**
 * @file
 * Activity counters and slot-based resource booking for the
 * cycle-level simulators.
 */

#ifndef ISAAC_SIM_TRACE_H
#define ISAAC_SIM_TRACE_H

#include <cstdint>
#include <map>

#include "common/types.h"

namespace isaac::sim {

/** Switching-activity counters accumulated by a simulation. */
struct Trace
{
    std::uint64_t edramReadBytes = 0;
    std::uint64_t edramWriteBytes = 0;
    std::uint64_t busBytes = 0;
    std::uint64_t xbarReads = 0;
    std::uint64_t adcSamples = 0;
    std::uint64_t shiftAdds = 0;
    std::uint64_t sigmoidOps = 0;
    std::uint64_t maxPoolValues = 0;
    std::uint64_t orWrites = 0;

    void
    merge(const Trace &other)
    {
        edramReadBytes += other.edramReadBytes;
        edramWriteBytes += other.edramWriteBytes;
        busBytes += other.busBytes;
        xbarReads += other.xbarReads;
        adcSamples += other.adcSamples;
        shiftAdds += other.shiftAdds;
        sigmoidOps += other.sigmoidOps;
        maxPoolValues += other.maxPoolValues;
        orWrites += other.orWrites;
    }
};

/**
 * A resource with a fixed number of slots per cycle (an eDRAM with N
 * banks, a bus, a pair of sigmoid units). reserve() books the
 * earliest free slot at or after the requested cycle. Full cycles
 * carry a skip link to a later cycle (every cycle in between is full
 * too), followed with path compression, so a request behind a long
 * backlog jumps over it instead of probing it cycle by cycle.
 */
class SlotResource
{
  public:
    explicit SlotResource(int slotsPerCycle);

    /** Book one slot at the earliest cycle >= `earliest`. */
    Cycle reserve(Cycle earliest);

    /** Slots booked so far (for utilization checks). */
    std::uint64_t totalReservations() const { return reservations; }

  private:
    int slots;
    std::map<Cycle, int> used;
    /** Full cycle -> a later cycle; [key, value) is all full. */
    std::map<Cycle, Cycle> skip;
    std::uint64_t reservations = 0;
};

} // namespace isaac::sim

#endif // ISAAC_SIM_TRACE_H
