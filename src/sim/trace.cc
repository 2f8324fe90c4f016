#include "sim/trace.h"

#include <utility>

#include "common/logging.h"

namespace isaac::sim {

SlotResource::SlotResource(int slotsPerCycle) : slots(slotsPerCycle)
{
    if (slotsPerCycle < 1)
        fatal("SlotResource: need at least one slot per cycle");
}

Cycle
SlotResource::reserve(Cycle earliest)
{
    // Follow the skip links to the first cycle with a free slot, then
    // point every link on the way straight at it.
    Cycle cycle = earliest;
    for (auto it = skip.find(cycle); it != skip.end();
         it = skip.find(cycle))
        cycle = it->second;
    for (Cycle c = earliest; c != cycle;)
        c = std::exchange(skip[c], cycle);
    if (++used[cycle] == slots)
        skip[cycle] = cycle + 1;
    ++reservations;
    // Garbage-collect long-past entries to bound memory on long runs;
    // erased cycles are free again. Links at or above the cut point
    // only forward, so they stay valid.
    if (used.size() > 1u << 20) {
        const Cycle cut = cycle > (1u << 18) ? cycle - (1u << 18) : 0;
        used.erase(used.begin(), used.lower_bound(cut));
        skip.erase(skip.begin(), skip.lower_bound(cut));
    }
    return cycle;
}

} // namespace isaac::sim
