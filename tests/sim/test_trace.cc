/**
 * @file
 * Trace / SlotResource utility tests.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "sim/trace.h"

namespace isaac::sim {
namespace {

TEST(Trace, MergeAccumulatesEveryCounter)
{
    Trace a;
    a.edramReadBytes = 1;
    a.edramWriteBytes = 2;
    a.busBytes = 3;
    a.xbarReads = 4;
    a.adcSamples = 5;
    a.shiftAdds = 6;
    a.sigmoidOps = 7;
    a.maxPoolValues = 8;
    a.orWrites = 9;

    Trace b = a;
    b.merge(a);
    EXPECT_EQ(b.edramReadBytes, 2u);
    EXPECT_EQ(b.edramWriteBytes, 4u);
    EXPECT_EQ(b.busBytes, 6u);
    EXPECT_EQ(b.xbarReads, 8u);
    EXPECT_EQ(b.adcSamples, 10u);
    EXPECT_EQ(b.shiftAdds, 12u);
    EXPECT_EQ(b.sigmoidOps, 14u);
    EXPECT_EQ(b.maxPoolValues, 16u);
    EXPECT_EQ(b.orWrites, 18u);
}

TEST(SlotResource, BacklogDrainsForward)
{
    SlotResource r(1);
    // Saturate cycles 10..14, then ask for cycle 10 again: lands 15.
    for (Cycle c = 10; c < 15; ++c)
        EXPECT_EQ(r.reserve(c), c);
    EXPECT_EQ(r.reserve(10), 15u);
    // Earlier cycles remain available.
    EXPECT_EQ(r.reserve(3), 3u);
}

TEST(SlotResource, ManyReservationsStayBounded)
{
    SlotResource r(2);
    Cycle last = 0;
    for (int i = 0; i < 100000; ++i)
        last = r.reserve(static_cast<Cycle>(i / 4));
    EXPECT_GE(last, 100000u / 4);
    EXPECT_EQ(r.totalReservations(), 100000u);
}

/** The cycle-by-cycle probe reserve() must book identically to. */
class NaiveSlots
{
  public:
    explicit NaiveSlots(int slots) : slots(slots) {}

    Cycle
    reserve(Cycle earliest)
    {
        Cycle cycle = earliest;
        for (auto it = used.find(cycle);
             it != used.end() && it->second >= slots;
             it = used.find(cycle))
            ++cycle;
        ++used[cycle];
        if (used.size() > 1u << 20)
            used.erase(used.begin(),
                       used.lower_bound(cycle > (1u << 18)
                                            ? cycle - (1u << 18)
                                            : 0));
        return cycle;
    }

  private:
    int slots;
    std::map<Cycle, int> used;
};

TEST(SlotResource, SkipLinksBookLikeTheNaiveProbe)
{
    Rng rng(0x5107);
    for (const int slots : {1, 2, 3}) {
        SlotResource fast(slots);
        NaiveSlots naive(slots);
        // Requests drift forward with backward jumps into the
        // backlog and into long-past cycles.
        Cycle base = 0;
        for (int i = 0; i < 5000; ++i) {
            base += static_cast<Cycle>(rng.uniform(0, 2));
            Cycle want = base;
            const auto kind = rng.uniform(0, 9);
            if (kind == 0)
                want = static_cast<Cycle>(rng.uniform(0, base));
            else if (kind < 4)
                want = base > 50 ? base - 50 : 0;
            ASSERT_EQ(fast.reserve(want), naive.reserve(want))
                << "slots " << slots << " op " << i;
        }
    }
}

TEST(SlotResource, GarbageCollectedCyclesAreFreeAgain)
{
    // One reservation per even cycle fills the history past the
    // garbage-collection threshold; the collected cycles book again.
    SlotResource fast(1);
    NaiveSlots naive(1);
    const Cycle n = (Cycle{1} << 20) + 8;
    for (Cycle i = 0; i < n; ++i)
        ASSERT_EQ(fast.reserve(2 * i), naive.reserve(2 * i));
    EXPECT_EQ(naive.reserve(0), 0u);
    EXPECT_EQ(fast.reserve(0), 0u);
    Rng rng(0x6C);
    for (int i = 0; i < 2000; ++i) {
        const auto want = static_cast<Cycle>(
            rng.uniform(0, static_cast<std::int64_t>(2 * n)));
        ASSERT_EQ(fast.reserve(want), naive.reserve(want)) << i;
    }
}

} // namespace
} // namespace isaac::sim
