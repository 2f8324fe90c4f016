/**
 * @file
 * Static false-sharing audit (ci.sh "layout" step).
 *
 * Every assertion here is a compile-time check on the padding of the
 * hot shared structures: if a future field pushes one of them off its
 * cache-line boundary (or shrinks the alignment), this file stops
 * compiling — the regression can't land silently and resurface as an
 * unexplained scaling loss. The runtime test body is a formality so
 * the audit shows up in ctest output.
 *
 * What is padded and why (docs/threading.md):
 *  - EpochLog::Slot: one publishing worker per slot; a slot sharing a
 *    line with its neighbour would re-create the very contention the
 *    log exists to remove.
 *  - BitSerialEngine's ArrayTile: adjacent vector elements read by
 *    concurrent callers.
 *  - Adc sample/clip counters: every op retire RMWs them.
 */

#include <gtest/gtest.h>

#include "common/epoch_log.h"
#include "common/types.h"
#include "xbar/engine.h"

namespace isaac {
namespace {

// The audit's base unit: a sane power-of-two line size.
static_assert(kCacheLineBytes == 64);
static_assert((kCacheLineBytes & (kCacheLineBytes - 1)) == 0);

// Epoch-log slots: exactly one line each, so slot i and slot i+1 of
// the header array can never share one.
static_assert(alignof(EpochLog::Slot) == kCacheLineBytes);
static_assert(sizeof(EpochLog::Slot) == kCacheLineBytes);

// Engine tiles (private; geometry exported via a probe).
static_assert(xbar::BitSerialEngine::kArrayTileAlign ==
              kCacheLineBytes);

TEST(Layout, FalseSharingAuditHolds)
{
    // The static_asserts above are the test; compiling == passing.
    SUCCEED();
}

} // namespace
} // namespace isaac
