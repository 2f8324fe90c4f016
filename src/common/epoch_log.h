/**
 * @file
 * Per-worker epoch logs: the lock-free statistics substrate.
 *
 * The engine and the serving session used to account their counters by
 * merging a per-call accumulator into shared totals under a mutex at
 * the end of every operation. That merge is the only place unrelated
 * workers ever touch the same cache lines, and it serializes exactly
 * when the machine is busiest. EpochLog replaces it with the
 * RACoherence-style idiom: every OS thread owns one cache-line-aligned
 * *slot* of counters, appends to it with plain atomic stores (no RMW
 * contention — the slot has a single writer), and *publishes* the
 * finished delta by bumping the slot's epoch. Readers fold all slots
 * with a seqlock protocol and may carry a vector-clock `Cursor` that
 * caches each slot's last published snapshot, so a fold only re-reads
 * slots whose epoch advanced.
 *
 * Contract
 * --------
 * - A *publish* is atomic with respect to folds: a fold either sees all
 *   of a published delta or none of it. Partial deltas are never
 *   visible because counters are only touched between the two epoch
 *   bumps of `publish()` (odd epoch = in progress, fold retries).
 * - Workers hold no unpublished state outside an operation: `publish()`
 *   is called at every epoch boundary (operation retire / request
 *   slice completion). Hence at any quiescent point — `stats()` after
 *   a barrier, the watchdog holding the repair lock exclusively, drain
 *   or shutdown — a fold returns exact totals.
 * - `reset()` must not overlap `publish()` (same contract as engine
 *   reprogram). It zeroes every slot and advances the epochs so stale
 *   cursors notice and re-read the zeroed slots.
 * - Thread identity: slots are indexed by a process-wide small thread
 *   id with free-list reuse, so a bounded worker population maps to a
 *   bounded slot range no matter how many threads are created over the
 *   process lifetime. If more than `kMaxThreads` threads are ever live
 *   at once, the excess shares one overflow slot behind a mutex —
 *   correctness degrades to the old locked merge, never to a race.
 */

#ifndef ISAAC_COMMON_EPOCH_LOG_H
#define ISAAC_COMMON_EPOCH_LOG_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace isaac {

namespace detail {

/**
 * Process-wide allocator of small thread ids in [0, kMaxThreads].
 * Ids are claimed lazily on a thread's first publish and returned to a
 * free list when the thread exits, so transient threads (test bodies,
 * session pumps riding pool workers) recycle a compact id range.
 * Id kMaxThreads is the shared overflow id handed out when more than
 * kMaxThreads threads are live simultaneously; it is never recycled.
 */
class ThreadSlotRegistry
{
  public:
    static constexpr int kOverflowId = kMaxThreads;

    static ThreadSlotRegistry &instance()
    {
        // Leaked on purpose: pool workers are joined during static
        // destruction and release their slots here on thread exit.
        static ThreadSlotRegistry *reg = new ThreadSlotRegistry;
        return *reg;
    }

    int acquire()
    {
        std::lock_guard<std::mutex> lock(_mtx);
        if (!_free.empty()) {
            int id = _free.back();
            _free.pop_back();
            return id;
        }
        if (_next < kMaxThreads)
            return _next++;
        return kOverflowId;
    }

    void release(int id)
    {
        if (id == kOverflowId)
            return;
        std::lock_guard<std::mutex> lock(_mtx);
        _free.push_back(id);
    }

  private:
    std::mutex _mtx;
    std::vector<int> _free;
    int _next = 0;
};

/** RAII holder: one id per thread, released on thread exit. */
struct ThreadSlotHolder
{
    int id;
    ThreadSlotHolder() : id(ThreadSlotRegistry::instance().acquire()) {}
    ~ThreadSlotHolder() { ThreadSlotRegistry::instance().release(id); }
    ThreadSlotHolder(const ThreadSlotHolder &) = delete;
    ThreadSlotHolder &operator=(const ThreadSlotHolder &) = delete;
};

inline int threadSlotId()
{
    thread_local ThreadSlotHolder holder;
    return holder.id;
}

} // namespace detail

class EpochLog
{
  public:
    /** Regular slots plus the shared overflow slot. */
    static constexpr int kSlots = kMaxThreads + 1;

    EpochLog() = default;

    explicit EpochLog(std::size_t counters) { configure(counters); }

    ~EpochLog()
    {
        if (!_slots)
            return;
        for (int s = 0; s < kSlots; ++s)
            freeCounters(
                _slots[s].counters.load(std::memory_order_relaxed));
    }

    EpochLog(const EpochLog &) = delete;
    EpochLog &operator=(const EpochLog &) = delete;

    /**
     * Fixes the counter vector width. Must be called exactly once,
     * before the first publish (the engine calls it from its
     * constructor once the tile count is known).
     */
    void configure(std::size_t counters)
    {
        _n = counters;
        _slots = std::make_unique<Slot[]>(kSlots);
    }

    std::size_t counters() const { return _n; }

    /**
     * Adds `delta` (length == counters()) to the calling thread's slot
     * and publishes it as one epoch. Lock-free on the owner's cache
     * lines for the first kMaxThreads live threads; the overflow slot
     * serializes behind a mutex instead of racing.
     */
    void publish(std::span<const std::uint64_t> delta)
    {
        checkWidth(delta.size(), "publish");
        const int id = detail::threadSlotId();
        Slot &slot = _slots[id];
        std::unique_lock<std::mutex> overflow;
        if (id == detail::ThreadSlotRegistry::kOverflowId)
            overflow = std::unique_lock<std::mutex>(_overflowMutex);
        std::atomic<std::uint64_t> *c =
            slot.counters.load(std::memory_order_relaxed);
        if (c == nullptr) {
            c = allocateCounters(_n);
            slot.counters.store(c, std::memory_order_release);
        }
        // Seqlock write side: odd epoch marks the delta in flight, the
        // trailing release bump makes it visible as one unit. Counter
        // stores are release so a fold that observed any one of them
        // is guaranteed to observe an epoch >= the odd bump and retry.
        slot.epoch.fetch_add(1, std::memory_order_acq_rel);
        for (std::size_t i = 0; i < _n; ++i)
            c[i].store(c[i].load(std::memory_order_relaxed) + delta[i],
                       std::memory_order_release);
        slot.epoch.fetch_add(1, std::memory_order_release);
    }

    /**
     * Vector clock over the slots plus the cached per-slot snapshots.
     * A cursor makes repeated folds incremental: slots whose epoch has
     * not advanced since the last fold are not re-read. One cursor
     * serves one reader at a time (guard it with the reader's mutex).
     */
    struct Cursor
    {
        std::vector<std::uint64_t> seen;             // per-slot epoch
        std::vector<std::vector<std::uint64_t>> row; // per-slot snapshot
    };

    /** One-shot fold of every slot into `out` (length == counters()). */
    void fold(std::span<std::uint64_t> out) const
    {
        checkWidth(out.size(), "fold");
        std::fill(out.begin(), out.end(), std::uint64_t{0});
        if (!_slots)
            return;
        std::vector<std::uint64_t> tmp(_n);
        for (int s = 0; s < kSlots; ++s) {
            if (readSlot(_slots[s], tmp))
                for (std::size_t i = 0; i < _n; ++i)
                    out[i] += tmp[i];
        }
    }

    /**
     * Incremental fold: refreshes `cur` from slots whose epoch moved,
     * then sums the cached snapshots into `out`.
     */
    void fold(Cursor &cur, std::span<std::uint64_t> out) const
    {
        checkWidth(out.size(), "fold");
        std::fill(out.begin(), out.end(), std::uint64_t{0});
        if (!_slots)
            return;
        cur.seen.resize(kSlots, 0);
        cur.row.resize(kSlots);
        for (int s = 0; s < kSlots; ++s) {
            const Slot &slot = _slots[s];
            std::uint64_t e = slot.epoch.load(std::memory_order_acquire);
            if (e != cur.seen[s]) {
                cur.row[s].assign(_n, 0);
                readSlot(slot, cur.row[s], &cur.seen[s]);
            }
            if (!cur.row[s].empty())
                for (std::size_t i = 0; i < _n; ++i)
                    out[i] += cur.row[s][i];
        }
    }

    /**
     * Rewinds every slot to zero. Caller must guarantee no publish is
     * in flight (the engine's resetStats()/reprogram contract). Slot
     * epochs advance by two so existing cursors re-read the zeros
     * instead of serving stale cached snapshots.
     */
    void reset()
    {
        if (!_slots)
            return;
        for (int s = 0; s < kSlots; ++s) {
            Slot &slot = _slots[s];
            std::atomic<std::uint64_t> *c =
                slot.counters.load(std::memory_order_relaxed);
            if (c != nullptr)
                for (std::size_t i = 0; i < _n; ++i)
                    c[i].store(0, std::memory_order_release);
            if (slot.epoch.load(std::memory_order_relaxed) != 0)
                slot.epoch.fetch_add(2, std::memory_order_release);
        }
    }

    /** Total publishes across all slots (diagnostic / tests). */
    std::uint64_t publishCount() const
    {
        if (!_slots)
            return 0;
        std::uint64_t total = 0;
        for (int s = 0; s < kSlots; ++s)
            total += _slots[s].epoch.load(std::memory_order_acquire) / 2;
        return total;
    }

    /** Slots that have ever published (diagnostic / tests). */
    int activeSlots() const
    {
        if (!_slots)
            return 0;
        int n = 0;
        for (int s = 0; s < kSlots; ++s)
            if (_slots[s].epoch.load(std::memory_order_acquire) != 0)
                ++n;
        return n;
    }

    /**
     * Slot header: the epoch word and the pointer to the lazily
     * allocated counter block, alone on their own cache line so two
     * workers publishing concurrently never share one.
     */
    struct alignas(kCacheLineBytes) Slot
    {
        std::atomic<std::uint64_t> epoch{0};
        std::atomic<std::atomic<std::uint64_t> *> counters{nullptr};
    };
    static_assert(sizeof(Slot) == kCacheLineBytes,
                  "EpochLog::Slot must occupy exactly one cache line");

  private:
    /**
     * The buffer-width contract, enforced loudly: a span that does
     * not match counters() would otherwise read or write out of
     * bounds (an empty vector folds through a null data pointer).
     */
    void checkWidth(std::size_t got, const char *what) const
    {
        if (got != _n)
            fatal(std::string("EpochLog::") + what + ": span of " +
                  std::to_string(got) + " counters, log configured " +
                  "for " + std::to_string(_n));
    }

    /**
     * Seqlock read side. Returns false for a never-touched slot.
     * On success `out` holds the slot's published totals and, if
     * `seenEpoch` is given, the matching epoch.
     */
    bool readSlot(const Slot &slot, std::span<std::uint64_t> out,
                  std::uint64_t *seenEpoch = nullptr) const
    {
        for (;;) {
            std::uint64_t e1 = slot.epoch.load(std::memory_order_acquire);
            if (e1 == 0)
                return false;
            if (e1 & 1) { // publish in flight; brief by construction
                std::this_thread::yield();
                continue;
            }
            std::atomic<std::uint64_t> *c =
                slot.counters.load(std::memory_order_acquire);
            if (c == nullptr)
                return false;
            for (std::size_t i = 0; i < _n; ++i)
                out[i] = c[i].load(std::memory_order_acquire);
            std::uint64_t e2 = slot.epoch.load(std::memory_order_acquire);
            if (e1 == e2) {
                if (seenEpoch != nullptr)
                    *seenEpoch = e2;
                return true;
            }
        }
    }

    /**
     * Counter blocks are handed out cache-line aligned and sized in
     * whole lines so blocks of different slots can never share a line.
     */
    static std::atomic<std::uint64_t> *allocateCounters(std::size_t n)
    {
        const std::size_t perLine =
            kCacheLineBytes / sizeof(std::atomic<std::uint64_t>);
        const std::size_t padded = ((n + perLine - 1) / perLine) * perLine;
        void *raw = ::operator new(padded * sizeof(std::atomic<std::uint64_t>),
                                   std::align_val_t{kCacheLineBytes});
        auto *c = static_cast<std::atomic<std::uint64_t> *>(raw);
        for (std::size_t i = 0; i < padded; ++i)
            new (&c[i]) std::atomic<std::uint64_t>(0);
        return c;
    }

    static void freeCounters(std::atomic<std::uint64_t> *c)
    {
        if (c != nullptr)
            ::operator delete(c, std::align_val_t{kCacheLineBytes});
    }

    std::size_t _n = 0;
    std::unique_ptr<Slot[]> _slots;
    std::mutex _overflowMutex;
};

} // namespace isaac

#endif // ISAAC_COMMON_EPOCH_LOG_H
