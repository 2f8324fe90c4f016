/**
 * @file
 * A small fixed-worker thread pool and a deterministic parallel-for.
 *
 * The simulator has one level of parallelism, owned by the caller
 * (docs/threading.md): serving sessions pipeline requests over the
 * pool, and the campaign, DSE and reference-executor loops fan their
 * independent items out with parallelFor. A single engine call or
 * layer-step runs on its caller's thread. Every parallel loop must
 * stay *bit-identical* to the serial run; the helpers here make that
 * contract easy to keep:
 *
 *  - `parallelFor(items, threads, fn)` partitions [0, items) over at
 *    most `threads` workers (0 = one per hardware thread, 1 = run
 *    inline on the caller). `fn(index, worker)` receives a stable
 *    worker slot in [0, parallelWorkers(threads, items)) so callers
 *    can keep per-worker accumulators and merge them in slot order.
 *  - Work is handed out in contiguous chunks from a shared atomic
 *    cursor (no work stealing); which worker runs which chunk is
 *    nondeterministic, so callers must only rely on per-index or
 *    per-slot state, never on execution order.
 *  - Nested calls run inline on the worker that issued them, so a
 *    parallelFor inside a pool job never oversubscribes or
 *    deadlocks.
 *
 * Exceptions thrown by `fn` are captured and the first one rethrown
 * on the calling thread after all workers finish.
 */

#ifndef ISAAC_COMMON_THREAD_POOL_H
#define ISAAC_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace isaac {

/** Hard cap on worker threads (sanity bound for config knobs). */
constexpr int kMaxThreads = 256;

/**
 * A fixed set of worker threads draining a shared FIFO queue. One
 * process-wide instance (`ThreadPool::global()`) backs parallelFor;
 * it grows lazily to the largest worker count ever requested.
 */
class ThreadPool
{
  public:
    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The shared pool used by parallelFor. */
    static ThreadPool &global();

    /** Spawn workers until at least `workers` exist (capped). */
    void ensureWorkers(int workers);

    /** Current worker-thread count. */
    int workers() const;

    /** Enqueue one job; it runs on some pool worker. */
    void submit(std::function<void()> job);

    /** True on a thread currently executing pool / parallelFor work. */
    static bool inParallelRegion();

  private:
    friend void parallelFor(
        std::int64_t items, int threads,
        const std::function<void(std::int64_t, int)> &fn);

    void workerLoop();

    mutable std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::function<void()>> jobs;
    std::vector<std::thread> threads;
    bool stopping = false;
};

/**
 * Resolve a thread-count knob: 0 means one worker per hardware
 * thread, otherwise the requested count, clamped to [1, kMaxThreads]
 * and to `items` (never more workers than iterations).
 */
int parallelWorkers(int threads, std::int64_t items);

/**
 * Run `fn(i, worker)` for every i in [0, items). The caller
 * participates as worker 0 and blocks until all iterations finish.
 * Runs inline (worker 0, ascending order) when only one worker is
 * resolved or when already inside a parallel region.
 */
void parallelFor(std::int64_t items, int threads,
                 const std::function<void(std::int64_t, int)> &fn);

} // namespace isaac

#endif // ISAAC_COMMON_THREAD_POOL_H
