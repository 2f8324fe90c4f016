/**
 * @file
 * The streaming inference runtime: a request-level session on top of
 * the execution-plan IR.
 *
 * An InferenceSession accepts inference requests against one
 * CompiledModel and pipelines them across the model's IR layer-steps
 * on the shared ThreadPool, reproducing the paper's steady-state
 * inter-layer pipeline at request granularity: image k+1 enters
 * layer 0 while image k is in layer 1 (Sec. IV). Each request walks
 * the IR one step at a time and requeues itself at the back of one
 * mutex-guarded ready queue, so in-flight requests interleave across
 * layer-steps instead of hogging a worker end to end.
 *
 * Determinism contract (docs/serving.md): every request's image key
 * is claimed from the model at *submission* time, and all per-image
 * state is request-local until the final commutative merge, so
 * results, EngineStats, per-tile AdcTally, and TransientStats are
 * bit-identical to a sequential inferAllKeyed() replay of the same
 * (input, key) pairs — at any worker count and any execution
 * interleaving.
 *
 * Backpressure: the session admits at most `queueDepth` unfinished
 * requests; submit() blocks for space, trySubmit() refuses instead.
 * Scheduler workers never block, so the session cannot deadlock even
 * when the pool is saturated; drain() lends the calling thread to
 * step execution until the session is empty.
 *
 * Self-healing (docs/resilience.md, ARCHITECTURE.md §11): the
 * session cooperates with serve::HealthWatchdog to survive crossbar
 * faults that surface mid-soak. Layer-steps run under the shared
 * side of a repair lock; the watchdog's fault injection, march-test
 * remap, and degradation hold it exclusively. Every request records
 * which Dot layers it touched and at which fault generation it
 * started, so a request that overlapped a faulty epoch is never
 * completed as-is: it parks until the repair lands, then re-executes
 * from its original input on the same image key (bounded by
 * SessionOptions::healRetryBudget, counted in
 * SessionStats::healedRetries), or fails explicitly with
 * RetriesExhausted — zero silently-wrong results. While a repair
 * runs the session reports SessionState::Repairing and sheds load by
 * halving its admission depth (trySubmit/trySubmitFor backpressure);
 * after an unrepairable tile is degraded around it reports Degraded.
 */

#ifndef ISAAC_SERVE_SESSION_H
#define ISAAC_SERVE_SESSION_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <vector>

#include "core/accelerator.h"
#include "nn/tensor.h"
#include "resilience/health.h"

namespace isaac::serve {

/**
 * Thrown through a request's future when its deadline expired before
 * the request finished (SessionOptions::defaultDeadline). The request
 * stops executing at the next step boundary; its remaining IR steps
 * never run.
 */
class DeadlineExceeded : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Thrown through a request's future when the request overlapped a
 * faulty epoch and could not be healed: either its per-request heal
 * budget (SessionOptions::healRetryBudget) ran out, or the session
 * shut down while the request was parked awaiting an online repair.
 * The request's result was suspect and is never delivered —
 * explicit failure instead of a silently-wrong value.
 */
class RetriesExhausted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serving health of one session (the self-healing state machine;
 * docs/resilience.md). Healthy -> Repairing while the watchdog holds
 * the repair lock (admission depth halves), then back to Healthy —
 * or to Degraded once any tile was unrepairable and the model
 * degraded around it (Degraded is sticky: capacity was permanently
 * lost, though results stay exact on the rebuilt engines).
 */
enum class SessionState
{
    Healthy,
    Repairing,
    Degraded,
};

const char *toString(SessionState state);

/**
 * Bit of one network layer in a fault / touched-layers mask (layers
 * >= 63 share the top bit — conservative: they alias, which can only
 * cause extra heals, never a missed one).
 */
inline std::uint64_t
layerBit(std::size_t layer)
{
    return std::uint64_t{1} << (layer < 63 ? layer : 63);
}

/** Static configuration of one session. */
struct SessionOptions
{
    /**
     * Maximum admitted-but-unfinished requests (the bounded request
     * queue). submit() blocks while the session is this full.
     */
    std::size_t queueDepth = 16;

    /**
     * Concurrent scheduler workers driving layer-steps: 0 = one per
     * hardware thread, otherwise the requested count (clamped to
     * kMaxThreads). Results are identical at any setting.
     */
    int workers = 0;

    /**
     * Per-request execution deadline, measured from admission
     * (zero = none). A request still unfinished when its deadline
     * passes is abandoned at the next step boundary: its future
     * rethrows DeadlineExceeded and stats().timedOut counts it.
     * Sweeps over pathological scenarios use this so one wedged
     * request cannot stall a whole campaign. Note that a timed-out
     * request has already executed a wall-clock-dependent number of
     * steps, so the model's activity counters are reproducible only
     * for runs where no deadline fires.
     */
    std::chrono::nanoseconds defaultDeadline{0};

    /**
     * Re-executions granted to one request whose layer-steps
     * overlapped a faulty epoch (the watchdog repaired a tile the
     * request had read through). Each heal restarts the request from
     * its original input on the same image key; past the budget the
     * request fails with RetriesExhausted instead of delivering a
     * suspect result.
     */
    int healRetryBudget = 3;
};

/** Activity counters of one session (monotonic over its lifetime). */
struct SessionStats
{
    std::uint64_t submitted = 0; ///< Requests admitted.
    std::uint64_t completed = 0; ///< Requests finished (ok or error).
    std::uint64_t rejected = 0;  ///< trySubmit() refusals.
    std::uint64_t stepsExecuted = 0; ///< IR nodes executed.
    std::uint64_t peakInFlight = 0;  ///< Max concurrent admissions.
    std::uint64_t timedOut = 0;      ///< Requests past their deadline.
    /** IR nodes an expired request skipped instead of executing. */
    std::uint64_t expiredStepsSkipped = 0;
    /** Fault-tainted requests re-executed after a repair landed. */
    std::uint64_t healedRetries = 0;
    /** Tainted requests failed (budget exhausted / shutdown). */
    std::uint64_t healFailed = 0;

    bool operator==(const SessionStats &) const = default;
};

/** A streaming request-level runtime over one compiled model. */
class InferenceSession
{
  public:
    /**
     * The model must outlive the session and be functionally
     * compiled (fatal() otherwise, naming CompileOptions::
     * functional).
     */
    explicit InferenceSession(const core::CompiledModel &model,
                              SessionOptions opts = {});

    /** Drains in-flight work, then detaches (shutdown()). */
    ~InferenceSession();

    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    /**
     * Submit one inference request. Claims the request's image key
     * immediately (submission order == key order), then blocks while
     * the session is at queueDepth. The future yields the final
     * layer's output, or rethrows the execution error.
     */
    std::future<nn::Tensor> submit(nn::Tensor input);

    /**
     * Non-blocking submit: false (and no admission, counted in
     * stats().rejected) when the session is full or shut down.
     */
    bool trySubmit(nn::Tensor input, std::future<nn::Tensor> &out);

    /**
     * Bounded-wait submit: like submit() while the session has
     * space, but gives up (false, counted in stats().rejected) if no
     * queue slot frees up within `timeout` or the session shuts
     * down. The waiting thread helps execute pending layer-steps
     * like submit() does, so the timeout is a bound, not a stall.
     */
    bool trySubmitFor(nn::Tensor input, std::future<nn::Tensor> &out,
                      std::chrono::nanoseconds timeout);

    /**
     * Submit a request whose future yields every layer's output
     * (the streaming equivalent of CompiledModel::inferAll).
     */
    std::future<std::vector<nn::Tensor>> submitAll(nn::Tensor input);

    /**
     * Convenience batch driver used by CompiledModel::inferBatch:
     * submit every input in order, drain, and return the final
     * outputs in input order.
     */
    std::vector<nn::Tensor>
    run(const std::vector<nn::Tensor> &inputs);

    /**
     * Block until every admitted request has completed. The calling
     * thread executes pending layer-steps itself, so drain() makes
     * progress even with zero free pool workers.
     */
    void drain();

    /**
     * Graceful shutdown: stop admitting (submit() then fatal()s,
     * trySubmit() refuses) and drain what was admitted. Atomic
     * against concurrent trySubmit(): admission and the seal share
     * one critical section, so every future a racing trySubmit()
     * handed out resolves — there is no window where a request is
     * admitted after the drain decision.
     */
    void shutdown();

    /** Whether shutdown() was called. */
    bool closed() const;

    /** Requests admitted but not yet completed. */
    std::size_t inFlight() const;

    /** Lifetime activity counters. */
    SessionStats stats() const;

    /**
     * Current serving health (Healthy / Repairing / Degraded). Only
     * a HealthWatchdog moves it; sessions without one stay Healthy.
     */
    SessionState state() const
    {
        return _state.load(std::memory_order_relaxed);
    }

    const core::CompiledModel &model() const { return _model; }

  private:
    /** One in-flight request walking the IR. */
    struct Request
    {
        std::uint64_t imageKey = 0;
        nn::Tensor cur;
        /** The submitted input, retained so a heal can re-execute
         *  the request from the top on the same image key. */
        nn::Tensor original;
        std::size_t nodeIdx = 0; ///< Next IR node to execute.
        resilience::TransientStats local;
        bool keepAll = false;
        std::vector<nn::Tensor> outs; ///< Layer outputs (keepAll).
        std::promise<nn::Tensor> promiseFinal;
        std::promise<std::vector<nn::Tensor>> promiseAll;
        /** Abandon-after time; max() = no deadline. */
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max();
        /** Dot layers executed since (re)start (layerBit mask). */
        std::uint64_t touchedLayers = 0;
        /** Fault generation at (re)start; a fault repaired at a
         *  later generation taints any layer-overlap. */
        std::uint64_t startGen = 0;
        int heals = 0; ///< Re-executions consumed.
    };

    /** One injected fault's lifecycle (taint bookkeeping). */
    struct FaultRecord
    {
        std::uint64_t layerMask = 0;   ///< Layers it can corrupt.
        std::uint64_t injectedGen = 0; ///< Generation when injected.
        std::uint64_t repairedGen = 0; ///< 0 = repair still pending.
    };

    /** Taint verdict for one request at completion. */
    struct Taint
    {
        bool tainted = false;        ///< Result is suspect.
        bool awaitingRepair = false; ///< Some overlap not yet fixed.
    };

    /**
     * Admit a request; false if refused. `block` waits for space,
     * bounded by `admitBy` (max() = wait forever; trySubmit passes
     * block = false for the immediate refusal).
     */
    bool enqueue(std::unique_ptr<Request> req, bool block,
                 std::chrono::steady_clock::time_point admitBy =
                     std::chrono::steady_clock::time_point::max());

    /** The error an expired request fails with, or null. */
    static std::exception_ptr deadlineError(const Request &req);

    /** Resolve a finished request's future: `err`, or its result. */
    static void deliver(Request &req, std::exception_ptr err);

    /** Push a runnable request and make sure a worker will run it. */
    void makeReady(std::unique_ptr<Request> req,
                   std::unique_lock<std::mutex> &lk);

    /**
     * Pop the oldest ready request and execute its next IR node,
     * then requeue or complete it. `lk` holds _mtx on entry and on
     * return; it is released while the node executes. _ready must be
     * non-empty.
     */
    void stepLocked(std::unique_lock<std::mutex> &lk);

    /**
     * drain() body with the session lock already held — shutdown()
     * uses it so sealing admission and the drain decision are one
     * critical section (admit-vs-shutdown atomicity). `lk` is
     * released and reacquired around step execution.
     */
    void drainLocked(std::unique_lock<std::mutex> &lk);

    /** Worker body: drain the ready queue until it is empty. */
    void pump();

    /** Decrement in-flight, count a completion, wake waiters. */
    void completeLocked();

    /** Taint verdict of `req` against the fault records (_mtx held). */
    Taint taintLocked(const Request &req) const;

    /** Rewind `req` to its original input for a heal (_mtx held). */
    void resetForHealLocked(Request &req);

    /** Fail a tainted request with RetriesExhausted (_mtx held). */
    void failHealLocked(std::unique_ptr<Request> req,
                        const char *what);

    // --- HealthWatchdog interface (see serve/supervisor.h) ---

    /**
     * Record an injected fault on the layers in `layerMask`; returns
     * a token for noteFaultRepaired(). Called by the watchdog while
     * it holds the repair lock exclusively, so every request either
     * finished its current step strictly before the fault existed or
     * will see this record when it completes.
     */
    std::size_t noteFaultInjected(std::uint64_t layerMask);

    /**
     * Mark a fault repaired (or degraded around) and release every
     * parked request whose overlapping faults are now all resolved:
     * each re-executes from its original input, or fails with
     * RetriesExhausted past its heal budget.
     */
    void noteFaultRepaired(std::size_t token);

    friend class HealthWatchdog;

    const core::CompiledModel &_model;
    SessionOptions _opts;
    int _workers; ///< Resolved worker count.

    mutable std::mutex _mtx;
    std::condition_variable _cvSpace; ///< Signaled on completion.
    std::condition_variable _cvWork;  ///< Signaled on makeReady.
    /**
     * The ready queue (FIFO): admission, the requeue after every
     * step, heal requeues and parked releases push to the back under
     * _mtx; pumps, blocked submitters and drain() pop the front.
     */
    std::deque<std::unique_ptr<Request>> _ready;
    std::size_t _inFlight = 0;
    int _activePumps = 0;
    bool _closed = false;
    SessionStats _stats;

    /**
     * The repair lock: layer-steps execute under the shared side, so
     * the watchdog's exclusive hold (fault injection, march-test
     * remap, degradation) excludes every in-flight step while steps
     * never block each other. Lock order: _repairMtx before _mtx,
     * never the inverse (stepLocked() releases it before retaking
     * _mtx; the watchdog nests _mtx inside its exclusive hold).
     */
    std::shared_mutex _repairMtx;

    /** Serving state; written by the watchdog, read by admission. */
    std::atomic<SessionState> _state{SessionState::Healthy};

    /** Injected-fault lifecycle records (guarded by _mtx). */
    std::vector<FaultRecord> _faults;

    /** Fault generation clock (guarded by _mtx). */
    std::uint64_t _gen = 0;

    /**
     * Requests whose results overlapped a still-pending fault,
     * waiting for its repair (guarded by _mtx). Parked requests
     * count in _inFlight but not against the admission depth — they
     * cannot drain until the watchdog acts, so counting them would
     * deadlock a blocked submitter against the poller.
     */
    std::vector<std::unique_ptr<Request>> _parked;
};

} // namespace isaac::serve

#endif // ISAAC_SERVE_SESSION_H
