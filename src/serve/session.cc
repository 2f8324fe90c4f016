#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace isaac::serve {

const char *
toString(SessionState state)
{
    switch (state) {
      case SessionState::Healthy:
        return "healthy";
      case SessionState::Repairing:
        return "repairing";
      case SessionState::Degraded:
        return "degraded";
    }
    return "?";
}

InferenceSession::InferenceSession(const core::CompiledModel &model,
                                   SessionOptions opts)
    : _model(model), _opts(opts)
{
    if (!model.isFunctional()) {
        fatal("InferenceSession: model was compiled with "
              "CompileOptions::functional = false (analytic "
              "plan/report only; no crossbar engines were "
              "materialized). Recompile with CompileOptions::"
              "functional = true to serve inference.");
    }
    if (_opts.queueDepth == 0)
        fatal("InferenceSession: queueDepth must be >= 1");
    if (_opts.workers < 0)
        fatal("InferenceSession: workers must be >= 0");
    if (_opts.healRetryBudget < 0)
        fatal("InferenceSession: healRetryBudget must be >= 0");

    const unsigned hc = std::thread::hardware_concurrency();
    const int resolved = _opts.workers == 0
        ? static_cast<int>(hc == 0 ? 1 : hc)
        : _opts.workers;
    _workers = std::clamp(resolved, 1, kMaxThreads);
    ThreadPool::global().ensureWorkers(_workers);
}

InferenceSession::~InferenceSession()
{
    shutdown();
    // Pump jobs hold `this`; wait for the last one to exit before
    // the members go away. After drain() the ready queue is empty,
    // so every pump (running or still queued behind other pool
    // work) exits as soon as it is scheduled.
    std::unique_lock<std::mutex> lk(_mtx);
    _cvSpace.wait(lk, [this] { return _activePumps == 0; });
}

std::future<nn::Tensor>
InferenceSession::submit(nn::Tensor input)
{
    auto req = std::make_unique<Request>();
    // The original input is retained so a self-heal retry can
    // re-execute the request from the top on the same image key.
    req->original = input;
    req->cur = std::move(input);
    auto fut = req->promiseFinal.get_future();
    enqueue(std::move(req), /*block=*/true);
    return fut;
}

bool
InferenceSession::trySubmit(nn::Tensor input,
                            std::future<nn::Tensor> &out)
{
    auto req = std::make_unique<Request>();
    req->original = input;
    req->cur = std::move(input);
    auto fut = req->promiseFinal.get_future();
    if (!enqueue(std::move(req), /*block=*/false))
        return false;
    out = std::move(fut);
    return true;
}

bool
InferenceSession::trySubmitFor(nn::Tensor input,
                               std::future<nn::Tensor> &out,
                               std::chrono::nanoseconds timeout)
{
    auto req = std::make_unique<Request>();
    req->original = input;
    req->cur = std::move(input);
    auto fut = req->promiseFinal.get_future();
    const auto admitBy = std::chrono::steady_clock::now() +
        std::max(timeout, std::chrono::nanoseconds{0});
    if (!enqueue(std::move(req), /*block=*/true, admitBy))
        return false;
    out = std::move(fut);
    return true;
}

std::future<std::vector<nn::Tensor>>
InferenceSession::submitAll(nn::Tensor input)
{
    auto req = std::make_unique<Request>();
    req->original = input;
    req->cur = std::move(input);
    req->keepAll = true;
    auto fut = req->promiseAll.get_future();
    enqueue(std::move(req), /*block=*/true);
    return fut;
}

std::vector<nn::Tensor>
InferenceSession::run(const std::vector<nn::Tensor> &inputs)
{
    std::vector<std::future<nn::Tensor>> futs;
    futs.reserve(inputs.size());
    for (const auto &input : inputs)
        futs.push_back(submit(input));
    drain();
    std::vector<nn::Tensor> outs;
    outs.reserve(futs.size());
    for (auto &fut : futs)
        outs.push_back(fut.get());
    return outs;
}

bool
InferenceSession::enqueue(std::unique_ptr<Request> req, bool block,
                          std::chrono::steady_clock::time_point
                              admitBy)
{
    constexpr auto kForever =
        std::chrono::steady_clock::time_point::max();
    std::unique_lock<std::mutex> lk(_mtx);
    bool waited = false;
    for (;;) {
        if (_closed) {
            if (block && admitBy == kForever) {
                fatal("InferenceSession::submit: the session was "
                      "shut down");
            }
            ++_stats.rejected;
            return false;
        }
        // Once the caller has waited past its deadline, reject even
        // if capacity freed meanwhile — a bounded wait must not
        // admit arbitrarily late just because the recheck won the
        // race against the drain. (The first pass never rejects on
        // the deadline: a queue with room admits at any timeout.)
        if (waited && admitBy != kForever &&
            std::chrono::steady_clock::now() >= admitBy) {
            ++_stats.rejected;
            return false;
        }
        // Load shedding: while a repair runs the session admits at
        // half depth, pushing backpressure to trySubmit/trySubmitFor
        // callers instead of queueing work behind the repair lock.
        // Parked requests do not count against the depth — they
        // cannot drain until the watchdog acts, so counting them
        // would deadlock a blocked submitter against the poller.
        const std::size_t depth =
            state() == SessionState::Repairing
                ? std::max<std::size_t>(1, _opts.queueDepth / 2)
                : _opts.queueDepth;
        if (_inFlight - _parked.size() < depth)
            break;
        if (!block ||
            (admitBy != kForever &&
             std::chrono::steady_clock::now() >= admitBy)) {
            ++_stats.rejected;
            return false;
        }
        waited = true;
        // Backpressure with progress: rather than parking until a
        // pool worker frees a slot (which may never happen when the
        // pool is saturated or we are nested inside it), the blocked
        // submitter executes pending layer-steps itself.
        if (!_ready.empty())
            stepLocked(lk);
        else
            _cvSpace.wait_for(lk, std::chrono::milliseconds(1));
    }
    // Claiming under the admission lock makes key order == admission
    // order: the injection streams replay a sequential walk exactly.
    req->imageKey = _model.claimImageKeys(1);
    req->startGen = _gen;
    if (_opts.defaultDeadline.count() > 0) {
        req->deadline =
            std::chrono::steady_clock::now() + _opts.defaultDeadline;
    }
    ++_inFlight;
    ++_stats.submitted;
    _stats.peakInFlight = std::max<std::uint64_t>(
        _stats.peakInFlight, _inFlight);
    makeReady(std::move(req), lk);
    return true;
}

void
InferenceSession::makeReady(std::unique_ptr<Request> req,
                            std::unique_lock<std::mutex> &lk)
{
    (void)lk; // Held by the caller; documents the contract.
    _ready.push_back(std::move(req));
    _cvWork.notify_one();
    // Spawning from inside a parallel region would queue the pump
    // behind the very job waiting on it; there the submitting /
    // draining thread drives execution instead.
    if (_activePumps < _workers && !ThreadPool::inParallelRegion()) {
        ++_activePumps;
        ThreadPool::global().submit([this] { pump(); });
    }
}

std::exception_ptr
InferenceSession::deadlineError(const Request &req)
{
    constexpr auto kForever =
        std::chrono::steady_clock::time_point::max();
    if (req.deadline == kForever ||
        std::chrono::steady_clock::now() < req.deadline)
        return nullptr;
    return std::make_exception_ptr(DeadlineExceeded(
        "InferenceSession: request deadline expired at IR node " +
        std::to_string(req.nodeIdx)));
}

void
InferenceSession::deliver(Request &req, std::exception_ptr err)
{
    if (err && req.keepAll)
        req.promiseAll.set_exception(std::move(err));
    else if (err)
        req.promiseFinal.set_exception(std::move(err));
    else if (req.keepAll)
        req.promiseAll.set_value(std::move(req.outs));
    else
        req.promiseFinal.set_value(std::move(req.cur));
}

void
InferenceSession::stepLocked(std::unique_lock<std::mutex> &lk)
{
    auto req = std::move(_ready.front());
    _ready.pop_front();
    lk.unlock();

    const auto &nodes = _model.executionPlan().nodes();
    std::exception_ptr err = deadlineError(*req);
    const bool expired = err != nullptr;
    bool executed = false;
    if (!expired && req->nodeIdx < nodes.size()) {
        // Layer-steps run under the shared side of the repair lock:
        // the watchdog's exclusive hold (fault injection, march-test
        // remap, degradation) excludes every in-flight step, while
        // steps never block each other. Released before _mtx below
        // (lock order: _repairMtx -> _mtx, never the inverse).
        std::shared_lock<std::shared_mutex> repair(_repairMtx);
        const auto &node = nodes[req->nodeIdx];
        try {
            _model.executeStep(node, req->cur, req->imageKey,
                               req->local);
            executed = true;
        } catch (...) {
            err = std::current_exception();
        }
        if (executed) {
            if (node.kind == pipeline::StepKind::Dot)
                req->touchedLayers |= layerBit(node.layer);
            if (node.layerOutput && req->keepAll)
                req->outs.push_back(req->cur);
            ++req->nodeIdx;
        }
    }

    lk.lock();
    if (executed)
        ++_stats.stepsExecuted;
    if (expired) {
        ++_stats.timedOut;
        _stats.expiredStepsSkipped += nodes.size() - req->nodeIdx;
    }
    if (!err && req->nodeIdx < nodes.size()) {
        makeReady(std::move(req), lk);
        return;
    }
    if (!err) {
        // Before delivering, hold the result against the fault
        // records: a request whose Dot steps overlapped a faulty
        // epoch is never completed as-is (zero silently-wrong
        // results). A fault injected *after* this check cannot
        // retroactively corrupt reads that already happened:
        // injection holds the repair lock exclusively, so every one
        // of this request's steps finished strictly before it.
        const Taint taint = taintLocked(*req);
        if (taint.tainted) {
            if (req->heals >= _opts.healRetryBudget) {
                failHealLocked(
                    std::move(req),
                    "InferenceSession: request overlapped a faulty "
                    "epoch and exhausted its heal-retry budget");
            } else if (taint.awaitingRepair) {
                if (_closed) {
                    failHealLocked(
                        std::move(req),
                        "InferenceSession: session shut down while "
                        "the request awaited an online repair");
                } else {
                    // Park until the watchdog lands the repair:
                    // re-running now would read the faulty tile
                    // again.
                    _parked.push_back(std::move(req));
                }
            } else {
                // The overlapped fault is repaired: re-execute from
                // the original input on the same image key (the
                // per-image injection streams replay exactly).
                resetForHealLocked(*req);
                makeReady(std::move(req), lk);
            }
            return;
        }
        _model.finishImage(req->local);
    }
    // Count the completion before resolving the future: a client
    // that resubmits the moment its result arrives must not find
    // this request still in flight.
    completeLocked();
    lk.unlock();
    deliver(*req, std::move(err));
    lk.lock();
}

void
InferenceSession::completeLocked()
{
    --_inFlight;
    ++_stats.completed;
    _cvSpace.notify_all();
    _cvWork.notify_all();
}

InferenceSession::Taint
InferenceSession::taintLocked(const Request &req) const
{
    Taint t;
    for (const auto &f : _faults) {
        if ((f.layerMask & req.touchedLayers) == 0)
            continue;
        if (f.repairedGen == 0) {
            // Pending fault on a touched layer: suspect, and
            // re-running before the repair would be suspect again.
            t.tainted = true;
            t.awaitingRepair = true;
        } else if (f.repairedGen > req.startGen) {
            // Repaired after this request (re)started: some of its
            // reads may predate the repair. Conservative — a request
            // admitted after the injection but healed anyway only
            // costs a retry, never a wrong result.
            t.tainted = true;
        }
    }
    return t;
}

void
InferenceSession::resetForHealLocked(Request &req)
{
    req.cur = req.original;
    req.nodeIdx = 0;
    req.local = {};
    req.outs.clear();
    req.touchedLayers = 0;
    req.startGen = _gen;
    ++req.heals;
    ++_stats.healedRetries;
}

void
InferenceSession::failHealLocked(std::unique_ptr<Request> req,
                                 const char *what)
{
    ++_stats.healFailed;
    completeLocked();
    deliver(*req, std::make_exception_ptr(RetriesExhausted(what)));
}

std::size_t
InferenceSession::noteFaultInjected(std::uint64_t layerMask)
{
    std::lock_guard<std::mutex> lk(_mtx);
    ++_gen;
    _faults.push_back(FaultRecord{layerMask, _gen, 0});
    return _faults.size() - 1;
}

void
InferenceSession::noteFaultRepaired(std::size_t token)
{
    std::unique_lock<std::mutex> lk(_mtx);
    ++_gen;
    _faults.at(token).repairedGen = _gen;
    // Release every parked request whose overlapping faults are all
    // resolved now: each re-executes from its original input, or
    // fails explicitly past its heal budget.
    for (std::size_t i = 0; i < _parked.size();) {
        if (taintLocked(*_parked[i]).awaitingRepair) {
            ++i;
            continue;
        }
        auto req = std::move(_parked[i]);
        _parked.erase(_parked.begin() +
                      static_cast<std::ptrdiff_t>(i));
        if (req->heals >= _opts.healRetryBudget) {
            failHealLocked(
                std::move(req),
                "InferenceSession: request overlapped a faulty epoch "
                "and exhausted its heal-retry budget");
        } else {
            resetForHealLocked(*req);
            makeReady(std::move(req), lk);
        }
    }
}

void
InferenceSession::pump()
{
    std::unique_lock<std::mutex> lk(_mtx);
    while (!_ready.empty())
        stepLocked(lk);
    // Retire. The empty check above and this decrement share one
    // critical section with makeReady's spawn check, so a push either
    // finds this pump still active (and it loops) or spawns a
    // replacement: no ready request is ever stranded.
    if (--_activePumps == 0)
        _cvSpace.notify_all();
}

void
InferenceSession::drain()
{
    std::unique_lock<std::mutex> lk(_mtx);
    drainLocked(lk);
}

void
InferenceSession::drainLocked(std::unique_lock<std::mutex> &lk)
{
    while (_inFlight > 0) {
        if (!_ready.empty()) {
            stepLocked(lk);
        } else if (_closed && !_parked.empty()) {
            // Shutdown with requests parked on a pending repair: no
            // further watchdog poll is guaranteed, and a parked
            // result is suspect by definition — fail it explicitly
            // rather than deliver it or hang the drain.
            auto req = std::move(_parked.front());
            _parked.erase(_parked.begin());
            failHealLocked(
                std::move(req),
                "InferenceSession: session shut down while the "
                "request awaited an online repair");
        } else {
            // Every unfinished request is mid-step on another thread
            // (or parked): wake on requeue or completion. Timed,
            // because a concurrent shutdown() seals without signalling
            // _cvWork and parked requests then need failing here.
            _cvWork.wait_for(lk, std::chrono::milliseconds(1));
        }
    }
}

void
InferenceSession::shutdown()
{
    // Sealing admission and entering the drain loop under ONE lock
    // acquisition makes shutdown atomic against trySubmit(): there
    // is no window between "_closed = true" and the drain decision
    // where a racing submitter could slip a request in unseen.
    // Admission itself checks _closed under this same mutex, so
    // every request trySubmit() ever admitted is either already
    // counted in _inFlight here (and will be drained, resolving its
    // future) or was refused. Idempotent and safe to race with
    // another shutdown(): both seal, both drain.
    std::unique_lock<std::mutex> lk(_mtx);
    _closed = true;
    _cvSpace.notify_all();
    drainLocked(lk);
}

bool
InferenceSession::closed() const
{
    std::lock_guard<std::mutex> lk(_mtx);
    return _closed;
}

std::size_t
InferenceSession::inFlight() const
{
    std::lock_guard<std::mutex> lk(_mtx);
    return _inFlight;
}

SessionStats
InferenceSession::stats() const
{
    std::lock_guard<std::mutex> lk(_mtx);
    return _stats;
}

} // namespace isaac::serve
