/**
 * @file
 * Streaming inference session tests: bit-exact parity with the
 * sequential keyed walk at every worker count (results, EngineStats,
 * TransientStats, per-tile ADC tallies), submission-order key
 * claiming under arbitrary orders, stats-reset replay, backpressure
 * and shutdown semantics, pump retirement and respawn, and the
 * functional=false front-door fatal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/accelerator.h"
#include "nn/zoo.h"
#include "serve/session.h"

namespace isaac::serve {
namespace {

/** Every transient-error class on, sized for exact recovery (the
 *  same recipe the end-to-end transient tests use). */
arch::IsaacConfig
protectedConfig()
{
    arch::IsaacConfig cfg;
    cfg.engine.abftChecksum = true;
    cfg.engine.noise.driftLevelsPerOp = 0.05;
    cfg.engine.noise.refreshIntervalOps = 16;
    cfg.transient.edramFlipRate = 2e-3;
    cfg.transient.orFlipRate = 1e-3;
    cfg.transient.packetCorruptRate = 0.05;
    cfg.transient.seed = 0xBEEF;
    return cfg;
}

std::vector<nn::Tensor>
makeInputs(const nn::Network &net, int count, FixedFormat fmt)
{
    const auto &l0 = net.layer(0);
    std::vector<nn::Tensor> inputs;
    for (int i = 0; i < count; ++i)
        inputs.push_back(nn::synthesizeInput(
            l0.ni, l0.nx, l0.ny,
            static_cast<std::uint64_t>(100 + i), fmt));
    return inputs;
}

/** Per-tile ADC tallies of every engine, in deterministic order. */
std::vector<xbar::AdcTally>
allTileTallies(const core::CompiledModel &model)
{
    std::vector<xbar::AdcTally> tallies;
    for (std::size_t i = 0; i < model.network().size(); ++i) {
        for (std::int64_t g = 0; g < model.engineGroupCount(i); ++g) {
            const auto *e = model.engine(i, g);
            for (int rs = 0; rs < e->rowSegments(); ++rs)
                for (int cs = 0; cs < e->colSegments(); ++cs)
                    tallies.push_back(e->tileAdcTally(rs, cs));
        }
    }
    return tallies;
}

TEST(Session, PipelinedRunMatchesSequentialWalkAtEveryWorkerCount)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 42);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    const auto inputs = makeInputs(net, 6, opts.format);

    // Ground truth: a sequential keyed walk on a twin model.
    const auto seq = acc.compile(net, weights, opts);
    std::vector<nn::Tensor> want;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto key = seq.claimImageKeys(1);
        want.push_back(seq.inferAllKeyed(inputs[i], key).back());
    }
    const auto wantEngine = seq.engineStats();
    const auto wantTransient = seq.transientStats();
    const auto wantTiles = allTileTallies(seq);

    for (const int workers : {1, 2, 4, 8, 16}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const auto model = acc.compile(net, weights, opts);
        SessionOptions sopts;
        sopts.queueDepth = inputs.size();
        sopts.workers = workers;
        InferenceSession session(model, sopts);
        const auto got = session.run(inputs);

        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i].raw(), want[i].raw()) << "image " << i;
        EXPECT_TRUE(model.engineStats() == wantEngine);
        EXPECT_TRUE(model.transientStats() == wantTransient);
        const auto tiles = allTileTallies(model);
        ASSERT_EQ(tiles.size(), wantTiles.size());
        for (std::size_t t = 0; t < tiles.size(); ++t)
            EXPECT_TRUE(tiles[t] == wantTiles[t]) << "tile " << t;

        const auto stats = session.stats();
        EXPECT_EQ(stats.submitted, inputs.size());
        EXPECT_EQ(stats.completed, inputs.size());
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_EQ(stats.stepsExecuted,
                  inputs.size() * model.executionPlan().size());
        EXPECT_GE(stats.peakInFlight, 1u);
        EXPECT_LE(stats.peakInFlight, inputs.size());
        EXPECT_EQ(session.inFlight(), 0u);
    }
}

TEST(Session, SubmissionOrderKeysTheStreamsUnderAnyOrder)
{
    // Submitting the same tensors in a scrambled order must key each
    // request by its *submission* position: request j (whatever
    // tensor it carries) replays the injection streams of sequential
    // image j.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 7);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    const auto inputs = makeInputs(net, 5, opts.format);
    const std::vector<std::size_t> perm = {3, 0, 4, 2, 1};

    const auto seq = acc.compile(net, weights, opts);
    std::vector<nn::Tensor> want;
    for (std::size_t j = 0; j < perm.size(); ++j) {
        want.push_back(
            seq.inferAllKeyed(inputs[perm[j]], j).back());
    }

    const auto model = acc.compile(net, weights, opts);
    SessionOptions sopts;
    sopts.queueDepth = perm.size();
    sopts.workers = 4;
    InferenceSession session(model, sopts);
    std::vector<std::future<nn::Tensor>> futs;
    for (const std::size_t p : perm)
        futs.push_back(session.submit(inputs[p]));
    session.drain();
    for (std::size_t j = 0; j < futs.size(); ++j) {
        EXPECT_EQ(futs[j].get().raw(), want[j].raw())
            << "submission " << j;
    }
    EXPECT_TRUE(model.transientStats() == seq.transientStats());
}

TEST(Session, SubmitAllStreamsEveryLayerOutput)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 21);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    const auto want = model.inferAllKeyed(input, 12345);

    InferenceSession session(model);
    auto fut = session.submitAll(input);
    session.drain();
    const auto got = fut.get();
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.size(), net.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].raw(), want[i].raw()) << "layer " << i;
}

TEST(Session, ResetStatsRewindsTheImageSequenceForExactReplay)
{
    // resetStats() must rewind the shared image-key counter, so a
    // replayed workload reproduces results AND counters exactly —
    // through any front door (session, inferBatch, infer).
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 13);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    auto model = acc.compile(net, weights, opts);
    const auto inputs = makeInputs(net, 4, opts.format);

    const auto first = model.inferBatch(inputs);
    const auto firstEngine = model.engineStats();
    const auto firstTransient = model.transientStats();

    model.resetStats();
    const auto second = model.inferBatch(inputs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].raw(), second[i].raw()) << "image " << i;
    EXPECT_TRUE(model.engineStats() == firstEngine);
    EXPECT_TRUE(model.transientStats() == firstTransient);
}

TEST(Session, NonFunctionalModelIsFatalOnEveryInferencePath)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 1);
    core::CompileOptions opts;
    opts.functional = false;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    EXPECT_FALSE(model.isFunctional());
    const auto expectFunctionalFatal = [](const auto &fn) {
        try {
            fn();
            FAIL() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(
                std::string(e.what()).find(
                    "CompileOptions::functional"),
                std::string::npos)
                << "message must name the knob: " << e.what();
        }
    };
    expectFunctionalFatal([&] { (void)model.infer(input); });
    expectFunctionalFatal([&] { (void)model.inferAll(input); });
    expectFunctionalFatal([&] { (void)model.inferBatch({input}); });
    expectFunctionalFatal([&] { InferenceSession session(model); });
}

TEST(Session, BackpressureAndShutdownSemantics)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 2);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    SessionOptions sopts;
    sopts.queueDepth = 2;
    sopts.workers = 1;
    InferenceSession session(model, sopts);
    EXPECT_FALSE(session.closed());

    // A blocking submit on a full session makes progress by helping,
    // so submitting more than queueDepth requests cannot deadlock.
    std::vector<std::future<nn::Tensor>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(session.submit(input));
    session.drain();
    EXPECT_EQ(session.inFlight(), 0u);
    const auto want = futs.front().get().raw();
    for (std::size_t i = 1; i < futs.size(); ++i)
        EXPECT_EQ(futs[i].get().raw(), want);

    session.shutdown();
    EXPECT_TRUE(session.closed());

    // Closed: trySubmit refuses (counted), submit is fatal.
    std::future<nn::Tensor> out;
    EXPECT_FALSE(session.trySubmit(input, out));
    EXPECT_EQ(session.stats().rejected, 1u);
    EXPECT_THROW((void)session.submit(input), FatalError);

    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.completed, 5u);
    EXPECT_LE(stats.peakInFlight, 2u);
}

TEST(Session, TrySubmitRacingShutdownNeverLosesARequest)
{
    // Admission and the shutdown seal share one critical section, so
    // a trySubmit() racing shutdown() either lands *before* the seal
    // (its future resolves — shutdown drains it) or is refused. What
    // must never happen: an accepted future that hangs, or a request
    // admitted after the drain decision. Eight submitter threads spam
    // trySubmit() while the main thread shuts the session down.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 77);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    SessionOptions sopts;
    sopts.queueDepth = 4;
    sopts.workers = 2;
    InferenceSession session(model, sopts);

    constexpr int kThreads = 8;
    constexpr int kMaxAcceptedPerThread = 4;
    std::atomic<bool> go{false};
    std::vector<std::vector<std::future<nn::Tensor>>> accepted(
        kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            auto &mine = accepted[static_cast<std::size_t>(t)];
            while (!session.closed() &&
                   mine.size() <
                       static_cast<std::size_t>(
                           kMaxAcceptedPerThread)) {
                std::future<nn::Tensor> fut;
                if (session.trySubmit(input, fut))
                    mine.push_back(std::move(fut));
                else
                    std::this_thread::yield();
            }
            // Past the seal every further attempt must refuse.
            if (session.closed()) {
                std::future<nn::Tensor> fut;
                EXPECT_FALSE(session.trySubmit(input, fut));
            }
        });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    session.shutdown();
    EXPECT_TRUE(session.closed());
    for (auto &th : threads)
        th.join();

    // Every accepted future resolves (shutdown drained them all) and
    // every request produced the same clean-model result.
    std::size_t total = 0;
    const auto want = model.infer(input).raw();
    for (auto &mine : accepted) {
        for (auto &fut : mine) {
            ++total;
            EXPECT_EQ(fut.get().raw(), want);
        }
    }
    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, total);
    EXPECT_EQ(session.inFlight(), 0u);
}

TEST(Session, InvalidOptionsAreFatal)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 2);
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights);
    EXPECT_THROW(InferenceSession(model, {.queueDepth = 0}),
                 FatalError);
    EXPECT_THROW(InferenceSession(model, {.workers = -1}),
                 FatalError);
}

TEST(Session, TrySubmitForAdmitsWhenThereIsRoom)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 3);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    InferenceSession session(model);
    std::future<nn::Tensor> fut;
    ASSERT_TRUE(session.trySubmitFor(input, fut,
                                     std::chrono::seconds(10)));
    session.drain();
    EXPECT_EQ(fut.get().raw(), model.infer(input).raw());
    EXPECT_EQ(session.stats().rejected, 0u);
    EXPECT_EQ(session.stats().timedOut, 0u);
}

TEST(Session, TrySubmitForGivesUpOnAPersistentlyFullQueue)
{
    // queueDepth 1 with an in-flight image: a bounded wait shorter
    // than one inference must give up (counted rejected), even
    // though the waiter helps execute steps while it waits — helping
    // cannot finish the image before the timeout. Read noise forces
    // the scalar path (tens of ms per image), so no scheduler stall
    // can complete the in-flight image under the 1 ms budget.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 4);
    const core::CompileOptions opts;
    arch::IsaacConfig cfg;
    cfg.engine.noise.sigmaLsb = 0.3;
    cfg.engine.noise.seed = 99;
    const core::Accelerator acc(cfg);
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format)[0];

    SessionOptions sopts;
    sopts.queueDepth = 1;
    sopts.workers = 1;
    InferenceSession session(model, sopts);
    std::future<nn::Tensor> first;
    ASSERT_TRUE(session.trySubmit(input, first));
    std::future<nn::Tensor> second;
    EXPECT_FALSE(session.trySubmitFor(
        input, second, std::chrono::milliseconds(1)));
    EXPECT_EQ(session.stats().rejected, 1u);
    session.drain();
    EXPECT_NO_THROW((void)first.get());
}

TEST(Session, TrySubmitForOnAClosedSessionRefusesInsteadOfFatal)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 5);
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights);
    const auto input = makeInputs(net, 1, {12})[0];

    InferenceSession session(model);
    session.shutdown();
    std::future<nn::Tensor> out;
    EXPECT_FALSE(session.trySubmitFor(input, out,
                                      std::chrono::seconds(1)));
    EXPECT_EQ(session.stats().rejected, 1u);
}

TEST(Session, ExpiredDefaultDeadlineFailsTheFutureAndCounts)
{
    // A deadline that has already passed when the first step runs:
    // the request completes as timed out — its future carries
    // DeadlineExceeded, no partial result leaks, and the session
    // still drains cleanly.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 6);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto inputs = makeInputs(net, 2, opts.format);

    SessionOptions sopts;
    sopts.queueDepth = 2;
    sopts.workers = 1;
    sopts.defaultDeadline = std::chrono::nanoseconds(1);
    InferenceSession session(model, sopts);
    auto futA = session.submit(inputs[0]);
    auto futAll = session.submitAll(inputs[1]);
    session.drain();
    EXPECT_THROW((void)futA.get(), DeadlineExceeded);
    EXPECT_THROW((void)futAll.get(), DeadlineExceeded);

    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.timedOut, 2u);
    EXPECT_EQ(session.inFlight(), 0u);
}

TEST(Session, ExpiredRequestsSkipTheirRemainingLayerSteps)
{
    // The expiry fast path: once a request is past its deadline the
    // scheduler drops its remaining IR nodes instead of burning Dot
    // work on a result nobody will read — visible as
    // expiredStepsSkipped, which together with stepsExecuted must
    // account for every node of every request.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 9);
    const core::CompileOptions opts;
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, opts);
    const auto inputs = makeInputs(net, 3, opts.format);

    SessionOptions sopts;
    sopts.queueDepth = inputs.size();
    sopts.workers = 1;
    sopts.defaultDeadline = std::chrono::nanoseconds(1);
    InferenceSession session(model, sopts);
    std::vector<std::future<nn::Tensor>> futs;
    for (const auto &input : inputs)
        futs.push_back(session.submit(input));
    session.drain();
    for (auto &fut : futs)
        EXPECT_THROW((void)fut.get(), DeadlineExceeded);

    const auto stats = session.stats();
    EXPECT_EQ(stats.timedOut, inputs.size());
    EXPECT_GT(stats.expiredStepsSkipped, 0u);
    EXPECT_EQ(stats.stepsExecuted + stats.expiredStepsSkipped,
              inputs.size() * model.executionPlan().size());
}

TEST(Session, GenerousDeadlineNeverFiresAndPreservesResults)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 8);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    const auto inputs = makeInputs(net, 3, opts.format);

    const auto seq = acc.compile(net, weights, opts);
    const auto want = seq.inferBatch(inputs);

    const auto model = acc.compile(net, weights, opts);
    SessionOptions sopts;
    sopts.queueDepth = inputs.size();
    sopts.workers = 2;
    sopts.defaultDeadline = std::chrono::minutes(10);
    InferenceSession session(model, sopts);
    const auto got = session.run(inputs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].raw(), want[i].raw());
    EXPECT_EQ(session.stats().timedOut, 0u);
}

TEST(Session, PumpsRetireAndRespawnBetweenBursts)
{
    // A pump retires once the ready queue is empty, and the next
    // admission must spawn a fresh one. The second burst is awaited
    // without drain(), so only respawned pumps can finish it.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 57);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    constexpr std::size_t kBurst = 4;
    const auto inputs = makeInputs(net, 2 * kBurst, opts.format);

    const auto seq = acc.compile(net, weights, opts);
    const auto want = seq.inferBatch(inputs);
    const auto wantTransient = seq.transientStats();

    const auto model = acc.compile(net, weights, opts);
    SessionOptions sopts;
    sopts.queueDepth = kBurst;
    sopts.workers = 4;
    InferenceSession session(model, sopts);
    std::vector<std::future<nn::Tensor>> futs;
    for (std::size_t i = 0; i < kBurst; ++i)
        futs.push_back(session.submit(inputs[i]));
    session.drain();
    // Give the drained pumps time to observe the empty queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (std::size_t i = kBurst; i < inputs.size(); ++i)
        futs.push_back(session.submit(inputs[i]));
    for (std::size_t i = kBurst; i < futs.size(); ++i) {
        ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "image " << i << " was never scheduled";
    }
    session.drain();

    ASSERT_EQ(futs.size(), want.size());
    for (std::size_t i = 0; i < futs.size(); ++i)
        EXPECT_EQ(futs[i].get().raw(), want[i].raw()) << "image " << i;
    EXPECT_TRUE(model.transientStats() == wantTransient);
    const auto stats = session.stats();
    EXPECT_EQ(stats.completed, inputs.size());
    EXPECT_EQ(stats.stepsExecuted,
              inputs.size() * model.executionPlan().size());
}

TEST(Session, WorkStealingScrambledSubmissionIsExactAtEveryWorkerCount)
{
    // The stress version of the scrambled-order test (the name
    // predates the single ready queue): a full-depth burst of permuted
    // submissions at every worker count, each request requeued after
    // every IR node. However pumps interleave on the queue, none of it
    // may move a bit: request j replays sequential image j exactly.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 23);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    const auto inputs = makeInputs(net, 12, opts.format);
    const std::vector<std::size_t> perm = {7, 2, 11, 0, 9,  4,
                                           1, 8, 3,  10, 5, 6};

    const auto seq = acc.compile(net, weights, opts);
    std::vector<nn::Tensor> want;
    for (std::size_t j = 0; j < perm.size(); ++j)
        want.push_back(seq.inferAllKeyed(inputs[perm[j]], j).back());
    const auto wantEngine = seq.engineStats();
    const auto wantTransient = seq.transientStats();
    const auto wantTiles = allTileTallies(seq);

    for (const int workers : {1, 2, 4, 8, 16}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const auto model = acc.compile(net, weights, opts);
        SessionOptions sopts;
        sopts.queueDepth = perm.size();
        sopts.workers = workers;
        InferenceSession session(model, sopts);
        std::vector<std::future<nn::Tensor>> futs;
        for (const std::size_t p : perm)
            futs.push_back(session.submit(inputs[p]));
        session.drain();
        for (std::size_t j = 0; j < futs.size(); ++j)
            EXPECT_EQ(futs[j].get().raw(), want[j].raw())
                << "submission " << j;
        EXPECT_TRUE(model.engineStats() == wantEngine);
        EXPECT_TRUE(model.transientStats() == wantTransient);
        const auto tiles = allTileTallies(model);
        ASSERT_EQ(tiles.size(), wantTiles.size());
        for (std::size_t t = 0; t < tiles.size(); ++t)
            EXPECT_TRUE(tiles[t] == wantTiles[t]) << "tile " << t;
        EXPECT_EQ(session.stats().stepsExecuted,
                  perm.size() * model.executionPlan().size());
    }
}

TEST(Session, ShutdownRacesStealingPumpsWithoutLosingRequests)
{
    // Several submitter threads hammer trySubmit() while the main
    // thread shuts the session down mid-flight, with eight pumps
    // popping the ready queue when the seal lands (the name predates
    // the single ready queue). Every admitted future resolves (value
    // or error), every refusal is counted, and nothing is admitted
    // after the seal.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 91);
    const core::CompileOptions opts;
    const core::Accelerator acc(protectedConfig());
    const auto inputs = makeInputs(net, 4, opts.format);

    const auto model = acc.compile(net, weights, opts);
    SessionOptions sopts;
    sopts.queueDepth = 8;
    sopts.workers = 8;
    InferenceSession session(model, sopts);

    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 24;
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> resolved{0};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (int i = 0; i < kPerSubmitter; ++i) {
                std::future<nn::Tensor> fut;
                if (session.trySubmit(
                        inputs[static_cast<std::size_t>(
                            (s + i) % inputs.size())],
                        fut)) {
                    admitted.fetch_add(1);
                    // Every admitted future must resolve — value or
                    // exception — even when shutdown lands mid-step.
                    try {
                        fut.get();
                    } catch (const std::exception &) {
                    }
                    resolved.fetch_add(1);
                } else {
                    refused.fetch_add(1);
                }
            }
        });
    }
    // Let the race actually overlap execution, then seal.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    session.shutdown();
    for (auto &t : submitters)
        t.join();

    EXPECT_EQ(resolved.load(), admitted.load());
    EXPECT_EQ(admitted.load() + refused.load(),
              static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
    const auto stats = session.stats();
    EXPECT_EQ(stats.submitted, admitted.load());
    EXPECT_EQ(stats.completed, admitted.load());
    EXPECT_EQ(stats.rejected, refused.load());
    EXPECT_EQ(session.inFlight(), 0u);
}

TEST(Session, ClosedLoopClientHoldsOneRequestInFlight)
{
    // A client that resubmits the moment its future resolves has at
    // most one request in flight: the session counts a completion
    // before it resolves the future, so the finished request is
    // never counted next to its successor. Clients poll the session
    // while they wait, so they are already running (and contending
    // for the session lock) when a result lands.
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 61);
    const core::CompileOptions opts;
    const core::Accelerator acc(arch::IsaacConfig{});
    const auto model = acc.compile(net, weights, opts);
    const auto input = makeInputs(net, 1, opts.format).front();
    const auto want = model.infer(input);

    // `clients` closed loops of `requests` each; every client checks
    // the in-flight count never exceeds one request per client.
    const auto closedLoop = [&](InferenceSession &session, int clients,
                                int requests) {
        const auto bound = static_cast<std::size_t>(clients);
        const auto client = [&] {
            for (int i = 0; i < requests; ++i) {
                auto fut = session.submit(input);
                while (fut.wait_for(std::chrono::seconds(0)) !=
                       std::future_status::ready) {
                    for (int poll = 0; poll < 16; ++poll)
                        ASSERT_LE(session.inFlight(), bound)
                            << "request " << i;
                }
                ASSERT_EQ(fut.get().raw(), want.raw());
                ASSERT_LE(session.inFlight(), bound - 1)
                    << "request " << i;
            }
        };
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back(client);
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(session.inFlight(), 0u);
        EXPECT_LE(session.stats().peakInFlight, bound);
    };

    for (const int workers : {1, 3}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        SessionOptions sopts;
        sopts.workers = workers;
        InferenceSession session(model, sopts);
        closedLoop(session, 1, 300);
        EXPECT_EQ(session.stats().peakInFlight, 1u);
    }
    // Several closed-loop clients race their completions against each
    // other's admissions.
    SessionOptions sopts;
    sopts.workers = 3;
    InferenceSession session(model, sopts);
    closedLoop(session, 4, 150);
}

} // namespace
} // namespace isaac::serve
