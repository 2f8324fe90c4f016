/**
 * @file
 * Concurrency contract of the bit-serial engine (docs/threading.md):
 * every call runs on its caller's thread, dotProduct() is
 * const-callable from any number of threads on one engine, and both
 * the results and the final counter values are bit-identical to a
 * serial run however the callers interleave. Noise is keyed by call
 * order, so noisy engines are checked with their calls issued in
 * turns from several threads against a single-threaded replay.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "xbar/engine.h"

namespace isaac::xbar {
namespace {

constexpr int kCallers = 4;

std::vector<Word>
randomWords(Rng &rng, int n)
{
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(-32768, 32767));
    return v;
}

void
expectStatsEqual(const EngineStats &a, const EngineStats &b)
{
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.crossbarReads, b.crossbarReads);
    EXPECT_EQ(a.adcSamples, b.adcSamples);
    EXPECT_EQ(a.adcClips, b.adcClips);
    EXPECT_EQ(a.shiftAdds, b.shiftAdds);
    EXPECT_EQ(a.dacActivations, b.dacActivations);
}

/**
 * Call engine.dotProduct(inputs[i]) from kCallers threads, caller t
 * taking every i with i % kCallers == t. With `inTurns` the calls
 * run strictly in index order (call i waits for call i - 1 to
 * return), so a noisy engine draws the serial realization while each
 * call still retires on a different thread.
 */
std::vector<std::vector<Acc>>
callFromThreads(const BitSerialEngine &engine,
                const std::vector<std::vector<Word>> &inputs,
                bool inTurns)
{
    std::vector<std::vector<Acc>> out(inputs.size());
    std::atomic<std::size_t> turn{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            for (auto i = static_cast<std::size_t>(t);
                 i < inputs.size(); i += kCallers) {
                while (inTurns && turn.load() != i)
                    std::this_thread::yield();
                out[i] = engine.dotProduct(inputs[i]);
                turn.store(i + 1);
            }
        });
    }
    for (auto &th : callers)
        th.join();
    return out;
}

std::vector<std::vector<Acc>>
callSerially(const BitSerialEngine &engine,
             const std::vector<std::vector<Word>> &inputs)
{
    std::vector<std::vector<Acc>> out;
    for (const auto &x : inputs)
        out.push_back(engine.dotProduct(x));
    return out;
}

std::vector<std::vector<Word>>
randomInputs(Rng &rng, int count, int n)
{
    std::vector<std::vector<Word>> v;
    for (int i = 0; i < count; ++i)
        v.push_back(randomWords(rng, n));
    return v;
}

TEST(Concurrency, ParallelConfigMatchesSerialBitForBit)
{
    // A multi-tile problem hammered by concurrent callers against a
    // serial replay: results, EngineStats, ADC counters, and read
    // cycles must all agree exactly.
    Rng rng(101);
    const int n = 256, m = 32;
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomInputs(rng, 2 * kCallers, n);

    const EngineConfig cfg;
    BitSerialEngine shared(cfg, weights, n, m);
    BitSerialEngine oracle(cfg, weights, n, m);

    EXPECT_EQ(callFromThreads(shared, inputs, false),
              callSerially(oracle, inputs));
    expectStatsEqual(shared.stats(), oracle.stats());
    EXPECT_EQ(shared.adcClips(), oracle.adcClips());
    EXPECT_EQ(shared.readCycles(), oracle.readCycles());
}

TEST(Concurrency, ReadNoiseRealizationIsThreadCountInvariant)
{
    // Counter-keyed read noise: the k-th dotProduct() call must see
    // the identical jitter whichever thread issues it, so noisy
    // results stay reproducible per seed.
    Rng rng(202);
    const int n = 256, m = 16;
    const auto weights = randomWords(rng, n * m);
    const auto inputs = randomInputs(rng, 2 * kCallers, n);

    EngineConfig cfg;
    cfg.noise.sigmaLsb = 1.5;
    cfg.noise.seed = 77;

    BitSerialEngine shared(cfg, weights, n, m);
    BitSerialEngine oracle(cfg, weights, n, m);

    EXPECT_EQ(callFromThreads(shared, inputs, true),
              callSerially(oracle, inputs));
    expectStatsEqual(shared.stats(), oracle.stats());
    EXPECT_EQ(shared.adcClips(), oracle.adcClips());
}

TEST(Concurrency, SharedEngineSurvivesConcurrentCallers)
{
    // N real threads hammer one engine with distinct inputs. Every
    // caller must read back exactly the dot product a lone caller
    // would, and the aggregate counters must land on exactly the
    // values a serial replay accumulates.
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 6;

    Rng rng(303);
    const int n = 128, m = 16;
    const auto weights = randomWords(rng, n * m);

    const EngineConfig cfg;
    BitSerialEngine shared(cfg, weights, n, m);
    BitSerialEngine oracle(cfg, weights, n, m);

    std::vector<std::vector<Word>> inputs;
    std::vector<std::vector<Acc>> expected;
    for (int i = 0; i < kThreads * kCallsPerThread; ++i) {
        inputs.push_back(randomWords(rng, n));
        expected.push_back(oracle.dotProduct(inputs.back()));
    }

    std::vector<std::thread> callers;
    std::vector<int> mismatches(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        callers.emplace_back([&, t] {
            for (int c = 0; c < kCallsPerThread; ++c) {
                const std::size_t i = static_cast<std::size_t>(
                    t * kCallsPerThread + c);
                if (shared.dotProduct(inputs[i]) != expected[i])
                    ++mismatches[static_cast<std::size_t>(t)];
            }
        });
    }
    for (auto &th : callers)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
    expectStatsEqual(shared.stats(), oracle.stats());
    EXPECT_EQ(shared.adcClips(), oracle.adcClips());
    EXPECT_EQ(shared.readCycles(), oracle.readCycles());
}

TEST(Concurrency, ResetStatsClearsEveryCounter)
{
    // resetStats() must be symmetric with the counting: EngineStats,
    // the ADC tallies, and the per-tile crossbar read cycles all
    // return to zero together.
    Rng rng(404);
    const int n = 256, m = 16;
    const auto weights = randomWords(rng, n * m);

    const EngineConfig cfg;
    BitSerialEngine eng(cfg, weights, n, m);
    callFromThreads(eng, randomInputs(rng, kCallers, n), false);
    ASSERT_GT(eng.stats().ops, 0u);
    ASSERT_GT(eng.readCycles(), 0u);

    eng.resetStats();
    expectStatsEqual(eng.stats(), EngineStats{});
    EXPECT_EQ(eng.adcClips(), 0u);
    EXPECT_EQ(eng.readCycles(), 0u);

    // Counting resumes cleanly: one op's worth of activity matches a
    // fresh engine's.
    BitSerialEngine fresh(cfg, weights, n, m);
    const auto probe = randomWords(rng, n);
    eng.dotProduct(probe);
    fresh.dotProduct(probe);
    expectStatsEqual(eng.stats(), fresh.stats());
    EXPECT_EQ(eng.readCycles(), fresh.readCycles());
}

TEST(Concurrency, FaultMapAndRemapAreThreadCountInvariant)
{
    // Fault detection and spare-column assignment run inside
    // programming, with each tile's streams keyed by tile index — so
    // engines programmed concurrently on different threads must
    // carry the FaultMap, column maps, and noisy outputs of one
    // programmed alone.
    Rng rng(606);
    const int n = 300, m = 48; // 3 x 2 tiles at the default geometry
    const auto weights = randomWords(rng, n * m);
    const auto probes = randomInputs(rng, 4, n);

    EngineConfig cfg;
    cfg.spareCols = 2;
    cfg.noise.stuckAtFraction = 0.01;
    cfg.noise.seed = 99;

    BitSerialEngine serial(cfg, weights, n, m);
    std::vector<std::unique_ptr<BitSerialEngine>> built(kCallers);
    std::vector<std::thread> builders;
    for (int t = 0; t < kCallers; ++t) {
        builders.emplace_back([&, t] {
            built[static_cast<std::size_t>(t)] =
                std::make_unique<BitSerialEngine>(cfg, weights, n, m);
        });
    }
    for (auto &th : builders)
        th.join();

    for (int t = 0; t < kCallers; ++t) {
        SCOPED_TRACE("builder " + std::to_string(t));
        const auto &par = *built[static_cast<std::size_t>(t)];
        for (int rs = 0; rs < serial.rowSegments(); ++rs) {
            for (int cs = 0; cs < serial.colSegments(); ++cs) {
                EXPECT_EQ(serial.faultMap(rs, cs),
                          par.faultMap(rs, cs))
                    << "tile " << rs << "," << cs;
                EXPECT_EQ(serial.tileFaultReport(rs, cs),
                          par.tileFaultReport(rs, cs));
            }
        }
        EXPECT_EQ(serial.faultReport(), par.faultReport());
        EXPECT_EQ(serial.programPulses(), par.programPulses());
    }
    BitSerialEngine oracle(cfg, weights, n, m);
    EXPECT_EQ(callFromThreads(serial, probes, false),
              callSerially(oracle, probes));
}

TEST(Concurrency, PerTileAdcTalliesMergeExactly)
{
    // The per-tile ADC split must sum to the engine totals when the
    // calls retire on different threads.
    Rng rng(707);
    const int n = 256, m = 32;
    const auto weights = randomWords(rng, n * m);

    EngineConfig cfg;
    cfg.noise.sigmaLsb = 2.0;
    cfg.noise.seed = 13;
    BitSerialEngine eng(cfg, weights, n, m);
    callFromThreads(eng, randomInputs(rng, kCallers, n), false);

    std::uint64_t samples = 0, clips = 0;
    for (int rs = 0; rs < eng.rowSegments(); ++rs) {
        for (int cs = 0; cs < eng.colSegments(); ++cs) {
            const auto tally = eng.tileAdcTally(rs, cs);
            samples += tally.samples;
            clips += tally.clips;
        }
    }
    const auto stats = eng.stats();
    EXPECT_EQ(samples, stats.adcSamples);
    EXPECT_EQ(clips, stats.adcClips);
    EXPECT_EQ(clips, eng.adcClips());

    // resetStats() clears the per-tile split and the clip counter.
    eng.resetStats();
    EXPECT_EQ(eng.stats().adcClips, 0u);
    EXPECT_EQ(eng.tileAdcTally(0, 0).samples, 0u);
}

TEST(Concurrency, TransientCountersAreThreadCountInvariant)
{
    // The ABFT retry decision and the drift/refresh accounting are
    // keyed by (opSeq, phase, tile), never by the calling thread, so
    // a noisy drifting checked engine called in turns from several
    // threads must produce the outputs AND the TransientStats block
    // of a single-threaded replay.
    Rng rng(808);
    const int n = 300, m = 48; // 3 x 2 tiles at the default geometry
    const auto weights = randomWords(rng, n * m);
    const auto probes = randomInputs(rng, 2 * kCallers, n);

    EngineConfig cfg;
    cfg.abftChecksum = true;
    cfg.noise.sigmaLsb = 2.5;
    cfg.noise.driftLevelsPerOp = 0.1;
    cfg.noise.refreshIntervalOps = 4;
    cfg.noise.seed = 31;

    BitSerialEngine oracle(cfg, weights, n, m);
    const auto want = callSerially(oracle, probes);
    const auto serialTransient = oracle.transientStats();
    ASSERT_GT(serialTransient.abftChecks, 0u);
    ASSERT_GT(serialTransient.driftRefreshes, 0u);

    BitSerialEngine shared(cfg, weights, n, m);
    EXPECT_EQ(callFromThreads(shared, probes, true), want);
    EXPECT_EQ(shared.transientStats(), serialTransient);
    expectStatsEqual(shared.stats(), oracle.stats());
}

TEST(Concurrency, ReprogramKeepsParallelPathExact)
{
    // After reprogram(), concurrent callers read exactly what an
    // engine programmed with the new weights from scratch returns.
    Rng rng(505);
    const int n = 256, m = 32;
    const auto w1 = randomWords(rng, n * m);
    const auto w2 = randomWords(rng, n * m);
    const auto inputs = randomInputs(rng, kCallers, n);

    const EngineConfig cfg;
    BitSerialEngine eng(cfg, w1, n, m);
    EXPECT_GT(eng.reprogram(w2), 0);
    BitSerialEngine fresh(cfg, w2, n, m);
    EXPECT_EQ(callFromThreads(eng, inputs, false),
              callSerially(fresh, inputs));
}

} // namespace
} // namespace isaac::xbar
