/**
 * @file
 * Micro-benchmarks of the functional analog data path (Fig. 1):
 * crossbar bitline reads and full bit-serial dot products across
 * engine geometries, plus the encoding primitives. These are real
 * timed google-benchmark cases measuring the simulator itself.
 */

#include <chrono>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "xbar/batch_kernel.h"
#include "xbar/encoding.h"
#include "xbar/engine.h"

using namespace isaac;

namespace {

std::vector<Word>
randomWords(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<Word> v(static_cast<std::size_t>(n));
    for (auto &w : v)
        w = static_cast<Word>(rng.uniform(-32768, 32767));
    return v;
}

void
BM_CrossbarReadAllBitlines(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    xbar::CrossbarArray xb(rows, rows + 1, 2);
    Rng rng(1);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < rows + 1; ++c)
            xb.program(r, c, static_cast<int>(rng.uniform(0, 3)));
    std::vector<int> inputs(static_cast<std::size_t>(rows));
    for (auto &i : inputs)
        i = static_cast<int>(rng.uniform(0, 1));
    for (auto _ : state)
        benchmark::DoNotOptimize(xb.readAllBitlines(inputs));
    state.SetItemsProcessed(state.iterations() * rows * (rows + 1));
}
BENCHMARK(BM_CrossbarReadAllBitlines)->Arg(64)->Arg(128)->Arg(256);

void
BM_EngineDotProduct(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    xbar::EngineConfig cfg; // packed fast path (the default)
    const auto weights = randomWords(7, n * m);
    xbar::BitSerialEngine engine(cfg, weights, n, m);
    const auto inputs = randomWords(9, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.dotProduct(inputs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * m);
}
BENCHMARK(BM_EngineDotProduct)
    ->Args({128, 16})   // one physical array
    ->Args({256, 32})   // the Fig. 4 example (4 arrays)
    ->Args({1024, 64}); // a deep-layer slice

/** The scalar reference row loop (fastPath = false). */
void
BM_EngineDotProductScalar(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    xbar::EngineConfig cfg;
    cfg.fastPath = false;
    const auto weights = randomWords(7, n * m);
    xbar::BitSerialEngine engine(cfg, weights, n, m);
    const auto inputs = randomWords(9, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.dotProduct(inputs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * m);
}
BENCHMARK(BM_EngineDotProductScalar)
    ->Args({128, 16})
    ->Args({256, 32})
    ->Args({1024, 64});

/**
 * The plane-major batched popcount GEMM: a layer's worth of distinct
 * windows through one dotProductBatch() call (ns per window).
 */
void
BM_EngineDotProductBatched(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const int m = static_cast<int>(state.range(1));
    const int windows = 64;
    xbar::EngineConfig cfg;
    const auto weights = randomWords(7, n * m);
    xbar::BitSerialEngine engine(cfg, weights, n, m);
    const auto inputs = randomWords(9, n * windows);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.dotProductBatch(inputs, windows));
    state.SetItemsProcessed(state.iterations() * windows *
                            static_cast<std::int64_t>(n) * m);
}
BENCHMARK(BM_EngineDotProductBatched)
    ->Args({128, 16})
    ->Args({1024, 64});

void
BM_EngineDotProductBiasedDac2(benchmark::State &state)
{
    xbar::EngineConfig cfg;
    cfg.dacBits = 2;
    cfg.inputMode = xbar::InputMode::Biased;
    const auto weights = randomWords(3, 128 * 16);
    xbar::BitSerialEngine engine(cfg, weights, 128, 16);
    const auto inputs = randomWords(5, 128);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.dotProduct(inputs));
}
BENCHMARK(BM_EngineDotProductBiasedDac2);

void
BM_EngineDotProductNoisy(benchmark::State &state)
{
    xbar::EngineConfig cfg;
    cfg.noise.sigmaLsb = 0.5;
    const auto weights = randomWords(11, 128 * 16);
    xbar::BitSerialEngine engine(cfg, weights, 128, 16);
    const auto inputs = randomWords(13, 128);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.dotProduct(inputs));
}
BENCHMARK(BM_EngineDotProductNoisy);

void
BM_EngineProgramming(benchmark::State &state)
{
    xbar::EngineConfig cfg;
    const auto weights = randomWords(17, 128 * 16);
    for (auto _ : state) {
        xbar::BitSerialEngine engine(cfg, weights, 128, 16);
        benchmark::DoNotOptimize(engine.physicalArrays());
    }
}
BENCHMARK(BM_EngineProgramming);

void
BM_SliceWeight(benchmark::State &state)
{
    std::uint16_t u = 0xBEEF;
    for (auto _ : state) {
        benchmark::DoNotOptimize(xbar::sliceWeight(u, 2));
        ++u;
    }
}
BENCHMARK(BM_SliceWeight);

/** Best-of-3 timing of dotProductBatch() calls, ns per window. */
double
timeDotProductBatch(const xbar::BitSerialEngine &engine,
                    const std::vector<Word> &inputs, int windows,
                    int iters)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            benchmark::DoNotOptimize(
                engine.dotProductBatch(inputs, windows));
        const auto stop = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(stop - start)
                .count() /
            (static_cast<double>(iters) * windows);
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

/** Median-of-3 timing of repeated dotProduct() calls, ns per op. */
double
timeDotProduct(const xbar::BitSerialEngine &engine,
               std::span<const Word> inputs, int iters)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            benchmark::DoNotOptimize(engine.dotProduct(inputs));
        const auto stop = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(stop - start)
                .count() /
            iters;
        if (rep == 0 || ns < best)
            best = ns;
    }
    return best;
}

/**
 * Machine-readable perf record, written next to the binary for the
 * CI regression gate (scripts/ci.sh) and dashboards: "clean_128"
 * holds scalar vs the packed path at n = 1 (dotProduct) vs a
 * 64-window batch on a clean 128x128 ISAAC-CE array. scripts/ci.sh
 * gates fast_speedup (n = 1 over scalar), batched_vs_scalar, and
 * batched_speedup (64-window batch over n = 1, per window).
 */
void
writeCleanJson()
{
    std::FILE *f = std::fopen("BENCH_crossbar.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_crossbar: cannot write "
                     "BENCH_crossbar.json\n");
        return;
    }

    // The gated record: one clean ISAAC-CE array.
    const int gn = 128, gm = 16;
    const auto gw = randomWords(7, gn * gm);
    const auto gx = randomWords(9, gn);
    xbar::EngineConfig base;

    auto scalarCfg = base;
    scalarCfg.fastPath = false;
    xbar::BitSerialEngine gScalar(scalarCfg, gw, gn, gm);
    gScalar.dotProduct(gx);
    const double gScalarNs = timeDotProduct(gScalar, gx, 50);

    xbar::BitSerialEngine gFast(base, gw, gn, gm);
    gFast.dotProduct(gx);
    const double gFastNs = timeDotProduct(gFast, gx, 1000);

    // The vector-row shape of the same path: 64 distinct windows per
    // call, ns per window.
    const int gWindows = 64;
    xbar::BitSerialEngine gBatch(base, gw, gn, gm);
    const auto gbx = randomWords(21, gn * gWindows);
    gBatch.dotProductBatch(gbx, gWindows); // warm up
    const double gBatchNs =
        timeDotProductBatch(gBatch, gbx, gWindows, 20);

    std::fprintf(f,
                 "{\n  \"bench\": \"crossbar\",\n"
                 "  \"clean_128\": {\n"
                 "    \"scalar_ns\": %.0f,\n"
                 "    \"fast_ns\": %.0f,\n"
                 "    \"batched_ns\": %.0f,\n"
                 "    \"batched_windows\": %d,\n"
                 "    \"kernel_tier\": \"%s\",\n"
                 "    \"fast_speedup\": %.3f,\n"
                 "    \"batched_vs_scalar\": %.3f,\n"
                 "    \"batched_speedup\": %.3f\n  }\n}\n",
                 gScalarNs, gFastNs, gBatchNs, gWindows,
                 xbar::kernel::tierName(xbar::kernel::activeTier()),
                 gFastNs > 0 ? gScalarNs / gFastNs : 0.0,
                 gBatchNs > 0 ? gScalarNs / gBatchNs : 0.0,
                 gBatchNs > 0 ? gFastNs / gBatchNs : 0.0);
    std::fclose(f);
    std::printf("wrote BENCH_crossbar.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    writeCleanJson();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
