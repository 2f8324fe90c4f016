/**
 * @file
 * Regenerates Figure 5: peak CE and PE across the design space
 * (crossbar size H, ADCs per IMA A, crossbars per IMA C, IMAs per
 * tile I). Infeasible points are annotated with their structural
 * hazard; the CE- and PE-optimal points are marked.
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include <benchmark/benchmark.h>

#include "core/accelerator.h"
#include "dse/dse.h"
#include "nn/weights.h"
#include "xbar/batch_kernel.h"

using namespace isaac;

namespace {

/**
 * Time one VGG-style conv layer (3x3x64 kernels, 64 output maps, a
 * 14x14 input map -> 144 overlapping windows against one shared
 * engine) through the functional pipeline, ns per inference, on the
 * packed path (one dotProductBatch() call per layer) or the scalar
 * reference.
 */
double
timeConvLayer(bool fastPath)
{
    nn::NetworkBuilder b("vgg-conv", 64, 14, 14);
    b.conv(3, 64, 1, 0); // valid padding: 14 -> 12
    const auto net = b.build();
    const auto weights = nn::WeightStore::synthesize(net, 21);
    const core::CompileOptions opts;
    const auto input = nn::synthesizeInput(64, 14, 14, 3, opts.format);

    arch::IsaacConfig cfg;
    cfg.engine.fastPath = fastPath;
    const core::Accelerator acc(cfg);
    const auto model = acc.compile(net, weights, opts);
    model.infer(input); // warm up

    const int iters = fastPath ? 6 : 2;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            benchmark::DoNotOptimize(model.infer(input));
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

void
printFig5()
{
    std::printf("=== Figure 5: CE and PE across the ISAAC design "
                "space ===\n\n");
    dse::DseSpace space;
    const auto points = dse::sweep(space);
    const auto &bestCe = dse::best(points, dse::Metric::CE);
    const auto &bestPe = dse::best(points, dse::Metric::PE);

    std::printf("%-18s %12s %12s %10s  %s\n", "config",
                "CE(GOPS/mm^2)", "PE(GOPS/W)", "SE(MB/mm^2)",
                "notes");
    for (const auto &p : points) {
        if (!p.feasible) {
            std::printf("%-18s %12s %12s %10s  infeasible: %s\n",
                        p.config.label().c_str(), "-", "-", "-",
                        p.hazard.c_str());
            continue;
        }
        std::string notes;
        if (p.config.label() == bestCe.config.label())
            notes += " <= best CE (ISAAC-CE)";
        if (p.config.label() == bestPe.config.label())
            notes += " <= best PE (ISAAC-PE)";
        std::printf("%-18s %12.1f %12.1f %10.2f %s\n",
                    p.config.label().c_str(), p.ce, p.pe, p.se,
                    notes.c_str());
    }

    std::printf("\nBest CE: %s (paper: H128-A8-C8 with 12 IMAs per "
                "tile)\n",
                bestCe.config.label().c_str());
    std::printf("Best PE: %s (paper: near-identical to the CE "
                "point)\n\n",
                bestPe.config.label().c_str());
}

void
BM_DseSweep(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(dse::sweep());
}
BENCHMARK(BM_DseSweep);

/**
 * Serial-vs-parallel sweep timings plus the optimal points, written
 * as BENCH_fig5.json for regression dashboards.
 */
void
writeFig5Json()
{
    std::FILE *f = std::fopen("BENCH_fig5.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_fig5: cannot write BENCH_fig5.json\n");
        return;
    }

    dse::DseSpace space;
    const auto points = dse::sweep(space);
    const auto &bestCe = dse::best(points, dse::Metric::CE);
    const auto &bestPe = dse::best(points, dse::Metric::PE);

    std::fprintf(f,
                 "{\n  \"bench\": \"fig5\",\n"
                 "  \"workload\": \"dse_sweep\",\n"
                 "  \"points\": %zu,\n"
                 "  \"best_ce\": \"%s\",\n  \"best_pe\": \"%s\",\n"
                 "  \"hardware_threads\": %u,\n  \"results\": [",
                 points.size(), bestCe.config.label().c_str(),
                 bestPe.config.label().c_str(),
                 std::thread::hardware_concurrency());

    double serialNs = 0.0;
    bool first = true;
    for (int threads : {1, 2, 4, 8}) {
        dse::DseSpace timed;
        timed.threads = threads;
        dse::sweep(timed); // warm up
        const int iters = 5;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            benchmark::DoNotOptimize(dse::sweep(timed));
        const auto stop = std::chrono::steady_clock::now();
        const double nsPerOp =
            std::chrono::duration<double, std::nano>(stop - start)
                .count() /
            iters;
        if (threads == 1)
            serialNs = nsPerOp;
        std::fprintf(f,
                     "%s\n    {\"threads\": %d, \"ns_per_op\": %.0f, "
                     "\"speedup\": %.3f}",
                     first ? "" : ",", threads, nsPerOp,
                     serialNs > 0 ? serialNs / nsPerOp : 0.0);
        first = false;
    }

    // The crossbar-engine packed path on a realistic conv workload:
    // all 144 windows of the layer staged into one popcount GEMM per
    // tile-phase, against the scalar reference.
    const double scalarNs = timeConvLayer(false);
    const double fastNs = timeConvLayer(true);
    std::fprintf(f,
                 "\n  ],\n  \"conv\": {\n"
                 "    \"layer\": \"conv3x3x64-to-64@14x14\",\n"
                 "    \"conv_scalar_ns\": %.0f,\n"
                 "    \"conv_fast_ns\": %.0f,\n"
                 "    \"kernel_tier\": \"%s\",\n"
                 "    \"fast_speedup\": %.3f\n  }\n}\n",
                 scalarNs, fastNs,
                 xbar::kernel::tierName(xbar::kernel::activeTier()),
                 fastNs > 0 ? scalarNs / fastNs : 0.0);
    std::fclose(f);
    std::printf("wrote BENCH_fig5.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    printFig5();
    writeFig5Json();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
