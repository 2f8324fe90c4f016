/**
 * @file
 * Streaming-serving study: throughput and latency of the
 * serve::InferenceSession request pipeline against the sequential
 * batch walk, swept over queue depth x scheduler workers.
 *
 * The session pipelines requests across execution-plan layer-steps
 * (the paper's inter-layer pipeline at request granularity) from one
 * shared ready queue, so on a multi-core host the depth-16 pipeline
 * must beat the one-at-a-time sequential walk by a healthy margin —
 * and keep scaling as workers are added. Emits
 * BENCH_serving.json with per-point throughput and p50/p99 latency
 * plus the two host-aware gate records ci.sh enforces:
 *  - "gate": best depth-16 throughput >= 1.5x sequential when the
 *    host has >= 2 hardware threads, no-regression (>= 0.9x) on a
 *    single-core host where pipelining cannot add compute;
 *  - "scaling_gate": the 8-worker depth-16 point >= 6x sequential on
 *    hosts with >= 8 hardware threads, degrading to the same
 *    no-regression floor on smaller hosts.
 *
 * IMPORTANT — reference records: on a host with fewer than 8
 * hardware threads the scaling gate is DISARMED (ci.sh prints a
 * loud notice); the no-regression floor it degrades to proves
 * nothing about worker scaling. Any BENCH_serving.json committed or
 * published as a reference record therefore MUST come from a host
 * with >= 8 hardware threads, where the 6x gate actually armed.
 * Check the emitted "host_threads" field before trusting a record.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/accelerator.h"
#include "nn/zoo.h"
#include "serve/session.h"
#include "serve_harness.h"

using namespace isaac;

namespace {

constexpr int kImages = 32;
constexpr std::size_t kDepths[] = {1, 4, 16};
const std::vector<int> kWorkers = {1, 2, 4, 8, 16};
constexpr std::size_t kGateDepth = 16;
constexpr int kScalingGateWorkers = 8;

using bench::Clock;
using bench::seconds;

struct ServePoint
{
    std::size_t depth = 0;
    int workers = 0;
    double throughput = 0; ///< images / second
    double p50Ms = 0;      ///< median request latency
    double p99Ms = 0;      ///< tail request latency
};

/** One open-loop run: keep `depth` requests outstanding, record each
 *  request's submit->ready latency by polling its future. */
ServePoint
runServeSweepPoint(const core::CompiledModel &model,
                   const std::vector<nn::Tensor> &inputs,
                   std::size_t depth, int workers)
{
    serve::SessionOptions opts;
    opts.queueDepth = depth;
    opts.workers = workers;
    serve::InferenceSession session(model, opts);

    struct Pending
    {
        std::future<nn::Tensor> fut;
        Clock::time_point submitted;
        std::size_t index;
    };
    std::vector<Pending> pending;
    std::vector<double> latencyMs(inputs.size(), 0);

    const auto start = Clock::now();
    std::size_t next = 0, doneCount = 0;
    while (doneCount < inputs.size()) {
        while (next < inputs.size() && pending.size() < depth) {
            Pending p;
            p.submitted = Clock::now();
            p.index = next;
            p.fut = session.submit(inputs[next]);
            pending.push_back(std::move(p));
            ++next;
        }
        bool progressed = false;
        for (std::size_t i = 0; i < pending.size();) {
            auto &p = pending[i];
            if (p.fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                latencyMs[p.index] =
                    1e3 * seconds(Clock::now() - p.submitted);
                (void)p.fut.get();
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(i));
                ++doneCount;
                progressed = true;
            } else {
                ++i;
            }
        }
        if (!progressed)
            std::this_thread::yield();
    }
    const double elapsed = seconds(Clock::now() - start);
    session.shutdown();

    std::sort(latencyMs.begin(), latencyMs.end());
    ServePoint point;
    point.depth = depth;
    point.workers = workers;
    point.throughput = static_cast<double>(inputs.size()) / elapsed;
    point.p50Ms = latencyMs[latencyMs.size() / 2];
    point.p99Ms = latencyMs[std::min(
        latencyMs.size() - 1, latencyMs.size() * 99 / 100)];
    return point;
}

void
writeJson(double sequentialThroughput,
          const std::vector<ServePoint> &points,
          double bestGateThroughput, double expectedSpeedup,
          double scalingGateThroughput, double expectedScaling)
{
    std::FILE *f = std::fopen("BENCH_serving.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_serving: cannot write "
                     "BENCH_serving.json\n");
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"serving\",\n"
                 "  \"workload\": \"tinyCnn\",\n"
                 "  \"images\": %d,\n"
                 "  \"host_threads\": %u,\n"
                 "  \"sequential_throughput\": %.2f,\n"
                 "  \"sweep\": [",
                 kImages, bench::hostThreads(),
                 sequentialThroughput);
    bool first = true;
    for (const auto &p : points) {
        std::fprintf(
            f,
            "%s\n    {\"queue_depth\": %zu, \"workers\": %d, "
            "\"throughput\": %.2f, \"p50_ms\": %.3f, "
            "\"p99_ms\": %.3f}",
            first ? "" : ",", p.depth, p.workers, p.throughput,
            p.p50Ms, p.p99Ms);
        first = false;
    }
    // The worker-scaling column: the depth-16 row re-expressed as
    // speedup over the sequential walk, one record per worker count.
    std::fprintf(f, "\n  ],\n  \"scaling\": [");
    first = true;
    for (const auto &p : points) {
        if (p.depth != kGateDepth)
            continue;
        std::fprintf(f,
                     "%s\n    {\"workers\": %d, "
                     "\"throughput\": %.2f, "
                     "\"speedup_vs_sequential\": %.3f}",
                     first ? "" : ",", p.workers, p.throughput,
                     p.throughput / sequentialThroughput);
        first = false;
    }
    std::fprintf(f,
                 "\n  ],\n  \"gate\": {\n"
                 "    \"queue_depth\": %zu,\n"
                 "    \"pipelined_throughput\": %.2f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"expected_speedup\": %.2f\n  },\n"
                 "  \"scaling_gate\": {\n"
                 "    \"queue_depth\": %zu,\n"
                 "    \"workers\": %d,\n"
                 "    \"throughput\": %.2f,\n"
                 "    \"speedup_vs_sequential\": %.3f,\n"
                 "    \"expected_speedup\": %.2f\n  }\n}\n",
                 kGateDepth, bestGateThroughput,
                 bestGateThroughput / sequentialThroughput,
                 expectedSpeedup, kGateDepth, kScalingGateWorkers,
                 scalingGateThroughput,
                 scalingGateThroughput / sequentialThroughput,
                 expectedScaling);
    std::fclose(f);
}

void
printServingStudy()
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 4242);

    // The study isolates the *request* pipeline; the sequential
    // baseline is the one-image-at-a-time walk.
    arch::IsaacConfig cfg;
    core::Accelerator acc(cfg);
    const auto model = acc.compile(net, weights, {});
    const auto inputs = bench::makeServeInputs(
        net, kImages, core::CompileOptions{}.format);

    // Warm up once (packed planes, pool workers) so the sequential
    // baseline and every sweep point run against the same state.
    (void)model.inferBatch(inputs);

    // Sequential baseline: the batch on a single-worker session.
    const auto seqStart = Clock::now();
    const auto seqOut =
        serve::InferenceSession(
            model, serve::SessionOptions{.queueDepth = inputs.size(),
                                         .workers = 1})
            .run(inputs);
    const double seqElapsed = seconds(Clock::now() - seqStart);
    const double seqThroughput =
        static_cast<double>(inputs.size()) / seqElapsed;

    std::printf("=== Streaming serving: session pipeline vs "
                "sequential batch (TinyCNN, %d images) ===\n\n",
                kImages);
    std::printf("sequential (1 worker): %8.1f img/s\n\n",
                seqThroughput);
    std::printf("%-7s %-8s %12s %10s %10s %9s\n", "depth", "workers",
                "img/s", "p50 ms", "p99 ms", "speedup");

    std::vector<ServePoint> points;
    double bestGateThroughput = 0;
    double scalingGateThroughput = 0;
    for (const std::size_t depth : kDepths) {
        const auto row = bench::sweepWorkers(kWorkers, [&](int w) {
            const auto p = runServeSweepPoint(model, inputs, depth, w);
            std::printf("%-7zu %-8d %12.1f %10.3f %10.3f %8.2fx\n",
                        p.depth, p.workers, p.throughput, p.p50Ms,
                        p.p99Ms, p.throughput / seqThroughput);
            return p;
        });
        for (const auto &p : row) {
            if (p.depth == kGateDepth) {
                bestGateThroughput =
                    std::max(bestGateThroughput, p.throughput);
                if (p.workers == kScalingGateWorkers)
                    scalingGateThroughput = p.throughput;
            }
            points.push_back(p);
        }
    }

    const unsigned hc = bench::hostThreads();
    // The pipeline adds no compute, only overlap: with one hardware
    // thread there is nothing to overlap on, so both gates degrade to
    // no-regression. The scaling gate only demands real speedup when
    // the host can actually run its 8 workers concurrently.
    const double expectedSpeedup = hc >= 2 ? 1.5 : 0.9;
    const double expectedScaling = hc >= 8 ? 6.0 : 0.9;
    std::printf(
        "\ngate: depth-%zu pipelined %.1f img/s vs sequential %.1f "
        "img/s (%.2fx, expected >= %.2fx on %u host threads)\n",
        kGateDepth, bestGateThroughput, seqThroughput,
        bestGateThroughput / seqThroughput, expectedSpeedup, hc);
    std::printf(
        "scaling gate: depth-%zu workers-%d %.1f img/s vs sequential "
        "%.1f img/s (%.2fx, expected >= %.2fx on %u host threads)\n\n",
        kGateDepth, kScalingGateWorkers, scalingGateThroughput,
        seqThroughput, scalingGateThroughput / seqThroughput,
        expectedScaling, hc);

    writeJson(seqThroughput, points, bestGateThroughput,
              expectedSpeedup, scalingGateThroughput,
              expectedScaling);
}

void
BM_SessionDepth16(benchmark::State &state)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 4242);
    arch::IsaacConfig cfg;
    core::Accelerator acc(cfg);
    const auto model = acc.compile(net, weights, {});
    const auto inputs = bench::makeServeInputs(
        net, kImages, core::CompileOptions{}.format);
    const int workers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        serve::SessionOptions opts;
        opts.queueDepth = 16;
        opts.workers = workers;
        serve::InferenceSession session(model, opts);
        benchmark::DoNotOptimize(session.run(inputs));
    }
    state.SetItemsProcessed(state.iterations() * kImages);
}
BENCHMARK(BM_SessionDepth16)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

} // namespace

int
main(int argc, char **argv)
{
    printServingStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
