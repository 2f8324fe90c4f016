/**
 * @file
 * Self-healing soak study: a streaming InferenceSession serves a
 * fixed request stream while a HealthWatchdog injects and repairs the
 * scripted fault timeline — a stuck-cell burst (spare-remap recovery)
 * followed by a tile kill (degrade-and-migrate) on the same engine.
 *
 * Emits BENCH_selfheal.json with, per worker count: soak throughput
 * vs a fault-free run (the recovery dip), per-event recovery latency,
 * and the healed-retry counters; plus the gate record ci.sh enforces:
 * every scripted fault detected and resolved (recovery_complete),
 * every completed request bit-exact against a fault-free twin
 * (incorrect_results == 0), and the canonical recovery log
 * byte-identical across worker counts (canonical_invariant).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/accelerator.h"
#include "nn/zoo.h"
#include "serve/session.h"
#include "serve/supervisor.h"
#include "serve_harness.h"

using namespace isaac;

namespace {

constexpr int kImages = 24;
const std::vector<int> kWorkers = {1, 2, 4};

using bench::Clock;
using bench::seconds;

/** ABFT + spares + buffer/NoC transients; no drift, no write noise
 *  (the watchdog's determinism preconditions). */
arch::IsaacConfig
selfhealConfig()
{
    arch::IsaacConfig cfg;
    cfg.engine.abftChecksum = true;
    cfg.engine.spareCols = 4;
    cfg.transient.edramFlipRate = 2e-3;
    cfg.transient.orFlipRate = 1e-3;
    cfg.transient.packetCorruptRate = 0.05;
    cfg.transient.seed = 0xBEEF;
    return cfg;
}

/** Burst at admission 6 (repairable), tile kill at admission 14
 *  (degrades) — spaced wider than the grace window below. */
serve::FaultTimeline
soakTimeline()
{
    serve::FaultTimeline t;
    t.events.push_back(serve::FaultEvent{
        serve::FaultKind::StuckBurst, /*atAdmission=*/6, /*layer=*/0,
        /*group=*/0, /*rs=*/0, /*cs=*/0, /*cells=*/3, /*seed=*/99});
    t.events.push_back(serve::FaultEvent{
        serve::FaultKind::TileKill, /*atAdmission=*/14, /*layer=*/0,
        /*group=*/0, /*rs=*/0, /*cs=*/0, /*cells=*/1, /*seed=*/7});
    return t;
}

serve::WatchdogPolicy
soakPolicy()
{
    serve::WatchdogPolicy p;
    p.detectionGraceAdmissions = 4;
    return p;
}

struct SoakRun
{
    int workers = 0;
    double throughput = 0;      ///< img/s with faults + recovery
    double cleanThroughput = 0; ///< img/s of the fault-free twin run
    double dip = 0;             ///< throughput / cleanThroughput
    std::vector<double> recoveryLatencyMs; ///< per resolved event
    std::uint64_t healedRetries = 0;
    std::uint64_t healFailed = 0;
    std::uint64_t completed = 0;
    std::size_t incorrect = 0; ///< results differing from the twin
    std::size_t unresolved = 0; ///< futures that threw
    bool recovered = false;     ///< watchdog idle at drain
    std::string canonical;      ///< canonical recovery log
};

SoakRun
runSoak(const core::Accelerator &acc, const nn::Network &net,
        const nn::WeightStore &weights,
        const core::CompileOptions &opts,
        const std::vector<nn::Tensor> &inputs,
        const std::vector<nn::Tensor> &want, int workers)
{
    SoakRun run;
    run.workers = workers;

    serve::SessionOptions sopts;
    sopts.queueDepth = 4;
    sopts.workers = workers;

    { // Fault-free baseline on a twin model: the dip denominator.
        const auto clean = acc.compile(net, weights, opts);
        serve::InferenceSession session(clean, sopts);
        const auto t0 = Clock::now();
        (void)session.run(inputs);
        run.cleanThroughput = static_cast<double>(inputs.size()) /
            seconds(Clock::now() - t0);
    }

    auto model = acc.compile(net, weights, opts);
    serve::InferenceSession session(model, sopts);
    const auto timeline = soakTimeline();
    serve::HealthWatchdog watchdog(model, session, timeline,
                                   soakPolicy());

    // The soak: one poll per admission (the epoch boundary), then
    // poll until drained — parked requests wait on the watchdog.
    std::vector<Clock::time_point> injectedAt(timeline.events.size());
    std::vector<std::future<nn::Tensor>> futs;
    std::size_t resolvedSeen = 0;
    run.recoveryLatencyMs.assign(timeline.events.size(), 0.0);
    const auto observe = [&] {
        watchdog.poll();
        const auto now = Clock::now();
        const std::uint64_t admitted = session.stats().submitted;
        for (std::size_t e = 0; e < timeline.events.size(); ++e) {
            if (injectedAt[e] == Clock::time_point{} &&
                admitted >= timeline.events[e].atAdmission)
                injectedAt[e] = now;
        }
        const auto log = watchdog.log();
        for (; resolvedSeen < log.records.size(); ++resolvedSeen) {
            const auto &rec = log.records[resolvedSeen];
            const auto idx =
                static_cast<std::size_t>(rec.eventIndex);
            run.recoveryLatencyMs[idx] =
                1e3 * seconds(now - injectedAt[idx]);
        }
    };

    const auto t0 = Clock::now();
    for (const auto &input : inputs) {
        futs.push_back(session.submit(input));
        observe();
    }
    while (session.inFlight() > 0) {
        observe();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    observe();
    run.throughput = static_cast<double>(inputs.size()) /
        seconds(Clock::now() - t0);
    run.dip = run.throughput / run.cleanThroughput;

    run.recovered = watchdog.idle();
    run.canonical = watchdog.log().canonicalJson();
    for (std::size_t i = 0; i < futs.size(); ++i) {
        try {
            if (futs[i].get().raw() != want[i].raw())
                ++run.incorrect;
        } catch (...) {
            ++run.unresolved;
        }
    }
    const auto stats = session.stats();
    run.healedRetries = stats.healedRetries;
    run.healFailed = stats.healFailed;
    run.completed = stats.completed;
    session.shutdown();
    return run;
}

void
writeJson(const std::vector<SoakRun> &runs, bool recoveryComplete,
          std::size_t incorrect, bool canonicalInvariant)
{
    std::FILE *f = std::fopen("BENCH_selfheal.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_selfheal: cannot write "
                     "BENCH_selfheal.json\n");
        return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"selfheal\",\n"
                 "  \"workload\": \"tinyCnn\",\n"
                 "  \"images\": %d,\n"
                 "  \"host_threads\": %u,\n"
                 "  \"timeline\": [\"stuck-burst@6\", "
                 "\"tile-kill@14\"],\n"
                 "  \"runs\": [",
                 kImages, bench::hostThreads());
    bool first = true;
    for (const auto &r : runs) {
        std::fprintf(
            f,
            "%s\n    {\"workers\": %d, \"throughput\": %.2f, "
            "\"clean_throughput\": %.2f, \"dip\": %.3f, "
            "\"recovery_latency_ms\": [%.3f, %.3f], "
            "\"healed_retries\": %llu, \"heal_failed\": %llu, "
            "\"completed\": %llu}",
            first ? "" : ",", r.workers, r.throughput,
            r.cleanThroughput, r.dip, r.recoveryLatencyMs[0],
            r.recoveryLatencyMs[1],
            static_cast<unsigned long long>(r.healedRetries),
            static_cast<unsigned long long>(r.healFailed),
            static_cast<unsigned long long>(r.completed));
        first = false;
    }
    std::fprintf(f,
                 "\n  ],\n  \"canonical\": %s,\n"
                 "  \"gate\": {\n"
                 "    \"recovery_complete\": %s,\n"
                 "    \"incorrect_results\": %zu,\n"
                 "    \"canonical_invariant\": %s\n  }\n}\n",
                 runs.empty() ? "{}" : runs.front().canonical.c_str(),
                 recoveryComplete ? "true" : "false", incorrect,
                 canonicalInvariant ? "true" : "false");
    std::fclose(f);
}

void
printSelfhealStudy()
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 4242);
    const core::CompileOptions opts;
    const core::Accelerator acc(selfhealConfig());
    const auto inputs =
        bench::makeServeInputs(net, kImages, opts.format);

    // Fault-free ground truth, one result per submission position.
    const auto twin = acc.compile(net, weights, opts);
    std::vector<nn::Tensor> want;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        want.push_back(twin.inferAllKeyed(inputs[i], i).back());

    std::printf("=== Self-healing soak: scripted stuck burst + tile "
                "kill under live serving (TinyCNN, %d images) "
                "===\n\n",
                kImages);
    std::printf("%-8s %10s %12s %7s %12s %12s %8s %7s\n", "workers",
                "img/s", "clean img/s", "dip", "burst rec ms",
                "kill rec ms", "healed", "exact");

    const auto runs = bench::sweepWorkers(kWorkers, [&](int workers) {
        auto run = runSoak(acc, net, weights, opts, inputs, want,
                           workers);
        std::printf(
            "%-8d %10.1f %12.1f %6.2fx %12.3f %12.3f %8llu %7s\n",
            run.workers, run.throughput, run.cleanThroughput,
            run.dip, run.recoveryLatencyMs[0],
            run.recoveryLatencyMs[1],
            static_cast<unsigned long long>(run.healedRetries),
            run.incorrect + run.unresolved == 0 ? "yes" : "NO");
        return run;
    });

    bool recoveryComplete = true;
    bool canonicalInvariant = true;
    std::size_t incorrect = 0;
    for (const auto &r : runs) {
        recoveryComplete = recoveryComplete && r.recovered &&
            r.healFailed == 0 && r.unresolved == 0;
        incorrect += r.incorrect;
        canonicalInvariant = canonicalInvariant &&
            r.canonical == runs.front().canonical;
    }
    std::printf("\ngate: recovery %s, %zu incorrect results, "
                "canonical log %s across worker counts\n\n",
                recoveryComplete ? "complete" : "INCOMPLETE",
                incorrect,
                canonicalInvariant ? "byte-identical"
                                   : "DIVERGENT");
    writeJson(runs, recoveryComplete, incorrect, canonicalInvariant);
}

void
BM_SelfhealSoak(benchmark::State &state)
{
    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 4242);
    const core::CompileOptions opts;
    const core::Accelerator acc(selfhealConfig());
    const auto inputs =
        bench::makeServeInputs(net, kImages, opts.format);
    const int workers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto model = acc.compile(net, weights, opts);
        serve::SessionOptions sopts;
        sopts.queueDepth = 4;
        sopts.workers = workers;
        serve::InferenceSession session(model, sopts);
        serve::HealthWatchdog watchdog(model, session,
                                       soakTimeline(), soakPolicy());
        std::vector<std::future<nn::Tensor>> futs;
        for (const auto &input : inputs) {
            futs.push_back(session.submit(input));
            watchdog.poll();
        }
        while (session.inFlight() > 0) {
            watchdog.poll();
            std::this_thread::sleep_for(
                std::chrono::microseconds(100));
        }
        for (auto &fut : futs)
            benchmark::DoNotOptimize(fut.get());
        session.shutdown();
    }
    state.SetItemsProcessed(state.iterations() * kImages);
}
BENCHMARK(BM_SelfhealSoak)->Arg(1)->Arg(2)->Arg(4);

} // namespace

int
main(int argc, char **argv)
{
    printSelfhealStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
