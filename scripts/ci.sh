#!/usr/bin/env bash
# CI gate: build + full test suite, then rebuild the concurrency-
# sensitive subsystems under ThreadSanitizer and rerun their suites,
# then under AddressSanitizer for the pointer-heavy fault-handling
# paths, then under UBSan for the transient-error layer's checksum /
# backoff / ECC bit arithmetic. TSan proves the BitSerialEngine
# thread-safety contract (docs/threading.md) rather than trusting
# code review; ASan guards the resilience layer's column remapping
# and fault-map indexing; UBSan guards the shift/modulo-heavy
# detect-and-retry machinery.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== normal build + full suite =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== static layout audit: false-sharing padding =="
# tests/common/test_layout.cc is a wall of static_asserts on the
# cache-line geometry of the hot shared structures (EpochLog slots,
# engine tiles): it can only pass by compiling, so the build
# above already enforced it.
# Run the registered test anyway so the audit shows up green in CI
# output rather than passing silently.
./build/tests/test_common --gtest_filter='Layout.*'

echo "== kernel tier TUs: no weak kernel::detail symbols =="
# The tier translation units compile batch_kernel_impl.h under
# different -m flags. A helper with external linkage there leaves one
# weak copy per TU and the linker keeps an arbitrary one, so the
# baseline tier could run POPCNT/AVX-512 code (SIGILL on hosts without
# it, and forceTier(Scalar) comparing a tier with itself). -O0 keeps
# every inline helper out of line, so any such symbol shows up as W.
odr_dir="$(mktemp -d)"
for tu in "batch_kernel.cc:" \
          "batch_kernel_popcnt.cc:-mpopcnt" \
          "batch_kernel_avx2.cc:-mavx2 -mpopcnt" \
          "batch_kernel_avx512.cc:-mavx512f -mavx512bw -mavx512vpopcntdq -mpopcnt"; do
    src="${tu%%:*}"
    # shellcheck disable=SC2086 # the flag list splits on purpose
    if ! ${CXX:-c++} -std=c++20 -O0 -Isrc ${tu#*:} \
            -c "src/xbar/$src" -o "$odr_dir/${src%.cc}.o" 2>/dev/null; then
        echo "  (skipping $src: the compiler rejects its ISA flags)"
    fi
done
if nm -C "$odr_dir"/*.o | grep " W " | grep "kernel::detail"; then
    rm -rf "$odr_dir"
    echo "kernel ODR gate FAILED: weak kernel::detail symbols above"
    exit 1
fi
rm -rf "$odr_dir"

echo "== perf-regression gate: packed path vs scalar =="
# bench_crossbar writes BENCH_crossbar.json (the gated clean-128
# record) before running any google-benchmark cases; a filter matching nothing keeps
# this step fast. On a clean 128x128 array the packed path must beat
# the scalar row loop at n = 1 (dotProduct) and at n = 64
# (dotProductBatch, per window), and the 64-window batch must not be
# slower per window than n = 1. A drop means the fast path stopped
# engaging (dispatch regression) or a kernel shape degraded.
(cd build && ./bench/bench_crossbar \
    --benchmark_filter='^$' >/dev/null)
python3 - <<'EOF'
import json
with open("build/BENCH_crossbar.json") as f:
    bench = json.load(f)
gate = bench["clean_128"]
print("clean_128: scalar %.0f ns, fast %.0f ns, batched %.0f ns/window "
      "[%s] (fast %.2fx, batched %.2fx over scalar, %.2fx over fast)" %
      (gate["scalar_ns"], gate["fast_ns"], gate["batched_ns"],
       gate["kernel_tier"], gate["fast_speedup"],
       gate["batched_vs_scalar"], gate["batched_speedup"]))
# Host-aware thresholds: with a dispatch tier above scalar compiled
# and detected, n = 1 must hold 15x and the batch 25x over scalar; a
# host stuck on the scalar tier (software popcount) keeps the 5x n = 1
# floor. Everywhere the batch must at least match n = 1 per window.
simd = gate["kernel_tier"] != "scalar"
gates = [("fast_speedup", 15.0 if simd else 5.0),
         ("batched_vs_scalar", 25.0 if simd else 0.0),
         ("batched_speedup", 1.0)]
for key, need in gates:
    if gate[key] < need:
        raise SystemExit(
            "perf gate FAILED: clean-128 %s is %.2fx on kernel tier "
            "'%s' (gate: %.1fx)" % (key, gate[key],
                                    gate["kernel_tier"], need))
EOF

echo "== serving perf gate: pipelined session vs sequential batch =="
# bench_serving writes BENCH_serving.json (throughput + p50/p99 over
# queue depth x workers) before its google-benchmark cases; the gate
# is host-aware because the request pipeline only overlaps work — it
# adds none — so a single-hardware-thread host can at best tie the
# sequential walk (expected_speedup 0.9x no-regression there, 1.5x
# wherever >= 2 host threads exist).
(cd build && ./bench/bench_serving \
    --benchmark_filter='^$' >/dev/null)
python3 - <<'EOF'
import json
with open("build/BENCH_serving.json") as f:
    bench = json.load(f)
gate = bench["gate"]
print("serving: depth-%d pipelined %.1f img/s vs sequential %.1f "
      "img/s (%.2fx, expected >= %.2fx on %d host threads)" %
      (gate["queue_depth"], gate["pipelined_throughput"],
       bench["sequential_throughput"], gate["speedup"],
       gate["expected_speedup"], bench["host_threads"]))
if gate["speedup"] < gate["expected_speedup"]:
    raise SystemExit(
        "perf gate FAILED: depth-%d session pipeline is %.2fx over "
        "the sequential walk (gate: %.2fx)" %
        (gate["queue_depth"], gate["speedup"],
         gate["expected_speedup"]))
# Host-aware worker-scaling gate: the session's ready queue must
# turn added workers into throughput. On a host with >= 8 hardware
# threads the 8-worker depth-16 point has to reach 6x the sequential
# walk; a smaller host cannot run 8 workers concurrently, so the gate
# degrades to the same no-regression floor as the pipeline gate.
# That disarmed floor proves nothing about scaling, so say so loudly
# instead of letting the green line imply an 8-worker win.
scaling = bench["scaling_gate"]
if bench["host_threads"] < 8:
    print("*" * 66)
    print("* NOTICE: only %d hardware threads — the 6x worker-"
          "scaling gate" % bench["host_threads"])
    print("* is DISARMED (no-regression floor only). Scaling is NOT "
          "being")
    print("* verified here; any committed reference record for "
          "bench_serving")
    print("* must come from a >= 8-core host (see bench/"
          "bench_serving.cc).")
    print("*" * 66)
print("scaling: depth-%d workers-%d %.1f img/s (%.2fx sequential, "
      "expected >= %.2fx on %d host threads)" %
      (scaling["queue_depth"], scaling["workers"],
       scaling["throughput"], scaling["speedup_vs_sequential"],
       scaling["expected_speedup"], bench["host_threads"]))
if scaling["speedup_vs_sequential"] < scaling["expected_speedup"]:
    raise SystemExit(
        "perf gate FAILED: %d-worker depth-%d session is %.2fx over "
        "the sequential walk (scaling gate: %.2fx on %d host "
        "threads)" %
        (scaling["workers"], scaling["queue_depth"],
         scaling["speedup_vs_sequential"],
         scaling["expected_speedup"], bench["host_threads"]))
for a, b in zip(bench["scaling"], bench["scaling"][1:]):
    if a["workers"] >= b["workers"]:
        raise SystemExit(
            "perf gate FAILED: scaling column is not swept in "
            "increasing worker order")
EOF

echo "== campaign gate: Monte Carlo fault-injection lab =="
# bench_campaign sweeps the default scenario suite (>= 500 grid
# points over write/read noise x stuck cells x spares x ADC bits,
# plus a focused drift grid) and writes BENCH_campaign.json before
# its google-benchmark cases. The gate pins the two invariants the
# lab stands on: the suite really is >= 500 scenarios, and the
# zero-noise scenarios agree with the fixed-point reference exactly
# (min agreement 1.0, zero relative error). Batch 2 bounds the
# sweep's runtime on slow hosts; the report content is deterministic
# at any batch, only the number of scored images changes.
(cd build && ISAAC_CAMPAIGN_BATCH=2 ./bench/bench_campaign \
    --benchmark_filter='^$' >/dev/null)
python3 - <<'EOF'
import json
with open("build/BENCH_campaign.json") as f:
    bench = json.load(f)
camp = bench["campaign"]
zero = camp["zero_noise"]
print("campaign: %d scenarios, zero-noise min agreement %.4f "
      "(max rel err %g), pareto frontier %d" %
      (camp["scenario_count"], zero["min_agreement"],
       zero["max_rel_err"], len(camp["pareto_frontier"])))
if camp["scenario_count"] < 500:
    raise SystemExit(
        "campaign gate FAILED: only %d scenarios (gate: >= 500)"
        % camp["scenario_count"])
if zero["min_agreement"] != 1.0 or zero["max_rel_err"] != 0:
    raise SystemExit(
        "campaign gate FAILED: zero-noise scenarios diverge from "
        "the fixed-point reference (min agreement %s, max rel err "
        "%s)" % (zero["min_agreement"], zero["max_rel_err"]))
EOF

echo "== DSE gate: adaptive-ADC frontier vs the paper design points =="
# bench_dse sweeps the Fig. 5 grid crossed with the ADC-policy and
# heterogeneous-IMA axes and writes BENCH_dse.json before its
# google-benchmark cases. The gate pins the two claims the policy
# surface stands on: at least one adaptive-policy frontier point
# strictly beats the fixed 8-bit ISAAC-CE replay on GOPS/W, and the
# lossless adaptive policy's functional run (TinyCNN, clean campaign
# scenario) shows a zero accuracy delta against the fixed-point
# reference. The sweep is deterministic, so the frontier is
# byte-identical at any thread count (tests/dse pins that too).
(cd build && ./bench/bench_dse --benchmark_filter='^$' >/dev/null)
python3 - <<'EOF'
import json
with open("build/BENCH_dse.json") as f:
    bench = json.load(f)
gate = bench["gate"]
print("dse: pareto frontier %d points; best adaptive %s at %.2f "
      "GOPS/W vs fixed ISAAC-CE %.2f; lossless max rel %g" %
      (len(bench["pareto_front"]), gate["best_adaptive_label"],
       gate["best_adaptive_pe_gops_w"], gate["fixed_ce_pe_gops_w"],
       gate["lossless_max_rel"]))
if not gate["pe_dominance"]:
    raise SystemExit(
        "dse gate FAILED: no adaptive frontier point beats the "
        "fixed 8-bit ISAAC-CE replay on GOPS/W (best adaptive "
        "%.2f vs %.2f)" % (gate["best_adaptive_pe_gops_w"],
                           gate["fixed_ce_pe_gops_w"]))
if not gate["lossless_exact"]:
    raise SystemExit(
        "dse gate FAILED: the lossless adaptive policy diverged "
        "from the fixed-point reference (max rel %s, agreement %s "
        "-- 'lossless' must mean bit-exact)" %
        (gate["lossless_max_rel"], gate["lossless_agreement"]))
EOF

echo "== self-heal gate: scripted faults repaired under live serving =="
# bench_selfheal soaks the streaming session through both scripted
# fault timelines (stuck-cell burst -> spare remap; tile kill ->
# degrade + plan migration) at 1/2/4 workers and writes
# BENCH_selfheal.json. The gate pins the three invariants the
# self-healing layer stands on: every scripted fault is detected and
# resolved while serving continues, every completed request is
# bit-exact against a fault-free twin (zero silently-wrong results),
# and the canonical recovery log is byte-identical across worker
# counts for the fixed seed.
(cd build && ./bench/bench_selfheal \
    --benchmark_filter='^$' >/dev/null)
python3 - <<'EOF'
import json
with open("build/BENCH_selfheal.json") as f:
    bench = json.load(f)
gate = bench["gate"]
resolved = bench["canonical"]["resolved"]
print("selfheal: %d faults resolved, recovery_complete=%s, "
      "incorrect_results=%d, canonical_invariant=%s" %
      (resolved, gate["recovery_complete"],
       gate["incorrect_results"], gate["canonical_invariant"]))
if not gate["recovery_complete"]:
    raise SystemExit(
        "selfheal gate FAILED: a scripted fault was not detected "
        "and repaired (or a request failed its heal retries)")
if gate["incorrect_results"] != 0:
    raise SystemExit(
        "selfheal gate FAILED: %d completed requests diverged from "
        "the fault-free twin (must be zero — silently-wrong results)"
        % gate["incorrect_results"])
if not gate["canonical_invariant"]:
    raise SystemExit(
        "selfheal gate FAILED: the canonical recovery log differs "
        "across worker counts (nondeterministic repair)")
if resolved != 2:
    raise SystemExit(
        "selfheal gate FAILED: expected both timeline events "
        "resolved, got %d" % resolved)
EOF

echo "== ThreadSanitizer build =="
cmake -B build-tsan -S . -DISAAC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j \
    --target test_common test_xbar test_sim test_resilience \
    test_plan test_serve test_selfheal \
    >/dev/null

echo "== TSan: thread pool / engine / sim / resilience suites =="
# TSAN_OPTIONS makes any reported race fail the run loudly.
export TSAN_OPTIONS="halt_on_error=1 abort_on_error=1"
./build-tsan/tests/test_common
./build-tsan/tests/test_xbar
./build-tsan/tests/test_sim
./build-tsan/tests/test_resilience

echo "== TSan: execution-plan IR + streaming session suites =="
# The session pipelines requests across pool workers while merging
# stats; TSan proves the scheduler's locking discipline instead of
# trusting the parity tests alone. (The VGG-1 walk is filtered: it
# is a single-threaded equivalence check and dominates runtime.)
./build-tsan/tests/test_plan --gtest_filter='-*Vgg1*'
./build-tsan/tests/test_serve

echo "== TSan: self-healing watchdog suite (repair lock discipline) =="
# The watchdog's exclusive repair quarantine races live layer-steps
# on the shared side of the repair lock, and the shutdown test
# races session teardown against an in-flight repair at 1/2/4/8
# workers; TSan proves the _repairMtx -> _mtx lock discipline.
./build-tsan/tests/test_selfheal

echo "== AddressSanitizer build =="
cmake -B build-asan -S . -DISAAC_SANITIZE=address >/dev/null
cmake --build build-asan -j \
    --target test_common test_xbar test_sim test_resilience \
    test_plan test_serve test_selfheal test_campaign test_dse \
    test_energy test_noc test_core \
    >/dev/null

echo "== ASan: thread pool / engine / sim / resilience suites =="
export ASAN_OPTIONS="halt_on_error=1 abort_on_error=1"
./build-asan/tests/test_common
./build-asan/tests/test_xbar
./build-asan/tests/test_sim
./build-asan/tests/test_resilience

echo "== ASan: execution-plan IR + streaming session suites =="
# Requests hand tensors between threads through the ready queue and
# promises; ASan guards the request lifetime across that hand-off.
./build-asan/tests/test_plan --gtest_filter='-*Vgg1*'
./build-asan/tests/test_serve

echo "== ASan: self-healing watchdog suite (request lifetimes) =="
# Heal retries re-queue requests through park/release hand-offs and
# the degrade path rebuilds engines under live traffic; ASan guards
# the request and engine lifetimes across both.
./build-asan/tests/test_selfheal

echo "== ASan: Monte Carlo smoke campaign (determinism + gate) =="
# The smoke-grid campaign (3 write-noise levels x 3 stuck rates on
# TinyCNN) runs at 1/2/4/8 workers and in a scrambled order inside
# this suite; the byte-identical-report assertion and the zero-noise
# exactness gate both execute under ASan, guarding the scenario
# fan-out's request/result lifetimes.
./build-asan/tests/test_campaign

echo "== ASan: DSE sweep + energy-pricing suites (policy surface) =="
# The DSE sweep fans candidate evaluations across the pool into a
# shared results vector and the energy catalog composes per-policy
# prices; ASan guards the candidate-grid indexing and the byte-
# stable-frontier comparisons.
./build-asan/tests/test_dse
./build-asan/tests/test_energy

echo "== ASan: transient-error campaigns (ECC / NoC retry) =="
./build-asan/tests/test_noc --gtest_filter='Crc.*:Packet.*:Ecc.*'
# Accelerator.* starts pool workers from InferenceSession (through
# inferBatch) that exit during static destruction; a clean exit here
# guards the epoch-log thread-slot registry's lifetime.
./build-asan/tests/test_core --gtest_filter='Accelerator.*:TransientE2e.*'

echo "== UndefinedBehaviorSanitizer build =="
cmake -B build-ubsan -S . -DISAAC_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j \
    --target test_xbar test_noc test_resilience test_sim test_core \
    test_serve test_selfheal test_campaign test_dse test_energy \
    >/dev/null

echo "== UBSan: transient-error campaigns + host suites =="
export UBSAN_OPTIONS="halt_on_error=1 abort_on_error=1 \
print_stacktrace=1"
./build-ubsan/tests/test_xbar
./build-ubsan/tests/test_noc
./build-ubsan/tests/test_resilience
./build-ubsan/tests/test_sim
./build-ubsan/tests/test_core --gtest_filter='TransientE2e.*'

echo "== UBSan: serving + self-heal + campaign suites =="
# The self-heal layer leans on shift/mask arithmetic (layer bitmasks,
# generation counters, rail-level encoding) and the campaign parser
# on from_chars range handling; UBSan guards both, plus the session
# scheduler's index arithmetic under heal retries.
./build-ubsan/tests/test_serve
./build-ubsan/tests/test_selfheal
./build-ubsan/tests/test_campaign

echo "== UBSan: DSE sweep + energy-pricing suites (policy surface) =="
# The adaptive resolution law is shift-and-clamp arithmetic
# (log2Ceil bounds, (1 << bits) - 1 ceilings, fractional-bit energy
# interpolation); UBSan guards the whole ladder from resolutionFor
# through the catalog's expected-depth pricing.
./build-ubsan/tests/test_dse
./build-ubsan/tests/test_energy

echo "ci.sh: all green"
