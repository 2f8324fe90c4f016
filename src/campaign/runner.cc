#include "campaign/runner.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/accelerator.h"
#include "nn/zoo.h"
#include "serve/session.h"

namespace isaac::campaign {

nn::Network
buildNetwork(const std::string &name)
{
    if (name == "tinycnn")
        return nn::tinyCnn();
    if (name == "vgg1" || name == "vgg2" || name == "vgg3" ||
        name == "vgg4")
        return nn::vgg(name.back() - '0');
    if (name == "msra1" || name == "msra2" || name == "msra3")
        return nn::msra(name.back() - '0');
    if (name == "deepface")
        return nn::deepFace();
    if (name == "dnn")
        return nn::largeDnn();
    if (name == "alexnet")
        return nn::alexNetNoLrn();
    fatal("campaign: unknown network '" + name +
          "' (expected tinycnn, vgg1-4, msra1-3, deepface, dnn, or "
          "alexnet)");
}

nn::WeightStore
synthesizeStructuredWeights(const nn::Network &net,
                            std::uint64_t seed)
{
    nn::WeightStore store(net.size());
    int depth = 0; // Dot-product layers seen so far.
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &l = net.layer(i);
        if (!l.isDotProduct())
            continue;
        Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
        auto &vec = store.layerMutable(i);
        vec.resize(static_cast<std::size_t>(l.weightCount()));
        // Trained networks concentrate magnitude in early layers and
        // around zero; reproduce both so faults hit a realistic
        // distribution instead of uniform noise.
        const double layerScale =
            9000.0 / (1.0 + 0.4 * static_cast<double>(depth));
        const std::int64_t len = l.dotLength();
        const std::int64_t windows =
            l.privateKernel ? l.windowsPerImage() : 1;
        for (std::int64_t w = 0; w < windows; ++w) {
            for (int k = 0; k < l.no; ++k) {
                // Smooth per-output-channel gain in [0.5, 1.5).
                const double gain = 0.5 + rng.uniform01();
                for (std::int64_t r = 0; r < len; ++r) {
                    // ~30% of weights pruned to a small-value mass.
                    const bool pruned = rng.uniform01() < 0.3;
                    const double mag = pruned ? 0.02 : 0.25;
                    const double v =
                        rng.gaussian() * layerScale * gain * mag;
                    const double clamped = std::clamp(
                        v, -32768.0, 32767.0);
                    vec[nn::WeightStore::index(l, w, k, r)] =
                        static_cast<Word>(std::lround(clamped));
                }
            }
        }
        ++depth;
    }
    return store;
}

namespace {

/** Top-1 class: index of the maximum word (first on ties). */
int
argmax(const nn::Tensor &t)
{
    const auto &data = t.raw();
    if (data.empty())
        return -1;
    std::size_t best = 0;
    for (std::size_t i = 1; i < data.size(); ++i)
        if (data[i] > data[best])
            best = i;
    return static_cast<int>(best);
}

} // namespace

Runner::Runner(const std::string &network, std::uint64_t masterSeed,
               RunnerOptions opts)
    : _name(network), _seed(masterSeed), _opts(opts),
      _net(buildNetwork(network)),
      _weights(synthesizeStructuredWeights(
          _net, masterSeed ^ 0x5EED5EED5EED5EEDull))
{
    if (_opts.batch < 1)
        fatal("campaign::Runner: batch must be >= 1");
    const FixedFormat fmt{12};
    const auto &first = _net.layer(0);
    _inputs.reserve(static_cast<std::size_t>(_opts.batch));
    for (int i = 0; i < _opts.batch; ++i) {
        _inputs.push_back(nn::synthesizeInput(
            first.ni, first.nx, first.ny,
            masterSeed + 0x9E3779B97F4A7C15ull *
                (static_cast<std::uint64_t>(i) + 1),
            fmt));
    }
    // Ground truth once per workload, not per scenario.
    const nn::ReferenceExecutor ref(_net, _weights, fmt,
                                    /*threads=*/1);
    _ref.reserve(_inputs.size());
    _truth.reserve(_inputs.size());
    for (const auto &input : _inputs) {
        _ref.push_back(ref.runAll(input));
        _truth.push_back(argmax(_ref.back().back()));
    }
}

ScenarioResult
Runner::evaluate(const Scenario &s) const
{
    ScenarioResult res;
    res.scenario = s;
    res.batch = static_cast<int>(_inputs.size());

    // Campaign parallelism is scenario-major: one session worker per
    // scenario keeps every counter and noise draw independent of the
    // campaign thread count.
    core::Accelerator acc(s.config());
    auto model = acc.compile(_net, _weights, {});
    model.resetForScenario();
    if (s.driftPerOp > 0.0 && s.driftAge > 0)
        model.ageArrays(s.driftAge);

    serve::SessionOptions so;
    so.queueDepth = _inputs.size();
    so.workers = 1;
    so.defaultDeadline = _opts.scenarioDeadline;
    serve::InferenceSession session(model, so);
    std::vector<std::future<std::vector<nn::Tensor>>> futs;
    futs.reserve(_inputs.size());
    for (const auto &input : _inputs)
        futs.push_back(session.submitAll(input));
    session.drain();

    std::vector<double> sumRel;
    std::vector<std::uint64_t> relCount;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        std::vector<nn::Tensor> outs;
        try {
            outs = futs[i].get();
        } catch (const serve::DeadlineExceeded &) {
            res.timedOut = true;
            continue;
        }
        ++res.completed;
        const auto &ref = _ref[i];
        const std::size_t n = std::min(outs.size(), ref.size());
        if (res.layers.size() < n) {
            res.layers.resize(n);
            sumRel.resize(n, 0.0);
            relCount.resize(n, 0);
        }
        for (std::size_t li = 0; li < n; ++li) {
            auto &div = res.layers[li];
            const auto &a = outs[li].raw();
            const auto &b = ref[li].raw();
            const std::size_t words = std::min(a.size(), b.size());
            for (std::size_t w = 0; w < words; ++w) {
                const double abs = std::abs(
                    static_cast<double>(a[w]) -
                    static_cast<double>(b[w]));
                const double rel = abs /
                    std::max(1.0,
                             std::abs(static_cast<double>(b[w])));
                div.maxAbs = std::max(div.maxAbs, abs);
                div.maxRel = std::max(div.maxRel, rel);
                sumRel[li] += rel;
                ++relCount[li];
            }
        }
        if (!outs.empty() && argmax(outs.back()) == _truth[i])
            ++res.top1Matches;
    }
    for (std::size_t li = 0; li < res.layers.size(); ++li) {
        res.layers[li].meanRel = relCount[li]
            ? sumRel[li] / static_cast<double>(relCount[li])
            : 0.0;
        res.maxRel = std::max(res.maxRel, res.layers[li].maxRel);
    }
    // Name the divergence records after the network's layers (the
    // session yields one output per layer, in layer order).
    for (std::size_t li = 0;
         li < res.layers.size() && li < _net.size(); ++li)
        res.layers[li].layer = _net.layer(li).name;
    if (!res.layers.empty())
        res.finalMeanRel = res.layers.back().meanRel;
    res.agreement = res.completed
        ? static_cast<double>(res.top1Matches) /
            static_cast<double>(res.completed)
        : 0.0;

    res.resilience = model.resilienceSummary();
    const auto &perf = model.perf();
    res.imagesPerSec = perf.imagesPerSec;
    res.energyPerImageJ = perf.energyPerImageJ;
    res.powerW = perf.powerW;
    return res;
}

ScenarioResult
Runner::runScenario(const Scenario &s) const
{
    if (s.network != _name) {
        fatal("campaign::Runner: scenario names network '" +
              s.network + "' but this runner serves '" + _name +
              "'");
    }
    if (s.masterSeed != _seed) {
        fatal("campaign::Runner: scenario master seed does not match "
              "this runner (replay requires the campaign's seed)");
    }
    return evaluate(s);
}

Report
Runner::run(const Grid &grid) const
{
    return run(std::vector<Grid>{grid});
}

Report
Runner::run(const std::vector<Grid> &grids) const
{
    std::vector<Scenario> scenarios;
    std::unordered_set<std::string> ids;
    for (const auto &grid : grids) {
        if (grid.network != _name) {
            fatal("campaign::Runner: grid names network '" +
                  grid.network + "' but this runner serves '" +
                  _name + "'");
        }
        for (auto &s : grid.enumerate(_seed))
            if (ids.insert(s.id()).second)
                scenarios.push_back(std::move(s));
    }
    if (_opts.scenarioBudget > 0 &&
        scenarios.size() > _opts.scenarioBudget) {
        scenarios = sampleScenarios(std::move(scenarios),
                                    _opts.scenarioBudget,
                                    _seed ^ 0xB0D6E77ACC0417F3ull);
    }

    // Evaluation order is a performance detail, never a semantic
    // one: results land at their enumeration index. The scramble
    // knob exists so tests can pin exactly that.
    std::vector<std::size_t> order(scenarios.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    if (_opts.scramble) {
        Rng rng(_seed ^ 0x5C7A3B1EULL);
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<std::size_t>(rng.uniform(
                          0, static_cast<int>(i) - 1))]);
    }

    Report report;
    report.network = _name;
    report.masterSeed = _seed;
    report.batch = static_cast<int>(_inputs.size());
    report.gridPoints = static_cast<int>(scenarios.size());
    report.scenarios.resize(scenarios.size());
    parallelFor(static_cast<std::int64_t>(scenarios.size()),
                _opts.threads, [&](std::int64_t i, int) {
                    const std::size_t idx =
                        order[static_cast<std::size_t>(i)];
                    report.scenarios[idx] =
                        evaluate(scenarios[idx]);
                });
    report.finalize();
    return report;
}

} // namespace isaac::campaign
