#include "core/accelerator.h"

#include "arch/edram.h"
#include "common/logging.h"
#include "noc/packet.h"
#include "serve/session.h"

namespace isaac::core {

namespace {

/** Stream key of one logical transfer: (image, layer, buffer). */
std::uint64_t
transferKey(std::uint64_t imageKey, std::size_t layer, int kind)
{
    return (imageKey << 24) +
        (static_cast<std::uint64_t>(layer) << 8) +
        static_cast<std::uint64_t>(kind);
}

} // namespace

Accelerator::Accelerator(arch::IsaacConfig cfg) : cfg(cfg)
{
    cfg.validate();
}

CompiledModel
Accelerator::compile(const nn::Network &net,
                     const nn::WeightStore &weights,
                     CompileOptions opts) const
{
    return CompiledModel(net, weights, cfg, opts);
}

CompiledModel::CompiledModel(const nn::Network &net,
                             const nn::WeightStore &weights,
                             const arch::IsaacConfig &cfg,
                             CompileOptions opts)
    : net(net), weights(weights), cfg(cfg), opts(opts),
      _plan(pipeline::planPipeline(net, cfg, opts.chips)),
      _ir(pipeline::ExecutionPlan::lower(net, _plan)),
      lut(opts.format)
{
    const energy::IsaacEnergyModel model(cfg);
    _perf = pipeline::analyzeIsaac(net, _plan, model);

    if (!opts.functional)
        return;
    if (weights.size() != net.size())
        fatal("compile: weight store does not match the network");

    poolExec = std::make_unique<nn::ReferenceExecutor>(
        net, weights, opts.format, /*threads=*/1);
    engines.resize(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
        const auto &l = net.layer(i);
        if (!l.isDotProduct())
            continue;
        const auto &w = weights.layer(i);
        const auto len = static_cast<int>(l.dotLength());
        const std::int64_t groups =
            l.privateKernel ? l.windowsPerImage() : 1;
        auto &layerEngines = engines[i];
        layerEngines.reserve(static_cast<std::size_t>(groups));
        for (std::int64_t g = 0; g < groups; ++g) {
            const std::size_t base =
                nn::WeightStore::index(l, g, 0, 0);
            layerEngines.push_back(
                std::make_unique<xbar::BitSerialEngine>(
                    engineConfigFor(i, g),
                    std::span<const Word>(
                        w.data() + base,
                        static_cast<std::size_t>(l.no) * len),
                    len, l.no));
        }
    }
}

xbar::EngineConfig
CompiledModel::engineConfigFor(std::size_t layerIdx,
                               std::int64_t group) const
{
    // Each engine instance models distinct physical arrays, so
    // decorrelate its fault/noise streams per (layer, window group);
    // the clean path is unaffected. degradeDotLayer() rebuilds
    // through this same recipe, so a replacement engine draws the
    // streams a fresh compile would.
    auto engineCfg = cfg.engine;
    if (engineCfg.noise.anyEnabled()) {
        engineCfg.noise.seed ^= 0x9E3779B97F4A7C15ull *
            (static_cast<std::uint64_t>(layerIdx) * 0x10001ull +
             static_cast<std::uint64_t>(group) + 1ull);
    }
    return engineCfg;
}

nn::Tensor
CompiledModel::runDotLayer(std::size_t layerIdx,
                           const nn::Tensor &input) const
{
    const auto &l = net.layer(layerIdx);
    nn::Tensor out(l.no, l.outNx(), l.outNy());
    const std::int64_t windows =
        static_cast<std::int64_t>(l.outNx()) * l.outNy();
    const auto &shared = engines[layerIdx][0];
    if (!l.privateKernel && shared->fastPathActive()) {
        // Shared-kernel layers, one-window layers included: stage
        // every window's input vector once, then stream the whole
        // layer through one dotProductBatch() call — the engine packs
        // each row segment's digit planes into a single plane-major
        // bit-matrix and evaluates all windows per (phase, tile) in
        // one popcount GEMM. Bit-identical results and counters to
        // the per-window loop below (tests assert it).
        const int len = shared->numInputs();
        std::vector<Word> staged(
            static_cast<std::size_t>(windows) * len);
        for (std::int64_t window = 0; window < windows; ++window) {
            const int ox = static_cast<int>(window / l.outNy());
            const int oy = static_cast<int>(window % l.outNy());
            const auto inputs = nn::gatherWindow(input, l, ox, oy);
            std::copy(inputs.begin(), inputs.end(),
                      staged.begin() +
                          static_cast<std::size_t>(window) * len);
        }
        const auto sums = shared->dotProductBatch(
            staged, static_cast<int>(windows));
        for (std::int64_t window = 0; window < windows; ++window) {
            const int ox = static_cast<int>(window / l.outNy());
            const int oy = static_cast<int>(window % l.outNy());
            const Acc *row =
                sums.data() + static_cast<std::size_t>(window) * l.no;
            for (int k = 0; k < l.no; ++k) {
                const Word q = requantizeAcc(
                    row[static_cast<std::size_t>(k)], opts.format);
                out.at(k, ox, oy) =
                    nn::applyActivation(l.activation, q, lut);
            }
        }
        return out;
    }
    // Private kernels (one engine per window) and scalar-path
    // engines: one dotProduct() per window, in window order.
    for (std::int64_t window = 0; window < windows; ++window) {
        const int ox = static_cast<int>(window / l.outNy());
        const int oy = static_cast<int>(window % l.outNy());
        const auto inputs = nn::gatherWindow(input, l, ox, oy);
        const auto &engine = l.privateKernel
            ? engines[layerIdx][static_cast<std::size_t>(window)]
            : engines[layerIdx][0];
        const auto sums = engine->dotProduct(inputs);
        for (int k = 0; k < l.no; ++k) {
            const Word q = requantizeAcc(
                sums[static_cast<std::size_t>(k)], opts.format);
            out.at(k, ox, oy) =
                nn::applyActivation(l.activation, q, lut);
        }
    }
    return out;
}

void
CompiledModel::requireFunctional(const char *what) const
{
    if (!opts.functional || !poolExec) {
        fatal(std::string(what) +
              ": model was compiled with CompileOptions::functional "
              "= false (analytic plan/report only; no crossbar "
              "engines were materialized). Recompile with "
              "CompileOptions::functional = true to run inference.");
    }
}

std::uint64_t
CompiledModel::claimImageKeys(std::uint64_t count) const
{
    return _imageSeq.fetch_add(count, std::memory_order_relaxed);
}

void
CompiledModel::executeStep(const pipeline::StepNode &node,
                           nn::Tensor &cur, std::uint64_t imageKey,
                           resilience::TransientStats &local) const
{
    requireFunctional("executeStep");
    const auto &spec = cfg.transient;
    switch (node.kind) {
      case pipeline::StepKind::StageIn:
      case pipeline::StepKind::StageOut:
        // A dot layer's activations stage through the tile's eDRAM
        // buffer on the way in and the output registers on the way
        // out; both are SECDED-protected passes.
        if (spec.eccEnabled()) {
            arch::protectedPass(
                cur.raw(),
                node.kind == pipeline::StepKind::StageIn
                    ? spec.edramFlipRate
                    : spec.orFlipRate,
                transferKey(imageKey, node.layer, node.transferKind),
                spec, local);
        }
        break;
      case pipeline::StepKind::Dot:
        cur = runDotLayer(node.layer, cur);
        break;
      case pipeline::StepKind::Transfer:
        if (spec.nocEnabled()) {
            // The layer's output ships to its consumers over the
            // c-mesh as CRC-tagged packets. The functional model
            // scopes the corruption budget per transfer; persistent
            // per-link state (and the migration a dead link
            // triggers) is the chip simulator's job.
            noc::LinkState link;
            noc::sendTransfer(
                static_cast<std::int64_t>(cur.size()),
                transferKey(imageKey, node.layer, node.transferKind),
                spec, link, local);
        }
        break;
      case pipeline::StepKind::Pool:
        cur = poolExec->runLayer(node.layer, cur);
        break;
    }
}

void
CompiledModel::finishImage(const resilience::TransientStats &local)
    const
{
    if (cfg.transient.anyEnabled())
        health.add(local);
}

std::vector<nn::Tensor>
CompiledModel::inferAllKeyed(const nn::Tensor &input,
                             std::uint64_t imageKey) const
{
    requireFunctional("infer");
    resilience::TransientStats local;
    std::vector<nn::Tensor> outs;
    nn::Tensor cur = input;
    for (const auto &node : _ir.nodes()) {
        executeStep(node, cur, imageKey, local);
        if (node.layerOutput)
            outs.push_back(cur);
    }
    finishImage(local);
    return outs;
}

std::vector<nn::Tensor>
CompiledModel::inferAll(const nn::Tensor &input) const
{
    // Single-image front door of the session path: one request,
    // keyed at submission, per-layer outputs collected by the walk.
    requireFunctional("inferAll");
    serve::InferenceSession session(
        *this, serve::SessionOptions{.queueDepth = 1, .workers = 1});
    auto result = session.submitAll(input);
    session.drain();
    return result.get();
}

nn::Tensor
CompiledModel::infer(const nn::Tensor &input) const
{
    auto outs = inferAll(input);
    return std::move(outs.back());
}

std::vector<nn::Tensor>
CompiledModel::inferBatch(const std::vector<nn::Tensor> &inputs) const
{
    // Images in a batch are functionally independent (the hardware
    // pipeline keeps several in flight); pipeline them through an
    // inference session. Submission order claims the image keys, so
    // the injection streams follow batch order regardless of the
    // execution interleaving.
    requireFunctional("inferBatch");
    serve::SessionOptions sopts;
    sopts.queueDepth = std::max<std::size_t>(inputs.size(), 1);
    serve::InferenceSession session(*this, sopts);
    return session.run(inputs);
}

xbar::EngineStats
CompiledModel::engineStats() const
{
    xbar::EngineStats total;
    for (const auto &layer : engines)
        for (const auto &e : layer)
            total.merge(e->stats());
    return total;
}

std::uint64_t
CompiledModel::adcClips() const
{
    std::uint64_t clips = 0;
    for (const auto &layer : engines)
        for (const auto &e : layer)
            clips += e->adcClips();
    return clips;
}

std::int64_t
CompiledModel::engineGroupCount(std::size_t layerIdx) const
{
    if (layerIdx >= engines.size())
        return 0;
    return static_cast<std::int64_t>(engines[layerIdx].size());
}

const xbar::BitSerialEngine *
CompiledModel::engine(std::size_t layerIdx, std::int64_t group) const
{
    if (layerIdx >= engines.size() || group < 0 ||
        group >= engineGroupCount(layerIdx))
        return nullptr;
    return engines[layerIdx][static_cast<std::size_t>(group)].get();
}

xbar::BitSerialEngine *
CompiledModel::engineMut(std::size_t layerIdx, std::int64_t group)
{
    if (layerIdx >= engines.size() || group < 0 ||
        group >= engineGroupCount(layerIdx))
        return nullptr;
    return engines[layerIdx][static_cast<std::size_t>(group)].get();
}

std::int64_t
CompiledModel::degradeDotLayer(std::size_t layerIdx,
                               std::int64_t group)
{
    requireFunctional("degradeDotLayer");
    if (engineMut(layerIdx, group) == nullptr) {
        fatal("CompiledModel::degradeDotLayer: no functional engine "
              "for that (layer, group)");
    }
    const auto &l = net.layer(layerIdx);
    const auto &w = weights.layer(layerIdx);
    const auto len = static_cast<int>(l.dotLength());
    const std::size_t base = nn::WeightStore::index(l, group, 0, 0);
    // Rebuild on fresh arrays from the pristine weight store: the
    // quarantined tile's unrepairable cells are replaced by healthy
    // hardware, exactly as the chip simulator re-places a dead
    // tile's weight copies onto survivors. The old engine's activity
    // counters die with it.
    engines[layerIdx][static_cast<std::size_t>(group)] =
        std::make_unique<xbar::BitSerialEngine>(
            engineConfigFor(layerIdx, group),
            std::span<const Word>(
                w.data() + base,
                static_cast<std::size_t>(l.no) * len),
            len, l.no);
    return _ir.recordMigration(layerIdx);
}

int
CompiledModel::functionalArrays() const
{
    int arrays = 0;
    for (const auto &layer : engines)
        for (const auto &e : layer)
            arrays += e->physicalArrays();
    return arrays;
}

resilience::ArrayFaultReport
CompiledModel::faultReport() const
{
    resilience::ArrayFaultReport report;
    for (const auto &layer : engines)
        for (const auto &e : layer)
            report.merge(e->faultReport());
    return report;
}

resilience::TransientStats
CompiledModel::transientStats() const
{
    auto total = health.snapshot();
    for (const auto &layer : engines)
        for (const auto &e : layer)
            total.merge(e->transientStats());
    return total;
}

void
CompiledModel::resetStats()
{
    for (const auto &layer : engines)
        for (const auto &e : layer)
            e->resetStats();
    health.reset();
    // Rewind the image counter so replayed workloads key the same
    // injection streams (the engines rewind their own sequences).
    _imageSeq.store(0, std::memory_order_relaxed);
}

void
CompiledModel::resetForScenario()
{
    resetStats();
}

void
CompiledModel::ageArrays(std::uint64_t ops)
{
    requireFunctional("ageArrays");
    for (const auto &layer : engines)
        for (const auto &e : layer)
            e->advanceOpClock(ops);
}

resilience::ResilienceSummary
CompiledModel::resilienceSummary() const
{
    resilience::ResilienceSummary summary;
    summary.faults = faultReport();
    summary.adcClips = adcClips();
    summary.transient = transientStats();
    return summary;
}

} // namespace isaac::core
