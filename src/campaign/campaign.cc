#include "campaign/campaign.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <tuple>
#include <unordered_set>

#include "common/logging.h"
#include "core/json_writer.h"

namespace isaac::campaign {

std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
toToken(xbar::StuckMode mode)
{
    switch (mode) {
    case xbar::StuckMode::RandomLevel:
        return "rand";
    case xbar::StuckMode::On:
        return "on";
    case xbar::StuckMode::Off:
        return "off";
    }
    fatal("campaign: unknown StuckMode");
}

xbar::StuckMode
stuckModeFromToken(const std::string &token)
{
    if (token == "rand")
        return xbar::StuckMode::RandomLevel;
    if (token == "on")
        return xbar::StuckMode::On;
    if (token == "off")
        return xbar::StuckMode::Off;
    fatal("campaign: unknown stuck-mode token '" + token + "'");
}

namespace {

bool
tryParseDouble(const std::string &s, double &v)
{
    const auto res =
        std::from_chars(s.data(), s.data() + s.size(), v);
    return res.ec == std::errc{} &&
        res.ptr == s.data() + s.size() && std::isfinite(v);
}

bool
tryParseU64(const std::string &s, int base, std::uint64_t &v)
{
    const auto res =
        std::from_chars(s.data(), s.data() + s.size(), v, base);
    return res.ec == std::errc{} && res.ptr == s.data() + s.size();
}

std::string
formatHex(std::uint64_t v)
{
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v, /*base=*/16);
    return std::string(buf, res.ptr);
}

/** One round of SplitMix64's output mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

} // namespace

std::string
Scenario::id() const
{
    std::string out;
    out += "net=" + network;
    out += ";w=" + formatDouble(writeSigma);
    out += ";r=" + formatDouble(readSigma);
    out += ";d=" + formatDouble(driftPerOp);
    out += ";a=" + std::to_string(driftAge);
    out += ";k=" + formatDouble(stuckRate);
    out += ";m=" + toToken(stuckMode);
    out += ";sp=" + std::to_string(spareCols);
    out += ";adc=" + std::to_string(adcBits);
    out += ";pol=" + std::string(xbar::adcPolicyKindName(policy));
    out += ";t=" + std::to_string(trial);
    out += ";s=" + formatHex(masterSeed);
    return out;
}

std::optional<Scenario>
Scenario::tryParse(const std::string &id, std::string *error)
{
    const auto fail =
        [&](const std::string &msg) -> std::optional<Scenario> {
        if (error != nullptr)
            *error = msg + " in scenario id '" + id + "'";
        return std::nullopt;
    };
    Scenario s;
    std::unordered_set<std::string> seen;
    std::size_t pos = 0;
    while (pos <= id.size()) {
        const std::size_t end = std::min(id.find(';', pos), id.size());
        const std::string pair = id.substr(pos, end - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return fail("malformed key=value pair '" + pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        if (key.empty())
            return fail("empty key");
        if (!seen.insert(key).second)
            return fail("duplicate key '" + key + "'");
        double d = 0.0;
        std::uint64_t u = 0;
        if (key == "net") {
            if (val.empty())
                return fail("empty network name");
            s.network = val;
        } else if (key == "w" || key == "r" || key == "d" ||
                   key == "k") {
            if (!tryParseDouble(val, d) || d < 0.0) {
                return fail("bad value '" + val + "' for key '" +
                            key +
                            "' (want a finite non-negative number)");
            }
            if (key == "w")
                s.writeSigma = d;
            else if (key == "r")
                s.readSigma = d;
            else if (key == "d")
                s.driftPerOp = d;
            else
                s.stuckRate = d;
        } else if (key == "a") {
            if (!tryParseU64(val, 10, u))
                return fail("bad drift age '" + val + "'");
            s.driftAge = u;
        } else if (key == "m") {
            if (val == "rand")
                s.stuckMode = xbar::StuckMode::RandomLevel;
            else if (val == "on")
                s.stuckMode = xbar::StuckMode::On;
            else if (val == "off")
                s.stuckMode = xbar::StuckMode::Off;
            else
                return fail("unknown stuck-mode token '" + val + "'");
        } else if (key == "sp" || key == "adc" || key == "t") {
            // Range-checked before the narrowing: a 64-bit count
            // must not wrap the int field it lands in.
            const std::uint64_t limit = key == "sp" ? 4096
                : key == "adc"                      ? 24
                : static_cast<std::uint64_t>(
                      std::numeric_limits<int>::max());
            if (!tryParseU64(val, 10, u) || u > limit) {
                return fail("bad value '" + val + "' for key '" +
                            key + "' (want an integer in [0, " +
                            std::to_string(limit) + "])");
            }
            if (key == "sp")
                s.spareCols = static_cast<int>(u);
            else if (key == "adc")
                s.adcBits = static_cast<int>(u);
            else
                s.trial = static_cast<int>(u);
        } else if (key == "pol") {
            if (val == "fixed")
                s.policy = xbar::AdcPolicyKind::Fixed;
            else if (val == "adaptive")
                s.policy = xbar::AdcPolicyKind::Adaptive;
            else
                return fail("unknown ADC policy '" + val +
                            "' (want fixed or adaptive)");
        } else if (key == "s") {
            if (!tryParseU64(val, 16, u))
                return fail("bad hex seed '" + val + "'");
            s.masterSeed = u;
        } else {
            return fail("unknown key '" + key + "'");
        }
        pos = end + 1;
    }
    // `pol` is deliberately absent: IDs minted before the policy
    // axis existed parse as fixed-policy scenarios.
    const char *required[] = {"net", "w",  "r",   "d", "a", "k",
                              "m",   "sp", "adc", "t", "s"};
    for (const char *key : required)
        if (!seen.count(key))
            return fail(std::string("missing key '") + key + "'");
    return s;
}

Scenario
Scenario::parse(const std::string &id)
{
    std::string error;
    auto s = tryParse(id, &error);
    if (!s)
        fatal("campaign: " + error);
    return *s;
}

std::uint64_t
Scenario::noiseSeed() const
{
    return mix64(masterSeed +
                 0x9E3779B97F4A7C15ull *
                     (static_cast<std::uint64_t>(trial) + 1));
}

arch::IsaacConfig
Scenario::config() const
{
    arch::IsaacConfig cfg;
    cfg.engine.spareCols = spareCols;
    if (policy == xbar::AdcPolicyKind::Adaptive) {
        // adcBits is the adaptive cap; 0 caps at the derived
        // requirement (lossless).
        cfg.engine.adcPolicy = xbar::AdcPolicy::adaptive(adcBits);
    } else if (adcBits > 0) {
        cfg.engine.adcPolicy = xbar::AdcPolicy::fixed(adcBits);
    }
    auto &noise = cfg.engine.noise;
    noise.writeSigmaLevels = writeSigma;
    noise.sigmaLsb = readSigma;
    noise.stuckAtFraction = stuckRate;
    noise.stuckMode = stuckMode;
    noise.driftLevelsPerOp = driftPerOp;
    // Never refresh: the age set via ageArrays() must persist, and
    // refresh would reprogram cells mid-scenario (not replayable).
    noise.refreshIntervalOps = 0;
    noise.seed = noiseSeed();
    return cfg;
}

bool
Scenario::clean() const
{
    return writeSigma == 0.0 && readSigma == 0.0 &&
        driftPerOp == 0.0 && stuckRate == 0.0 && adcBits == 0;
}

std::vector<Scenario>
Grid::enumerate(std::uint64_t masterSeed) const
{
    if (trials < 1)
        fatal("campaign::Grid: trials must be >= 1");
    if (writeSigma.empty() || readSigma.empty() || drift.empty() ||
        stuckRate.empty() || stuckModes.empty() ||
        spareCols.empty() || adcBits.empty() || policies.empty())
        fatal("campaign::Grid: every axis needs at least one value");
    std::vector<Scenario> out;
    std::unordered_set<std::string> ids;
    for (double w : writeSigma)
        for (double r : readSigma)
            for (const DriftPoint &d : drift)
                for (double k : stuckRate)
                    for (std::size_t mi = 0;
                         mi < stuckModes.size(); ++mi) {
                        // Rate 0 makes the mode unobservable: keep
                        // only the first mode's combination.
                        if (k == 0.0 && mi > 0)
                            continue;
                        for (int sp : spareCols)
                            for (int adc : adcBits)
                                for (auto pol : policies)
                                    for (int t = 0; t < trials;
                                         ++t) {
                                        Scenario s;
                                        s.network = network;
                                        s.writeSigma = w;
                                        s.readSigma = r;
                                        s.driftPerOp =
                                            d.levelsPerOp;
                                        s.driftAge = d.age;
                                        s.stuckRate = k;
                                        s.stuckMode =
                                            stuckModes[mi];
                                        s.spareCols = sp;
                                        s.adcBits = adc;
                                        s.policy = pol;
                                        s.trial = t;
                                        s.masterSeed = masterSeed;
                                        if (ids.insert(s.id())
                                                .second)
                                            out.push_back(
                                                std::move(s));
                                    }
                    }
    return out;
}

std::vector<Scenario>
Grid::sample(std::size_t n, std::uint64_t masterSeed) const
{
    return sampleScenarios(enumerate(masterSeed), n,
                           masterSeed ^ 0x5A3D1E9C0B247F6Dull);
}

std::vector<Scenario>
sampleScenarios(std::vector<Scenario> scenarios, std::size_t n,
                std::uint64_t seed)
{
    if (n >= scenarios.size())
        return scenarios;
    // Partial Fisher-Yates over the enumeration indices driven by a
    // SplitMix64 stream: the first n slots are a uniform sample
    // without replacement. Survivors are gathered back in their
    // original order so the report reads like a thinned enumeration.
    std::vector<std::size_t> idx(scenarios.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < n; ++i) {
        state += 0x9E3779B97F4A7C15ull;
        const std::size_t j =
            i + static_cast<std::size_t>(mix64(state) %
                                         (idx.size() - i));
        std::swap(idx[i], idx[j]);
    }
    idx.resize(n);
    std::sort(idx.begin(), idx.end());
    std::vector<Scenario> out;
    out.reserve(n);
    for (std::size_t i : idx)
        out.push_back(std::move(scenarios[i]));
    return out;
}

Grid
Grid::smoke()
{
    Grid g;
    g.writeSigma = {0.0, 0.15, 0.3};
    g.stuckRate = {0.0, 0.005, 0.02};
    g.stuckModes = {xbar::StuckMode::On};
    g.spareCols = {2};
    return g;
}

std::vector<Grid>
Grid::defaultSuite()
{
    // Main lab: everything except drift, which forces the scalar
    // read path and gets its own focused grid below.
    Grid main;
    main.writeSigma = {0.0, 0.3};
    main.readSigma = {0.0, 0.5};
    main.stuckRate = {0.0, 0.002, 0.005, 0.02};
    main.stuckModes = {xbar::StuckMode::Off, xbar::StuckMode::On};
    main.spareCols = {0, 2, 4};
    main.adcBits = {0, 7};
    main.trials = 3; // 168 points x 3 = 504 scenarios.

    Grid drift;
    drift.drift = {{5e-4, 512}, {5e-4, 4096}};
    drift.stuckRate = {0.0, 0.005};
    drift.stuckModes = {xbar::StuckMode::On};
    drift.spareCols = {0, 2};
    drift.trials = 2; // 8 points x 2 = 16 scenarios.

    // The adaptive-ADC policy lab: lossless (cap 0) points ride the
    // zero-noise exactness gate; the capped points measure what the
    // cheaper converter costs in agreement under realistic noise.
    Grid adaptive;
    adaptive.policies = {xbar::AdcPolicyKind::Adaptive};
    adaptive.adcBits = {0, 7};
    adaptive.writeSigma = {0.0, 0.3};
    adaptive.stuckRate = {0.0, 0.005};
    adaptive.stuckModes = {xbar::StuckMode::On};
    adaptive.spareCols = {2};
    adaptive.trials = 2; // 8 points x 2 = 16 scenarios.

    return {main, drift, adaptive};
}

std::string
ScenarioResult::toJson() const
{
    core::JsonArray layerArr;
    for (const auto &l : layers) {
        core::JsonObject lo;
        lo.field("layer", l.layer)
            .field("max_abs", l.maxAbs)
            .field("max_rel", l.maxRel)
            .field("mean_rel", l.meanRel);
        layerArr.item(lo.str());
    }
    core::JsonObject o;
    o.field("id", scenario.id())
        .raw("write_sigma", formatDouble(scenario.writeSigma))
        .raw("read_sigma", formatDouble(scenario.readSigma))
        .raw("drift_per_op", formatDouble(scenario.driftPerOp))
        .field("drift_age", scenario.driftAge)
        .raw("stuck_rate", formatDouble(scenario.stuckRate))
        .field("stuck_mode", toToken(scenario.stuckMode))
        .field("spare_cols", scenario.spareCols)
        .field("adc_bits", scenario.adcBits)
        .field("policy",
               std::string(xbar::adcPolicyKindName(scenario.policy)))
        .field("trial", scenario.trial)
        .field("batch", batch)
        .field("completed", completed)
        .field("top1_matches", top1Matches)
        .fixed("agreement", agreement, 4)
        .field("max_rel_err", maxRel)
        .field("final_mean_rel_err", finalMeanRel)
        .field("timed_out", timedOut)
        .raw("layers", layerArr.str())
        .raw("resilience", resilience.toJson())
        .field("images_per_sec", imagesPerSec)
        .field("energy_per_image_j", energyPerImageJ)
        .field("power_w", powerW)
        .field("pareto", pareto);
    return o.str();
}

void
Report::finalize()
{
    paretoFrontier.clear();
    const auto dominates = [](const ScenarioResult &a,
                              const ScenarioResult &b) {
        const bool geq = a.agreement >= b.agreement &&
            a.imagesPerSec >= b.imagesPerSec &&
            a.energyPerImageJ <= b.energyPerImageJ;
        const bool strict = a.agreement > b.agreement ||
            a.imagesPerSec > b.imagesPerSec ||
            a.energyPerImageJ < b.energyPerImageJ;
        return geq && strict;
    };
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        auto &cand = scenarios[i];
        cand.pareto = false;
        if (cand.timedOut)
            continue; // Partial measurements never make the frontier.
        bool dominated = false;
        for (std::size_t j = 0; j < scenarios.size() && !dominated;
             ++j) {
            if (j == i || scenarios[j].timedOut)
                continue;
            dominated = dominates(scenarios[j], cand);
        }
        if (!dominated) {
            cand.pareto = true;
            paretoFrontier.push_back(i);
        }
    }
}

int
Report::cleanScenarioCount() const
{
    int n = 0;
    for (const auto &r : scenarios)
        n += r.scenario.clean();
    return n;
}

double
Report::cleanAgreementMin() const
{
    double best = 1.0;
    for (const auto &r : scenarios)
        if (r.scenario.clean())
            best = std::min(best, r.agreement);
    return best;
}

double
Report::cleanMaxRel() const
{
    double worst = 0.0;
    for (const auto &r : scenarios)
        if (r.scenario.clean())
            worst = std::max(worst, r.maxRel);
    return worst;
}

namespace {

/**
 * Agreement-vs-stuck-rate curves: scenarios whose only active analog
 * knobs are stuck cells (and spares), grouped by (spares, rate,
 * mode), agreement averaged over trials.
 */
std::string
stuckCurvesJson(const std::vector<ScenarioResult> &scenarios)
{
    using Key = std::tuple<int, double, std::string>;
    std::map<Key, std::pair<double, int>> groups;
    for (const auto &r : scenarios) {
        const auto &s = r.scenario;
        if (s.writeSigma != 0.0 || s.readSigma != 0.0 ||
            s.driftPerOp != 0.0 || s.adcBits != 0 ||
            s.policy != xbar::AdcPolicyKind::Fixed || r.timedOut)
            continue;
        auto &g = groups[{s.spareCols, s.stuckRate,
                          toToken(s.stuckMode)}];
        g.first += r.agreement;
        g.second += 1;
    }
    core::JsonArray arr;
    for (const auto &[key, acc] : groups) {
        core::JsonObject o;
        o.field("spare_cols", std::get<0>(key))
            .raw("stuck_rate", formatDouble(std::get<1>(key)))
            .field("stuck_mode", std::get<2>(key))
            .fixed("agreement", acc.first / acc.second, 4)
            .field("scenarios", acc.second);
        arr.item(o.str());
    }
    return arr.str();
}

std::string
zeroNoiseJson(const Report &report)
{
    core::JsonObject o;
    o.field("scenarios", report.cleanScenarioCount())
        .fixed("min_agreement", report.cleanAgreementMin(), 4)
        .field("max_rel_err", report.cleanMaxRel());
    return o.str();
}

} // namespace

std::string
Report::toJson() const
{
    core::JsonArray frontier;
    for (std::size_t idx : paretoFrontier)
        frontier.stringItem(scenarios[idx].scenario.id());
    core::JsonArray records;
    for (const auto &r : scenarios)
        records.item(r.toJson());
    core::JsonObject o;
    o.field("network", network)
        .field("master_seed", formatHex(masterSeed))
        .field("batch", batch)
        .field("grid_points", gridPoints)
        .field("scenario_count",
               static_cast<std::int64_t>(scenarios.size()))
        .raw("zero_noise", zeroNoiseJson(*this))
        .raw("pareto_frontier", frontier.str())
        .raw("stuck_curves", stuckCurvesJson(scenarios))
        .raw("scenarios", records.str());
    return o.str();
}

std::string
Report::summaryJson() const
{
    core::JsonObject o;
    o.field("network", network)
        .field("master_seed", formatHex(masterSeed))
        .field("batch", batch)
        .field("scenario_count",
               static_cast<std::int64_t>(scenarios.size()))
        .field("pareto_size",
               static_cast<std::int64_t>(paretoFrontier.size()))
        .raw("zero_noise", zeroNoiseJson(*this))
        .field("content_hash", formatHex(contentHash()));
    return o.str();
}

std::uint64_t
Report::contentHash() const
{
    const std::string json = toJson();
    std::uint64_t h = 0xCBF29CE484222325ull; // FNV-1a 64 basis.
    for (const char c : json) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace isaac::campaign
