/**
 * @file
 * Monte Carlo campaign lab tests: grid enumeration and dedup,
 * scenario-ID round-tripping, the zero-noise exactness gate, report
 * determinism across thread counts and completion orders, scenario
 * replay parity with the campaign record, the resetForScenario
 * rewind contract, and the campaign summary embedding in
 * runReportJson. The smoke-grid cases double as the CI/ASan gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/runner.h"
#include "common/logging.h"
#include "core/accelerator.h"
#include "core/report.h"
#include "nn/zoo.h"
#include "serve/session.h"

namespace isaac::campaign {
namespace {

constexpr std::uint64_t kSeed = 0xC0FFEEull;

TEST(CampaignGrid, SmokeGridEnumeratesNineDistinctScenarios)
{
    const auto scenarios = Grid::smoke().enumerate(kSeed);
    ASSERT_EQ(scenarios.size(), 9u);
    std::vector<std::string> ids;
    for (const auto &s : scenarios) {
        ids.push_back(s.id());
        EXPECT_EQ(s.masterSeed, kSeed);
        EXPECT_EQ(s.network, "tinycnn");
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end())
        << "scenario IDs must be distinct";
    // Exactly one clean self-check point.
    int clean = 0;
    for (const auto &s : scenarios)
        clean += s.clean();
    EXPECT_EQ(clean, 1);
}

TEST(CampaignGrid, DefaultSuiteCoversAtLeast500Scenarios)
{
    std::size_t total = 0;
    for (const auto &grid : Grid::defaultSuite())
        total += grid.enumerate(kSeed).size();
    EXPECT_GE(total, 500u);
}

TEST(CampaignGrid, ZeroStuckRateCollapsesTheModeAxis)
{
    Grid g;
    g.stuckRate = {0.0};
    g.stuckModes = {xbar::StuckMode::Off, xbar::StuckMode::On,
                    xbar::StuckMode::RandomLevel};
    EXPECT_EQ(g.enumerate(kSeed).size(), 1u)
        << "rate 0 makes the stuck mode unobservable";
    g.stuckRate = {0.0, 0.01};
    EXPECT_EQ(g.enumerate(kSeed).size(), 4u);
}

TEST(CampaignScenario, IdRoundTripsEveryField)
{
    Scenario s;
    s.network = "tinycnn";
    s.writeSigma = 0.3;
    s.readSigma = 0.05;
    s.driftPerOp = 5e-4;
    s.driftAge = 4096;
    s.stuckRate = 0.005;
    s.stuckMode = xbar::StuckMode::Off;
    s.spareCols = 4;
    s.adcBits = 7;
    s.trial = 2;
    s.masterSeed = 0xDEADBEEFCAFEull;
    const auto parsed = Scenario::parse(s.id());
    EXPECT_EQ(parsed, s);
    EXPECT_EQ(parsed.id(), s.id());
    // The seed mixes trial but not the knobs: paired configurations
    // at one trial share their fault draw.
    Scenario other = s;
    other.spareCols = 0;
    other.adcBits = 0;
    EXPECT_EQ(other.noiseSeed(), s.noiseSeed());
    other.trial = 3;
    EXPECT_NE(other.noiseSeed(), s.noiseSeed());
}

TEST(CampaignScenario, MalformedIdsAreFatal)
{
    const Scenario s;
    EXPECT_THROW(Scenario::parse("net=tinycnn;w=0.1"), FatalError)
        << "missing keys";
    EXPECT_THROW(Scenario::parse(s.id() + ";w=0.5"), FatalError)
        << "duplicate key";
    EXPECT_THROW(Scenario::parse(s.id() + ";zz=1"), FatalError)
        << "unknown key";
    EXPECT_THROW(Scenario::parse("garbage"), FatalError);
    std::string badMode = s.id();
    badMode.replace(badMode.find(";m=on"), 5, ";m=up");
    EXPECT_THROW(Scenario::parse(badMode), FatalError);
}

TEST(CampaignScenario, TryParseRejectsHostileIdsWithAMessage)
{
    // Replay tooling feeds scenario IDs from the command line and
    // from JSON reports; a hostile or truncated ID must come back as
    // a descriptive error — never an assert, a crash, or a wrapped
    // integer. Table-driven over the failure classes.
    struct Case
    {
        const char *label;
        std::string id;
    };
    const Scenario base;
    const auto with = [&](const std::string &key,
                          const std::string &val) {
        std::string id = base.id();
        // Anchor on ";key=" — a bare find("t=") would hit "net=".
        const auto pos =
            key == "net" ? 0 : id.find(";" + key + "=") + 1;
        const auto end = std::min(id.find(';', pos), id.size());
        id.replace(pos, end - pos, key + "=" + val);
        return id;
    };
    const std::vector<Case> cases = {
        {"empty id", ""},
        {"no separators", "garbage"},
        {"missing '='", "net=tinycnn;w"},
        {"empty key", "=tinycnn"},
        {"empty network", with("net", "")},
        {"missing required key", "net=tinycnn;w=0.1"},
        {"duplicate key", base.id() + ";w=0.5"},
        {"unknown key", base.id() + ";zz=1"},
        {"trailing separator", base.id() + ";"},
        {"bad double", with("w", "zero")},
        {"double with garbage suffix", with("r", "0.1x")},
        {"non-finite double", with("k", "inf")},
        {"nan double", with("k", "nan")},
        {"negative rate", with("w", "-0.1")},
        {"bad stuck mode", with("m", "up")},
        {"negative spare count", with("sp", "-1")},
        {"spare count overflowing int", with("sp", "4294967296")},
        {"spare count over the cap", with("sp", "4097")},
        {"adc bits over the cap", with("adc", "25")},
        {"trial overflowing int", with("t", "2147483648")},
        {"bad drift age", with("a", "soon")},
        {"bad hex seed", with("s", "0xzz")},
    };
    for (const auto &c : cases) {
        std::string error;
        const auto parsed = Scenario::tryParse(c.id, &error);
        EXPECT_FALSE(parsed.has_value()) << c.label;
        EXPECT_FALSE(error.empty()) << c.label;
        EXPECT_NE(error.find("scenario id"), std::string::npos)
            << c.label << ": " << error;
        // parse() is tryParse() + fatal(), with the same message.
        EXPECT_THROW(Scenario::parse(c.id), FatalError) << c.label;
    }

    // And the happy path still round-trips through tryParse.
    std::string error;
    const auto ok = Scenario::tryParse(base.id(), &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(*ok, base);
    EXPECT_TRUE(error.empty());
}

TEST(CampaignScenario, PolicyFieldRoundTripsAndDefaultsToFixed)
{
    Scenario s;
    s.policy = xbar::AdcPolicyKind::Adaptive;
    s.adcBits = 7; // Doubles as the adaptive cap.
    s.masterSeed = kSeed;
    const std::string id = s.id();
    EXPECT_NE(id.find(";pol=adaptive;"), std::string::npos);
    EXPECT_EQ(Scenario::parse(id), s);

    // Reports written before the policy axis existed carry no pol=
    // key; they must keep replaying as fixed-policy scenarios.
    Scenario legacy;
    legacy.masterSeed = kSeed;
    std::string old = legacy.id();
    const auto at = old.find(";pol=fixed");
    ASSERT_NE(at, std::string::npos);
    old.erase(at, std::string(";pol=fixed").size());
    const auto parsed = Scenario::parse(old);
    EXPECT_EQ(parsed.policy, xbar::AdcPolicyKind::Fixed);
    EXPECT_EQ(parsed, legacy);
    EXPECT_EQ(parsed.id(), legacy.id());

    // An unknown policy name is hostile input, not a default.
    std::string bad = legacy.id();
    bad.replace(bad.find(";pol=fixed"),
                std::string(";pol=fixed").size(), ";pol=zig");
    EXPECT_THROW(Scenario::parse(bad), FatalError);

    // The scenario config carries the policy into the engine.
    EXPECT_TRUE(s.config().engine.adcPolicy.isAdaptive());
    EXPECT_EQ(s.config().engine.adcPolicy.bits, 7);
    EXPECT_FALSE(legacy.config().engine.adcPolicy.isAdaptive());
}

TEST(CampaignGrid, PolicyAxisMultipliesEnumeration)
{
    Grid g = Grid::smoke();
    const auto base = g.enumerate(kSeed);
    g.policies = {xbar::AdcPolicyKind::Fixed,
                  xbar::AdcPolicyKind::Adaptive};
    const auto both = g.enumerate(kSeed);
    EXPECT_EQ(both.size(), 2 * base.size());
    int adaptive = 0, clean = 0;
    for (const auto &s : both) {
        adaptive += s.policy == xbar::AdcPolicyKind::Adaptive;
        clean += s.clean();
    }
    EXPECT_EQ(adaptive, static_cast<int>(base.size()));
    // The zero-noise lossless-adaptive point self-checks too: one
    // clean scenario per policy.
    EXPECT_EQ(clean, 2);
}

TEST(CampaignGrid, SampleIsADeterministicOrderedSubset)
{
    const Grid g = Grid::smoke();
    const auto full = g.enumerate(kSeed);
    ASSERT_EQ(full.size(), 9u);

    const auto s1 = g.sample(4, kSeed);
    const auto s2 = g.sample(4, kSeed);
    ASSERT_EQ(s1.size(), 4u);
    EXPECT_EQ(s1, s2) << "a pure function of (grid, n, seed)";

    // The survivors keep their enumeration order (strictly
    // increasing positions in the full list).
    std::size_t last = 0;
    for (const auto &s : s1) {
        const auto it = std::find(full.begin() + last, full.end(), s);
        ASSERT_NE(it, full.end());
        last = static_cast<std::size_t>(it - full.begin()) + 1;
    }

    // n >= size returns the full enumeration; a different seed
    // draws a different subset of this 9-choose-4 space.
    EXPECT_EQ(g.sample(100, kSeed), full);
    EXPECT_NE(g.sample(4, kSeed ^ 0xABCDEFull), s1);

    // The free function thins any scenario list the same way.
    EXPECT_EQ(sampleScenarios(full, 9, kSeed), full);
    EXPECT_EQ(sampleScenarios(full, 4, kSeed).size(), 4u);
}

TEST(CampaignRunner, BudgetedReportIsByteIdenticalAtAnyThreadCount)
{
    std::string wantJson;
    std::uint64_t wantHash = 0;
    struct Setting
    {
        int threads;
        bool scramble;
    };
    const Setting settings[] = {{1, false}, {4, false}, {8, true}};
    for (const auto &setting : settings) {
        SCOPED_TRACE("threads=" + std::to_string(setting.threads) +
                     " scramble=" +
                     std::to_string(setting.scramble));
        RunnerOptions opts;
        opts.batch = 2;
        opts.threads = setting.threads;
        opts.scramble = setting.scramble;
        opts.scenarioBudget = 5;
        const Runner runner("tinycnn", kSeed, opts);
        const auto report = runner.run(Grid::smoke());
        EXPECT_EQ(report.gridPoints, 5);
        EXPECT_EQ(report.scenarios.size(), 5u);
        if (wantJson.empty()) {
            wantJson = report.toJson();
            wantHash = report.contentHash();
        } else {
            EXPECT_EQ(report.toJson(), wantJson);
            EXPECT_EQ(report.contentHash(), wantHash);
        }
    }
}

TEST(CampaignRunner, LosslessAdaptiveScenarioIsCleanAndBitExact)
{
    RunnerOptions opts;
    opts.batch = 2;
    opts.threads = 1;
    const Runner runner("tinycnn", kSeed, opts);

    // The lossless adaptive point is a clean self-check: zero
    // divergence from the fixed-point reference, like the fixed
    // zero-noise scenario it shadows.
    Scenario ad;
    ad.policy = xbar::AdcPolicyKind::Adaptive;
    ad.masterSeed = kSeed;
    ASSERT_TRUE(ad.clean());
    const auto res = runner.runScenario(ad);
    EXPECT_EQ(res.completed, 2);
    EXPECT_DOUBLE_EQ(res.agreement, 1.0);
    EXPECT_EQ(res.maxRel, 0.0);

    // An under-capped adaptive converter produces an accuracy
    // delta; replaying its ID must reproduce the delta exactly.
    Scenario lossy = ad;
    lossy.adcBits = 6;
    EXPECT_FALSE(lossy.clean());
    const auto first = runner.runScenario(lossy);
    const auto replay =
        runner.runScenario(Scenario::parse(lossy.id()));
    EXPECT_GT(first.maxRel, 0.0);
    EXPECT_EQ(first.maxRel, replay.maxRel);
    EXPECT_EQ(first.finalMeanRel, replay.finalMeanRel);
    EXPECT_EQ(first.top1Matches, replay.top1Matches);
}

TEST(CampaignRunner, ZeroNoiseScenarioIsBitExact)
{
    RunnerOptions opts;
    opts.batch = 3;
    opts.threads = 1;
    const Runner runner("tinycnn", kSeed, opts);
    Scenario clean;
    clean.masterSeed = kSeed;
    ASSERT_TRUE(clean.clean());
    const auto res = runner.runScenario(clean);
    EXPECT_EQ(res.completed, 3);
    EXPECT_FALSE(res.timedOut);
    EXPECT_DOUBLE_EQ(res.agreement, 1.0);
    EXPECT_EQ(res.top1Matches, 3);
    EXPECT_EQ(res.maxRel, 0.0);
    EXPECT_EQ(res.finalMeanRel, 0.0);
    ASSERT_EQ(res.layers.size(), runner.network().size());
    for (const auto &l : res.layers) {
        EXPECT_EQ(l.maxAbs, 0.0) << l.layer;
        EXPECT_EQ(l.maxRel, 0.0) << l.layer;
    }
}

TEST(CampaignRunner, ReportIsByteIdenticalAtAnyThreadCountAndOrder)
{
    // The CI smoke campaign: one report per (threads, scramble)
    // setting, all byte-identical. This is the determinism contract
    // the scenario-major sweep promises.
    std::string wantJson;
    std::uint64_t wantHash = 0;
    const Grid grid = Grid::smoke();
    struct Setting
    {
        int threads;
        bool scramble;
    };
    const Setting settings[] = {
        {1, false}, {2, false}, {4, false}, {8, false}, {4, true}};
    for (const auto &setting : settings) {
        SCOPED_TRACE("threads=" + std::to_string(setting.threads) +
                     " scramble=" +
                     std::to_string(setting.scramble));
        RunnerOptions opts;
        opts.batch = 2;
        opts.threads = setting.threads;
        opts.scramble = setting.scramble;
        const Runner runner("tinycnn", kSeed, opts);
        const auto report = runner.run(grid);
        EXPECT_EQ(report.gridPoints, 9);
        EXPECT_EQ(report.scenarios.size(), 9u);
        // Zero-noise gate: the clean point must agree exactly.
        EXPECT_GE(report.cleanScenarioCount(), 1);
        EXPECT_DOUBLE_EQ(report.cleanAgreementMin(), 1.0);
        EXPECT_EQ(report.cleanMaxRel(), 0.0);
        if (wantJson.empty()) {
            wantJson = report.toJson();
            wantHash = report.contentHash();
            EXPECT_FALSE(report.paretoFrontier.empty());
        } else {
            EXPECT_EQ(report.toJson(), wantJson);
            EXPECT_EQ(report.contentHash(), wantHash);
        }
    }
}

TEST(CampaignRunner, ReplayFromIdMatchesTheCampaignRecord)
{
    RunnerOptions opts;
    opts.batch = 2;
    opts.threads = 2;
    const Runner runner("tinycnn", kSeed, opts);
    const auto report = runner.run(Grid::smoke());

    // Re-run the noisiest record in isolation from its ID alone.
    const ScenarioResult *want = nullptr;
    for (const auto &r : report.scenarios) {
        if (r.scenario.writeSigma > 0.0 && r.scenario.stuckRate > 0.0)
            want = &r;
    }
    ASSERT_NE(want, nullptr);
    const auto parsed = Scenario::parse(want->scenario.id());
    auto got = runner.runScenario(parsed);
    got.pareto = want->pareto; // finalize() assigns this, not replay.
    EXPECT_EQ(got.toJson(), want->toJson());
}

TEST(CampaignRunner, MismatchedReplayIsFatal)
{
    RunnerOptions opts;
    opts.batch = 2;
    const Runner runner("tinycnn", kSeed, opts);
    Scenario wrongSeed;
    wrongSeed.masterSeed = kSeed + 1;
    EXPECT_THROW((void)runner.runScenario(wrongSeed), FatalError);
    Scenario wrongNet;
    wrongNet.masterSeed = kSeed;
    wrongNet.network = "vgg1";
    EXPECT_THROW((void)runner.runScenario(wrongNet), FatalError);
}

TEST(Campaign, ResetForScenarioMatchesAFreshCompileBitForBit)
{
    // One compiled model, reset between scenarios, must reproduce a
    // fresh compile exactly: results, resilience JSON, and the drift
    // clock all rewind through the single entry point.
    const auto net = nn::tinyCnn();
    const auto weights =
        synthesizeStructuredWeights(net, kSeed ^ 0x5EEDull);
    Scenario s;
    s.masterSeed = kSeed;
    s.writeSigma = 0.2;
    s.stuckRate = 0.005;
    s.spareCols = 2;
    s.driftPerOp = 5e-4;
    s.driftAge = 512;
    const core::Accelerator acc(s.config());
    const FixedFormat fmt{12};
    const auto input = nn::synthesizeInput(16, 12, 12, 99, fmt);

    const auto runOnce = [&](core::CompiledModel &model) {
        model.resetForScenario();
        model.ageArrays(s.driftAge);
        serve::SessionOptions so;
        so.workers = 1;
        serve::InferenceSession session(model, so);
        auto out = session.run({input, input});
        return std::make_pair(std::move(out),
                              model.resilienceSummary().toJson());
    };

    auto model = acc.compile(net, weights, {});
    const auto first = runOnce(model);
    const auto second = runOnce(model);
    auto freshModel = acc.compile(net, weights, {});
    const auto fresh = runOnce(freshModel);
    ASSERT_EQ(first.first.size(), 2u);
    for (std::size_t i = 0; i < first.first.size(); ++i) {
        EXPECT_EQ(first.first[i].raw(), second.first[i].raw());
        EXPECT_EQ(first.first[i].raw(), fresh.first[i].raw());
    }
    EXPECT_EQ(first.second, second.second);
    EXPECT_EQ(first.second, fresh.second);
}

TEST(Campaign, ReplayAfterResetRewindsEpochStatLogsExactly)
{
    // Regression for the epoch-log stats runtime: resetForScenario()
    // (via resetStats()) must rewind the per-worker epoch logs and
    // the reader's publish cursor, not just the legacy counters. If
    // either survives the reset, the second run's EngineStats /
    // per-tile AdcTally / TransientStats double up and this test sees
    // it immediately. Serve through a multi-worker session so the
    // counters being rewound were actually produced by concurrent
    // publishes into distinct epoch-log slots.
    const auto net = nn::tinyCnn();
    const auto weights =
        synthesizeStructuredWeights(net, kSeed ^ 0xAB1Eull);
    Scenario s;
    s.masterSeed = kSeed;
    s.writeSigma = 0.15;
    s.stuckRate = 0.005;
    s.spareCols = 2;
    const core::Accelerator acc(s.config());
    const FixedFormat fmt{12};
    std::vector<nn::Tensor> inputs;
    for (int i = 0; i < 3; ++i)
        inputs.push_back(nn::synthesizeInput(16, 12, 12, 7 + i, fmt));

    const auto tallies = [](const core::CompiledModel &model) {
        std::vector<xbar::AdcTally> out;
        for (std::size_t i = 0; i < model.network().size(); ++i) {
            for (std::int64_t g = 0; g < model.engineGroupCount(i);
                 ++g) {
                const auto *e = model.engine(i, g);
                for (int rs = 0; rs < e->rowSegments(); ++rs)
                    for (int cs = 0; cs < e->colSegments(); ++cs)
                        out.push_back(e->tileAdcTally(rs, cs));
            }
        }
        return out;
    };
    auto model = acc.compile(net, weights, {});
    const auto runOnce = [&] {
        model.resetForScenario();
        serve::SessionOptions so;
        so.workers = 4;
        serve::InferenceSession session(model, so);
        auto out = session.run(inputs);
        return std::make_tuple(std::move(out), model.engineStats(),
                               model.transientStats(),
                               tallies(model));
    };

    const auto first = runOnce();
    const auto second = runOnce();
    ASSERT_EQ(std::get<0>(first).size(), std::get<0>(second).size());
    for (std::size_t i = 0; i < std::get<0>(first).size(); ++i)
        EXPECT_EQ(std::get<0>(first)[i].raw(),
                  std::get<0>(second)[i].raw());
    EXPECT_TRUE(std::get<1>(first) == std::get<1>(second))
        << "EngineStats must rewind to zero between replays";
    EXPECT_TRUE(std::get<2>(first) == std::get<2>(second))
        << "TransientStats must rewind to zero between replays";
    const auto &ta = std::get<3>(first);
    const auto &tb = std::get<3>(second);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t t = 0; t < ta.size(); ++t)
        EXPECT_TRUE(ta[t] == tb[t]) << "tile " << t;
}

TEST(CampaignRunner, BackToBackCampaignsOnOneRunnerAreByteIdentical)
{
    // The campaign-replay contract end to end: the same Runner swept
    // over the same grid twice must emit byte-identical reports. Any
    // state leaking across scenario evaluations — stale epoch-log
    // rows, an unrewound publish cursor, a drift clock that kept
    // ticking — shows up as a JSON diff here.
    RunnerOptions opts;
    opts.batch = 2;
    opts.threads = 2;
    const Runner runner("tinycnn", kSeed, opts);
    const auto first = runner.run(Grid::smoke());
    const auto second = runner.run(Grid::smoke());
    EXPECT_EQ(second.toJson(), first.toJson());
    EXPECT_EQ(second.contentHash(), first.contentHash());
}

TEST(Campaign, RunReportJsonEmbedsTheCampaignSummary)
{
    RunnerOptions opts;
    opts.batch = 2;
    const Runner runner("tinycnn", kSeed, opts);
    Grid tiny;
    tiny.stuckRate = {0.0, 0.01};
    const auto report = runner.run(tiny);

    const auto net = nn::tinyCnn();
    const auto weights = nn::WeightStore::synthesize(net, 1);
    const core::Accelerator acc;
    const auto model = acc.compile(net, weights, {});
    const auto json = core::runReportJson(model, report);
    EXPECT_NE(json.find("\"campaign\": {"), std::string::npos);
    EXPECT_NE(json.find("\"content_hash\": "), std::string::npos);
    EXPECT_NE(json.find(report.summaryJson()), std::string::npos);
}

} // namespace
} // namespace isaac::campaign
