/**
 * @file
 * Integration tests asserting the paper's headline phenomena at reduced
 * scale: the claims the reproduction commits to. The bench harnesses
 * measure them over the full suite.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

using namespace pp;
using namespace pp::sim;

namespace
{

constexpr std::uint64_t kWarm = 40000;
constexpr std::uint64_t kRun = 250000;

SchemeConfig
scheme(core::PredictionScheme s)
{
    SchemeConfig cfg;
    cfg.scheme = s;
    return cfg;
}

} // namespace

TEST(PaperPhenomena, PredicatePredictorWinsOnCorrelationRichIfConverted)
{
    // §4.3 / Fig. 6a: on if-converted code the predicate predictor keeps
    // the correlation information the conventional predictor lost.
    const auto prof = program::profileByName("crafty");
    const auto bin = buildBinary(prof, true);
    const auto conv =
        run(bin, prof, scheme(core::PredictionScheme::Conventional),
            kWarm, kRun);
    const auto pred =
        run(bin, prof,
            scheme(core::PredictionScheme::PredicatePredictor), kWarm,
            kRun);
    EXPECT_LT(pred.mispredRatePct, conv.mispredRatePct);
}

TEST(PaperPhenomena, IfConversionRemovesHardBranches)
{
    // If-conversion targets hard-to-predict branches, so the conventional
    // predictor's misprediction rate drops on the converted binary.
    const auto prof = program::profileByName("mcf");
    const auto plain = buildBinary(prof, false);
    const auto conv = buildBinary(prof, true);
    const auto r_plain =
        run(plain, prof, scheme(core::PredictionScheme::Conventional),
            kWarm, kRun);
    const auto r_conv =
        run(conv, prof, scheme(core::PredictionScheme::Conventional),
            kWarm, kRun);
    EXPECT_LT(r_conv.mispredRatePct, r_plain.mispredRatePct);
}

TEST(PaperPhenomena, EarlyResolvedBranchesExistAndHelp)
{
    // §3.1: compares scheduled ahead of their branches let the branch
    // read the computed value.
    const auto prof = program::profileByName("equake"); // hoist-heavy
    const auto bin = buildBinary(prof, false);
    const auto pred =
        run(bin, prof,
            scheme(core::PredictionScheme::PredicatePredictor), kWarm,
            kRun);
    EXPECT_GT(pred.earlyResolvedPct, 5.0);
}

TEST(PaperPhenomena, PepPaUnderperformsOnOutOfOrderCore)
{
    // §4.3: PEP-PA (designed for in-order cores) loses to the
    // conventional predictor when predicate writes arrive out of order.
    const auto prof = program::profileByName("crafty");
    const auto bin = buildBinary(prof, true);
    const auto peppa = run(bin, prof,
                           scheme(core::PredictionScheme::PepPa), kWarm,
                           kRun);
    const auto conv =
        run(bin, prof, scheme(core::PredictionScheme::Conventional),
            kWarm, kRun);
    EXPECT_GT(peppa.mispredRatePct, conv.mispredRatePct);
}

TEST(PaperPhenomena, IdealizedPredicatePredictorMatchesOrBeatsIdealConv)
{
    // §4.2's idealized experiment: with alias-free tables and perfect
    // history, early resolution makes the predicate predictor at least
    // as accurate as the conventional one.
    const auto prof = program::profileByName("gzip");
    const auto bin = buildBinary(prof, false);
    SchemeConfig ic = scheme(core::PredictionScheme::Conventional);
    ic.idealNoAlias = ic.idealPerfectHistory = true;
    SchemeConfig ip = scheme(core::PredictionScheme::PredicatePredictor);
    ip.idealNoAlias = ip.idealPerfectHistory = true;
    const auto rc = run(bin, prof, ic, kWarm, kRun);
    const auto rp = run(bin, prof, ip, kWarm, kRun);
    EXPECT_LE(rp.mispredRatePct, rc.mispredRatePct + 0.10);
}

TEST(PaperPhenomena, SelectivePredicationBeatsCmovWhereItMatters)
{
    // §3.2: rename-time cancellation frees resources CMOV-style
    // predication wastes. Aggregated over a predication-heavy benchmark.
    const auto prof = program::profileByName("art");
    const auto bin = buildBinary(prof, true);
    SchemeConfig cmov = scheme(core::PredictionScheme::Conventional);
    cmov.predication = core::PredicationModel::Cmov;
    SchemeConfig sel =
        scheme(core::PredictionScheme::PredicatePredictor);
    sel.predication = core::PredicationModel::SelectivePrediction;
    const auto r_cmov = run(bin, prof, cmov, kWarm, kRun);
    const auto r_sel = run(bin, prof, sel, kWarm, kRun);
    // At benchmark scale the win depends on how resource-bound the code
    // is; selective predication must at least never lose, and it must
    // actually be cancelling work at rename. The focused microbenchmark
    // (CorePredicate.SelectiveBeatsCmovOnBiasedGuards) asserts the >10%
    // case; bench_ipc_selective measures the suite-wide magnitude.
    EXPECT_GE(r_sel.ipc, r_cmov.ipc * 0.99);
    EXPECT_GT(r_sel.stats.nullifiedAtRename, 1000u);
}

TEST(PaperPhenomena, ShadowBreakdownAttributesAccuracy)
{
    // Fig. 6b methodology sanity: early + correlation contributions sum
    // to the (shadow - actual) accuracy difference by construction, and
    // early-resolved fixes exist.
    const auto prof = program::profileByName("crafty");
    const auto bin = buildBinary(prof, true);
    SchemeConfig cfg =
        scheme(core::PredictionScheme::PredicatePredictor);
    cfg.shadowConventional = true;
    const auto r = run(bin, prof, cfg, kWarm, kRun);
    EXPECT_GT(r.stats.shadowMispredicts, 0u);
    EXPECT_GT(r.stats.earlyResolvedShadowWrong, 0u);
    EXPECT_LE(r.stats.earlyResolvedShadowWrong,
              r.stats.shadowMispredicts);
}
