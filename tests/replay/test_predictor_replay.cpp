/**
 * @file
 * Correctness anchors for the predictor-only replay tier (src/replay/):
 *
 *  - Reconciliation: replay stats vs the detailed core on the golden
 *    accuracy grid (sampling/accuracy_contract.hh), all four schemes.
 *    Stream geometry (committed conditional branches / compares) must
 *    match the core's committed counters exactly; mispredict rates
 *    reconcile within a documented tolerance — replay predicts in
 *    commit order with no early resolution and a program-order stale
 *    predicate window, the deliberate divergences documented in
 *    docs/replay_format.md.
 *  - Batched-vs-serial bit-identity: a cell's counters may never
 *    depend on which other configs shared its pass.
 *  - Thread-count determinism: the pp.replay.v1 document is
 *    byte-identical at 1 and 4 threads (modulo *host_ms).
 *  - Trace parity: a stream extracted from a recorded trace artifact
 *    is word-identical to one generated from the profile seed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "program/trace.hh"
#include "replay/predictor_replay.hh"
#include "sampling/accuracy_contract.hh"
#include "sim/simulator.hh"

using namespace pp;

namespace
{

constexpr std::uint64_t kWarmup = sampling::kAccuracyWarmup;
constexpr std::uint64_t kMeasure = sampling::kAccuracyMeasure;

/**
 * Reconciliation tolerances, calibrated against the measured
 * golden-grid deltas (also recorded in docs/replay_format.md):
 *
 *   gzip/conventional      full 10.32%  replay 10.37%  +0.04pp
 *   gzip+ifc/conventional  full  5.25%  replay  5.63%  +0.37pp
 *   crafty+ifc/peppa       full  6.21%  replay  4.48%  -1.74pp
 *   swim+ifc/predicate     full  1.49%  replay  2.80%  +1.32pp (49% early)
 *   gzip+ifc/selective     full  3.17%  replay  4.40%  +1.23pp (39% early)
 *   ifcmax+ifc/selective   full  3.02%  replay  7.15%  +4.12pp (65% early)
 *   crafty+ifc/ideal       full  4.32%  replay  6.00%  +1.69pp (33% early)
 *   swim+ifc/sel_shadow    full  1.49%  replay  2.80%  +1.32pp (49% early)
 *
 * Conventional perceptron cells reconcile tightly — the only timing
 * difference is fetch-time speculative history vs commit-order replay.
 * PEP-PA reconciles within a wider band: replay approximates the OoO
 * staleness of its predicate selector with a program-order ROB window.
 * Predicate-predictor cells diverge one-sidedly: the core resolves
 * 33-65%% of guarded branches early against the PPRF and those can
 * never mispredict, while replay predicts every branch — measured, at
 * most ~6%% of the early-resolved population returns as extra replay
 * misses (bounded at 12%% below for drift headroom).
 */
constexpr double kConventionalBoundPp = 0.75;
constexpr double kPepPaBoundPp = 3.0;
constexpr double kPredicateFloorPp = 0.5;
constexpr double kEarlyResolvedMissShare = 0.12;

/** Window-boundary slack: the detailed core overshoots the measured
 *  region by up to a fetch group, so edge branches can differ. */
constexpr double kCountSlack = 2.0;

replay::ReplayWorkloadSpec
specFor(const program::BenchmarkProfile &profile, bool if_convert,
        std::uint64_t warmup = kWarmup, std::uint64_t measure = kMeasure)
{
    replay::ReplayWorkloadSpec s;
    s.profile = profile;
    s.ifConvert = if_convert;
    s.warmupInsts = warmup;
    s.measureInsts = measure;
    return s;
}

void
expectStatsIdentical(const replay::ReplayStats &a,
                     const replay::ReplayStats &b)
{
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicted, b.mispredicted);
    EXPECT_EQ(a.l1Mispredicted, b.l1Mispredicted);
    EXPECT_EQ(a.mispredTaken, b.mispredTaken);
    EXPECT_EQ(a.mispredNotTaken, b.mispredNotTaken);
    EXPECT_EQ(a.brBranches, b.brBranches);
    EXPECT_EQ(a.brMispredicted, b.brMispredicted);
    EXPECT_EQ(a.callBranches, b.callBranches);
    EXPECT_EQ(a.callMispredicted, b.callMispredicted);
    EXPECT_EQ(a.retBranches, b.retBranches);
    EXPECT_EQ(a.retMispredicted, b.retMispredicted);
    EXPECT_EQ(a.compares, b.compares);
    EXPECT_EQ(a.pd1Mispredicts, b.pd1Mispredicts);
    EXPECT_EQ(a.pd2Mispredicts, b.pd2Mispredicts);
    EXPECT_EQ(a.confidentPd1, b.confidentPd1);
    EXPECT_EQ(a.confidentPd1Wrong, b.confidentPd1Wrong);
    EXPECT_EQ(a.shadowMispredicts, b.shadowMispredicts);
}

/** The multi-scheme config list the bit-identity tests batch. */
std::vector<replay::ReplayConfig>
mixedConfigs()
{
    std::vector<replay::ReplayConfig> out;
    auto add = [&](const char *name, const char *scheme_name) {
        out.push_back(replay::ReplayConfig{
            name, sampling::accuracySchemeByName(scheme_name),
            core::CoreConfig{}});
    };
    add("conventional", "conventional");
    add("peppa", "peppa");
    add("predicate", "predicate");
    add("selective", "selective");
    add("selective_shadow", "selective_shadow");
    add("ideal", "ideal");
    {
        sim::SchemeConfig split;
        split.scheme = core::PredictionScheme::PredicatePredictor;
        split.splitPvt = true;
        out.push_back(replay::ReplayConfig{"split-pvt", split,
                                           core::CoreConfig{}});
    }
    {
        sim::SchemeConfig conv;
        conv.scheme = core::PredictionScheme::Conventional;
        core::CoreConfig small;
        small.perceptron.tableEntries = 1848;
        out.push_back(replay::ReplayConfig{"perc-small", conv, small});
    }
    {
        sim::SchemeConfig pep;
        pep.scheme = core::PredictionScheme::PepPa;
        core::CoreConfig small;
        small.peppa.lhtEntries = 2048;
        small.peppa.phtBits = 17;
        out.push_back(replay::ReplayConfig{"peppa-small", pep, small});
    }
    return out;
}

/** Fresh per-test scratch directory (under the gtest temp root). */
std::string
uniqueDir(const std::string &name)
{
    const std::string d = ::testing::TempDir() + "ppreplay-" + name + "-" +
        std::to_string(::getpid());
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** The same two workloads as a full-detail spec list. */
std::vector<driver::RunSpec>
runSpecsFor(const std::vector<replay::ReplayWorkloadSpec> &workloads)
{
    driver::RunMatrix m;
    for (const auto &w : workloads)
        m.addBenchmark(w.profile);
    sim::SchemeConfig conv;
    m.addScheme("conventional", conv)
        .ifConvert(true)
        .window(workloads[0].warmupInsts, workloads[0].measureInsts);
    return m.specs();
}

} // namespace

TEST(PredictorReplay, ReconcilesWithFullSimOnGoldenGrid)
{
    for (const sampling::AccuracyCell &c : sampling::kAccuracyGrid) {
        SCOPED_TRACE(c.label());
        const auto profile = program::profileByName(c.benchmark);
        const sim::SchemeConfig scheme =
            sampling::accuracySchemeByName(c.scheme);
        const sim::RunResult full = sim::buildAndRun(
            profile, c.ifConvert, scheme, kWarmup, kMeasure);

        const sim::ProgramRef binary =
            sim::buildBinaryShared(profile, c.ifConvert);
        const sim::DecodedRef decoded = sim::decodeShared(binary);
        const replay::ReplayWorkloadResult r = replay::runReplayWorkload(
            *binary, specFor(profile, c.ifConvert),
            {replay::ReplayConfig{c.scheme, scheme, core::CoreConfig{}}},
            decoded.get());
        const replay::ReplayStats &s = r.configs[0].stats;

        // Stream geometry: the replayed stream IS the committed
        // instruction stream (same generator, same seed); branch and
        // compare populations match the core's committed counters up
        // to the window-boundary overshoot.
        EXPECT_NEAR(static_cast<double>(s.condBranches),
                    static_cast<double>(
                        full.stats.committedCondBranches),
                    kCountSlack);
        if (scheme.scheme ==
            core::PredictionScheme::PredicatePredictor) {
            EXPECT_NEAR(static_cast<double>(s.compares),
                        static_cast<double>(
                            full.stats.committedCompares),
                        kCountSlack);
            EXPECT_GT(s.compares, 0u);
        }
        EXPECT_GT(s.condBranches, 0u);

        const double full_pct = full.stats.committedCondBranches == 0
            ? 0.0
            : 100.0 *
                static_cast<double>(
                    full.stats.mispredictedCondBranches) /
                static_cast<double>(full.stats.committedCondBranches);
        const double replay_pct = s.mispredPct();

        if (scheme.scheme == core::PredictionScheme::Conventional) {
            EXPECT_NEAR(replay_pct, full_pct, kConventionalBoundPp);
        } else if (scheme.scheme == core::PredictionScheme::PepPa) {
            EXPECT_NEAR(replay_pct, full_pct, kPepPaBoundPp);
        } else {
            // Predicate-predictor cells: replay cannot beat the
            // PPRF-assisted core by more than noise (the floor), and
            // its extra misses are bounded by a measured share of the
            // branches the core resolved early.
            EXPECT_GE(replay_pct, full_pct - kPredicateFloorPp)
                << "replay " << replay_pct << "% vs full " << full_pct
                << "%";
            const double extra_allowed = kEarlyResolvedMissShare *
                static_cast<double>(full.stats.earlyResolvedBranches);
            EXPECT_LE(static_cast<double>(s.mispredicted),
                      static_cast<double>(
                          full.stats.mispredictedCondBranches) +
                          extra_allowed)
                << "replay misses " << s.mispredicted << " vs full "
                << full.stats.mispredictedCondBranches
                << " + 12% of " << full.stats.earlyResolvedBranches
                << " early-resolved";
        }
        if (scheme.shadowConventional) {
            EXPECT_GT(s.shadowMispredicts, 0u);
        }
    }
}

TEST(PredictorReplay, BatchedBitIdenticalToSerial)
{
    const auto profile = program::profileByName("gzip");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::DecodedRef decoded = sim::decodeShared(binary);
    const replay::ReplayWorkloadSpec spec =
        specFor(profile, true, 10000, 40000);
    const std::vector<replay::ReplayConfig> configs = mixedConfigs();

    const replay::ReplayWorkloadResult batched =
        replay::runReplayWorkload(*binary, spec, configs,
                                  decoded.get());
    ASSERT_EQ(batched.configs.size(), configs.size());

    for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(configs[c].name);
        const replay::ReplayWorkloadResult solo =
            replay::runReplayWorkload(*binary, spec, {configs[c]},
                                      decoded.get());
        expectStatsIdentical(batched.configs[c].stats,
                             solo.configs[0].stats);
        EXPECT_EQ(batched.configs[c].storageBytes,
                  solo.configs[0].storageBytes);
    }
}

TEST(PredictorReplay, EngineDocByteIdenticalAcrossThreadCounts)
{
    replay::ReplayMatrix matrix;
    matrix.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("crafty"))
        .ifConvert(true)
        .window(10000, 40000);
    for (const replay::ReplayConfig &rc : mixedConfigs())
        matrix.addConfig(rc.name, rc.scheme, rc.config);

    driver::SweepOptions one;
    one.threads = 1;
    driver::SweepEngine engine_one(one);
    const std::string doc_one = driver::scrubHostMs(
        driver::replayJsonString(engine_one.runReplay(matrix)));

    driver::SweepOptions four;
    four.threads = 4;
    driver::SweepEngine engine_four(four);
    const std::string doc_four = driver::scrubHostMs(
        driver::replayJsonString(engine_four.runReplay(matrix)));

    EXPECT_EQ(doc_one, doc_four);
}

TEST(PredictorReplay, TraceStreamMatchesGeneratedStream)
{
    const auto profile = program::profileByName("crafty");
    const sim::ProgramRef binary = sim::buildBinaryShared(profile, true);
    const sim::DecodedRef decoded = sim::decodeShared(binary);

    program::TraceFile::Meta meta;
    meta.benchmark = profile.name;
    meta.isFp = profile.isFp;
    meta.ifConverted = true;
    meta.seed = profile.seed;
    const program::TraceFile trace = program::TraceFile::record(
        *binary, meta, sim::coreSeed(profile),
        kWarmup + kMeasure + program::kTraceRecordSlack,
        decoded.get());

    const replay::ReplayStream generated = replay::extractStream(
        *binary, profile, kWarmup, kMeasure, decoded.get());
    const replay::ReplayStream replayed = replay::extractStream(
        *binary, profile, kWarmup, kMeasure, decoded.get(), &trace);

    // Word-identical streams: the trace replays the exact recorded
    // condition outcomes, so every event word must match.
    EXPECT_EQ(generated.warmupEvents, replayed.warmupEvents);
    EXPECT_EQ(generated.measureEvents, replayed.measureEvents);
    EXPECT_EQ(generated.measureBranches, replayed.measureBranches);
    EXPECT_EQ(generated.measureCompares, replayed.measureCompares);
}

// ---------------------------------------------------------------------
// The build phase both engine entry points share
// ---------------------------------------------------------------------

TEST(PredictorReplay, RecordModeWritesTheSameTracesAsRun)
{
    const std::vector<replay::ReplayWorkloadSpec> workloads = {
        specFor(program::profileByName("gzip"), true, 5000, 20000),
        specFor(program::profileByName("crafty"), true, 5000, 20000)};
    const std::string run_dir = uniqueDir("rec-run");
    const std::string replay_dir = uniqueDir("rec-replay");

    driver::SweepOptions opts;
    opts.recordTraceDir = run_dir;
    driver::SweepEngine(opts).run(runSpecsFor(workloads));
    opts.recordTraceDir = replay_dir;
    driver::SweepEngine(opts).runReplay(workloads, mixedConfigs());

    for (const auto &w : workloads) {
        SCOPED_TRACE(w.binaryKey());
        const std::string name = "/" + w.binaryKey() + ".pptrace";
        const std::string recorded = readFile(run_dir + name);
        ASSERT_FALSE(recorded.empty());
        EXPECT_EQ(readFile(replay_dir + name), recorded);
    }
}

TEST(PredictorReplay, DamagedTraceIsATypedErrorFromBothEntryPoints)
{
    std::vector<replay::ReplayWorkloadSpec> workloads = {
        specFor(program::profileByName("gzip"), true, 5000, 20000)};
    const std::string dir = uniqueDir("damaged");
    {
        driver::SweepOptions opts;
        opts.recordTraceDir = dir;
        driver::SweepEngine(opts).runReplay(workloads, mixedConfigs());
    }
    // Flip one byte in the middle of the artifact: its content hash no
    // longer matches.
    const std::string path = dir + "/" + workloads[0].binaryKey() +
        ".pptrace";
    std::string bytes = readFile(path);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] ^= 0x5a;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    std::vector<driver::RunSpec> specs = runSpecsFor(workloads);
    sim::applyTraceDir(specs, dir);
    sim::applyTraceDir(workloads, dir);
    driver::SweepEngine engine{driver::SweepOptions{}};
    EXPECT_THROW(engine.run(specs), program::TraceError);
    EXPECT_THROW(engine.runReplay(workloads, mixedConfigs()),
                 program::TraceError);
}
