/**
 * @file
 * Contract of the checkpoint-parallel sampled tier:
 *  - the t-distribution CI correction matches the published table;
 *  - the engine's parallel window execution is bit-identical to the
 *    standalone serial sampled path at any thread count;
 *  - the sweep summary's checkpoint counters stay a pure function of
 *    the spec list;
 *  - checkpoint sets store only non-zero pages, share unchanged pages
 *    between consecutive windows, and stay within a footprint bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "obs/metrics.hh"
#include "program/warm_stream.hh"
#include "sampling/accuracy_contract.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"
#include "sim/simulator.hh"

using namespace pp;
using sampling::WindowCheckpointSet;

namespace
{

/** A sparse (gapped) policy that routes through the checkpoint tier. */
sampling::SamplingPolicy
gappedPolicy()
{
    sampling::SamplingPolicy p;
    p.periodInsts = 4000;
    p.warmupInsts = 1000;
    p.measureInsts = 1000;
    return p;
}

/** @p e decodes to a known kind, legal flags and an in-binary address. */
void
expectWellFormed(const program::WarmEvent &e, const program::Program &bin)
{
    const Addr code_end = bin.size() * isa::instBytes;
    switch (e.kind) {
      case program::WarmEventKind::InstLine:
        EXPECT_EQ(e.flags, 0u);
        EXPECT_LT(e.addr, code_end);
        break;
      case program::WarmEventKind::Mem:
        EXPECT_LE(e.flags, 1u);
        EXPECT_LT(e.addr, bin.dataSize());
        EXPECT_EQ(e.addr % 8, 0u);
        break;
      case program::WarmEventKind::Branch:
        EXPECT_LE(e.flags, 1u);
        EXPECT_LT(e.addr, code_end);
        EXPECT_TRUE(bin.at(e.addr)->isBranch());
        break;
      case program::WarmEventKind::Compare:
        EXPECT_LT(e.addr, code_end);
        EXPECT_TRUE(bin.at(e.addr)->isCompare());
        break;
      default:
        ADD_FAILURE() << "unknown event kind " << int(e.kind);
    }
}

WindowCheckpointSet
buildGzipSet()
{
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    return sampling::buildWindowCheckpoints(binary, profile, 5000, 20000,
                                            gappedPolicy());
}

} // namespace

TEST(TCritical, MatchesTableWithStepDown)
{
    EXPECT_DOUBLE_EQ(sampling::tCritical95(0), 0.0);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(2), 4.303);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(7), 2.365);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(8), 2.306);
    // Between tabulated rows the largest df <= actual applies
    // (conservative: a larger t, a wider interval).
    EXPECT_DOUBLE_EQ(sampling::tCritical95(11), 2.228);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(14), 2.179);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(29), 2.086);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(30), 2.042);
    // Beyond the table the normal approximation is fine.
    EXPECT_DOUBLE_EQ(sampling::tCritical95(31), 1.96);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(1000), 1.96);
}

TEST(TCritical, CiHalfWidthAppliesSmallSampleCorrection)
{
    // n=3: mean 2, sample sd 1 -> half-width = t(2) * 1/sqrt(3).
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    EXPECT_NEAR(sampling::ciHalfWidth(xs), 4.303 / std::sqrt(3.0),
                1e-12);
    // Degenerate inputs carry no interval.
    EXPECT_DOUBLE_EQ(sampling::ciHalfWidth({}), 0.0);
    EXPECT_DOUBLE_EQ(sampling::ciHalfWidth({1.0}), 0.0);
}

TEST(SamplingPolicy, WindowCountValidationGuardsSparseRegions)
{
    const sampling::SamplingPolicy smarts =
        sampling::SamplingPolicy::smarts();
    EXPECT_EQ(smarts.windowsInRegion(3000000), 12u);
    EXPECT_EQ(sampling::SamplingPolicy{}.windowsInRegion(3000000), 0u);
    smarts.validateForRegion(2000000);             // 8 windows: ok
    sampling::SamplingPolicy{}.validateForRegion(100);  // disabled: ok
    EXPECT_DEATH(smarts.validateForRegion(250000), "need >= 8");
}

TEST(WindowCheckpoint, BuilderLaysOutGappedWindows)
{
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    const WindowCheckpointSet set = buildGzipSet();
    ASSERT_EQ(set.windows.size(), 5u);  // ceil(20000 / 4000)
    EXPECT_EQ(set.regionWarmup, 5000u);
    EXPECT_EQ(set.regionMeasure, 20000u);
    std::uint64_t prev_start = 0;
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        const auto &w = set.windows[i];
        // Window i measures [5000 + 4000 i, +1000) after 1000 warmup.
        EXPECT_EQ(w.measureStart, 5000u + 4000 * i);
        EXPECT_EQ(w.measureEnd, w.measureStart + 1000u);
        EXPECT_EQ(w.warmStart, w.measureStart - 1000u);
        EXPECT_GE(w.warmStart, prev_start);
        prev_start = w.warmStart;
        // The checkpoint sits exactly at the warm start and carries a
        // well-formed warming stream for the horizon before it.
        EXPECT_EQ(w.arch.numInsts, w.warmStart);
        EXPECT_FALSE(w.warmEvents.empty());
        for (const std::uint64_t word : w.warmEvents)
            expectWellFormed(program::decodeWarmEvent(word), binary);
    }
    // The builder pass walks the region exactly once, to the last
    // window's warm start.
    EXPECT_EQ(set.builderInsts, set.windows.back().warmStart);
}

TEST(WindowCheckpoint, PagesAreNonZeroAndSharedWithThePreviousWindow)
{
    const WindowCheckpointSet set = buildGzipSet();
    using Page = program::Emulator::Page;
    std::size_t shared = 0;
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        const auto &pages = set.windows[i].arch.pages;
        ASSERT_FALSE(pages.empty());
        for (const auto &page : pages) {
            EXPECT_TRUE(std::any_of(page.words->begin(), page.words->end(),
                                    [](std::uint64_t v) { return v != 0; }))
                << "window " << i << " stores all-zero page "
                << page.index;
            if (i == 0)
                continue;
            // An equal page of the previous window is the same storage.
            for (const auto &prev : set.windows[i - 1].arch.pages) {
                if (prev.index != page.index)
                    continue;
                if (*prev.words == *page.words) {
                    EXPECT_EQ(prev.words.get(), page.words.get())
                        << "window " << i << " copied page " << page.index;
                    ++shared;
                } else {
                    EXPECT_NE(prev.words.get(), page.words.get());
                }
            }
        }
    }
    EXPECT_GT(shared, 0u);

    // The footprint counts every distinct page once, plus event words.
    std::size_t events = 0;
    std::set<const Page *> distinct;
    for (const auto &w : set.windows) {
        events += w.warmEvents.size();
        for (const auto &page : w.arch.pages)
            distinct.insert(page.words.get());
    }
    EXPECT_EQ(set.residentBytes(),
              events * sizeof(std::uint64_t) +
                  distinct.size() * sizeof(Page));
}

TEST(WindowCheckpoint, SmartsSetFootprintIsBounded)
{
    // The gzip cell of the selective-predication sampled sweep: the
    // smarts() policy over a 2M-instruction region after a 50k lead-in
    // (8 windows). Measured at 4,617,136 bytes: 327,798 one-word
    // events plus 487 distinct 4 KB pages. The flat per-window copy of
    // the 4 MB data segment with two-word events cost 38.8 MB. The
    // bound leaves 25% headroom; reverting either the page sharing
    // (1,789 stored pages) or the one-word events overshoots it.
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    const WindowCheckpointSet set = sampling::buildWindowCheckpoints(
        binary, profile, 50000, 2000000,
        sampling::SamplingPolicy::smarts());
    ASSERT_EQ(set.windows.size(), 8u);
    EXPECT_LE(set.residentBytes(), 4617136u * 5 / 4);
}

TEST(WindowCheckpoint, CheckpointTierKeepsTheSerialEstimatorContract)
{
    // The checkpoint tier is deterministic and keeps the estimator
    // shape the serial sampled contract promises (extrapolated
    // counters, pooled rates, finite CI). It deliberately does NOT
    // reproduce the persistent-core sampledRunDetailed() bit-for-bit —
    // per-window independence is the price of parallelism — but the
    // two estimators must land on the same region magnitudes.
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    const sim::SchemeConfig scheme =
        sampling::accuracySchemeByName("conventional");

    const sampling::SampledRun direct =
        sampling::sampledRunCheckpointed(binary, profile, scheme,
                                         core::CoreConfig{}, 5000, 20000,
                                         gappedPolicy());
    const sampling::SampledRun again =
        sampling::sampledRunCheckpointed(binary, profile, scheme,
                                         core::CoreConfig{}, 5000, 20000,
                                         gappedPolicy());
    const sampling::SampledRun legacy = sampling::sampledRunDetailed(
        binary, profile, scheme, core::CoreConfig{}, 5000, 20000,
        gappedPolicy());

    EXPECT_EQ(direct.windows, 5u);
    EXPECT_TRUE(direct.result.sampled);
    EXPECT_GT(direct.result.ipcErrorBound, 0.0);
    EXPECT_NEAR(static_cast<double>(direct.result.stats.committedInsts),
                20000.0, 1.0);
    for (const auto &f : core::kCoreStatsFields)
        EXPECT_EQ(direct.result.stats.*f.member,
                  again.result.stats.*f.member)
            << f.name;
    EXPECT_EQ(direct.result.ipc, again.result.ipc);
    EXPECT_EQ(direct.result.ipcErrorBound, again.result.ipcErrorBound);

    // Same windows, same region estimate scale as the legacy path;
    // the IPC estimates agree to sampling tolerance.
    EXPECT_EQ(direct.windows, legacy.windows);
    EXPECT_NEAR(static_cast<double>(legacy.result.stats.committedInsts),
                static_cast<double>(direct.result.stats.committedInsts),
                64.0);
    EXPECT_NEAR(direct.result.ipc, legacy.result.ipc,
                0.1 * legacy.result.ipc);
}

TEST(WindowCheckpoint, ParallelWindowsBitIdenticalAcrossThreadCounts)
{
    // The tentpole contract: over a golden-grid-style matrix the
    // engine's checkpoint-parallel execution produces byte-identical
    // documents at threads 1, 2 and 8, each matching the standalone
    // serial checkpoint tier per cell.
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .addScheme("conventional",
                   sampling::accuracySchemeByName("conventional"))
        .addScheme("selective",
                   sampling::accuracySchemeByName("selective"))
        .addSampling("gap", gappedPolicy())
        .window(5000, 20000);
    const auto specs = m.specs();

    std::vector<std::string> docs;
    std::vector<std::vector<sim::RunResult>> all;
    for (unsigned threads : {1u, 2u, 8u}) {
        driver::SweepOptions opts;
        opts.threads = threads;
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        docs.push_back(driver::scrubHostMs(
            driver::JsonSink{engine.counters()}.toString(specs, results)));
        all.push_back(results);
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label());
        const program::Program binary =
            sim::buildBinary(specs[i].profile, specs[i].ifConvert);
        const sampling::SampledRun serial =
            sampling::sampledRunCheckpointed(
                binary, specs[i].profile, specs[i].scheme,
                specs[i].config, specs[i].warmupInsts,
                specs[i].measureInsts, specs[i].sampling);
        for (const auto &f : core::kCoreStatsFields)
            EXPECT_EQ(all[2][i].stats.*f.member,
                      serial.result.stats.*f.member)
                << f.name;
        EXPECT_EQ(all[2][i].ipc, serial.result.ipc);
        EXPECT_EQ(all[2][i].ipcErrorBound, serial.result.ipcErrorBound);
    }
}

TEST(WindowCheckpoint, EngineCountersMatchTheDocument)
{
    // 1 workload x {2 schemes} x gapped policy: one checkpoint set
    // built, one cache hit — and a full (unsampled) axis contributes
    // to neither counter.
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .ifConvert(true)
        .addScheme("conventional",
                   sampling::accuracySchemeByName("conventional"))
        .addScheme("selective",
                   sampling::accuracySchemeByName("selective"))
        .addSampling("", sampling::SamplingPolicy{})
        .addSampling("gap", gappedPolicy())
        .window(5000, 20000);
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 4u);

    driver::SweepOptions opts;
    opts.threads = 2;
    driver::SweepEngine engine(opts);
    obs::metrics().reset();
    const auto results = engine.run(specs);
    EXPECT_EQ(engine.counters().checkpointsBuilt, 1u);

    // The one set's footprint lands in the byte histogram.
    const obs::MetricSnapshot snap = obs::metrics().snapshot();
    const auto it = std::find_if(
        snap.entries.begin(), snap.entries.end(), [](const auto &e) {
            return e.name == "sweep.checkpoint_set_bytes";
        });
    ASSERT_NE(it, snap.entries.end());
    EXPECT_EQ(it->kind, obs::MetricEntry::Kind::Histogram);
    EXPECT_EQ(it->count, 1u);
    EXPECT_EQ(it->value,
              static_cast<double>(buildGzipSet().residentBytes()));
    EXPECT_EQ(engine.counters().checkpointCacheHits, 1u);
    const std::string doc =
        driver::JsonSink{engine.counters()}.toString(specs, results);
    EXPECT_NE(doc.find("\"checkpoints_built\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"checkpoint_cache_hits\":1"), std::string::npos);
}
