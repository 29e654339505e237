#include "sampling/window_checkpoint.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "common/logging.hh"
#include "core/core.hh"
#include "obs/trace_event.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace sampling
{

namespace
{

void
addInto(core::CoreStats &acc, const core::CoreStats &delta)
{
    for (const auto &f : core::kCoreStatsFields)
        acc.*f.member += delta.*f.member;
}

double
elapsedMs(const std::chrono::steady_clock::time_point &since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

std::size_t
WindowCheckpointSet::residentBytes() const
{
    std::size_t bytes = 0;
    std::unordered_set<const program::Emulator::Page *> pages;
    for (const WindowCheckpoint &w : windows) {
        bytes += w.warmEvents.size() * sizeof(std::uint64_t);
        for (const auto &page : w.arch.pages) {
            if (pages.insert(page.words.get()).second)
                bytes += sizeof(program::Emulator::Page);
        }
    }
    return bytes;
}

// ---------------------------------------------------------------------
// Build / run / merge
// ---------------------------------------------------------------------

WindowCheckpointSet
buildWindowCheckpoints(const program::Program &binary,
                       const program::BenchmarkProfile &profile,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts,
                       const SamplingPolicy &policy,
                       const program::DecodedProgram *decoded,
                       const program::TraceFile *trace)
{
    panicIfNot(checkpointEligible(policy),
               "window checkpoints need a gapped sampling policy");
    panicIfNot(measure_insts > 0, "sampled run with empty region");
    obs::ScopedSpan span(obs::tracer(), "ckpt_build", "sampling",
                         profile.name);

    WindowCheckpointSet set;
    set.regionWarmup = warmup_insts;
    set.regionMeasure = measure_insts;
    set.policy = policy;

    program::checkWarmAddressable(binary);
    program::Emulator emu(binary, decoded, sim::coreSeed(profile),
                          trace);
    const std::uint64_t region_start = warmup_insts;
    const std::uint64_t region_end = warmup_insts + measure_insts;

    // One monotonic functional pass: with a gapped policy, consecutive
    // warm starts strictly increase, so the emulator never rewinds.
    std::uint64_t pos = 0;
    // One growing buffer records every horizon; each window keeps an
    // exactly sized copy.
    std::vector<std::uint64_t> events;
    for (std::uint64_t s = region_start; s < region_end;
         s += policy.periodInsts) {
        WindowCheckpoint w;
        w.measureStart = s;
        w.measureEnd =
            s + std::min<std::uint64_t>(policy.measureInsts,
                                        region_end - s);
        w.warmStart = s > policy.warmupInsts ? s - policy.warmupInsts : 0;

        // Functional warming covers [warm_begin, warmStart): the last
        // warmingHorizon instructions of the gap (the whole gap when
        // the horizon is 0), recorded rather than applied.
        std::uint64_t warm_begin = w.warmStart;
        if (policy.functionalWarming) {
            const std::uint64_t h = policy.warmingHorizon;
            warm_begin = h != 0 && w.warmStart > h ? w.warmStart - h : 0;
            warm_begin = std::max(warm_begin, pos);
        }
        if (warm_begin > pos)
            emu.skip(warm_begin - pos);
        if (w.warmStart > warm_begin) {
            events.clear();
            program::WarmStreamRecorder rec(events);
            Addr line = ~0ull;
            emu.warmForward(w.warmStart - warm_begin, rec,
                            program::kWarmLineShift, line);
            w.warmEvents.assign(events.begin(), events.end());
        }
        // Pages unchanged since the previous window share its storage.
        w.arch = emu.checkpoint(
            set.windows.empty() ? nullptr : &set.windows.back().arch);
        pos = w.warmStart;
        set.windows.push_back(std::move(w));
    }
    set.builderInsts = pos;
    return set;
}

WindowRunResult
runWindow(const WindowCheckpoint &w, const program::Program &binary,
          const core::CoreConfig &cfg, std::uint64_t seed,
          const program::DecodedProgram *decoded,
          const program::TraceFile *trace)
{
    WindowRunResult out;

    const auto warm_start = std::chrono::steady_clock::now();
    core::OoOCore cpu(binary, cfg, seed, w.arch, decoded, trace);
    {
        obs::ScopedSpan span(obs::tracer(), "warm_replay", "sampling");
        cpu.warmReplay(w.warmEvents);
    }
    out.warmHostMs = elapsedMs(warm_start);

    const auto win_start = std::chrono::steady_clock::now();
    {
        obs::ScopedSpan span(obs::tracer(), "detailed_window",
                             "sampling");
        cpu.run(w.measureStart - w.warmStart);
        const core::CoreStats at_warm = cpu.coreStats();
        if (w.warmStart + at_warm.committedInsts >= w.measureEnd) {
            out.overshot = true; // warmup overshot the window entirely
        } else {
            cpu.run(w.measureEnd - w.warmStart);
            out.delta = sim::statsDelta(at_warm, cpu.coreStats());
        }
    }
    out.coreCommitted = cpu.coreStats().committedInsts;
    out.windowHostMs = elapsedMs(win_start);
    return out;
}

SampledRun
mergeWindowRuns(const WindowCheckpointSet &set,
                const std::vector<WindowRunResult> &runs,
                const std::string &benchmark,
                std::uint64_t measure_insts)
{
    panicIfNot(runs.size() == set.windows.size(),
               "window-run count does not match the checkpoint set");

    SampledRun out;
    out.fastForwardInsts = set.builderInsts;

    core::CoreStats total;
    std::vector<double> window_ipc;
    std::vector<double> window_mispred;
    std::uint64_t detailed = 0;
    double warm_ms = 0.0;
    double window_ms = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const WindowRunResult &wr = runs[i];
        detailed += wr.coreCommitted;
        warm_ms += wr.warmHostMs;
        window_ms += wr.windowHostMs;
        if (wr.overshot)
            continue;
        addInto(total, wr.delta);
        window_ipc.push_back(wr.delta.ipc());
        window_mispred.push_back(wr.delta.mispredRatePct());
        out.samples.push_back(
            WindowSample{set.windows[i].measureStart, wr.delta});
        ++out.windows;
    }

    sim::RunResult r;
    r.benchmark = benchmark;
    r.sampled = true;
    r.measuredInsts = total.committedInsts;
    r.detailedInsts = detailed;
    r.ipc = total.ipc();
    r.mispredRatePct = total.mispredRatePct();
    r.accuracyPct = 100.0 - r.mispredRatePct;
    r.shadowMispredRatePct = total.shadowMispredRatePct();
    r.earlyResolvedPct = total.earlyResolvedPct();

    // A gapped policy can never tile the region, so the only exact case
    // is the degenerate single window spanning it (then bit-identical
    // to full simulation); everything else extrapolates per measured
    // instruction, exactly as the serial tail does.
    const bool single_full =
        out.windows == 1 && set.policy.measureInsts >= measure_insts;
    if (total.committedInsts == 0 || single_full) {
        r.stats = total;
    } else {
        const double scale = static_cast<double>(measure_insts) /
            static_cast<double>(total.committedInsts);
        for (const auto &f : core::kCoreStatsFields) {
            r.stats.*f.member = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(total.*f.member) * scale));
        }
    }

    const double ipc_half = ciHalfWidth(window_ipc);
    r.ipcErrorBound = r.ipc > 0.0 ? 100.0 * ipc_half / r.ipc : 0.0;
    out.mispredCiPp = ciHalfWidth(window_mispred);

    r.ffHostMs = warm_ms;
    r.windowHostMs = window_ms;
    r.hostMs = warm_ms + window_ms;
    out.result = r;
    return out;
}

SampledRun
sampledRunCheckpointed(const program::Program &binary,
                       const program::BenchmarkProfile &profile,
                       const sim::SchemeConfig &scheme,
                       const core::CoreConfig &base_cfg,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts,
                       const SamplingPolicy &policy,
                       const program::DecodedProgram *decoded,
                       const program::TraceFile *trace)
{
    const auto host_start = std::chrono::steady_clock::now();
    const WindowCheckpointSet set = buildWindowCheckpoints(
        binary, profile, warmup_insts, measure_insts, policy, decoded,
        trace);
    const double build_ms = elapsedMs(host_start);

    const core::CoreConfig cfg = sim::resolveConfig(scheme, base_cfg);
    const std::uint64_t seed = sim::coreSeed(profile);
    std::vector<WindowRunResult> runs;
    runs.reserve(set.windows.size());
    for (const WindowCheckpoint &w : set.windows)
        runs.push_back(runWindow(w, binary, cfg, seed, decoded, trace));

    SampledRun out =
        mergeWindowRuns(set, runs, profile.name, measure_insts);
    out.result.ffHostMs += build_ms;
    out.result.hostMs = elapsedMs(host_start);
    return out;
}

} // namespace sampling
} // namespace pp
