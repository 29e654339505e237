/**
 * @file
 * The traced run: a per-layer ledger of one workload, measured from
 * outside the program.
 *
 * The benchmark re-executes the workload's pass itself, one public
 * call at a time on one thread, and times each call in a span named
 * "<layer>.<call>" kept in a private obs::Tracer. Layers are the
 * modules: program, core, memory, sampling, replay, predictor, cache,
 * driver. The pass runs twice, untraced then traced (the difference is
 * the tracing overhead); the traced pass's spans are written out as a
 * Perfetto-loadable file and summed into self time per layer.
 *
 * A layer the workload's pass does not reach is measured by a probe on
 * the workload's first profile, so every per-layer metric is reported
 * on every workload; README.md names which workload each one is meant
 * to explain. The engine's own *host_ms fields are never read.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>

#include "cache/result_cache.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/sweep_engine.hh"
#include "harness.hh"
#include "obs/trace_event.hh"
#include "program/emulator.hh"
#include "sampling/window_checkpoint.hh"

namespace perfbench
{

using namespace pp;

namespace
{

/** Per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"program.codegen_ms", "ms"},
    {"program.decode_ms", "ms"},
    {"program.ifconvert_ms", "ms"},
    {"program.emu_skip_kips", "kinst/s"},
    {"program.emu_stream_kips", "kinst/s"},
    {"core.kips", "kinst/s"},
    {"core.cell_ms_p50", "ms"},
    {"core.cell_ms_max", "ms"},
    {"core.host_ns_per_cycle", "ns"},
    {"core.cycles_per_kinst", "count"},
    {"core.branch_flushes_per_kinst", "count"},
    {"core.predicate_flushes_per_kinst", "count"},
    {"core.override_redirects_per_kinst", "count"},
    {"memory.l1i_mpki", "count"},
    {"memory.l1d_mpki", "count"},
    {"memory.l2_mpki", "count"},
    {"replay.extract_ms", "ms"},
    {"replay.stream_events", "count"},
    {"replay.config_evals_per_s", "1/s"},
    {"predictor.pvt.ns_per_event", "ns"},
    {"predictor.perceptron.ns_per_event", "ns"},
    {"predictor.peppa.ns_per_event", "ns"},
    {"sampling.checkpoint_build_ms", "ms"},
    {"sampling.window_ms_p50", "ms"},
    {"sampling.windows", "count"},
    {"sampling.merge_ms", "ms"},
    {"sampling.detailed_frac", "ratio"},
    {"cache.lookup_us_p50", "us"},
    {"cache.lookup_us_p90", "us"},
    {"cache.store_us_p50", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.corrupt", "count"},
    {"driver.parse_us_p50", "us"},
    {"driver.sink_ms", "ms"},
    {"driver.doc_bytes", "bytes"},
    {"driver.parallel_efficiency", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.layer_coverage_pct", "%"},
};

/** A built binary and its shared predecode. */
struct Built
{
    sim::ProgramRef bin;
    sim::DecodedRef dec;
};

std::string
buildKey(const program::BenchmarkProfile &p, bool ifc)
{
    return p.name + (ifc ? ".ifc" : "");
}

/**
 * What one ledger pass measured. Metrics follow first-writer-wins:
 * the workload's own pass sets what it reaches, and the probes after
 * it fill in only what is still missing.
 */
struct Ledger
{
    obs::Tracer tracer;
    std::map<std::string, double> metrics;
    std::map<std::string, Built> built;
    std::vector<std::uint64_t> digests;

    bool has(const std::string &name) const { return metrics.count(name); }

    void
    set(const std::string &name, double v)
    {
        metrics.emplace(name, v);
    }

    /** Run @p f inside a span; returns its wall milliseconds. */
    template <class F>
    double
    timed(const char *span, const std::string &label, F &&f)
    {
        obs::ScopedSpan s(tracer, span, "layer", label);
        const double t0 = wallNow();
        f();
        return (wallNow() - t0) * 1e3;
    }

    const Built &
    binary(const program::BenchmarkProfile &p, bool ifc)
    {
        return built.at(buildKey(p, ifc));
    }
};

// ----------------------------------------------------------------------
// Layers: each times the public calls of one module
// ----------------------------------------------------------------------

/** program: sim::buildBinaryShared + sim::decodeShared. An if-converted
 *  binary's build time minus its plain twin's is the if-conversion. */
void
programLayer(Ledger &L, const std::vector<BinaryNeed> &needs)
{
    double codegen = 0.0, ifconv = 0.0, decode = 0.0;
    bool any_ifc = false;
    for (const auto &n : needs) {
        const std::string key = buildKey(n.profile, n.ifConvert);
        Built b;
        const double plain = L.timed("program.build", key, [&] {
            b.bin = sim::buildBinaryShared(n.profile, false);
        });
        codegen += plain;
        if (n.ifConvert) {
            any_ifc = true;
            ifconv += L.timed("program.build", key, [&] {
                b.bin = sim::buildBinaryShared(n.profile, true);
            }) - plain;
        }
        decode += L.timed("program.decode", key,
                          [&] { b.dec = sim::decodeShared(b.bin); });
        L.built[key] = b;
    }
    L.set("program.codegen_ms", codegen);
    L.set("program.decode_ms", decode);
    if (any_ifc)
        L.set("program.ifconvert_ms", ifconv);
}

/** core: sim::run, one cell at a time. */
std::vector<sim::RunResult>
coreLayer(Ledger &L, const std::vector<driver::RunSpec> &cells)
{
    std::vector<sim::RunResult> out;
    std::vector<double> cell_ms;
    double total_ms = 0.0, cycles_est = 0.0;
    std::uint64_t insts = 0;
    core::CoreStats sum;
    for (const auto &s : cells) {
        const Built &b = L.binary(s.profile, s.ifConvert);
        sim::RunResult r;
        const double ms = L.timed("core.run", s.label(), [&] {
            r = sim::run(*b.bin, s.profile, s.scheme, s.config,
                         s.warmupInsts, s.measureInsts, b.dec.get());
        });
        cell_ms.push_back(ms);
        total_ms += ms;
        insts += cellInsts(s);
        // Cycles of the whole run, warmup extrapolated at the window's
        // CPI (RunResult carries the measured window only).
        cycles_est += static_cast<double>(r.stats.cycles) *
            static_cast<double>(r.detailedInsts) /
            static_cast<double>(std::max<std::uint64_t>(
                1, r.stats.committedInsts));
        for (const auto &f : core::kCoreStatsFields)
            sum.*f.member += r.stats.*f.member;
        out.push_back(std::move(r));
    }
    const double kinst =
        static_cast<double>(std::max<std::uint64_t>(1, sum.committedInsts)) /
        1000.0;
    L.set("core.kips", static_cast<double>(insts) / total_ms);
    L.set("core.cell_ms_p50", median(cell_ms));
    L.set("core.cell_ms_max", percentile(cell_ms, 100.0));
    L.set("core.host_ns_per_cycle", total_ms * 1e6 / cycles_est);
    L.set("core.cycles_per_kinst", static_cast<double>(sum.cycles) / kinst);
    L.set("core.branch_flushes_per_kinst",
          static_cast<double>(sum.branchMispredFlushes) / kinst);
    L.set("core.predicate_flushes_per_kinst",
          static_cast<double>(sum.predicateFlushes) / kinst);
    L.set("core.override_redirects_per_kinst",
          static_cast<double>(sum.overrideRedirects) / kinst);
    return out;
}

/** Cache counters of a core, read through MemSystem::registerStats. */
std::map<std::string, double>
memCounters(const core::OoOCore &cpu)
{
    stats::Group g("mem");
    cpu.memSystem().registerStats(g);
    std::ostringstream os;
    g.dump(os);
    std::map<std::string, double> out;
    std::istringstream is(os.str());
    std::string name;
    double value = 0.0;
    while (is >> name >> value) {
        out[name] = value;
        is.ignore(1 << 20, '\n');
    }
    return out;
}

/** memory: cache misses per kilo-instruction of the measured window,
 *  on cores built with sim::resolveConfig / sim::coreSeed. */
void
memoryLayer(Ledger &L, const std::vector<driver::RunSpec> &cells)
{
    double l1i = 0.0, l1d = 0.0, l2 = 0.0, kinst = 0.0;
    for (const auto &s : cells) {
        const Built &b = L.binary(s.profile, s.ifConvert);
        core::OoOCore cpu(*b.bin, sim::resolveConfig(s.scheme, s.config),
                          sim::coreSeed(s.profile), b.dec.get());
        cpu.run(s.warmupInsts);
        const auto before = memCounters(cpu);
        const std::uint64_t i0 = cpu.coreStats().committedInsts;
        cpu.run(s.warmupInsts + s.measureInsts);
        auto after = memCounters(cpu);
        l1i += after["mem.l1i.misses"] - before.at("mem.l1i.misses");
        l1d += after["mem.l1d.misses"] - before.at("mem.l1d.misses");
        l2 += after["mem.l2.misses"] - before.at("mem.l2.misses");
        kinst += static_cast<double>(cpu.coreStats().committedInsts - i0) /
            1000.0;
    }
    L.set("memory.l1i_mpki", l1i / kinst);
    L.set("memory.l1d_mpki", l1d / kinst);
    L.set("memory.l2_mpki", l2 / kinst);
}

/** program (emulator tiers): Emulator::skip and Emulator::produce. */
void
emulatorLayer(Ledger &L, const BinaryNeed &n, std::uint64_t insts)
{
    const Built &b = L.binary(n.profile, n.ifConvert);
    const std::uint64_t seed = sim::coreSeed(n.profile);
    double skip_ms = 0.0, stream_ms = 0.0;
    {
        program::Emulator em(*b.bin, b.dec.get(), seed);
        skip_ms = L.timed("program.emu_skip", n.profile.name,
                          [&] { em.skip(insts); });
    }
    std::uint64_t produced = 0;
    {
        program::Emulator em(*b.bin, b.dec.get(), seed);
        program::ExecRing ring;
        stream_ms = L.timed("program.emu_stream", n.profile.name, [&] {
            while (produced < insts) {
                em.produce(ring, 4096);
                produced += ring.size();
                ring.clear();
            }
        });
    }
    L.set("program.emu_skip_kips", static_cast<double>(insts) / skip_ms);
    L.set("program.emu_stream_kips",
          static_cast<double>(produced) / stream_ms);
}

const char *
familySpan(const std::string &family)
{
    if (family == "perceptron")
        return "predictor.perceptron";
    if (family == "peppa")
        return "predictor.peppa";
    return "predictor.pvt";
}

/** replay + predictor: replay::extractStream once per workload, then
 *  PredictorReplay::run once per predictor family. */
std::vector<replay::ReplayWorkloadResult>
replayLayer(Ledger &L, const std::vector<replay::ReplayWorkloadSpec> &wls,
            const std::vector<replay::ReplayConfig> &configs)
{
    std::vector<replay::ReplayWorkloadResult> out;
    double extract_ms = 0.0, pass_ms = 0.0;
    std::uint64_t events = 0;
    std::map<std::string, double> fam_ns;     // summed ns
    std::map<std::string, double> fam_evals;  // events x configs
    for (const auto &w : wls) {
        const Built &b = L.binary(w.profile, w.ifConvert);
        replay::ReplayStream stream;
        extract_ms += L.timed("replay.extract", w.label(), [&] {
            stream = replay::extractStream(*b.bin, w.profile,
                                           w.warmupInsts, w.measureInsts,
                                           b.dec.get());
        });
        events += stream.events();
        replay::ReplayWorkloadResult r;
        r.benchmark = w.profile.name;
        r.ifConvert = w.ifConvert;
        r.warmupInsts = w.warmupInsts;
        r.measureInsts = w.measureInsts;
        r.streamEvents = stream.events();
        r.streamBranches = stream.measureBranches;
        r.streamCompares = stream.measureCompares;
        r.configs.resize(configs.size());
        for (const std::string fam : {"pvt", "perceptron", "peppa"}) {
            std::vector<std::size_t> idx;
            std::vector<replay::ReplayCell> cells;
            for (std::size_t c = 0; c < configs.size(); ++c) {
                if (replayFamily(configs[c].name) == fam) {
                    idx.push_back(c);
                    cells.emplace_back(configs[c]);
                }
            }
            if (cells.empty())
                continue;
            replay::PredictorReplay pass(*b.bin, stream);
            const double ms = L.timed(familySpan(fam), w.label(),
                                      [&] { pass.run(cells); });
            pass_ms += ms;
            fam_ns[fam] += ms * 1e6;
            fam_evals[fam] += static_cast<double>(stream.events()) *
                static_cast<double>(cells.size());
            for (std::size_t k = 0; k < idx.size(); ++k) {
                auto &cr = r.configs[idx[k]];
                cr.name = cells[k].name();
                cr.storageBytes = cells[k].storageBytes();
                cr.stats = cells[k].stats();
            }
        }
        out.push_back(std::move(r));
    }
    L.set("replay.extract_ms", extract_ms);
    L.set("replay.stream_events", static_cast<double>(events));
    L.set("replay.config_evals_per_s",
          static_cast<double>(wls.size() * configs.size()) /
              ((extract_ms + pass_ms) / 1e3));
    for (const std::string fam : {"pvt", "perceptron", "peppa"}) {
        L.set(std::string(familySpan(fam)) + ".ns_per_event",
              fam_ns[fam] / std::max(1.0, fam_evals[fam]));
    }
    return out;
}

/** sampling: buildWindowCheckpoints once per binary (shared by its
 *  scheme cells, as in the engine), runWindow per window,
 *  mergeWindowRuns per cell. */
std::vector<sim::RunResult>
samplingLayer(Ledger &L, const std::vector<driver::RunSpec> &cells)
{
    std::vector<sim::RunResult> out;
    std::map<std::string, sampling::WindowCheckpointSet> sets;
    double ckpt_ms = 0.0, merge_ms = 0.0;
    double detailed = 0.0, covered = 0.0;
    std::vector<double> window_ms;
    for (const auto &s : cells) {
        const Built &b = L.binary(s.profile, s.ifConvert);
        const std::string key = buildKey(s.profile, s.ifConvert);
        if (!sets.count(key)) {
            ckpt_ms += L.timed("sampling.checkpoints", key, [&] {
                sets[key] = sampling::buildWindowCheckpoints(
                    *b.bin, s.profile, s.warmupInsts, s.measureInsts,
                    s.sampling, b.dec.get());
            });
        }
        const sampling::WindowCheckpointSet &set = sets.at(key);
        const core::CoreConfig cfg = sim::resolveConfig(s.scheme, s.config);
        std::vector<sampling::WindowRunResult> runs;
        for (const auto &w : set.windows) {
            window_ms.push_back(L.timed("sampling.window", s.label(), [&] {
                runs.push_back(sampling::runWindow(
                    w, *b.bin, cfg, sim::coreSeed(s.profile), b.dec.get()));
            }));
        }
        sampling::SampledRun merged;
        merge_ms += L.timed("sampling.merge", s.label(), [&] {
            merged = sampling::mergeWindowRuns(set, runs, s.profile.name,
                                               s.measureInsts);
        });
        detailed += static_cast<double>(merged.result.detailedInsts);
        covered += static_cast<double>(cellInsts(s));
        out.push_back(std::move(merged.result));
    }
    L.set("sampling.checkpoint_build_ms", ckpt_ms);
    L.set("sampling.window_ms_p50", median(window_ms));
    L.set("sampling.windows", static_cast<double>(window_ms.size()));
    L.set("sampling.merge_ms", merge_ms);
    L.set("sampling.detailed_frac", detailed / covered);
    return out;
}

/** How the cache layer drives ResultCache for one workload. */
enum class CacheMode
{
    Cold,   ///< lookup (miss), render, store: fig5_full's write side
    Warm,   ///< lookup (hit), parseRunJson: warm_rerun's read side
    Probe,  ///< store, lookup, parse: a round trip for the probe
};

/** cache + driver parse: ResultCache::lookup/store, parseRunJson. */
std::vector<sim::RunResult>
cacheLayer(Ledger &L, const std::string &dir, CacheMode mode,
           const std::vector<driver::RunSpec> &cells,
           const std::vector<sim::RunResult> &results)
{
    cache::ResultCache rc(dir);
    std::vector<sim::RunResult> out;
    std::vector<double> lookup_us, store_us, parse_us;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const driver::RunSpec &s = cells[i];
        const std::string key =
            cache::runKeyText(s, cache::workloadIdentity(s, ""));
        const auto lookup = [&] {
            std::optional<std::string> hit;
            lookup_us.push_back(1e3 * L.timed("cache.lookup", s.label(), [&] {
                hit = rc.lookup(key);
            }));
            return hit;
        };
        const auto store = [&] {
            std::string payload;
            L.timed("driver.render", s.label(), [&] {
                std::ostringstream os;
                driver::JsonWriter w(os);
                driver::writeRunJson(w, s, results.at(i));
                payload = os.str();
            });
            store_us.push_back(1e3 * L.timed("cache.store", s.label(), [&] {
                rc.store(key, payload);
            }));
        };
        if (mode == CacheMode::Cold) {
            (void)lookup();
            store();
            continue;
        }
        if (mode == CacheMode::Probe)
            store();
        const auto hit = lookup();
        if (!hit) {
            out.emplace_back(); // a miss: its digest cannot match
            continue;
        }
        sim::RunResult r;
        parse_us.push_back(1e3 * L.timed("driver.parse", s.label(), [&] {
            r = driver::parseRunJson(*hit);
        }));
        out.push_back(std::move(r));
    }
    const cache::ResultCacheStats st = rc.stats();
    if (!lookup_us.empty()) {
        L.set("cache.lookup_us_p50", median(lookup_us));
        L.set("cache.lookup_us_p90", percentile(lookup_us, 90.0));
        L.set("cache.hit_ratio", static_cast<double>(st.hits) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, st.hits + st.misses)));
        L.set("cache.corrupt", static_cast<double>(st.corrupt));
    }
    if (!store_us.empty())
        L.set("cache.store_us_p50", median(store_us));
    if (!parse_us.empty())
        L.set("driver.parse_us_p50", median(parse_us));
    return out;
}

/** driver: render the pp.sweep.v1 / pp.replay.v1 document. */
void
sinkLayer(Ledger &L, const std::vector<driver::RunSpec> &specs,
          const std::vector<sim::RunResult> &results,
          const std::vector<replay::ReplayWorkloadResult> &replays,
          double &sink_ms, double &doc_bytes)
{
    std::string doc;
    sink_ms += L.timed("driver.sink", "document", [&] {
        doc = replays.empty()
            ? driver::JsonSink(driver::sweepCountersFor(specs, false))
                  .toString(specs, results)
            : driver::replayJsonString(replays);
    });
    doc_bytes += static_cast<double>(doc.size());
}

void
append(std::vector<std::uint64_t> &to, const std::vector<std::uint64_t> &d)
{
    to.insert(to.end(), d.begin(), d.end());
}

/** The workload's pass, decomposed into its public calls. */
void
ledgerPass(const Context &ctx, Ledger &L, const std::string &cache_dir)
{
    const Grids &g = ctx.grids;
    obs::ScopedSpan root(L.tracer, "pass", "pass", ctx.workload);
    programLayer(L, binariesFor(ctx));
    double sink_ms = 0.0, doc_bytes = 0.0;
    const std::vector<replay::ReplayWorkloadResult> no_replays;
    if (ctx.workload == "fig5_full") {
        const auto rs = coreLayer(L, g.fig5);
        cacheLayer(L, cache_dir, CacheMode::Cold, g.fig5, rs);
        sinkLayer(L, g.fig5, rs, no_replays, sink_ms, doc_bytes);
        append(L.digests, runDigests(rs));
    } else if (ctx.workload == "selective_sampled") {
        const auto rs = samplingLayer(L, g.selective);
        sinkLayer(L, g.selective, rs, no_replays, sink_ms, doc_bytes);
        append(L.digests, runDigests(rs));
    } else if (ctx.workload == "ablation_replay") {
        const auto rs = replayLayer(L, g.replayWorkloads, g.replayConfigs);
        sinkLayer(L, {}, {}, rs, sink_ms, doc_bytes);
        append(L.digests, replayDigests(rs));
    } else {
        for (const auto *specs : {&g.fig5, &g.selective}) {
            const auto rs =
                cacheLayer(L, cache_dir, CacheMode::Warm, *specs, {});
            sinkLayer(L, *specs, rs, no_replays, sink_ms, doc_bytes);
            append(L.digests, runDigests(rs));
        }
    }
    L.set("driver.sink_ms", sink_ms);
    L.set("driver.doc_bytes", doc_bytes);
}

/** Fill every metric the pass did not reach from the workload's first
 *  profile (see the file comment). */
void
probe(const Context &ctx, Ledger &L, const std::string &dir)
{
    const Grids &g = ctx.grids;
    const Scale &sc = ctx.scale;
    const bool replay_wl = !g.replayWorkloads.empty();
    const program::BenchmarkProfile profile = replay_wl
        ? g.replayWorkloads.front().profile
        : (!g.fig5.empty() ? g.fig5 : g.selective).front().profile;
    const bool ifc = replay_wl || g.fig5.empty();

    // Full-detail cells of the first profile, as the workload's own
    // columns would run them.
    std::vector<driver::RunSpec> cells;
    if (replay_wl) {
        driver::RunSpec s;
        s.profile = profile;
        s.ifConvert = true;
        s.scheme = g.replayConfigs.front().scheme;
        s.config = g.replayConfigs.front().config;
        s.warmupInsts = sc.replayWarmup;
        s.measureInsts = sc.replayMeasure;
        cells.push_back(s);
    } else {
        for (auto s : !g.fig5.empty() ? g.fig5 : g.selective) {
            if (s.profile.name != profile.name)
                break;
            s.sampling = sampling::SamplingPolicy{};
            s.samplingName.clear();
            cells.push_back(s);
        }
    }

    if (!L.has("program.ifconvert_ms"))
        programLayer(L, {BinaryNeed{profile, true}});
    if (!L.built.count(buildKey(profile, ifc)))
        programLayer(L, {BinaryNeed{profile, ifc}});
    emulatorLayer(L, BinaryNeed{profile, ifc},
                  sc.replayWarmup + sc.replayMeasure);
    std::vector<sim::RunResult> core_results = coreLayer(L, cells);
    memoryLayer(L, cells);
    if (!L.has("replay.extract_ms")) {
        replay::ReplayWorkloadSpec w;
        w.profile = profile;
        w.ifConvert = ifc;
        w.warmupInsts = sc.replayWarmup;
        w.measureInsts = sc.replayMeasure;
        replayLayer(L, {w}, replayMatrix(sc, ctx.seed).configs());
    }
    if (!L.has("sampling.windows")) {
        driver::RunSpec s = cells.front();
        s.sampling = sampling::SamplingPolicy::smarts(sc.samplingPeriod);
        s.warmupInsts = sc.selLeadIn;
        s.measureInsts = sc.selRegion;
        samplingLayer(L, {s});
    }
    if (!L.has("cache.store_us_p50") || !L.has("driver.parse_us_p50") ||
        !L.has("cache.lookup_us_p50")) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        cacheLayer(L, dir, CacheMode::Probe, cells, core_results);
    }
}

/** Self time per span name and per layer from the traced events. */
struct SpanSums
{
    double passMs = 0.0;
    double coveredMs = 0.0;            ///< direct children of the pass
    std::map<std::string, double> selfByLayer;
};

SpanSums
sumSpans(const obs::Tracer &t)
{
    SpanSums out;
    struct Open
    {
        std::string name;
        std::uint64_t ts;
        double childUs;
    };
    std::vector<Open> stack;
    for (const auto &e : t.events()) {
        if (e.ph == 'B') {
            stack.push_back({e.name, e.ts_us, 0.0});
            continue;
        }
        if (stack.empty())
            continue;
        const Open o = stack.back();
        stack.pop_back();
        const double dur = static_cast<double>(e.ts_us - o.ts);
        const std::string layer = o.name.substr(0, o.name.find('.'));
        out.selfByLayer[layer == "pass" ? "unattributed" : layer] +=
            (dur - o.childUs) / 1e3;
        if (!stack.empty())
            stack.back().childUs += dur;
        if (layer == "pass") {
            out.passMs += dur / 1e3;
            out.coveredMs += o.childUs / 1e3;
        }
    }
    return out;
}

} // namespace

int
tracedRun(Context &ctx)
{
    const std::string cache_dir = ctx.workDir + "/rcache";
    const std::string probe_dir = ctx.workDir + "/rcache-probe";
    auto reset = [](const std::string &d) {
        std::error_code ec;
        std::filesystem::remove_all(d, ec);
    };
    // warm_rerun's cache was filled by an earlier --fill-cache process.

    // The engine pass is the ledger's parallel baseline and its
    // cross-path reference when no recorded digests exist.
    if (ctx.workload == "fig5_full")
        reset(cache_dir);
    const PassResult engine = enginePass(ctx, cache_dir);

    Ledger untraced;
    if (ctx.workload == "fig5_full")
        reset(cache_dir);
    const double u0 = wallNow();
    ledgerPass(ctx, untraced, cache_dir);
    const double untraced_s = wallNow() - u0;

    Ledger L;
    if (ctx.workload == "fig5_full")
        reset(cache_dir);
    L.tracer.start();
    const double t0 = wallNow();
    ledgerPass(ctx, L, cache_dir);
    const double traced_s = wallNow() - t0;
    L.tracer.stop();
    probe(ctx, L, probe_dir);

    const SpanSums sums = sumSpans(L.tracer);
    L.set("driver.parallel_efficiency",
          untraced_s / (static_cast<double>(ctx.threads) * engine.wallS));
    L.set("obs.trace_overhead_pct",
          100.0 * (traced_s - untraced_s) / untraced_s);
    L.set("obs.layer_coverage_pct", 100.0 * sums.coveredMs / sums.passMs);

    // Correctness: both ledger passes against the recorded digests, or
    // against the engine pass (a different execution path) without.
    const std::vector<std::uint64_t> want =
        ctx.ref.present ? expectedDigests(ctx) : engine.digests;
    std::uint64_t attempted = 0, failed = engine.cacheFailures;
    for (const auto *d : {&untraced.digests, &L.digests}) {
        attempted += d->size();
        for (std::size_t i = 0; i < d->size(); ++i)
            failed += i >= want.size() || (*d)[i] != want[i] ? 1 : 0;
    }

    std::string top;
    for (const auto &kv : sums.selfByLayer) {
        std::printf("layer %s self_ms %.3f share_pct %.2f\n",
                    kv.first.c_str(), kv.second,
                    100.0 * kv.second / sums.passMs);
        if (top.empty() || kv.second > sums.selfByLayer.at(top))
            top = kv.first;
    }
    std::printf("info workload=%s seed=%llu scale=%s threads=%u "
                "top_self_layer=%s trace=%s\n", ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed),
                ctx.scale.name.c_str(), ctx.threads, top.c_str(),
                ctx.traceOut.empty() ? "-" : ctx.traceOut.c_str());
    if (!ctx.traceOut.empty() && !L.tracer.writeFile(ctx.traceOut))
        warn("cannot write span file " + ctx.traceOut);

    std::vector<Metric> report;
    for (const auto &m : kLayerMetrics) {
        if (!L.has(m.first))
            panic("per-layer metric " + m.first + " was not measured");
        report.push_back({m.first, L.metrics.at(m.first), m.second});
    }
    printResult(failed == 0 && attempted > 0, attempted, failed, report,
                {});
    return 0;
}

} // namespace perfbench
