#include "driver/sweep_engine.hh"

#include "cache/result_cache.hh"
#include "common/logging.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "program/trace.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>

namespace pp
{
namespace driver
{

namespace
{

/**
 * Run fn(0..n-1) on up to @p threads workers pulling indices from a
 * shared atomic counter. The first exception thrown by any task is
 * rethrown on the calling thread after all workers join.
 */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (threads <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr first_error;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };

    const unsigned spawn =
        static_cast<unsigned>(std::min<std::size_t>(threads, n));
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (unsigned t = 0; t < spawn; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Create @p dir and its parents; fatal (with the cause) on failure. */
void
makeDirs(const std::string &dir, const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create " + std::string(what) + " directory " + dir +
              ": " + ec.message());
    }
}

/**
 * Cache key of the window-checkpoint set a spec needs: the workload
 * plus everything the set depends on — region and full policy
 * (label() omits the warming horizon, so it is appended explicitly).
 * Scheme and core config are deliberately absent: that is the sharing.
 */
std::string
checkpointKey(const RunSpec &s)
{
    return s.buildKey() + "|" + s.sampling.label() + "h" +
           std::to_string(s.sampling.warmingHorizon) + "|" +
           std::to_string(s.warmupInsts) + ":" +
           std::to_string(s.measureInsts);
}

} // namespace

SweepCounters
sweepCountersFor(const std::vector<RunSpec> &specs, bool record)
{
    SweepCounters c;
    // Distinct workloads, first-appearance order (the engine's cache
    // layout).
    std::unordered_map<std::string, std::size_t> keys;
    std::vector<const RunSpec *> builds;
    for (const RunSpec &s : specs) {
        const std::string key = s.buildKey();
        if (keys.emplace(key, builds.size()).second)
            builds.push_back(&s);
    }
    c.binariesBuilt = builds.size();
    c.decodedPrograms = builds.size();
    c.decodedCacheHits = specs.size() - builds.size();
    // Trace counters are deliberately symmetric between recording and
    // replaying: the sweep that records N artifacts and the sweep that
    // replays them report identical numbers, keeping their summaries
    // byte-comparable.
    std::uint64_t traced_builds = 0;
    for (const RunSpec *b : builds)
        traced_builds += (!b->tracePath.empty() || record) ? 1 : 0;
    std::uint64_t traced_specs = 0;
    for (const RunSpec &s : specs)
        traced_specs += (!s.tracePath.empty() || record) ? 1 : 0;
    c.tracesLoaded = traced_builds;
    c.traceCacheHits = traced_specs - traced_builds;
    // Window-checkpoint sets: one per distinct (workload, region,
    // policy) among the eligible sampled specs. Disk-cache state never
    // enters here — the summary must not depend on what a previous
    // sweep left behind.
    std::unordered_map<std::string, bool> ckpt_keys;
    std::uint64_t eligible = 0;
    for (const RunSpec &s : specs) {
        if (!sampling::checkpointEligible(s.sampling))
            continue;
        ++eligible;
        ckpt_keys.emplace(checkpointKey(s), true);
    }
    c.checkpointsBuilt = ckpt_keys.size();
    c.checkpointCacheHits = eligible - ckpt_keys.size();
    // Result-cache counters: distinct cell identities among the specs.
    // Same contract as above — a pure function of the spec list (the
    // identity falls back to buildKey(), never artifact contents), so
    // cold, warm and sharded sweeps all report identical bytes.
    std::unordered_map<std::string, bool> result_keys;
    for (const RunSpec &s : specs)
        result_keys.emplace(cache::runCounterKey(s), true);
    c.resultsCached = result_keys.size();
    c.resultCacheHits = specs.size() - result_keys.size();
    return c;
}

void
applyTraceDir(std::vector<RunSpec> &specs, const std::string &dir)
{
    if (dir.empty())
        return;
    for (auto &s : specs)
        s.tracePath = dir + "/" + s.binaryKey() + ".pptrace";
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts) {}

std::vector<sim::RunResult>
SweepEngine::run(const RunMatrix &matrix)
{
    return run(matrix.specs());
}

std::vector<sim::RunResult>
SweepEngine::run(const std::vector<RunSpec> &specs)
{
    const unsigned threads = resolveThreads(opts_.threads);
    threadsUsed_ = threads;

    const bool record = !opts_.recordTraceDir.empty();
    if (record)
        makeDirs(opts_.recordTraceDir, "trace");

    // Recording horizon: one artifact per binary must serve every cell
    // of the matrix, so cover the sweep's largest run window plus the
    // oracle-lookahead slack.
    std::uint64_t record_insts = 0;
    for (const RunSpec &s : specs) {
        record_insts = std::max(record_insts,
                                s.warmupInsts + s.measureInsts);
    }
    record_insts += program::kTraceRecordSlack;

    // Distinct workloads under one cache key (RunSpec::buildKey()),
    // first-appearance order, so the cache layout is deterministic.
    struct BuildJob
    {
        const RunSpec *spec;    ///< first spec needing this workload
        sim::ProgramRef binary;
        sim::DecodedRef decoded;
        sim::TraceRef trace;    ///< loaded (replay) or recorded
    };
    std::vector<BuildJob> builds;
    std::unordered_map<std::string, std::size_t> key_to_build;
    std::vector<std::size_t> spec_build(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string key = specs[i].buildKey();
        auto it = key_to_build.find(key);
        if (it == key_to_build.end()) {
            it = key_to_build.emplace(key, builds.size()).first;
            builds.push_back(BuildJob{&specs[i], nullptr, nullptr,
                                      nullptr});
        }
        spec_build[i] = it->second;
    }
    // Counters are a pure function of the spec list and options (shared
    // with the shard supervisor, which reports a merged sweep without
    // running an engine over the full list itself).
    counters_ = sweepCountersFor(specs, record);

    // Result-cache probe: each cell's full semantic key (workload
    // identity, scheme, config, sampling policy, window, schema
    // version, salt) is looked up BEFORE any checkpoint or run job is
    // formed, so a hit skips the cell's entire downstream cost. The
    // cached value is the cell's exact emitter bytes; parsing it back
    // (and re-emitting at sink time) round-trips exactly, so a fully
    // warm sweep's document is byte-identical to the cold one. A
    // damaged entry is a typed recoverable miss inside lookup(); an
    // entry that no longer parses as a run is handled the same way
    // here. Either kind of miss makes its workload build below.
    obs::Counter &m_rc_hits =
        obs::metrics().counter("sweep.result_cache_hits");
    obs::Counter &m_rc_misses =
        obs::metrics().counter("sweep.result_cache_misses");
    obs::Counter &m_rc_stores =
        obs::metrics().counter("sweep.result_cache_stores");
    obs::Counter &m_rc_corrupt =
        obs::metrics().counter("sweep.result_cache_corrupt");
    obs::Counter &m_simulated =
        obs::metrics().counter("sweep.runs_simulated");
    resultCacheUse_ = ResultCacheUse{};
    std::unique_ptr<cache::ResultCache> rcache;
    std::vector<std::string> rkeys(specs.size());
    std::vector<char> rhit(specs.size(), 0);
    std::vector<sim::RunResult> rcached(specs.size());
    if (!opts_.resultCacheDir.empty()) {
        makeDirs(opts_.resultCacheDir, "result cache");
        rcache.reset(new cache::ResultCache(opts_.resultCacheDir));
    }
    const auto probe = [&](std::size_t i, const std::string &trace_hash) {
        rkeys[i] = cache::runKeyText(
            specs[i], cache::workloadIdentity(specs[i], trace_hash));
        const auto payload = rcache->lookup(rkeys[i]);
        if (!payload)
            return;
        try {
            rcached[i] = parseRunJson(*payload);
            rhit[i] = 1;
        } catch (const ResultParseError &e) {
            warn("result-cache entry unusable, re-running " +
                 specs[i].label() + ": " + e.what());
        }
    };
    // Cache first: a generated workload's identity is its profile and
    // if-conversion flag, never the built binary, so its cells are
    // probed before anything is built. A replaying cell's identity is
    // its trace's content hash and a recording sweep's is the recorded
    // artifact's, so those are probed after Phase 1.
    const auto probe_early = [&](const RunSpec &s) {
        return rcache != nullptr && !record && s.tracePath.empty();
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (probe_early(specs[i]))
            probe(i, std::string());
    }

    // Phase 1: materialize each workload that still has a cell to run
    // — generate the binary (or load its trace artifact), predecode it,
    // and in record mode capture + store its trace — shared immutably
    // by every run of the cell. A workload whose cells all hit the
    // result cache is never built.
    std::vector<char> needed(builds.size(), 0);
    for (std::size_t i = 0; i < specs.size(); ++i)
        needed[spec_build[i]] |= rhit[i] ? 0 : 1;
    binariesBuilt_ = static_cast<std::size_t>(
        std::count(needed.begin(), needed.end(), 1));

    // Wall time of each build job, amortized over the cell's runs as
    // their buildHostMs so the result document carries the full host-
    // time breakdown.
    std::vector<double> build_ms(builds.size(), 0.0);
    obs::Counter &m_builds = obs::metrics().counter("sweep.binaries_built");
    obs::Histogram &m_build_ms =
        obs::metrics().histogram("sweep.build_host_ms");
    parallelFor(builds.size(), threads, [&](std::size_t i) {
        if (!needed[i])
            return;
        BuildJob &b = builds[i];
        const RunSpec &s = *b.spec;
        const auto t0 = std::chrono::steady_clock::now();
        if (!s.tracePath.empty()) {
            // Replay: the artifact is the workload. No codegen, no
            // if-conversion profiling, no condition generation happens
            // anywhere downstream of this load.
            {
                obs::ScopedSpan span(obs::tracer(), "trace_load", "build",
                                     s.binaryKey());
                // loadOrThrow: a corrupt artifact surfaces as a typed
                // TraceError out of run() (parallelFor rethrows), so a
                // shard worker can report "corrupt trace" distinctly
                // instead of dying mid-pool.
                b.trace = std::make_shared<const program::TraceFile>(
                    program::TraceFile::loadOrThrow(s.tracePath));
            }
            b.binary = sim::traceBinary(b.trace);
            obs::ScopedSpan span(obs::tracer(), "decode", "build",
                                 s.binaryKey());
            b.decoded = sim::decodeShared(b.binary);
        } else {
            {
                obs::ScopedSpan span(obs::tracer(), "binary_build",
                                     "build", s.binaryKey());
                b.binary = sim::buildBinaryShared(s.profile, s.ifConvert);
            }
            {
                obs::ScopedSpan span(obs::tracer(), "decode", "build",
                                     s.binaryKey());
                b.decoded = sim::decodeShared(b.binary);
            }
            if (record) {
                obs::ScopedSpan span(obs::tracer(), "trace_record",
                                     "build", s.binaryKey());
                program::TraceFile::Meta meta;
                meta.benchmark = s.profile.name;
                meta.isFp = s.profile.isFp;
                meta.ifConverted = s.ifConvert;
                meta.seed = s.profile.seed;
                auto t = std::make_shared<const program::TraceFile>(
                    program::TraceFile::record(*b.binary, meta,
                                               sim::coreSeed(s.profile),
                                               record_insts,
                                               b.decoded.get()));
                t->store(opts_.recordTraceDir + "/" + s.binaryKey() +
                         ".pptrace");
                b.trace = std::move(t);
            }
        }
        build_ms[i] = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        m_builds.add(1);
        m_build_ms.observe(build_ms[i]);
    });

    // Validate every replaying spec against its loaded artifact — not
    // just the first spec of each build job, since tracePath is public
    // API and hand-built specs could mis-key an artifact two ways.
    // Demanding the oracle-lookahead slack on top of each run window
    // makes a too-short artifact fail here, not as a stream-exhaustion
    // panic mid-sweep; recorded traces always carry this slack, so
    // same-matrix replays pass. Then probe the cells whose key needed
    // the artifact (every such workload was built: none of its cells
    // had been probed, so none had hit).
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        const BuildJob &b = builds[spec_build[i]];
        if (!s.tracePath.empty()) {
            b.trace->validate(s.profile.name, s.profile.seed, s.ifConvert,
                              s.warmupInsts + s.measureInsts +
                                  program::kTraceRecordSlack);
        }
        if (rcache != nullptr && !probe_early(s))
            probe(i, b.trace->contentHashHex());
    }

    // Phase 1.5: one window-checkpoint set per distinct (workload,
    // region, policy) among the checkpoint-eligible sampled specs
    // (sampling/window_checkpoint.hh), so N scheme/config cells on the
    // same workload pay for one functional pass. Keyed in
    // first-appearance order like the builds; the sets build in
    // parallel and live in memory for this run() only.
    struct CkptJob
    {
        const RunSpec *spec;  ///< first spec needing this set
        std::size_t build;    ///< its workload's build job
        sampling::WindowCheckpointSet set;
        double buildMs = 0.0;
    };
    constexpr std::size_t kNoCkpt = static_cast<std::size_t>(-1);
    std::vector<CkptJob> ckpts;
    std::unordered_map<std::string, std::size_t> key_to_ckpt;
    std::vector<std::size_t> spec_ckpt(specs.size(), kNoCkpt);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        // A cache-hit cell needs no checkpoint set (and must not force
        // one to be built on its behalf).
        if (rhit[i])
            continue;
        if (!sampling::checkpointEligible(s.sampling))
            continue;
        const std::string key = checkpointKey(s);
        auto it = key_to_ckpt.find(key);
        if (it == key_to_ckpt.end()) {
            it = key_to_ckpt.emplace(key, ckpts.size()).first;
            ckpts.push_back(CkptJob{&specs[i], spec_build[i], {}, 0.0});
        }
        spec_ckpt[i] = it->second;
    }
    obs::Counter &m_ckpts =
        obs::metrics().counter("sweep.checkpoint_sets");
    // 1-2-5 decades from 10 KB to 5 GB.
    std::vector<double> byte_edges;
    for (double decade = 1e4; decade < 1e10; decade *= 10)
        for (double m : {1.0, 2.0, 5.0})
            byte_edges.push_back(m * decade);
    obs::Histogram &m_ckpt_bytes = obs::metrics().histogram(
        "sweep.checkpoint_set_bytes", byte_edges);
    parallelFor(ckpts.size(), threads, [&](std::size_t i) {
        CkptJob &c = ckpts[i];
        const RunSpec &s = *c.spec;
        const BuildJob &b = builds[c.build];
        const auto t0 = std::chrono::steady_clock::now();
        const program::TraceFile *replay =
            s.tracePath.empty() ? nullptr : b.trace.get();
        c.set = sampling::buildWindowCheckpoints(
            *b.binary, s.profile, s.warmupInsts, s.measureInsts,
            s.sampling, b.decoded.get(), replay);
        c.buildMs = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
        m_ckpts.add(1);
        m_ckpt_bytes.observe(static_cast<double>(c.set.residentBytes()));
    });

    // Phase 2: execute every run. Checkpoint-eligible sampled specs fan
    // out one job per window — windows are independent given their
    // checkpoint — and merge in window order below; every other spec is
    // one whole-run job. results[i] belongs to specs[i] regardless of
    // which worker produced it or when.
    struct RunJob
    {
        std::size_t spec;
        std::size_t window; ///< kNoCkpt = the whole run
    };
    std::vector<RunJob> jobs;
    std::vector<std::vector<sampling::WindowRunResult>> window_runs(
        specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (rhit[i])
            continue; // served from the result cache: no job at all
        if (spec_ckpt[i] != kNoCkpt) {
            const std::size_t n =
                ckpts[spec_ckpt[i]].set.windows.size();
            window_runs[i].resize(n);
            for (std::size_t w = 0; w < n; ++w)
                jobs.push_back(RunJob{i, w});
        } else {
            jobs.push_back(RunJob{i, kNoCkpt});
        }
    }

    std::vector<sim::RunResult> results(specs.size());
    obs::Counter &m_runs = obs::metrics().counter("sweep.runs");
    obs::Histogram &m_run_ms =
        obs::metrics().histogram("sweep.run_host_ms");
    std::mutex progress_mutex;
    std::size_t progress_done = 0;
    const auto phase2_start = std::chrono::steady_clock::now();
    parallelFor(jobs.size(), threads, [&](std::size_t j) {
        const RunJob &job = jobs[j];
        const RunSpec &s = specs[job.spec];
        const BuildJob &build = builds[spec_build[job.spec]];
        const sim::ProgramRef &binary = build.binary;
        const program::TraceFile *replay =
            s.tracePath.empty() ? nullptr : build.trace.get();
        {
            obs::ScopedSpan span(obs::tracer(), "run", "sweep",
                                 s.label());
            if (job.window != kNoCkpt) {
                const CkptJob &c = ckpts[spec_ckpt[job.spec]];
                window_runs[job.spec][job.window] = sampling::runWindow(
                    c.set.windows[job.window], *binary,
                    sim::resolveConfig(s.scheme, s.config),
                    sim::coreSeed(s.profile), build.decoded.get(),
                    replay);
            } else {
                results[job.spec] = s.sampling.enabled()
                    ? sampling::sampledRun(*binary, s.profile, s.scheme,
                                           s.config, s.warmupInsts,
                                           s.measureInsts, s.sampling,
                                           build.decoded.get(), replay)
                    : sim::run(*binary, s.profile, s.scheme, s.config,
                               s.warmupInsts, s.measureInsts,
                               build.decoded.get(), replay);
            }
        }
        if (opts_.progress) {
            // Live progress line: completed/total plus an ETA scaled
            // from elapsed wall time over completed jobs.
            std::lock_guard<std::mutex> lock(progress_mutex);
            ++progress_done;
            const double elapsed_s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - phase2_start)
                    .count();
            const double eta_s = elapsed_s /
                static_cast<double>(progress_done) *
                static_cast<double>(jobs.size() - progress_done);
            logRawf("\rsweep: %zu/%zu jobs (%.0f%%) eta %.1fs   ",
                    progress_done, jobs.size(),
                    100.0 * static_cast<double>(progress_done) /
                        static_cast<double>(jobs.size()),
                    eta_s);
        }
    });
    if (opts_.progress && !specs.empty())
        logRaw("\n");

    // Merge window jobs (in window order — bit-identical to the serial
    // checkpoint route by construction) and finish per-run bookkeeping.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        const BuildJob &build = builds[spec_build[i]];
        if (rhit[i]) {
            // Cached cells are taken verbatim — host-time fields
            // included, so a fully warm document is byte-identical to
            // the cold one without any scrubbing.
            results[i] = rcached[i];
            continue;
        }
        if (spec_ckpt[i] != kNoCkpt) {
            const CkptJob &c = ckpts[spec_ckpt[i]];
            sampling::SampledRun merged = sampling::mergeWindowRuns(
                c.set, window_runs[i], s.profile.name, s.measureInsts);
            // The shared set's build (or load) cost is attributed to
            // every run that consumed it, like buildHostMs.
            merged.result.ffHostMs += c.buildMs;
            merged.result.hostMs += c.buildMs;
            results[i] = merged.result;
        }
        results[i].buildHostMs = build_ms[spec_build[i]];
        if (build.trace != nullptr)
            results[i].traceHash = build.trace->contentHashHex();
        m_runs.add(1);
        m_run_ms.observe(results[i].hostMs);
    }

    // Store every executed cell's exact emitter bytes, then publish
    // the real cache behavior (the deterministic summary counters come
    // from sweepCountersFor and never look at any of this).
    if (rcache != nullptr) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (rhit[i])
                continue;
            std::ostringstream os;
            JsonWriter w(os);
            writeRunJson(w, specs[i], results[i]);
            try {
                rcache->store(rkeys[i], os.str());
            } catch (const cache::ResultCacheError &e) {
                warn("result-cache store failed for " + specs[i].label() +
                     ": " + e.what());
            }
        }
    }
    std::uint64_t simulated = 0;
    for (std::size_t i = 0; i < specs.size(); ++i)
        simulated += rhit[i] ? 0 : 1;
    if (rcache != nullptr) {
        // Hits and misses count the cells served and executed, not the
        // store's lookups: an entry lookup() returned but parseRunJson()
        // rejected was re-simulated, so it is a miss here.
        const cache::ResultCacheStats st = rcache->stats();
        resultCacheUse_.hits = specs.size() - simulated;
        resultCacheUse_.misses = simulated;
        resultCacheUse_.stores = st.stores;
        resultCacheUse_.corrupt = st.corrupt;
        m_rc_hits.add(resultCacheUse_.hits);
        m_rc_misses.add(resultCacheUse_.misses);
        m_rc_stores.add(st.stores);
        m_rc_corrupt.add(st.corrupt);
    }
    resultCacheUse_.simulated = simulated;
    m_simulated.add(simulated);
    return results;
}

namespace
{

/**
 * Configs per replay batch job: each batch makes one pass over the
 * shared stream, so the batch size trades stream-walk count against
 * per-pass table working-set (and pool parallelism across batches).
 * Purely a scheduling knob — batched cells see identical inputs at any
 * batch size, so results never depend on it.
 */
constexpr std::size_t kReplayConfigBatch = 8;

/**
 * CPU milliseconds consumed by the calling thread. The replay tier's
 * stream/replay host times are resource costs feeding a throughput
 * metric (configs/sec, speedup vs full sim); per-job wall clock would
 * charge pool oversubscription — threads beyond the machine's cores —
 * against the tier, inflating the summed cost by the subscription
 * factor on small hosts (CI runners included).
 */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
        static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace

std::vector<replay::ReplayWorkloadResult>
SweepEngine::runReplay(const replay::ReplayMatrix &matrix)
{
    return runReplay(matrix.workloads(), matrix.configs());
}

std::vector<replay::ReplayWorkloadResult>
SweepEngine::runReplay(
    const std::vector<replay::ReplayWorkloadSpec> &workloads,
    const std::vector<replay::ReplayConfig> &configs)
{
    const unsigned threads = resolveThreads(opts_.threads);
    threadsUsed_ = threads;

    const bool record = !opts_.recordTraceDir.empty();
    if (record)
        makeDirs(opts_.recordTraceDir, "trace");
    std::uint64_t record_insts = 0;
    for (const auto &w : workloads) {
        record_insts = std::max(record_insts,
                                w.warmupInsts + w.measureInsts);
    }
    record_insts += program::kTraceRecordSlack;

    // Phase 1: one build per distinct workload key — the same cache
    // discipline as run(): binary (or trace artifact) + predecode,
    // shared immutably by the stream extraction and every batch.
    struct BuildJob
    {
        const replay::ReplayWorkloadSpec *spec;
        sim::ProgramRef binary;
        sim::DecodedRef decoded;
        sim::TraceRef trace;
    };
    std::vector<BuildJob> builds;
    std::unordered_map<std::string, std::size_t> key_to_build;
    std::vector<std::size_t> wl_build(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string key = workloads[i].buildKey();
        auto it = key_to_build.find(key);
        if (it == key_to_build.end()) {
            it = key_to_build.emplace(key, builds.size()).first;
            builds.push_back(BuildJob{&workloads[i], nullptr, nullptr,
                                      nullptr});
        }
        wl_build[i] = it->second;
    }
    binariesBuilt_ = builds.size();

    std::vector<double> build_ms(builds.size(), 0.0);
    parallelFor(builds.size(), threads, [&](std::size_t i) {
        BuildJob &b = builds[i];
        const replay::ReplayWorkloadSpec &s = *b.spec;
        const auto t0 = std::chrono::steady_clock::now();
        if (!s.tracePath.empty()) {
            obs::ScopedSpan span(obs::tracer(), "trace_load", "replay",
                                 s.binaryKey());
            b.trace = std::make_shared<const program::TraceFile>(
                program::TraceFile::loadOrThrow(s.tracePath));
            b.binary = sim::traceBinary(b.trace);
            b.decoded = sim::decodeShared(b.binary);
        } else {
            obs::ScopedSpan span(obs::tracer(), "binary_build", "replay",
                                 s.binaryKey());
            b.binary = sim::buildBinaryShared(s.profile, s.ifConvert);
            b.decoded = sim::decodeShared(b.binary);
            if (record) {
                program::TraceFile::Meta meta;
                meta.benchmark = s.profile.name;
                meta.isFp = s.profile.isFp;
                meta.ifConverted = s.ifConvert;
                meta.seed = s.profile.seed;
                auto t = std::make_shared<const program::TraceFile>(
                    program::TraceFile::record(*b.binary, meta,
                                               sim::coreSeed(s.profile),
                                               record_insts,
                                               b.decoded.get()));
                t->store(opts_.recordTraceDir + "/" + s.binaryKey() +
                         ".pptrace");
                b.trace = std::move(t);
            }
        }
        build_ms[i] = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();
    });
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const replay::ReplayWorkloadSpec &s = workloads[i];
        if (s.tracePath.empty())
            continue;
        builds[wl_build[i]].trace->validate(
            s.profile.name, s.profile.seed, s.ifConvert,
            s.warmupInsts + s.measureInsts + program::kTraceRecordSlack);
    }

    // Result-cache probe, per (workload, config) cell: the replay
    // tier's cacheable unit is one pp.replay.v1 config object. Stream
    // extraction below always runs — the workload-level stream fields
    // need it — but every hit cell drops out of the batch fan-out.
    obs::Counter &m_rc_hits =
        obs::metrics().counter("replay.result_cache_hits");
    obs::Counter &m_rc_misses =
        obs::metrics().counter("replay.result_cache_misses");
    obs::Counter &m_rc_stores =
        obs::metrics().counter("replay.result_cache_stores");
    obs::Counter &m_rc_corrupt =
        obs::metrics().counter("replay.result_cache_corrupt");
    obs::Counter &m_simulated =
        obs::metrics().counter("replay.configs_simulated");
    resultCacheUse_ = ResultCacheUse{};
    std::unique_ptr<cache::ResultCache> rcache;
    if (!opts_.resultCacheDir.empty()) {
        makeDirs(opts_.resultCacheDir, "result cache");
        rcache.reset(new cache::ResultCache(opts_.resultCacheDir));
    }
    std::vector<std::vector<std::string>> rkeys(workloads.size());
    std::vector<std::vector<char>> rhit(workloads.size());
    std::vector<std::vector<replay::ReplayConfigResult>> rcached(
        workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        rkeys[i].resize(configs.size());
        rhit[i].assign(configs.size(), 0);
        rcached[i].resize(configs.size());
        if (rcache == nullptr)
            continue;
        const BuildJob &b = builds[wl_build[i]];
        const std::string wl = cache::workloadIdentity(
            workloads[i], b.trace != nullptr ? b.trace->contentHashHex()
                                             : std::string());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            rkeys[i][c] =
                cache::replayKeyText(workloads[i], wl, configs[c]);
            const auto payload = rcache->lookup(rkeys[i][c]);
            if (!payload)
                continue;
            try {
                rcached[i][c] = parseReplayConfigJson(*payload);
                rhit[i][c] = 1;
            } catch (const ResultParseError &e) {
                warn("result-cache entry unusable, re-evaluating " +
                     workloads[i].label() + "/" + configs[c].name + ": " +
                     e.what());
            }
        }
    }

    // Phase 2: extract each workload's committed outcome stream ONCE —
    // this is the cached artifact every config batch shares, the replay
    // tier's analogue of the binary cache.
    std::vector<replay::ReplayStream> streams(workloads.size());
    std::vector<double> stream_ms(workloads.size(), 0.0);
    obs::Counter &m_streams =
        obs::metrics().counter("replay.streams_built");
    parallelFor(workloads.size(), threads, [&](std::size_t i) {
        const replay::ReplayWorkloadSpec &s = workloads[i];
        const BuildJob &b = builds[wl_build[i]];
        const double t0 = threadCpuMs();
        obs::ScopedSpan span(obs::tracer(), "stream_extract", "replay",
                             s.label());
        streams[i] = replay::extractStream(
            *b.binary, s.profile, s.warmupInsts, s.measureInsts,
            b.decoded.get(),
            s.tracePath.empty() ? nullptr : b.trace.get());
        stream_ms[i] = threadCpuMs() - t0;
        m_streams.add(1);
    });

    // Phase 3: fan config batches across the pool. Each job walks the
    // shared stream once with its own cells (and its own architectural
    // predicate walker — per-batch shared state evolves identically in
    // every batch), then writes into disjoint result slots, so the
    // document is byte-identical at any thread count or batch size.
    std::vector<replay::ReplayWorkloadResult> results(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const replay::ReplayWorkloadSpec &s = workloads[i];
        replay::ReplayWorkloadResult &r = results[i];
        r.benchmark = s.profile.name;
        r.ifConvert = s.ifConvert;
        r.warmupInsts = s.warmupInsts;
        r.measureInsts = s.measureInsts;
        r.streamEvents = streams[i].events();
        r.streamBranches = streams[i].measureBranches;
        r.streamCompares = streams[i].measureCompares;
        r.buildHostMs = build_ms[wl_build[i]];
        r.streamHostMs = stream_ms[i];
        if (builds[wl_build[i]].trace != nullptr)
            r.traceHash = builds[wl_build[i]].trace->contentHashHex();
        r.configs.resize(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (rhit[i][c])
                r.configs[c] = rcached[i][c];
        }
    }

    // Only the miss cells fan out. Batching an arbitrary subset is
    // safe: each batch's shared walker state is independent of which
    // cells ride along (see kReplayConfigBatch), so a partially warm
    // sweep's cells are byte-identical to a cold sweep's.
    struct BatchJob
    {
        std::size_t workload;
        std::vector<std::size_t> cfgs; ///< config indices (miss cells)
    };
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::size_t> missing;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (!rhit[i][c])
                missing.push_back(c);
        }
        for (std::size_t from = 0; from < missing.size();
             from += kReplayConfigBatch) {
            BatchJob job;
            job.workload = i;
            job.cfgs.assign(
                missing.begin() + from,
                missing.begin() +
                    std::min(from + kReplayConfigBatch, missing.size()));
            jobs.push_back(std::move(job));
        }
    }
    std::vector<double> batch_ms(jobs.size(), 0.0);
    obs::Counter &m_evals =
        obs::metrics().counter("replay.config_evals");
    parallelFor(jobs.size(), threads, [&](std::size_t j) {
        const BatchJob &job = jobs[j];
        const replay::ReplayWorkloadSpec &s = workloads[job.workload];
        const double t0 = threadCpuMs();
        obs::ScopedSpan span(obs::tracer(), "replay_batch", "replay",
                             s.label());
        std::vector<replay::ReplayCell> cells;
        cells.reserve(job.cfgs.size());
        for (const std::size_t c : job.cfgs)
            cells.emplace_back(configs[c]);
        replay::PredictorReplay pass(
            *builds[wl_build[job.workload]].binary,
            streams[job.workload]);
        pass.run(cells);
        for (std::size_t k = 0; k < job.cfgs.size(); ++k) {
            replay::ReplayConfigResult &cr =
                results[job.workload].configs[job.cfgs[k]];
            cr.name = cells[k].name();
            cr.storageBytes = cells[k].storageBytes();
            cr.stats = cells[k].stats();
        }
        batch_ms[j] = threadCpuMs() - t0;
        m_evals.add(static_cast<std::uint64_t>(job.cfgs.size()));
    });
    for (std::size_t j = 0; j < jobs.size(); ++j)
        results[jobs[j].workload].replayHostMs += batch_ms[j];

    // Store every evaluated cell's exact emitter bytes.
    std::uint64_t simulated = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (rhit[i][c])
                continue;
            ++simulated;
            if (rcache == nullptr)
                continue;
            std::ostringstream os;
            JsonWriter w(os);
            writeReplayConfigJson(w, results[i].configs[c],
                                  workloads[i].measureInsts);
            try {
                rcache->store(rkeys[i][c], os.str());
            } catch (const cache::ResultCacheError &e) {
                warn("result-cache store failed for " +
                     workloads[i].label() + "/" + configs[c].name + ": " +
                     e.what());
            }
        }
    }
    if (rcache != nullptr) {
        // Served and evaluated cells, as in run().
        const cache::ResultCacheStats st = rcache->stats();
        resultCacheUse_.hits = workloads.size() * configs.size() - simulated;
        resultCacheUse_.misses = simulated;
        resultCacheUse_.stores = st.stores;
        resultCacheUse_.corrupt = st.corrupt;
        m_rc_hits.add(resultCacheUse_.hits);
        m_rc_misses.add(resultCacheUse_.misses);
        m_rc_stores.add(st.stores);
        m_rc_corrupt.add(st.corrupt);
    }
    resultCacheUse_.simulated = simulated;
    m_simulated.add(simulated);
    return results;
}

} // namespace driver
} // namespace pp
