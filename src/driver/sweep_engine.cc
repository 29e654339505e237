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

/** One distinct workload of an engine pass and everything built for it,
 *  shared immutably by every spec with the same buildKey(). */
struct BuildJob
{
    const sim::Workload *spec;  ///< first spec needing this workload
    sim::ProgramRef binary;
    sim::DecodedRef decoded;
    sim::TraceRef trace;        ///< loaded (replay) or recorded
    bool built = false;
    double ms = 0.0;            ///< wall time of the build
};

/** The distinct workloads of a spec list and each spec's job. */
struct Builds
{
    std::vector<BuildJob> jobs; ///< first-appearance order
    std::vector<std::size_t> of; ///< spec index -> job index
};

/**
 * Group @p specs by buildKey() in first-appearance order, so the build
 * cache layout is a pure function of the spec list.
 */
template <typename Spec>
Builds
groupBuilds(const std::vector<Spec> &specs)
{
    Builds b;
    b.of.resize(specs.size());
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto ins = index.emplace(specs[i].buildKey(), b.jobs.size());
        if (ins.second)
            b.jobs.push_back(BuildJob{&specs[i], nullptr, nullptr, nullptr});
        b.of[i] = ins.first->second;
    }
    return b;
}

/**
 * Materialize one workload: load its trace artifact, or generate and
 * predecode its binary and — with @p record_dir — record its trace over
 * @p record_insts instructions and store it there.
 */
void
materialize(BuildJob &b, const std::string &record_dir,
            std::uint64_t record_insts)
{
    const sim::Workload &s = *b.spec;
    const auto t0 = std::chrono::steady_clock::now();
    if (!s.tracePath.empty()) {
        // Replay: the artifact is the workload. No codegen, no
        // if-conversion profiling, no condition generation happens
        // anywhere downstream of this load. loadOrThrow: a corrupt
        // artifact surfaces as a typed TraceError out of the engine
        // (parallelFor rethrows), so a shard worker can report "corrupt
        // trace" distinctly instead of dying mid-pool.
        obs::ScopedSpan span(obs::tracer(), "trace_load", "build",
                             s.binaryKey());
        b.trace = std::make_shared<const program::TraceFile>(
            program::TraceFile::loadOrThrow(s.tracePath));
        b.binary = sim::traceBinary(b.trace);
    } else {
        obs::ScopedSpan span(obs::tracer(), "binary_build", "build",
                             s.binaryKey());
        b.binary = sim::buildBinaryShared(s.profile, s.ifConvert);
    }
    {
        obs::ScopedSpan span(obs::tracer(), "decode", "build",
                             s.binaryKey());
        b.decoded = sim::decodeShared(b.binary);
    }
    if (s.tracePath.empty() && !record_dir.empty()) {
        obs::ScopedSpan span(obs::tracer(), "trace_record", "build",
                             s.binaryKey());
        program::TraceFile::Meta meta;
        meta.benchmark = s.profile.name;
        meta.isFp = s.profile.isFp;
        meta.ifConverted = s.ifConvert;
        meta.seed = s.profile.seed;
        auto t = std::make_shared<const program::TraceFile>(
            program::TraceFile::record(*b.binary, meta,
                                       sim::coreSeed(s.profile),
                                       record_insts, b.decoded.get()));
        t->store(record_dir + "/" + s.binaryKey() + ".pptrace");
        b.trace = std::move(t);
    }
    b.built = true;
    b.ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0).count();
}

/**
 * The build phase of run() and runReplay(): group @p specs by workload,
 * then materialize — in parallel — every workload with at least one
 * spec in @p wanted, shared immutably by every spec of that workload.
 * Finally validate each replaying spec against its artifact.
 */
template <typename Spec>
Builds
buildWorkloads(const std::vector<Spec> &specs,
               const std::vector<char> &wanted, unsigned threads,
               const std::string &record_dir)
{
    Builds b = groupBuilds(specs);
    std::vector<char> job_wanted(b.jobs.size(), 0);
    // Recording horizon: one artifact per binary must serve every spec,
    // so cover the largest run window plus the oracle-lookahead slack.
    std::uint64_t record_insts = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        job_wanted[b.of[i]] |= wanted[i];
        record_insts = std::max(record_insts,
                                specs[i].warmupInsts + specs[i].measureInsts);
    }
    record_insts += program::kTraceRecordSlack;
    if (!record_dir.empty())
        makeDirs(record_dir, "trace");
    parallelFor(b.jobs.size(), threads, [&](std::size_t j) {
        if (job_wanted[j])
            materialize(b.jobs[j], record_dir, record_insts);
    });
    // Validate every replaying spec — not just the first spec of each
    // job, since tracePath is public API and hand-built specs could
    // mis-key an artifact two ways. Demanding the oracle-lookahead
    // slack on top of each run window makes a too-short artifact fail
    // here, not as a stream-exhaustion panic mid-sweep; recorded traces
    // always carry this slack, so same-matrix replays pass.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec &s = specs[i];
        if (s.tracePath.empty() || !b.jobs[b.of[i]].built)
            continue;
        b.jobs[b.of[i]].trace->validate(
            s.profile.name, s.profile.seed, s.ifConvert,
            s.warmupInsts + s.measureInsts + program::kTraceRecordSlack);
    }
    return b;
}

/**
 * Each executed spec's share of its workload's build time: a build is
 * divided evenly among the executed specs that consumed it, so the
 * shares sum to the total build time. A build no executed spec
 * consumed (a trace workload whose cells all hit the result cache) is
 * charged to none.
 */
std::vector<double>
buildShares(const Builds &b, const std::vector<char> &executed)
{
    std::vector<std::size_t> users(b.jobs.size(), 0);
    for (std::size_t i = 0; i < b.of.size(); ++i)
        users[b.of[i]] += executed[i] ? 1 : 0;
    std::vector<double> share(b.of.size(), 0.0);
    for (std::size_t i = 0; i < b.of.size(); ++i) {
        if (executed[i])
            share[i] = b.jobs[b.of[i]].ms /
                static_cast<double>(users[b.of[i]]);
    }
    return share;
}

/**
 * One entry point's pass over the result cache (cache/result_cache.hh),
 * one slot per cacheable cell: a run() spec or a runReplay() (workload,
 * config) pair. A probe whose entry no longer parses warns and stays a
 * miss; a failed store warns.
 */
template <typename Result>
class CachePass
{
  public:
    CachePass(const std::string &dir, std::size_t cells,
              std::function<Result(const std::string &)> parse)
        : keys_(cells), hit_(cells, 0), cached_(cells),
          parse_(std::move(parse))
    {
        if (dir.empty())
            return;
        makeDirs(dir, "result cache");
        cache_.reset(new cache::ResultCache(dir));
    }

    bool enabled() const { return cache_ != nullptr; }

    /** Look cell @p i up under @p key (requires enabled()). */
    void
    probe(std::size_t i, std::string key, const std::string &label)
    {
        keys_[i] = std::move(key);
        const auto payload = cache_->lookup(keys_[i]);
        if (!payload)
            return;
        try {
            cached_[i] = parse_(*payload);
            hit_[i] = 1;
        } catch (const ResultParseError &e) {
            warn("result-cache entry unusable, re-running " + label +
                 ": " + e.what());
        }
    }

    bool hit(std::size_t i) const { return hit_[i] != 0; }
    const Result &cached(std::size_t i) const { return cached_[i]; }

    /** 1 for every cell still to execute (every miss). */
    std::vector<char>
    misses() const
    {
        std::vector<char> m(hit_.size());
        for (std::size_t i = 0; i < hit_.size(); ++i)
            m[i] = hit_[i] ? 0 : 1;
        return m;
    }

    /**
     * Store every executed cell's exact emitter bytes (@p emit(i)) and
     * publish what the pass did as the "<prefix>.result_cache_*" and
     * @p simulated metrics. Hits and misses count the cells served and
     * executed, not the store's lookups: an entry lookup() returned but
     * the parse rejected was executed, so it is a miss here.
     */
    template <typename Emit, typename Label>
    ResultCacheUse
    finish(const Emit &emit, const Label &label, const std::string &prefix,
           const std::string &simulated)
    {
        ResultCacheUse use;
        for (std::size_t i = 0; i < hit_.size(); ++i) {
            if (hit_[i])
                continue;
            ++use.simulated;
            if (cache_ == nullptr)
                continue;
            try {
                cache_->store(keys_[i], emit(i));
            } catch (const cache::ResultCacheError &e) {
                warn("result-cache store failed for " + label(i) + ": " +
                     e.what());
            }
        }
        obs::MetricRegistry &m = obs::metrics();
        if (cache_ != nullptr) {
            const cache::ResultCacheStats st = cache_->stats();
            use.hits = hit_.size() - use.simulated;
            use.misses = use.simulated;
            use.stores = st.stores;
            use.corrupt = st.corrupt;
        }
        // Registered even without a cache, so a metrics document
        // always carries them.
        m.counter(prefix + ".result_cache_hits").add(use.hits);
        m.counter(prefix + ".result_cache_misses").add(use.misses);
        m.counter(prefix + ".result_cache_stores").add(use.stores);
        m.counter(prefix + ".result_cache_corrupt").add(use.corrupt);
        m.counter(simulated).add(use.simulated);
        return use;
    }

  private:
    std::unique_ptr<cache::ResultCache> cache_;
    std::vector<std::string> keys_;
    std::vector<char> hit_;
    std::vector<Result> cached_;
    std::function<Result(const std::string &)> parse_;
};

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

SweepCounters
sweepCountersFor(const std::vector<RunSpec> &specs, bool record)
{
    SweepCounters c;
    // Distinct workloads, first-appearance order (the engine's cache
    // layout).
    const Builds builds = groupBuilds(specs);
    c.binariesBuilt = builds.jobs.size();
    c.decodedPrograms = builds.jobs.size();
    c.decodedCacheHits = specs.size() - builds.jobs.size();
    // Trace counters are deliberately symmetric between recording and
    // replaying: the sweep that records N artifacts and the sweep that
    // replays them report identical numbers, keeping their summaries
    // byte-comparable.
    std::uint64_t traced_builds = 0;
    for (const BuildJob &b : builds.jobs)
        traced_builds += (!b.spec->tracePath.empty() || record) ? 1 : 0;
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
    // entry that no longer parses as a run is handled the same way.
    // Either kind of miss makes its workload build below.
    CachePass<sim::RunResult> rc(
        opts_.resultCacheDir, specs.size(),
        [](const std::string &t) { return parseRunJson(t); });
    const auto probe = [&](std::size_t i, const std::string &trace_hash) {
        rc.probe(i,
                 cache::runKeyText(specs[i], cache::workloadIdentity(
                                                 specs[i], trace_hash)),
                 specs[i].label());
    };
    // Cache first: a generated workload's identity is its profile and
    // if-conversion flag, never the built binary, so its cells are
    // probed before anything is built. A replaying cell's identity is
    // its trace's content hash and a recording sweep's is the recorded
    // artifact's, so those are probed after Phase 1.
    const auto probe_early = [&](const RunSpec &s) {
        return !record && s.tracePath.empty();
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (rc.enabled() && probe_early(specs[i]))
            probe(i, std::string());
    }

    // Phase 1: materialize each workload that still has a cell to run
    // — shared immutably by every run of the cell. A workload whose
    // cells all hit the result cache is never built.
    obs::Counter &m_builds = obs::metrics().counter("sweep.binaries_built");
    obs::Histogram &m_build_ms =
        obs::metrics().histogram("sweep.build_host_ms");
    const Builds builds =
        buildWorkloads(specs, rc.misses(), threads, opts_.recordTraceDir);
    binariesBuilt_ = 0;
    for (const BuildJob &b : builds.jobs) {
        if (!b.built)
            continue;
        ++binariesBuilt_;
        m_builds.add(1);
        m_build_ms.observe(b.ms);
    }
    // Probe the cells whose key needed the artifact (every such
    // workload was built: none of its cells had been probed, so none
    // had hit).
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (rc.enabled() && !probe_early(specs[i]))
            probe(i, builds.jobs[builds.of[i]].trace->contentHashHex());
    }
    const std::vector<char> executed = rc.misses();

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
        std::size_t users = 0; ///< executed specs consuming the set
    };
    constexpr std::size_t kNoCkpt = static_cast<std::size_t>(-1);
    std::vector<CkptJob> ckpts;
    std::unordered_map<std::string, std::size_t> key_to_ckpt;
    std::vector<std::size_t> spec_ckpt(specs.size(), kNoCkpt);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        // A cache-hit cell needs no checkpoint set (and must not force
        // one to be built on its behalf).
        if (!executed[i] || !sampling::checkpointEligible(s.sampling))
            continue;
        const auto ins = key_to_ckpt.emplace(checkpointKey(s), ckpts.size());
        if (ins.second)
            ckpts.push_back(CkptJob{&specs[i], builds.of[i], {}, 0.0, 0});
        spec_ckpt[i] = ins.first->second;
        ++ckpts[spec_ckpt[i]].users;
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
        const BuildJob &b = builds.jobs[c.build];
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
        if (!executed[i])
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
        const BuildJob &build = builds.jobs[builds.of[job.spec]];
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
    // Each shared build and checkpoint set is divided among the
    // executed runs that consumed it, so the per-run host times sum to
    // the sweep's real cost.
    const std::vector<double> build_share = buildShares(builds, executed);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunSpec &s = specs[i];
        if (!executed[i]) {
            // Cached cells are taken verbatim — host-time fields
            // included, so a fully warm document is byte-identical to
            // the cold one without any scrubbing.
            results[i] = rc.cached(i);
            continue;
        }
        if (spec_ckpt[i] != kNoCkpt) {
            const CkptJob &c = ckpts[spec_ckpt[i]];
            sampling::SampledRun merged = sampling::mergeWindowRuns(
                c.set, window_runs[i], s.profile.name, s.measureInsts);
            const double set_share =
                c.buildMs / static_cast<double>(c.users);
            merged.result.ffHostMs += set_share;
            merged.result.hostMs += set_share;
            results[i] = merged.result;
        }
        results[i].buildHostMs = build_share[i];
        const BuildJob &build = builds.jobs[builds.of[i]];
        if (build.trace != nullptr)
            results[i].traceHash = build.trace->contentHashHex();
        m_runs.add(1);
        m_run_ms.observe(results[i].hostMs);
    }

    // Store every executed cell's exact emitter bytes, then publish the
    // real cache behavior (the deterministic summary counters come from
    // sweepCountersFor and never look at any of this).
    resultCacheUse_ = rc.finish(
        [&](std::size_t i) {
            std::ostringstream os;
            JsonWriter w(os);
            writeRunJson(w, specs[i], results[i]);
            return os.str();
        },
        [&](std::size_t i) { return specs[i].label(); }, "sweep",
        "sweep.runs_simulated");
    return results;
}

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

    // Phase 1: run()'s build phase. Every workload builds — hit cells
    // included — because the workload-level stream fields need the
    // stream.
    const std::vector<char> all(workloads.size(), 1);
    const Builds builds =
        buildWorkloads(workloads, all, threads, opts_.recordTraceDir);
    binariesBuilt_ = builds.jobs.size();
    const auto build_of = [&](std::size_t i) -> const BuildJob & {
        return builds.jobs[builds.of[i]];
    };

    // Result-cache probe, per (workload, config) cell at i * C + c: the
    // replay tier's cacheable unit is one pp.replay.v1 config object.
    // Stream extraction below always runs, but every hit cell drops
    // out of the batch fan-out.
    const std::size_t n_cfg = configs.size();
    CachePass<replay::ReplayConfigResult> rc(
        opts_.resultCacheDir, workloads.size() * n_cfg,
        [](const std::string &t) { return parseReplayConfigJson(t); });
    const auto cell_label = [&](std::size_t cell) {
        return workloads[cell / n_cfg].label() + "/" +
            configs[cell % n_cfg].name;
    };
    for (std::size_t i = 0; rc.enabled() && i < workloads.size(); ++i) {
        const sim::TraceRef &trace = build_of(i).trace;
        const std::string wl = cache::workloadIdentity(
            workloads[i],
            trace != nullptr ? trace->contentHashHex() : std::string());
        for (std::size_t c = 0; c < n_cfg; ++c) {
            rc.probe(i * n_cfg + c,
                     cache::replayKeyText(workloads[i], wl, configs[c]),
                     cell_label(i * n_cfg + c));
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
        const BuildJob &b = build_of(i);
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
    const std::vector<double> build_share = buildShares(builds, all);
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
        r.buildHostMs = build_share[i];
        r.streamHostMs = stream_ms[i];
        if (build_of(i).trace != nullptr)
            r.traceHash = build_of(i).trace->contentHashHex();
        r.configs.resize(n_cfg);
        for (std::size_t c = 0; c < n_cfg; ++c) {
            if (rc.hit(i * n_cfg + c))
                r.configs[c] = rc.cached(i * n_cfg + c);
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
        for (std::size_t c = 0; c < n_cfg; ++c) {
            if (!rc.hit(i * n_cfg + c))
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
        replay::PredictorReplay pass(*build_of(job.workload).binary,
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
    resultCacheUse_ = rc.finish(
        [&](std::size_t cell) {
            std::ostringstream os;
            JsonWriter w(os);
            writeReplayConfigJson(
                w, results[cell / n_cfg].configs[cell % n_cfg],
                workloads[cell / n_cfg].measureInsts);
            return os.str();
        },
        cell_label, "replay", "replay.configs_simulated");
    return results;
}

} // namespace driver
} // namespace pp
