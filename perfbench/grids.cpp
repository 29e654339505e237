#include "grids.hh"

#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "driver/grids.hh"
#include "program/suite.hh"
#include "sampling/sampling_policy.hh"

namespace perfbench
{

using namespace pp;

Scale
scaleByName(const std::string &name)
{
    Scale s;
    s.name = name;
    if (name == "full") {
        // Short cells keep a single-thread pass near 1.5 s, so a run
        // holds a dozen passes for its median.
        s.fig5Warmup = 10000;
        s.fig5Measure = 30000;
        // smarts() lays its 250k-period windows over the region; 2M is
        // the smallest region that meets its 8-window minimum.
        s.selLeadIn = 50000;
        s.selRegion = 2000000;
        s.samplingPeriod = 250000;
        s.replayWarmup = 150000;
        s.replayMeasure = 1000000;
        return s;
    }
    if (name == "smoke") {
        s.fig5Warmup = 2000;
        s.fig5Measure = 10000;
        s.selLeadIn = 2000;
        s.selRegion = 160000;
        s.samplingPeriod = 20000;
        s.replayWarmup = 2000;
        s.replayMeasure = 20000;
        return s;
    }
    fatal("unknown scale '" + name + "' (known: full, smoke)");
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig5_full", "selective_sampled", "ablation_replay", "warm_rerun"};
    return names;
}

namespace
{

/** splitmix64 finalizer: spreads a small benchmark seed over 64 bits. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<program::BenchmarkProfile>
seedAll(std::vector<program::BenchmarkProfile> suite, std::uint64_t seed)
{
    if (seed != 0) {
        for (auto &p : suite)
            p.seed ^= mix(seed);
    }
    return suite;
}

} // namespace

std::vector<program::BenchmarkProfile>
seededSuite(std::uint64_t seed)
{
    return seedAll(program::spec2000Suite(), seed);
}

std::vector<driver::RunSpec>
fig5Specs(const Scale &s, std::uint64_t seed)
{
    driver::RunMatrix m = driver::namedGrid("fig5");
    m.benchmarks(seededSuite(seed)).window(s.fig5Warmup, s.fig5Measure);
    return m.specs();
}

std::vector<driver::RunSpec>
selectiveSpecs(const Scale &s, std::uint64_t seed, bool sampled)
{
    driver::RunMatrix m;
    m.benchmarks(seededSuite(seed)).ifConvert(true);
    sim::SchemeConfig cmov;
    cmov.scheme = core::PredictionScheme::Conventional;
    cmov.predication = core::PredicationModel::Cmov;
    sim::SchemeConfig selective;
    selective.scheme = core::PredictionScheme::PredicatePredictor;
    selective.predication = core::PredicationModel::SelectivePrediction;
    m.addScheme("cmov", cmov).addScheme("selective", selective);
    if (sampled) {
        const auto policy =
            sampling::SamplingPolicy::smarts(s.samplingPeriod);
        policy.validateForRegion(s.selRegion);
        m.addSampling("smarts", policy);
    }
    m.window(s.selLeadIn, s.selRegion);
    return m.specs();
}

replay::ReplayMatrix
replayMatrix(const Scale &s, std::uint64_t seed)
{
    // The grid of bench_predictor_replay: PVT size x organization x
    // confidence width, confidence extremes, perceptron geometries,
    // PEP-PA geometries and the two idealized predicate variants.
    replay::ReplayMatrix m;
    std::vector<program::BenchmarkProfile> suite;
    for (const auto &p : program::spec2000Suite()) {
        if (p.name == "gzip" || p.name == "crafty" || p.name == "swim")
            suite.push_back(p);
    }
    m.benchmarks(seedAll(std::move(suite), seed))
        .ifConvert(true)
        .window(s.replayWarmup, s.replayMeasure);

    for (const std::uint32_t entries : {1848u, 3696u, 7392u}) {
        for (const bool split : {false, true}) {
            for (const unsigned w : {2u, 3u, 4u}) {
                sim::SchemeConfig sc;
                sc.scheme = core::PredictionScheme::PredicatePredictor;
                sc.predication =
                    core::PredicationModel::SelectivePrediction;
                sc.splitPvt = split;
                sc.confidenceBits = w;
                core::CoreConfig cc;
                cc.predicate.tableEntries = entries;
                std::ostringstream name;
                name << "pvt" << entries << "/"
                     << (split ? "split" : "dual") << "/c" << w;
                m.addConfig(name.str(), sc, cc);
            }
        }
    }
    for (const unsigned w : {1u, 5u}) {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::PredicatePredictor;
        sc.predication = core::PredicationModel::SelectivePrediction;
        sc.confidenceBits = w;
        m.addConfig("pvt3696/dual/c" + std::to_string(w), sc);
    }
    for (const std::uint32_t entries : {1848u, 3696u, 7392u}) {
        for (const unsigned g : {20u, 30u}) {
            sim::SchemeConfig sc;
            sc.scheme = core::PredictionScheme::Conventional;
            core::CoreConfig cc;
            cc.perceptron.tableEntries = entries;
            cc.perceptron.globalBits = g;
            std::ostringstream name;
            name << "perc" << entries << "/g" << g;
            m.addConfig(name.str(), sc, cc);
        }
    }
    for (const unsigned l : {6u, 14u}) {
        sim::SchemeConfig sc;
        sc.scheme = core::PredictionScheme::Conventional;
        core::CoreConfig cc;
        cc.perceptron.localBits = l;
        m.addConfig("perc3696/g30/l" + std::to_string(l), sc, cc);
    }
    for (const std::uint32_t lht : {2048u, 4096u}) {
        for (const unsigned pht : {17u, 19u}) {
            sim::SchemeConfig sc;
            sc.scheme = core::PredictionScheme::PepPa;
            core::CoreConfig cc;
            cc.peppa.lhtEntries = lht;
            cc.peppa.phtBits = pht;
            std::ostringstream name;
            name << "peppa/lht" << lht << "/pht" << pht;
            m.addConfig(name.str(), sc, cc);
        }
    }
    sim::SchemeConfig hist;
    hist.scheme = core::PredictionScheme::PredicatePredictor;
    hist.idealPerfectHistory = true;
    m.addConfig("pvt3696/dual/ideal-hist", hist);
    sim::SchemeConfig alias;
    alias.scheme = core::PredictionScheme::PredicatePredictor;
    alias.idealNoAlias = true;
    m.addConfig("pvt3696/dual/ideal-alias", alias);
    return m;
}

std::string
replayFamily(const std::string &config_name)
{
    if (config_name.rfind("perc", 0) == 0)
        return "perceptron";
    if (config_name.rfind("peppa", 0) == 0)
        return "peppa";
    return "pvt";
}

namespace
{

/** Streams named fields into an FNV-1a state; doubles by bit pattern. */
class Digest
{
  public:
    void
    operator()(const char *, const std::string &v)
    {
        bytes(v.data(), v.size());
        bytes("\0", 1);
    }
    void
    operator()(const char *, std::uint64_t v)
    {
        bytes(&v, sizeof(v));
    }
    void
    operator()(const char *, double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bytes(&bits, sizeof(bits));
    }
    void
    operator()(const char *, bool v)
    {
        const std::uint8_t b = v ? 1 : 0;
        bytes(&b, 1);
    }
    std::uint64_t value() const { return h_; }

  private:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const std::uint8_t *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= c[i];
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Collects the field names a visitor sees. */
struct Names
{
    std::vector<std::string> names;
    template <class T>
    void
    operator()(const char *name, const T &)
    {
        names.emplace_back(name);
    }
};

/** The one list of digested RunResult fields. */
template <class F>
void
visitRun(const sim::RunResult &r, F &f)
{
    f("benchmark", r.benchmark);
    for (const auto &field : core::kCoreStatsFields)
        f(field.name, r.stats.*field.member);
    f("mispred_rate_pct", r.mispredRatePct);
    f("accuracy_pct", r.accuracyPct);
    f("ipc", r.ipc);
    f("shadow_mispred_rate_pct", r.shadowMispredRatePct);
    f("early_resolved_pct", r.earlyResolvedPct);
    f("sampled", r.sampled);
    f("measured_insts", r.measuredInsts);
    f("detailed_insts", r.detailedInsts);
    f("ipc_error_bound", r.ipcErrorBound);
}

/** The one list of digested replay fields (workload, then config). */
template <class F>
void
visitReplay(const replay::ReplayWorkloadResult &w,
            const replay::ReplayConfigResult &c, F &f)
{
    f("benchmark", w.benchmark);
    f("if_convert", w.ifConvert);
    f("warmup_insts", w.warmupInsts);
    f("measure_insts", w.measureInsts);
    f("stream_events", w.streamEvents);
    f("stream_branches", w.streamBranches);
    f("stream_compares", w.streamCompares);
    f("name", c.name);
    f("storage_bytes", c.storageBytes);
    const replay::ReplayStats &s = c.stats;
    f("cond_branches", s.condBranches);
    f("mispredicted", s.mispredicted);
    f("l1_mispredicted", s.l1Mispredicted);
    f("mispred_taken", s.mispredTaken);
    f("mispred_not_taken", s.mispredNotTaken);
    f("br_branches", s.brBranches);
    f("br_mispredicted", s.brMispredicted);
    f("call_branches", s.callBranches);
    f("call_mispredicted", s.callMispredicted);
    f("ret_branches", s.retBranches);
    f("ret_mispredicted", s.retMispredicted);
    f("compares", s.compares);
    f("pd1_mispredicts", s.pd1Mispredicts);
    f("pd2_mispredicts", s.pd2Mispredicts);
    f("confident_pd1", s.confidentPd1);
    f("confident_pd1_wrong", s.confidentPd1Wrong);
    f("shadow_mispredicts", s.shadowMispredicts);
}

} // namespace

std::uint64_t
runDigest(const sim::RunResult &r)
{
    Digest d;
    visitRun(r, d);
    return d.value();
}

std::uint64_t
replayDigest(const replay::ReplayWorkloadResult &w, std::size_t config)
{
    Digest d;
    visitReplay(w, w.configs.at(config), d);
    return d.value();
}

std::vector<std::string>
runDigestFields()
{
    Names n;
    visitRun(sim::RunResult{}, n);
    return n.names;
}

std::vector<std::string>
replayDigestFields()
{
    Names n;
    const replay::ReplayWorkloadResult w;
    visitReplay(w, replay::ReplayConfigResult{}, n);
    return n.names;
}

std::vector<std::uint64_t>
runDigests(const std::vector<sim::RunResult> &results)
{
    std::vector<std::uint64_t> out;
    out.reserve(results.size());
    for (const auto &r : results)
        out.push_back(runDigest(r));
    return out;
}

std::vector<std::uint64_t>
replayDigests(const std::vector<replay::ReplayWorkloadResult> &rs)
{
    std::vector<std::uint64_t> out;
    for (const auto &w : rs) {
        for (std::size_t c = 0; c < w.configs.size(); ++c)
            out.push_back(replayDigest(w, c));
    }
    return out;
}

std::uint64_t
cellInsts(const driver::RunSpec &spec)
{
    return spec.warmupInsts + spec.measureInsts;
}

} // namespace perfbench
