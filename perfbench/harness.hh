/**
 * @file
 * Shared pieces of the benchmark driver: run context, the recorded
 * reference, one engine pass of a workload, and result printing.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "grids.hh"

namespace perfbench
{

/** Recorded digests (and reference IPCs) of one (scale, seed). */
struct Reference
{
    bool present = false;
    std::vector<std::uint64_t> fig5;
    std::vector<std::uint64_t> selective;
    std::vector<std::uint64_t> replay;
    /** Full-simulation IPC of each selective_sampled cell. */
    std::vector<double> selectiveFullIpc;
};

/** The cells of the workload under test, built once per process. */
struct Grids
{
    std::vector<pp::driver::RunSpec> fig5;
    std::vector<pp::driver::RunSpec> selective;
    std::vector<pp::replay::ReplayWorkloadSpec> replayWorkloads;
    std::vector<pp::replay::ReplayConfig> replayConfigs;
};

struct Context
{
    std::string workload;
    Scale scale;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    unsigned threads = 2;
    std::string workDir;     ///< scratch space (result caches)
    std::string traceOut;    ///< span file of the traced run
    Reference ref;
    Grids grids;
};

/** Build the cell lists @p workload runs (others stay empty). */
Grids gridsFor(const std::string &workload, const Scale &s,
               std::uint64_t seed);

/** Digests a correct pass of ctx.workload produces, when recorded. */
std::vector<std::uint64_t> expectedDigests(const Context &ctx);

/** A binary (profile, if-conversion) a workload needs. */
struct BinaryNeed
{
    pp::program::BenchmarkProfile profile;
    bool ifConvert = false;
};

/** Every distinct binary ctx.workload builds, in first-use order. */
std::vector<BinaryNeed> binariesFor(const Context &ctx);

/** Outcome of one untraced engine pass. */
struct PassResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Simulated instructions the result cells deliver. */
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> digests;
    /** Cells that broke a cache expectation (simulated on a warm
     *  rerun; a cold cell that was not stored). */
    std::uint64_t cacheFailures = 0;
    /** selective_sampled results (for the sampled IPC error). */
    std::vector<pp::sim::RunResult> sampled;
};

/**
 * One pass of ctx.workload through SweepEngine::run/runReplay and its
 * sink, timed from the first engine call to the rendered document.
 * @p cache_dir is the result cache (fig5_full: empty; warm_rerun:
 * filled); ignored by the other workloads.
 */
PassResult enginePass(const Context &ctx, const std::string &cache_dir);

/** Run the fig5_full and selective_sampled grids of ctx into the
 *  result cache at @p cache_dir (the --fill-cache step, a process of
 *  its own before a warm_rerun run). */
void fillCache(const Context &ctx, const std::string &cache_dir);

/** @name Host measurements */
/// @{
double wallNow();          ///< steady clock, seconds
double processCpuS();      ///< user + sys CPU seconds of the process
double peakRssMb();
double median(std::vector<double> xs);
/** Linear-interpolated percentile @p p in [0, 100]. */
double percentile(std::vector<double> xs, double p);
/// @}

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Print every metric as a "metric NAME VALUE UNIT" report line, then
 * the result object as the last stdout line. @p json_names selects the
 * metrics that go into the object (all when empty).
 */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &report,
                 const std::vector<std::string> &json_names);

/** The traced run: the per-layer ledger of ctx.workload. */
int tracedRun(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
