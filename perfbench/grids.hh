/**
 * @file
 * The benchmark's four workloads as cell lists, the instruction windows
 * they run at, and the per-cell result digests the correctness check
 * compares against perfbench/reference.json.
 *
 * Every grid is built through the public sweep entry points
 * (driver::namedGrid, driver::fig5Schemes, RunMatrix, ReplayMatrix);
 * the benchmark seed is mixed into every BenchmarkProfile seed, so one
 * seed names one complete set of generated programs.
 */

#ifndef PERFBENCH_GRIDS_HH
#define PERFBENCH_GRIDS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/run_matrix.hh"
#include "replay/predictor_replay.hh"
#include "sim/simulator.hh"

namespace perfbench
{

/** Instruction windows of one benchmark scale. */
struct Scale
{
    std::string name;                 ///< "full" or "smoke"
    std::uint64_t fig5Warmup = 0;     ///< fig5_full cell window
    std::uint64_t fig5Measure = 0;
    std::uint64_t selLeadIn = 0;      ///< selective_sampled region
    std::uint64_t selRegion = 0;
    std::uint64_t samplingPeriod = 0; ///< SamplingPolicy::smarts(period)
    std::uint64_t replayWarmup = 0;   ///< ablation_replay window
    std::uint64_t replayMeasure = 0;
};

/** "full" (the measured benchmark) or "smoke" (self-test windows). */
Scale scaleByName(const std::string &name);

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** The 22 SPEC2000-like profiles with @p seed mixed into each seed
 *  (seed 0 leaves the repository's own profiles unchanged). */
std::vector<pp::program::BenchmarkProfile> seededSuite(std::uint64_t seed);

/** fig5_full: 22 plain profiles x the four fig5Schemes() columns. */
std::vector<pp::driver::RunSpec> fig5Specs(const Scale &s,
                                           std::uint64_t seed);

/**
 * selective_sampled: 22 if-converted profiles x {cmov, selective}
 * under SamplingPolicy::smarts(); with @p sampled false the same cells
 * at full detail (the reference IPCs of reference.json).
 */
std::vector<pp::driver::RunSpec> selectiveSpecs(const Scale &s,
                                                std::uint64_t seed,
                                                bool sampled = true);

/** ablation_replay: the 34-config grid of bench_predictor_replay on
 *  its gzip/crafty/swim cross-section, if-converted. */
pp::replay::ReplayMatrix replayMatrix(const Scale &s, std::uint64_t seed);

/** Predictor family of a replay config name: "pvt", "perceptron" or
 *  "peppa" (idealized predicate variants count as pvt). */
std::string replayFamily(const std::string &config_name);

/** @name Result digests
 *  FNV-1a over the deterministic fields of a result, named by the
 *  *DigestFields() lists (stored beside the digests in reference.json,
 *  so a changed field list is caught rather than silently compared).
 *  Host-time fields and trace hashes are not part of a digest. */
/// @{
std::uint64_t runDigest(const pp::sim::RunResult &r);
std::uint64_t replayDigest(const pp::replay::ReplayWorkloadResult &w,
                           std::size_t config);
std::vector<std::string> runDigestFields();
std::vector<std::string> replayDigestFields();
/// @}

/** Digests of every cell, in spec / (workload, config) order. */
std::vector<std::uint64_t>
runDigests(const std::vector<pp::sim::RunResult> &results);
std::vector<std::uint64_t>
replayDigests(const std::vector<pp::replay::ReplayWorkloadResult> &rs);

/** Committed instructions a cell covers: warmup + its window. */
std::uint64_t cellInsts(const pp::driver::RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_GRIDS_HH
