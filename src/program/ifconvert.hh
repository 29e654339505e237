/**
 * @file
 * Profile-guided if-conversion.
 *
 * Mirrors the compiler behaviour the paper evaluates (Electron with
 * if-conversion enabled, applied selectively to hard-to-predict branches
 * per Chang et al.): a profiling run estimates each region guard's
 * misprediction rate with a simple bimodal profile predictor, and regions
 * whose guard is harder than a threshold (and whose blocks are small
 * enough) are collapsed into predicated code:
 *
 * - the region branch (and a diamond's internal join branch) is removed;
 * - then-block instructions are guarded with the region's true predicate,
 *   else-block instructions with the false predicate;
 * - the compare instruction stays — which is exactly why a predicate
 *   predictor retains correlation information a branch predictor loses.
 */

#ifndef PP_PROGRAM_IFCONVERT_HH
#define PP_PROGRAM_IFCONVERT_HH

#include <cstdint>
#include <vector>

#include "program/asmprog.hh"

namespace pp
{
namespace program
{

/** If-conversion policy knobs. */
struct IfConvertOptions
{
    /** Convert a region if its guard's profiled mispred rate is >= this. */
    double mispredThreshold = 0.05;

    /** Do not convert regions with more predicated instructions than this. */
    int maxBlockLen = 24;

    /** Instructions executed by the profiling run. */
    std::uint64_t profileSteps = 1500000;

    /** Seed for the profiling run (condition realization). */
    std::uint64_t profileSeed = 0xbeef;

    /** Require at least this many profile evaluations to trust the rate. */
    std::uint64_t minEvals = 16;
};

/** Per-region decision record (diagnostics / tests). */
struct RegionDecision
{
    CondId condId = invalidCond;
    double hardness = 0.0;   ///< profiled bimodal misprediction rate
    int blockLen = 0;
    bool converted = false;
    std::size_t brIdx = 0;   ///< branch item index in the input program
};

/** Outcome summary of an if-conversion pass. */
struct IfConvertStats
{
    std::size_t regionsTotal = 0;
    std::size_t regionsConverted = 0;
    std::size_t branchesRemoved = 0;
    std::size_t instsPredicated = 0;
    std::vector<RegionDecision> decisions;
};

/**
 * Profile each region guard of @p prog and return per-condition observed
 * misprediction rates of a 2-bit bimodal profile predictor (indexed by
 * condition id). Conditions never evaluated get rate 0.
 *
 * The profiling run executes on the emulator's batched decoded tier
 * (Emulator::produce() into an ExecRing, a basic block per dispatch
 * setup) and consumes exactly opts.profileSteps records; the rates are
 * bit-identical to a one-record-at-a-time step() or stepLegacy() run.
 */
std::vector<double> profileConditionHardness(const AsmProgram &prog,
                                             const IfConvertOptions &opts);

/**
 * Apply profile-guided if-conversion and return the transformed program.
 * The result has no region table (everything convertible was decided).
 */
AsmProgram ifConvert(const AsmProgram &prog, const IfConvertOptions &opts,
                     IfConvertStats *stats = nullptr);

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_IFCONVERT_HH
