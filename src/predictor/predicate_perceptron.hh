/**
 * @file
 * The paper's contribution: a perceptron *predicate* predictor.
 *
 * Predictions are generated at compare fetch, indexed by the *compare* PC.
 * A single perceptron vector table (PVT) is accessed through two hash
 * functions — one per predicate destination; the second hash inverts the
 * most significant bit of the first (§3.3) so two-destination compares
 * spread over the whole table instead of a statically split half each
 * (the ablatable alternative).
 *
 * The global history register is updated exactly once per compare, at
 * predict time, with the first predicted predicate value — so it retains
 * the outcome information of conditions whose branches if-conversion
 * removed, stores no duplicate bits, and needs no reordering mechanism
 * (the contrast the paper draws with Simon et al.'s scheme).
 *
 * Each PVT row carries the confidence saturating counter of the selective
 * predicate prediction scheme: incremented on a correct prediction,
 * zeroed on a wrong one, trusted only when saturated.
 */

#ifndef PP_PREDICTOR_PREDICATE_PERCEPTRON_HH
#define PP_PREDICTOR_PREDICATE_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
#include "predictor/perceptron.hh"
#include "predictor/types.hh"

namespace pp
{
namespace predictor
{

/** How the two predictions of a compare share the PVT (§3.3 ablation). */
enum class PvtMode : std::uint8_t
{
    DualHash, ///< one table, two hash functions (the paper's choice)
    Split,    ///< statically split table halves (the rejected design)
};

/** Predicate predictor configuration (defaults: Table 1, 148KB). */
struct PredicatePredictorConfig
{
    unsigned tableEntries = 3696;
    unsigned globalBits = 30;
    unsigned localBits = 10;
    unsigned lhtEntries = 2048;
    std::int32_t threshold = 93;
    PvtMode pvtMode = PvtMode::DualHash;

    /** Confidence counter width; confident == saturated. */
    unsigned confidenceBits = 3;

    /** Idealized: alias-free tables. */
    bool noAlias = false;

    /** Idealized: insert oracle outcomes into history at predict time. */
    bool perfectHistory = false;

    Cycle accessLatency = 3;
};

/** The predicate perceptron predictor. */
class PredicatePerceptron
{
  public:
    explicit PredicatePerceptron(
        const PredicatePredictorConfig &config = PredicatePredictorConfig());

    /**
     * Predict the compare's predicate destination values (pdst1 always,
     * pdst2 when ctx.needSecond). Speculatively shifts the global and
     * local histories once (with the pdst1 prediction).
     */
    void predict(const CompareContext &ctx, PredPredState &st);

    /**
     * Train with computed values at compare execution.
     * @param actual1/actual2 architectural predicate values written
     */
    void resolve(const CompareContext &ctx, const PredPredState &st,
                 bool actual1, bool actual2);

    /** Undo the speculative history shift (compare squashed). */
    void squash(const PredPredState &st);

    /**
     * Correct the *surviving* speculative history when a compare's first
     * prediction turns out wrong at execution. Unlike a conventional
     * branch predictor — whose mispredicting branch flushes everything
     * younger, so its checkpoint repair is complete — the compares that
     * predicted between this producer and its first consumer survive, so
     * only the bits themselves can be fixed (§3.3): the global bit sits
     * @p ghr_depth shifts deep, the local bit (same-PC compares, e.g. a
     * loop back-edge compare re-fetched each iteration) @p lht_depth deep.
     * The intervening compares already predicted with corrupted history.
     */
    void correctHistoryAtDepth(const CompareContext &ctx,
                               const PredPredState &st, bool actual1,
                               unsigned ghr_depth, unsigned lht_depth);

    /** Speculative global history (tests). */
    std::uint64_t history() const { return ghr; }

    /** Storage (PVT + confidence + LHT) in bytes. */
    std::uint64_t storageBytes() const;

    Cycle latency() const { return cfg.accessLatency; }

    const PredicatePredictorConfig &config() const { return cfg; }

  private:
    /**
     * Resolve the PVT rows for both predictions of one compare. The two
     * dual-hash rows share one mixed PC and one modulo reduction; when
     * @p need_second is false, @p idx2 aliases @p idx1.
     */
    void pvtRows(Addr pc, bool need_second, std::uint32_t &idx1,
                 std::uint32_t &idx2);
    std::uint64_t &localEntry(Addr pc, std::uint32_t &index_out);
    SatCounter &confidence(std::uint32_t row);

    PredicatePredictorConfig cfg;
    PerceptronTable table;
    std::vector<SatCounter> confCounters;
    std::uint64_t ghr = 0;
    std::vector<std::uint64_t> lht;
    DenseTable<std::uint64_t> lhtNoAlias; ///< by pc / 4
};

} // namespace predictor
} // namespace pp

#endif // PP_PREDICTOR_PREDICATE_PERCEPTRON_HH
