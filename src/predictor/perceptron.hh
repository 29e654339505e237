/**
 * @file
 * Conventional second-level perceptron branch predictor (Jiménez & Lin,
 * HPCA'01) with 30-bit global and 10-bit local history, sized to the
 * paper's 148KB budget, 3-cycle access.
 */

#ifndef PP_PREDICTOR_PERCEPTRON_HH
#define PP_PREDICTOR_PERCEPTRON_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "predictor/direction_predictor.hh"

namespace pp
{
namespace predictor
{

/** Perceptron predictor configuration (defaults = Table 1, 148KB). */
struct PerceptronConfig
{
    /**
     * Perceptron vector table rows. Each row holds bias + 30 global + 10
     * local 8-bit weights = 41 bytes; 3696 rows ~= 148KB.
     */
    unsigned tableEntries = 3696;
    unsigned globalBits = 30;
    unsigned localBits = 10;
    unsigned lhtEntries = 2048;

    /** Training threshold; 1.93 * 41 + 14 per Jiménez & Lin. */
    std::int32_t threshold = 93;

    /** Idealized: tag tables by full PC (no alias conflicts). */
    bool noAlias = false;

    /** Idealized: shift actual outcomes into history at predict time. */
    bool perfectHistory = false;

    Cycle accessLatency = 3;
};

/**
 * Zero-initialized flat storage indexed by a dense key (pc / 4 and the
 * like): the idealized no-alias tables' one private entry per static
 * instruction. It starts with room for @p reach keys and grows
 * geometrically past the highest key seen, so a lookup allocates
 * nothing once the program's keys fit.
 */
template <typename T>
class DenseTable
{
  public:
    explicit DenseTable(std::size_t reach = 0) : slots(reach) {}

    T &
    operator[](std::size_t key)
    {
        if (key >= slots.size())
            slots.resize(std::max(key + 1, 2 * slots.size()));
        return slots[key];
    }

  private:
    std::vector<T> slots;
};

/**
 * Shared perceptron machinery: a weight table plus dot-product/train
 * helpers. Used by both the conventional predictor and the predicate
 * predictor (the paper's point is that the *same* structure serves both).
 */
class PerceptronTable
{
  public:
    PerceptronTable(unsigned entries, unsigned global_bits,
                    unsigned local_bits, bool no_alias);

    /** Number of weights per row (bias + global + local). */
    unsigned rowWeights() const { return 1 + globalBits + localBits; }

    /**
     * Resolve the row for @p key (a hashed index in aliased mode, a
     * dense per-static-instruction key in no-alias mode).
     */
    std::uint32_t row(std::uint64_t key);

    /** Dot product of row @p r with the given histories. */
    std::int32_t output(std::uint32_t r, std::uint64_t ghist,
                        std::uint64_t lhist) const;

    /** Standard perceptron training step. */
    void train(std::uint32_t r, std::uint64_t ghist, std::uint64_t lhist,
               bool taken);

    std::uint64_t storageBytes() const;

  private:
    std::int8_t *rowPtr(std::uint32_t r) { return &weights[r * rowWeights()]; }
    const std::int8_t *
    rowPtr(std::uint32_t r) const
    {
        return &weights[r * rowWeights()];
    }

    unsigned entries;
    unsigned globalBits;
    unsigned localBits;
    bool noAlias;

    std::vector<std::int8_t> weights;

    /**
     * Per-row sum of all history weights (bias excluded), maintained
     * incrementally by train(). Lets output() visit only the *set*
     * history bits word-at-a-time: the contribution of clear bits is
     * rowSums minus what the set bits contributed.
     */
    std::vector<std::int32_t> rowSums;

    /** No-alias mode: row + 1 per key (0: no row yet). */
    DenseTable<std::uint32_t> aliasFreeIndex;
    std::uint32_t aliasFreeRows = 0;
};

/** The conventional branch perceptron (branch-PC indexed). */
class PerceptronPredictor : public DirectionPredictor
{
  public:
    explicit PerceptronPredictor(
        const PerceptronConfig &config = PerceptronConfig());

    bool predict(const BranchContext &ctx, PredState &st) override;
    void resolve(const BranchContext &ctx, const PredState &st,
                 bool taken) override;
    void squash(const PredState &st) override;
    void correctHistory(const PredState &st, bool taken) override;
    void reforecast(PredState &st, bool new_dir) override;

    Cycle latency() const override { return cfg.accessLatency; }
    std::uint64_t storageBytes() const override;

    /** Current speculative global history (tests). */
    std::uint64_t history() const { return ghr; }

  private:
    std::uint64_t &localEntry(Addr pc, std::uint32_t &index_out);

    PerceptronConfig cfg;
    PerceptronTable table;
    std::uint64_t ghr = 0;
    std::vector<std::uint64_t> lht;
    DenseTable<std::uint64_t> lhtNoAlias; ///< by pc / 4
};

} // namespace predictor
} // namespace pp

#endif // PP_PREDICTOR_PERCEPTRON_HH
