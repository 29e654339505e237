#include "predictor/predicate_perceptron.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace pp
{
namespace predictor
{

PredicatePerceptron::PredicatePerceptron(
    const PredicatePredictorConfig &config)
    : cfg(config),
      table(config.tableEntries, config.globalBits, config.localBits,
            config.noAlias),
      confCounters(config.tableEntries,
                   SatCounter(config.confidenceBits, 0)),
      lhtNoAlias(config.noAlias ? config.tableEntries : 0)
{
    panicIfNot(isPowerOfTwo(cfg.lhtEntries), "LHT entries must be 2^n");
    lht.assign(cfg.lhtEntries, 0);
}

void
PredicatePerceptron::pvtRows(Addr pc, bool need_second,
                             std::uint32_t &idx1, std::uint32_t &idx2)
{
    if (cfg.noAlias) {
        idx1 = table.row(pc / 4 * 2);
        idx2 = need_second ? table.row(pc / 4 * 2 + 1) : idx1;
        return;
    }
    const std::uint64_t h = mix64(pc / 4);
    if (cfg.pvtMode == PvtMode::Split) {
        const std::uint64_t half = cfg.tableEntries / 2;
        idx1 = table.row(h % half);
        idx2 = need_second ? table.row(half + h % half) : idx1;
        return;
    }
    // "The second hash function simply inverts the most significant bit
    // of the first" (§3.3), generalized to a non-power-of-two table as a
    // half-table rotation: (h + E/2) mod E, derived from h mod E by a
    // conditional subtract so the prediction pays one division, not four.
    const std::uint64_t r = h % cfg.tableEntries;
    idx1 = table.row(r);
    std::uint64_t r2 = r + cfg.tableEntries / 2;
    if (r2 >= cfg.tableEntries)
        r2 -= cfg.tableEntries;
    idx2 = need_second ? table.row(r2) : idx1;
}

std::uint64_t &
PredicatePerceptron::localEntry(Addr pc, std::uint32_t &index_out)
{
    if (cfg.noAlias) {
        index_out = 0;
        return lhtNoAlias[pc / 4];
    }
    index_out = static_cast<std::uint32_t>((pc / 4) & (cfg.lhtEntries - 1));
    return lht[index_out];
}

SatCounter &
PredicatePerceptron::confidence(std::uint32_t row)
{
    while (row >= confCounters.size())
        confCounters.emplace_back(cfg.confidenceBits, 0);
    return confCounters[row];
}

void
PredicatePerceptron::predict(const CompareContext &ctx, PredPredState &st)
{
    std::uint32_t lht_idx = 0;
    std::uint64_t &lentry = localEntry(ctx.pc, lht_idx);

    st.valid = true;
    st.pc = ctx.pc;
    st.ghrCkpt = ghr;
    st.localCkpt = lentry;
    st.lhtIndex = lht_idx;

    pvtRows(ctx.pc, ctx.needSecond, st.idx1, st.idx2);
    st.out1 = table.output(st.idx1, ghr, lentry);
    st.pred1 = st.out1 >= 0;
    st.conf1 = confidence(st.idx1).isSaturated();

    if (ctx.needSecond) {
        st.out2 = table.output(st.idx2, ghr, lentry);
        st.pred2 = st.out2 >= 0;
        st.conf2 = confidence(st.idx2).isSaturated();
    } else {
        st.pred2 = !st.pred1;
        st.conf2 = st.conf1;
    }

    // One history shift per compare (§3.3): the first predicted value.
    const bool bit = cfg.perfectHistory ? ctx.oracle1.value_or(st.pred1)
                                        : st.pred1;
    ghr = ((ghr << 1) | (bit ? 1 : 0)) & mask(cfg.globalBits);
    lentry = ((lentry << 1) | (bit ? 1 : 0)) & mask(cfg.localBits);
}

void
PredicatePerceptron::resolve(const CompareContext &ctx,
                             const PredPredState &st, bool actual1,
                             bool actual2)
{
    if (!st.valid)
        return;

    const auto abs32 = [](std::int32_t v) { return v < 0 ? -v : v; };

    if (st.pred1 != actual1 || abs32(st.out1) <= cfg.threshold)
        table.train(st.idx1, st.ghrCkpt, st.localCkpt, actual1);
    if (st.pred1 == actual1)
        confidence(st.idx1).increment();
    else
        confidence(st.idx1).reset();

    if (ctx.needSecond) {
        if (st.pred2 != actual2 || abs32(st.out2) <= cfg.threshold)
            table.train(st.idx2, st.ghrCkpt, st.localCkpt, actual2);
        if (st.pred2 == actual2)
            confidence(st.idx2).increment();
        else
            confidence(st.idx2).reset();
    }
}

void
PredicatePerceptron::squash(const PredPredState &st)
{
    if (!st.valid)
        return;
    ghr = st.ghrCkpt;
    if (cfg.noAlias)
        lhtNoAlias[st.pc / 4] = st.localCkpt;
    else
        lht[st.lhtIndex] = st.localCkpt;
}

void
PredicatePerceptron::correctHistoryAtDepth(const CompareContext &ctx,
                                           const PredPredState &st,
                                           bool actual1, unsigned ghr_depth,
                                           unsigned lht_depth)
{
    if (!st.valid || st.pred1 == actual1)
        return;
    if (cfg.perfectHistory)
        return; // histories already hold oracle bits
    // The wrong speculative bits sit a known number of shifts deep.
    // Compares that predicted in between keep the histories they saw
    // (the §3.3 corruption window); only the bits themselves flip.
    if (ghr_depth < cfg.globalBits)
        ghr ^= (1ull << ghr_depth);
    if (lht_depth < cfg.localBits) {
        std::uint32_t idx = 0;
        localEntry(ctx.pc, idx) ^= (1ull << lht_depth);
    }
}

std::uint64_t
PredicatePerceptron::storageBytes() const
{
    return table.storageBytes() +
        (confCounters.size() * cfg.confidenceBits) / 8 +
        (static_cast<std::uint64_t>(cfg.lhtEntries) * cfg.localBits) / 8;
}

} // namespace predictor
} // namespace pp
