/**
 * @file
 * Branch-condition sources: the ground truth behind every compare.
 *
 * Each static compare instruction references a ConditionSpec by id. The
 * functional emulator evaluates the condition in program order, which
 * defines the true outcome stream of the program's control flow.
 *
 * Two roles used to live in one class and are now split behind the
 * ConditionSource interface:
 *
 * - @c ConditionTable *generates* outcomes from the spec taxonomy below,
 *   RNG-backed and deterministic given the seed. It can additionally
 *   record every outcome it draws into per-condition bit streams — the
 *   payload of a trace artifact (program/trace.hh).
 * - @c ConditionReplay *consumes* recorded streams, cursor-backed: it
 *   re-emits a recorded run's exact outcome sequence with no RNG and no
 *   generator state at all, so a replayed sweep is bit-identical to the
 *   recording run whatever scheme or sampling policy consumes it.
 *
 * The generator taxonomy models the behaviours that matter to the paper:
 *
 * - @c Biased:     i.i.d. Bernoulli(p). Easy for any predictor when p is
 *                  extreme; hard when p is near 0.5.
 * - @c Loop:       taken (period-1) out of period evaluations; a classic
 *                  loop back-edge, learnable from local history.
 * - @c Pattern:    a fixed repeating bit pattern, learnable from local
 *                  history.
 * - @c Correlated: a (linearly separable) boolean function of the *latest
 *                  outcomes of other conditions*, optionally noisy. This is
 *                  the carrier of inter-branch correlation: a global-history
 *                  predictor that observes the source conditions can predict
 *                  it; one that does not (e.g. a conventional branch
 *                  predictor after if-conversion removed the source
 *                  branches) cannot.
 * - @c DataDep:    i.i.d. Bernoulli(p) standing for an irreducibly hard
 *                  data-dependent condition; no predictor can beat p.
 */

#ifndef PP_PROGRAM_CONDITION_HH
#define PP_PROGRAM_CONDITION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace pp
{
namespace program
{

/** Id of a condition within a program's condition table. */
using CondId = std::uint32_t;

/** Sentinel for "no condition". */
constexpr CondId invalidCond = 0xffffffff;

/** Static description of one condition generator. */
struct ConditionSpec
{
    enum class Kind : std::uint8_t
    {
        Biased,
        Loop,
        Pattern,
        Correlated,
        DataDep,
    };

    /** Combination function for Correlated conditions. */
    enum class Fn : std::uint8_t
    {
        Copy,    ///< out = src0
        NotCopy, ///< out = !src0
        And,     ///< out = src0 && src1
        Or,      ///< out = src0 || src1
        Xor,     ///< out = src0 ^ src1 (NOT linearly separable; stress case)
    };

    Kind kind = Kind::Biased;

    /** Bernoulli probability of true (Biased / DataDep). */
    double bias = 0.5;

    /** Loop trip count, or pattern length (1..64). */
    std::uint32_t period = 4;

    /** Pattern bits, LSB first (Pattern only). */
    std::uint64_t pattern = 0;

    /** Source condition ids (Correlated only). */
    std::array<CondId, 2> srcs = {invalidCond, invalidCond};

    /** Combination function (Correlated only). */
    Fn fn = Fn::Copy;

    /** Probability the correlated output is flipped. */
    double noise = 0.0;

    /** @name Convenience factories */
    /// @{
    static ConditionSpec biased(double p);
    static ConditionSpec loop(std::uint32_t trip_count);
    static ConditionSpec makePattern(std::uint64_t bits, std::uint32_t len);
    static ConditionSpec correlated(Fn fn, CondId s0,
                                    CondId s1 = invalidCond,
                                    double noise = 0.0);
    static ConditionSpec dataDep(double p);
    /// @}
};

/**
 * One condition's recorded outcome stream: outcomes in evaluation order,
 * bit-packed LSB-first. Append-only while recording, random-access (by
 * cursor) while replaying.
 */
struct ConditionStream
{
    std::vector<std::uint64_t> words;
    std::uint64_t length = 0;

    void
    push(bool v)
    {
        if ((length & 63) == 0)
            words.push_back(0);
        if (v)
            words.back() |= 1ull << (length & 63);
        ++length;
    }

    bool
    at(std::uint64_t i) const
    {
        return (words[i >> 6] >> (i & 63)) & 1;
    }
};

/**
 * Program-order condition source: the emulator draws one outcome per
 * executed compare from here. Owns the per-condition evaluation cursors
 * and last outcomes; subclasses supply where outcomes come from (RNG
 * generation vs recorded-stream replay).
 *
 * Checkpoints are unified across implementations: per-condition cursor
 * plus last outcome, sparse over the conditions actually evaluated
 * (untouched conditions are still at their reset state by construction,
 * so copying them would be pure waste — programs routinely carry
 * hundreds of conditions of which a window touches a fraction), plus
 * the generator RNG state (zeros under replay).
 */
class ConditionSource
{
  public:
    virtual ~ConditionSource() = default;

    /**
     * Evaluate condition @p id in program order and record its outcome
     * as the condition's latest value.
     */
    virtual bool evaluate(CondId id) = 0;

    /** Latest recorded outcome of condition @p id (false before first). */
    bool lastOutcome(CondId id) const { return state[id].last; }

    /** Number of conditions. */
    std::size_t size() const { return state.size(); }

    /**
     * Mutable evaluation state, detached from the immutable specs or
     * streams so a program position can be captured and resumed
     * bit-identically. Sparse: one entry per touched condition.
     */
    struct Checkpoint
    {
        /** Total conditions of the source (shape check on restore). */
        std::uint32_t numConds = 0;

        /** True when captured from a replay source (mode check). */
        bool replay = false;

        /** Touched condition ids, ascending. */
        std::vector<CondId> ids;

        /** Cursor per touched condition (generator or stream cursor). */
        std::vector<std::uint32_t> pos;

        /** Last outcome per touched condition. */
        std::vector<std::uint8_t> last;

        /** Generator RNG state; zeros under replay. */
        Rng::State rng{};
    };

    /** Capture the evaluation state. */
    Checkpoint checkpoint() const;

    /**
     * Restore a state captured on a source with the same shape and
     * mode; fatal on mismatch (checkpoint from a different program or
     * from the other source kind) or on out-of-range cursors.
     */
    void restore(const Checkpoint &ckpt);

  protected:
    explicit ConditionSource(std::size_t n) : state(n) {}

    struct CondState
    {
        std::uint32_t pos = 0;
        bool last = false;
        bool touched = false;
    };

    /** Validate a restored cursor for condition @p id; fatal if bad. */
    virtual void checkCursor(CondId id, std::uint32_t pos) const = 0;

    /** True for replay sources (checkpoint mode tag). */
    virtual bool isReplay() const = 0;

    /** Generator RNG state hooks (replay has none). */
    virtual Rng::State rngState() const { return {}; }
    virtual void setRngState(const Rng::State &st) { (void)st; }

    std::vector<CondState> state;
};

/**
 * RNG-backed generation: realizes the ConditionSpec taxonomy.
 * Deterministic given the seed. Final, so calls through a concrete
 * pointer devirtualize and inline (the emulator's hot path does this —
 * see Emulator::evalCond()).
 */
class ConditionTable final : public ConditionSource
{
  public:
    ConditionTable(std::vector<ConditionSpec> cond_specs,
                   std::uint64_t seed);

    bool evaluate(CondId id) override { return evaluateImpl(id); }

    /**
     * Evaluate condition @p id in program order. Non-virtual and
     * header-defined: called once per executed compare on the decoded
     * hot path, where both a cross-TU call and a (devirtualizable but
     * inlining-hostile) virtual call were measurable. The virtual
     * evaluate() above forwards here for interface consumers; hot
     * callers holding the concrete type (Emulator::evalCond) call this
     * directly.
     */
    bool
    evaluateImpl(CondId id)
    {
        panicIfNot(id < specs.size(), "condition id out of range");
        const ConditionSpec &s = specs[id];
        CondState &st = state[id];
        bool out = false;

        switch (s.kind) {
          case ConditionSpec::Kind::Biased:
          case ConditionSpec::Kind::DataDep:
            out = rng.bernoulli(s.bias);
            break;
          case ConditionSpec::Kind::Loop:
            out = (st.pos != s.period - 1);
            st.pos = (st.pos + 1) % s.period;
            break;
          case ConditionSpec::Kind::Pattern:
            out = (s.pattern >> st.pos) & 1;
            st.pos = (st.pos + 1) % s.period;
            break;
          case ConditionSpec::Kind::Correlated: {
            const bool a = state[s.srcs[0]].last;
            const bool b =
                s.srcs[1] == invalidCond ? false : state[s.srcs[1]].last;
            switch (s.fn) {
              case ConditionSpec::Fn::Copy: out = a; break;
              case ConditionSpec::Fn::NotCopy: out = !a; break;
              case ConditionSpec::Fn::And: out = a && b; break;
              case ConditionSpec::Fn::Or: out = a || b; break;
              case ConditionSpec::Fn::Xor: out = a != b; break;
            }
            if (s.noise > 0.0 && rng.bernoulli(s.noise))
                out = !out;
            break;
          }
        }

        st.last = out;
        st.touched = true;
        if (rec != nullptr)
            (*rec)[id].push(out);
        return out;
    }

    /** Access a spec (e.g. for the if-converter's hardness heuristics). */
    const ConditionSpec &spec(CondId id) const { return specs[id]; }

    /**
     * Record every subsequent outcome into @p streams (one per
     * condition, sized to size(); nullptr detaches). The trace recorder
     * attaches this before driving the emulator over the region.
     */
    void recordInto(std::vector<ConditionStream> *streams);

  protected:
    void checkCursor(CondId id, std::uint32_t pos) const override;
    bool isReplay() const override { return false; }
    Rng::State rngState() const override { return rng.state(); }
    void setRngState(const Rng::State &st) override { rng.setState(st); }

  private:
    std::vector<ConditionSpec> specs;
    Rng rng;
    std::vector<ConditionStream> *rec = nullptr;
};

/**
 * Cursor-backed replay of recorded streams: evaluate(id) pops the next
 * recorded outcome of condition @p id. No RNG, no generator state — a
 * replayed program cannot diverge from its recording, and running past
 * the recorded horizon is fatal rather than silently random. The
 * streams (typically a TraceFile's) are shared immutably and must
 * outlive the source; cursors are per-instance, so concurrent runs can
 * replay one trace.
 */
class ConditionReplay final : public ConditionSource
{
  public:
    explicit ConditionReplay(const std::vector<ConditionStream> &streams);

    bool evaluate(CondId id) override { return evaluateImpl(id); }

    /** Hot-path twin of evaluate(); see ConditionTable::evaluateImpl. */
    bool
    evaluateImpl(CondId id)
    {
        panicIfNot(id < state.size(), "condition id out of range");
        const ConditionStream &s = (*streams)[id];
        CondState &st = state[id];
        panicIfNot(st.pos < s.length,
                   "trace condition stream exhausted (recorded region "
                   "too short for this replay)");
        const bool out = s.at(st.pos);
        ++st.pos;
        st.last = out;
        st.touched = true;
        return out;
    }

  protected:
    void checkCursor(CondId id, std::uint32_t pos) const override;
    bool isReplay() const override { return true; }

  private:
    const std::vector<ConditionStream> *streams;
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_CONDITION_HH
