/**
 * @file
 * Recorded functional-warming event stream.
 *
 * The warmForward() tier streams cache/predictor-relevant events into a
 * sink as it executes; this header gives that stream a recorded
 * form. A WarmStreamRecorder captures each event as two u64 words, so a
 * window checkpoint (sampling/window_checkpoint.hh) can carry the
 * warming horizon's events and any core can later replay them through
 * its *own* tables (core::OoOCore::warmReplay) — the recording is
 * scheme-agnostic: it holds committed program behavior, not table
 * state.
 *
 * Encoding: word 0 = kind (low 8 bits) | event flags << 8; word 1 = the
 * event's address (fetch PC or effective data address). Taken
 * calls/returns are deliberately NOT recorded: the window core seeds
 * its return-address stack from the checkpoint's architectural call
 * stack instead (see the OoOCore resume constructor).
 */

#ifndef PP_PROGRAM_WARM_STREAM_HH
#define PP_PROGRAM_WARM_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace pp
{
namespace program
{

/** What one recorded warming event describes. */
enum class WarmEventKind : std::uint8_t
{
    InstLine = 0, ///< fetch crossed into a new I-cache line
    Mem = 1,      ///< executed load/store (flag bit 0: is_store)
    Branch = 2,   ///< conditional branch (flag bit 0: taken)
    Compare = 3,  ///< compare (flags: pd1_written/pd1_val/pd2_written/pd2_val)
};

/** Words per recorded event (kind+flags word, then the address). */
constexpr std::size_t kWarmEventWords = 2;

/** Compare-event flag bits (word 0 >> 8). */
constexpr std::uint64_t kWarmPd1Written = 1ull << 0;
constexpr std::uint64_t kWarmPd1Val = 1ull << 1;
constexpr std::uint64_t kWarmPd2Written = 1ull << 2;
constexpr std::uint64_t kWarmPd2Val = 1ull << 3;

/**
 * I-line granularity the stream is recorded at: the default 64-byte
 * line (CacheParams::blockBytes). Cores configured with another line
 * size still replay the stream correctly — the recorded line-crossing
 * points are merely approximate for them (warming accuracy, never
 * correctness, and identically so in serial and parallel execution).
 */
constexpr unsigned kWarmLineShift = 6;

/**
 * warmForward() sink that records the event stream instead of applying
 * it. Plain struct with FfSink's method set (not derived): the
 * templated warm tier binds it statically, so recording inlines into
 * the decoded hot loop.
 */
struct WarmStreamRecorder
{
    explicit WarmStreamRecorder(std::vector<std::uint64_t> &out)
        : events(out)
    {
    }

    void
    instLine(Addr pc)
    {
        append(WarmEventKind::InstLine, 0, pc);
    }

    void
    memAccess(Addr addr, bool is_store)
    {
        append(WarmEventKind::Mem, is_store ? 1 : 0, addr);
    }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken)
    {
        (void)ins; // replay re-derives it from the image at pc
        append(WarmEventKind::Branch, taken ? 1 : 0, pc);
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val)
    {
        (void)ins;
        std::uint64_t flags = 0;
        if (pd1_written)
            flags |= kWarmPd1Written;
        if (pd1_val)
            flags |= kWarmPd1Val;
        if (pd2_written)
            flags |= kWarmPd2Written;
        if (pd2_val)
            flags |= kWarmPd2Val;
        append(WarmEventKind::Compare, flags, pc);
    }

    /** RAS state comes from the checkpoint's call stack, not events. */
    void takenCall(Addr ret_addr) { (void)ret_addr; }
    void takenRet() {}

    std::vector<std::uint64_t> &events;

  private:
    void
    append(WarmEventKind kind, std::uint64_t flags, Addr addr)
    {
        events.push_back(static_cast<std::uint64_t>(kind) | (flags << 8));
        events.push_back(addr);
    }
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_WARM_STREAM_HH
