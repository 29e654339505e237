/**
 * @file
 * Recorded functional-warming event stream.
 *
 * The warmForward() tier streams cache/predictor-relevant events into a
 * sink as it executes; this header gives that stream a recorded
 * form. A WarmStreamRecorder captures each event as one u64 word, so a
 * window checkpoint (sampling/window_checkpoint.hh) can carry the
 * warming horizon's events and any core can later replay them through
 * its *own* tables (core::OoOCore::warmReplay) — the recording is
 * scheme-agnostic: it holds committed program behavior, not table
 * state.
 *
 * Encoding (encodeWarmEvent/decodeWarmEvent, the one codec every
 * recorder and consumer uses): addr << 8 | flags << 4 | kind, where
 * addr is the event's fetch PC or effective data address. The address
 * field is 56 bits wide; checkWarmAddressable() verifies once per
 * binary that every code and data address fits. Taken calls/returns
 * are deliberately NOT recorded: the window core seeds its
 * return-address stack from the checkpoint's architectural call stack
 * instead (see the OoOCore resume constructor).
 */

#ifndef PP_PROGRAM_WARM_STREAM_HH
#define PP_PROGRAM_WARM_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "program/program.hh"

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

/** Compare-event flag bits (the 4-bit flags field). */
constexpr unsigned kWarmPd1Written = 1u << 0;
constexpr unsigned kWarmPd1Val = 1u << 1;
constexpr unsigned kWarmPd2Written = 1u << 2;
constexpr unsigned kWarmPd2Val = 1u << 3;

/** Width of the address field of an encoded event. */
constexpr unsigned kWarmAddrBits = 56;

/** One decoded warming event. */
struct WarmEvent
{
    WarmEventKind kind;
    unsigned flags; ///< 4 bits; meaning per kind (see WarmEventKind)
    Addr addr;      ///< fetch PC or effective data address
};

/**
 * Pack one event into a word. @p addr must fit kWarmAddrBits — the
 * recorders rely on checkWarmAddressable() having been run once for
 * the binary instead of testing every event.
 */
constexpr std::uint64_t
encodeWarmEvent(WarmEventKind kind, unsigned flags, Addr addr)
{
    return addr << 8 | static_cast<std::uint64_t>(flags & 0xf) << 4 |
        static_cast<std::uint64_t>(kind);
}

/** Inverse of encodeWarmEvent(). */
constexpr WarmEvent
decodeWarmEvent(std::uint64_t word)
{
    return WarmEvent{static_cast<WarmEventKind>(word & 0xf),
                     static_cast<unsigned>((word >> 4) & 0xf), word >> 8};
}

/**
 * Panic unless every address @p prog can put in an event — any
 * instruction PC and any effective data address — fits the 56-bit
 * address field. Run once per binary before recording its stream.
 */
inline void
checkWarmAddressable(const Program &prog)
{
    constexpr std::uint64_t limit = 1ull << kWarmAddrBits;
    if (prog.size() > limit / isa::instBytes || prog.dataSize() > limit)
        panic("program '" + prog.progName() +
              "' has code or data addresses beyond the 56-bit "
              "warm-event address field");
}

/** Compare write-back flags packed into the 4-bit flags field. */
inline unsigned
compareFlags(bool pd1_written, bool pd1_val, bool pd2_written,
             bool pd2_val)
{
    return (pd1_written ? kWarmPd1Written : 0u) |
        (pd1_val ? kWarmPd1Val : 0u) |
        (pd2_written ? kWarmPd2Written : 0u) |
        (pd2_val ? kWarmPd2Val : 0u);
}

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
        events.push_back(encodeWarmEvent(WarmEventKind::InstLine, 0, pc));
    }

    void
    memAccess(Addr addr, bool is_store)
    {
        events.push_back(
            encodeWarmEvent(WarmEventKind::Mem, is_store ? 1 : 0, addr));
    }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken)
    {
        (void)ins; // replay re-derives it from the image at pc
        events.push_back(
            encodeWarmEvent(WarmEventKind::Branch, taken ? 1 : 0, pc));
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val)
    {
        (void)ins;
        events.push_back(encodeWarmEvent(
            WarmEventKind::Compare,
            compareFlags(pd1_written, pd1_val, pd2_written, pd2_val), pc));
    }

    /** RAS state comes from the checkpoint's call stack, not events. */
    void takenCall(Addr ret_addr) { (void)ret_addr; }
    void takenRet() {}

    std::vector<std::uint64_t> &events;
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_WARM_STREAM_HH
