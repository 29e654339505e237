/** @file Unit tests for the one-word warming-event codec. */

#include <gtest/gtest.h>

#include "program/suite.hh"
#include "program/warm_stream.hh"
#include "replay/predictor_replay.hh"
#include "sampling/window_checkpoint.hh"

using namespace pp;
using namespace pp::program;

TEST(WarmEventCodec, RoundTripsEveryKindAndFlagCombination)
{
    const Addr largest = (1ull << kWarmAddrBits) - 1;
    for (const WarmEventKind kind :
         {WarmEventKind::InstLine, WarmEventKind::Mem,
          WarmEventKind::Branch, WarmEventKind::Compare}) {
        for (unsigned flags = 0; flags < 16; ++flags) {
            for (const Addr addr : {Addr{0}, Addr{0x40}, largest}) {
                const WarmEvent e =
                    decodeWarmEvent(encodeWarmEvent(kind, flags, addr));
                EXPECT_EQ(e.kind, kind);
                EXPECT_EQ(e.flags, flags);
                EXPECT_EQ(e.addr, addr);
            }
        }
    }
}

TEST(WarmEventCodec, CompareFlagsPackEachWriteBackBit)
{
    EXPECT_EQ(compareFlags(false, false, false, false), 0u);
    EXPECT_EQ(compareFlags(true, false, false, false), kWarmPd1Written);
    EXPECT_EQ(compareFlags(false, true, false, false), kWarmPd1Val);
    EXPECT_EQ(compareFlags(false, false, true, false), kWarmPd2Written);
    EXPECT_EQ(compareFlags(false, false, false, true), kWarmPd2Val);
    EXPECT_EQ(compareFlags(true, true, true, true), 0xfu);
}

TEST(WarmEventCodec, LargestLegalDataSegmentPasses)
{
    // The check reads only the program's shape: nothing is allocated.
    checkWarmAddressable(Program({}, {}, 1ull << kWarmAddrBits, "edge"));
}

TEST(WarmEventCodecDeath, OversizedDataSegmentPanics)
{
    const Program huge({}, {}, 1ull << (kWarmAddrBits + 1), "huge");
    EXPECT_DEATH(checkWarmAddressable(huge),
                 "'huge' has code or data addresses beyond the 56-bit");
}

TEST(WarmEventCodecDeath, RecordersCheckBeforeRunning)
{
    // Both recording passes reject the binary before they build an
    // emulator (which would try to allocate the whole segment).
    const BenchmarkProfile profile = profileByName("gzip");
    const Program huge({}, {}, 1ull << (kWarmAddrBits + 1), "huge");
    EXPECT_DEATH(sampling::buildWindowCheckpoints(
                     huge, profile, 0, 10000,
                     sampling::SamplingPolicy::smarts(20000)),
                 "56-bit warm-event address field");
    EXPECT_DEATH(replay::extractStream(huge, profile, 0, 10000),
                 "56-bit warm-event address field");
}
