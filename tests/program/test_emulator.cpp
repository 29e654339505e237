/** @file Unit tests for the functional emulator (the oracle). */

#include <gtest/gtest.h>

#include "program/asmprog.hh"
#include "program/codegen.hh"
#include "program/emulator.hh"
#include "program/suite.hh"

using namespace pp;
using namespace pp::program;
using namespace pp::isa;

namespace
{

/** Build a tiny program ending in an infinite self-loop. */
Program
assembleWithLoop(AsmProgram &p)
{
    const LabelId self = p.newLabel();
    p.placeLabel(self);
    p.emit(makeBranch(0), self);
    return p.assemble(1 << 20, "t");
}

} // namespace

TEST(Emulator, IntegerAluOps)
{
    AsmProgram p;
    p.emit(makeMovImm(1, 6));
    p.emit(makeMovImm(2, 3));
    p.emit(makeAlu(Opcode::IAdd, 3, 1, 2));
    p.emit(makeAlu(Opcode::ISub, 4, 1, 2));
    p.emit(makeAlu(Opcode::IAnd, 5, 1, 2));
    p.emit(makeAlu(Opcode::IOr, 6, 1, 2));
    p.emit(makeAlu(Opcode::IXor, 7, 1, 2));
    p.emit(makeAlu(Opcode::IMul, 8, 1, 2));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 8; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(3), 9u);
    EXPECT_EQ(emu.intReg(4), 3u);
    EXPECT_EQ(emu.intReg(5), 2u);
    EXPECT_EQ(emu.intReg(6), 7u);
    EXPECT_EQ(emu.intReg(7), 5u);
    EXPECT_EQ(emu.intReg(8), 18u);
}

TEST(Emulator, R0ReadsZeroAndDiscardsWrites)
{
    AsmProgram p;
    p.emit(makeMovImm(0, 55));
    p.emit(makeAlu(Opcode::IAdd, 1, 0, 0));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    EXPECT_EQ(emu.intReg(0), 0u);
    EXPECT_EQ(emu.intReg(1), 0u);
}

TEST(Emulator, StoreLoadRoundTrip)
{
    AsmProgram p;
    p.emit(makeMovImm(1, 0x100));
    p.emit(makeMovImm(2, 0xdead));
    p.emit(makeStore(2, 1, 8));
    p.emit(makeLoad(3, 1, 8));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 4; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(3), 0xdeadu);
}

TEST(Emulator, EffectiveAddressWrapsIntoSegment)
{
    AsmProgram p;
    p.emit(makeMovImm(1, -1)); // huge unsigned base
    p.emit(makeStore(1, 1, 0));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_LT(rec.memAddr, bin.dataSize());
    EXPECT_EQ(rec.memAddr % 8, 0u);
}

TEST(Emulator, PredicationSuppressesExecution)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::biased(0.0)); // false
    p.emit(makeMovImm(1, 7));
    p.emit(makeCmp(CmpType::Unc, 2, 3, c)); // p2=false, p3=true
    p.emit(makeMovImm(1, 99, 2));           // guarded by false p2
    p.emit(makeMovImm(4, 42, 3));           // guarded by true p3
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    for (int i = 0; i < 4; ++i)
        emu.step();
    EXPECT_EQ(emu.intReg(1), 7u);  // unchanged
    EXPECT_EQ(emu.intReg(4), 42u); // executed
}

TEST(Emulator, CmpUncWritesBothTargets)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::biased(1.0)); // true
    p.emit(makeCmp(CmpType::Unc, 1, 2, c));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    const ExecRecord rec = emu.step();
    EXPECT_TRUE(rec.pd1Written);
    EXPECT_TRUE(rec.pd2Written);
    EXPECT_TRUE(rec.pd1Val);
    EXPECT_FALSE(rec.pd2Val);
    EXPECT_TRUE(emu.predReg(1));
    EXPECT_FALSE(emu.predReg(2));
}

TEST(Emulator, CmpUncWithFalseQpClearsBoth)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    p.emit(makeCmp(CmpType::Unc, 1, 2, cf)); // p1=0 p2=1
    // cmp.unc guarded by the false p1: both targets cleared.
    p.emit(makeCmp(CmpType::Unc, 3, 4, ct, invalidReg, invalidReg, 1));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.qpVal);
    EXPECT_TRUE(rec.pd1Written);
    EXPECT_FALSE(rec.pd1Val);
    EXPECT_FALSE(rec.pd2Val);
}

TEST(Emulator, CmpNormalLeavesTargetsWhenQpFalse)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    p.emit(makeCmp(CmpType::Unc, 5, 6, ct));  // p5=1 p6=0
    p.emit(makeCmp(CmpType::Unc, 1, 2, cf));  // p1=0 p2=1
    Instruction normal = makeCmp(CmpType::Normal, 5, 6, ct);
    normal.qp = 1; // false guard
    p.emit(normal);
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.pd1Written);
    EXPECT_TRUE(emu.predReg(5));  // unchanged
    EXPECT_FALSE(emu.predReg(6));
}

TEST(Emulator, CmpAndOrSemantics)
{
    AsmProgram p;
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    p.emit(makeCmp(CmpType::Unc, 1, 2, ct));  // p1=1, p2=0
    // and-type with false condition: clears both targets.
    p.emit(makeCmp(CmpType::And, 1, 3, cf));
    // or-type with true condition: sets both targets.
    p.emit(makeCmp(CmpType::Or, 2, 4, ct));
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    emu.step();
    EXPECT_FALSE(emu.predReg(1)); // cleared by cmp.and
    emu.step();
    EXPECT_TRUE(emu.predReg(2)); // set by cmp.or
    EXPECT_TRUE(emu.predReg(4));
}

TEST(Emulator, P0IsNeverWritten)
{
    AsmProgram p;
    const CondId cf = p.addCondition(ConditionSpec::biased(0.0));
    p.emit(makeCmp(CmpType::Unc, 1, 0, cf)); // pdst2 == p0
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    const ExecRecord rec = emu.step();
    EXPECT_FALSE(rec.pd2Written);
    EXPECT_TRUE(emu.predReg(0));
}

TEST(Emulator, BranchTakenAndNotTaken)
{
    AsmProgram p;
    const CondId ct = p.addCondition(ConditionSpec::biased(1.0));
    const LabelId target = p.newLabel();
    p.emit(makeCmp(CmpType::Unc, 1, 2, ct)); // p1=1, p2=0
    p.emit(makeBranch(0, 2), target);        // not taken (p2 false)
    p.emit(makeBranch(0, 1), target);        // taken (p1 true)
    p.emit(makeNop());
    p.placeLabel(target);
    p.emit(makeNop());
    const Program bin = assembleWithLoop(p);
    Emulator emu(bin, 1);
    emu.step();
    const ExecRecord nt = emu.step();
    EXPECT_FALSE(nt.branchTaken);
    EXPECT_EQ(nt.nextPc, nt.pc + instBytes);
    const ExecRecord tk = emu.step();
    EXPECT_TRUE(tk.branchTaken);
    EXPECT_EQ(tk.nextPc, Program::addrOf(4));
}

TEST(Emulator, CallAndReturn)
{
    AsmProgram p;
    const LabelId func = p.newLabel();
    p.emit(makeCall(0), func);  // 0
    p.emit(makeNop());          // 1 <- return lands here
    const LabelId self = p.newLabel();
    p.placeLabel(self);
    p.emit(makeBranch(0), self);// 2
    p.placeLabel(func);
    p.emit(makeNop());          // 3
    p.emit(makeRet());          // 4
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    const ExecRecord call = emu.step();
    EXPECT_TRUE(call.branchTaken);
    EXPECT_EQ(call.nextPc, Program::addrOf(3));
    EXPECT_EQ(emu.callDepth(), 1u);
    emu.step(); // nop in func
    const ExecRecord ret = emu.step();
    EXPECT_EQ(ret.nextPc, Program::addrOf(1));
    EXPECT_EQ(emu.callDepth(), 0u);
}

TEST(Emulator, DeterministicReplay)
{
    AsmProgram p;
    const CondId c = p.addCondition(ConditionSpec::dataDep(0.5));
    const LabelId skip = p.newLabel();
    p.emit(makeCmp(CmpType::Unc, 1, 2, c));
    p.emit(makeBranch(0, 2), skip);
    p.emit(makeAlu(Opcode::IAdd, 3, 3, 3));
    p.placeLabel(skip);
    const LabelId top = p.newLabel();
    // Loop back to the start (address 0).
    p.emit(makeBranch(0), top);
    // place the label at the first instruction via a second program copy:
    const Program bin = [&] {
        AsmProgram q;
        const CondId qc = q.addCondition(ConditionSpec::dataDep(0.5));
        const LabelId qtop = q.newLabel();
        q.placeLabel(qtop);
        const LabelId qskip = q.newLabel();
        q.emit(makeCmp(CmpType::Unc, 1, 2, qc));
        q.emit(makeBranch(0, 2), qskip);
        q.emit(makeAlu(Opcode::IAdd, 3, 3, 3));
        q.placeLabel(qskip);
        q.emit(makeBranch(0), qtop);
        return q.assemble(1 << 20, "t");
    }();
    Emulator a(bin, 42), b(bin, 42);
    for (int i = 0; i < 5000; ++i) {
        const ExecRecord ra = a.step();
        const ExecRecord rb = b.step();
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.branchTaken, rb.branchTaken);
    }
}

namespace
{

/** A real generated benchmark: calls, loops, stores, every cond kind. */
Program
generatedBenchmark()
{
    const BenchmarkProfile profile = profileByName("gzip");
    CodeGenerator gen(profile);
    AsmProgram asm_prog = gen.generate();
    return asm_prog.assemble(profile.dataBytes, profile.name);
}

void
expectRecordsEqual(const ExecRecord &a, const ExecRecord &b, int step)
{
    ASSERT_EQ(a.pc, b.pc) << "step " << step;
    ASSERT_EQ(a.ins, b.ins) << "step " << step;
    ASSERT_EQ(a.qpVal, b.qpVal) << "step " << step;
    ASSERT_EQ(a.condVal, b.condVal) << "step " << step;
    ASSERT_EQ(a.pd1Written, b.pd1Written) << "step " << step;
    ASSERT_EQ(a.pd2Written, b.pd2Written) << "step " << step;
    ASSERT_EQ(a.pd1Val, b.pd1Val) << "step " << step;
    ASSERT_EQ(a.pd2Val, b.pd2Val) << "step " << step;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << "step " << step;
    ASSERT_EQ(a.nextPc, b.nextPc) << "step " << step;
    ASSERT_EQ(a.memAddr, b.memAddr) << "step " << step;
}

} // namespace

TEST(EmulatorCheckpoint, RoundTripResumesBitIdentically)
{
    const Program bin = generatedBenchmark();

    // Reference: an uninterrupted run past the checkpoint position.
    Emulator ref(bin, 42);
    ref.skip(20000);

    // Checkpoint a twin at the same position, then move the twin on:
    // the checkpoint is a snapshot, not a view of the live emulator.
    Emulator src(bin, 42);
    src.skip(20000);
    const Emulator::Checkpoint restored = src.checkpoint();
    src.skip(5000);

    // Restore into an emulator constructed with a DIFFERENT seed: every
    // piece of state (registers, memory, condition cursors, RNG
    // streams) must come from the checkpoint, none from construction.
    Emulator resumed(bin, 0xdeadbeef);
    resumed.restore(restored);

    EXPECT_EQ(resumed.pc(), ref.pc());
    EXPECT_EQ(resumed.instCount(), ref.instCount());
    EXPECT_EQ(resumed.callDepth(), ref.callDepth());

    for (int i = 0; i < 20000; ++i) {
        const ExecRecord ra = ref.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(resumed.intReg(r), ref.intReg(r)) << "r" << int(r);
    for (RegIndex r = 0; r < isa::numFpRegs; ++r)
        ASSERT_EQ(resumed.fpReg(r), ref.fpReg(r)) << "f" << int(r);
    for (RegIndex r = 0; r < isa::numPredRegs; ++r)
        ASSERT_EQ(resumed.predReg(r), ref.predReg(r)) << "p" << int(r);
}

namespace
{

/** Pages stored in @p a and @p b hold the same indices and words. */
void
expectSameMemory(const Emulator::Checkpoint &a,
                 const Emulator::Checkpoint &b)
{
    ASSERT_EQ(a.dataWords, b.dataWords);
    ASSERT_EQ(a.pages.size(), b.pages.size());
    for (std::size_t i = 0; i < a.pages.size(); ++i) {
        ASSERT_EQ(a.pages[i].index, b.pages[i].index) << "page " << i;
        ASSERT_EQ(*a.pages[i].words, *b.pages[i].words)
            << "page " << a.pages[i].index;
    }
}

} // namespace

TEST(EmulatorCheckpoint, RestoreIntoDirtyEmulatorResumesBitIdentically)
{
    const Program bin = generatedBenchmark();
    Emulator ref(bin, 42);
    ref.skip(20000);
    const Emulator::Checkpoint ckpt = ref.checkpoint();

    // The target has run further and written pages the checkpoint does
    // not store: restore must zero them, not keep the stale words.
    Emulator resumed(bin, 42);
    resumed.skip(200000);
    ASSERT_GT(resumed.checkpoint().pages.size(), ckpt.pages.size());
    resumed.restore(ckpt);
    expectSameMemory(resumed.checkpoint(), ckpt);

    for (int i = 0; i < 20000; ++i) {
        const ExecRecord ra = ref.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
    expectSameMemory(resumed.checkpoint(), ref.checkpoint());
}

TEST(EmulatorCheckpoint, SubPageDataSegmentRoundTrips)
{
    // A 1 KB data segment is a fraction of one checkpoint page; the
    // generated code's addresses wrap into it.
    const BenchmarkProfile profile = profileByName("gzip");
    const Program bin =
        CodeGenerator(profile).generate().assemble(1024, "tiny-data");

    Emulator src(bin, 5);
    src.skip(30000);
    const Emulator::Checkpoint ckpt = src.checkpoint();
    EXPECT_EQ(ckpt.dataWords, 128u);
    ASSERT_EQ(ckpt.pages.size(), 1u);
    EXPECT_EQ(ckpt.pages[0].index, 0u);
    for (std::size_t w = 128; w < Emulator::kPageWords; ++w)
        ASSERT_EQ((*ckpt.pages[0].words)[w], 0u) << "word " << w;

    Emulator resumed(bin, 77);
    resumed.skip(1000);
    resumed.restore(ckpt);
    expectSameMemory(resumed.checkpoint(), ckpt);
    for (int i = 0; i < 20000; ++i) {
        const ExecRecord ra = src.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
    expectSameMemory(resumed.checkpoint(), src.checkpoint());
}

TEST(EmulatorCheckpoint, BaseSharesUnchangedPages)
{
    const Program bin = generatedBenchmark();
    Emulator emu(bin, 9);
    emu.skip(20000);
    const Emulator::Checkpoint first = emu.checkpoint();
    // No execution in between: every page is shared, none copied.
    const Emulator::Checkpoint same = emu.checkpoint(&first);
    ASSERT_EQ(same.pages.size(), first.pages.size());
    for (std::size_t i = 0; i < same.pages.size(); ++i)
        EXPECT_EQ(same.pages[i].words, first.pages[i].words);

    // Sharing never changes what the checkpoint holds.
    emu.skip(20000);
    expectSameMemory(emu.checkpoint(&first), emu.checkpoint());
}

TEST(EmulatorCheckpoint, SkipMatchesSteppedExecution)
{
    const Program bin = generatedBenchmark();
    Emulator a(bin, 7);
    Emulator b(bin, 7);
    a.skip(12345);
    for (int i = 0; i < 12345; ++i)
        b.step();
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.instCount(), b.instCount());
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        ASSERT_EQ(a.intReg(r), b.intReg(r));
}

TEST(EmulatorCheckpoint, UntouchedConditionStreamsAreSkipped)
{
    // Two conditions, of which execution only ever evaluates one: the
    // checkpoint must carry exactly one condition entry, not dense rows
    // for the whole table.
    AsmProgram p;
    const CondId used = p.addCondition(ConditionSpec::loop(5));
    const CondId unused = p.addCondition(ConditionSpec::loop(7));
    (void)unused;
    p.emit(makeCmp(CmpType::Unc, 1, 2, used));
    const Program bin = assembleWithLoop(p);

    Emulator emu(bin, 3);
    const Emulator::Checkpoint fresh = emu.checkpoint();
    EXPECT_EQ(fresh.conds.numConds, 2u);
    EXPECT_TRUE(fresh.conds.ids.empty());

    emu.step(); // the one compare
    const Emulator::Checkpoint after = emu.checkpoint();
    ASSERT_EQ(after.conds.ids.size(), 1u);
    EXPECT_EQ(after.conds.ids[0], used);

    // The sparse checkpoint restores the touched stream's cursor.
    Emulator resumed(bin, 99);
    resumed.restore(after);
    Emulator ref(bin, 3);
    ref.step();
    for (int i = 0; i < 2000; ++i) {
        const ExecRecord ra = ref.step();
        const ExecRecord rb = resumed.step();
        expectRecordsEqual(ra, rb, i);
    }
}

TEST(EmulatorCheckpointDeath, RestoreRejectsForeignProgram)
{
    const Program big = generatedBenchmark();
    AsmProgram p;
    p.emit(makeNop());
    const Program tiny = p.assemble(1 << 20, "tiny");

    Emulator src(big, 1);
    src.skip(100);
    const Emulator::Checkpoint ckpt = src.checkpoint();
    Emulator other(tiny, 1);
    EXPECT_DEATH(other.restore(ckpt), "different program");
}

TEST(EmulatorDeath, RunningOffImagePanics)
{
    AsmProgram p;
    p.emit(makeNop());
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    emu.step();
    EXPECT_DEATH(emu.step(), "");
}

TEST(EmulatorDeath, ReturnWithEmptyStackPanics)
{
    AsmProgram p;
    p.emit(makeRet());
    const Program bin = p.assemble(1 << 20, "t");
    Emulator emu(bin, 1);
    EXPECT_DEATH(emu.step(), "");
}
