/**
 * @file
 * Tests for the mini-ISA substrate: opcode metadata, the assembler,
 * sparse memory, and interpreter semantics.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "isa/memory.hh"
#include "isa/opcode.hh"

namespace mica::isa
{
namespace
{

using namespace reg;

/** Run a program to completion; @return executed instruction count. */
uint64_t
runAll(Interpreter &interp, uint64_t cap = 1000000)
{
    InstRecord r;
    uint64_t n = 0;
    while (n < cap && interp.next(r))
        ++n;
    return n;
}

TEST(OpcodeTest, EveryOpcodeHasANameAndClass)
{
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        EXPECT_NE(opcodeName(op), nullptr);
        EXPECT_STRNE(opcodeName(op), "");
        // opcodeClass must return a valid enumerator.
        EXPECT_LT(static_cast<int>(opcodeClass(op)), kNumInstClasses);
    }
}

TEST(OpcodeTest, ClassificationMatchesSemantics)
{
    EXPECT_EQ(opcodeClass(Opcode::Add), InstClass::IntAlu);
    EXPECT_EQ(opcodeClass(Opcode::Mul), InstClass::IntMul);
    EXPECT_EQ(opcodeClass(Opcode::Div), InstClass::IntDiv);
    EXPECT_EQ(opcodeClass(Opcode::Fadd), InstClass::FpAlu);
    EXPECT_EQ(opcodeClass(Opcode::Fmul), InstClass::FpMul);
    EXPECT_EQ(opcodeClass(Opcode::Fdiv), InstClass::FpDiv);
    EXPECT_EQ(opcodeClass(Opcode::Ld), InstClass::Load);
    EXPECT_EQ(opcodeClass(Opcode::Fld), InstClass::Load);
    EXPECT_EQ(opcodeClass(Opcode::Sd), InstClass::Store);
    EXPECT_EQ(opcodeClass(Opcode::Fsd), InstClass::Store);
    EXPECT_EQ(opcodeClass(Opcode::Beq), InstClass::Branch);
    EXPECT_EQ(opcodeClass(Opcode::J), InstClass::Jump);
    EXPECT_EQ(opcodeClass(Opcode::Jal), InstClass::Call);
    EXPECT_EQ(opcodeClass(Opcode::Jr), InstClass::Return);
}

TEST(OpcodeTest, MemSizesMatchMnemonics)
{
    EXPECT_EQ(opcodeMemSize(Opcode::Lb), 1);
    EXPECT_EQ(opcodeMemSize(Opcode::Lbu), 1);
    EXPECT_EQ(opcodeMemSize(Opcode::Lh), 2);
    EXPECT_EQ(opcodeMemSize(Opcode::Lw), 4);
    EXPECT_EQ(opcodeMemSize(Opcode::Ld), 8);
    EXPECT_EQ(opcodeMemSize(Opcode::Fld), 8);
    EXPECT_EQ(opcodeMemSize(Opcode::Sb), 1);
    EXPECT_EQ(opcodeMemSize(Opcode::Sd), 8);
    EXPECT_EQ(opcodeMemSize(Opcode::Add), 0);
}

TEST(OpcodeTest, FpFlagIdentifiesFpRegisterOpcodes)
{
    EXPECT_TRUE(opcodeIsFp(Opcode::Fadd));
    EXPECT_TRUE(opcodeIsFp(Opcode::Fld));
    EXPECT_FALSE(opcodeIsFp(Opcode::Add));
    EXPECT_FALSE(opcodeIsFp(Opcode::Ld));
}

TEST(MemoryTest, UnwrittenMemoryReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read(0x12345678, 8), 0u);
    EXPECT_EQ(m.read8(0xdeadbeef), 0u);
}

TEST(MemoryTest, ReadBackWrites)
{
    Memory m;
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(m.read8(0x1000), 0x88u);
    EXPECT_EQ(m.read8(0x1007), 0x11u);
}

TEST(MemoryTest, CrossPageAccessIsByteConsistent)
{
    Memory m;
    const uint64_t addr = Memory::kPageSize - 3;   // spans two pages
    m.write(addr, 8, 0x0807060504030201ull);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(m.read8(addr + i), i + 1);
    EXPECT_EQ(m.read(addr, 8), 0x0807060504030201ull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(MemoryTest, F64RoundTrip)
{
    Memory m;
    m.writeF64(0x2000, -1234.5678);
    EXPECT_DOUBLE_EQ(m.readF64(0x2000), -1234.5678);
}

TEST(MemoryTest, ManyPagesSurviveTableGrowth)
{
    // Touch enough pages to force the flat-hash page table through
    // several growth cycles, then verify every byte.
    Memory m;
    constexpr uint64_t kPages = 1500;
    for (uint64_t p = 0; p < kPages; ++p)
        m.write8(p * Memory::kPageSize + (p % Memory::kPageSize),
                 static_cast<uint8_t>(p * 7 + 1));
    EXPECT_EQ(m.numPages(), kPages);
    for (uint64_t p = 0; p < kPages; ++p) {
        EXPECT_EQ(m.read8(p * Memory::kPageSize +
                          (p % Memory::kPageSize)),
                  static_cast<uint8_t>(p * 7 + 1));
    }
    // Untouched pages still read zero and allocate on demand.
    EXPECT_EQ(m.read8(kPages * Memory::kPageSize + 5), 0u);
}

TEST(MemoryTest, ClearDropsAllPages)
{
    Memory m;
    m.write8(0x100, 1);
    m.write8(0x100000, 2);
    EXPECT_EQ(m.numPages(), 2u);
    m.clear();
    EXPECT_EQ(m.numPages(), 0u);
    EXPECT_EQ(m.read8(0x100), 0u);
}

TEST(AssemblerTest, DuplicateLabelThrows)
{
    Assembler a;
    a.label("x");
    EXPECT_THROW(a.label("x"), std::runtime_error);
}

TEST(AssemblerTest, UnresolvedLabelThrowsAtFinish)
{
    Assembler a;
    a.j("nowhere");
    EXPECT_THROW(a.finish(), std::runtime_error);
}

TEST(AssemblerTest, NewLabelNamesAreUnique)
{
    Assembler a;
    EXPECT_NE(a.newLabel(), a.newLabel());
    EXPECT_NE(a.newLabel("x"), a.newLabel("x"));
}

TEST(AssemblerTest, DataSegmentsAreLaidOutSequentiallyAligned)
{
    Assembler a;
    const uint64_t b1 = a.dataU8({1, 2, 3});
    const uint64_t b2 = a.dataU64({42});
    EXPECT_EQ(b1, Program::kDataBase);
    EXPECT_EQ(b2 % 8, 0u);
    EXPECT_GE(b2, b1 + 3);
    a.halt();
    const Program p = a.finish();
    EXPECT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.dataBytes(), 3u + 8u);
}

TEST(AssemblerTest, ReserveLazyAdvancesCursorWithoutSegment)
{
    Assembler a;
    const uint64_t big = a.reserveLazy(1 << 20);
    const uint64_t after = a.dataU8({7});
    EXPECT_GE(after, big + (1 << 20));
    a.halt();
    const Program p = a.finish();
    // Only the one-byte segment was materialized.
    EXPECT_EQ(p.segments.size(), 1u);
    EXPECT_EQ(p.dataBytes(), 1u);
}

TEST(AssemblerTest, BranchTargetsResolveToInstructionIndices)
{
    Assembler a;
    a.li(T0, 3);
    a.label("loop");
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");
    a.halt();
    const Program p = a.finish();
    // bnez is instruction 2 and must point at index 1.
    EXPECT_EQ(p.code[2].imm, 1);
}

TEST(InterpreterTest, ArithmeticBasics)
{
    Assembler a;
    a.li(T0, 20);
    a.li(T1, 22);
    a.add(T2, T0, T1);
    a.sub(T3, T0, T1);
    a.mul(T4, T0, T1);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T2), 42);
    EXPECT_EQ(in.reg(T3), -2);
    EXPECT_EQ(in.reg(T4), 440);
}

TEST(InterpreterTest, DivisionEdgeCases)
{
    Assembler a;
    a.li(T0, 7);
    a.li(T1, 0);
    a.div(T2, T0, T1);      // divide by zero -> 0
    a.rem(T3, T0, T1);      // remainder by zero -> dividend
    a.li(T4, -9);
    a.li(T5, 2);
    a.div(T6, T4, T5);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T2), 0);
    EXPECT_EQ(in.reg(T3), 7);
    EXPECT_EQ(in.reg(T6), -4);
}

TEST(InterpreterTest, ZeroRegisterIsImmutable)
{
    Assembler a;
    a.li(Zero, 99);
    a.addi(Zero, Zero, 5);
    a.add(T0, Zero, Zero);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(Zero), 0);
    EXPECT_EQ(in.reg(T0), 0);
}

TEST(InterpreterTest, ShiftsAndLogicOps)
{
    Assembler a;
    a.li(T0, 0xff00);
    a.shli(T1, T0, 4);
    a.shri(T2, T0, 4);
    a.li(T3, -16);
    a.sari(T4, T3, 2);
    a.andi(T5, T0, 0xf0f0);
    a.ori(T6, T0, 0x00ff);
    a.xori(T7, T0, 0xffff);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T1), 0xff000);
    EXPECT_EQ(in.reg(T2), 0xff0);
    EXPECT_EQ(in.reg(T4), -4);
    EXPECT_EQ(in.reg(T5), 0xf000);
    EXPECT_EQ(in.reg(T6), 0xffff);
    EXPECT_EQ(in.reg(T7), 0x00ff);
}

TEST(InterpreterTest, ComparisonsSignedAndUnsigned)
{
    Assembler a;
    a.li(T0, -1);
    a.li(T1, 1);
    a.slt(T2, T0, T1);      // -1 < 1 signed
    a.sltu(T3, T0, T1);     // 0xfff... < 1 unsigned is false
    a.slti(T4, T0, 0);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T2), 1);
    EXPECT_EQ(in.reg(T3), 0);
    EXPECT_EQ(in.reg(T4), 1);
}

TEST(InterpreterTest, LoadSignExtensionAndZeroExtension)
{
    Assembler a;
    const uint64_t d = a.dataU8({0xff, 0xff, 0x80, 0x00});
    a.li(S0, static_cast<int64_t>(d));
    a.lb(T0, S0, 0);        // -1 sign extended
    a.lbu(T1, S0, 0);       // 255
    a.lh(T2, S0, 0);        // -1
    a.lhu(T3, S0, 0);       // 0xffff
    a.lb(T4, S0, 2);        // -128
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T0), -1);
    EXPECT_EQ(in.reg(T1), 255);
    EXPECT_EQ(in.reg(T2), -1);
    EXPECT_EQ(in.reg(T3), 0xffff);
    EXPECT_EQ(in.reg(T4), -128);
}

TEST(InterpreterTest, StoreThenLoadRoundTrip)
{
    Assembler a;
    const uint64_t buf = a.reserve(64);
    a.li(S0, static_cast<int64_t>(buf));
    a.li(T0, 0x1234567890abcdefll);
    a.sd(T0, S0, 0);
    a.ld(T1, S0, 0);
    a.sw(T0, S0, 16);
    a.lwu(T2, S0, 16);
    a.sb(T0, S0, 32);
    a.lbu(T3, S0, 32);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T1), 0x1234567890abcdefll);
    EXPECT_EQ(in.reg(T2), 0x90abcdefll);
    EXPECT_EQ(in.reg(T3), 0xef);
}

TEST(InterpreterTest, FloatingPointArithmetic)
{
    Assembler a;
    const uint64_t d = a.dataF64({1.5, 2.5});
    a.li(S0, static_cast<int64_t>(d));
    a.fld(0, S0, 0);
    a.fld(1, S0, 8);
    a.fadd(2, 0, 1);
    a.fsub(3, 0, 1);
    a.fmul(4, 0, 1);
    a.fdiv(5, 1, 0);
    a.fmin(6, 0, 1);
    a.fmax(7, 0, 1);
    a.fsqrt(8, 1);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_DOUBLE_EQ(in.freg(2), 4.0);
    EXPECT_DOUBLE_EQ(in.freg(3), -1.0);
    EXPECT_DOUBLE_EQ(in.freg(4), 3.75);
    EXPECT_DOUBLE_EQ(in.freg(5), 2.5 / 1.5);
    EXPECT_DOUBLE_EQ(in.freg(6), 1.5);
    EXPECT_DOUBLE_EQ(in.freg(7), 2.5);
    EXPECT_DOUBLE_EQ(in.freg(8), std::sqrt(2.5));
}

TEST(InterpreterTest, FpDivByZeroYieldsZero)
{
    Assembler a;
    const uint64_t d = a.dataF64({3.0, 0.0});
    a.li(S0, static_cast<int64_t>(d));
    a.fld(0, S0, 0);
    a.fld(1, S0, 8);
    a.fdiv(2, 0, 1);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_DOUBLE_EQ(in.freg(2), 0.0);
}

TEST(InterpreterTest, FpComparesWriteIntegerRegisters)
{
    Assembler a;
    const uint64_t d = a.dataF64({1.0, 2.0});
    a.li(S0, static_cast<int64_t>(d));
    a.fld(0, S0, 0);
    a.fld(1, S0, 8);
    a.fclt(T0, 0, 1);
    a.fcle(T1, 1, 1);
    a.fceq(T2, 0, 1);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T0), 1);
    EXPECT_EQ(in.reg(T1), 1);
    EXPECT_EQ(in.reg(T2), 0);
}

TEST(InterpreterTest, ConversionsRoundTrip)
{
    Assembler a;
    a.li(T0, -7);
    a.itof(0, T0);
    a.ftoi(T1, 0);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_DOUBLE_EQ(in.freg(0), -7.0);
    EXPECT_EQ(in.reg(T1), -7);
}

TEST(InterpreterTest, BranchOutcomesSteerControlFlow)
{
    Assembler a;
    a.li(T0, 5);
    a.li(T1, 0);            // sum
    a.label("loop");
    a.add(T1, T1, T0);
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T1), 15);  // 5+4+3+2+1
}

TEST(InterpreterTest, BranchRecordsReportTakenAndTarget)
{
    Assembler a;
    a.li(T0, 1);
    a.beqz(T0, "skip");     // not taken
    a.li(T1, 7);
    a.label("skip");
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    InstRecord r;
    in.next(r);             // li
    in.next(r);             // beqz
    EXPECT_EQ(r.cls, InstClass::Branch);
    EXPECT_FALSE(r.taken);
    EXPECT_EQ(r.target, p.pcOf(3));
    in.next(r);             // li T1
    EXPECT_EQ(in.reg(T1), 7);
}

TEST(InterpreterTest, CallAndReturnUseTheLinkRegister)
{
    Assembler a;
    a.j("main");
    a.label("double_it");
    a.add(A0, A0, A0);
    a.ret();
    a.label("main");
    a.li(A0, 21);
    a.call("double_it");
    a.mv(S0, A0);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(S0), 42);
}

TEST(InterpreterTest, TopLevelReturnHitsHaltSentinel)
{
    Assembler a;
    a.li(T0, 1);
    a.ret();                // Ra == kHaltAddr initially
    a.li(T0, 99);           // must not execute
    const Program p = a.finish();
    Interpreter in(p);
    EXPECT_EQ(runAll(in), 2u);
    EXPECT_TRUE(in.halted());
    EXPECT_EQ(in.reg(T0), 1);
}

TEST(InterpreterTest, RunningOffTheEndStops)
{
    Assembler a;
    a.li(T0, 1);
    const Program p = a.finish();
    Interpreter in(p);
    EXPECT_EQ(runAll(in), 1u);
    InstRecord r;
    EXPECT_FALSE(in.next(r));
}

TEST(InterpreterTest, InstCountMatchesEmittedRecords)
{
    Assembler a;
    a.li(T0, 10);
    a.label("l");
    a.addi(T0, T0, -1);
    a.bnez(T0, "l");
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    const uint64_t n = runAll(in);
    EXPECT_EQ(in.instCount(), n);
    EXPECT_EQ(n, 1 + 10 * 2 + 1u);
}

TEST(InterpreterTest, DataSegmentsAreVisibleToLoads)
{
    Assembler a;
    const uint64_t d = a.dataU64({0xabcdef, 77});
    a.li(S0, static_cast<int64_t>(d));
    a.ld(T0, S0, 0);
    a.ld(T1, S0, 8);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T0), 0xabcdef);
    EXPECT_EQ(in.reg(T1), 77);
}

TEST(InterpreterTest, StoreRecordsCarryAddressAndSize)
{
    Assembler a;
    const uint64_t buf = a.reserve(16);
    a.li(S0, static_cast<int64_t>(buf));
    a.li(T0, 5);
    a.sw(T0, S0, 4);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    InstRecord r;
    in.next(r);
    in.next(r);
    in.next(r);             // the store
    EXPECT_EQ(r.cls, InstClass::Store);
    EXPECT_EQ(r.memAddr, buf + 4);
    EXPECT_EQ(r.memSize, 4);
}

TEST(InterpreterTest, FpRegistersReportShiftedIdsInRecords)
{
    Assembler a;
    const uint64_t d = a.dataF64({1.0});
    a.li(S0, static_cast<int64_t>(d));
    a.fld(3, S0, 0);
    a.fadd(4, 3, 3);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    InstRecord r;
    in.next(r);             // li
    in.next(r);             // fld -> dst is FP reg 3
    EXPECT_EQ(r.dstReg, kNumIntRegs + 3);
    in.next(r);             // fadd
    EXPECT_EQ(r.srcRegs[0], kNumIntRegs + 3);
    EXPECT_EQ(r.dstReg, kNumIntRegs + 4);
}


TEST(InterpreterTest, FpMinMaxNegAbsMov)
{
    Assembler a;
    const uint64_t d = a.dataF64({-3.5, 2.0});
    a.li(S0, static_cast<int64_t>(d));
    a.fld(0, S0, 0);
    a.fld(1, S0, 8);
    a.fmin(2, 0, 1);
    a.fmax(3, 0, 1);
    a.fneg(4, 0);
    a.fabs_(5, 0);
    a.fmov(6, 1);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_DOUBLE_EQ(in.freg(2), -3.5);
    EXPECT_DOUBLE_EQ(in.freg(3), 2.0);
    EXPECT_DOUBLE_EQ(in.freg(4), 3.5);
    EXPECT_DOUBLE_EQ(in.freg(5), 3.5);
    EXPECT_DOUBLE_EQ(in.freg(6), 2.0);
}

TEST(InterpreterTest, AllBranchVariantsSteerCorrectly)
{
    Assembler a;
    a.li(T0, -2);
    a.li(T1, 3);
    a.li(S0, 0);                        // result bits
    const char *labels[] = {"blt", "bge", "bltu", "bgeu"};
    // blt: -2 < 3 signed -> taken.
    a.blt(T0, T1, "blt");
    a.j("after_blt");
    a.label("blt");
    a.ori(S0, S0, 1);
    a.label("after_blt");
    // bge: 3 >= -2 -> taken.
    a.bge(T1, T0, "bge");
    a.j("after_bge");
    a.label("bge");
    a.ori(S0, S0, 2);
    a.label("after_bge");
    // bltu: unsigned(-2) is huge, so 3 < unsigned(-2) -> taken.
    a.bltu(T1, T0, "bltu");
    a.j("after_bltu");
    a.label("bltu");
    a.ori(S0, S0, 4);
    a.label("after_bltu");
    // bgeu: unsigned(-2) >= 3 -> taken.
    a.bgeu(T0, T1, "bgeu");
    a.j("after_bgeu");
    a.label("bgeu");
    a.ori(S0, S0, 8);
    a.label("after_bgeu");
    (void)labels;
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(S0), 15);
}

TEST(InterpreterTest, HalfWordAndWordStores)
{
    Assembler a;
    const uint64_t buf = a.reserve(16);
    a.li(S0, static_cast<int64_t>(buf));
    a.li(T0, 0x1234cdef);
    a.sh(T0, S0, 0);                    // stores 0xcdef
    a.lhu(T1, S0, 0);
    a.lh(T2, S0, 0);                    // sign extended
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T1), 0xcdef);
    EXPECT_EQ(in.reg(T2), static_cast<int16_t>(0xcdef));
}

TEST(InterpreterTest, JalrCallsThroughARegister)
{
    Assembler a;
    a.j("main");
    a.label("callee");
    a.li(S1, 77);
    a.ret();
    a.label("main");
    // Materialize the callee address: label index 1 -> pcOf(1).
    a.li(T0, static_cast<int64_t>(Program::kCodeBase + 4 * 1));
    a.jalr(T0);
    a.li(S2, 88);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(S1), 77);
    EXPECT_EQ(in.reg(S2), 88);
}

TEST(InterpreterTest, MuliAndNegativeShifts)
{
    Assembler a;
    a.li(T0, -6);
    a.muli(T1, T0, 7);
    a.li(T2, 1);
    a.shli(T3, T2, 63);                 // sign bit
    a.sari(T4, T3, 63);                 // all ones
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    runAll(in);
    EXPECT_EQ(in.reg(T1), -42);
    EXPECT_EQ(in.reg(T4), -1);
}

TEST(InterpreterTest, SetRegAndSetFregSeedState)
{
    Assembler a;
    a.add(T1, A0, A0);
    a.fadd(1, 0, 0);
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    in.setReg(A0, 21);
    in.setFreg(0, 1.25);
    runAll(in);
    EXPECT_EQ(in.reg(T1), 42);
    EXPECT_DOUBLE_EQ(in.freg(1), 2.5);
}

TEST(InterpreterTest, CallRecordsHaveCallClassAndLinkWrite)
{
    Assembler a;
    a.j("main");
    a.label("f");
    a.ret();
    a.label("main");
    a.call("f");
    a.halt();
    const Program p = a.finish();
    Interpreter in(p);
    InstRecord r;
    in.next(r);                         // j main
    EXPECT_EQ(r.cls, InstClass::Jump);
    in.next(r);                         // call f
    EXPECT_EQ(r.cls, InstClass::Call);
    EXPECT_EQ(r.dstReg, reg::Ra);
    EXPECT_TRUE(r.taken);
    in.next(r);                         // ret
    EXPECT_EQ(r.cls, InstClass::Return);
    EXPECT_EQ(r.numSrcRegs, 1);
    EXPECT_EQ(r.srcRegs[0], reg::Ra);
}

} // namespace
} // namespace mica::isa
