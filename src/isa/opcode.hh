/**
 * @file
 * Opcode set of the mini-RISC ISA used as the instrumentation substrate.
 *
 * The paper profiles Alpha binaries through ATOM. This repo substitutes a
 * small register-based RISC ISA whose interpreter emits the same per-
 * instruction observation stream (see trace/inst_record.hh). The opcode
 * set is deliberately minimal but complete enough to express the workload
 * kernels: integer ALU, integer multiply/divide, IEEE double arithmetic,
 * byte- to quad-word loads/stores, and the usual control transfers.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/inst_record.hh"

namespace mica::isa
{

enum class Opcode : uint8_t
{
    // Integer register-register.
    Add, Sub, And, Or, Xor, Shl, Shr, Sar, Slt, Sltu,
    Mul, Div, Rem,
    // Integer register-immediate.
    Addi, Andi, Ori, Xori, Shli, Shri, Sari, Slti, Muli,
    // Load immediate (64-bit).
    Li,
    // Floating point (double precision).
    Fadd, Fsub, Fmul, Fdiv, Fmin, Fmax,
    Fneg, Fabs, Fsqrt, Fmov,
    Fclt, Fcle, Fceq,       ///< FP compare, integer destination
    Itof, Ftoi,             ///< conversions
    // Memory. Loads sign-extend except Lbu/Lhu/Lwu.
    Lb, Lbu, Lh, Lhu, Lw, Lwu, Ld,
    Sb, Sh, Sw, Sd,
    Fld, Fsd,               ///< double-precision load/store
    // Control transfers. Branch targets are label-resolved indices.
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    J, Jal, Jr, Jalr,
    // Misc.
    Nop, Halt,
};

/** Number of opcodes (for table sizing). */
constexpr int kNumOpcodes = static_cast<int>(Opcode::Halt) + 1;

/** Per-opcode facts the interpreter reads for every instruction. */
struct OpcodeInfo
{
    InstClass cls;      ///< class used by the analyzers
    uint8_t memSize;    ///< access size in bytes, 0 for non-memory ops
};

/** OpcodeInfo indexed by opcode (defined in opcode.cc). */
extern const std::array<OpcodeInfo, kNumOpcodes> kOpcodeInfo;

/** @return the printable mnemonic for an opcode. */
const char *opcodeName(Opcode op);

/** @return the InstClass used by the analyzers for this opcode. */
inline InstClass
opcodeClass(Opcode op)
{
    return kOpcodeInfo[static_cast<size_t>(op)].cls;
}

/** @return true if the opcode reads/writes floating-point registers. */
bool opcodeIsFp(Opcode op);

/** @return access size in bytes for memory opcodes, 0 otherwise. */
inline uint8_t
opcodeMemSize(Opcode op)
{
    return kOpcodeInfo[static_cast<size_t>(op)].memSize;
}

} // namespace mica::isa
