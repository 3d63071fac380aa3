#include "isa/opcode.hh"

namespace mica::isa
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Sar: return "sar";
      case Opcode::Slt: return "slt";
      case Opcode::Sltu: return "sltu";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::Addi: return "addi";
      case Opcode::Andi: return "andi";
      case Opcode::Ori: return "ori";
      case Opcode::Xori: return "xori";
      case Opcode::Shli: return "shli";
      case Opcode::Shri: return "shri";
      case Opcode::Sari: return "sari";
      case Opcode::Slti: return "slti";
      case Opcode::Muli: return "muli";
      case Opcode::Li: return "li";
      case Opcode::Fadd: return "fadd";
      case Opcode::Fsub: return "fsub";
      case Opcode::Fmul: return "fmul";
      case Opcode::Fdiv: return "fdiv";
      case Opcode::Fmin: return "fmin";
      case Opcode::Fmax: return "fmax";
      case Opcode::Fneg: return "fneg";
      case Opcode::Fabs: return "fabs";
      case Opcode::Fsqrt: return "fsqrt";
      case Opcode::Fmov: return "fmov";
      case Opcode::Fclt: return "fclt";
      case Opcode::Fcle: return "fcle";
      case Opcode::Fceq: return "fceq";
      case Opcode::Itof: return "itof";
      case Opcode::Ftoi: return "ftoi";
      case Opcode::Lb: return "lb";
      case Opcode::Lbu: return "lbu";
      case Opcode::Lh: return "lh";
      case Opcode::Lhu: return "lhu";
      case Opcode::Lw: return "lw";
      case Opcode::Lwu: return "lwu";
      case Opcode::Ld: return "ld";
      case Opcode::Sb: return "sb";
      case Opcode::Sh: return "sh";
      case Opcode::Sw: return "sw";
      case Opcode::Sd: return "sd";
      case Opcode::Fld: return "fld";
      case Opcode::Fsd: return "fsd";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Bltu: return "bltu";
      case Opcode::Bgeu: return "bgeu";
      case Opcode::J: return "j";
      case Opcode::Jal: return "jal";
      case Opcode::Jr: return "jr";
      case Opcode::Jalr: return "jalr";
      case Opcode::Nop: return "nop";
      case Opcode::Halt: return "halt";
    }
    return "?";
}

namespace
{

constexpr InstClass
classOf(Opcode op)
{
    switch (op) {
      case Opcode::Mul:
      case Opcode::Muli:
        return InstClass::IntMul;
      case Opcode::Div:
      case Opcode::Rem:
        return InstClass::IntDiv;
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmin:
      case Opcode::Fmax:
      case Opcode::Fneg:
      case Opcode::Fabs:
      case Opcode::Fmov:
      case Opcode::Fclt:
      case Opcode::Fcle:
      case Opcode::Fceq:
      case Opcode::Itof:
      case Opcode::Ftoi:
        return InstClass::FpAlu;
      case Opcode::Fmul:
        return InstClass::FpMul;
      case Opcode::Fdiv:
      case Opcode::Fsqrt:
        return InstClass::FpDiv;
      case Opcode::Lb:
      case Opcode::Lbu:
      case Opcode::Lh:
      case Opcode::Lhu:
      case Opcode::Lw:
      case Opcode::Lwu:
      case Opcode::Ld:
      case Opcode::Fld:
        return InstClass::Load;
      case Opcode::Sb:
      case Opcode::Sh:
      case Opcode::Sw:
      case Opcode::Sd:
      case Opcode::Fsd:
        return InstClass::Store;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
        return InstClass::Branch;
      case Opcode::J:
        return InstClass::Jump;
      case Opcode::Jal:
      case Opcode::Jalr:
        return InstClass::Call;
      case Opcode::Jr:
        return InstClass::Return;
      case Opcode::Nop:
      case Opcode::Halt:
        return InstClass::Nop;
      default:
        return InstClass::IntAlu;
    }
}

constexpr uint8_t
memSizeOf(Opcode op)
{
    switch (op) {
      case Opcode::Lb:
      case Opcode::Lbu:
      case Opcode::Sb:
        return 1;
      case Opcode::Lh:
      case Opcode::Lhu:
      case Opcode::Sh:
        return 2;
      case Opcode::Lw:
      case Opcode::Lwu:
      case Opcode::Sw:
        return 4;
      case Opcode::Ld:
      case Opcode::Sd:
      case Opcode::Fld:
      case Opcode::Fsd:
        return 8;
      default:
        return 0;
    }
}

constexpr std::array<OpcodeInfo, kNumOpcodes>
makeOpcodeInfo()
{
    std::array<OpcodeInfo, kNumOpcodes> t{};
    for (int i = 0; i < kNumOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        t[i] = {classOf(op), memSizeOf(op)};
    }
    return t;
}

} // namespace

const std::array<OpcodeInfo, kNumOpcodes> kOpcodeInfo = makeOpcodeInfo();

bool
opcodeIsFp(Opcode op)
{
    switch (op) {
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fmin:
      case Opcode::Fmax:
      case Opcode::Fneg:
      case Opcode::Fabs:
      case Opcode::Fsqrt:
      case Opcode::Fmov:
      case Opcode::Fclt:
      case Opcode::Fcle:
      case Opcode::Fceq:
      case Opcode::Itof:
      case Opcode::Ftoi:
      case Opcode::Fld:
      case Opcode::Fsd:
        return true;
      default:
        return false;
    }
}

} // namespace mica::isa
