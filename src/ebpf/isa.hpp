/**
 * @file
 * eBPF instruction-set definitions: opcode encodings, register names and
 * the decoded Insn form used throughout the compiler. The encodings follow
 * the Linux kernel's uapi/linux/bpf.h so that real eBPF object code can be
 * decoded unmodified.
 */

#ifndef EHDL_EBPF_ISA_HPP_
#define EHDL_EBPF_ISA_HPP_

#include <cstdint>
#include <string>

namespace ehdl::ebpf {

/** Number of architectural registers (R0-R10). */
constexpr unsigned kNumRegs = 11;
/** eBPF stack size in bytes. */
constexpr unsigned kStackSize = 512;
/** Read-only frame/stack pointer register. */
constexpr unsigned kFp = 10;

/** Instruction class (opcode bits 2:0). */
enum class InsnClass : uint8_t {
    Ld = 0x00,
    Ldx = 0x01,
    St = 0x02,
    Stx = 0x03,
    Alu = 0x04,
    Jmp = 0x05,
    Jmp32 = 0x06,
    Alu64 = 0x07,
};

/** Memory access width (opcode bits 4:3 for load/store classes). */
enum class MemSize : uint8_t {
    W = 0x00,   ///< 4 bytes
    H = 0x08,   ///< 2 bytes
    B = 0x10,   ///< 1 byte
    DW = 0x18,  ///< 8 bytes
};

/** Size in bytes of a MemSize. */
inline unsigned
memSizeBytes(MemSize s)
{
    switch (s) {
      case MemSize::W: return 4;
      case MemSize::H: return 2;
      case MemSize::B: return 1;
      case MemSize::DW: return 8;
    }
    return 0;
}

/** Addressing mode (opcode bits 7:5 for load/store classes). */
enum class MemMode : uint8_t {
    Imm = 0x00,     ///< 64-bit immediate load (lddw)
    Abs = 0x20,     ///< legacy absolute packet load
    Ind = 0x40,     ///< legacy indirect packet load
    Mem = 0x60,     ///< regular memory access
    Atomic = 0xc0,  ///< atomic memory op (incl. legacy XADD)
};

/** ALU operation (opcode bits 7:4 for ALU classes). */
enum class AluOp : uint8_t {
    Add = 0x00,
    Sub = 0x10,
    Mul = 0x20,
    Div = 0x30,
    Or = 0x40,
    And = 0x50,
    Lsh = 0x60,
    Rsh = 0x70,
    Neg = 0x80,
    Mod = 0x90,
    Xor = 0xa0,
    Mov = 0xb0,
    Arsh = 0xc0,
    End = 0xd0,  ///< byte-swap; imm selects 16/32/64
};

/** Jump operation (opcode bits 7:4 for JMP classes). */
enum class JmpOp : uint8_t {
    Ja = 0x00,
    Jeq = 0x10,
    Jgt = 0x20,
    Jge = 0x30,
    Jset = 0x40,
    Jne = 0x50,
    Jsgt = 0x60,
    Jsge = 0x70,
    Call = 0x80,
    Exit = 0x90,
    Jlt = 0xa0,
    Jle = 0xb0,
    Jslt = 0xc0,
    Jsle = 0xd0,
};

/** Source-operand selector (opcode bit 3 for ALU/JMP classes). */
enum class SrcKind : uint8_t {
    K = 0x00,  ///< immediate operand
    X = 0x08,  ///< register operand
};

/** Atomic operation selector (held in imm for MemMode::Atomic). */
enum class AtomicOp : int32_t {
    Add = 0x00,      ///< legacy XADD / BPF_ADD
    AddFetch = 0x01, ///< BPF_ADD | BPF_FETCH
};

/** Pseudo source-register values for lddw. */
enum : uint8_t {
    kPseudoMapFd = 1,  ///< imm holds a map identifier
};

/** Memory region touched by an instruction (paper section 3.1 labels). */
enum class MemRegion : uint8_t {
    None,
    Ctx,     ///< the xdp_md context struct
    Stack,   ///< the 512B program stack
    Packet,  ///< the packet buffer
    Map,     ///< a specific map's value memory (see Insn::regionMapId)
    Unknown,
};

/**
 * One decoded eBPF instruction.
 *
 * lddw (64-bit immediate load) occupies two 8-byte slots in the wire
 * encoding but decodes to a single Insn with the full immediate in imm.
 * The original program counter of each instruction is kept in origPc so
 * that jump offsets (expressed in wire slots) remain meaningful.
 */
struct Insn
{
    uint8_t opcode = 0;
    uint8_t dst = 0;
    uint8_t src = 0;
    int16_t off = 0;
    int64_t imm = 0;

    /** For lddw map loads: identifier of the referenced map. */
    bool isMapLoad = false;

    /** Wire-encoding slot index of this instruction. */
    int32_t origPc = 0;

    InsnClass cls() const { return static_cast<InsnClass>(opcode & 0x07); }

    bool
    isAlu() const
    {
        return cls() == InsnClass::Alu || cls() == InsnClass::Alu64;
    }

    bool
    isJmp() const
    {
        return cls() == InsnClass::Jmp || cls() == InsnClass::Jmp32;
    }

    bool
    isLoad() const
    {
        return cls() == InsnClass::Ld || cls() == InsnClass::Ldx;
    }

    bool
    isStore() const
    {
        return cls() == InsnClass::St || cls() == InsnClass::Stx;
    }

    bool is64() const { return cls() == InsnClass::Alu64; }

    AluOp aluOp() const { return static_cast<AluOp>(opcode & 0xf0); }
    JmpOp jmpOp() const { return static_cast<JmpOp>(opcode & 0xf0); }
    SrcKind srcKind() const { return static_cast<SrcKind>(opcode & 0x08); }
    MemSize memSize() const { return static_cast<MemSize>(opcode & 0x18); }
    MemMode memMode() const { return static_cast<MemMode>(opcode & 0xe0); }

    bool
    isLddw() const
    {
        return cls() == InsnClass::Ld && memMode() == MemMode::Imm &&
               memSize() == MemSize::DW;
    }

    bool
    isAtomic() const
    {
        return cls() == InsnClass::Stx && memMode() == MemMode::Atomic;
    }

    bool isCall() const { return isJmp() && jmpOp() == JmpOp::Call; }
    bool isExit() const { return isJmp() && jmpOp() == JmpOp::Exit; }

    bool
    isCondJmp() const
    {
        if (!isJmp())
            return false;
        const JmpOp op = jmpOp();
        return op != JmpOp::Ja && op != JmpOp::Call && op != JmpOp::Exit;
    }

    bool isUncondJmp() const { return isJmp() && jmpOp() == JmpOp::Ja; }
};

/** Build an opcode byte from class/op/src parts. */
constexpr uint8_t
makeAluOpcode(InsnClass cls, AluOp op, SrcKind src)
{
    return static_cast<uint8_t>(cls) | static_cast<uint8_t>(op) |
           static_cast<uint8_t>(src);
}

constexpr uint8_t
makeJmpOpcode(InsnClass cls, JmpOp op, SrcKind src)
{
    return static_cast<uint8_t>(cls) | static_cast<uint8_t>(op) |
           static_cast<uint8_t>(src);
}

constexpr uint8_t
makeMemOpcode(InsnClass cls, MemMode mode, MemSize size)
{
    return static_cast<uint8_t>(cls) | static_cast<uint8_t>(mode) |
           static_cast<uint8_t>(size);
}

/** Human-readable register name ("r0".."r10"). */
std::string regName(unsigned reg);

/** Comparison symbol for a conditional jump ("==", "s>", ...). */
std::string jmpOpSymbol(JmpOp op);

}  // namespace ehdl::ebpf

#endif  // EHDL_EBPF_ISA_HPP_
