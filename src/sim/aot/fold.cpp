/**
 * @file
 * Per-opcode folded handlers of the direct-threaded backend.
 *
 * Each handler copies its instruction, overwrites the opcode with a
 * compile-time constant and runs the unchanged header-inline
 * ExecState::execute / evalCond body on it. With the opcode constant,
 * the host compiler folds the class/op/width switches, the operand
 * selects and the memory-size switches, so a handler is the
 * instruction's own semantics and nothing else — the decode the paper's
 * hardware resolves at compile time (section 3) and that the
 * interpreter repeats on every packet. `[[gnu::flatten]]` is what makes
 * g++ inline the ExecState bodies into each instantiation; without it
 * nothing folds.
 *
 * Only the opcodes a verified program uses are instantiated (kFold).
 * Every other byte maps to the generic runtime.hpp handler, so odd
 * encodings trap exactly as they do in the interpreter. This table
 * lives in its own translation unit because generated native modules
 * include runtime.hpp and must not pay for its instantiations.
 */

#include <array>
#include <utility>

#include "sim/aot/specialize.hpp"

namespace ehdl::sim::aot {

using ebpf::AluOp;
using ebpf::InsnClass;
using ebpf::JmpOp;
using ebpf::MemMode;
using ebpf::MemSize;
using ebpf::SrcKind;

namespace {

/** Which opcode bytes get a folded exec / branch handler. */
struct FoldSet
{
    std::array<bool, 256> exec{};
    std::array<bool, 256> branch{};
};

/**
 * The ISA forms a verified program can contain, listed once: every
 * ALU op in both widths and operand kinds, lddw, the four-width memory
 * loads and stores, the two atomic widths and the helper call; and
 * every conditional jump in both widths and operand kinds.
 */
constexpr FoldSet kFold = [] {
    FoldSet s;
    constexpr SrcKind kSrcs[] = {SrcKind::K, SrcKind::X};
    constexpr MemSize kSizes[] = {MemSize::B, MemSize::H, MemSize::W,
                                  MemSize::DW};
    for (const InsnClass cls : {InsnClass::Alu, InsnClass::Alu64})
        for (const AluOp op :
             {AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Div, AluOp::Or,
              AluOp::And, AluOp::Lsh, AluOp::Rsh, AluOp::Neg, AluOp::Mod,
              AluOp::Xor, AluOp::Mov, AluOp::Arsh, AluOp::End})
            for (const SrcKind src : kSrcs)
                s.exec[ebpf::makeAluOpcode(cls, op, src)] = true;
    s.exec[ebpf::makeMemOpcode(InsnClass::Ld, MemMode::Imm, MemSize::DW)] =
        true;
    for (const MemSize size : kSizes) {
        for (const InsnClass cls :
             {InsnClass::Ldx, InsnClass::St, InsnClass::Stx})
            s.exec[ebpf::makeMemOpcode(cls, MemMode::Mem, size)] = true;
    }
    for (const MemSize size : {MemSize::W, MemSize::DW})
        s.exec[ebpf::makeMemOpcode(InsnClass::Stx, MemMode::Atomic, size)] =
            true;
    s.exec[ebpf::makeJmpOpcode(InsnClass::Jmp, JmpOp::Call, SrcKind::K)] =
        true;
    for (const InsnClass cls : {InsnClass::Jmp, InsnClass::Jmp32})
        for (const JmpOp op :
             {JmpOp::Jeq, JmpOp::Jgt, JmpOp::Jge, JmpOp::Jset, JmpOp::Jne,
              JmpOp::Jsgt, JmpOp::Jsge, JmpOp::Jlt, JmpOp::Jle, JmpOp::Jslt,
              JmpOp::Jsle})
            for (const SrcKind src : kSrcs)
                s.branch[ebpf::makeJmpOpcode(cls, op, src)] = true;
    return s;
}();

/** handler: one non-control-flow instruction with opcode Opc. */
template <uint8_t Opc>
[[gnu::flatten]] bool
uopExecOpc(AotCtx &c, const MicroOp &op)
{
    ebpf::Insn insn = c.insns[op.pc];
    insn.opcode = Opc;
    return opExecInsn(c, insn);
}

/** handler: conditional branch with opcode Opc. */
template <uint8_t Opc>
[[gnu::flatten]] bool
uopBranchOpc(AotCtx &c, const MicroOp &op)
{
    ebpf::Insn insn = c.insns[op.pc];
    insn.opcode = Opc;
    return opBranchInsn(c, insn, op.taken, op.fall);
}

// `if constexpr` keeps unlisted opcodes from instantiating a handler.

template <uint8_t Opc>
constexpr UopFn
pickExec()
{
    if constexpr (kFold.exec[Opc])
        return &uopExecOpc<Opc>;
    else
        return &uopExec;
}

template <uint8_t Opc>
constexpr UopFn
pickBranch()
{
    if constexpr (kFold.branch[Opc])
        return &uopBranchOpc<Opc>;
    else
        return &uopBranch;
}

template <size_t... Opc>
constexpr std::array<UopFn, 256>
execTable(std::index_sequence<Opc...>)
{
    return {pickExec<static_cast<uint8_t>(Opc)>()...};
}

template <size_t... Opc>
constexpr std::array<UopFn, 256>
branchTable(std::index_sequence<Opc...>)
{
    return {pickBranch<static_cast<uint8_t>(Opc)>()...};
}

constexpr std::array<UopFn, 256> kExecTable =
    execTable(std::make_index_sequence<256>{});
constexpr std::array<UopFn, 256> kBranchTable =
    branchTable(std::make_index_sequence<256>{});

}  // namespace

UopFn
execHandler(uint8_t opcode)
{
    return kExecTable[opcode];
}

UopFn
branchHandler(uint8_t opcode)
{
    return kBranchTable[opcode];
}

}  // namespace ehdl::sim::aot
