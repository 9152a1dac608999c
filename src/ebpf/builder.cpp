#include "ebpf/builder.hpp"

#include "common/logging.hpp"

namespace ehdl::ebpf {

ProgramBuilder &
ProgramBuilder::push(Insn insn)
{
    if (built_)
        panic("ProgramBuilder used after build()");
    // Everything except lddw carries a 32-bit immediate on the wire.
    if (!insn.isLddw() &&
        (insn.imm < INT32_MIN || insn.imm > INT32_MAX)) {
        fatal("immediate ", insn.imm,
              " does not fit the 32-bit field; use lddw");
    }
    insn.origPc = static_cast<int32_t>(prog_.insns.size());
    prog_.insns.push_back(insn);
    return *this;
}

ProgramBuilder &
ProgramBuilder::mov(unsigned dst, int64_t imm)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu64, AluOp::Mov, SrcKind::K);
    i.dst = dst;
    i.imm = imm;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::movReg(unsigned dst, unsigned src)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu64, AluOp::Mov, SrcKind::X);
    i.dst = dst;
    i.src = src;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::alu(AluOp op, unsigned dst, int64_t imm)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu64, op, SrcKind::K);
    i.dst = dst;
    i.imm = imm;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::aluReg(AluOp op, unsigned dst, unsigned src)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu64, op, SrcKind::X);
    i.dst = dst;
    i.src = src;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::alu32(AluOp op, unsigned dst, int32_t imm)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu, op, SrcKind::K);
    i.dst = dst;
    i.imm = imm;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::alu32Reg(AluOp op, unsigned dst, unsigned src)
{
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu, op, SrcKind::X);
    i.dst = dst;
    i.src = src;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::endian(bool to_be, unsigned dst, unsigned bits)
{
    if (bits != 16 && bits != 32 && bits != 64)
        fatal("endian width must be 16/32/64");
    Insn i;
    i.opcode = makeAluOpcode(InsnClass::Alu, AluOp::End,
                             to_be ? SrcKind::X : SrcKind::K);
    i.dst = dst;
    i.imm = bits;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::ldx(MemSize size, unsigned dst, unsigned src, int16_t off)
{
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::Ldx, MemMode::Mem, size);
    i.dst = dst;
    i.src = src;
    i.off = off;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::stx(MemSize size, unsigned dst, int16_t off, unsigned src)
{
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::Stx, MemMode::Mem, size);
    i.dst = dst;
    i.src = src;
    i.off = off;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::st(MemSize size, unsigned dst, int16_t off, int32_t imm)
{
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::St, MemMode::Mem, size);
    i.dst = dst;
    i.off = off;
    i.imm = imm;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::atomicAdd(MemSize size, unsigned dst, int16_t off,
                          unsigned src)
{
    if (size != MemSize::W && size != MemSize::DW)
        fatal("atomic add supports only 32/64-bit widths");
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::Stx, MemMode::Atomic, size);
    i.dst = dst;
    i.src = src;
    i.off = off;
    i.imm = static_cast<int32_t>(AtomicOp::Add);
    return push(i);
}

ProgramBuilder &
ProgramBuilder::lddw(unsigned dst, int64_t imm)
{
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::Ld, MemMode::Imm, MemSize::DW);
    i.dst = dst;
    i.imm = imm;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::ldMap(unsigned dst, uint32_t map_id)
{
    if (map_id >= prog_.maps.size())
        fatal("ldMap references undeclared map ", map_id);
    Insn i;
    i.opcode = makeMemOpcode(InsnClass::Ld, MemMode::Imm, MemSize::DW);
    i.dst = dst;
    i.src = kPseudoMapFd;
    i.imm = map_id;
    i.isMapLoad = true;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    if (labels_.count(name))
        fatal("duplicate label '", name, "'");
    labels_[name] = prog_.insns.size();
    return *this;
}

ProgramBuilder &
ProgramBuilder::jmp(const std::string &target)
{
    Insn i;
    i.opcode = makeJmpOpcode(InsnClass::Jmp, JmpOp::Ja, SrcKind::K);
    fixups_.push_back({prog_.insns.size(), target});
    return push(i);
}

ProgramBuilder &
ProgramBuilder::jcond(JmpOp op, unsigned dst, int64_t imm,
                      const std::string &target)
{
    Insn i;
    i.opcode = makeJmpOpcode(InsnClass::Jmp, op, SrcKind::K);
    i.dst = dst;
    i.imm = imm;
    fixups_.push_back({prog_.insns.size(), target});
    return push(i);
}

ProgramBuilder &
ProgramBuilder::jcondReg(JmpOp op, unsigned dst, unsigned src,
                         const std::string &target)
{
    Insn i;
    i.opcode = makeJmpOpcode(InsnClass::Jmp, op, SrcKind::X);
    i.dst = dst;
    i.src = src;
    fixups_.push_back({prog_.insns.size(), target});
    return push(i);
}

ProgramBuilder &
ProgramBuilder::call(int32_t helper_id)
{
    Insn i;
    i.opcode = makeJmpOpcode(InsnClass::Jmp, JmpOp::Call, SrcKind::K);
    i.imm = helper_id;
    return push(i);
}

ProgramBuilder &
ProgramBuilder::exit()
{
    Insn i;
    i.opcode = makeJmpOpcode(InsnClass::Jmp, JmpOp::Exit, SrcKind::K);
    return push(i);
}

Program
ProgramBuilder::build()
{
    for (const Fixup &fix : fixups_) {
        auto it = labels_.find(fix.target);
        if (it == labels_.end())
            fatal("undefined label '", fix.target, "'");
        prog_.insns[fix.insn].off = static_cast<int16_t>(
            static_cast<int64_t>(it->second) -
            static_cast<int64_t>(fix.insn) - 1);
    }
    built_ = true;
    return std::move(prog_);
}

}  // namespace ehdl::ebpf
