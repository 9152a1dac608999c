/**
 * @file
 * Fluent builder for constructing eBPF programs in C++ with symbolic
 * labels. The evaluation applications (src/apps) are written against this
 * API; build() resolves labels to relative offsets and returns a Program
 * identical to what decode() would produce from equivalent wire bytes.
 */

#ifndef EHDL_EBPF_BUILDER_HPP_
#define EHDL_EBPF_BUILDER_HPP_

#include <string>
#include <unordered_map>
#include <vector>

#include "ebpf/program.hpp"

namespace ehdl::ebpf {

/** Builds a Program instruction by instruction; see file comment. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name) { prog_.name = std::move(name); }

    /** Declare a map; returns its identifier for ldMap(). */
    uint32_t
    addMap(MapDef def)
    {
        prog_.maps.push_back(std::move(def));
        return static_cast<uint32_t>(prog_.maps.size() - 1);
    }

    // --- ALU64 -------------------------------------------------------

    /** r[dst] = imm (move of a 32-bit-signed immediate). */
    ProgramBuilder &mov(unsigned dst, int64_t imm);
    /** r[dst] = r[src]. */
    ProgramBuilder &movReg(unsigned dst, unsigned src);
    /** r[dst] op= imm. */
    ProgramBuilder &alu(AluOp op, unsigned dst, int64_t imm);
    /** r[dst] op= r[src]. */
    ProgramBuilder &aluReg(AluOp op, unsigned dst, unsigned src);

    // --- ALU32 (w registers) ------------------------------------------

    ProgramBuilder &alu32(AluOp op, unsigned dst, int32_t imm);
    ProgramBuilder &alu32Reg(AluOp op, unsigned dst, unsigned src);

    /** Byte swap: r[dst] = be<bits>/le<bits>(r[dst]); bits in {16,32,64}. */
    ProgramBuilder &endian(bool to_be, unsigned dst, unsigned bits);

    // --- Memory --------------------------------------------------------

    /** r[dst] = *(size *)(r[src] + off). */
    ProgramBuilder &ldx(MemSize size, unsigned dst, unsigned src,
                        int16_t off);
    /** *(size *)(r[dst] + off) = r[src]. */
    ProgramBuilder &stx(MemSize size, unsigned dst, int16_t off,
                        unsigned src);
    /** *(size *)(r[dst] + off) = imm. */
    ProgramBuilder &st(MemSize size, unsigned dst, int16_t off, int32_t imm);
    /** lock *(size *)(r[dst] + off) += r[src]. */
    ProgramBuilder &atomicAdd(MemSize size, unsigned dst, int16_t off,
                              unsigned src);
    /** r[dst] = imm64 (lddw). */
    ProgramBuilder &lddw(unsigned dst, int64_t imm);
    /** r[dst] = address handle of map @p map_id (lddw pseudo map fd). */
    ProgramBuilder &ldMap(unsigned dst, uint32_t map_id);

    // --- Control flow ---------------------------------------------------

    /** Bind @p name to the next instruction. */
    ProgramBuilder &label(const std::string &name);
    /** Unconditional goto @p target label. */
    ProgramBuilder &jmp(const std::string &target);
    /** if r[dst] op imm goto target. */
    ProgramBuilder &jcond(JmpOp op, unsigned dst, int64_t imm,
                          const std::string &target);
    /** if r[dst] op r[src] goto target. */
    ProgramBuilder &jcondReg(JmpOp op, unsigned dst, unsigned src,
                             const std::string &target);
    /** call helper @p helper_id. */
    ProgramBuilder &call(int32_t helper_id);
    /** exit (return r0). */
    ProgramBuilder &exit();

    /** Current instruction count (useful for size assertions in tests). */
    size_t size() const { return prog_.insns.size(); }

    /** Resolve labels and return the finished program. */
    Program build();

  private:
    ProgramBuilder &push(Insn insn);

    Program prog_;
    std::unordered_map<std::string, size_t> labels_;
    struct Fixup
    {
        size_t insn;
        std::string target;
    };
    std::vector<Fixup> fixups_;
    bool built_ = false;
};

}  // namespace ehdl::ebpf

#endif  // EHDL_EBPF_BUILDER_HPP_
