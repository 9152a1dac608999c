/**
 * @file
 * Execution primitives shared by both AOT backends.
 *
 * The AOT engine (docs/PERFORMANCE.md, "AOT-specialized engine")
 * replaces the interpreter's per-cycle walk over `hdl::StageOp` records
 * with a per-program specialized executor. Both backends bottom out in
 * the inline primitives defined here, which call straight into the same
 * `ebpf::ExecState` instruction semantics the interpreter uses:
 *
 *  - the direct-threaded backend builds, at load time, per-stage tables
 *    of `MicroOp` records whose handler pointers are selected per
 *    opcode (sim/aot/specialize.hpp, sim/aot/fold.cpp);
 *
 *  - the native backend generates C++ that unrolls those tables into
 *    straight-line per-stage functions with every block id and pc
 *    constant-folded, compiles them with the host compiler and
 *    `dlopen`s the result (sim/aot/native.hpp). The generated source
 *    includes exactly this header, so a native stage and a
 *    direct-threaded stage execute byte-for-byte the same primitives.
 *
 * Because every primitive delegates to ExecState, the AOT engine cannot
 * drift semantically from the interpreter on instruction behaviour
 * (including exact trap reasons); the only thing it specializes away is
 * dispatch.
 */

#ifndef EHDL_SIM_AOT_RUNTIME_HPP_
#define EHDL_SIM_AOT_RUNTIME_HPP_

#include <cstdint>
#include <vector>

#include "ebpf/exec.hpp"
#include "ebpf/isa.hpp"
#include "ebpf/xdp.hpp"

namespace ehdl::sim::aot {

/**
 * ABI version stamped into generated native modules and checked at
 * load time. Bump whenever AotCtx, the primitives below, or the
 * generated-code calling convention change shape.
 *
 * v2: table entries are fused *segment* functions — entry s executes
 * stages [s, AotSpec::stages[s].segEnd] in one call — rather than
 * single-stage functions.
 *
 * v3: ExecState (reached through AotCtx) grew copy-on-write dirty
 * tracking, changing its layout; modules built against v2 would update
 * state without marking it dirty and corrupt checkpoints.
 *
 * v4: block enable signals are a byte vector instead of vector<bool>,
 * so blockOn — executed before every generated instruction — is a
 * plain byte load rather than bit arithmetic through a proxy.
 */
constexpr uint64_t kAotAbiVersion = 4;

/**
 * The per-flight execution context a specialized stage runs against.
 * All fields point into the simulator's Flight record, so a primitive's
 * side effects land exactly where the interpreter's would.
 */
struct AotCtx
{
    ebpf::ExecState *st = nullptr;
    /** Basic-block enable signals (predication, paper section 3.5). */
    std::vector<uint8_t> *enabled = nullptr;
    /** The post-unroll program's instruction array. */
    const ebpf::Insn *insns = nullptr;
    bool *exited = nullptr;
    ebpf::XdpAction *action = nullptr;
    uint32_t *redirectIfindex = nullptr;

    bool
    blockOn(uint32_t block) const
    {
        return (*enabled)[block] != 0;
    }
};

// --- Primitives -------------------------------------------------------------
// Each returns true when the packet latches its exit (remaining ops in
// the stage are dead, exactly like the interpreter's executeOp).
//
// Instructions arrive as Insn objects, not indices: generated modules
// pass braced literals, the folded direct-threaded handlers pass a copy
// whose opcode is a compile-time constant. ExecState::execute and
// evalCond are header-inline (ebpf/exec_inline.hpp), so the host
// compiler folds the class/op/width dispatch, the operand selects and
// the memory-size switches down to straight-line code per instruction —
// while still running the interpreter's exact bodies.

/** Execute one non-control-flow instruction (ALU/load/store/call). */
inline bool
opExecInsn(AotCtx &c, const ebpf::Insn &insn)
{
    c.st->execute(insn);
    return false;
}

/** Conditional branch: drive the taken or fallthrough enable signal. */
inline bool
opBranchInsn(AotCtx &c, const ebpf::Insn &insn, uint32_t taken_block,
             uint32_t fall_block)
{
    (*c.enabled)[c.st->evalCond(insn) ? taken_block : fall_block] = true;
    return false;
}

/** Unconditional jump / fallthrough enable propagation. */
inline bool
opJump(AotCtx &c, uint32_t taken_block)
{
    (*c.enabled)[taken_block] = true;
    return false;
}

/** Latch the XDP action. */
inline bool
opExit(AotCtx &c)
{
    const uint32_t code = c.st->exitCode();
    *c.action = static_cast<ebpf::XdpAction>(code <= 4 ? code : 0);
    *c.redirectIfindex = c.st->redirectIfindex;
    *c.exited = true;
    return true;
}

// --- Direct-threaded micro-ops ---------------------------------------------

struct MicroOp;

/** Stage-op handler: returns true when the packet exits. */
using UopFn = bool (*)(AotCtx &, const MicroOp &);

/**
 * One pre-decoded stage operation. Every instruction gets its own
 * micro-op, and its handler pointer is chosen at specialization time
 * for the instruction's opcode (sim/aot/fold.cpp), so the per-cycle
 * path is one predication test plus one indirect call into a body
 * whose class/op/width dispatch is already folded away.
 */
struct MicroOp
{
    UopFn fn = nullptr;
    /** Basic block whose enable signal predicates the op. */
    uint32_t block = 0;
    /** Exec/Branch: the instruction's index in AotCtx::insns. */
    uint32_t pc = 0;
    /** Branch/Jump: taken block. */
    uint32_t taken = 0;
    /** Branch: fallthrough block. */
    uint32_t fall = 0;
};

/** handler: one instruction of any opcode (decodes at run time). */
inline bool
uopExec(AotCtx &c, const MicroOp &op)
{
    return opExecInsn(c, c.insns[op.pc]);
}

/** handler: conditional branch of any opcode. */
inline bool
uopBranch(AotCtx &c, const MicroOp &op)
{
    return opBranchInsn(c, c.insns[op.pc], op.taken, op.fall);
}

/** handler: unconditional jump. */
inline bool
uopJump(AotCtx &c, const MicroOp &op)
{
    return opJump(c, op.taken);
}

/** handler: exit latch. */
inline bool
uopExit(AotCtx &c, const MicroOp &op)
{
    (void)op;
    return opExit(c);
}

/** Run one specialized stage's micro-op table. */
inline bool
runStageUops(AotCtx &c, const MicroOp *ops, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        const MicroOp &op = ops[i];
        if (!(*c.enabled)[op.block])
            continue;
        if (op.fn(c, op))
            return true;
    }
    return false;
}

// --- Native module interface ------------------------------------------------

/**
 * Signature of one generated segment function. Entry `s` of the module
 * table covers stages [s, segEnd(s)] as straight-line code; an exit op
 * returns out of the whole segment, exactly like the engine skipping
 * the remaining stages of an exited flight.
 */
using NativeStageFn = bool (*)(AotCtx &);

/**
 * The table a generated module exports through its single extern "C"
 * entry point `ehdl_aot_module`. `sourceHash` is the module's cache key
 * (native.hpp, moduleKey: the generated source's hash mixed with the
 * runtime headers' hash), which ties a loaded module to the exact
 * pipeline it specializes and the runtime it was compiled against.
 */
struct NativeModuleTable
{
    uint64_t abiVersion = 0;
    uint64_t sourceHash = 0;
    uint32_t numStages = 0;
    const NativeStageFn *stages = nullptr;
};

using NativeModuleEntry = const NativeModuleTable *(*)();

}  // namespace ehdl::sim::aot

#endif  // EHDL_SIM_AOT_RUNTIME_HPP_
