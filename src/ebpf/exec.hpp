/**
 * @file
 * Shared execution semantics for eBPF instructions.
 *
 * ExecState implements the effect of a single instruction on the program
 * state (registers, stack, packet) plus mediated map access. Both the
 * reference VM (sequential, src/ebpf/vm.hpp) and the hardware pipeline
 * simulator (parallel, src/sim) execute through this class, which is what
 * makes differential testing between the two meaningful: any divergence is
 * caused by pipeline timing (hazards), never by semantic drift.
 *
 * Values are tagged with their pointer provenance (packet / stack / ctx /
 * map value), mirroring both the Linux verifier's tracking and the memory
 * labels eHDL assigns during static analysis (paper section 3.1).
 */

#ifndef EHDL_EBPF_EXEC_HPP_
#define EHDL_EBPF_EXEC_HPP_

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/isa.hpp"
#include "ebpf/maps.hpp"
#include "ebpf/program.hpp"
#include "ebpf/xdp.hpp"
#include "net/packet.hpp"

namespace ehdl::ebpf {

/** Runtime provenance tag of a 64-bit value. */
enum class PtrTag : uint8_t {
    Scalar,
    Ctx,        ///< pointer to struct xdp_md
    Packet,     ///< pointer into the packet buffer (bits = offset)
    PacketEnd,  ///< the data_end sentinel (bits = packet length)
    Stack,      ///< pointer into the 512B stack (bits = byte offset)
    MapValue,   ///< pointer into a map entry's value bytes
    MapHandle,  ///< result of an lddw map-fd load
};

/** One tagged 64-bit value (register or spilled slot). */
struct VmValue
{
    uint64_t bits = 0;
    PtrTag tag = PtrTag::Scalar;
    uint16_t mapId = 0;
    uint64_t entry = 0;     ///< map entry index for MapValue
    uint32_t pktGen = 0;    ///< packet-pointer generation (adjust_head)

    bool isPtr() const { return tag != PtrTag::Scalar; }

    static VmValue
    scalar(uint64_t v)
    {
        VmValue out;
        out.bits = v;
        return out;
    }

    bool operator==(const VmValue &) const = default;
};

/** Thrown when a program performs an operation the hardware would trap. */
struct VmTrap
{
    std::string reason;
};

/**
 * Mediates every access to map memory so the pipeline simulator can
 * interpose hazard machinery (WAR delay buffers, flush detection). The VM
 * uses the DirectMapIo implementation, which hits the MapSet immediately.
 *
 * All addresses are (map id, entry index, byte offset) triples; `port`
 * identifies the access site (pipeline stage) for hazard bookkeeping and is
 * ignored by DirectMapIo.
 */
class MapIo
{
  public:
    virtual ~MapIo() = default;

    virtual int64_t lookup(uint32_t map_id, const uint8_t *key,
                           unsigned port) = 0;
    virtual int update(uint32_t map_id, const uint8_t *key,
                       const uint8_t *value, uint64_t flags,
                       unsigned port) = 0;
    virtual int erase(uint32_t map_id, const uint8_t *key, unsigned port) = 0;
    virtual uint64_t readValue(uint32_t map_id, uint64_t entry, uint32_t off,
                               unsigned size, unsigned port) = 0;
    virtual void writeValue(uint32_t map_id, uint64_t entry, uint32_t off,
                            unsigned size, uint64_t value, unsigned port) = 0;
    /** Atomic read-modify-write add; returns the old value. */
    virtual uint64_t atomicAdd(uint32_t map_id, uint64_t entry, uint32_t off,
                               unsigned size, uint64_t value,
                               unsigned port) = 0;
};

/** MapIo that operates directly on a MapSet (used by the reference VM). */
class DirectMapIo : public MapIo
{
  public:
    explicit DirectMapIo(MapSet &maps) : maps_(maps) {}

    int64_t lookup(uint32_t map_id, const uint8_t *key,
                   unsigned port) override;
    int update(uint32_t map_id, const uint8_t *key, const uint8_t *value,
               uint64_t flags, unsigned port) override;
    int erase(uint32_t map_id, const uint8_t *key, unsigned port) override;
    uint64_t readValue(uint32_t map_id, uint64_t entry, uint32_t off,
                       unsigned size, unsigned port) override;
    void writeValue(uint32_t map_id, uint64_t entry, uint32_t off,
                    unsigned size, uint64_t value, unsigned port) override;
    uint64_t atomicAdd(uint32_t map_id, uint64_t entry, uint32_t off,
                       unsigned size, uint64_t value, unsigned port) override;

  private:
    MapSet &maps_;
};

/** Outcome of one complete program execution. */
struct ExecResult
{
    XdpAction action = XdpAction::Aborted;
    bool trapped = false;
    std::string trapReason;
    uint64_t insnsExecuted = 0;
    uint32_t redirectIfindex = 0;
};

/**
 * The full architectural state of one in-flight program execution, plus
 * the semantics of each instruction over it.
 */
class ExecState
{
  public:
    /**
     * @param prog   The program (for map definitions).
     * @param pkt    The packet being processed (owned by caller).
     * @param mapio  Mediator for map memory.
     * @param port   Default hazard port for VM use (stage id in pipelines).
     */
    ExecState(const Program &prog, net::Packet *pkt, MapIo *mapio,
              unsigned port = 0);

    /** Reset registers/stack for a fresh execution over the packet. */
    void reset();

    /** Architectural registers. */
    std::array<VmValue, kNumRegs> regs;

    /** Return value of the program when it exits. */
    uint32_t exitCode() const { return static_cast<uint32_t>(regs[0].bits); }

    /** Recorded bpf_redirect target (valid when action is Redirect). */
    uint32_t redirectIfindex = 0;

    /** Simulated time visible through bpf_ktime_get_ns. */
    uint64_t nowNs = 0;

    /** Set the hazard port used for subsequent map accesses. */
    void setPort(unsigned port) { port_ = port; }

    // --- Instruction semantics ----------------------------------------
    // Defined inline (ebpf/exec_inline.hpp) so the AOT native backend's
    // generated code — which passes literal Insn aggregates — gets the
    // class/op/width dispatch constant-folded per instruction site.

    /** Execute a non-control-flow instruction (ALU, load, store, call). */
    void execute(const Insn &insn);

    /** Evaluate a conditional jump's predicate. */
    bool evalCond(const Insn &insn) const;

    /** Load @p size bytes through a tagged address. */
    VmValue load(const VmValue &addr, int64_t off, unsigned size) const;

    /** Store through a tagged address. */
    void store(const VmValue &addr, int64_t off, unsigned size,
               const VmValue &value);

    // --- Checkpoint support for pipeline flush replay -------------------

    /** Register mask selecting every architectural register. */
    static constexpr uint16_t kAllRegsMask = (1u << kNumRegs) - 1;

    /**
     * Copyable checkpoint of registers + stack (not packet or maps).
     *
     * The checkpoint is liveness-pruned: it records only the registers in
     * @c liveRegs and the aligned 8-byte stack slots listed in
     * @c stackSlots, mirroring the pruned pipeline registers the elastic
     * buffers of the generated hardware actually carry (paper section
     * 4.3). restore() overlays exactly the recorded state; anything the
     * pruner dropped is dead by construction and left to the caller
     * (the simulator replays from a freshly reset ExecState, so dropped
     * slots deterministically read as zero).
     */
    struct Checkpoint
    {
        /** One live 8-byte-aligned stack slot. */
        struct StackSlot
        {
            uint16_t slot = 0;  ///< aligned slot index (byte offset / 8)
            std::array<uint8_t, 8> bytes{};
            VmValue shadow{};
            bool shadowValid = false;
        };

        std::array<VmValue, kNumRegs> regs{};
        uint16_t liveRegs = 0;  ///< mask of registers recorded in @c regs
        std::vector<StackSlot> stackSlots;
        uint32_t pktGen = 0;
        uint32_t prandomSeq = 0;
    };

    /** Full (unpruned) checkpoint: every register and stack slot. */
    Checkpoint checkpoint() const;

    /**
     * Liveness-pruned checkpoint written into reusable storage so hot
     * simulator paths do not reallocate @c cp.stackSlots every crossing.
     * A stack slot is captured when any of its 8 bytes is live.
     */
    void checkpointInto(Checkpoint &cp, uint16_t live_regs,
                        const std::bitset<kStackSize> &live_stack) const;

    /**
     * Same, but with the live stack pre-resolved to a list of 8-byte slot
     * indices (hot simulator path: the bitset scan is done once per stage
     * at pipeline setup instead of once per checkpoint).
     */
    void checkpointInto(Checkpoint &cp, uint16_t live_regs,
                        const std::vector<uint16_t> &live_slots) const;

    // --- Copy-on-write checkpoint support -------------------------------
    //
    // ExecState tracks which registers / aligned 8-byte stack slots / the
    // packet buffer were written since the last incremental checkpoint.
    // checkpointDirtyInto() records only the dirty∩live subset and resets
    // the dirty sets, so a chain of incremental checkpoints shares every
    // unmodified slot with its ancestors instead of re-copying it. A
    // restore to checkpoint k overlays all valid checkpoints 0..k in
    // order onto a freshly reset state (see PipeSim::restoreFlight).
    //
    // Soundness of clearing dirty bits that were *not* recorded (dead at
    // this stage): a slot both dirty and dead here is, by liveness,
    // rewritten before any later read — so if it is live at a deeper
    // checkpoint, an intervening write re-dirtied it.

    /**
     * Record the dirty∩live registers and stack slots into @p cp, then
     * clear the register/stack dirty sets. The packet-dirty flag is left
     * to the caller (the packet buffer is owned by the simulator).
     */
    void checkpointDirtyInto(Checkpoint &cp, uint16_t live_regs,
                             const std::vector<uint16_t> &live_slots);

    bool pktDirty() const { return pktDirty_; }
    void setPktDirty(bool dirty) { pktDirty_ = dirty; }

    /** Reset all dirty sets (after a chain restore reproduced state). */
    void clearDirty()
    {
        dirtyRegs_ = 0;
        dirtyStack_ = 0;
        pktDirty_ = false;
    }

    /** Overlay the recorded registers and stack slots onto this state. */
    void restore(const Checkpoint &cp);

    const net::Packet &packet() const { return *pkt_; }
    net::Packet &packet() { return *pkt_; }

  private:
    void execAlu(const Insn &insn);
    void execLoad(const Insn &insn);
    void execStore(const Insn &insn);
    void execAtomic(const Insn &insn);
    void execCall(const Insn &insn);

    VmValue loadCtx(int64_t off, unsigned size) const;
    uint64_t readBytes(const VmValue &addr, int64_t off, unsigned len,
                       uint8_t *out) const;
    void readKey(const VmValue &addr, unsigned len,
                 std::vector<uint8_t> &out) const;

    [[noreturn]] void trap(const std::string &reason) const;

    const Program &prog_;
    net::Packet *pkt_;
    MapIo *mapio_;
    unsigned port_;

    std::vector<uint8_t> stack_;
    /** Spilled-pointer shadow per aligned 8-byte stack slot. */
    std::array<VmValue, kStackSize / 8> shadow_{};
    std::array<bool, kStackSize / 8> shadowValid_{};

    /** Generation counter bumped by bpf_xdp_adjust_head. */
    uint32_t pktGen_ = 0;
    /** Per-execution counter making bpf_get_prandom_u32 replay-stable. */
    uint32_t prandomSeq_ = 0;

    /** Registers written since the last incremental checkpoint. */
    uint16_t dirtyRegs_ = kAllRegsMask;
    /** Aligned 8-byte stack slots written since (one bit per slot). */
    uint64_t dirtyStack_ = ~uint64_t{0};
    /** Packet buffer written (stores, adjust_head/tail) since. */
    bool pktDirty_ = true;

    /** Reused key/value staging for map helpers (avoids per-call allocs). */
    mutable std::vector<uint8_t> keyScratch_;
    mutable std::vector<uint8_t> valueScratch_;
};

}  // namespace ehdl::ebpf

#include "ebpf/exec_inline.hpp"

#endif  // EHDL_EBPF_EXEC_HPP_
