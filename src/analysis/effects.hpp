/**
 * @file
 * Per-instruction effect summaries (register defs/uses, memory footprints,
 * map accesses). These feed the data-dependency graph (paper section 3.1),
 * the ILP scheduler (3.3), liveness-based state pruning (4.3) and the
 * hazard planner (4.1).
 */

#ifndef EHDL_ANALYSIS_EFFECTS_HPP_
#define EHDL_ANALYSIS_EFFECTS_HPP_

#include <cstdint>

#include "ebpf/absint.hpp"
#include "ebpf/program.hpp"

namespace ehdl::analysis {

/** Byte-range footprint over one memory area. */
struct MemFootprint
{
    bool reads = false;
    bool writes = false;
    /** When known, the access is exactly [off, off+len). */
    bool known = false;
    int64_t off = 0;
    uint32_t len = 0;

    bool any() const { return reads || writes; }

    /** Conservative overlap test between two footprints. */
    static bool
    overlap(const MemFootprint &a, const MemFootprint &b)
    {
        if (!a.any() || !b.any())
            return false;
        if (!a.known || !b.known)
            return true;
        return a.off < b.off + b.len && b.off < a.off + a.len;
    }
};

/** Full effect summary of one instruction. */
struct Effects
{
    uint16_t regDefs = 0;  ///< bitmask over R0-R10
    uint16_t regUses = 0;

    MemFootprint stack;
    MemFootprint packet;

    bool mapRead = false;
    bool mapWrite = false;
    bool mapKnown = false;  ///< map id resolved statically
    uint16_t mapId = 0;
    /** Lookup/update/delete touch the key index (whole-map granularity). */
    bool mapIndexOp = false;
    /** Byte footprint within the entry value for pointer loads/stores. */
    MemFootprint mapVal;

    /**
     * Instruction has non-memory ordered state (prandom sequence,
     * redirect target): all such instructions stay mutually ordered.
     */
    bool ordered = false;

    /**
     * Exit instruction: its memory "reads" exist only to order it after
     * the block's side effects; liveness must ignore them (exit consumes
     * nothing but R0).
     */
    bool isExit = false;
};

/**
 * Compute the effects of instruction @p pc.
 *
 * @param prog     The program.
 * @param pc       Instruction index.
 * @param analysis Abstract-interpretation results (labels + call sites).
 */
Effects insnEffects(const ebpf::Program &prog, size_t pc,
                    const ebpf::AbsIntResult &analysis);

/** True when instruction @p j must stay ordered after @p i (i before j). */
bool dependsOn(const Effects &early, const Effects &late);

}  // namespace ehdl::analysis

#endif  // EHDL_ANALYSIS_EFFECTS_HPP_
