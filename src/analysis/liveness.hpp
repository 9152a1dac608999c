/**
 * @file
 * Row-granular liveness over the scheduled program (paper section 4.3).
 *
 * Each pipeline stage replicates only the registers and stack bytes that
 * are live on entry to its row; everything else is pruned from the
 * hardware. In the paper's running example this shrinks most stages to a
 * single 8-byte register and eliminates the 512B stack from all but two
 * stages.
 */

#ifndef EHDL_ANALYSIS_LIVENESS_HPP_
#define EHDL_ANALYSIS_LIVENESS_HPP_

#include <bitset>
#include <cstdint>
#include <vector>

#include "analysis/schedule.hpp"

namespace ehdl::analysis {

/** Live state entering one scheduled row. */
struct RowLiveness
{
    /** Registers live-in (bitmask over R0-R10). */
    uint16_t regsIn = 0;
    /** Stack bytes live-in. */
    std::bitset<ebpf::kStackSize> stackIn;
};

/** Per-block, per-row liveness (indices match Schedule::blocks). */
struct Liveness
{
    std::vector<std::vector<RowLiveness>> blockRows;
    /** Live-out sets of each scheduled block. */
    std::vector<RowLiveness> blockOut;
};

/** Backward dataflow over the scheduled DAG. */
Liveness computeLiveness(const ebpf::Program &prog, const Cfg &cfg,
                         const Schedule &sched,
                         const ebpf::AbsIntResult &analysis);

}  // namespace ehdl::analysis

#endif  // EHDL_ANALYSIS_LIVENESS_HPP_
