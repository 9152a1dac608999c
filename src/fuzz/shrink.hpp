/**
 * @file
 * Failing-case reduction. Given a diverging FuzzCase, the shrinker searches
 * for a smaller case that still diverges, alternating three passes until a
 * fixed point (or the run budget) is reached:
 *
 *  1. packet reduction — ddmin-style chunk removal over the workload,
 *  2. instruction deletion — ebpf::removeInsn with jump-offset repair,
 *  3. constantization — replace a register-defining instruction with
 *     `mov dst, imm`, which collapses packet/stack/map-derived values to
 *     constants and turns their whole derivation chain into dead code that
 *     pass 2 can then delete.
 *
 * Every candidate is re-verified (the corpus contract is "verifier-accepted
 * programs only") and re-run through the full differential executor; a
 * candidate is accepted only when it still diverges.
 */

#ifndef EHDL_FUZZ_SHRINK_HPP_
#define EHDL_FUZZ_SHRINK_HPP_

#include <cstddef>

#include "fuzz/case.hpp"
#include "fuzz/diff.hpp"

namespace ehdl::fuzz {

/** Shrinker knobs. */
struct ShrinkOptions
{
    /** Budget: total differential executions across all passes. */
    size_t maxRuns = 4000;
};

/** Result of a shrink. */
struct ShrinkResult
{
    FuzzCase best;             ///< smallest still-diverging case found
    Divergence divergence;     ///< the divergence `best` exhibits
    size_t runs = 0;           ///< differential executions spent
    size_t initialInsns = 0;
    size_t finalInsns = 0;
    size_t initialPackets = 0;
    size_t finalPackets = 0;
};

/**
 * Shrink @p c, which must diverge under runCase(c, run) (panics
 * otherwise — a non-diverging input indicates a caller bug). Every
 * candidate runs under @p run, the executor knobs that found the
 * divergence. Deterministic.
 */
ShrinkResult shrinkCase(const FuzzCase &c, const ShrinkOptions &opts = {},
                        const RunOptions &run = {});

}  // namespace ehdl::fuzz

#endif  // EHDL_FUZZ_SHRINK_HPP_
