#include "fuzz/shrink.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "ebpf/mutate.hpp"
#include "ebpf/verifier.hpp"

namespace ehdl::fuzz {

namespace {

/** Shared predicate state: counts runs and remembers the last divergence. */
class Oracle
{
  public:
    Oracle(const ShrinkOptions &opts, const RunOptions &run)
        : opts_(opts), run_(run)
    {
    }

    /** True when @p candidate still verifies and still diverges. */
    bool
    stillFails(const FuzzCase &candidate, Divergence *out)
    {
        if (runs_ >= opts_.maxRuns)
            return false;
        if (candidate.packets.empty() || candidate.prog.insns.empty())
            return false;
        if (!ebpf::verify(candidate.prog).ok)
            return false;
        ++runs_;
        CaseResult r;
        try {
            r = runCase(candidate, run_);
        } catch (const FatalError &) {
            // Mutation produced a program some backend refuses outright
            // (e.g. unreachable trailing code the verifier never visits
            // but CFG construction rejects): not a reproducer.
            return false;
        }
        if (!r.diverged())
            return false;
        if (out)
            *out = *r.divergence;
        return true;
    }

    size_t runs() const { return runs_; }
    bool exhausted() const { return runs_ >= opts_.maxRuns; }

  private:
    const ShrinkOptions &opts_;
    const RunOptions &run_;
    size_t runs_ = 0;
};

/** ddmin-style packet reduction: drop chunks, halving the chunk size. */
bool
shrinkPackets(FuzzCase &best, Divergence &div, Oracle &oracle)
{
    bool any = false;
    size_t chunk = std::max<size_t>(1, best.packets.size() / 2);
    while (chunk >= 1 && !oracle.exhausted()) {
        bool removed = false;
        for (size_t start = 0;
             start < best.packets.size() && !oracle.exhausted();) {
            FuzzCase candidate = best;
            const size_t end =
                std::min(start + chunk, candidate.packets.size());
            candidate.packets.erase(candidate.packets.begin() + start,
                                    candidate.packets.begin() + end);
            if (oracle.stillFails(candidate, &div)) {
                best = std::move(candidate);
                removed = true;
                any = true;
                // Same start now addresses the next chunk.
            } else {
                start += chunk;
            }
        }
        if (!removed) {
            if (chunk == 1)
                break;
            chunk /= 2;
        }
    }
    return any;
}

/** Delete instructions one at a time, scanning from the end. */
bool
shrinkInsns(FuzzCase &best, Divergence &div, Oracle &oracle)
{
    bool any = false;
    bool progress = true;
    while (progress && !oracle.exhausted()) {
        progress = false;
        for (size_t i = best.prog.insns.size(); i-- > 0;) {
            if (oracle.exhausted())
                break;
            const auto mutant = ebpf::removeInsn(best.prog, i);
            if (!mutant)
                continue;
            FuzzCase candidate = best;
            candidate.prog = *mutant;
            if (oracle.stillFails(candidate, &div)) {
                best = std::move(candidate);
                progress = true;
                any = true;
            }
        }
    }
    return any;
}

/** Replace register-defining instructions with `mov dst, imm`. */
bool
constantizeInsns(FuzzCase &best, Divergence &div, Oracle &oracle)
{
    bool any = false;
    for (size_t i = best.prog.insns.size(); i-- > 0;) {
        for (const int32_t imm : {0, 1}) {
            if (oracle.exhausted())
                return any;
            const auto mutant = ebpf::constantizeInsn(best.prog, i, imm);
            if (!mutant)
                continue;
            FuzzCase candidate = best;
            candidate.prog = *mutant;
            if (oracle.stillFails(candidate, &div)) {
                best = std::move(candidate);
                any = true;
                break;  // this index is now a mov K; move on
            }
        }
    }
    return any;
}

/** Drop control-plane transactions one at a time, scanning from the end. */
bool
shrinkCtl(FuzzCase &best, Divergence &div, Oracle &oracle)
{
    bool any = false;
    bool progress = true;
    while (progress && !oracle.exhausted()) {
        progress = false;
        for (size_t i = best.ctl.txns.size(); i-- > 0;) {
            if (oracle.exhausted())
                break;
            FuzzCase candidate = best;
            candidate.ctl.txns.erase(candidate.ctl.txns.begin() + i);
            if (oracle.stillFails(candidate, &div)) {
                best = std::move(candidate);
                progress = true;
                any = true;
            }
        }
    }
    return any;
}

/** True when some op in @p sched addresses map name @p name. */
bool
ctlReferencesMap(const ctl::CtlSchedule &sched, const std::string &name)
{
    for (const ctl::CtlTxn &txn : sched.txns)
        for (const ctl::CtlMapOp &op : txn.ops)
            if (op.map == name)
                return true;
    return false;
}

/** Drop map declarations no lddw map-load references any more. */
bool
dropUnusedMaps(FuzzCase &best, Divergence &div, Oracle &oracle)
{
    // Map ids are positional (lddw imm indexes prog.maps), so only a
    // suffix of fully-unreferenced maps can be dropped without renumbering.
    bool any = false;
    while (!best.prog.maps.empty() && !oracle.exhausted()) {
        const uint32_t last =
            static_cast<uint32_t>(best.prog.maps.size()) - 1;
        bool referenced = false;
        for (const ebpf::Insn &insn : best.prog.insns) {
            if (insn.isLddw() && insn.isMapLoad &&
                static_cast<uint32_t>(insn.imm) == last) {
                referenced = true;
                break;
            }
        }
        // Host schedules address maps by name; dropping a map that a
        // surviving ctl op still targets would make the case invalid
        // (CtlController rejects unknown map names) rather than smaller.
        if (!referenced &&
            ctlReferencesMap(best.ctl, best.prog.maps[last].name))
            referenced = true;
        if (referenced)
            break;
        FuzzCase candidate = best;
        candidate.prog.maps.pop_back();
        if (!oracle.stillFails(candidate, &div))
            break;
        best = std::move(candidate);
        any = true;
    }
    return any;
}

}  // namespace

ShrinkResult
shrinkCase(const FuzzCase &c, const ShrinkOptions &opts,
           const RunOptions &run)
{
    ShrinkResult result;
    result.initialInsns = c.prog.insns.size();
    result.initialPackets = c.packets.size();
    result.best = c;

    Oracle oracle(opts, run);
    if (!oracle.stillFails(c, &result.divergence))
        panic("shrinkCase called on a non-diverging case '", c.name, "'");

    // Alternate the passes until none of them makes progress: control-plane
    // transactions first (each drop removes a quiesce/drain from every
    // subsequent run), then packet reduction (it makes every run cheaper),
    // then deletion, then constantization (which unlocks further deletion).
    bool progress = true;
    while (progress && !oracle.exhausted()) {
        progress = false;
        progress |= shrinkCtl(result.best, result.divergence, oracle);
        progress |= shrinkPackets(result.best, result.divergence, oracle);
        progress |= shrinkInsns(result.best, result.divergence, oracle);
        progress |=
            constantizeInsns(result.best, result.divergence, oracle);
        progress |= dropUnusedMaps(result.best, result.divergence, oracle);
    }

    result.best.expectDivergence = true;
    result.runs = oracle.runs();
    result.finalInsns = result.best.prog.insns.size();
    result.finalPackets = result.best.packets.size();
    return result;
}

}  // namespace ehdl::fuzz
