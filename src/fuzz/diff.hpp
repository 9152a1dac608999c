/**
 * @file
 * The differential executor: compiles one FuzzCase, runs the compiled
 * pipeline in the cycle-level simulator and reports the first observable
 * divergence from the sequential reference VM (the golden model).
 *
 * The pipeline claim under test is the paper's section 4.1 equivalence:
 * whatever hdl::compile accepts must be observationally equal to the VM.
 * The case is compiled first; a compiler rejection (a fail-closed
 * unsupported pattern) is reported as a non-divergent "rejected" result
 * so the fuzzer can count and skip it, and costs no simulation.
 *
 * An accepted case runs through one backend function over a
 * sim::MultiPipeSim: one replica (backend "pipeline"), plus, for cases
 * carrying a host control-plane schedule (FuzzCase::ctl),
 * RunOptions::ctlReplicas sharded replicas (backend "multi"). Each run
 * offers the packets, executes the schedule through ctl::CtlController
 * (a no-op for plain cases), drains, and checks every replica with
 * ctl::checkReplicaAgainstVm against the VM replay of its own packet
 * stream and apply log: retire order, verdicts, traps, redirect targets,
 * rewritten bytes, host-op results and final map state must all agree.
 */

#ifndef EHDL_FUZZ_DIFF_HPP_
#define EHDL_FUZZ_DIFF_HPP_

#include <cstdint>
#include <optional>
#include <string>

#include "ctl/channel.hpp"
#include "ctl/controller.hpp"
#include "fuzz/case.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::fuzz {

/** One observed disagreement between a backend and the reference VM. */
struct Divergence
{
    std::string backend;  ///< "pipeline" or "multi"
    /**
     * What differed: the checker's ctl::VmMismatch, or field "host"
     * (descriptor conservation) or "panic" (the backend panicked).
     */
    ctl::VmMismatch what;

    /** "<backend> diverges on <what>". */
    std::string describe() const;
};

/** Outcome of running one case through the executor. */
struct CaseResult
{
    /** hdl::compileWithReport accepted the program. */
    bool compiled = false;
    /** Rendered diagnostics when !compiled. */
    std::string rejectReason;
    /**
     * Pass that rejected the program ("" when compiled). Structured
     * classification straight from the compiler's Diagnostics — the
     * fuzzer aggregates rejection counts per pass with it.
     */
    std::string rejectPass;

    std::optional<Divergence> divergence;

    /** Pipeline depth (when compiled). */
    size_t numStages = 0;
    /**
     * Instructions the reference VM executed checking the pipeline
     * backend (0 when the compiler rejected the case).
     */
    uint64_t vmInsns = 0;
    /** Full counters of the single-pipeline backend run (when compiled). */
    sim::PipeSimStats pipeStats;
    /** Engine that actually ran the pipeline backend (after fallback). */
    sim::EngineInfo engineInfo;

    bool diverged() const { return divergence.has_value(); }
};

/** Executor knobs. */
struct RunOptions
{
    /** Input queue depth for the pipeline simulator (large: no losses). */
    size_t inputQueueCapacity = 1u << 20;
    /**
     * Replica count of the MultiPipeSim (sharded maps) cross-check run
     * for cases carrying a ctl schedule; < 2 disables the multi-queue
     * backend for those cases.
     */
    unsigned ctlReplicas = 2;
    /** Mailbox timing for cases carrying a ctl schedule. */
    ctl::CtlChannelConfig ctlChannel;
    /**
     * Stage-execution engine for the pipeline backends (PipeSim and the
     * ctl MultiPipeSim cross-check). The differential contract is
     * engine-independent, so fuzzing under either engine checks it
     * against the VM the same way; divergences shrink the same way.
     */
    sim::SimEngine engine = sim::SimEngine::Aot;
    /** Requested AOT backend when engine == SimEngine::Aot. */
    sim::AotBackend aotBackend = sim::AotBackend::DirectThreaded;
    /**
     * Cycle scheduling for the pipeline backends. Event-driven runs are
     * contracted to be bit-identical to dense ones, so fuzzing under
     * SchedMode::EventDriven differentially checks the teleport logic.
     */
    sim::SchedMode schedMode = sim::SchedMode::Dense;
    /** Cross-check the O(1) hazard summaries against the full scan. */
    bool paranoidChecks = false;
    /**
     * Attach a small-ring host DMA datapath (src/host) to every pipeline
     * backend. The host model is a pure retirement observer, so the
     * differential contract must hold unchanged with it attached; a
     * deliberately tiny ring keeps its backpressure paths hot. After the
     * drain, descriptor conservation (consumed + shellDrops == enqueued,
     * enqueued == PASS retirements) is checked and any violation is
     * reported as a divergence with field "host".
     */
    bool hostModel = false;
    /** RX/TX ring depth of the fuzz host model (small on purpose). */
    unsigned hostRingDepth = 16;
};

/**
 * Run @p c through all backends and compare. Deterministic: same case,
 * same result. Panics escaping a backend are converted into a divergence
 * with field "panic" rather than propagated.
 */
CaseResult runCase(const FuzzCase &c, const RunOptions &opts = {});

}  // namespace ehdl::fuzz

#endif  // EHDL_FUZZ_DIFF_HPP_
