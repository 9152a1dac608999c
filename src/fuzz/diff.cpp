#include "fuzz/diff.hpp"

#include <memory>

#include "common/logging.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"

namespace ehdl::fuzz {

namespace {

Divergence
wholeRun(const std::string &backend, const char *field, std::string detail)
{
    return Divergence{backend, {0, field, std::move(detail)}};
}

/**
 * Fuzz-mode host datapath: a deliberately tiny ring so DMA batching,
 * coalescing, TX re-emit and FIFO backpressure all trigger on the short
 * fuzz workloads. The model only observes retirements, so the
 * differential contract is unaffected by attaching it.
 */
host::HostDmaConfig
fuzzHostConfig(const RunOptions &opts, unsigned queues)
{
    host::HostDmaConfig hc;
    hc.numQueues = queues;
    hc.ringDepth = opts.hostRingDepth;
    hc.shellFifoDepth = opts.hostRingDepth;
    hc.batchSize = 4;
    hc.coalesceCount = 4;
    hc.coalesceTimeoutCycles = 64;
    hc.txReinjectFraction = 0.25;
    return hc;
}

/**
 * Descriptor conservation on a drained host queue: every PASS retirement
 * was either consumed by the host or dropped at the shell FIFO, and
 * nothing is left in flight. Violations are executor bugs surfaced as a
 * divergence with field "host".
 */
std::optional<Divergence>
checkHostQueue(const std::string &backend, const host::HostQueue &q,
               uint64_t pass_packets)
{
    const host::HostQueueCounters &c = q.counters();
    if (c.enqueued != pass_packets)
        return wholeRun(backend, "host",
                        "queue " + std::to_string(q.index()) + " saw " +
                            std::to_string(c.enqueued) +
                            " PASS retirements, pipeline retired " +
                            std::to_string(pass_packets));
    if (c.consumed + c.shellDrops != c.enqueued ||
        c.fifoOccupancy != 0 || c.ringOccupancy != 0)
        return wholeRun(backend, "host",
                        "queue " + std::to_string(q.index()) +
                            " descriptor conservation: enqueued=" +
                            std::to_string(c.enqueued) + " consumed=" +
                            std::to_string(c.consumed) + " shellDrops=" +
                            std::to_string(c.shellDrops) + " fifo=" +
                            std::to_string(c.fifoOccupancy) + " ring=" +
                            std::to_string(c.ringOccupancy));
    return std::nullopt;
}

/**
 * Run @p pipe as a MultiPipeSim of @p replicas sharded replicas: offer
 * the case's packets, execute its ctl schedule (empty for plain cases),
 * drain, and check every replica against the VM replay of its own packet
 * stream and apply log, then the host queues when attached. With
 * @p record, the run's counters, engine and VM instruction count land
 * there. Returns the first divergence.
 */
std::optional<Divergence>
runBackend(const char *backend, unsigned replicas, const FuzzCase &c,
           const RunOptions &opts, const hdl::Pipeline &pipe,
           const std::vector<net::Packet> &packets, CaseResult *record)
{
    sim::MultiPipeSimConfig mc;
    mc.numReplicas = replicas;
    mc.pipe.inputQueueCapacity = opts.inputQueueCapacity;
    mc.pipe.engine = opts.engine;
    mc.pipe.aotBackend = opts.aotBackend;
    mc.pipe.schedMode = opts.schedMode;
    mc.pipe.paranoidChecks = opts.paranoidChecks;
    try {
        ebpf::MapSet seed_maps(c.prog.maps);
        sim::MultiPipeSim multi(pipe, seed_maps, mc);
        std::unique_ptr<host::HostDatapath> host;
        if (opts.hostModel) {
            host = std::make_unique<host::HostDatapath>(
                fuzzHostConfig(opts, replicas));
            host->attach(multi);
        }
        std::vector<std::vector<net::Packet>> streams(replicas);
        for (const net::Packet &pkt : packets) {
            streams[multi.dispatch(pkt)].push_back(pkt);
            multi.offer(pkt);
        }
        ctl::CtlController ctrl(multi, opts.ctlChannel);
        const ctl::CtlRunReport report = ctrl.run(c.ctl);
        multi.drain();
        if (record != nullptr) {
            record->pipeStats = multi.stats();
            record->engineInfo = multi.engineInfo();
        }
        for (unsigned r = 0; r < replicas; ++r) {
            ebpf::MapSet vm_maps(c.prog.maps);
            if (auto m = ctl::checkReplicaAgainstVm(
                    c.prog, {}, streams[r], report, r, vm_maps,
                    multi.replica(r).outcomes(), multi.replicaMaps(r),
                    record != nullptr ? &record->vmInsns : nullptr))
                return Divergence{backend, std::move(*m)};
        }
        if (host) {
            host->finishAll();
            for (unsigned r = 0; r < replicas; ++r)
                if (auto d = checkHostQueue(
                        backend, host->queue(r),
                        multi.replica(r).stats().passPackets))
                    return d;
        }
    } catch (const PanicError &e) {
        return wholeRun(backend, "panic", e.what());
    }
    return std::nullopt;
}

}  // namespace

std::string
Divergence::describe() const
{
    return backend + " diverges on " + what.describe();
}

CaseResult
runCase(const FuzzCase &c, const RunOptions &opts)
{
    // Compile first: the pass that raised the first error classifies a
    // fail-closed rejection, which is not a divergence and costs no run.
    CaseResult result;
    hdl::CompileResult compiled = hdl::compileWithReport(c.prog, c.options);
    if (!compiled.pipeline) {
        result.rejectReason = compiled.report.diags.render();
        const Diagnostic *first = compiled.report.diags.firstError();
        result.rejectPass = first != nullptr ? first->pass : "unknown";
        return result;
    }
    result.compiled = true;
    result.numStages = compiled.pipeline->numStages();

    const std::vector<net::Packet> packets = c.materializePackets();
    result.divergence = runBackend("pipeline", 1, c, opts,
                                   *compiled.pipeline, packets, &result);
    // Sharded replicas apply every host write at their own quiescence
    // boundary; cases with a schedule check that fan-out too.
    if (!result.diverged() && !c.ctl.txns.empty() && opts.ctlReplicas >= 2)
        result.divergence = runBackend("multi", opts.ctlReplicas, c, opts,
                                       *compiled.pipeline, packets, nullptr);
    return result;
}

}  // namespace ehdl::fuzz
