/**
 * @file
 * ctl-host-paced: Router on one event-driven queue, arrivals paced at
 * 100 Gbps with CAIDA-like sizes, ~30% of flows host-destined into host
 * rings served below the PASS load (so the shell drops), and a control
 * schedule of route updates, stats reads and a stats stream. Idle
 * fast-forward, the host retire observer and ctl quiesce/apply do the work.
 */

#include <algorithm>
#include <memory>

#include "aot_layer.hpp"
#include "common/rng.hpp"
#include "ctl/controller.hpp"
#include "host/host_dma.hpp"
#include "workloads.hpp"

namespace ehdl::perfbench {

namespace {

constexpr double kHostRateMpps = 6.0;

/**
 * The router forwards every routed IPv4 packet whatever its protocol, so
 * host-destined traffic is traffic with no route: the default and /16
 * routes are withdrawn and /24 routes cover ~70% of the destination block
 * (192.168.0-253.x), leaving ~30% of flows to XDP_PASS into the host.
 */
bool
routed24(unsigned k)
{
    return (k * 2654435761u >> 7) % 10 < 7;
}

std::vector<uint8_t>
routeKey(uint32_t plen, uint8_t a, uint8_t b, uint8_t c)
{
    return {static_cast<uint8_t>(plen), 0, 0, 0, a, b, c, 0};
}

std::vector<uint8_t>
routeValue(uint8_t ifindex, Rng &rng)
{
    std::vector<uint8_t> value(16, 0);
    value[0] = ifindex;
    for (size_t i = 4; i < value.size(); ++i)
        value[i] = static_cast<uint8_t>(rng.next());
    return value;
}

void
seedRoutes(const apps::AppSpec &spec, ebpf::MapSet &maps)
{
    spec.seedMaps(maps);
    ebpf::Map &routes = *maps.byName("routes");
    routes.hostDelete(routeKey(0, 0, 0, 0));
    routes.hostDelete(routeKey(16, 192, 168, 0));
    Rng rng(24);
    for (unsigned k = 0; k < 254; ++k)
        if (routed24(k))
            routes.hostUpdate(routeKey(24, 192, 168, static_cast<uint8_t>(k)),
                              routeValue(static_cast<uint8_t>(2 + k % 4), rng));
}

std::vector<net::Packet>
pacedPackets(const apps::AppSpec &spec, uint64_t seed, unsigned n,
             Ledger *ledger)
{
    sim::TrafficConfig tc = appTraffic(spec, seed);
    tc.numFlows = 10000;
    tc.packetLen = 0;  // CAIDA-like size mix at 100 Gbps line rate
    Span span(ledger, "sim.traffic");
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> pkts;
    pkts.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        pkts.push_back(gen.next());
    return pkts;
}

/**
 * Route changes on routed /24s, a stats read every eighth slot and one
 * short stats stream near the end, spread evenly over @p end_cycle so
 * @p txns transactions land while packets flow.
 */
ctl::CtlSchedule
makeSchedule(uint64_t seed, uint64_t end_cycle, unsigned txns)
{
    Rng rng(seed);
    std::vector<uint8_t> routed;
    for (unsigned k = 0; k < 254; ++k)
        if (routed24(k))
            routed.push_back(static_cast<uint8_t>(k));
    ctl::CtlSchedule sched;
    const uint64_t step = std::max<uint64_t>(end_cycle / (txns + 1), 1);
    for (unsigned i = 1; i <= txns; ++i) {
        ctl::CtlTxn txn;
        txn.cycle = step * i;
        if (i == txns - 1) {
            txn.kind = ctl::CtlOpKind::StatsStream;
            txn.streamPeriod = 256;
            txn.streamCount = 16;
        } else if (i % 8 == 0) {
            txn.kind = ctl::CtlOpKind::StatsRead;
        } else {
            ctl::CtlMapOp op;
            op.kind = ctl::CtlOpKind::MapUpdate;
            op.map = "routes";
            op.key = routeKey(24, 192, 168,
                              routed[rng.below(routed.size())]);
            op.value =
                routeValue(static_cast<uint8_t>(2 + rng.below(4)), rng);
            txn.kind = ctl::CtlOpKind::MapUpdate;
            txn.ops.push_back(std::move(op));
        }
        sched.txns.push_back(std::move(txn));
    }
    return sched;
}

/** Forwards retirements to the host queue, timing each call. */
class TimedRetireSink final : public sim::RetireSink
{
  public:
    explicit TimedRetireSink(sim::RetireSink &next) : next_(next) {}

    void
    onRetire(uint64_t cycle, const sim::PacketOutcome &out) override
    {
        const double t0 = wallNow();
        next_.onRetire(cycle, out);
        seconds += wallNow() - t0;
        ++calls;
    }

    double seconds = 0;
    uint64_t calls = 0;

  private:
    sim::RetireSink &next_;
};

void
digestReport(Digest &d, const ctl::CtlRunReport &report)
{
    for (const ctl::CtlTxnRecord &rec : report.txns) {
        d.u64(rec.submitCycle);
        d.u64(rec.deviceCycle);
        d.u64(rec.completeCycle);
        for (const uint64_t c : rec.applyCycle)
            d.u64(c);
        for (const uint64_t r : rec.retiredBefore)
            d.u64(r);
        for (const auto &ops : rec.results)
            for (const ctl::CtlOpResult &r : ops) {
                d.u64(static_cast<uint64_t>(r.rc));
                d.u64(r.hit ? 1 : 0);
                d.bytes(r.value.data(), r.value.size());
            }
    }
}

void
digestHost(Digest &d, const host::HostQueueCounters &c)
{
    for (const uint64_t v :
         {c.enqueued, c.shellDrops, c.dmaBursts, c.dmaDescriptors,
          c.dmaBytes, c.interrupts, c.consumed, c.consumedBytes})
        d.u64(v);
}

}  // namespace

Result
runCtlHostPaced(const RunSpec &spec)
{
    const NamedApp app = makeApp("router");
    const unsigned n = spec.probe ? 8000 : 60000;
    const unsigned txns = spec.probe ? 24 : 160;
    const uint64_t traffic_seed = deriveSeed(spec.seed, 200);
    const uint64_t end_cycle =
        pacedPackets(app.spec, traffic_seed, n, nullptr).back().arrivalNs /
        4;
    const ctl::CtlSchedule sched =
        makeSchedule(deriveSeed(spec.seed, 201), end_cycle, txns);

    Result res;
    Ledger ledger;
    PipeLayer pipe_layer;
    ModeledLayer modeled;
    uint64_t traced_packets = 0;
    double retire_sec = 0;
    uint64_t retire_calls = 0;

    // Round-0 results kept for the reference check.
    std::unique_ptr<ebpf::MapSet> kept_maps;
    std::vector<sim::PacketOutcome> kept_outcomes;
    ctl::CtlRunReport kept_report;
    host::HostQueueCounters kept_host;
    uint64_t kept_pass = 0, host_drain_cycles = 0;
    unsigned kept_occ_p99 = 0;

    runRounds(spec, 3, res, [&](unsigned round, Ledger *tl) {
        RoundCost c;
        const double s0 = wallNow();
        hdl::Pipeline pipe = compileTraced(app.spec.prog, tl);
        auto maps = std::make_unique<ebpf::MapSet>(app.spec.prog.maps);
        seedRoutes(app.spec, *maps);
        sim::PipeSimConfig cfg;
        cfg.inputQueueCapacity = 1u << 22;
        cfg.schedMode = sim::SchedMode::EventDriven;
        cfg.profilePhases = tl != nullptr;
        sim::PipeSim sim(pipe, *maps, cfg);
        host::HostDmaConfig hc;
        hc.numQueues = 1;
        hc.clockHz = kClockHz;
        hc.hostRateMpps = kHostRateMpps;
        host::HostDatapath host(hc);
        host.attach(sim);
        TimedRetireSink timed(host.queue(0));
        if (tl != nullptr)
            sim.attachRetireSink(&timed);
        ctl::CtlController ctrl(sim, *maps);
        ctrl.attachHost(&host);
        c.setupSec = wallNow() - s0;

        const double w0 = wallNow();
        const double p0 = processCpu();
        for (net::Packet &p : pacedPackets(app.spec, traffic_seed, n, tl))
            sim.offer(std::move(p));
        // The controller steps the simulator up to each command, so the
        // cycle core runs inside ctrl.run() as well as in the final drain.
        const double d0 = threadCpu();
        ctl::CtlRunReport report;
        {
            Span span(tl, "ctl.run");
            report = ctrl.run(sched);
        }
        sim.drain();
        const double drain_cpu = threadCpu() - d0;
        const uint64_t host_done = host.finishAll();
        const std::vector<sim::PacketOutcome> &outs = sim.outcomes();
        c.wallSec = wallNow() - w0;
        c.cpuSec = processCpu() - p0;
        c.packets = outs.size();
        c.ops = outs.size() + report.txns.size();

        Digest d;
        d.stats(sim.stats());
        d.outcomes(outs);
        d.maps(*maps);
        digestHost(d, host.totals());
        digestReport(d, report);
        c.digest = d.value();
        if (tl != nullptr) {
            pipe_layer.addDrain(drain_cpu, sim.phaseProfile());
            pipe_layer.addStats(sim.stats());
            timeStatsJson(tl, sim.stats());
            traced_packets += n;
            retire_sec += timed.seconds;
            retire_calls += timed.calls;
            sim.attachRetireSink(nullptr);
        }
        if (round == 0) {
            modeled.add(sim.stats(), outs);
            kept_outcomes = outs;
            kept_report = report;
            kept_host = host.totals();
            kept_pass = sim.stats().passPackets;
            kept_occ_p99 = host.queue(0).occupancyPercentile(0.99);
            host_drain_cycles = std::max(host_done, sim.stats().cycles);
            kept_maps = std::move(maps);  // the simulator still uses *maps
        }
        return c;
    }, ledger);

    // Reference: replay the packets and the recorded apply log on the VM.
    std::vector<net::Packet> pkts =
        pacedPackets(app.spec, traffic_seed, n, nullptr);
    ebpf::MapSet vm_maps(app.spec.prog.maps);
    seedRoutes(app.spec, vm_maps);
    const double t0 = wallNow();
    const ctl::CtlVmReplayResult replay = ctl::replayScheduleOnVm(
        app.spec.prog, {}, pkts, kept_report, 0, vm_maps);
    const double replay_sec = wallNow() - t0;
    uint64_t vm_insns = 0;
    if (kept_outcomes.size() != pkts.size())
        res.failed += pkts.size();
    for (size_t i = 0; i < pkts.size() && i < kept_outcomes.size(); ++i) {
        const ctl::CtlVmOutcome &ref = replay.outcomes[i];
        const sim::PacketOutcome &out = kept_outcomes[i];
        vm_insns += ref.insnsExecuted;
        if (out.id != ref.id || out.action != ref.action ||
            out.trapped != ref.trapped ||
            out.redirectIfindex != ref.redirectIfindex ||
            out.bytes != ref.bytes)
            ++res.failed;
    }
    for (size_t t = 0; t < kept_report.txns.size(); ++t)
        if (kept_report.txns[t].results[0] != replay.txnResults[t])
            ++res.failed;
    if (!ebpf::MapSet::equal(vm_maps, *kept_maps)) {
        ++res.failed;
        res.notes.push_back("final router maps differ from the VM replay");
    }
    if (kept_host.enqueued != kept_pass ||
        kept_host.consumed + kept_host.shellDrops != kept_host.enqueued) {
        ++res.failed;
        res.notes.push_back("host descriptor conservation violated");
    }

    modeled.report(res.modeled);
    res.modeled["modeled_host_goodput_mpps"] = {
        static_cast<double>(kept_host.consumed) *
            static_cast<double>(kClockHz) /
            static_cast<double>(std::max<uint64_t>(host_drain_cycles, 1)) /
            1e6,
        "sim_Mpps"};
    std::vector<uint64_t> ctl_lat;
    uint64_t quiesce = 0;
    for (const ctl::CtlTxnRecord &rec : kept_report.txns) {
        ctl_lat.push_back(rec.completeCycle - rec.txn.cycle);
        for (const uint64_t apply : rec.applyCycle)
            quiesce += apply - rec.deviceCycle;
    }
    res.modeled["modeled_ctl_lat_p90_us"] = {
        static_cast<double>(percentile(ctl_lat, 0.90)) * 1e6 /
            static_cast<double>(kClockHz),
        "sim_us"};
    if (!spec.traced)
        return res;
    reportCommonLayers(ledger, traced_packets, res.layer);
    pipe_layer.report(res.layer);
    reportVm(replay_sec, pkts.size(), vm_insns, res.layer);
    res.layer["host.retire_ns_per_pkt"] = {
        retire_calls == 0 ? 0.0
                          : retire_sec * 1e9 /
                                static_cast<double>(retire_calls),
        "ns"};
    res.layer["host.shell_drops"] = {static_cast<double>(kept_host.shellDrops),
                                     "count"};
    res.layer["host.irqs"] = {static_cast<double>(kept_host.interrupts),
                              "count"};
    res.layer["host.ring_occ_p99"] = {static_cast<double>(kept_occ_p99),
                                      "desc"};
    const uint64_t runs = std::max<uint64_t>(ledger.calls("ctl.run"), 1);
    res.layer["ctl.run_s"] = {
        ledger.seconds("ctl.run") / static_cast<double>(runs), "s"};
    res.layer["ctl.vm_replay_s"] = {replay_sec, "s"};
    res.layer["ctl.txns"] = {static_cast<double>(kept_report.txns.size()),
                             "count"};
    res.layer["ctl.quiesce_cycles"] = {static_cast<double>(quiesce),
                                       "sim_cycles"};
    if (!spec.probe) {
        const hdl::Pipeline pipe = compileTraced(app.spec.prog, nullptr);
        reportPipelineShape({&pipe}, res.layer);
        measureAotLayer({&pipe}, "app:router", spec.aotCache, res);
    }
    return res;
}

}  // namespace ehdl::perfbench
