/**
 * @file
 * sq-saturated: one queue running each of the five paper apps with
 * back-to-back 64B frames over 10k uniform flows, default engine, no host
 * and no control plane. ExecState semantics and the cycle core do nearly
 * all of the work. The traced run adds the per-engine drain rates.
 */

#include <memory>

#include "aot_layer.hpp"
#include "ebpf/vm.hpp"
#include "workloads.hpp"

namespace ehdl::perfbench {

namespace {

const char *const kApps[] = {"firewall", "router", "tunnel", "dnat",
                             "suricata"};

/** All frames available at time zero: the pipeline never waits. */
std::vector<net::Packet>
saturatedPackets(const apps::AppSpec &spec, uint64_t seed, unsigned n,
                 Ledger *ledger)
{
    sim::TrafficConfig tc = appTraffic(spec, seed);
    tc.numFlows = 10000;
    tc.packetLen = 64;
    Span span(ledger, "sim.traffic");
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> pkts;
    pkts.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        net::Packet p = gen.next();
        p.arrivalNs = 0;
        pkts.push_back(std::move(p));
    }
    return pkts;
}

/** One app's modeled results, digest included, kept for the checks. */
struct AppRun
{
    hdl::Pipeline pipe;
    std::unique_ptr<ebpf::MapSet> maps;
    std::vector<sim::PacketOutcome> outcomes;
    uint64_t digest = 0;
};

uint64_t
digestOf(const sim::PipeSim &sim, const ebpf::MapSet &maps)
{
    Digest d;
    d.stats(sim.stats());
    d.outcomes(sim.outcomes());
    d.maps(maps);
    return d.value();
}

/**
 * Drain rate (simulated Mcycles per thread-CPU second) of every engine
 * over the same packets, median of three repeats. Each engine must
 * reproduce the interpreter's digest per app; a native request that falls
 * back records why instead of failing.
 */
void
engineRows(const std::vector<NamedApp> &apps, const std::vector<AppRun> &ref,
           const std::vector<uint64_t> &seeds, unsigned n,
           const std::string &cache_dir, Result &res)
{
    struct Engine
    {
        const char *row;
        sim::SimEngine engine;
        sim::AotBackend backend;
    };
    const Engine engines[] = {
        {"interp", sim::SimEngine::Interp, sim::AotBackend::DirectThreaded},
        {"aot", sim::SimEngine::Aot, sim::AotBackend::DirectThreaded},
        {"native", sim::SimEngine::Aot, sim::AotBackend::Native},
    };
    for (const Engine &eng : engines) {
        std::vector<double> rates;
        for (int rep = 0; rep < 3; ++rep) {
            double cpu = 0;
            uint64_t cycles = 0;
            for (size_t a = 0; a < apps.size(); ++a) {
                ebpf::MapSet maps(apps[a].spec.prog.maps);
                apps[a].spec.seedMaps(maps);
                sim::PipeSimConfig cfg;
                cfg.inputQueueCapacity = 1u << 22;
                cfg.engine = eng.engine;
                cfg.aotBackend = eng.backend;
                cfg.aotCacheDir = cache_dir;
                sim::PipeSim sim(ref[a].pipe, maps, cfg);
                for (net::Packet &p :
                     saturatedPackets(apps[a].spec, seeds[a], n, nullptr))
                    sim.offer(std::move(p));
                const double t0 = threadCpu();
                sim.drain();
                cpu += threadCpu() - t0;
                cycles += sim.stats().cycles;
                res.attempted += n;
                if (digestOf(sim, maps) != ref[a].digest) {
                    res.failed += n;
                    res.notes.push_back(std::string("engine ") + eng.row +
                                        " diverged from interp on " +
                                        apps[a].key);
                }
                if (eng.backend == sim::AotBackend::Native && rep == 0 &&
                    !sim.engineInfo().nativeLoaded)
                    res.notes.push_back(
                        "native row ran direct-threaded for " + apps[a].key +
                        ": " + sim.engineInfo().fallbackReason);
            }
            rates.push_back(static_cast<double>(cycles) / 1e6 / cpu);
        }
        res.layer[std::string("sim.pipe.engine.") + eng.row +
                  "_mcyc_per_cpu_s"] = {median(rates), "Mcyc/s"};
    }
}

}  // namespace

Result
runSqSaturated(const RunSpec &spec)
{
    std::vector<NamedApp> apps;
    for (const char *key : kApps) {
        apps.push_back(makeApp(key));
        if (spec.probe)
            break;
    }
    const unsigned n = spec.probe ? 2000 : 20000;
    std::vector<uint64_t> seeds;
    for (size_t a = 0; a < apps.size(); ++a)
        seeds.push_back(deriveSeed(spec.seed, a));

    Result res;
    Ledger ledger;
    PipeLayer pipe_layer;
    ModeledLayer modeled;
    uint64_t traced_packets = 0;
    std::vector<AppRun> kept(apps.size());

    runRounds(spec, 3, res, [&](unsigned round, Ledger *tl) {
        RoundCost c;
        Digest d;
        for (size_t a = 0; a < apps.size(); ++a) {
            const apps::AppSpec &app = apps[a].spec;
            const double s0 = wallNow();
            hdl::Pipeline pipe = compileTraced(app.prog, tl);
            auto maps = std::make_unique<ebpf::MapSet>(app.prog.maps);
            app.seedMaps(*maps);
            sim::PipeSimConfig cfg;
            cfg.inputQueueCapacity = 1u << 22;
            cfg.profilePhases = tl != nullptr;
            auto sim = std::make_unique<sim::PipeSim>(pipe, *maps, cfg);
            c.setupSec += wallNow() - s0;

            const double w0 = wallNow();
            const double p0 = processCpu();
            {
                std::vector<net::Packet> pkts =
                    saturatedPackets(app, seeds[a], n, tl);
                for (net::Packet &p : pkts)
                    sim->offer(std::move(p));
            }
            const double d0 = threadCpu();
            sim->drain();
            const double drain_cpu = threadCpu() - d0;
            const std::vector<sim::PacketOutcome> &outs = sim->outcomes();
            c.wallSec += wallNow() - w0;
            c.cpuSec += processCpu() - p0;
            c.packets += outs.size();

            const uint64_t app_digest = digestOf(*sim, *maps);
            d.u64(app_digest);
            if (tl != nullptr) {
                pipe_layer.addDrain(drain_cpu, sim->phaseProfile());
                pipe_layer.addStats(sim->stats());
                timeStatsJson(tl, sim->stats());
                traced_packets += n;
            }
            if (round == 0) {
                modeled.add(sim->stats(), outs);
                kept[a].outcomes = outs;
                kept[a].digest = app_digest;
                sim.reset();
                kept[a].pipe = std::move(pipe);
                kept[a].maps = std::move(maps);
            }
        }
        c.ops = c.packets;
        c.digest = d.value();
        return c;
    }, ledger);

    // Reference-VM check of round 0, outside every timed interval.
    double vm_sec = 0;
    uint64_t vm_pkts = 0, vm_insns = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        const apps::AppSpec &app = apps[a].spec;
        ebpf::MapSet maps(app.prog.maps);
        app.seedMaps(maps);
        ebpf::Vm vm(app.prog, maps);
        std::vector<net::Packet> pkts =
            saturatedPackets(app, seeds[a], n, nullptr);
        const std::vector<sim::PacketOutcome> &outs = kept[a].outcomes;
        if (outs.size() != pkts.size())
            res.failed += pkts.size();
        std::vector<ebpf::ExecResult> refs(pkts.size());
        const double t0 = wallNow();
        for (size_t i = 0; i < pkts.size(); ++i)
            refs[i] = vm.run(pkts[i]);
        vm_sec += wallNow() - t0;
        for (size_t i = 0; i < pkts.size() && i < outs.size(); ++i) {
            vm_insns += refs[i].insnsExecuted;
            if (outs[i].id != pkts[i].id ||
                !sameAsVm(outs[i], refs[i], pkts[i].bytes()))
                ++res.failed;
        }
        vm_pkts += pkts.size();
        if (!ebpf::MapSet::equal(maps, *kept[a].maps)) {
            ++res.failed;
            res.notes.push_back("final maps differ from the VM for " +
                                apps[a].key);
        }
    }

    modeled.report(res.modeled);
    if (!spec.traced)
        return res;
    std::vector<const hdl::Pipeline *> pipes;
    for (const AppRun &k : kept)
        pipes.push_back(&k.pipe);
    reportCommonLayers(ledger, traced_packets, res.layer);
    reportPipelineShape(pipes, res.layer);
    pipe_layer.report(res.layer);
    reportVm(vm_sec, vm_pkts, vm_insns, res.layer);
    if (!spec.probe)
        measureAotLayer(pipes, "app:" + apps[0].key, spec.aotCache, res);
    engineRows(apps, kept, seeds, n, spec.aotCache, res);
    return res;
}

}  // namespace ehdl::perfbench
