/**
 * @file
 * mq4-churn: DNAT and Firewall on four sharded replicas drained on worker
 * threads. Zipf s=1.1 over 100k flows with flow churn, CAIDA-like frame
 * sizes, line-rate arrival stamps. Serial traffic generation, RSS dispatch
 * and the outcome merge sit beside the parallel drain here.
 */

#include <algorithm>
#include <memory>

#include "aot_layer.hpp"
#include "ebpf/vm.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "workloads.hpp"

namespace ehdl::perfbench {

namespace {

constexpr unsigned kReplicas = 4;
const char *const kApps[] = {"dnat", "firewall"};

std::vector<net::Packet>
churnPackets(const apps::AppSpec &spec, uint64_t seed, unsigned n,
             Ledger *ledger)
{
    sim::TrafficConfig tc = appTraffic(spec, seed);
    tc.numFlows = 100000;
    tc.zipfS = 1.1;
    tc.churnPeriod = 1024;
    tc.packetLen = 0;  // CAIDA-like size mix
    Span span(ledger, "sim.traffic");
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> pkts;
    pkts.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        pkts.push_back(gen.next());
    return pkts;
}

struct AppRun
{
    std::vector<sim::PacketOutcome> outcomes;  ///< merged, by packet id
    std::vector<std::unique_ptr<ebpf::MapSet>> shards;
};

}  // namespace

Result
runMq4Churn(const RunSpec &spec)
{
    std::vector<NamedApp> apps;
    for (const char *key : kApps) {
        apps.push_back(makeApp(key));
        if (spec.probe)
            break;
    }
    const unsigned n = spec.probe ? 4000 : 80000;
    std::vector<uint64_t> seeds;
    for (size_t a = 0; a < apps.size(); ++a)
        seeds.push_back(deriveSeed(spec.seed, 100 + a));

    Result res;
    Ledger ledger;
    PipeLayer pipe_layer;
    ModeledLayer modeled;
    uint64_t traced_packets = 0;
    double drain_wall = 0, imbalance = 0;
    unsigned imbalance_runs = 0;
    std::vector<AppRun> kept(apps.size());

    runRounds(spec, 3, res, [&](unsigned round, Ledger *tl) {
        RoundCost c;
        Digest d;
        for (size_t a = 0; a < apps.size(); ++a) {
            const apps::AppSpec &app = apps[a].spec;
            const double s0 = wallNow();
            hdl::Pipeline pipe = compileTraced(app.prog, tl);
            ebpf::MapSet seed_maps(app.prog.maps);
            app.seedMaps(seed_maps);
            sim::MultiPipeSimConfig cfg;
            cfg.numReplicas = kReplicas;
            cfg.mapMode = sim::MapMode::Sharded;
            cfg.threaded = true;
            cfg.pipe.inputQueueCapacity = 1u << 22;
            cfg.pipe.profilePhases = tl != nullptr;
            sim::MultiPipeSim multi(pipe, seed_maps, cfg);
            c.setupSec += wallNow() - s0;

            const double w0 = wallNow();
            const double p0 = processCpu();
            {
                std::vector<net::Packet> pkts =
                    churnPackets(app, seeds[a], n, tl);
                Span span(tl, "sim.multi.dispatch");
                for (net::Packet &p : pkts)
                    multi.offer(std::move(p));
            }
            const double dw0 = wallNow();
            const double dc0 = processCpu();
            multi.drain();
            const double dcpu = processCpu() - dc0;
            const double dwall = wallNow() - dw0;
            std::vector<sim::PacketOutcome> outs;
            {
                Span span(tl, "sim.multi.merge");
                outs = multi.outcomes();
            }
            c.wallSec += wallNow() - w0;
            c.cpuSec += processCpu() - p0;
            c.packets += outs.size();

            const sim::PipeSimStats agg = multi.stats();
            Digest app_digest;
            app_digest.stats(agg);
            app_digest.outcomes(outs);
            for (size_t r = 0; r < kReplicas; ++r) {
                app_digest.stats(multi.replica(r).stats());
                app_digest.maps(multi.replicaMaps(r));
            }
            d.u64(app_digest.value());
            if (tl != nullptr) {
                uint64_t max_done = 0, sum_done = 0;
                for (size_t r = 0; r < kReplicas; ++r) {
                    const sim::PipeSimStats &s = multi.replica(r).stats();
                    max_done = std::max(max_done, s.completed);
                    sum_done += s.completed;
                    pipe_layer.addStats(s);
                }
                pipe_layer.addDrain(dcpu, multi.phaseProfile());
                drain_wall += dwall;
                imbalance += sum_done == 0
                                 ? 0.0
                                 : static_cast<double>(max_done) *
                                       kReplicas /
                                       static_cast<double>(sum_done);
                ++imbalance_runs;
                timeStatsJson(tl, agg);
                traced_packets += n;
            }
            if (round == 0) {
                modeled.add(agg, outs);
                kept[a].outcomes = std::move(outs);
                for (size_t r = 0; r < kReplicas; ++r) {
                    auto shard =
                        std::make_unique<ebpf::MapSet>(app.prog.maps);
                    shard->copyContentsFrom(multi.replicaMaps(r));
                    kept[a].shards.push_back(std::move(shard));
                }
            }
        }
        c.ops = c.packets;
        c.digest = d.value();
        return c;
    }, ledger);

    // Reference VM per replica: each replica's packets, in offer order,
    // over its own seeded shard, with rx_queue_index set like dispatch().
    double vm_sec = 0;
    uint64_t vm_pkts = 0, vm_insns = 0;
    for (size_t a = 0; a < apps.size(); ++a) {
        const apps::AppSpec &app = apps[a].spec;
        std::vector<std::unique_ptr<ebpf::MapSet>> shards;
        std::vector<std::unique_ptr<ebpf::Vm>> vms;
        for (unsigned r = 0; r < kReplicas; ++r) {
            shards.push_back(std::make_unique<ebpf::MapSet>(app.prog.maps));
            app.seedMaps(*shards.back());
            vms.push_back(std::make_unique<ebpf::Vm>(app.prog, *shards[r]));
        }
        std::vector<net::Packet> pkts =
            churnPackets(app, seeds[a], n, nullptr);
        std::vector<ebpf::ExecResult> refs(pkts.size());
        const double t0 = wallNow();
        for (size_t i = 0; i < pkts.size(); ++i) {
            const uint32_t r =
                sim::MultiPipeSim::symmetricFlowHash(pkts[i]) % kReplicas;
            pkts[i].rxQueueIndex = r;
            refs[i] = vms[r]->run(pkts[i]);
        }
        vm_sec += wallNow() - t0;
        const std::vector<sim::PacketOutcome> &outs = kept[a].outcomes;
        if (outs.size() != pkts.size())
            res.failed += pkts.size();
        for (size_t i = 0; i < pkts.size() && i < outs.size(); ++i) {
            vm_insns += refs[i].insnsExecuted;
            if (outs[i].id != pkts[i].id ||
                !sameAsVm(outs[i], refs[i], pkts[i].bytes()))
                ++res.failed;
        }
        vm_pkts += pkts.size();
        for (unsigned r = 0; r < kReplicas; ++r) {
            if (!ebpf::MapSet::equal(*shards[r], *kept[a].shards[r])) {
                ++res.failed;
                res.notes.push_back("final maps of replica " +
                                    std::to_string(r) +
                                    " differ from the VM for " +
                                    apps[a].key);
            }
        }
    }

    modeled.report(res.modeled);
    if (!spec.traced)
        return res;
    reportCommonLayers(ledger, traced_packets, res.layer);
    pipe_layer.report(res.layer);
    reportVm(vm_sec, vm_pkts, vm_insns, res.layer);
    res.layer["sim.multi.dispatch_ns_per_pkt"] = {
        nsPer(ledger, "sim.multi.dispatch", traced_packets), "ns"};
    const uint64_t merges = ledger.calls("sim.multi.merge");
    res.layer["sim.multi.merge_s"] = {
        merges == 0 ? 0.0
                    : ledger.seconds("sim.multi.merge") /
                          static_cast<double>(merges),
        "s"};
    res.layer["sim.multi.drain_cpu_over_wall"] = {
        drain_wall > 0 ? pipe_layer.drainCpuSec / drain_wall : 0.0, "ratio"};
    res.layer["sim.multi.replica_imbalance"] = {
        imbalance_runs == 0 ? 0.0 : imbalance / imbalance_runs, "ratio"};
    if (!spec.probe) {
        std::vector<hdl::Pipeline> pipes;
        std::vector<const hdl::Pipeline *> ptrs;
        for (const NamedApp &app : apps)
            pipes.push_back(compileTraced(app.spec.prog, nullptr));
        for (const hdl::Pipeline &p : pipes)
            ptrs.push_back(&p);
        reportPipelineShape(ptrs, res.layer);
        measureAotLayer(ptrs, "app:" + apps[0].key, spec.aotCache, res);
    }
    return res;
}

}  // namespace ehdl::perfbench
