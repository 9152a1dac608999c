/**
 * @file
 * Host control-plane driver: runs a scripted `.ctl` schedule (format in
 * src/ctl/command.hpp) over the modeled PCIe mailbox against a built-in
 * app simulated under generated line-rate traffic (the app's protocol
 * hints, flow count and rate from the flags). Prints the apply log as a
 * table and writes it with the final stats as JSON (--stats-out).
 *
 *   ehdl-ctl run SCHEDULE.ctl [options]    # flags: ehdl-ctl --help
 *
 * `--poll-stats N` adds a side-band stats_read every N cycles. `--verify`
 * checks every replica against the VM replay of its packets and apply log
 * (ctl::checkReplicaAgainstVm) and exits 2 naming the first mismatch;
 * shared-map mode has no global packet order to replay, so it cannot be
 * verified.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "cli.hpp"
#include "common/logging.hpp"
#include "ctl/controller.hpp"
#include "hdl/compiler.hpp"
#include "host/host_dma.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/stats_json.hpp"
#include "sim/traffic.hpp"

namespace {

using namespace ehdl;

/** Inject a periodic stats_read every @p period cycles over the run. */
void
addStatsPolling(ctl::CtlSchedule &sched, uint64_t period, uint64_t end)
{
    for (uint64_t cycle = period; cycle <= end; cycle += period) {
        ctl::CtlTxn txn;
        txn.cycle = cycle;
        txn.kind = ctl::CtlOpKind::StatsRead;
        sched.txns.push_back(std::move(txn));
    }
    std::stable_sort(sched.txns.begin(), sched.txns.end(),
                     [](const ctl::CtlTxn &a, const ctl::CtlTxn &b) {
                         return a.cycle < b.cycle;
                     });
}

int
run(int argc, char **argv)
{
    std::string app = "router_ipv4", stats_out;
    std::vector<std::pair<std::string, std::string>> swaps;
    sim::MultiPipeSimConfig mc;
    mc.pipe.inputQueueCapacity = 1u << 20;
    uint64_t packets = 2000, poll_stats = 0;
    sim::TrafficConfig tc;
    tc.numFlows = 64;
    tc.seed = 42;
    ctl::CtlChannelConfig channel;
    bool verify = false, quiet = false, host_rings = false;
    host::HostDmaConfig host_config;
    cli::FlagTable flags(
        "usage: ehdl-ctl run SCHEDULE.ctl [options]\n\n"
        "Runs a host control-plane schedule against a built-in app\n"
        "compiled and simulated under generated line-rate traffic.");
    flags.text("--app", "NAME", "built-in app, with or without the app: "
               "prefix (apps::findApp)", app)
        .add({"--swap", "L=NAME", "register app NAME as swap_program target L",
              [&swaps](const std::string &v) {
                  const size_t eq = v.find('=');
                  if (eq == 0 || eq == std::string::npos || eq + 1 == v.size())
                      cli::badValue("--swap", "LABEL=APP", v);
                  swaps.emplace_back(v.substr(0, eq), v.substr(eq + 1));
              },
              ""});
    cli::addReplicaFlags(flags, mc.numReplicas, mc.threaded);
    flags.choice("--map-mode", "replica maps: per-replica shards or one "
                 "shared set (lockstep)", mc.mapMode,
                 {{"sharded", sim::MapMode::Sharded},
                  {"shared", sim::MapMode::Shared}});
    cli::addWorkloadFlags(flags, packets, tc.numFlows);
    flags.real("--rate", "GBPS", "line rate", tc.lineRateGbps, 1e-3, 1e6)
        .integer("--rtt", "N", "mailbox round-trip latency in 4 ns shell "
                 "cycles", channel.roundTripCycles, 0, 1ull << 40)
        .integer("--inflight", "N", "mailbox in-flight transaction window",
                 channel.maxInFlight, 1, 1u << 16);
    cli::addEngineFlags(flags, mc.pipe.engine, mc.pipe.aotBackend,
                        mc.pipe.schedMode, mc.pipe.paranoidChecks);
    flags.integer("--poll-stats", "N", "add a stats_read every N cycles "
                  "(0 = none)", poll_stats, 0, 1ull << 40);
    cli::addHostFlags(flags, host_rings, host_config, tc.hostFlowFraction);
    flags.toggle("--verify", "cross-check against the reference VM replay "
                 "(single or sharded backends)", verify);
    cli::addOutputFlags(flags, stats_out, &quiet);
    std::vector<std::string> args = flags.parse(argc - 1, argv + 1);
    if (!args.empty() && args.front() == "run")
        args.erase(args.begin());
    const std::string schedule_path = cli::single(args, "SCHEDULE.ctl");
    const unsigned replicas = mc.numReplicas;
    if (verify && replicas >= 2 && mc.mapMode == sim::MapMode::Shared)
        fatal("--verify is unavailable with --map-mode shared (no global "
              "sequential packet order to replay)");

    // Application + swap targets: compile everything up front. The VM
    // side of --verify replays swaps from the same registry.
    const apps::AppSpec spec = apps::findApp(app);
    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    std::map<std::string, apps::AppSpec> swap_apps;
    std::map<std::string, hdl::Pipeline> swap_pipes;
    std::map<std::string, const ebpf::Program *> vm_programs;
    for (const auto &[label, ref] : swaps) {
        const apps::AppSpec &s = swap_apps[label] = apps::findApp(ref);
        swap_pipes.insert_or_assign(label, hdl::compile(s.prog));
        vm_programs[label] = &s.prog;
    }

    // Workload: the app's suggested traffic shape at the requested rate.
    ctl::CtlSchedule sched = ctl::loadSchedule(schedule_path);
    tc.ipProto = spec.ipProto;
    tc.reverseFraction = spec.reverseFraction;
    sim::TrafficGen gen(tc);
    std::vector<net::Packet> stream;
    stream.reserve(packets);
    for (uint64_t i = 0; i < packets; ++i)
        stream.push_back(gen.next());
    if (poll_stats > 0)
        addStatsPolling(sched, poll_stats, gen.nowNs() / 4 + 2000);

    // One replica runs as a MultiPipeSim of one, where the map mode and
    // threading make no difference: pin the settings every mode accepts.
    sim::MultiPipeSimConfig run_config = mc;
    if (replicas == 1) {
        run_config.mapMode = sim::MapMode::Sharded;
        run_config.threaded = false;
    }
    ebpf::MapSet seed(spec.prog.maps);
    spec.seedMaps(seed);
    sim::MultiPipeSim multi(pipe, seed, run_config);
    std::unique_ptr<host::HostDatapath> host;
    if (host_rings) {
        host_config.numQueues = replicas;
        host = std::make_unique<host::HostDatapath>(host_config);
        host->attach(multi);
    }
    std::vector<std::vector<net::Packet>> streams(replicas);
    for (const net::Packet &pkt : stream)
        streams[multi.dispatch(pkt)].push_back(pkt);
    for (const net::Packet &pkt : stream)
        multi.offer(pkt);
    ctl::CtlController ctrl(multi, channel);
    ctrl.attachHost(host.get());
    for (const auto &[label, p] : swap_pipes)
        ctrl.addProgram(label, p);
    const ctl::CtlRunReport report = ctrl.run(sched);
    multi.drain();
    const sim::PipeSimStats final_stats = multi.stats();
    const sim::EngineInfo &engine_info = multi.engineInfo();
    for (unsigned r = 0; verify && r < replicas; ++r) {
        ebpf::MapSet vm_maps(spec.prog.maps);
        spec.seedMaps(vm_maps);
        if (const auto m = ctl::checkReplicaAgainstVm(
                spec.prog, vm_programs, streams[r], report, r, vm_maps,
                multi.replica(r).outcomes(), multi.replicaMaps(r)))
            fatal("verify: replica ", r, " diverges on ", m->describe());
    }
    if (host)
        host->finishAll();

    if (!quiet) {
        std::cout << "app " << spec.prog.name << ", " << replicas
                  << " replica(s), " << stream.size() << " packets, "
                  << report.txns.size() << " transactions, engine "
                  << engine_info.describe() << "\n";
        if (!engine_info.fallbackReason.empty())
            std::cout << "engine fallback: " << engine_info.fallbackReason
                      << "\n";
        for (const ctl::CtlTxnRecord &rec : report.txns) {
            std::cout << "  @" << rec.txn.cycle << " "
                      << ctl::ctlOpKindName(rec.txn.kind) << ": submit="
                      << rec.submitCycle << " device=" << rec.deviceCycle
                      << " complete=" << rec.completeCycle;
            if (!rec.statsSnapshot.empty())
                std::cout << " completed="
                          << rec.statsSnapshot[0].completed;
            if (!rec.streamSamples.empty())
                std::cout << " samples="
                          << rec.streamSamples[0].size() << "x"
                          << rec.streamSamples.size() << " @"
                          << rec.txn.streamPeriod << "cyc";
            std::cout << "\n";
        }
        std::cout << "final: " << final_stats.completed << " completed, "
                  << final_stats.lost << " lost, " << final_stats.cycles
                  << " cycles, "
                  << final_stats.throughputMpps(250'000'000) << " Mpps\n";
        if (host)
            cli::printHostSummary(*host);
        if (verify)
            std::cout << "verify: OK (VM replay matches)\n";
    }

    if (!stats_out.empty()) {
        Json root;
        root.set("app", Json::str(spec.prog.name))
            .set("schedule", Json::str(schedule_path));
        root.set("backend",
                 Json::str(replicas == 1 ? "pipesim" : "multipipesim"))
            .set("replicas", Json::integer(replicas))
            .set("mapMode",
                 Json::str(mc.mapMode == sim::MapMode::Sharded ? "sharded"
                                                               : "shared"))
            .set("threaded", Json::boolean(mc.threaded))
            .set("channel",
                 Json()
                     .set("roundTripCycles",
                          Json::integer(channel.roundTripCycles))
                     .set("maxInFlight", Json::integer(channel.maxInFlight)))
            .set("workload",
                 Json()
                     .set("packets", Json::integer(stream.size()))
                     .set("flows", Json::integer(tc.numFlows))
                     .set("rateGbps", Json::num(tc.lineRateGbps)))
            .set("engine",
                 Json()
                     .set("active", Json::str(engine_info.describe()))
                     .set("aotAvailable",
                          Json::boolean(engine_info.nativeLoaded))
                     .set("fallbackReason",
                          Json::str(engine_info.fallbackReason)))
            .set("finalStats", statsJson(final_stats, 250'000'000))
            .set("verified", Json::boolean(verify))
            .set("report", ctl::reportJson(report));
        if (host)
            root.set("host", host::hostDatapathJson(*host));
        cli::writeJson(stats_out, root, !quiet);
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    return cli::main("ehdl-ctl", argc, argv, run);
}
