/**
 * @file
 * ehdlc — the eHDL command-line compiler. Mirrors the paper's tool flow:
 * eBPF in, VHDL out, no hardware expertise required (section 5.5).
 *
 *   ehdlc compile <prog> [options]   # VHDL (+ testbench), compile report
 *   ehdlc disasm  <prog>
 *   ehdlc verify  <prog>
 *   ehdlc report  <prog>             # pipeline + resource summary
 *   ehdlc sim     <prog> [options]   # cycle-level run under traffic
 *
 * `ehdlc <command> --help` lists a command's flags, generated from the
 * flag tables below. <prog> is textual assembly (ebpf/asm.hpp), raw
 * bytecode (.bin), an ELF object from clang -target bpf, or app:<name>
 * for a built-in app (apps::findApp), which also seeds its maps and
 * shapes `sim` traffic with its protocol hints. A rejected program lists
 * every diagnostic and exits 1; a bad flag or input exits 2.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/apps.hpp"
#include "cli.hpp"
#include "common/logging.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/codec.hpp"
#include "ebpf/disasm.hpp"
#include "ebpf/elf.hpp"
#include "ebpf/verifier.hpp"
#include "hdl/compiler.hpp"
#include "hdl/flush_model.hpp"
#include "hdl/resources.hpp"
#include "hdl/vhdl.hpp"
#include "host/host_dma.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/nic_shell.hpp"
#include "sim/stats_json.hpp"
#include "sim/traffic.hpp"

using namespace ehdl;

namespace {

const char kProgHelp[] =
    "<prog>: textual assembly (.s), raw bytecode (.bin), an ELF object\n"
    "built with clang -target bpf, or app:<name> for a built-in app\n"
    "(program, map seeding and traffic hints; an unknown name lists\n"
    "them).";

/** Load <prog>: a file is a bare program, app:<name> a whole AppSpec. */
apps::AppSpec
loadInput(const std::string &path)
{
    if (path.rfind("app:", 0) == 0)
        return apps::findApp(path);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string body = buf.str();
    const std::string name = std::filesystem::path(path).stem().string();
    apps::AppSpec spec;
    spec.seedMaps = [](ebpf::MapSet &) {};
    const std::vector<uint8_t> bytes(body.begin(), body.end());
    if (body.size() >= 4 && std::memcmp(body.data(), "\x7f" "ELF", 4) == 0) {
        spec.prog = ebpf::loadElf(bytes, name);
    } else if (std::filesystem::path(path).extension() == ".bin") {
        spec.prog.name = name;
        spec.prog.insns = ebpf::decode(bytes);
    } else {
        spec.prog = ebpf::assemble(body, name);
    }
    return spec;
}

/** Parse a flagless command's one <prog> argument. */
ebpf::Program
loadOnly(const char *cmd, int argc, char **argv)
{
    const cli::FlagTable flags("usage: ehdlc " + std::string(cmd) +
                               " <prog>\n\n" + kProgHelp);
    return loadInput(cli::single(flags.parse(argc, argv), "<prog>")).prog;
}

void
printReport(const hdl::Pipeline &pipe)
{
    const hdl::ResourceReport report = hdl::estimateResources(pipe);
    const hdl::HazardGeometry geo = hdl::hazardGeometry(pipe);
    std::printf("program '%s': %zu instructions, %zu maps\n",
                pipe.prog.name.c_str(), pipe.prog.size(),
                pipe.prog.maps.size());
    std::printf("pipeline: %zu stages (%u framing pads), max ILP %u, "
                "avg ILP %.2f\n",
                pipe.numStages(), pipe.padStages, pipe.schedule.maxIlp,
                pipe.schedule.avgIlp);
    std::printf("hazards: %zu map ports, %zu WAR/speculation buffers, "
                "%zu flush blocks",
                pipe.mapPorts.size(), pipe.warBuffers.size(),
                pipe.flushBlocks.size());
    if (geo.hasFlush)
        std::printf(" (K=%.0f, L=%.0f)", geo.k, geo.l);
    std::printf(", %zu elastic buffers\n", pipe.elasticBuffers.size());
    std::printf("latency at %u MHz: %.0f ns through the pipeline\n",
                pipe.options.clockMhz,
                pipe.numStages() * 1000.0 / pipe.options.clockMhz);
    std::printf("Alveo U50 (incl. Corundum shell): LUT %.2f%%, FF %.2f%%, "
                "BRAM %.2f%%\n",
                report.lutFrac * 100, report.ffFrac * 100,
                report.bramFrac * 100);
}

/** Write @p text to @p path and report its size as @p what. */
void
writeText(const std::string &path, const std::string &text, const char *what)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write '", path, "'");
    out << text;
    std::printf("wrote %zu bytes of %s to %s\n", text.size(), what,
                path.c_str());
}

int
cmdCompile(int argc, char **argv)
{
    std::string out_path, report_json, dump_after;
    bool report = false, testbench = false, list_passes = false;
    hdl::PipelineOptions options;
    cli::FlagTable flags(
        "usage: ehdlc compile <prog> [options]\n\n"
        "Compile <prog> into a VHDL pipeline. A rejected program exits 1\n"
        "listing every diagnostic.\n\n" +
        std::string(kProgHelp));
    flags.text("-o", "FILE", "VHDL output (default <name>_pipeline.vhd)",
               out_path)
        .toggle("--testbench", "also write FILE_tb.vhd, which drives one "
                "packet through the pipeline", testbench)
        .integer("--frame", "N", "bytes per packet frame (section 4.2)",
                 options.frameBytes, 1, 65536)
        .toggle("--no-ilp", "no parallel rows (section 3.3)",
                options.enableIlp, false)
        .toggle("--no-fusion", "no instruction fusion (section 3.2)",
                options.enableFusion, false)
        .toggle("--no-pruning", "no state pruning (section 4.3)",
                options.enablePruning, false)
        .add({"--report", "[=FILE]",
              "print the pipeline and resource summary; with =FILE write "
              "the CompileReport JSON (per-pass times, diagnostics, "
              "geometry) to FILE instead, even when compilation fails",
              [&](const std::string &v) {
                  report |= v.empty();
                  if (!v.empty())
                      report_json = v;
              },
              ""})
        .text("--dump-after", "PASS", "print the IR after compiler pass PASS",
              dump_after)
        .toggle("--list-passes", "list the compiler passes and exit",
                list_passes);
    const std::vector<std::string> args = flags.parse(argc, argv);
    if (list_passes) {
        std::printf("compiler passes, in order:\n");
        for (const hdl::Pass &pass : hdl::compilerPasses())
            std::printf("  %-14s %s\n", pass.name, pass.summary);
        return 0;
    }
    if (!dump_after.empty() && hdl::findPass(dump_after) == nullptr) {
        std::string names;
        for (const std::string &n : hdl::passNames())
            names += (names.empty() ? "" : "|") + n;
        cli::badValue("--dump-after", "one of " + names, dump_after);
    }

    const ebpf::Program prog = loadInput(cli::single(args, "<prog>")).prog;
    hdl::PassObserver observer;
    if (!dump_after.empty()) {
        observer = [&dump_after](const std::string &pass,
                                 const hdl::CompileContext &ctx) {
            if (pass == dump_after)
                std::printf("== after pass '%s' ==\n%s", pass.c_str(),
                            ctx.dump().c_str());
        };
    }
    hdl::CompileResult result =
        hdl::compileWithReport(prog, options, observer);

    if (!report_json.empty()) {
        std::ofstream json_out(report_json, std::ios::binary);
        if (!json_out)
            fatal("cannot write '", report_json, "'");
        json_out << result.report.toJson().dump() << "\n";
        std::printf("wrote compile report to %s\n", report_json.c_str());
    }
    for (const Diagnostic &d : result.report.diags.all()) {
        if (d.severity != Severity::Error)
            std::fprintf(stderr, "ehdlc: %s\n", d.str().c_str());
    }
    if (!result.pipeline) {
        std::fprintf(stderr,
                     "ehdlc: program '%s' failed to compile with %zu "
                     "error(s):\n",
                     prog.name.c_str(),
                     result.report.diags.errorCount());
        for (const Diagnostic &d : result.report.diags.all())
            if (d.severity == Severity::Error)
                std::fprintf(stderr, "  %s\n", d.str().c_str());
        return 1;
    }
    const hdl::Pipeline &pipe = *result.pipeline;
    if (report)
        printReport(pipe);
    if (out_path.empty())
        out_path = prog.name + "_pipeline.vhd";
    writeText(out_path, hdl::generateVhdl(pipe), "VHDL");
    if (testbench) {
        const net::Packet pkt = net::PacketFactory::build({});
        writeText(out_path + "_tb.vhd",
                  hdl::generateTestbench(pipe, pkt.bytes()), "testbench");
    }
    return 0;
}

int
cmdDisasm(int argc, char **argv)
{
    const ebpf::Program prog = loadOnly("disasm", argc, argv);
    for (const ebpf::MapDef &def : prog.maps)
        std::printf(".map %s %s %u %u %u\n", def.name.c_str(),
                    ebpf::mapKindName(def.kind).c_str(), def.keySize,
                    def.valueSize, def.maxEntries);
    std::printf("%s", ebpf::disasm(prog).c_str());
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    const ebpf::Program prog = loadOnly("verify", argc, argv);
    const ebpf::VerifyResult vr = ebpf::verify(prog, true);
    if (vr.ok) {
        std::printf("%s: OK (%zu instructions%s)\n", prog.name.c_str(),
                    prog.size(),
                    vr.hasBackwardJumps ? ", has bounded loops" : "");
        return 0;
    }
    std::printf("%s: FAILED\n", prog.name.c_str());
    for (const std::string &error : vr.errors)
        std::printf("  %s\n", error.c_str());
    return 1;
}

int
cmdReport(int argc, char **argv)
{
    printReport(hdl::compile(loadOnly("report", argc, argv)));
    return 0;
}

int
cmdSim(int argc, char **argv)
{
    std::string pcap_in, pcap_out, stats_out;
    uint64_t packets = 10000;
    bool host_rings = false;
    sim::MultiPipeSimConfig config;
    config.pipe.inputQueueCapacity = 1u << 20;
    host::HostDmaConfig host_config;
    sim::TrafficConfig traffic;
    cli::FlagTable flags("usage: ehdlc sim <prog> [options]\n\n"
                         "Simulate the compiled pipeline cycle by cycle "
                         "under generated or\nreplayed traffic.\n\n" +
                         std::string(kProgHelp));
    cli::addWorkloadFlags(flags, packets, traffic.numFlows);
    flags.real("--zipf", "S", "Zipf skew of flow popularity (0 = uniform)",
               traffic.zipfS, 0, 100)
        .integer("--len", "N", "frame bytes (0 = IMIX size distribution)",
                 traffic.packetLen, 0, 65535)
        .text("--pcap-in", "FILE", "replay FILE instead of generated traffic",
              pcap_in)
        .text("--pcap-out", "FILE", "write TX/redirected packets to FILE",
              pcap_out);
    cli::addReplicaFlags(flags, config.numReplicas, config.threaded);
    cli::addEngineFlags(flags, config.pipe.engine, config.pipe.aotBackend,
                        config.pipe.schedMode, config.pipe.paranoidChecks);
    flags.toggle("--profile-phases", "time the cycle-core phases (adds "
                 "\"phases\" to --stats-out)", config.pipe.profilePhases);
    cli::addHostFlags(flags, host_rings, host_config,
                      traffic.hostFlowFraction);
    cli::addOutputFlags(flags, stats_out, nullptr);
    const apps::AppSpec spec =
        loadInput(cli::single(flags.parse(argc, argv), "<prog>"));
    const unsigned replicas = config.numReplicas;
    config.threaded = config.threaded && replicas > 1;
    traffic.ipProto = spec.ipProto;
    traffic.reverseFraction = spec.reverseFraction;

    const hdl::Pipeline pipe = hdl::compile(spec.prog);
    printReport(pipe);
    ebpf::MapSet maps(spec.prog.maps);
    spec.seedMaps(maps);
    // One replica is a MultiPipeSim of one: the RSS dispatch sends every
    // packet to it and its counters are the aggregate.
    sim::MultiPipeSim multi(pipe, maps, config);
    const sim::EngineInfo &engine = multi.engineInfo();
    std::printf("engine: %s\n", engine.describe().c_str());
    if (!engine.fallbackReason.empty())
        std::printf("  native backend unavailable: %s\n",
                    engine.fallbackReason.c_str());
    std::unique_ptr<host::HostDatapath> host;
    if (host_rings) {
        host_config.numQueues = replicas;
        host_config.clockHz = config.pipe.clockHz;
        host = std::make_unique<host::HostDatapath>(host_config);
        host->attach(multi);
    }
    if (!pcap_in.empty()) {
        const std::vector<net::Packet> replay = net::readPcap(pcap_in);
        packets = replay.size();
        for (const net::Packet &pkt : replay)
            multi.offer(pkt);
    } else {
        sim::TrafficGen gen(traffic);
        for (uint64_t i = 0; i < packets; ++i)
            multi.offer(gen.next());
    }
    multi.drain();
    const std::vector<sim::PacketOutcome> outcomes = multi.outcomes();
    if (!pcap_out.empty()) {
        // Emit forwarded packets (TX/redirect) as seen on the wire.
        std::vector<net::Packet> emitted;
        for (const sim::PacketOutcome &out : outcomes) {
            if (out.action == ebpf::XdpAction::Tx ||
                out.action == ebpf::XdpAction::Redirect) {
                net::Packet pkt(out.bytes);
                pkt.arrivalNs = out.exitCycle * 4;
                emitted.push_back(std::move(pkt));
            }
        }
        net::writePcap(pcap_out, emitted);
        std::printf("wrote %zu forwarded packets to %s\n", emitted.size(),
                    pcap_out.c_str());
    }

    const sim::PipeSimStats stats = multi.stats();
    const sim::NicShellConfig shell;
    const double line_mpps =
        shell.lineRateMpps(traffic.packetLen ? traffic.packetLen : 64);
    const double pipe_mpps = stats.throughputMpps(config.pipe.clockHz);
    const double cycle_ns = 1e9 / static_cast<double>(config.pipe.clockHz);
    uint64_t actions[5] = {};
    double latency_ns = 0;
    for (const sim::PacketOutcome &out : outcomes) {
        actions[static_cast<uint32_t>(out.action) % 5]++;
        latency_ns +=
            static_cast<double>(out.exitCycle - out.entryCycle + 1) * cycle_ns;
    }
    if (!outcomes.empty())
        latency_ns /= static_cast<double>(outcomes.size());
    std::printf("\nsimulated %llu packets from %llu flows:\n",
                static_cast<unsigned long long>(packets),
                static_cast<unsigned long long>(traffic.numFlows));
    std::printf("  throughput %.1f Mpps (pipeline %.1f, line rate %.1f)\n",
                std::min(pipe_mpps, line_mpps), pipe_mpps, line_mpps);
    std::printf("  latency %.0f ns end to end\n",
                shell.shellLatencyNs + latency_ns);
    std::printf("  flushes %llu, lost %llu\n",
                static_cast<unsigned long long>(stats.flushEvents),
                static_cast<unsigned long long>(stats.lost));
    for (uint32_t a = 0; a < 5; ++a) {
        if (actions[a])
            std::printf("  %s: %llu\n",
                        ebpf::xdpActionName(static_cast<ebpf::XdpAction>(a))
                            .c_str(),
                        static_cast<unsigned long long>(actions[a]));
    }
    for (size_t r = 0; replicas > 1 && r < replicas; ++r) {
        const sim::PipeSimStats &s = multi.replica(r).stats();
        std::printf("  queue %zu: %llu packets, %llu cycles, %llu flushes\n",
                    r, static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.flushEvents));
    }
    if (host) {
        host->finishAll();
        cli::printHostSummary(*host);
    }
    if (!stats_out.empty()) {
        Json root;
        root.set("app", Json::str(spec.prog.name))
            .set("replicas", Json::integer(replicas))
            .set("threaded", Json::boolean(config.threaded))
            .set("sched", Json::str(config.pipe.schedMode ==
                                            sim::SchedMode::EventDriven
                                        ? "event"
                                        : "dense"))
            .set("engine", sim::engineJson(engine))
            .set("stats", sim::statsJson(stats, config.pipe.clockHz));
        const sim::PipeSimPhaseProfile phases = multi.phaseProfile();
        if (phases.enabled)
            root.set("phases", counters::toJson(phases));
        if (host)
            root.set("host", host::hostDatapathJson(*host));
        cli::writeJson(stats_out, root, true);
    }
    return 0;
}

int
run(int argc, char **argv)
{
    static const std::pair<const char *, int (*)(int, char **)> kCommands[] =
        {{"compile", cmdCompile}, {"disasm", cmdDisasm},
         {"verify", cmdVerify},   {"report", cmdReport},
         {"sim", cmdSim}};
    const std::string cmd = argc > 1 ? argv[1] : "";
    for (const auto &[name, command] : kCommands)
        if (cmd == name)
            return command(argc - 2, argv + 2);
    std::printf("ehdlc — eBPF/XDP to hardware pipeline compiler\n\n"
                "usage: ehdlc compile|disasm|verify|report|sim <prog> "
                "[options]\n"
                "       ehdlc <command> --help    flags of one command\n");
    if (argc < 2 || cmd == "--help" || cmd == "-h")
        return 0;
    fatal("unknown command '", cmd, "'");
}

}  // namespace

int
main(int argc, char **argv)
{
    return cli::main("ehdlc", argc, argv, run);
}
