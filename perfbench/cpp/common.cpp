#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "hdl/compiler.hpp"
#include "hdl/passes/pass.hpp"
#include "sim/stats_json.hpp"

namespace ehdl::perfbench {

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpu()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpu()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
calibrationSec()
{
    // A data-dependent walk over a 256 KiB table with unpredictable
    // branches: the cache and branch profile of an interpreter, using
    // none of the code under test, so no toolchain change moves it. (A
    // variant that also walked a 4 MiB table swung 3x under load and
    // tracked the workloads worse.)
    std::vector<uint32_t> table(1u << 16);
    for (uint32_t k = 0; k < table.size(); ++k)
        table[k] = k * 2654435761u;
    const double t0 = wallNow();
    uint32_t x = 1, acc = 0;
    for (int k = 0; k < 1000000; ++k) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        const uint32_t v = table[(x ^ acc) & 0xffff];
        acc = (v & 1) != 0 ? acc + v : acc ^ (v >> 3);
        table[x & 0xffff] = acc;
    }
    const double sec = wallNow() - t0;
    // Consume the result so the walk cannot be optimized away.
    return acc == 0x5eed ? sec + 1e-12 : sec;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t
percentile(std::vector<uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
    if (rank >= v.size())
        rank = v.size() - 1;
    return v[rank];
}

void
Ledger::add(const std::string &name, double seconds)
{
    Acc &acc = spans_[name];
    acc.seconds += seconds;
    ++acc.calls;
}

double
Ledger::seconds(const std::string &name) const
{
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : it->second.seconds;
}

uint64_t
Ledger::calls(const std::string &name) const
{
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0 : it->second.calls;
}

double
nsPer(const Ledger &ledger, const std::string &span, uint64_t count)
{
    return count == 0 ? 0.0
                      : ledger.seconds(span) * 1e9 /
                            static_cast<double>(count);
}

void
Digest::bytes(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ull;
    }
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    bytes(s.data(), s.size());
}

void
Digest::stats(const sim::PipeSimStats &s)
{
    // The counters pipe_sim.hpp declares contracted (bit-identical across
    // engines and scheduling modes); instrumentation counters are left out.
    for (const uint64_t v :
         {s.cycles, s.offered, s.accepted, s.lost, s.completed,
          s.flushEvents, s.flushedPackets, s.replayedStages, s.stallCycles,
          s.passPackets, s.dropPackets, s.txPackets, s.redirectPackets,
          s.abortedPackets})
        u64(v);
}

void
Digest::outcomes(const std::vector<sim::PacketOutcome> &outs)
{
    u64(outs.size());
    for (const sim::PacketOutcome &o : outs) {
        u64(o.id);
        u64(static_cast<uint64_t>(o.action));
        u64(o.redirectIfindex);
        u64(o.trapped ? 1 : 0);
        u64(o.entryCycle);
        u64(o.exitCycle);
        u64(o.bytes.size());
        bytes(o.bytes.data(), o.bytes.size());
    }
}

void
Digest::maps(const ebpf::MapSet &maps)
{
    u64(maps.size());
    for (uint32_t id = 0; id < maps.size(); ++id) {
        for (const auto &[key, value] : maps.at(id).snapshot()) {
            u64(key.size());
            bytes(key.data(), key.size());
            u64(value.size());
            bytes(value.data(), value.size());
        }
    }
}

bool
sameAsVm(const sim::PacketOutcome &out, const ebpf::ExecResult &ref,
         const std::vector<uint8_t> &ref_bytes)
{
    return out.action == ref.action &&
           out.redirectIfindex == ref.redirectIfindex &&
           out.trapped == ref.trapped && out.bytes == ref_bytes;
}

NamedApp
makeApp(const std::string &key)
{
    static const std::pair<const char *, apps::AppSpec (*)()> kApps[] = {
        {"firewall", apps::makeSimpleFirewall},
        {"router", apps::makeRouterIpv4},
        {"tunnel", apps::makeTxIpTunnel},
        {"dnat", apps::makeDnat},
        {"suricata", apps::makeSuricataFilter},
    };
    for (const auto &[name, make] : kApps)
        if (key == name)
            return {key, make()};
    throw std::runtime_error("unknown app '" + key + "'");
}

sim::TrafficConfig
appTraffic(const apps::AppSpec &spec, uint64_t seed)
{
    sim::TrafficConfig tc;
    tc.ipProto = spec.ipProto;
    tc.reverseFraction = spec.reverseFraction;
    tc.seed = seed;
    return tc;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 finalizer over (seed, stream).
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

void
runRounds(const RunSpec &spec, unsigned min_rounds, Result &res,
          const std::function<RoundCost(unsigned, Ledger *)> &round,
          Ledger &ledger)
{
    const double start = wallNow();
    for (unsigned i = 0;; ++i) {
        const bool traced = spec.traced && i % 2 == 1;
        const double speed =
            std::pow(calibrationSec() / kCalibRefSec, kLoadExponent);
        const RoundCost c = round(i, traced ? &ledger : nullptr);
        res.attempted += c.ops;
        if (i == 0) {
            res.digest = c.digest;
        } else if (c.digest != res.digest) {
            res.digestStable = false;
            res.failed += c.ops;
        }
        if (traced) {
            res.tracedWall.push_back(c.wallSec);
        } else {
            const double pkts = static_cast<double>(c.packets);
            res.untracedWall.push_back(c.wallSec);
            res.speed.push_back(speed);
            res.setupSec.push_back(c.setupSec);
            res.pps.push_back(pkts / c.wallSec);
            res.cpuNsPerPkt.push_back(pkts > 0 ? c.cpuSec * 1e9 / pkts : 0.0);
            res.opsPerSec.push_back(static_cast<double>(c.ops) / c.wallSec);
        }
        if (i + 1 >= min_rounds && wallNow() - start >= spec.seconds)
            break;
    }
    res.peakRssMb = peakRssMb();
}

void
PipeLayer::addStats(const sim::PipeSimStats &s)
{
    packets += s.completed;
    cycles += s.cycles;
    hazardChecks += s.hazardChecks;
    hazardSkips += s.hazardSummarySkips;
    eventSkippedCycles += s.eventSkippedCycles;
}

void
PipeLayer::addDrain(double drain_cpu_sec, const sim::PipeSimPhaseProfile &p)
{
    drainCpuSec += drain_cpu_sec;
    phases.executeSec += p.executeSec;
    phases.hazardSec += p.hazardSec;
    phases.checkpointSec += p.checkpointSec;
    phases.commitSec += p.commitSec;
    phases.advanceRetireSec += p.advanceRetireSec;
    phases.flushSec += p.flushSec;
}

void
PipeLayer::report(Metrics &m) const
{
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["sim.pipe.drain_cpu_ns_per_pkt"] = {
        ratio(drainCpuSec * 1e9, static_cast<double>(packets)), "ns"};
    m["sim.pipe.mcyc_per_cpu_s"] = {
        ratio(static_cast<double>(cycles) / 1e6, drainCpuSec), "Mcyc/s"};
    m["sim.pipe.hazard_summary_skip_ratio"] = {
        ratio(static_cast<double>(hazardSkips),
              static_cast<double>(hazardChecks)),
        "ratio"};
    m["sim.pipe.event_skip_ratio"] = {
        ratio(static_cast<double>(eventSkippedCycles),
              static_cast<double>(cycles)),
        "ratio"};
    const double total = phases.executeSec + phases.hazardSec +
                         phases.checkpointSec + phases.commitSec +
                         phases.advanceRetireSec + phases.flushSec;
    const std::pair<const char *, double> shares[] = {
        {"execute", phases.executeSec},
        {"hazard", phases.hazardSec},
        {"checkpoint", phases.checkpointSec},
        {"commit", phases.commitSec},
        {"advance_retire", phases.advanceRetireSec},
        {"flush", phases.flushSec},
    };
    for (const auto &[name, sec] : shares)
        m[std::string("sim.pipe.phase.") + name + "_share"] = {
            ratio(sec, total), "share"};
}

void
ModeledLayer::add(const sim::PipeSimStats &s,
                  const std::vector<sim::PacketOutcome> &outs)
{
    completed += s.completed;
    cycles += s.cycles;
    flushEvents += s.flushEvents;
    replayedStages += s.replayedStages;
    stallCycles += s.stallCycles;
    latencyCycles.reserve(latencyCycles.size() + outs.size());
    for (const sim::PacketOutcome &o : outs)
        latencyCycles.push_back(o.exitCycle - o.entryCycle + 1);
}

void
ModeledLayer::report(Metrics &m) const
{
    const double ns_per_cycle = 1e9 / static_cast<double>(kClockHz);
    m["modeled_mpps"] = {
        cycles == 0 ? 0.0
                    : static_cast<double>(completed) *
                          static_cast<double>(kClockHz) /
                          static_cast<double>(cycles) / 1e6,
        "sim_Mpps"};
    m["modeled_lat_p50_ns"] = {
        static_cast<double>(percentile(latencyCycles, 0.50)) * ns_per_cycle,
        "sim_ns"};
    m["modeled_lat_p99_ns"] = {
        static_cast<double>(percentile(latencyCycles, 0.99)) * ns_per_cycle,
        "sim_ns"};
    m["sim.pipe.flush_events"] = {static_cast<double>(flushEvents), "count"};
    m["sim.pipe.replayed_stages"] = {static_cast<double>(replayedStages),
                                     "count"};
    m["sim.pipe.stall_cycles"] = {static_cast<double>(stallCycles),
                                  "sim_cycles"};
}

void
timeStatsJson(Ledger *ledger, const sim::PipeSimStats &s)
{
    if (ledger == nullptr)
        return;
    Span span(ledger, "out.stats_json");
    const std::string text = sim::statsJson(s, kClockHz).dump();
    if (text.empty())
        throw std::runtime_error("empty stats JSON");
}

hdl::Pipeline
compileTraced(const ebpf::Program &prog, Ledger *ledger)
{
    hdl::CompileResult cr;
    {
        Span span(ledger, "hdl.compile");
        cr = hdl::compileWithReport(prog);
    }
    if (!cr.pipeline)
        throw std::runtime_error("program '" + prog.name +
                                 "' failed to compile: " +
                                 cr.report.diags.render());
    if (ledger != nullptr)
        for (const hdl::PassTiming &pass : cr.report.passes)
            ledger->add("hdl.pass." + pass.name, pass.seconds);
    return std::move(*cr.pipeline);
}

void
reportCommonLayers(const Ledger &ledger, uint64_t traffic_packets,
                   Metrics &m)
{
    const uint64_t compiles = ledger.calls("hdl.compile");
    const auto per_compile = [&](const std::string &span) {
        return compiles == 0 ? 0.0
                             : ledger.seconds(span) /
                                   static_cast<double>(compiles);
    };
    m["hdl.compile_s"] = {per_compile("hdl.compile"), "s"};
    for (const std::string &pass : hdl::passNames())
        m["hdl.pass." + pass + "_s"] = {per_compile("hdl.pass." + pass), "s"};
    m["sim.traffic.ns_per_pkt"] = {
        nsPer(ledger, "sim.traffic", traffic_packets), "ns"};
    const uint64_t renders = ledger.calls("out.stats_json");
    m["out.stats_json_s"] = {
        renders == 0 ? 0.0
                     : ledger.seconds("out.stats_json") /
                           static_cast<double>(renders),
        "s"};
}

void
reportPipelineShape(const std::vector<const hdl::Pipeline *> &pipes,
                    Metrics &m)
{
    double stages = 0, flush_blocks = 0;
    for (const hdl::Pipeline *p : pipes) {
        stages += static_cast<double>(p->numStages());
        flush_blocks += static_cast<double>(p->flushBlocks.size());
    }
    const double n = pipes.empty() ? 1.0 : static_cast<double>(pipes.size());
    m["hdl.stages"] = {stages / n, "count"};
    m["hdl.flush_blocks"] = {flush_blocks / n, "count"};
}

void
reportVm(double seconds, uint64_t packets, uint64_t insns, Metrics &m)
{
    m["ebpf.vm.ns_per_pkt"] = {
        packets == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(packets),
        "ns"};
    m["ebpf.vm.ns_per_insn"] = {
        insns == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(insns), "ns"};
    m["ebpf.vm.insns_per_pkt"] = {
        packets == 0 ? 0.0
                     : static_cast<double>(insns) /
                           static_cast<double>(packets),
        "count"};
}

}  // namespace ehdl::perfbench
