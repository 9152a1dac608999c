/**
 * @file
 * Shared pieces of the end-to-end benchmark: clocks, the span ledger the
 * traced run records into, the modeled-stats digest, the round loop and
 * the per-workload result every workload returns.
 *
 * Spans live only in the benchmark's own files and wrap *batches* of calls
 * into one layer's public API (all TrafficGen::next calls of a run, one
 * drain(), one CtlController::run, ...), never single packets. A Span built
 * on a null Ledger reads no clock, so untraced rounds pay nothing.
 */

#ifndef EHDL_PERFBENCH_COMMON_HPP_
#define EHDL_PERFBENCH_COMMON_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ebpf/exec.hpp"
#include "ebpf/maps.hpp"
#include "hdl/pipeline.hpp"
#include "sim/pipe_sim.hpp"
#include "sim/traffic.hpp"

namespace ehdl::perfbench {

// ---------------------------------------------------------------- clocks

/** Monotonic wall clock, seconds. */
double wallNow();
/** CPU time of the whole process (all threads), seconds. */
double processCpu();
/** CPU time of the calling thread, seconds. */
double threadCpu();
/** Peak resident set size of the process so far, MiB. */
double peakRssMb();

/**
 * Wall time of a fixed calibration kernel that shares no code with the
 * toolchain. Run before every round, (time / kCalibRefSec)^kLoadExponent
 * is that round's machine-speed factor: host-time metrics are reported at
 * reference speed, so load from other tenants of a shared host cancels.
 */
double calibrationSec();

/** calibrationSec() on an unloaded reference host (4-vCPU Xeon VM). */
constexpr double kCalibRefSec = 0.011;

/**
 * The workloads lose more to host load than the cache-resident kernel:
 * over 75 runs spanning loaded and quiet periods, log-slowdown fits gave
 * exponents 1.1-1.7 per workload (LEDGER.md, "Reference speed").
 */
constexpr double kLoadExponent = 1.5;

/** Pipeline clock every workload runs at (PipeSimConfig default). */
constexpr uint64_t kClockHz = 250'000'000;

// ---------------------------------------------------------------- metrics

struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);
/** Nearest-rank percentile of @p v, p in [0,1] (0 when empty). */
uint64_t percentile(std::vector<uint64_t> v, double p);

// ---------------------------------------------------------------- spans

/** Host time accumulated per span name over a traced run. */
class Ledger
{
  public:
    void add(const std::string &name, double seconds);
    double seconds(const std::string &name) const;
    uint64_t calls(const std::string &name) const;

  private:
    struct Acc
    {
        double seconds = 0;
        uint64_t calls = 0;
    };
    std::map<std::string, Acc> spans_;
};

/** Times its scope into @p ledger under @p name; free when ledger is null. */
class Span
{
  public:
    Span(Ledger *ledger, const char *name)
        : ledger_(ledger), name_(name), t0_(ledger ? wallNow() : 0.0)
    {
    }
    ~Span()
    {
        if (ledger_ != nullptr)
            ledger_->add(name_, wallNow() - t0_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Ledger *ledger_;
    const char *name_;
    double t0_;
};

// ---------------------------------------------------------------- digest

/**
 * FNV-1a over the modeled, deterministic results of a round: contracted
 * PipeSimStats counters, per-packet outcomes and final map contents. Host
 * timing never enters it, so a host-speed change must leave it unchanged.
 */
class Digest
{
  public:
    void bytes(const void *data, size_t len);
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s);
    void stats(const sim::PipeSimStats &s);
    void outcomes(const std::vector<sim::PacketOutcome> &outs);
    void maps(const ebpf::MapSet &maps);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------- checks

/**
 * True when the pipeline's outcome for one packet agrees with the
 * reference VM: verdict, redirect ifindex, trap flag and output bytes.
 */
bool sameAsVm(const sim::PacketOutcome &out, const ebpf::ExecResult &ref,
              const std::vector<uint8_t> &ref_bytes);

// ---------------------------------------------------------------- apps

struct NamedApp
{
    std::string key;  ///< lower-case app:<key> name
    apps::AppSpec spec;
};

/** Build one evaluation app by its app:<key> name. */
NamedApp makeApp(const std::string &key);

/** Traffic shaped by an app's hints (protocol, reverse fraction). */
sim::TrafficConfig appTraffic(const apps::AppSpec &spec, uint64_t seed);

/** Independent 64-bit stream derived from the workload seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

// ---------------------------------------------------------------- rounds

/** The parameters of one workload run. */
struct RunSpec
{
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    /** A short side run that only fills per-layer rows (see main.cpp). */
    bool probe = false;
    /** Fresh temporary native-module cache (traced main runs only). */
    std::string aotCache;
};

/** Host cost of one round (untraced rounds feed the end-to-end metrics). */
struct RoundCost
{
    double setupSec = 0;  ///< compile, seeding, simulator construction
    double wallSec = 0;   ///< first input generated → last outcome collected
    double cpuSec = 0;    ///< process CPU over the same interval
    uint64_t packets = 0;
    uint64_t ops = 0;     ///< operations the round checks
    uint64_t digest = 0;
};

/** Everything a workload reports back to main. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    bool digestStable = true;
    double peakRssMb = 0;

    // Per untraced round, raw host measurements.
    std::vector<double> pps;
    std::vector<double> cpuNsPerPkt;
    std::vector<double> setupSec;
    std::vector<double> opsPerSec;
    /** Machine-speed factor measured just before the round. */
    std::vector<double> speed;
    std::vector<double> untracedWall, tracedWall;

    Metrics layer;    ///< per-layer rows (traced runs)
    Metrics modeled;  ///< modeled (simulated-time) results
    std::vector<std::string> notes;
};

/**
 * Run rounds until @p spec.seconds of wall time is spent (at least
 * @p min_rounds). Traced runs alternate untraced and traced rounds so the
 * tracing overhead is measured on identical work in one process. Every
 * round must reproduce round 0's digest; a round that does not counts all
 * of its operations as failed.
 */
void runRounds(const RunSpec &spec, unsigned min_rounds, Result &res,
               const std::function<RoundCost(unsigned, Ledger *)> &round,
               Ledger &ledger);

/** Per-packet ns over a ledger span (0 when the span never ran). */
double nsPer(const Ledger &ledger, const std::string &span, uint64_t count);

// ---------------------------------------------------------------- layers

/** sim.pipe rows accumulated over the traced drains of a run. */
struct PipeLayer
{
    double drainCpuSec = 0;
    uint64_t packets = 0;
    uint64_t cycles = 0;  ///< simulated cycles summed over every replica
    uint64_t hazardChecks = 0;
    uint64_t hazardSkips = 0;
    uint64_t eventSkippedCycles = 0;
    sim::PipeSimPhaseProfile phases;

    /** One drain() call: its CPU and phase profile. */
    void addDrain(double drain_cpu_sec, const sim::PipeSimPhaseProfile &p);
    /** One simulator's (or replica's) counters after its drain. */
    void addStats(const sim::PipeSimStats &s);
    void report(Metrics &m) const;
};

/**
 * Modeled (simulated-time) results of one round: forwarding rate,
 * entry→exit latency percentiles and the contracted hazard counters.
 */
struct ModeledLayer
{
    uint64_t completed = 0;
    uint64_t cycles = 0;
    uint64_t flushEvents = 0;
    uint64_t replayedStages = 0;
    uint64_t stallCycles = 0;
    std::vector<uint64_t> latencyCycles;

    /** One simulator run (MultiPipeSim::stats() for replicas: max cycles). */
    void add(const sim::PipeSimStats &s,
             const std::vector<sim::PacketOutcome> &outs);
    void report(Metrics &m) const;
};

/** Render @p s with the shared stats JSON (the `out` layer), timed. */
void timeStatsJson(Ledger *ledger, const sim::PipeSimStats &s);

/**
 * Compile @p prog, recording the hdl.compile span and the CompileReport's
 * per-pass times when traced. @throw std::runtime_error on rejection.
 */
hdl::Pipeline compileTraced(const ebpf::Program &prog, Ledger *ledger);

/**
 * Rows every workload derives from the same spans: hdl.compile_s and the
 * nine hdl.pass.<pass>_s (mean per compile), sim.traffic.ns_per_pkt over
 * @p traffic_packets, and out.stats_json_s (mean per render).
 */
void reportCommonLayers(const Ledger &ledger, uint64_t traffic_packets,
                        Metrics &m);

/** hdl.stages / hdl.flush_blocks: means over @p pipes. */
void reportPipelineShape(const std::vector<const hdl::Pipeline *> &pipes,
                         Metrics &m);

/** ebpf.vm rows from a timed reference-VM pass. */
void reportVm(double seconds, uint64_t packets, uint64_t insns, Metrics &m);

}  // namespace ehdl::perfbench

#endif  // EHDL_PERFBENCH_COMMON_HPP_
