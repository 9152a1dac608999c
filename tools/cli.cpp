#include "cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hpp"

namespace ehdl::cli {

namespace {

std::string
formatReal(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

}  // namespace

void
badValue(const std::string &flag, const std::string &accepted,
         const std::string &got)
{
    fatal(flag, ": expected ", accepted, ", got '", got, "'");
}

uint64_t
parseInt(const std::string &flag, const std::string &text, uint64_t lo,
         uint64_t hi)
{
    errno = 0;
    char *end = nullptr;
    const uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
        errno == ERANGE || v < lo || v > hi)
        badValue(flag, "an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]",
                 text);
    return v;
}

double
parseReal(const std::string &flag, const std::string &text, double lo,
          double hi)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v) || v < lo ||
        v > hi)
        badValue(flag, "a number in [" + formatReal(lo) + ", " +
                           formatReal(hi) + "]",
                 text);
    return v;
}

FlagTable &
FlagTable::add(Flag flag)
{
    flags_.push_back(std::move(flag));
    return *this;
}

FlagTable &
FlagTable::toggle(const std::string &name, const std::string &help,
                  bool &target, bool value)
{
    return add({name, "", help,
                [&target, value](const std::string &) { target = value; },
                ""});
}

FlagTable &
FlagTable::text(const std::string &name, const std::string &metavar,
                const std::string &help, std::string &target)
{
    return add({name, metavar, help,
                [&target](const std::string &v) { target = v; }, target});
}

FlagTable &
FlagTable::real(const std::string &name, const std::string &metavar,
                const std::string &help, double &target, double lo,
                double hi)
{
    return add({name, metavar, help,
                [&target, name, lo, hi](const std::string &v) {
                    target = parseReal(name, v, lo, hi);
                },
                formatReal(target)});
}

std::vector<std::string>
FlagTable::parse(int argc, char **argv) const
{
    std::vector<std::string> rest;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::cout << help();
            throw Exit{0};
        }
        if (arg.size() < 2 || arg[0] != '-') {
            rest.push_back(arg);
            continue;
        }
        const size_t eq = arg.rfind("--", 0) == 0 ? arg.find('=')
                                                   : std::string::npos;
        const std::string name = arg.substr(0, eq);
        const Flag *flag = nullptr;
        for (const Flag &f : flags_)
            if (f.name == name)
                flag = &f;
        if (flag == nullptr)
            fatal("unknown option '", name, "' (see --help)");
        if (eq != std::string::npos && flag->metavar.empty())
            fatal(name, " takes no value");
        if (eq != std::string::npos)
            flag->set(arg.substr(eq + 1));
        else if (flag->metavar.empty() || flag->metavar[0] == '[')
            flag->set("");
        else if (i + 1 < argc)
            flag->set(argv[++i]);
        else
            fatal(name, " requires a value (", flag->metavar, ")");
    }
    return rest;
}

std::string
FlagTable::help() const
{
    std::ostringstream os;
    os << synopsis_ << "\n\noptions:\n";
    for (const Flag &f : flags_) {
        std::string line = "  " + f.name;
        if (!f.metavar.empty())
            line += (f.metavar[0] == '[' ? "" : " ") + f.metavar;
        std::string words = f.help;
        if (!f.defaultValue.empty())
            words += " (default " + f.defaultValue + ")";
        // Wrap the help into columns 22..78, below a label too wide.
        if (line.size() + 2 > 22) {
            os << line << "\n";
            line.clear();
        }
        line.resize(22, ' ');
        std::istringstream is(words);
        for (std::string word; is >> word;) {
            if (line.size() > 22 && line.size() + 1 + word.size() > 78) {
                os << line << "\n";
                line.assign(22, ' ');
            }
            line += (line.size() > 22 ? " " : "") + word;
        }
        os << line << "\n";
    }
    os << "  -h, --help          print this help\n";
    return os.str();
}

std::string
single(const std::vector<std::string> &args, const std::string &what)
{
    if (args.size() != 1)
        fatal("expected one ", what, ", got ", args.size(),
              " arguments (see --help)");
    return args.front();
}

void
addEngineFlags(FlagTable &flags, sim::SimEngine &engine,
               sim::AotBackend &backend, sim::SchedMode &sched,
               bool &paranoid)
{
    flags
        .add({"--engine", "interp|aot|aot-native",
              "stage-execution engine; aot-native falls back to aot with a "
              "reported reason when no host compiler is usable",
              [&engine, &backend](const std::string &v) {
                  sim::PipeSimConfig config;
                  if (!sim::parseEngineSpec(v, config))
                      badValue("--engine", "one of interp|aot|aot-native", v);
                  engine = config.engine;
                  backend = config.aotBackend;
              },
              engine == sim::SimEngine::Interp         ? "interp"
              : backend == sim::AotBackend::Native ? "aot-native"
                                                   : "aot"})
        .choice("--sched",
                "cycle scheduling; event fast-forwards idle cycles, "
                "bit-identical to dense",
                sched,
                {{"dense", sim::SchedMode::Dense},
                 {"event", sim::SchedMode::EventDriven}})
        .toggle("--paranoid",
                "cross-check the O(1) hazard summaries against the full "
                "read scan (panics on a summary false negative)",
                paranoid);
}

void
addReplicaFlags(FlagTable &flags, unsigned &replicas, bool &threaded)
{
    flags
        .integer("--replicas", "N", "pipeline replicas behind RSS dispatch",
                 replicas, 1, 64)
        .toggle("--threaded", "drain sharded replicas on worker threads",
                threaded);
}

void
addHostFlags(FlagTable &flags, bool &hostRings, host::HostDmaConfig &config,
             double &hostFrac)
{
    // The ring, rate and coalescing flags imply --host-rings.
    const auto rings = [&hostRings](auto set) {
        return [&hostRings, set](const std::string &v) {
            hostRings = true;
            set(v);
        };
    };
    flags
        .toggle("--host-rings",
                "attach the host DMA datapath (RX rings, completion "
                "coalescing, host consumer)",
                hostRings)
        .add({"--ring-depth", "N", "host RX ring depth; implies --host-rings",
              rings([&config](const std::string &v) {
                  config.ringDepth = static_cast<unsigned>(
                      parseInt("--ring-depth", v, 1, 1u << 20));
              }),
              std::to_string(config.ringDepth)})
        .add({"--host-rate", "MPPS",
              "host consumer service rate; implies --host-rings",
              rings([&config](const std::string &v) {
                  config.hostRateMpps = parseReal("--host-rate", v, 1e-3, 1e6);
              }),
              formatReal(config.hostRateMpps)})
        .add({"--coalesce", "COUNT[,CYCLES]",
              "raise a completion IRQ after COUNT completions or CYCLES "
              "cycles; implies --host-rings",
              rings([&config](const std::string &v) {
                  const size_t comma = v.find(',');
                  config.coalesceCount = static_cast<unsigned>(parseInt(
                      "--coalesce", v.substr(0, comma), 1, 1u << 20));
                  if (comma != std::string::npos)
                      config.coalesceTimeoutCycles = parseInt(
                          "--coalesce", v.substr(comma + 1), 0, 1ull << 40);
              }),
              std::to_string(config.coalesceCount) + "," +
                  std::to_string(config.coalesceTimeoutCycles)})
        .real("--host-frac", "F",
              "fraction of flows tagged host-bound (PASS-heavy)", hostFrac, 0,
              1);
}

void
addWorkloadFlags(FlagTable &flags, uint64_t &packets, uint64_t &flows)
{
    flags
        .integer("--packets", "N", "packets of generated traffic", packets,
                 0, 1'000'000'000)
        .integer("--flows", "N", "flows of generated traffic", flows, 1,
                 1'000'000'000);
}

void
addOutputFlags(FlagTable &flags, std::string &statsOut, bool *quiet)
{
    flags.text("--stats-out", "FILE", "write the run's stats as JSON",
               statsOut);
    if (quiet != nullptr)
        flags.toggle("--quiet", "suppress progress and per-item output",
                     *quiet);
}

void
printHostSummary(const host::HostDatapath &host)
{
    const host::HostQueueCounters t = host.totals();
    std::printf("  host: %llu consumed (%.1f MB), %llu shell drops, "
                "%llu IRQs (%llu count, %llu timer)\n",
                static_cast<unsigned long long>(t.consumed),
                static_cast<double>(t.consumedBytes) / 1e6,
                static_cast<unsigned long long>(t.shellDrops),
                static_cast<unsigned long long>(t.interrupts),
                static_cast<unsigned long long>(t.countTriggeredIrqs),
                static_cast<unsigned long long>(t.timerTriggeredIrqs));
    for (unsigned q = 0; q < host.numQueues(); ++q) {
        const host::HostQueue &hq = host.queue(q);
        std::printf("  host queue %u: %llu consumed, %llu drops, "
                    "ring occupancy p50 %u / p99 %u\n", q,
                    static_cast<unsigned long long>(hq.counters().consumed),
                    static_cast<unsigned long long>(
                        hq.counters().shellDrops),
                    hq.occupancyPercentile(0.50),
                    hq.occupancyPercentile(0.99));
    }
}

void
writeJson(const std::string &path, const Json &json, bool announce)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '", path, "'");
    out << json.dump() << "\n";
    if (announce)
        std::printf("stats written to %s\n", path.c_str());
}

int
main(const char *tool, int argc, char **argv,
     const std::function<int(int, char **)> &run)
{
    try {
        return run(argc, argv);
    } catch (const Exit &e) {
        return e.code;
    } catch (const FatalError &e) {
        std::cerr << tool << ": " << e.what() << "\n";
        return 2;
    } catch (const PanicError &e) {
        std::cerr << tool << ": panic: " << e.what() << "\n";
        return 3;
    } catch (const std::exception &e) {
        std::cerr << tool << ": " << e.what() << "\n";
        return 1;
    }
}

}  // namespace ehdl::cli
