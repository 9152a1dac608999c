/**
 * @file
 * The command-line front door shared by ehdlc, ehdl-ctl and ehdl-fuzz:
 * one FlagTable per command drives parsing, `--help` and value errors
 * (FatalError naming the flag and the range it accepts), the flag groups
 * the tools share are declared once, and cli::main maps FatalError to
 * exit 2 and PanicError to exit 3.
 */

#ifndef EHDL_TOOLS_CLI_HPP_
#define EHDL_TOOLS_CLI_HPP_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "host/host_dma.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::cli {

/**
 * One flag; without a metavar it is a switch. A metavar starting with
 * '[' ("[=FILE]") takes its value only as `--flag=FILE`, and bare
 * `--flag` calls the setter with "". Every flag also takes `--flag=V`.
 */
struct Flag
{
    std::string name, metavar, help;
    std::function<void(const std::string &)> set;
    std::string defaultValue;  ///< "(default ...)" in --help when set
};

/** Integer in [lo, hi], else FatalError naming @p flag and the range. */
uint64_t parseInt(const std::string &flag, const std::string &text,
                  uint64_t lo, uint64_t hi);
double parseReal(const std::string &flag, const std::string &text,
                 double lo, double hi);
/** FatalError "flag: expected <accepted>, got '<got>'". */
[[noreturn]] void badValue(const std::string &flag,
                           const std::string &accepted,
                           const std::string &got);

class FlagTable
{
  public:
    /** @p synopsis heads --help: "usage: ..." and a description. */
    explicit FlagTable(std::string synopsis) : synopsis_(std::move(synopsis))
    {
    }

    FlagTable &add(Flag flag);
    FlagTable &toggle(const std::string &name, const std::string &help,
                      bool &target, bool value = true);
    FlagTable &text(const std::string &name, const std::string &metavar,
                    const std::string &help, std::string &target);
    FlagTable &real(const std::string &name, const std::string &metavar,
                    const std::string &help, double &target, double lo,
                    double hi);

    template <typename T>
    FlagTable &
    integer(const std::string &name, const std::string &metavar,
            const std::string &help, T &target, uint64_t lo,
            uint64_t hi = std::numeric_limits<T>::max())
    {
        return add({name, metavar, help,
                    [&target, name, lo, hi](const std::string &v) {
                        target = static_cast<T>(parseInt(name, v, lo, hi));
                    },
                    std::to_string(target)});
    }

    /** A flag whose value is one of the names in @p values. */
    template <typename T>
    FlagTable &
    choice(const std::string &name, const std::string &help, T &target,
           std::vector<std::pair<std::string, T>> values)
    {
        std::string names, current;
        for (const auto &[n, v] : values) {
            names += (names.empty() ? "" : "|") + n;
            if (v == target)
                current = n;
        }
        return add({name, names, help,
                    [&target, name, names, values](const std::string &v) {
                        for (const auto &[n, value] : values)
                            if (v == n) {
                                target = value;
                                return;
                            }
                        badValue(name, "one of " + names, v);
                    },
                    current});
    }

    /**
     * Apply the flags in argv[0..argc) and return the other arguments.
     * `-h`/`--help` prints help() and throws Exit{0}.
     */
    std::vector<std::string> parse(int argc, char **argv) const;
    std::string help() const;

  private:
    std::string synopsis_;
    std::vector<Flag> flags_;
};

/** Thrown to end a tool early with exit status @c code. */
struct Exit
{
    int code;
};

/** The single positional argument, named @p what in the error. */
std::string single(const std::vector<std::string> &args,
                   const std::string &what);

/** --engine, --sched and --paranoid. */
void addEngineFlags(FlagTable &flags, sim::SimEngine &engine,
                    sim::AotBackend &backend, sim::SchedMode &sched,
                    bool &paranoid);
/** --replicas and --threaded. */
void addReplicaFlags(FlagTable &flags, unsigned &replicas, bool &threaded);
/** --host-rings, --ring-depth, --host-rate, --coalesce and --host-frac. */
void addHostFlags(FlagTable &flags, bool &hostRings,
                  host::HostDmaConfig &config, double &hostFrac);
/** --packets and --flows of generated traffic. */
void addWorkloadFlags(FlagTable &flags, uint64_t &packets, uint64_t &flows);
/** --stats-out, and --quiet when @p quiet is non-null. */
void addOutputFlags(FlagTable &flags, std::string &statsOut, bool *quiet);

/** Host-datapath totals and per-queue lines after the drain. */
void printHostSummary(const host::HostDatapath &host);
/** Write @p json to @p path; say so on stdout when @p announce. */
void writeJson(const std::string &path, const Json &json, bool announce);

/**
 * Run @p run, mapping FatalError to exit 2, PanicError to 3 and any
 * other exception to 1, each reported on stderr as "@p tool: ...".
 */
int main(const char *tool, int argc, char **argv,
         const std::function<int(int, char **)> &run);

}  // namespace ehdl::cli

#endif  // EHDL_TOOLS_CLI_HPP_
