/**
 * @file
 * Differential fuzzing driver (flags: ehdl-fuzz --help):
 *
 *   ehdl-fuzz [options]                          run a fuzzing campaign
 *   ehdl-fuzz --replay CASE.ehdlcase... [options]  replay saved cases
 *
 * A campaign exits 1 when it found a divergence (reproducers are shrunk
 * and optionally written to --corpus DIR), a replay when a case misses
 * its recorded expectation; both exit 0 otherwise.
 */

#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/logging.hpp"
#include "fuzz/case.hpp"
#include "fuzz/diff.hpp"
#include "fuzz/fuzzer.hpp"

namespace {

using namespace ehdl;

int
replay(const std::vector<std::string> &paths, const fuzz::RunOptions &run)
{
    int failures = 0;
    for (const std::string &path : paths) {
        const fuzz::FuzzCase c = fuzz::loadCase(path);
        const fuzz::CaseResult r = fuzz::runCase(c, run);
        const bool ok = r.diverged() == c.expectDivergence;
        std::cout << (ok ? "OK   " : "FAIL ") << path << ": "
                  << (r.diverged() ? r.divergence->describe()
                                   : (r.compiled ? "agreement"
                                                 : "rejected: " +
                                                       r.rejectReason))
                  << " (expected "
                  << (c.expectDivergence ? "divergence" : "agreement")
                  << ")\n";
        if (!ok)
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}

int
run(int argc, char **argv)
{
    fuzz::FuzzOptions opts;
    fuzz::RunOptions &exec = opts.run;
    std::string stats_out;
    bool replay_mode = false, quiet = false;
    cli::FlagTable flags(
        "usage: ehdl-fuzz [options]\n"
        "       ehdl-fuzz --replay CASE.ehdlcase [CASE...] [options]\n\n"
        "Differential fuzzing of the compiled pipeline against the\n"
        "reference VM. A campaign exits 1 when it finds a divergence; a\n"
        "replay exits 1 when a case misses its recorded expectation. The\n"
        "executor flags (--ctl-replicas to --paranoid) also apply to\n"
        "shrinking and --replay.");
    flags.toggle("--replay", "replay the CASE files instead of fuzzing",
                 replay_mode)
        .integer("--iters", "N", "iterations to run", opts.iterations, 0)
        .integer("--seed", "N", "campaign seed", opts.seed, 0)
        .integer("--packets-min", "N", "min packets per workload",
                 opts.minPackets, 1, 1u << 16)
        .integer("--packets-max", "N", "max packets per workload",
                 opts.maxPackets, 1, 1u << 16)
        .integer("--flows", "N", "max flows per workload", opts.maxFlows, 1,
                 1u << 16)
        .toggle("--inject-war-bug", "compile without WAR delay buffers",
                opts.injectWarBug)
        .toggle("--inject-flush-bug",
                "compile without flush-evaluation blocks",
                opts.injectFlushBug)
        .toggle("--ctl", "interleave random host control-plane schedules "
                "(map updates/deletes/lookups at random cycles) and "
                "check one pipeline and sharded MultiPipeSim replicas "
                "against the VM replay", opts.ctl)
        .integer("--ctl-txns", "N", "max transactions per schedule",
                 opts.ctlMaxTxns, 1, 1u << 16)
        .integer("--ctl-replicas", "N", "MultiPipeSim replicas for --ctl "
                 "cases; below 2 disables that backend", exec.ctlReplicas, 0,
                 64);
    cli::addEngineFlags(flags, exec.engine, exec.aotBackend, exec.schedMode,
                        exec.paranoidChecks);
    flags.toggle("--host", "attach a small-ring host DMA datapath to every "
                 "pipeline backend; the differential contract must hold "
                 "unchanged and drained host queues must conserve "
                 "descriptors (consumed + shellDrops == PASS verdicts)",
                 exec.hostModel)
        .add({"--host-ring", "N", "ring depth of the --host model, implies "
              "--host; small keeps backpressure paths hot",
              [&exec](const std::string &v) {
                  exec.hostModel = true;
                  exec.hostRingDepth = static_cast<unsigned>(
                      cli::parseInt("--host-ring", v, 1, 1u << 16));
              },
              std::to_string(exec.hostRingDepth)})
        .toggle("--no-shrink", "keep reproducers unreduced", opts.shrink,
                false)
        .toggle("--all", "keep fuzzing past the first divergence",
                opts.stopAtFirstDivergence, false)
        .text("--corpus", "DIR", "write shrunk reproducers to DIR",
              opts.corpusDir);
    cli::addOutputFlags(flags, stats_out, &quiet);
    const std::vector<std::string> cases = flags.parse(argc - 1, argv + 1);
    if (opts.maxPackets < opts.minPackets)
        fatal("--packets-max (", opts.maxPackets,
              ") must be at least --packets-min (", opts.minPackets, ")");
    if (replay_mode != !cases.empty())
        fatal(replay_mode ? "--replay requires at least one case file"
                          : "unexpected argument '" + cases.front() +
                                "' (case files need --replay)");
    if (replay_mode)
        return replay(cases, exec);

    std::ostream *log = quiet ? nullptr : &std::cout;
    const fuzz::FuzzStats stats = fuzz::runFuzz(opts, log);
    std::cout << "ran " << stats.iterations << " iterations: "
              << stats.compiled << " compiled, " << stats.rejected
              << " rejected, " << stats.divergences << " divergences ("
              << stats.packetsRun << " packets, " << stats.vmInsns
              << " vm insns)\n";
    if (!stats.rejectedByPass.empty()) {
        std::cout << "rejections by pass:\n";
        for (const auto &[pass, count] : stats.rejectedByPass)
            std::cout << "  " << pass << ": " << count << "\n";
    }
    for (const fuzz::DivergenceRecord &rec : stats.records) {
        std::cout << "divergence at iteration " << rec.iteration << ": "
                  << rec.divergence.describe() << "\n  shrunk to "
                  << rec.shrunk.prog.insns.size() << " insns / "
                  << rec.shrunk.packets.size() << " packets";
        if (!rec.savedPath.empty())
            std::cout << " -> " << rec.savedPath;
        std::cout << "\n";
    }
    if (!stats_out.empty())
        cli::writeJson(stats_out, fuzz::campaignJson(stats), !quiet);
    return stats.divergences == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    return cli::main("ehdl-fuzz", argc, argv, run);
}
