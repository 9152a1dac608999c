/**
 * @file
 * ehdl_perfbench — one end-to-end host-speed benchmark of the toolchain.
 *
 *   ehdl_perfbench --workload <name> --seed N --seconds S --trace 0|1
 *                  --scratch DIR
 *
 * Workloads: sq-saturated, mq4-churn, ctl-host-paced, fuzz-diff. The
 * untraced run (--trace 0) reports the end-to-end metrics; the traced run
 * (--trace 1) reports the per-layer ledger, including the tracing overhead
 * measured against untraced rounds of the same run. Rows a workload does
 * not exercise itself (ctl rows on sq-saturated, ...) come from a short
 * probe round of the workload that does, and are listed as probed.
 *
 * The last stdout line is one JSON object: correct, attempted, failed and
 * metrics ({name: {value, unit}}). Lines before it carry the modeled-stats
 * digest, the modeled results and notes. perfbench/run.py builds this
 * binary and checks its metric names against BENCHMARK.json.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "aot_layer.hpp"
#include "common.hpp"
#include "workloads.hpp"

using namespace ehdl::perfbench;

namespace {

using Runner = Result (*)(const RunSpec &);

const std::pair<const char *, Runner> kWorkloads[] = {
    {"sq-saturated", runSqSaturated},
    {"mq4-churn", runMq4Churn},
    {"ctl-host-paced", runCtlHostPaced},
    {"fuzz-diff", runFuzzDiff},
};

Runner
findWorkload(const std::string &name)
{
    for (const auto &[key, run] : kWorkloads)
        if (name == key)
            return run;
    return nullptr;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const Metrics &m)
{
    std::string out = "{";
    for (const auto &[name, metric] : m) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + jsonNumber(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    return out + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ehdl_perfbench --workload <sq-saturated|mq4-churn|"
                 "ctl-host-paced|fuzz-diff> --seed N --seconds S "
                 "--trace 0|1 --scratch DIR\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload, scratch;
    RunSpec spec;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--native-warm-probe" && i + 2 < argc)
                return nativeWarmProbe(argv[i + 1], argv[i + 2]);
            if (i + 1 >= argc)
                return usage();
            const std::string val = argv[++i];
            if (arg == "--workload")
                workload = val;
            else if (arg == "--seed")
                spec.seed = std::stoull(val);
            else if (arg == "--seconds")
                spec.seconds = std::stod(val);
            else if (arg == "--trace")
                spec.traced = val != "0";
            else if (arg == "--scratch")
                scratch = val;
            else
                return usage();
        }
        const Runner run = findWorkload(workload);
        if (run == nullptr || scratch.empty())
            return usage();

        std::unique_ptr<TempDir> cache;
        if (spec.traced) {
            cache = std::make_unique<TempDir>(scratch, "aot-cache-");
            spec.aotCache = cache->path();
        }
        Result res = run(spec);

        Metrics out;
        if (spec.traced) {
            res.layer.insert(res.modeled.begin(), res.modeled.end());
            std::string probed;
            for (const auto &[key, other] : kWorkloads) {
                if (other == run)
                    continue;
                RunSpec probe = spec;
                probe.probe = true;
                probe.seconds = 0;
                Result pr = other(probe);
                pr.layer.insert(pr.modeled.begin(), pr.modeled.end());
                for (const auto &[name, metric] : pr.layer)
                    if (res.layer.emplace(name, metric).second)
                        probed += (probed.empty() ? "" : " ") + name;
                res.attempted += pr.attempted;
                res.failed += pr.failed;
                res.digestStable = res.digestStable && pr.digestStable;
                res.notes.insert(res.notes.end(), pr.notes.begin(),
                                 pr.notes.end());
            }
            res.layer["bench.trace_overhead"] = {
                median(res.tracedWall) / median(res.untracedWall) - 1.0,
                "ratio"};
            std::printf("probed rows: %s\n", probed.c_str());
            out = res.layer;
        } else {
            // Each round at reference speed (see calibrationSec()).
            std::vector<double> pps, cpu, setup;
            for (size_t i = 0; i < res.speed.size(); ++i) {
                pps.push_back(res.pps[i] * res.speed[i]);
                cpu.push_back(res.cpuNsPerPkt[i] / res.speed[i]);
                setup.push_back(res.setupSec[i] / res.speed[i]);
            }
            std::printf("raw sim_pps %.6g cpu_ns_per_pkt %.6g setup_s %.6g, "
                        "machine-speed factor %.4f\n",
                        median(res.pps), median(res.cpuNsPerPkt),
                        median(res.setupSec), median(res.speed));
            out["sim_pps"] = {median(pps), "1/s"};
            out["cpu_ns_per_pkt"] = {median(cpu), "ns"};
            out["setup_s"] = {median(setup), "s"};
            out["peak_rss_mb"] = {res.peakRssMb, "MB"};
        }

        std::printf("workload %s seed %llu: %zu untraced + %zu traced rounds\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(spec.seed),
                    res.untracedWall.size(), res.tracedWall.size());
        std::printf("digest %016llx (%s across rounds)\n",
                    static_cast<unsigned long long>(res.digest),
                    res.digestStable ? "stable" : "UNSTABLE");
        std::printf("modeled %s\n", metricsJson(res.modeled).c_str());
        for (const std::string &note : res.notes)
            std::printf("note: %s\n", note.c_str());

        const bool correct = res.failed == 0 && res.digestStable;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(res.attempted),
                    static_cast<unsigned long long>(res.failed),
                    metricsJson(out).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ehdl_perfbench: %s\n", e.what());
        return 1;
    }
}
