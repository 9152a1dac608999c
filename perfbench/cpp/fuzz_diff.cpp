/**
 * @file
 * fuzz-diff: a seeded campaign of generated, verifier-accepted programs,
 * each with a small collision-heavy trace run VM vs pipeline through
 * fuzz::makeCase + fuzz::runCase. Per-case compile and simulator setup
 * dominate, so work moved into setup shows up here as a loss.
 *
 * After the timed rounds the round-0 cases are decomposed once more into
 * their layers (compile, packet materialization, PipeSim drain, reference
 * VM) around the same public calls runCase makes, which gives the ledger
 * rows for this workload and a second VM check of every compiled case.
 */

#include <memory>
#include <unordered_map>

#include "aot_layer.hpp"
#include "ebpf/vm.hpp"
#include "fuzz/fuzzer.hpp"
#include "workloads.hpp"

namespace ehdl::perfbench {

Result
runFuzzDiff(const RunSpec &spec)
{
    fuzz::FuzzOptions opts;
    opts.seed = deriveSeed(spec.seed, 300) >> 16;
    const unsigned cases_per_round = spec.probe ? 40 : 600;

    Result res;
    Ledger ledger;
    std::vector<uint8_t> compiled(cases_per_round, 0);
    uint64_t rejected = 0;

    // Every round runs campaign iterations [0, K) again.
    runRounds(spec, 3, res, [&](unsigned round, Ledger *tl) {
        RoundCost c;
        const double s0 = wallNow();
        std::vector<fuzz::FuzzCase> cases;
        cases.reserve(cases_per_round);
        {
            Span span(tl, "fuzz.make_case");
            for (unsigned i = 0; i < cases_per_round; ++i)
                cases.push_back(fuzz::makeCase(opts.seed, i, opts));
        }
        c.setupSec = wallNow() - s0;

        const double w0 = wallNow();
        const double p0 = processCpu();
        std::vector<fuzz::CaseResult> results;
        results.reserve(cases.size());
        {
            Span span(tl, "fuzz.run_case");
            for (const fuzz::FuzzCase &fc : cases)
                results.push_back(fuzz::runCase(fc, opts.run));
        }
        c.wallSec = wallNow() - w0;
        c.cpuSec = processCpu() - p0;
        c.ops = cases.size();

        Digest d;
        for (size_t i = 0; i < results.size(); ++i) {
            const fuzz::CaseResult &r = results[i];
            d.u64(r.compiled ? 1 : 0);
            d.str(r.rejectPass);
            d.u64(r.diverged() ? 1 : 0);
            d.u64(r.numStages);
            d.u64(r.vmInsns);
            d.stats(r.pipeStats);
            if (r.compiled)
                c.packets += cases[i].packets.size();
            if (round == 0) {
                compiled[i] = r.compiled ? 1 : 0;
                rejected += r.compiled ? 0 : 1;
                if (r.diverged()) {
                    ++res.failed;
                    res.notes.push_back("case " + std::to_string(i) + ": " +
                                        r.divergence->describe());
                }
            }
        }
        c.digest = d.value();
        return c;
    }, ledger);

    // Layer decomposition of the round-0 campaign (outside timed rounds).
    Ledger *tl = spec.traced ? &ledger : nullptr;
    PipeLayer pipe_layer;
    ModeledLayer modeled;
    std::vector<std::unique_ptr<hdl::Pipeline>> pipes;
    std::string first_ref;
    uint64_t traffic_packets = 0, vm_pkts = 0, vm_insns = 0;
    double vm_sec = 0;
    for (unsigned i = 0; i < cases_per_round; ++i) {
        if (compiled[i] == 0)
            continue;
        const fuzz::FuzzCase fc = fuzz::makeCase(opts.seed, i, opts);
        pipes.push_back(std::make_unique<hdl::Pipeline>(
            compileTraced(fc.prog, tl)));
        if (first_ref.empty())
            first_ref = "fuzz:" + std::to_string(opts.seed) + ":" +
                        std::to_string(i);
        std::vector<net::Packet> pkts;
        {
            Span span(tl, "sim.traffic");
            pkts = fc.materializePackets();
        }
        traffic_packets += pkts.size();

        ebpf::MapSet maps(fc.prog.maps);
        sim::PipeSimConfig cfg;
        cfg.inputQueueCapacity = opts.run.inputQueueCapacity;
        cfg.profilePhases = tl != nullptr;
        sim::PipeSim sim(*pipes.back(), maps, cfg);
        for (const net::Packet &p : pkts)
            sim.offer(p);
        const double d0 = threadCpu();
        sim.drain();
        pipe_layer.addDrain(threadCpu() - d0, sim.phaseProfile());
        pipe_layer.addStats(sim.stats());
        modeled.add(sim.stats(), sim.outcomes());
        timeStatsJson(tl, sim.stats());

        ebpf::MapSet vm_maps(fc.prog.maps);
        ebpf::Vm vm(fc.prog, vm_maps);
        std::vector<ebpf::ExecResult> refs(pkts.size());
        const double t0 = wallNow();
        for (size_t p = 0; p < pkts.size(); ++p)
            refs[p] = vm.run(pkts[p]);
        vm_sec += wallNow() - t0;
        vm_pkts += pkts.size();
        std::unordered_map<uint64_t, const sim::PacketOutcome *> by_id;
        for (const sim::PacketOutcome &o : sim.outcomes())
            by_id[o.id] = &o;
        for (size_t p = 0; p < pkts.size(); ++p) {
            vm_insns += refs[p].insnsExecuted;
            const auto it = by_id.find(pkts[p].id);
            if (it == by_id.end() ||
                !sameAsVm(*it->second, refs[p], pkts[p].bytes()))
                ++res.failed;
        }
        if (!ebpf::MapSet::equal(vm_maps, maps))
            ++res.failed;
    }

    modeled.report(res.modeled);
    if (!spec.traced)
        return res;
    reportCommonLayers(ledger, traffic_packets, res.layer);
    pipe_layer.report(res.layer);
    reportVm(vm_sec, vm_pkts, vm_insns, res.layer);
    const auto per_case = [&](const char *span) {
        const uint64_t batches = ledger.calls(span);
        return batches == 0 ? 0.0
                            : ledger.seconds(span) /
                                  static_cast<double>(batches *
                                                      cases_per_round);
    };
    res.layer["fuzz.make_case_s"] = {per_case("fuzz.make_case"), "s"};
    res.layer["fuzz.run_case_s"] = {per_case("fuzz.run_case"), "s"};
    res.layer["fuzz.rejected_frac"] = {
        static_cast<double>(rejected) / cases_per_round, "ratio"};
    res.layer["fuzz.cases_per_s"] = {median(res.opsPerSec), "1/s"};
    if (!spec.probe) {
        std::vector<const hdl::Pipeline *> ptrs;
        for (const auto &p : pipes)
            ptrs.push_back(p.get());
        reportPipelineShape(ptrs, res.layer);
        measureAotLayer(ptrs, first_ref, spec.aotCache, res);
    }
    return res;
}

}  // namespace ehdl::perfbench
