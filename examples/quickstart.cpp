/**
 * @file
 * Quickstart: the full eHDL flow in one file.
 *
 *   1. Write an eBPF/XDP program (here in the textual assembly; real
 *      deployments feed clang-compiled bytecode through ebpf::decode()).
 *   2. Compile it into a hardware pipeline with hdl::compile().
 *   3. Inspect the generated design and emit VHDL.
 *   4. Run packets through the cycle-level simulator and compare against
 *      the sequential reference VM (exits 1 when they differ).
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "common/bitops.hpp"
#include "ctl/controller.hpp"
#include "ebpf/asm.hpp"
#include "ebpf/disasm.hpp"
#include "hdl/compiler.hpp"
#include "hdl/resources.hpp"
#include "hdl/vhdl.hpp"
#include "net/headers.hpp"
#include "sim/pipe_sim.hpp"

using namespace ehdl;

int
main()
{
    // --- 1. The program: count IPv4 packets, forward everything. -------
    const char *source = R"(
        .map stats array 4 8 4
        r2 = *(u32 *)(r1 + 4)        ; data_end
        r1 = *(u32 *)(r1 + 0)        ; data
        r3 = r1
        r3 += 14
        if r3 > r2 goto drop         ; runt frame
        r2 = *(u8 *)(r1 + 12)        ; EtherType, big-endian compose
        r2 <<= 8
        r4 = *(u8 *)(r1 + 13)
        r2 |= r4
        r3 = 0
        *(u32 *)(r10 - 4) = r3
        if r2 != 2048 goto count     ; not IPv4 -> bucket 0
        r3 = 1
        *(u32 *)(r10 - 4) = r3
        count:
        r1 = map[stats]
        r2 = r10
        r2 += -4
        call 1                        ; bpf_map_lookup_elem
        if r0 == 0 goto out
        r2 = 1
        lock *(u64 *)(r0 + 0) += r2   ; atomic per-bucket counter
        out:
        r0 = 3                        ; XDP_TX
        exit
        drop:
        r0 = 1                        ; XDP_DROP
        exit
    )";
    ebpf::Program prog = ebpf::assemble(source, "quickstart");
    std::printf("== program (%zu instructions) ==\n%s\n", prog.size(),
                ebpf::disasm(prog).c_str());

    // --- 2. Compile to a hardware pipeline. ----------------------------
    const hdl::Pipeline pipe = hdl::compile(prog);
    std::printf("== pipeline ==\n%s\n", pipe.describe().c_str());

    // --- 3. Price it and emit VHDL. -------------------------------------
    const hdl::ResourceReport report = hdl::estimateResources(pipe);
    std::printf("resources on Alveo U50 (shell included): "
                "LUT %.2f%%, FF %.2f%%, BRAM %.2f%%\n\n",
                report.lutFrac * 100, report.ffFrac * 100,
                report.bramFrac * 100);
    const std::string vhdl = hdl::generateVhdl(pipe);
    std::printf("== VHDL (first lines of %zu bytes) ==\n%.600s...\n\n",
                vhdl.size(), vhdl.c_str());

    // --- 4. Simulate and cross-check against the VM. --------------------
    ebpf::MapSet sim_maps(prog.maps);
    sim::PipeSimConfig config;
    config.inputQueueCapacity = 4096;
    sim::PipeSim sim(pipe, sim_maps, config);

    net::PacketSpec spec;
    std::vector<net::Packet> packets;
    for (uint64_t i = 1; i <= 1000; ++i) {
        packets.push_back(net::PacketFactory::build(spec));
        packets.back().id = i;
        sim.offer(packets.back());
    }
    sim.drain();

    std::printf("== simulation ==\n");
    std::printf("packets: %llu, throughput %.1f Mpps @250 MHz, "
                "avg latency %.0f ns\n",
                static_cast<unsigned long long>(sim.stats().completed),
                sim.stats().throughputMpps(250000000), sim.avgLatencyNs());
    // The reference VM runs the same packets one at a time; the pipeline
    // must agree on every verdict, every output byte and the final maps.
    ebpf::MapSet vm_maps(prog.maps);
    if (const auto m = ctl::checkReplicaAgainstVm(
            prog, {}, packets, {}, 0, vm_maps, sim.outcomes(), sim_maps)) {
        std::printf("pipeline and VM DIFFER on %s\n", m->describe().c_str());
        return 1;
    }
    std::printf("pipeline and VM MATCH\n");
    std::vector<uint8_t> key(4, 0);
    storeLe<uint32_t>(key.data(), 1);
    std::printf("IPv4 counter (host map read): %llu\n",
                static_cast<unsigned long long>(loadLe<uint64_t>(
                    sim_maps.at(0).hostLookup(key)->data())));
    return 0;
}
