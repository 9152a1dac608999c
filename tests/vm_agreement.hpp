/**
 * @file
 * The reference-VM check the simulator tests share. Every test that
 * holds a run against the sequential VM goes through
 * ctl::checkReplicaAgainstVm, so they all compare the same fields:
 * retire order, action, trap flag and reason, redirect target, bytes
 * and final maps.
 */

#ifndef EHDL_TESTS_VM_AGREEMENT_HPP_
#define EHDL_TESTS_VM_AGREEMENT_HPP_

#include <functional>
#include <string>
#include <vector>

#include "ctl/controller.hpp"

namespace ehdl::test {

/**
 * How @p outcomes and @p devMaps differ from the VM run of @p packets in
 * order, from maps seeded by @p seed (none when empty): the first
 * mismatch described, or "" when they agree.
 */
inline std::string
vmMismatch(const ebpf::Program &prog,
           const std::function<void(ebpf::MapSet &)> &seed,
           const std::vector<net::Packet> &packets,
           const std::vector<sim::PacketOutcome> &outcomes,
           const ebpf::MapSet &devMaps)
{
    ebpf::MapSet vm_maps(prog.maps);
    if (seed)
        seed(vm_maps);
    const auto m = ctl::checkReplicaAgainstVm(prog, {}, packets, {}, 0,
                                              vm_maps, outcomes, devMaps);
    return m ? m->describe() : "";
}

}  // namespace ehdl::test

#endif  // EHDL_TESTS_VM_AGREEMENT_HPP_
