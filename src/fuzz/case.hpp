/**
 * @file
 * A self-contained differential-fuzzing case: one program (instructions +
 * map declarations), one packet workload, and the compiler options it must
 * be compiled with (including any injected faults). Cases serialize to a
 * line-oriented text format (`*.ehdlcase`) so that failing inputs found by
 * the fuzzer replay bit-for-bit from the corpus, independent of how the
 * generator or traffic model evolve.
 */

#ifndef EHDL_FUZZ_CASE_HPP_
#define EHDL_FUZZ_CASE_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "ctl/command.hpp"
#include "ebpf/program.hpp"
#include "hdl/pipeline.hpp"
#include "net/packet.hpp"

namespace ehdl::fuzz {

/** One packet of a case's workload (wire bytes + arrival metadata). */
struct CasePacket
{
    uint64_t id = 0;
    uint64_t arrivalNs = 0;
    std::vector<uint8_t> bytes;

    bool operator==(const CasePacket &) const = default;
};

/** A complete, replayable differential-testing input. */
struct FuzzCase
{
    std::string name = "case";
    ebpf::Program prog;
    std::vector<CasePacket> packets;
    /** Compiler configuration, including injected-fault knobs. */
    hdl::PipelineOptions options;
    /**
     * Interleaved host control-plane schedule (empty for pure datapath
     * cases; `ctl` lines appear in the serialization only when present,
     * so pre-ctl corpus files round-trip unchanged).
     */
    ctl::CtlSchedule ctl;

    /** Provenance (informational; replay does not re-generate). */
    uint64_t programSeed = 0;
    uint64_t trafficSeed = 0;

    /** What a replay should observe (corpus regression contract). */
    bool expectDivergence = false;

    /** Instantiate the workload as simulator-ready packets. */
    std::vector<net::Packet> materializePackets() const;
};

/** Render @p c in the `.ehdlcase` text format. */
std::string serializeCase(const FuzzCase &c);

/**
 * Parse the `.ehdlcase` text format.
 * @throw FatalError on malformed input or a program the verifier rejects.
 */
FuzzCase parseCase(const std::string &text);

/** Write @p c to @p path. @throw FatalError when the file can't open. */
void saveCase(const FuzzCase &c, const std::string &path);

/** Load a case from @p path. @throw FatalError on I/O or parse errors. */
FuzzCase loadCase(const std::string &path);

}  // namespace ehdl::fuzz

#endif  // EHDL_FUZZ_CASE_HPP_
