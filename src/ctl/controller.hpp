/**
 * @file
 * The host control-plane controller: executes a timed CtlSchedule against
 * a running PipeSim or MultiPipeSim with hazard-safe update semantics, and
 * replays the identical schedule against the reference VM for differential
 * checking.
 *
 * Hazard discipline. Host writes obey the same discipline as datapath
 * writes: they apply only at packet-boundary quiescence points. When a
 * mutating command (map_update / map_delete / map_batch / swap_program)
 * arrives at the device, the controller holds packet injection, lets every
 * in-flight packet retire (the input queue keeps filling — the NIC never
 * stops receiving), applies the command against the then-empty pipeline,
 * bumps the touched maps' generation counters, and releases injection.
 * A packet therefore observes either the entire old or the entire new map
 * entry — never a torn update. stats_read is side-band (a register read in
 * the shell): it samples counters at the device-arrival cycle without
 * quiescing, so pure polling costs the datapath nothing.
 *
 * Replica fan-out (MultiPipeSim):
 *  - Sharded maps: a mutation fans out to EVERY replica's shard, applied
 *    at each replica's own quiescence boundary (replicas share nothing, so
 *    per-replica boundaries make the threaded and lockstep drains
 *    identical by construction). A lookup returns one result per replica.
 *  - Shared maps: one application at a global quiescence point reached by
 *    round-robin lockstep (results recorded under replica 0).
 *
 * Differential contract. Every transaction record carries, per replica,
 * the number of packets retired before the command applied
 * (retiredBefore). Because the pipeline retires packets strictly in offer
 * order, replaying the per-replica packet stream on the sequential VM and
 * applying each recorded transaction exactly before packet index
 * retiredBefore reproduces the device's interleaving — identical verdicts,
 * identical final map state (replayScheduleOnVm). Shared-map multi-replica
 * runs have no global sequential packet order and are excluded from VM
 * replay (covered by targeted tests instead).
 */

#ifndef EHDL_CTL_CONTROLLER_HPP_
#define EHDL_CTL_CONTROLLER_HPP_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "ctl/channel.hpp"
#include "ctl/command.hpp"
#include "ebpf/maps.hpp"
#include "host/host_dma.hpp"
#include "ebpf/program.hpp"
#include "ebpf/xdp.hpp"
#include "hdl/pipeline.hpp"
#include "net/packet.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::ctl {

/** Device-side result of one map primitive. */
struct CtlOpResult
{
    int rc = 0;                  ///< update/delete errno-style result
    bool hit = false;            ///< lookup found the key
    std::vector<uint8_t> value;  ///< lookup value (empty on miss)

    bool operator==(const CtlOpResult &) const = default;
};

/**
 * One device-side sample of a stats_stream transaction: the datapath
 * counters, and (when a host datapath is attached) the replica's host
 * queue advanced to the same cycle — ring occupancy, coalescing and
 * drop-reason counters included.
 */
struct CtlStreamSample
{
    uint64_t cycle = 0;
    sim::PipeSimStats stats;
    bool hostValid = false;
    host::HostQueueCounters host;
};

/** Everything observed about one executed transaction. */
struct CtlTxnRecord
{
    CtlTxn txn;  ///< the command as executed

    uint64_t submitCycle = 0;    ///< left the host (after backpressure)
    uint64_t deviceCycle = 0;    ///< visible at the NIC mailbox
    uint64_t completeCycle = 0;  ///< completion visible at the host

    /** Per replica: cycle the command actually applied (>= deviceCycle). */
    std::vector<uint64_t> applyCycle;
    /** Per replica: packets retired before the command applied. */
    std::vector<uint64_t> retiredBefore;
    /** Per replica, per op: device-side results (shared mode: replica 0). */
    std::vector<std::vector<CtlOpResult>> results;
    /** stats_read only: per-replica counter snapshot at deviceCycle. */
    std::vector<sim::PipeSimStats> statsSnapshot;
    /**
     * stats_stream only: the timestamped series, indexed
     * [replica][sample]. Sample i is taken at deviceCycle + i * period;
     * the transaction completes after the last sample (the mailbox stays
     * busy while the device streams), all side-band — no quiescence.
     */
    std::vector<std::vector<CtlStreamSample>> streamSamples;
};

/** The full apply log of one schedule execution. */
struct CtlRunReport
{
    unsigned numReplicas = 1;
    std::vector<CtlTxnRecord> txns;
};

/**
 * The apply log as JSON (the "report" object of `ehdl-ctl --stats-out`):
 * per transaction its cycles, per-replica op results, stats snapshots
 * and stream samples. Map values render as lower-case hex.
 */
Json reportJson(const CtlRunReport &report);

/**
 * Executes CtlSchedules. Drive pattern: offer() the traffic to the
 * simulator, run() the schedule (the controller steps the simulator up to
 * each command's device cycle, quiescing as needed), then drain() the
 * simulator for the remaining packets.
 */
class CtlController
{
  public:
    /** Control a single pipeline; @p maps is the set backing @p sim. */
    CtlController(sim::PipeSim &sim, ebpf::MapSet &maps,
                  CtlChannelConfig config = {});

    /** Control a multi-queue simulator (both map modes). */
    explicit CtlController(sim::MultiPipeSim &multi,
                           CtlChannelConfig config = {});

    /**
     * Register a compiled pipeline as a swap_program target. @p pipe must
     * outlive the controller and the simulator, and must declare maps
     * shape-identical to the running program's (checked at swap).
     */
    void addProgram(const std::string &label, const hdl::Pipeline &pipe);

    /** Registered swap targets (label → pipeline). */
    const std::map<std::string, const hdl::Pipeline *> &
    programs() const
    {
        return programs_;
    }

    const CtlChannel &channel() const { return channel_; }

    /**
     * Attach the host DMA datapath (nullptr detaches). stats_stream
     * samples then include each replica's host-queue counters (queue r
     * serves replica r). @p host must outlive the controller's run().
     */
    void attachHost(host::HostDatapath *host) { host_ = host; }

    /**
     * Execute @p sched to completion and return the apply log. Remaining
     * traffic is NOT drained — call the simulator's drain() afterwards.
     * @throw FatalError on malformed schedules (unknown map or swap
     *        label, oversized batch, unordered cycles).
     */
    CtlRunReport run(const CtlSchedule &sched);

  private:
    void validate(const CtlSchedule &sched) const;
    void applyOnReplica(size_t r, const CtlTxn &txn, uint64_t device_cycle,
                        CtlTxnRecord &rec);
    void applyShared(const CtlTxn &txn, uint64_t device_cycle,
                     CtlTxnRecord &rec);

    std::vector<sim::PipeSim *> sims_;
    std::vector<ebpf::MapSet *> maps_;
    bool sharedMode_ = false;
    bool threaded_ = false;
    host::HostDatapath *host_ = nullptr;
    CtlChannel channel_;
    std::map<std::string, const hdl::Pipeline *> programs_;
};

/**
 * Apply one map transaction (lookup/update/delete/batch) to @p maps,
 * recording per-op results. Mutating transactions bump the generation
 * counter of every distinct touched map once. This is the single
 * implementation of host-op semantics, used by both the device side and
 * the VM replay, so the two cannot drift apart.
 */
void applyHostTxn(ebpf::MapSet &maps, const CtlTxn &txn,
                  std::vector<CtlOpResult> &results);

/** Per-packet verdict from the VM replay. */
struct CtlVmOutcome
{
    uint64_t id = 0;
    ebpf::XdpAction action = ebpf::XdpAction::Aborted;
    bool trapped = false;
    uint32_t redirectIfindex = 0;
    uint64_t insnsExecuted = 0;
    std::vector<uint8_t> bytes;
    std::string trapReason;  ///< "" unless trapped
};

/** Result of replaying one replica's stream + schedule on the VM. */
struct CtlVmReplayResult
{
    std::vector<CtlVmOutcome> outcomes;  ///< one per packet, offer order
    /** Per schedule txn, the VM-side op results (lookups included). */
    std::vector<std::vector<CtlOpResult>> txnResults;
};

/**
 * Replay @p packets (one replica's ACCEPTED packets, in offer order)
 * against the sequential VM, applying each transaction of @p report at
 * its recorded retiredBefore[@p replica] packet boundary. @p maps must be
 * seeded exactly like the replica's maps were at simulator construction.
 * swap_program transactions switch execution to programs[label], which
 * must contain every label the schedule swaps to.
 */
CtlVmReplayResult replayScheduleOnVm(
    const ebpf::Program &prog,
    const std::map<std::string, const ebpf::Program *> &programs,
    const std::vector<net::Packet> &packets, const CtlRunReport &report,
    unsigned replica, ebpf::MapSet &maps);

/**
 * The first way a simulator run differs from its VM replay. The field
 * names what differed: "completion" (packet count or retire order),
 * "action", "trap" (trapped flag or reason), "redirect", "bytes",
 * "ctl-op" (a transaction's host-op results) or "maps" (final state).
 */
struct VmMismatch
{
    /** Packet on which the difference surfaced (0 for whole-run fields). */
    uint64_t packetId = 0;
    std::string field;
    std::string detail;

    /** "field (packet N): detail". */
    std::string describe() const;
};

/**
 * The one check of a simulator run against the reference VM. Replays
 * @p packets on the VM (replayScheduleOnVm into @p vmMaps, seeded like
 * the replica's maps were; an empty @p report is the plain sequential
 * run) and compares, in this order, with what replica @p replica did:
 * the completion count and retire order of @p outcomes, then per packet
 * its action, trap flag and reason, redirect target and bytes, then the
 * host-op results of every transaction and the final maps @p devMaps.
 * Adds the instructions the VM executed to @p vmInsns when given.
 * Returns the first mismatch, or nothing when the replica matches.
 */
std::optional<VmMismatch> checkReplicaAgainstVm(
    const ebpf::Program &prog,
    const std::map<std::string, const ebpf::Program *> &programs,
    const std::vector<net::Packet> &packets, const CtlRunReport &report,
    unsigned replica, ebpf::MapSet &vmMaps,
    const std::vector<sim::PacketOutcome> &outcomes,
    const ebpf::MapSet &devMaps, uint64_t *vmInsns = nullptr);

}  // namespace ehdl::ctl

#endif  // EHDL_CTL_CONTROLLER_HPP_
