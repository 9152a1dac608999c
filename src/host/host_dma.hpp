/**
 * @file
 * Host DMA datapath: the PCIe/host side of the modeled NIC.
 *
 * The paper's pipelines sit inside a NIC shell whose host interface was a
 * stub — XDP_PASS verdicts simply terminated in counters, so "can the host
 * keep up" was assumed rather than measured. This subsystem models the
 * missing half as an NDP-style DMA engine (patterned on the CESNET ndk-sw
 * libnfb/ndptool datapath): per-queue host RX/TX descriptor rings with
 * configurable depth, descriptor batching over a PCIe bandwidth/latency
 * budget shared with the control mailbox (src/ctl/channel.hpp), completion
 * coalescing with count+timer interrupt-moderation triggers, and a host
 * consumer with a tunable service rate.
 *
 * Dataflow per queue (one queue per RSS replica):
 *
 *   pipeline retirement (PASS) → shell FIFO → DMA burst → RX ring →
 *   coalesced completion IRQ → host consumer → optional XDP_TX re-emit →
 *   TX ring → TX DMA → shell egress (ahead of the egress arbiter)
 *
 * Backpressure is drop-based, as in the real shell: when the host falls
 * behind, the RX ring stays full, DMA bursts cannot reserve ring slots,
 * the shell FIFO fills, and further PASS retirements are dropped at the
 * FIFO under the distinct `shellDrops` counter. The pipeline's own timing
 * is never perturbed — the host model consumes the retirement event
 * stream (cycle, verdict, bytes), which the three-way engine contract
 * already makes bit-identical across interp/AOT engines and dense/event
 * scheduling, so host-side behavior is deterministic and identical across
 * all engine/sched combinations by construction (docs/HOST_DATAPATH.md).
 *
 * All arithmetic is integer (ceil-divide bandwidth costs, Bresenham
 * accumulators for the host service interval and the TX re-emit
 * fraction), so the model is exactly reproducible across platforms and
 * across threaded MultiPipeSim drains (each queue's state is touched only
 * by its own replica's retirement stream).
 */

#ifndef EHDL_HOST_HOST_DMA_HPP_
#define EHDL_HOST_HOST_DMA_HPP_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/json.hpp"
#include "sim/multi_pipe_sim.hpp"
#include "sim/pipe_sim.hpp"

namespace ehdl::host {

/**
 * The PCIe budget shared between the DMA engine and the control mailbox.
 * CtlChannelConfig::roundTripCycles defaults to the same round trip, so
 * doorbell timing and descriptor-fetch latency stay mutually consistent:
 * one hop (host→device or device→host) is half the round trip.
 */
constexpr uint64_t kPcieRoundTripCycles = 700;

/** Effective PCIe payload bandwidth (Gbit/s), split across host queues. */
constexpr double kPcieEffectiveGbps = 64.0;

/** Host-datapath configuration (one instance covers every queue). */
struct HostDmaConfig
{
    /** Host queues; MultiPipeSim replica r feeds queue r. */
    unsigned numQueues = 1;
    /** RX/TX descriptor ring depth, descriptors per queue. */
    unsigned ringDepth = 256;
    /** NIC-shell FIFO between pipeline retirement and the DMA engine. */
    unsigned shellFifoDepth = 64;
    /** Descriptors one DMA burst moves (writeback batching). */
    unsigned batchSize = 8;
    /** Completion coalescing: IRQ after this many completions... */
    unsigned coalesceCount = 8;
    /** ...or this many cycles after the first uncoalesced completion. */
    uint64_t coalesceTimeoutCycles = 256;
    /** Shell clock the cycle arithmetic runs at (250 MHz designs). */
    uint64_t clockHz = 250'000'000;
    /** PCIe payload bandwidth, split evenly across numQueues. */
    double pcieGbps = kPcieEffectiveGbps;
    /** One-way PCIe latency per DMA burst (half the mailbox round trip). */
    uint64_t dmaLatencyCycles = kPcieRoundTripCycles / 2;
    /** Host consumer service rate, million packets per second. */
    double hostRateMpps = 30.0;
    /** Fraction of consumed packets the host re-emits as XDP_TX. */
    double txReinjectFraction = 0.0;
};

/** Counters and live occupancy of one host queue. */
struct HostQueueCounters
{
    uint64_t enqueued = 0;      ///< PASS retirements offered to the FIFO
    uint64_t shellDrops = 0;    ///< dropped at the full shell FIFO (the
                                ///< distinct host-backpressure drop reason)
    uint64_t dmaBursts = 0;     ///< DMA bursts started
    uint64_t dmaDescriptors = 0;  ///< descriptors those bursts carried
    uint64_t dmaBytes = 0;        ///< payload bytes DMA'd to the host
    uint64_t interrupts = 0;      ///< completion IRQs raised
    uint64_t countTriggeredIrqs = 0;  ///< IRQs from the count threshold
    uint64_t timerTriggeredIrqs = 0;  ///< IRQs from the coalescing timer
    uint64_t consumed = 0;        ///< descriptors the host consumed
    uint64_t consumedBytes = 0;   ///< goodput bytes the host consumed
    uint64_t txInjected = 0;      ///< XDP_TX descriptors the host posted
    uint64_t txBytes = 0;         ///< bytes those descriptors carried
    uint64_t txEmitted = 0;       ///< TX descriptors DMA'd into the shell
    uint64_t txRingDrops = 0;     ///< host TX posts dropped on a full ring

    uint32_t fifoOccupancy = 0;   ///< shell FIFO entries right now
    uint32_t ringOccupancy = 0;   ///< RX ring slots posted right now
    uint32_t visibleDescriptors = 0;  ///< RX descriptors IRQ-visible now

    bool operator==(const HostQueueCounters &) const = default;
};

/**
 * Registry of HostQueueCounters (common/counters.hpp). The host model
 * only observes retirements, so every counter is contracted. Queues sum,
 * occupancies too.
 */
constexpr auto
counterFields(counters::Of<HostQueueCounters>)
{
    using H = HostQueueCounters;
    using counters::Field;
    constexpr auto C = counters::Status::Contracted;
    return std::tuple{
        Field{"enqueued", &H::enqueued, C},
        Field{"shellDrops", &H::shellDrops, C},
        Field{"dmaBursts", &H::dmaBursts, C},
        Field{"dmaDescriptors", &H::dmaDescriptors, C},
        Field{"dmaBytes", &H::dmaBytes, C},
        Field{"interrupts", &H::interrupts, C},
        Field{"countTriggeredIrqs", &H::countTriggeredIrqs, C},
        Field{"timerTriggeredIrqs", &H::timerTriggeredIrqs, C},
        Field{"consumed", &H::consumed, C},
        Field{"consumedBytes", &H::consumedBytes, C},
        Field{"txInjected", &H::txInjected, C},
        Field{"txBytes", &H::txBytes, C},
        Field{"txEmitted", &H::txEmitted, C},
        Field{"txRingDrops", &H::txRingDrops, C},
        Field{"fifoOccupancy", &H::fifoOccupancy, C},
        Field{"ringOccupancy", &H::ringOccupancy, C},
        Field{"visibleDescriptors", &H::visibleDescriptors, C},
    };
}

/**
 * One host queue: shell FIFO, DMA engine, RX/TX rings, coalescing state
 * and the host consumer, advanced lazily to the cycle of each observed
 * event. Implements sim::RetireSink so it can hang directly off a
 * PipeSim replica; only XDP_PASS retirements enter the RX path.
 */
class HostQueue final : public sim::RetireSink
{
  public:
    HostQueue(const HostDmaConfig &config, unsigned index);

    /** sim::RetireSink: observe one retirement (PASS enters the FIFO). */
    void onRetire(uint64_t cycle, const sim::PacketOutcome &out) override;

    /** Run the queue's internal events up to @p cycle. */
    void advanceTo(uint64_t cycle);

    /**
     * No further arrivals: run events until the FIFO, DMA engine and
     * both rings are empty. @return the cycle the last event landed on.
     */
    uint64_t finish();

    /** advanceTo(@p cycle), then snapshot the counters. */
    HostQueueCounters sampleAt(uint64_t cycle);

    const HostQueueCounters &counters() const { return counters_; }
    unsigned index() const { return index_; }

    /**
     * Cycle-weighted percentile of posted RX-ring occupancy (0..depth),
     * over every cycle the queue has been advanced through. p in [0,1].
     */
    unsigned occupancyPercentile(double p) const;

  private:
    void noteOccupancy(uint64_t cycle);
    void raiseInterrupt(bool by_count);
    uint64_t bwCycles(uint64_t bytes) const;
    uint64_t serviceInterval();
    uint64_t nextEventCycle() const;
    bool processEventsUpTo(uint64_t target);

    HostDmaConfig cfg_;
    unsigned index_ = 0;
    uint64_t bpsShare_ = 1;   ///< per-queue PCIe bandwidth, bits/second
    uint64_t ratePps_ = 1;    ///< host service rate, packets/second
    uint64_t txPerMille_ = 0;

    /** One DMA burst in flight over the PCIe link (in-order landing). */
    struct DmaBurst
    {
        uint64_t landCycle = 0;
        std::vector<uint32_t> descs;
    };

    uint64_t now_ = 0;
    std::deque<uint32_t> fifo_;     ///< shell FIFO (payload byte lengths)
    std::deque<DmaBurst> inflight_;  ///< issued bursts, not yet landed
    uint32_t inflightDescs_ = 0;     ///< ring slots those bursts reserved
    uint64_t dmaLinkFreeCycle_ = 0;  ///< RX-direction link busy until here
    std::deque<uint32_t> ring_;     ///< RX ring (DMA'd, not yet consumed)
    uint32_t visible_ = 0;          ///< ring_ prefix visible to the host
    uint32_t pendingCompl_ = 0;     ///< completions awaiting an IRQ
    uint64_t coalesceDeadline_ = UINT64_MAX;
    uint64_t hostFreeCycle_ = 0;    ///< host consumer busy until here
    uint64_t svcAcc_ = 0;           ///< Bresenham service-interval carry
    uint64_t txAcc_ = 0;            ///< Bresenham TX-fraction carry
    uint32_t txPending_ = 0;        ///< TX ring occupancy
    std::deque<uint64_t> txCompletions_;  ///< TX DMA landing cycles
    uint64_t txDmaFreeCycle_ = 0;

    HostQueueCounters counters_;
    std::vector<uint64_t> occHist_;  ///< cycles spent at each occupancy
    uint64_t lastOccCycle_ = 0;
};

/**
 * The host datapath: one HostQueue per RSS queue plus attachment helpers.
 * Attach before offering traffic; after the simulator drains, call
 * finishAll() to let the host model consume its backlog.
 */
class HostDatapath
{
  public:
    explicit HostDatapath(HostDmaConfig config);

    const HostDmaConfig &config() const { return config_; }
    unsigned numQueues() const
    {
        return static_cast<unsigned>(queues_.size());
    }
    HostQueue &queue(unsigned q) { return *queues_.at(q); }
    const HostQueue &queue(unsigned q) const { return *queues_.at(q); }

    /** Feed @p sim's retirements into queue @p q. */
    void attach(sim::PipeSim &sim, unsigned q = 0);

    /** Feed replica r of @p multi into queue r (requires enough queues). */
    void attach(sim::MultiPipeSim &multi);

    /** finish() every queue. @return the latest queue-drain cycle. */
    uint64_t finishAll();

    /** Counters summed across queues (occupancies summed too). */
    HostQueueCounters totals() const;

  private:
    HostDmaConfig config_;
    std::vector<std::unique_ptr<HostQueue>> queues_;
};

/**
 * Render the whole host datapath as JSON: config echo, per-queue counters
 * with occupancy p50/p99, and the cross-queue totals.
 */
Json hostDatapathJson(const HostDatapath &host);

}  // namespace ehdl::host

#endif  // EHDL_HOST_HOST_DMA_HPP_
